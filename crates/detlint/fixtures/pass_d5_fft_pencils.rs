// Fixture: linted as crates/core/src/pool.rs, the audited pool — the
// distributed-FFT mesh pattern (DESIGN.md §10): scoped workers transform
// disjoint pencil chunks of the grid, and the caller merges per-rank charge
// meshes serially in fixed rank order with wrapping adds.

pub fn transform_pencils(grid: &mut [i64], pencil: usize) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the audited fan-out: workers write disjoint buffers, the caller merges in rank order"
    )]
    std::thread::scope(|s| {
        for chunk in grid.chunks_mut(pencil) {
            s.spawn(move || {
                for v in chunk.iter_mut() {
                    *v = v.wrapping_mul(3);
                }
            });
        }
    });
}

pub fn merge_rank_meshes(mesh: &mut [i64], per_rank: &[Vec<i64>]) {
    for rank in per_rank.iter() {
        for (a, b) in mesh.iter_mut().zip(rank.iter()) {
            *a = a.wrapping_add(*b);
        }
    }
}

//! Constraint-group co-location (paper §3.2.4).
//!
//! Anton keeps every atom of a constraint group on one node (so integration
//! is purely local) and migrates atoms between nodes only every N time steps.
//! Both choices let atoms sit on an "incorrect" node temporarily; correctness
//! is preserved by expanding the NT import region as if the cutoff were
//! larger, while the match units keep testing against the true cutoff — "the
//! set of particle interactions performed remains exactly the same." This
//! module is the homing rule; the deferral is the engine's match cache, which
//! keeps its binning frozen between rebuilds under `core::ranks::IMPORT_MARGIN`.

use crate::assign::NodeGrid;
use anton_geometry::IVec3;

/// Assign every atom to the home box of its *group leader* (first atom of
/// its group). Atoms not covered by any group get their own box.
/// `fracs` are fractional coordinates in `[0,1)³`.
pub fn assign_homes(grid: &NodeGrid, fracs: &[[f64; 3]], groups: &[Vec<u32>]) -> Vec<IVec3> {
    let mut home = Vec::new();
    assign_homes_into(grid, fracs, groups, &mut home);
    home
}

/// Buffer-reusing form of [`assign_homes`] for per-step callers: `out` is
/// cleared and refilled, so steady-state re-homing allocates nothing.
pub fn assign_homes_into(
    grid: &NodeGrid,
    fracs: &[[f64; 3]],
    groups: &[Vec<u32>],
    out: &mut Vec<IVec3>,
) {
    out.clear();
    out.extend(fracs.iter().map(|&f| grid.box_of_frac(f)));
    for g in groups {
        if let Some((&leader, rest)) = g.split_first() {
            let b = out[leader as usize];
            for &m in rest {
                out[m as usize] = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_colocated() {
        let grid = NodeGrid::cubic(4);
        // Leader in box (0,0,0); member strayed into the next box.
        let fracs = vec![[0.05, 0.05, 0.05], [0.30, 0.05, 0.05], [0.80, 0.80, 0.80]];
        let homes = assign_homes(&grid, &fracs, &[vec![0, 1]]);
        assert_eq!(homes[0], homes[1]);
        assert_eq!(homes[0], grid.box_of_frac([0.05, 0.05, 0.05]));
        assert_eq!(homes[2], grid.box_of_frac([0.80, 0.80, 0.80]));
    }
}

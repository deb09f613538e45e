//! SHAKE/RATTLE distance constraints.
//!
//! Both engines constrain bond lengths to hydrogens and rigid water
//! geometry exactly as the paper's simulations do ("bond lengths to hydrogen
//! atoms were constrained", Table 4), which is what permits 2.5 fs steps.
//! The solver lives beside [`ConstraintGroup`] so `anton-core` and
//! `anton-refmd` run the same one.

use crate::topology::ConstraintGroup;
use anton_geometry::{PeriodicBox, Vec3};
use std::ops::Range;

/// Groups solved together, sweep by sweep: their update chains are
/// independent, so the core overlaps them.
const LOCKSTEP: usize = 8;

/// Iterative SHAKE: adjust `pos` so every constrained distance matches its
/// target, using `pos_ref` (pre-drift positions) for the constraint
/// directions. Mass-weighted so momentum is conserved. Returns iterations
/// used.
///
/// Each group is swept until it converges (or `max_iters`), and the count
/// returned is the largest over the groups. That is the global
/// Gauss–Seidel sweep (every group, every sweep, until all converge) bit
/// for bit, because no two groups share an atom: a group's updates touch
/// only its own atoms, and a converged group never updates again. The
/// engines refuse groups that overlap ([`assert_disjoint_groups`]).
pub fn shake(
    pbox: &PeriodicBox,
    groups: &[ConstraintGroup],
    mass: &[f64],
    pos_ref: &[Vec3],
    pos: &mut [Vec3],
    tol: f64,
    max_iters: usize,
) -> usize {
    if max_iters == 0 {
        return 0;
    }
    // The global sweep's first sweep finds an empty list converged.
    let mut iters = 1;
    let mut block = Block::default();
    for chunk in groups.chunks(LOCKSTEP) {
        block.load(pbox, chunk, mass, pos_ref, pos, tol);
        iters = iters.max(block.solve(pbox, max_iters));
        for (&a, &p) in block.atoms.iter().zip(&block.pos) {
            pos[a] = p;
        }
    }
    iters
}

/// Panics when an atom belongs to two constraint groups. [`shake`] solves
/// each group alone, which equals the global sweep only for groups that
/// share no atom, so both engines check this when they are built.
pub fn assert_disjoint_groups(groups: &[ConstraintGroup], n_atoms: usize) {
    let mut owner = vec![usize::MAX; n_atoms];
    for (g, group) in groups.iter().enumerate() {
        for &(i, j, _) in &group.pairs {
            for a in [i, j] {
                let o = &mut owner[a as usize];
                assert!(
                    *o == usize::MAX || *o == g,
                    "constraint groups {} and {g} share atom {a}: SHAKE solves each group \
                     on its own, so an atom may belong to one group only",
                    *o
                );
                *o = g;
            }
        }
    }
}

/// One constrained pair, with what depends only on `pos_ref`, `mass` and
/// `tol` formed once per call, by the expressions the sweep would form.
#[derive(Clone, Copy)]
struct Pair {
    /// The two atoms' slots in [`Block::pos`].
    i: usize,
    j: usize,
    d_ref: Vec3,
    wi: f64,
    wj: f64,
    /// `2·(wi + wj)`, the leading factor of the denominator.
    w2: f64,
    /// `d0·d0`.
    d0_sq: f64,
    /// `2·tol·d0·d0`: the bound on `|r² − d0²|`.
    bound: f64,
}

/// Up to [`LOCKSTEP`] groups on local copies of their atoms.
#[derive(Default)]
struct Block {
    /// Global index of each local slot; a group's atoms are contiguous.
    atoms: Vec<usize>,
    /// The slots' positions.
    pos: Vec<Vec3>,
    pairs: Vec<Pair>,
    /// Each group's range in `pairs`.
    groups: Vec<Range<usize>>,
}

impl Block {
    fn load(
        &mut self,
        pbox: &PeriodicBox,
        groups: &[ConstraintGroup],
        mass: &[f64],
        pos_ref: &[Vec3],
        pos: &[Vec3],
        tol: f64,
    ) {
        self.atoms.clear();
        self.pos.clear();
        self.pairs.clear();
        self.groups.clear();
        for g in groups {
            let (first, start) = (self.atoms.len(), self.pairs.len());
            let mut slot = |a: usize| match self.atoms[first..].iter().position(|&b| b == a) {
                Some(s) => first + s,
                None => {
                    self.atoms.push(a);
                    self.pos.push(pos[a]);
                    self.atoms.len() - 1
                }
            };
            for &(i, j, d0) in &g.pairs {
                let (i, j) = (i as usize, j as usize);
                let (wi, wj) = (1.0 / mass[i], 1.0 / mass[j]);
                self.pairs.push(Pair {
                    i: slot(i),
                    j: slot(j),
                    d_ref: pbox.min_image(pos_ref[i], pos_ref[j]),
                    wi,
                    wj,
                    w2: 2.0 * (wi + wj),
                    d0_sq: d0 * d0,
                    bound: 2.0 * tol * d0 * d0,
                });
            }
            self.groups.push(start..self.pairs.len());
        }
    }

    /// Sweep every unconverged group until each converges or `max_iters`;
    /// returns the sweeps the slowest group took. Within a sweep the
    /// active groups advance together, one pair each at a time, so the
    /// updates in flight belong to different groups and do not wait on one
    /// another; each group still takes its own pairs in order.
    fn solve(&mut self, pbox: &PeriodicBox, max_iters: usize) -> usize {
        let mut active: [Range<usize>; LOCKSTEP] = Default::default();
        let mut n = self.groups.len();
        active[..n].clone_from_slice(&self.groups);
        let widest = self.groups.iter().map(|g| g.len()).max().unwrap_or(0);
        let mut sweeps = 0;
        while n > 0 && sweeps < max_iters {
            sweeps += 1;
            let mut converged = [true; LOCKSTEP];
            for k in 0..widest {
                for (g, c) in active[..n].iter().zip(&mut converged) {
                    if g.start + k < g.end {
                        *c &= update(pbox, &self.pairs[g.start + k], &mut self.pos);
                    }
                }
            }
            let mut a = 0;
            while a < n {
                if converged[a] {
                    n -= 1;
                    active.swap(a, n);
                    converged[a] = converged[n];
                } else {
                    a += 1;
                }
            }
        }
        sweeps
    }
}

/// One SHAKE pair update; true when the pair was within tolerance (and so
/// nothing moved).
#[inline]
fn update(pbox: &PeriodicBox, p: &Pair, pos: &mut [Vec3]) -> bool {
    let d = pbox.min_image(pos[p.i], pos[p.j]);
    let diff = d.norm2() - p.d0_sq;
    if diff.abs() > p.bound {
        let denom = p.w2 * p.d_ref.dot(d);
        if denom.abs() < 1e-12 {
            return false;
        }
        let gamma = diff / denom;
        pos[p.i] -= p.d_ref * (gamma * p.wi);
        pos[p.j] += p.d_ref * (gamma * p.wj);
        false
    } else {
        true
    }
}

/// RATTLE velocity projection: remove velocity components along constrained
/// bonds so that d/dt|r_ij|² = 0.
pub fn rattle(
    pbox: &PeriodicBox,
    groups: &[ConstraintGroup],
    mass: &[f64],
    pos: &[Vec3],
    vel: &mut [Vec3],
    tol: f64,
    max_iters: usize,
) -> usize {
    let mut iters = 0;
    for _ in 0..max_iters {
        iters += 1;
        let mut converged = true;
        for g in groups {
            for &(i, j, d0) in &g.pairs {
                let (i, j) = (i as usize, j as usize);
                let d = pbox.min_image(pos[i], pos[j]);
                let dv = vel[i] - vel[j];
                let rv = d.dot(dv);
                if rv.abs() > tol * d0 {
                    converged = false;
                    let (wi, wj) = (1.0 / mass[i], 1.0 / mass[j]);
                    let k = rv / (d.norm2() * (wi + wj));
                    vel[i] -= d * (k * wi);
                    vel[j] += d * (k * wj);
                }
            }
        }
        if converged {
            break;
        }
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::TIP3P;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The global sweep [`shake`] replaced: every group on every sweep,
    /// until a sweep finds all of them converged. The oracle it must equal.
    fn shake_global_sweep(
        pbox: &PeriodicBox,
        groups: &[ConstraintGroup],
        mass: &[f64],
        pos_ref: &[Vec3],
        pos: &mut [Vec3],
        tol: f64,
        max_iters: usize,
    ) -> usize {
        let mut iters = 0;
        for _ in 0..max_iters {
            iters += 1;
            let mut converged = true;
            for g in groups {
                for &(i, j, d0) in &g.pairs {
                    let (i, j) = (i as usize, j as usize);
                    let d = pbox.min_image(pos[i], pos[j]);
                    let r2 = d.norm2();
                    let diff = r2 - d0 * d0;
                    if diff.abs() > 2.0 * tol * d0 * d0 {
                        converged = false;
                        let d_ref = pbox.min_image(pos_ref[i], pos_ref[j]);
                        let (wi, wj) = (1.0 / mass[i], 1.0 / mass[j]);
                        let denom = 2.0 * (wi + wj) * d_ref.dot(d);
                        if denom.abs() < 1e-12 {
                            continue;
                        }
                        let gamma = diff / denom;
                        pos[i] -= d_ref * (gamma * wi);
                        pos[j] += d_ref * (gamma * wj);
                    }
                }
            }
            if converged {
                break;
            }
        }
        iters
    }

    /// A constraint problem: groups, masses, reference and drifted positions.
    struct Case {
        name: &'static str,
        pbox: PeriodicBox,
        groups: Vec<ConstraintGroup>,
        mass: Vec<f64>,
        pos_ref: Vec<Vec3>,
        pos: Vec<Vec3>,
        rng: SmallRng,
    }

    impl Case {
        fn new(name: &'static str, edge: f64, seed: u64) -> Case {
            Case {
                name,
                pbox: PeriodicBox::cubic(edge),
                groups: Vec::new(),
                mass: Vec::new(),
                pos_ref: Vec::new(),
                pos: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
            }
        }

        fn unit(&mut self) -> Vec3 {
            loop {
                let v = Vec3::new(
                    self.rng.gen::<f64>() - 0.5,
                    self.rng.gen::<f64>() - 0.5,
                    self.rng.gen::<f64>() - 0.5,
                );
                if let Some(u) = v.normalized() {
                    return u;
                }
            }
        }

        /// Append atoms at `sites` (wrapped into the box), each drifted by
        /// up to `kick` Å per axis; returns the first index.
        fn atoms(&mut self, sites: &[Vec3], masses: &[f64], kick: f64) -> u32 {
            let base = self.pos.len() as u32;
            for (&p, &m) in sites.iter().zip(masses) {
                let k = Vec3::new(
                    self.rng.gen::<f64>() - 0.5,
                    self.rng.gen::<f64>() - 0.5,
                    self.rng.gen::<f64>() - 0.5,
                ) * (2.0 * kick);
                self.pos_ref.push(self.pbox.wrap(p));
                self.pos.push(self.pbox.wrap(p + k));
                self.mass.push(m);
            }
            base
        }

        /// A TIP3P water with its oxygen at `o`.
        fn water(&mut self, o: Vec3, kick: f64) {
            let dir = self.unit();
            let perp = dir.cross(self.unit()).normalized().unwrap();
            let sites = TIP3P.place(o, dir, perp);
            let base = self.atoms(&sites, &[16.0, 1.0, 1.0], kick);
            self.groups.push(TIP3P.constraint_group(base));
        }

        fn waters(&mut self, n: usize, kick: f64) {
            let edge = self.pbox.edge().x;
            for _ in 0..n {
                let o = Vec3::new(
                    self.rng.gen::<f64>(),
                    self.rng.gen::<f64>(),
                    self.rng.gen::<f64>(),
                ) * edge;
                self.water(o, kick);
            }
        }

        /// A residue's three X–H constraints over six atoms, as the protein
        /// builder makes them: (N, HN), (CA, HA), (CB, HB).
        fn residue(&mut self, kick: f64) {
            let n = Vec3::new(
                self.rng.gen::<f64>(),
                self.rng.gen::<f64>(),
                self.rng.gen::<f64>(),
            ) * self.pbox.edge().x;
            let ca = n + self.unit() * 1.46;
            let cb = ca + self.unit() * 1.53;
            let sites = [
                n,
                n + self.unit() * 1.01,
                ca,
                ca + self.unit() * 1.09,
                cb,
                cb + self.unit() * 1.09,
            ];
            let b = self.atoms(&sites, &[14.0, 1.0, 12.0, 1.0, 12.0, 1.0], kick);
            self.groups.push(ConstraintGroup {
                pairs: vec![(b, b + 1, 1.01), (b + 2, b + 3, 1.09), (b + 4, b + 5, 1.09)],
            });
        }

        /// A pair whose drifted direction is perpendicular to its reference
        /// one: the denominator is zero, so it never converges.
        fn perpendicular_pair(&mut self) {
            let b = self.atoms(
                &[Vec3::new(5.0, 5.0, 5.0), Vec3::new(6.0, 5.0, 5.0)],
                &[12.0, 1.0],
                0.0,
            );
            self.pos[b as usize + 1] = Vec3::new(5.0, 6.5, 5.0 + 1e-15);
            self.groups.push(ConstraintGroup {
                pairs: vec![(b, b + 1, 1.0)],
            });
        }

        /// The same problem with its atoms renumbered backwards, so no
        /// group's atoms are adjacent or ascending.
        fn reversed(&self) -> Case {
            let n = self.pos.len() as u32;
            fn rev<T: Copy>(v: &[T]) -> Vec<T> {
                v.iter().rev().copied().collect()
            }
            Case {
                name: self.name,
                pbox: self.pbox,
                groups: self
                    .groups
                    .iter()
                    .map(|g| ConstraintGroup {
                        pairs: g
                            .pairs
                            .iter()
                            .map(|&(i, j, d0)| (n - 1 - i, n - 1 - j, d0))
                            .collect(),
                    })
                    .collect(),
                mass: rev(&self.mass),
                pos_ref: rev(&self.pos_ref),
                pos: rev(&self.pos),
                rng: self.rng.clone(),
            }
        }
    }

    fn bits(pos: &[Vec3]) -> Vec<[u64; 3]> {
        pos.iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    /// Solving each group to its own convergence gives the global sweep's
    /// positions, bit for bit, and its sweep count: on waters, six-atom
    /// residue groups, groups across the periodic boundary, a zero
    /// denominator, a group that never converges, `max_iters` 0 and 1, and
    /// no groups at all.
    #[test]
    fn shake_per_group_is_the_global_sweep_bitwise() {
        let mut cases = Vec::new();
        let mut c = Case::new("waters", 20.0, 1);
        c.waters(41, 0.1);
        cases.push(c);
        let mut c = Case::new("residues", 20.0, 2);
        for _ in 0..13 {
            c.residue(0.08);
        }
        cases.push(c);
        // Oxygens within 0.3 Å of a corner: every group spans the boundary.
        let mut c = Case::new("straddling", 12.0, 3);
        for k in 0..12 {
            let s = |b: usize| if k >> b & 1 == 0 { 0.15 } else { 11.85 };
            c.water(Vec3::new(s(0), s(1), s(2)), 0.1);
        }
        let half = c.pbox.edge().x / 2.0;
        assert!(c.groups.iter().all(|g| g.pairs.iter().any(|&(i, j, _)| {
            let d = c.pos[i as usize] - c.pos[j as usize];
            d.x.abs().max(d.y.abs()).max(d.z.abs()) > half
        })));
        cases.push(c);
        let mut c = Case::new("mixed", 20.0, 4);
        c.waters(3, 0.1);
        c.perpendicular_pair();
        c.residue(0.05);
        c.groups.push(ConstraintGroup { pairs: vec![] });
        c.waters(1, 0.0);
        c.waters(6, 0.2);
        cases.push(c);
        cases.push(Case::new("empty", 20.0, 5));
        let reversed: Vec<Case> = cases.iter().map(Case::reversed).collect();
        cases.extend(reversed);

        let mut hit_cap = false;
        for case in &cases {
            for tol in [1e-10, 1e-6] {
                for max_iters in [0, 1, 2, 7, 200] {
                    let mut want = case.pos.clone();
                    let n_want = shake_global_sweep(
                        &case.pbox,
                        &case.groups,
                        &case.mass,
                        &case.pos_ref,
                        &mut want,
                        tol,
                        max_iters,
                    );
                    let mut got = case.pos.clone();
                    let n_got = shake(
                        &case.pbox,
                        &case.groups,
                        &case.mass,
                        &case.pos_ref,
                        &mut got,
                        tol,
                        max_iters,
                    );
                    let what = format!("{} tol {tol} max_iters {max_iters}", case.name);
                    assert_eq!(n_got, n_want, "{what}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    hit_cap |= max_iters == 200 && n_want == 200;
                }
            }
        }
        assert!(hit_cap, "no case ran into max_iters");
    }

    fn water_group() -> (Vec<Vec3>, ConstraintGroup, Vec<f64>) {
        let m = TIP3P;
        let pos = m.place(
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 0.0),
        );
        (pos, m.constraint_group(0), vec![16.0, 1.0, 1.0])
    }

    #[test]
    fn shake_restores_rigid_geometry() {
        let pbox = PeriodicBox::cubic(20.0);
        let (ref_pos, group, mass) = water_group();
        // Perturb.
        let mut pos = ref_pos.clone();
        pos[1] += Vec3::new(0.08, -0.05, 0.02);
        pos[2] += Vec3::new(-0.03, 0.06, -0.04);
        let iters = shake(
            &pbox,
            std::slice::from_ref(&group),
            &mass,
            &ref_pos,
            &mut pos,
            1e-10,
            100,
        );
        assert!(iters < 100);
        for &(i, j, d0) in &group.pairs {
            let d = pbox.min_image(pos[i as usize], pos[j as usize]).norm();
            assert!((d - d0).abs() < 1e-8, "pair ({i},{j}): {d} vs {d0}");
        }
    }

    #[test]
    fn shake_conserves_momentum() {
        let pbox = PeriodicBox::cubic(20.0);
        let (ref_pos, group, mass) = water_group();
        let mut pos = ref_pos.clone();
        pos[1] += Vec3::new(0.08, -0.05, 0.02);
        let com_before: Vec3 = pos
            .iter()
            .zip(&mass)
            .fold(Vec3::ZERO, |a, (p, &m)| a + *p * m);
        shake(&pbox, &[group], &mass, &ref_pos, &mut pos, 1e-10, 100);
        let com_after: Vec3 = pos
            .iter()
            .zip(&mass)
            .fold(Vec3::ZERO, |a, (p, &m)| a + *p * m);
        assert!((com_before - com_after).norm() < 1e-10);
    }

    #[test]
    fn rattle_removes_bond_rate() {
        let pbox = PeriodicBox::cubic(20.0);
        let (pos, group, mass) = water_group();
        let mut vel = vec![
            Vec3::new(0.01, 0.0, 0.0),
            Vec3::new(-0.02, 0.01, 0.005),
            Vec3::new(0.015, -0.01, 0.0),
        ];
        rattle(
            &pbox,
            std::slice::from_ref(&group),
            &mass,
            &pos,
            &mut vel,
            1e-12,
            100,
        );
        for &(i, j, _) in &group.pairs {
            let d = pbox.min_image(pos[i as usize], pos[j as usize]);
            let dv = vel[i as usize] - vel[j as usize];
            assert!(d.dot(dv).abs() < 1e-10);
        }
    }
}

//! SHAKE/RATTLE distance constraints.
//!
//! Both engines constrain bond lengths to hydrogens and rigid water
//! geometry exactly as the paper's simulations do ("bond lengths to hydrogen
//! atoms were constrained", Table 4), which is what permits 2.5 fs steps.
//! The solver lives beside [`ConstraintGroup`] so `anton-core` and
//! `anton-refmd` run the same one.

use crate::topology::ConstraintGroup;
use anton_geometry::{PeriodicBox, Vec3};

/// Iterative SHAKE: adjust `pos` so every constrained distance matches its
/// target, using `pos_ref` (pre-drift positions) for the constraint
/// directions. Mass-weighted so momentum is conserved. Returns iterations
/// used.
pub fn shake(
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

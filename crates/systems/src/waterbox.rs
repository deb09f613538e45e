//! Water placement at liquid density on a jittered lattice.
//!
//! Builders here have to assemble systems of up to ~117k atoms (Table 4's
//! T7Lig) in well under a second, so solute keep-out tests and the water
//! orientation relaxation both run through a periodic bucket grid instead of
//! O(N²) scans.

use crate::protein::{standard_lj_types, LJ_H, LJ_WATER_O};
use crate::spec::{RunParams, System};
use anton_forcefield::exclusions::ExclusionPolicy;
use anton_forcefield::topology::Topology;
use anton_forcefield::water::{WaterModel, MASS_H, MASS_O, TIP3P};
use anton_forcefield::LjTable;
use anton_geometry::{PeriodicBox, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Liquid-water molecule number density at 300 K (molecules/Å³).
pub const WATER_DENSITY: f64 = 0.0334;

/// A periodic bucket grid supporting incremental insertion, used for solute
/// keep-out queries and water orientation scoring during system assembly.
pub struct Buckets {
    pbox: PeriodicBox,
    cell: f64,
    // BTreeMap, not HashMap: assembly must be reproducible, and an ordered
    // map keeps any future iteration over buckets deterministic (detlint D2).
    map: BTreeMap<(i32, i32, i32), Vec<u32>>,
    points: Vec<Vec3>,
    charges: Vec<f64>,
}

impl Buckets {
    pub fn new(pbox: PeriodicBox, cell: f64) -> Buckets {
        Buckets {
            pbox,
            cell,
            map: BTreeMap::new(),
            points: Vec::new(),
            charges: Vec::new(),
        }
    }

    fn key(&self, p: Vec3) -> (i32, i32, i32) {
        let w = self.pbox.wrap(p);
        (
            (w.x / self.cell) as i32,
            (w.y / self.cell) as i32,
            (w.z / self.cell) as i32,
        )
    }

    pub fn insert(&mut self, p: Vec3, charge: f64) {
        let idx = self.points.len() as u32;
        self.points.push(p);
        self.charges.push(charge);
        self.map.entry(self.key(p)).or_default().push(idx);
    }

    /// Visit `(distance, charge)` of all stored points within `radius` of `p`.
    pub fn for_each_within(&self, p: Vec3, radius: f64, mut f: impl FnMut(f64, f64)) {
        let r2 = radius * radius;
        let (kx, ky, kz) = self.key(p);
        let reach = (radius / self.cell).ceil() as i32;
        for dz in -reach..=reach {
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    if let Some(v) = self.map.get(&(kx + dx, ky + dy, kz + dz)) {
                        for &i in v {
                            let d2 = self.pbox.dist2(p, self.points[i as usize]);
                            if d2 <= r2 {
                                f(d2.sqrt(), self.charges[i as usize]);
                            }
                        }
                    }
                }
            }
        }
    }

    pub fn min_dist(&self, p: Vec3, radius: f64) -> f64 {
        let mut best = f64::MAX;
        self.for_each_within(p, radius, |d, _| best = best.min(d));
        best
    }
}

/// Candidate oxygen sites: a cubic lattice slightly denser than liquid water,
/// jittered and deterministically shuffled, with sites closer than
/// `keep_out_radius` to any solute atom removed.
pub fn water_sites(
    pbox: &PeriodicBox,
    solute: &Buckets,
    keep_out_radius: f64,
    seed: u64,
) -> Vec<Vec3> {
    water_sites_scaled(pbox, solute, keep_out_radius, 0.97, seed)
}

/// As [`water_sites`], with an explicit lattice `spacing_factor`: shrinking
/// it yields more candidates near a crowded solute *without* relaxing the
/// keep-out radius (relaxing the keep-out creates hot contacts that blow up
/// 2.5 fs dynamics).
pub fn water_sites_scaled(
    pbox: &PeriodicBox,
    solute: &Buckets,
    keep_out_radius: f64,
    spacing_factor: f64,
    seed: u64,
) -> Vec<Vec3> {
    let e = pbox.edge();
    let spacing = (1.0 / WATER_DENSITY).cbrt() * spacing_factor;
    let (nx, ny, nz) = (
        (e.x / spacing).round().max(1.0) as usize,
        (e.y / spacing).round().max(1.0) as usize,
        (e.z / spacing).round().max(1.0) as usize,
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sites = Vec::with_capacity(nx * ny * nz);
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                let jitter = Vec3::new(
                    (rng.gen::<f64>() - 0.5) * 0.35,
                    (rng.gen::<f64>() - 0.5) * 0.35,
                    (rng.gen::<f64>() - 0.5) * 0.35,
                );
                let p = pbox.wrap(
                    Vec3::new(
                        (ix as f64 + 0.5) * e.x / nx as f64,
                        (iy as f64 + 0.5) * e.y / ny as f64,
                        (iz as f64 + 0.5) * e.z / nz as f64,
                    ) + jitter,
                );
                if solute.min_dist(p, keep_out_radius) >= keep_out_radius {
                    sites.push(p);
                }
            }
        }
    }
    for i in (1..sites.len()).rev() {
        let j = rng.gen_range(0..=i);
        sites.swap(i, j);
    }
    sites
}

/// Append `n_waters` molecules of `model` to a topology/position set.
///
/// Each molecule tries a handful of seeded orientations and keeps the one
/// with the lowest electrostatic + soft-clash score against everything placed
/// so far (`occupied`, which this function extends). Deterministic per seed.
pub fn append_waters(
    top: &mut Topology,
    positions: &mut Vec<Vec3>,
    model: &WaterModel,
    sites: &[Vec3],
    n_waters: usize,
    occupied: &mut Buckets,
    seed: u64,
) {
    assert!(
        sites.len() >= n_waters,
        "need {n_waters} water sites, have {} — box too small for the requested atom count",
        sites.len()
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0000);
    const TRIES: usize = 8;
    // Per-site charges, in the order `model.place` lays the sites out.
    let charges: &[f64] = if model.sites == 4 {
        &[0.0, model.q_h, model.q_h, model.q_neg]
    } else {
        &[model.q_neg, model.q_h, model.q_h]
    };

    for site in sites.iter().take(n_waters) {
        let mut best: Option<(f64, Vec<Vec3>)> = None;
        for _ in 0..TRIES {
            let dir = random_unit(&mut rng);
            let mut perp = random_unit(&mut rng).cross(dir);
            while perp.norm() < 1e-6 {
                perp = random_unit(&mut rng).cross(dir);
            }
            let perp = perp.normalized().unwrap();
            let cand = model.place(*site, dir, perp);
            let mut score = 0.0;
            // Score the charged sites against placed neighbors: bare Coulomb
            // plus a soft clash penalty — enough to steer hydrogens apart.
            for (site, &q) in cand.iter().zip(charges) {
                occupied.for_each_within(*site, 4.5, |d, qo| {
                    let d = d.max(0.4);
                    score += q * qo / d;
                    if d < 2.0 {
                        score += 5.0 / d.powi(6);
                    }
                });
            }
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, cand));
            }
        }
        let placed = best.unwrap().1;

        let base = positions.len() as u32;
        top.mass.push(MASS_O);
        top.mass.push(MASS_H);
        top.mass.push(MASS_H);
        top.lj_type.push(LJ_WATER_O);
        top.lj_type.push(LJ_H);
        top.lj_type.push(LJ_H);
        if model.sites == 4 {
            top.mass.push(0.0);
            top.lj_type.push(LJ_H); // no LJ on M
        }
        top.charge.extend(charges);
        for (p, q) in placed.iter().zip(charges) {
            occupied.insert(*p, *q);
        }
        positions.extend(placed);

        top.constraint_groups.push(model.constraint_group(base));
        if let Some(v) = model.virtual_site(base) {
            top.virtual_sites.push(v);
        }
        top.molecule_starts.push(positions.len() as u32);
    }
}

fn random_unit(rng: &mut SmallRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        let n2 = v.norm2();
        if n2 > 1e-4 && n2 <= 1.0 {
            return v / n2.sqrt();
        }
    }
}

/// The empty topology every solvated system starts from: the shared LJ
/// table with `model`'s oxygen, no atoms yet.
pub(crate) fn empty_topology(model: &WaterModel) -> Topology {
    Topology {
        lj_table: LjTable::from_types(&standard_lj_types(model.sigma_o, model.eps_o)),
        molecule_starts: vec![0],
        ..Default::default()
    }
}

/// Build a pure water box with `n_waters` molecules (Figure 5's "water only"
/// series).
pub fn pure_water_topology(
    pbox: &PeriodicBox,
    model: &WaterModel,
    n_waters: usize,
    seed: u64,
) -> (Topology, Vec<Vec3>) {
    let mut top = empty_topology(model);
    let mut positions = Vec::new();
    let mut occupied = Buckets::new(*pbox, 4.5);
    let sites = water_sites(pbox, &occupied, 0.0, seed);
    append_waters(
        &mut top,
        &mut positions,
        model,
        &sites,
        n_waters,
        &mut occupied,
        seed,
    );
    top.rebuild_exclusions(ExclusionPolicy::amber_like());
    (top, positions)
}

/// [`water_box`] in any `pbox`, not validated: only for the tile-stencil
/// tests, which need boxes thinner than twice the cutoff.
pub fn water_box_in(
    name: &str,
    pbox: PeriodicBox,
    waters: usize,
    seed: u64,
    params: RunParams,
) -> System {
    let (topology, positions) = pure_water_topology(&pbox, &TIP3P, waters, seed);
    System {
        name: name.into(),
        pbox,
        topology,
        positions,
        params,
    }
}

/// The workspace's one water-box recipe: `waters` TIP3P molecules placed
/// with `seed` in a cubic box of `edge` Å, validated against `params`
/// (minimum image, topology consistency) before it is returned.
pub fn water_box(
    name: &str,
    edge: f64,
    waters: usize,
    seed: u64,
    params: RunParams,
) -> Result<System, String> {
    let sys = water_box_in(name, PeriodicBox::cubic(edge), waters, seed, params);
    sys.validate().map(|()| sys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_density_near_liquid() {
        let pbox = PeriodicBox::cubic(30.0);
        let empty = Buckets::new(pbox, 4.5);
        let sites = water_sites(&pbox, &empty, 0.0, 1);
        let density = sites.len() as f64 / pbox.volume();
        assert!(
            density > WATER_DENSITY * 0.95 && density < WATER_DENSITY * 1.25,
            "density = {density}"
        );
    }

    #[test]
    fn keep_out_respected() {
        let pbox = PeriodicBox::cubic(30.0);
        let mut solute = Buckets::new(pbox, 4.5);
        let c = Vec3::splat(15.0);
        solute.insert(c, 0.0);
        let sites = water_sites(&pbox, &solute, 4.0, 2);
        for s in &sites {
            assert!(pbox.dist2(*s, c) >= 16.0 - 1e-9);
        }
        assert!(!sites.is_empty());
    }

    #[test]
    fn pure_water_box_is_consistent() {
        let pbox = PeriodicBox::cubic(25.0);
        let (top, pos) = pure_water_topology(&pbox, &TIP3P, 400, 3);
        assert_eq!(pos.len(), 1200);
        assert_eq!(top.n_atoms(), 1200);
        assert!(top.validate().is_ok());
        assert!(top.total_charge().abs() < 1e-9);
        assert_eq!(top.n_constraints(), 1200);
        assert!(top.bonds.is_empty());
        for g in &top.constraint_groups {
            for &(i, j, r0) in &g.pairs {
                let r = pbox.min_image(pos[i as usize], pos[j as usize]).norm();
                assert!((r - r0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn orientation_relaxation_avoids_hot_contacts() {
        // With orientation scoring, no two hydrogens of different molecules
        // should start closer than ~1 Å.
        let pbox = PeriodicBox::cubic(20.0);
        let (_, pos) = pure_water_topology(&pbox, &TIP3P, 200, 9);
        let mut min_hh = f64::MAX;
        for mi in 0..200usize {
            for mj in (mi + 1)..200 {
                for a in 1..3 {
                    for b in 1..3 {
                        let d = pbox.dist2(pos[mi * 3 + a], pos[mj * 3 + b]).sqrt();
                        min_hh = min_hh.min(d);
                    }
                }
            }
        }
        assert!(min_hh > 0.9, "H–H contact at {min_hh:.2} Å");
    }

    #[test]
    fn tip4p_box_has_virtual_sites() {
        use anton_forcefield::water::TIP4P_EW;
        let pbox = PeriodicBox::cubic(20.0);
        let (top, pos) = pure_water_topology(&pbox, &TIP4P_EW, 100, 4);
        assert_eq!(pos.len(), 400);
        assert_eq!(top.virtual_sites.len(), 100);
        assert!(top.validate().is_ok());
        for v in &top.virtual_sites {
            let m = anton_forcefield::water::vsite_position(v, &pos);
            assert!((m - pos[v.site as usize]).norm() < 1e-9);
            let d = (m - pos[v.a as usize]).norm();
            assert!((d - TIP4P_EW.d_om).abs() < 1e-9);
        }
    }
}

//! Synthetic all-atom protein builder.
//!
//! Stands in for the PDB structures + AMBER99SB/OPLS-AA parameters of the
//! paper (see DESIGN.md §2). Each residue carries eight atoms in a realistic
//! bonded pattern:
//!
//! ```text
//!        H   HA  HB
//!        |   |   |
//!   ...- N - CA -CB      (CB is a side-chain stub)
//!            |
//!            C = O  -  N(next residue) ...
//! ```
//!
//! The heavy backbone (…N-CA-C-N…) is laid out along the arc of a helix with
//! a small radial zigzag (so that backbone angles stay away from the
//! collinear singularity); pendant atoms hang off radially/axially.
//! Equilibrium bond lengths, angles and dihedral phases are taken from the
//! *built* geometry, so every system starts strain-free — which makes the
//! NVE energy-drift measurements of Table 4 meaningful from step 0.
//! Hydrogens attach through rigid constraints ("bond lengths to hydrogen
//! atoms were constrained", Table 4 caption).

use anton_forcefield::exclusions::ExclusionPolicy;
use anton_forcefield::topology::{Angle, Bond, ConstraintGroup, Dihedral, Topology};
use anton_geometry::Vec3;

/// Atoms added per residue.
pub const ATOMS_PER_RESIDUE: usize = 8;

/// Backbone arc length consumed per residue: N–CA + CA–C + C–N(next).
const ARC_PER_RESIDUE: f64 = 1.458 + 1.525 + 1.329;
const R_X_H: f64 = 1.010;
const R_CA_CB: f64 = 1.530;
const R_C_O: f64 = 1.229;
/// Radial zigzag amplitude keeping backbone angles off the collinear
/// singularity of the harmonic angle force.
const ZIG: f64 = 0.35;

/// Shared LJ type table indices used across the workspace's systems:
/// 0 = water O, 1 = H (no LJ), 2 = C, 3 = N, 4 = O, 5 = ion.
pub const LJ_WATER_O: u16 = 0;
pub const LJ_H: u16 = 1;
pub const LJ_C: u16 = 2;
pub const LJ_N: u16 = 3;
pub const LJ_O: u16 = 4;
pub const LJ_ION: u16 = 5;
/// Protein hydrogens: a small LJ core (bare charged hydrogens collapse onto
/// carbonyl oxygens in vacuum otherwise; real force fields do the same).
pub const LJ_HP: u16 = 6;

/// `(σ, ε)` per LJ type for a given water model's oxygen.
pub fn standard_lj_types(water_sigma: f64, water_eps: f64) -> Vec<(f64, f64)> {
    vec![
        (water_sigma, water_eps), // water oxygen
        (1.0, 0.0),               // hydrogens: no LJ
        (3.40, 0.086),            // carbon
        (3.25, 0.170),            // nitrogen
        (2.96, 0.210),            // carbonyl oxygen
        (4.40, 0.100),            // chloride-like ion
        (2.00, 0.020),            // protein hydrogen (small core)
    ]
}

/// Per-residue charges, AMBER-like, summing to zero:
/// N, HN, CA, HA, CB, HB, C, O.
const CHARGES: [f64; 8] = [-0.40, 0.30, 0.05, 0.10, -0.15, 0.10, 0.50, -0.50];
const MASSES: [f64; 8] = [
    14.0067, 1.008, 12.011, 1.008, 12.011, 1.008, 12.011, 15.9994,
];
const LJ_TYPES: [u16; 8] = [LJ_N, LJ_HP, LJ_C, LJ_HP, LJ_C, LJ_HP, LJ_C, LJ_O];

/// A built protein fragment, before merging into a full system.
#[derive(Clone, Debug)]
pub struct ProteinChain {
    pub positions: Vec<Vec3>,
    pub mass: Vec<f64>,
    pub charge: Vec<f64>,
    pub lj_type: Vec<u16>,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
    pub dihedrals: Vec<Dihedral>,
    pub constraint_groups: Vec<ConstraintGroup>,
    /// `(N, HN)` index pairs per residue, for order-parameter analysis.
    pub nh_pairs: Vec<(u32, u32)>,
    pub n_residues: usize,
}

impl ProteinChain {
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }
}

/// Point on (or offset from) a helix of radius `r` and pitch `pitch` wound
/// around the z-axis through `center`, parametrized by arc length `s`.
fn helix_point(
    center: Vec3,
    r: f64,
    pitch: f64,
    half_height: f64,
    s: f64,
    radial_off: f64,
    axial_off: f64,
) -> Vec3 {
    let l_turn = ((2.0 * std::f64::consts::PI * r).powi(2) + pitch * pitch).sqrt();
    let theta = 2.0 * std::f64::consts::PI * s / l_turn;
    let z = pitch * s / l_turn - half_height;
    center
        + Vec3::new(theta.cos(), theta.sin(), 0.0) * (r + radial_off)
        + Vec3::new(0.0, 0.0, z + axial_off)
}

fn measured_angle(pos: &[Vec3], i: u32, j: u32, k: u32) -> f64 {
    let a = (pos[i as usize] - pos[j as usize]).normalized().unwrap();
    let b = (pos[k as usize] - pos[j as usize]).normalized().unwrap();
    a.dot(b).clamp(-1.0, 1.0).acos()
}

fn measured_dist(pos: &[Vec3], i: u32, j: u32) -> f64 {
    (pos[i as usize] - pos[j as usize]).norm()
}

/// Build a synthetic protein of `n_residues` residues wound on a helix of
/// radius `helix_radius` (Å) advancing `pitch` Å per turn, centered at
/// `center`. Deterministic for given arguments, and strain-free at t = 0.
pub fn build_chain(n_residues: usize, center: Vec3, helix_radius: f64, pitch: f64) -> ProteinChain {
    assert!(n_residues >= 2);
    let l_turn = ((2.0 * std::f64::consts::PI * helix_radius).powi(2) + pitch * pitch).sqrt();
    let total_arc = n_residues as f64 * ARC_PER_RESIDUE;
    let half_height = pitch * total_arc / l_turn / 2.0;

    let mut positions = Vec::with_capacity(n_residues * ATOMS_PER_RESIDUE);
    let mut mass = Vec::new();
    let mut charge = Vec::new();
    let mut lj_type = Vec::new();
    let mut constraint_groups = Vec::new();
    let mut nh_pairs = Vec::new();

    let pt =
        |s: f64, ro: f64, ao: f64| helix_point(center, helix_radius, pitch, half_height, s, ro, ao);

    for res in 0..n_residues {
        let s0 = res as f64 * ARC_PER_RESIDUE;
        let zig = if res % 2 == 0 { ZIG } else { -ZIG };
        let (s_n, s_ca, s_c) = (s0, s0 + 1.458, s0 + 2.983);

        let p_n = pt(s_n, zig, 0.0);
        let p_hn = pt(s_n, zig - R_X_H, 0.0);
        let p_ca = pt(s_ca, zig, 0.0);
        let p_ha = pt(s_ca, zig, R_X_H);
        let p_cb = pt(s_ca, zig + R_CA_CB, 0.0);
        let p_hb = pt(s_ca, zig + R_CA_CB + R_X_H, 0.0);
        let p_c = pt(s_c, zig, 0.0);
        let p_o = pt(s_c, zig, -R_C_O);

        let base = positions.len() as u32;
        positions.extend_from_slice(&[p_n, p_hn, p_ca, p_ha, p_cb, p_hb, p_c, p_o]);
        mass.extend(MASSES);
        charge.extend(CHARGES);
        lj_type.extend(LJ_TYPES);

        let (n, hn, ca, ha, cb, hb) = (base, base + 1, base + 2, base + 3, base + 4, base + 5);
        nh_pairs.push((n, hn));
        constraint_groups.push(ConstraintGroup {
            pairs: vec![
                (n, hn, measured_dist(&positions, n, hn)),
                (ca, ha, measured_dist(&positions, ca, ha)),
                (cb, hb, measured_dist(&positions, cb, hb)),
            ],
        });
    }

    // Term lists with equilibrium values from the built geometry.
    let mut bonds = Vec::new();
    let mut angles = Vec::new();
    let mut dihedrals = Vec::new();
    let bond = |positions: &Vec<Vec3>, i: u32, j: u32, k: f64| Bond {
        i,
        j,
        r0: measured_dist(positions, i, j),
        k,
    };
    for res in 0..n_residues as u32 {
        let base = res * ATOMS_PER_RESIDUE as u32;
        let (n, ca, cb, c, o) = (base, base + 2, base + 4, base + 6, base + 7);
        bonds.push(bond(&positions, n, ca, 330.0));
        bonds.push(bond(&positions, ca, c, 310.0));
        bonds.push(bond(&positions, ca, cb, 310.0));
        bonds.push(bond(&positions, c, o, 570.0));
        let mut angle = |i: u32, j: u32, k_atom: u32, k: f64| {
            angles.push(Angle {
                i,
                j,
                k_atom,
                theta0: measured_angle(&positions, i, j, k_atom),
                k,
            });
        };
        angle(n, ca, c, 63.0);
        angle(n, ca, cb, 60.0);
        angle(cb, ca, c, 63.0);
        angle(ca, c, o, 80.0);

        if res > 0 {
            let prev = base - ATOMS_PER_RESIDUE as u32;
            let (pn, pca, pc) = (prev, prev + 2, prev + 6);
            bonds.push(bond(&positions, pc, n, 410.0));
            angle(pca, pc, n, 70.0);
            angle(pc, n, ca, 50.0);
            // Backbone dihedrals: phase chosen so the built conformation is
            // a minimum of each term (nφ₀ − phase = π).
            let mut dih = |i: u32, j: u32, k_atom: u32, l: u32, mult: u32, k: f64| {
                let phi = anton_forcefield::bonded::dihedral_angle(
                    &anton_geometry::PeriodicBox::cubic(1.0e6),
                    &positions,
                    i,
                    j,
                    k_atom,
                    l,
                );
                let phi0 = mult as f64 * phi - std::f64::consts::PI;
                dihedrals.push(Dihedral {
                    i,
                    j,
                    k_atom,
                    l,
                    n: mult,
                    phi0,
                    k,
                });
            };
            dih(pn, pca, pc, n, 1, 2.5);
            dih(pn, pca, pc, n, 2, 1.2);
            dih(pca, pc, n, ca, 2, 2.0);
            dih(pc, n, ca, c, 3, 0.8);
        }
    }

    ProteinChain {
        positions,
        mass,
        charge,
        lj_type,
        bonds,
        angles,
        dihedrals,
        constraint_groups,
        nh_pairs,
        n_residues,
    }
}

/// Build a compact multi-chain globule of `n_residues` residues filling a
/// sphere around `center`: concentric helical shells 5.5 Å apart, each shell
/// a separate chain (the larger catalog entries model multimeric complexes).
pub fn build_globule(n_residues: usize, center: Vec3) -> Vec<ProteinChain> {
    assert!(n_residues >= 2);
    // 7 Å between shells and between turns: the outermost pendant (HB at
    // +2.9 Å) and the next shell's inward HN (−1.4 Å) then stay ≥ 2.7 Å
    // apart — a physical contact distance, so built systems start cool.
    const SHELL_GAP: f64 = 7.0;
    const PITCH: f64 = 7.0;

    let shell_capacity = |radius: f64, max_radius: f64| -> usize {
        let height = 2.0 * (max_radius * max_radius - radius * radius).max(9.0).sqrt();
        let l_turn = ((2.0 * std::f64::consts::PI * radius).powi(2) + PITCH * PITCH).sqrt();
        let turns = (height / PITCH).max(1.0);
        ((turns * l_turn) / ARC_PER_RESIDUE) as usize
    };

    // Grow the bounding radius until the shells can host every residue.
    let mut max_radius: f64 = 8.0;
    loop {
        let mut capacity = 0usize;
        let mut radius = 3.2;
        while radius < max_radius {
            capacity += shell_capacity(radius, max_radius);
            radius += SHELL_GAP;
        }
        if capacity >= n_residues {
            break;
        }
        max_radius += 2.0;
    }

    let mut chains = Vec::new();
    let mut remaining = n_residues;
    let mut radius = 3.2;
    while remaining > 0 {
        let take = remaining.min(shell_capacity(radius, max_radius).max(2));
        if take >= 2 {
            chains.push(build_chain(take, center, radius, PITCH));
            remaining -= take;
        } else {
            // A trailing single residue folds into the previous shell.
            let prev = chains.pop().expect("at least one shell before a remainder");
            let merged = prev.n_residues + take;
            chains.push(build_chain(merged, center, radius - SHELL_GAP, PITCH));
            remaining = 0;
        }
        radius += SHELL_GAP;
    }
    chains
}

/// Radius of the sphere a globule of `n_residues` occupies (used for
/// box-size sanity checks).
pub fn globule_radius(n_residues: usize) -> f64 {
    build_globule(n_residues, Vec3::ZERO)
        .iter()
        .flat_map(|c| c.positions.iter())
        .map(|p| Vec3::new(p.x, p.y, 0.0).norm().max(p.z.abs()))
        .fold(0.0, f64::max)
}

/// Convenience: turn a bare chain into a standalone (in-vacuo) topology,
/// e.g. for the GB3 order-parameter runs.
pub fn chain_topology(chain: &ProteinChain, water_sigma: f64, water_eps: f64) -> Topology {
    let mut top = Topology {
        mass: chain.mass.clone(),
        charge: chain.charge.clone(),
        lj_type: chain.lj_type.clone(),
        lj_table: anton_forcefield::LjTable::from_types(&standard_lj_types(water_sigma, water_eps)),
        bonds: chain.bonds.clone(),
        angles: chain.angles.clone(),
        dihedrals: chain.dihedrals.clone(),
        constraint_groups: chain.constraint_groups.clone(),
        virtual_sites: vec![],
        exclusions: Default::default(),
        molecule_starts: vec![0, chain.n_atoms() as u32],
    };
    top.rebuild_exclusions(ExclusionPolicy::amber_like());
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_forcefield::PairClass;

    #[test]
    fn residue_charges_are_neutral() {
        assert!(CHARGES.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn chain_has_expected_counts() {
        let c = build_chain(10, Vec3::ZERO, 8.0, 6.0);
        assert_eq!(c.n_atoms(), 80);
        assert_eq!(c.nh_pairs.len(), 10);
        // 4 intra bonds per residue + 9 peptide links.
        assert_eq!(c.bonds.len(), 49);
        // 3 constraints per residue.
        assert_eq!(c.constraint_groups.len(), 10);
        // 4 dihedrals per link.
        assert_eq!(c.dihedrals.len(), 36);
    }

    #[test]
    fn initial_structure_is_strain_free() {
        let pbox = anton_geometry::PeriodicBox::cubic(1e6);
        let c = build_chain(20, Vec3::ZERO, 8.0, 5.5);
        for b in &c.bonds {
            let r = (c.positions[b.i as usize] - c.positions[b.j as usize]).norm();
            assert!((r - b.r0).abs() < 1e-9, "bond {b:?} strained (r = {r:.3})");
        }
        for a in &c.angles {
            let t = measured_angle(&c.positions, a.i, a.j, a.k_atom);
            assert!((t - a.theta0).abs() < 1e-9);
            // Away from the collinear singularity.
            assert!(a.theta0 < 3.05, "angle too close to π: {}", a.theta0);
        }
        for d in &c.dihedrals {
            let (u, ..) = anton_forcefield::bonded::dihedral_term(&pbox, &c.positions, d);
            assert!(u < 1e-9, "dihedral {d:?} starts with energy {u}");
        }
    }

    #[test]
    fn no_nonbonded_clashes() {
        let c = build_chain(30, Vec3::ZERO, 8.0, 5.5);
        let top = chain_topology(&c, 3.15, 0.15);
        for i in 0..c.n_atoms() {
            for j in (i + 1)..c.n_atoms() {
                if top.exclusions.class(i as u32, j as u32) == PairClass::Excluded {
                    continue;
                }
                let d = (c.positions[i] - c.positions[j]).norm();
                assert!(d > 1.2, "atoms {i},{j} clash at {d:.2} Å");
            }
        }
    }

    #[test]
    fn globule_hosts_all_residues_without_clashes() {
        let chains = build_globule(150, Vec3::ZERO);
        let total: usize = chains.iter().map(|c| c.n_residues).sum();
        assert_eq!(total, 150);
        assert!(
            chains.len() >= 2,
            "150 residues should need multiple shells"
        );
        let mut min_cross = f64::MAX;
        let mut all: Vec<(usize, Vec3)> = Vec::new();
        for (ci, c) in chains.iter().enumerate() {
            all.extend(c.positions.iter().map(|&p| (ci, p)));
        }
        for (i, &(ci, pi)) in all.iter().enumerate() {
            for &(cj, pj) in &all[i + 1..] {
                if ci != cj {
                    min_cross = min_cross.min((pi - pj).norm());
                }
            }
        }
        assert!(min_cross > 1.2, "inter-chain clash at {min_cross:.2} Å");
    }

    #[test]
    fn globule_radius_scales_with_size() {
        let r1 = globule_radius(50);
        let r2 = globule_radius(400);
        assert!(r2 > r1);
        assert!(r2 < 40.0, "400 residues should fit inside 40 Å: {r2}");
    }

    #[test]
    fn vacuum_topology_validates() {
        let c = build_chain(12, Vec3::ZERO, 8.0, 6.0);
        let top = chain_topology(&c, 3.15, 0.15);
        assert!(top.validate().is_ok());
        assert!(top.total_charge().abs() < 1e-9);
    }
}

//! Job specifications and content-derived job ids.
//!
//! A fleet job is a complete, self-contained description of one
//! simulation: the system recipe (a seeded waterbox — the workload shape
//! of the drill and of the ensemble protocols in PAPERS.md), the run
//! parameters, the decomposition, and how many outer RESPA cycles to run.
//! The job id is a labeled FNV fingerprint of every field, so identical
//! submissions are *the same job* (submission is idempotent) and the queue
//! order can be a pure function of the submitted set — two daemons given
//! the same specs in any arrival order agree on ids and schedule.

use crate::error::FleetError;
use crate::wire::string_field;
use anton_ckpt::{fnv1a, Fingerprint, Reader, Writer};
use anton_core::{AntonSimulation, Decomposition, SimulationBuilder};
use anton_systems::spec::RunParams;
use anton_systems::{water_box, System};
use std::fmt;

/// Content-derived job identifier: a labeled fingerprint of the full spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl JobId {
    /// Parse the 16-hex-digit form printed by `Display`.
    pub fn parse(s: &str) -> Option<JobId> {
        u64::from_str_radix(s.trim(), 16).ok().map(JobId)
    }
}

/// One submittable simulation job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human label (part of the job identity: two ensemble members with
    /// identical physics but different labels are distinct jobs).
    pub name: String,
    /// Water molecules in the box.
    pub n_waters: u32,
    /// Cubic box edge (Å).
    pub box_edge: f64,
    /// Seed for the deterministic water placement.
    pub placement_seed: u64,
    /// Maxwell–Boltzmann initialization temperature (K).
    pub temperature_k: f64,
    /// Seed for the velocity draw.
    pub velocity_seed: u64,
    /// Range-limited cutoff (Å); the rest of the run parameters follow
    /// `RunParams::paper(cutoff, mesh)`.
    pub cutoff: f64,
    /// FFT mesh dimension (cubic, power of two).
    pub mesh: u32,
    /// Outer RESPA cycles to run before the job is complete.
    pub cycles: u64,
    /// Scheduling priority: higher runs first; ties break on job id.
    pub priority: u32,
    /// Simulated node decomposition (0 = single rank).
    pub nodes: u32,
    /// Worker threads for the per-rank fan-out (bitwise-invariant, but part
    /// of the checkpoint fingerprint, so it is pinned per job).
    pub threads: u32,
}

impl JobSpec {
    /// The content fingerprint identifying this job. Every field is mixed
    /// with its label; float fields enter as their exact bit patterns.
    pub fn job_id(&self) -> JobId {
        JobId(
            Fingerprint::new()
                .field("fleet_job_version", 1)
                .field("name_fnv", fnv1a(self.name.as_bytes()))
                .field("n_waters", self.n_waters as u64)
                .field("box_edge", self.box_edge.to_bits())
                .field("placement_seed", self.placement_seed)
                .field("temperature_k", self.temperature_k.to_bits())
                .field("velocity_seed", self.velocity_seed)
                .field("cutoff", self.cutoff.to_bits())
                .field("mesh", self.mesh as u64)
                .field("cycles", self.cycles)
                .field("priority", self.priority as u64)
                .field("nodes", self.nodes as u64)
                .field("threads", self.threads as u64)
                .finish(),
        )
    }

    /// Refuse specs the engine could not run (before they enter the queue).
    pub fn validate(&self) -> Result<(), FleetError> {
        let fail = |reason: String| Err(FleetError::SpecInvalid { reason });
        if self.name.is_empty() || self.name.len() > 128 {
            return fail(format!("name length {} outside 1..=128", self.name.len()));
        }
        if self.n_waters == 0 {
            return fail("n_waters must be at least 1".into());
        }
        if self.cycles == 0 {
            return fail("cycles must be at least 1".into());
        }
        if !self.mesh.is_power_of_two() || !(8..=128).contains(&self.mesh) {
            return fail(format!(
                "mesh {} is not a power of two in 8..=128",
                self.mesh
            ));
        }
        if !(self.box_edge.is_finite() && self.cutoff.is_finite() && self.temperature_k.is_finite())
        {
            return fail("box_edge, cutoff and temperature_k must be finite".into());
        }
        if self.temperature_k <= 0.0 {
            return fail(format!(
                "temperature {} K is not positive",
                self.temperature_k
            ));
        }
        if self.cutoff <= 0.0 || self.cutoff * 2.0 >= self.box_edge {
            return fail(format!(
                "cutoff {} incompatible with box edge {} (minimum image)",
                self.cutoff, self.box_edge
            ));
        }
        // Placement density guard: the waterbox builder dart-throws against
        // a minimum-distance criterion and cannot exceed liquid density.
        let density = self.n_waters as f64 / (self.box_edge * self.box_edge * self.box_edge);
        if density > 0.034 {
            return fail(format!(
                "{} waters in a {} Å box exceeds liquid water density",
                self.n_waters, self.box_edge
            ));
        }
        Ok(())
    }

    /// Assemble the simulatable system this spec describes.
    pub fn build_system(&self) -> Result<System, FleetError> {
        self.validate()?;
        water_box(
            &self.name,
            self.box_edge,
            self.n_waters as usize,
            self.placement_seed,
            RunParams::paper(self.cutoff, self.mesh as usize),
        )
        .map_err(|reason| FleetError::SpecInvalid { reason })
    }

    /// The fully configured engine builder for this job. Both the fresh
    /// build and every checkpoint resume go through here, so a job's
    /// configuration (and therefore its checkpoint fingerprint) is a pure
    /// function of the spec — never of the host, the environment, or the
    /// scheduling history.
    pub fn builder(&self) -> Result<SimulationBuilder, FleetError> {
        let sys = self.build_system()?;
        let decomposition = match self.nodes {
            0 => Decomposition::SingleRank,
            n => Decomposition::Nodes(n as usize),
        };
        Ok(AntonSimulation::builder(sys)
            .velocities_from_temperature(self.temperature_k, self.velocity_seed)
            .decomposition(decomposition)
            .threads(self.threads.max(1) as usize)
            .tracing(true))
    }

    /// Steps per outer cycle for this spec's run parameters.
    pub fn steps_per_cycle(&self) -> u64 {
        RunParams::paper(self.cutoff, self.mesh as usize)
            .longrange_every
            .max(1) as u64
    }

    /// Encode for the wire and the persisted queue record (version 1).
    pub fn encode_into(&self, w: &mut Writer) {
        w.str_field(&self.name);
        w.u32(self.n_waters);
        w.u64(self.box_edge.to_bits());
        w.u64(self.placement_seed);
        w.u64(self.temperature_k.to_bits());
        w.u64(self.velocity_seed);
        w.u64(self.cutoff.to_bits());
        w.u32(self.mesh);
        w.u64(self.cycles);
        w.u32(self.priority);
        w.u32(self.nodes);
        w.u32(self.threads);
    }

    pub fn decode_from(r: &mut Reader<'_>) -> Result<JobSpec, FleetError> {
        Ok(JobSpec {
            name: string_field(r, "job name")?,
            n_waters: r.u32()?,
            box_edge: f64::from_bits(r.u64()?),
            placement_seed: r.u64()?,
            temperature_k: f64::from_bits(r.u64()?),
            velocity_seed: r.u64()?,
            cutoff: f64::from_bits(r.u64()?),
            mesh: r.u32()?,
            cycles: r.u64()?,
            priority: r.u32()?,
            nodes: r.u32()?,
            threads: r.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample() -> JobSpec {
        JobSpec {
            name: "waterbox-a".into(),
            n_waters: 40,
            box_edge: 16.0,
            placement_seed: 3,
            temperature_k: 300.0,
            velocity_seed: 7,
            cutoff: 7.0,
            mesh: 16,
            cycles: 3,
            priority: 1,
            nodes: 0,
            threads: 1,
        }
    }

    #[test]
    fn job_id_is_a_pure_function_of_content() {
        assert_eq!(sample().job_id(), sample().job_id());
        let mut other = sample();
        other.velocity_seed = 8;
        assert_ne!(sample().job_id(), other.job_id());
        let mut renamed = sample();
        renamed.name = "waterbox-b".into();
        assert_ne!(sample().job_id(), renamed.job_id());
    }

    #[test]
    fn validation_refuses_unrunnable_specs() {
        assert!(sample().validate().is_ok());
        let mut bad = sample();
        bad.cutoff = 9.0; // 2*9 >= 16
        assert_eq!(bad.validate().unwrap_err().kind(), "spec_invalid");
        let mut bad = sample();
        bad.mesh = 12;
        assert_eq!(bad.validate().unwrap_err().kind(), "spec_invalid");
        let mut bad = sample();
        bad.n_waters = 10_000;
        assert_eq!(bad.validate().unwrap_err().kind(), "spec_invalid");
        let mut bad = sample();
        bad.cycles = 0;
        assert_eq!(bad.validate().unwrap_err().kind(), "spec_invalid");
        let mut bad = sample();
        bad.temperature_k = f64::NAN;
        assert_eq!(bad.validate().unwrap_err().kind(), "spec_invalid");
    }

    #[test]
    fn spec_roundtrips_through_the_codec() {
        let s = sample();
        let mut w = Writer::new();
        s.encode_into(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let decoded = JobSpec::decode_from(&mut r).unwrap();
        r.expect_end("job spec").unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn built_system_matches_the_spec() {
        let sys = sample().build_system().unwrap();
        assert_eq!(sys.n_atoms(), 40 * 3);
        assert_eq!(sys.name, "waterbox-a");
        assert_eq!(sys.params.mesh, [16; 3]);
    }
}

//! Metric names and units (the same lists as `BENCHMARK.json`), the check
//! tally behind `failed`, and the output objects.

use std::collections::BTreeMap;
use std::fmt::Write;

pub type MetricDef = (&'static str, &'static str);

pub const END_TO_END: [MetricDef; 4] = [
    ("ns_per_day", "ns/day"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("force_error", "ratio"),
];

pub const PER_LAYER: [MetricDef; 49] = [
    ("host.ref_ms_p50", "ms"),
    ("host.ref_spread", "ratio"),
    ("host.ns_per_day_raw", "ns/day"),
    ("host.nproc", "count"),
    ("systems.build_s", "s"),
    ("machine.ppip_build_ms", "ms"),
    ("machine.pair_batch_ns_per_lane", "ns"),
    ("machine.modeled_comm_us_per_step", "us"),
    ("nt.import_bytes_per_step", "B"),
    ("core.engine_build_s", "s"),
    ("core.resume_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.evaluate_ns_per_lane", "ns"),
    ("core.lanes_per_step", "count"),
    ("core.live_lane_frac", "ratio"),
    ("core.match_rebuild_ms", "ms"),
    ("core.match_ns_per_candidate", "ns"),
    ("core.candidates_per_rebuild", "count"),
    ("core.match_keep_frac", "ratio"),
    ("core.rebuild_frac", "ratio"),
    ("core.bonded_ms", "ms"),
    ("core.corrections_ms", "ms"),
    ("core.long_range_ms", "ms"),
    ("core.residual_ms_per_step", "ms"),
    ("core.residual_frac", "ratio"),
    ("core.pool.short_range_speedup", "ratio"),
    ("core.pool.long_range_speedup", "ratio"),
    ("ewald.spread_ms", "ms"),
    ("ewald.spread_ns_per_point", "ns"),
    ("ewald.interpolate_ms", "ms"),
    ("ewald.interpolate_ns_per_point", "ns"),
    ("ewald.transform_ms", "ms"),
    ("ewald.support_points_per_atom", "count"),
    ("fft.forward_ms", "ms"),
    ("fft.ns_per_point", "ns"),
    ("fft.dist_messages_per_transform", "count"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes", "B"),
    ("analysis.verifier_build_ms", "ms"),
    ("analysis.sample_ms", "ms"),
    ("fleet.slices", "count"),
    ("fleet.resumes", "count"),
    ("fleet.submit_ms", "ms"),
    ("fleet.overhead_frac", "ratio"),
    ("fleet.slice_overhead_ms", "ms"),
    ("fleet.worker_scaling", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name, plus free-form information lines
/// (state FNVs, block counts) that go to the output file but are not metrics.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    pub info: Vec<(String, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// Fixed-count correctness checks; `failed / attempted` is `failed_frac`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A JSON number with all its digits; non-finite values become `null` so
/// the file stays parseable (and the driver refuses the run).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_object(defs: &[MetricDef], m: &Metrics) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|&(name, unit)| {
            let value = m
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(defs: &[MetricDef], m: &Metrics, checks: &Checks) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_object(defs, m)
    )
}

/// Provenance recorded in every output file (`run.sh` exports these).
pub fn provenance() -> Vec<(String, String)> {
    [
        ("commit", "BENCH_COMMIT"),
        ("rustc", "BENCH_RUSTC"),
        ("profile_release", "BENCH_PROFILE"),
        ("malloc_mmap_threshold", "MALLOC_MMAP_THRESHOLD_"),
    ]
    .iter()
    .map(|&(key, var)| {
        (
            key.to_string(),
            std::env::var(var).unwrap_or_else(|_| "unknown".into()),
        )
    })
    .collect()
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn string_object(pairs: &[(String, String)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", quoted(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The per-workload output file: the result plus everything needed to
/// read it later (seed, provenance, host diagnostics, information lines).
pub fn output_file(
    workload: &str,
    seed: u64,
    trace: bool,
    defs: &[MetricDef],
    m: &Metrics,
    checks: &Checks,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": \"{workload}\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"trace\": {trace},");
    let _ = writeln!(s, "  \"provenance\": {},", string_object(&provenance()));
    let _ = writeln!(s, "  \"failed_frac\": {},", number(checks.failed_frac()));
    let failures: Vec<String> = checks.failures.iter().map(|f| quoted(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(s, "  \"info\": {},", string_object(&m.info));
    let _ = writeln!(s, "  \"result\": {}", result_line(defs, m, checks));
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_a_forced_checksum_mismatch() {
        let mut c = Checks::default();
        let solo: u64 = 0x1234;
        c.check("job 0 final_checksum equals solo", solo == solo);
        c.check("job 1 final_checksum equals solo", solo == solo ^ 1);
        c.check("energies finite", true);
        c.check("battery clean", true);
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.failed_frac(), 0.25);
        assert_eq!(c.failures, ["job 1 final_checksum equals solo"]);
        let mut m = Metrics::default();
        m.set("ns_per_day", 1.5);
        let line = result_line(&[("ns_per_day", "ns/day")], &m, &c);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"ns_per_day\": {\"value\": 1.5, \"unit\": \"ns/day\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root is the contract; the lists
    /// here must name the same metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("{\"name\": ").count();
        let workloads = crate::workloads::NAMES.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for name in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
        }
    }
}

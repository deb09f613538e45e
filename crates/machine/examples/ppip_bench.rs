//! Microbenchmark for the PPIP batch evaluator: ns per live lane over a
//! deterministic stream of synthetic match batches. Used to attribute the
//! range-limited phase cost (the full-engine numbers the `scaling` bench
//! prints fold in tiling, match, and scatter; this isolates the table kernel).
use anton_machine::ppip::{PairBatch, Ppip, MATCH_WIDTH};
use std::time::Instant;

fn main() {
    let ppip = Ppip::build(0.35, 7.5);
    let r2_max_q20 = (ppip.r2_max * (1u64 << 20) as f64) as i64;

    // Deterministic LCG stream of batches with realistic lane occupancy.
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s
    };
    let batches: Vec<PairBatch> = (0..8192)
        .map(|_| {
            let mut b = PairBatch::EMPTY;
            for lane in 0..MATCH_WIDTH {
                if rng() % 8 < 6 {
                    b.mask |= 1 << lane;
                    b.r2_q20[lane] = 1 + (rng() % (r2_max_q20 as u64 - 1)) as i64;
                    b.qq[lane] = (rng() % 1000) as f64 / 2000.0 - 0.25;
                    b.lj_a[lane] = (rng() % 1000) as f64;
                    b.lj_b[lane] = (rng() % 1000) as f64 / 10.0;
                }
            }
            b
        })
        .collect();
    let live: u64 = batches.iter().map(|b| b.mask.count_ones() as u64).sum();

    let mut out = [(0.0f64, 0.0f64); MATCH_WIDTH];
    let mut acc = 0.0f64;
    // Warm up, then time.
    for _ in 0..2 {
        for b in &batches {
            ppip.pair_batch(b, &mut out);
            acc += out.iter().map(|&(f, e)| f + e).sum::<f64>();
        }
    }
    let reps = 200u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for b in &batches {
            ppip.pair_batch(b, &mut out);
            acc += out.iter().map(|&(f, e)| f + e).sum::<f64>();
        }
    }
    let dt = t0.elapsed();
    println!(
        "pair_batch: {:.1} ns/live-lane ({} batches x {} reps, {} live lanes/pass, sink {acc:.3e})",
        dt.as_nanos() as f64 / (live * reps) as f64,
        batches.len(),
        reps,
        live,
    );
}

//! Deterministic fixed-point FFT.
//!
//! Anton's flexible subsystem performs the FFT in 32-bit fixed-point
//! arithmetic; because every operation is integer arithmetic with a fixed
//! dataflow, the transform is bit-reproducible and independent of how the
//! mesh is distributed across nodes. This module reproduces that property:
//! all butterflies run on `i64` raw values with round-to-nearest/even
//! rounding and per-stage halving (block scaling) to prevent overflow.
//!
//! Scale bookkeeping: [`FxFft::forward_scaled`] computes `DFT(x) / N` and
//! [`FxFft::inverse_scaled`] computes the standard unitary-style inverse
//! `IDFT(X)` (which already carries `1/N`). Callers undo the power-of-two
//! factors with exact left shifts where needed.

use anton_fixpoint::rne_shr_i128;
use anton_fixpoint::rounding::rne_f64_to_i64;

/// Fraction bits used for twiddle factors.
pub const TWIDDLE_FRAC: u32 = 30;

/// A complex value as a pair of raw fixed-point i64s (format chosen by the
/// caller and tracked out of band — the FFT is format-agnostic).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FxComplex {
    pub re: i64,
    pub im: i64,
}

impl FxComplex {
    pub const ZERO: FxComplex = FxComplex { re: 0, im: 0 };

    #[inline]
    pub fn new(re: i64, im: i64) -> FxComplex {
        FxComplex { re, im }
    }

    #[inline]
    fn wrapping_add(self, o: FxComplex) -> FxComplex {
        FxComplex::new(self.re.wrapping_add(o.re), self.im.wrapping_add(o.im))
    }

    #[inline]
    fn wrapping_sub(self, o: FxComplex) -> FxComplex {
        FxComplex::new(self.re.wrapping_sub(o.re), self.im.wrapping_sub(o.im))
    }

    /// Multiply by a Q30 twiddle and shift right by `TWIDDLE_FRAC + extra`
    /// with round-to-nearest/even.
    #[inline]
    fn mul_twiddle_shr(self, w: FxComplex, extra: u32) -> FxComplex {
        let re = self.re as i128 * w.re as i128 - self.im as i128 * w.im as i128;
        let im = self.re as i128 * w.im as i128 + self.im as i128 * w.re as i128;
        FxComplex::new(
            rne_shr_i128(re, TWIDDLE_FRAC + extra),
            rne_shr_i128(im, TWIDDLE_FRAC + extra),
        )
    }

    #[inline]
    fn half(self) -> FxComplex {
        FxComplex::new(
            anton_fixpoint::rne_shr_i64(self.re, 1),
            anton_fixpoint::rne_shr_i64(self.im, 1),
        )
    }
}

/// Fixed-point radix-2 FFT plan with quantized twiddles.
#[derive(Clone, Debug)]
pub struct FxFft {
    n: usize,
    /// Forward twiddles `round(2^30 · e^{-2πi j/n})`, `j < n/2`.
    twiddles: Vec<FxComplex>,
    bitrev: Vec<u32>,
}

impl FxFft {
    pub fn new(n: usize) -> FxFft {
        assert!(n.is_power_of_two() && n >= 1);
        let log2n = n.trailing_zeros().max(1);
        let scale = (1i64 << TWIDDLE_FRAC) as f64;
        let twiddles = (0..n / 2)
            .map(|j| {
                let th = -2.0 * std::f64::consts::PI * j as f64 / n as f64;
                FxComplex::new(
                    rne_f64_to_i64(th.cos() * scale),
                    rne_f64_to_i64(th.sin() * scale),
                )
            })
            .collect();
        let bitrev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log2n))
            .collect();
        FxFft {
            n,
            twiddles,
            bitrev,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place `DFT(x)/N` with per-stage block scaling.
    pub fn forward_scaled(&self, data: &mut [FxComplex]) {
        self.transform(data, false);
    }

    /// In-place standard inverse `IDFT(X) = (1/N)·Σ X_k e^{+2πi nk/N}`.
    pub fn inverse_scaled(&self, data: &mut [FxComplex]) {
        self.transform(data, true);
    }

    fn transform(&self, data: &mut [FxComplex], inverse: bool) {
        assert_eq!(data.len(), self.n);
        if self.n == 1 {
            return;
        }
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2usize;
        while len <= self.n {
            let half = len / 2;
            let stride = self.n / len;
            for start in (0..self.n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w.im = w.im.wrapping_neg();
                    }
                    let a = data[start + k];
                    // b·w / 2 with a single rounding; a ± that, then /2 on the
                    // sum-side term to keep each stage's output bounded by the
                    // stage input maximum.
                    let bw = data[start + k + half].mul_twiddle_shr(w, 1);
                    let ah = a.half();
                    data[start + k] = ah.wrapping_add(bw);
                    data[start + k + half] = ah.wrapping_sub(bw);
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex, Fft1d};
    use rand::{Rng, SeedableRng};

    const DATA_FRAC: u32 = 40;

    fn to_fx(x: &[Complex]) -> Vec<FxComplex> {
        x.iter()
            .map(|c| {
                FxComplex::new(
                    anton_fixpoint::rounding::rne_f64(c.re * (1i64 << DATA_FRAC) as f64) as i64,
                    anton_fixpoint::rounding::rne_f64(c.im * (1i64 << DATA_FRAC) as f64) as i64,
                )
            })
            .collect()
    }

    fn to_f64(x: &[FxComplex]) -> Vec<Complex> {
        let s = 1.0 / (1i64 << DATA_FRAC) as f64;
        x.iter()
            .map(|c| Complex::new(c.re as f64 * s, c.im as f64 * s))
            .collect()
    }

    #[test]
    fn forward_matches_f64_fft_within_quantization() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        for &n in &[8usize, 32, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let mut fx = to_fx(&x);
            FxFft::new(n).forward_scaled(&mut fx);
            let got = to_f64(&fx);
            let mut want = x.clone();
            Fft1d::new(n).forward(&mut want);
            let scale = 1.0 / n as f64;
            let mut err: f64 = 0.0;
            let mut norm: f64 = 0.0;
            for (g, w) in got.iter().zip(&want) {
                err += (*g - w.scale(scale)).norm2();
                norm += w.scale(scale).norm2();
            }
            let rel = (err / norm).sqrt();
            assert!(rel < 1e-7, "n={n} rel={rel:e}");
        }
    }

    #[test]
    fn forward_is_bitwise_deterministic() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(18);
        let n = 32;
        let x: Vec<FxComplex> = (0..n)
            .map(|_| FxComplex::new(rng.gen::<i64>() >> 20, rng.gen::<i64>() >> 20))
            .collect();
        let plan = FxFft::new(n);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.forward_scaled(&mut a);
        plan.forward_scaled(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_recovers_input_over_n() {
        // forward gives X/N, inverse of X is x, so inverse(forward(x)) = x/N.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(19);
        let n = 32usize;
        let x: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let mut fx = to_fx(&x);
        let plan = FxFft::new(n);
        plan.forward_scaled(&mut fx);
        plan.inverse_scaled(&mut fx);
        // Undo the extra 1/N with an exact shift.
        for v in fx.iter_mut() {
            v.re <<= n.trailing_zeros();
            v.im <<= n.trailing_zeros();
        }
        let got = to_f64(&fx);
        for (g, w) in got.iter().zip(&x) {
            assert!((*g - *w).norm2().sqrt() < 1e-8, "{g:?} vs {w:?}");
        }
    }
}

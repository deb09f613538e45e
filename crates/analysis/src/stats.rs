//! Least-squares line fit (the slope behind the energy-drift figure).

/// Least-squares linear fit `y = a + b·x`; returns `(a, b)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2);
    let n = x.len() as f64;
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-300, "degenerate x values");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 2.0 * v).collect();
        let (a, b) = linear_fit(&x, &y);
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }
}

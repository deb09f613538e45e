//! Folding/unfolding event detection (Figure 7).
//!
//! The paper's 236 µs gpW run at the melting temperature shows repeated
//! folding and unfolding. On the fraction-of-native-contacts coordinate
//! Q(t), we detect transitions with a two-threshold (hysteresis) scheme so
//! that barrier recrossings don't inflate the event count.

/// Detected transitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FoldingEvents {
    /// Sample indices where a folding event completed (Q crossed up
    /// through the folded threshold from the unfolded state).
    pub folding_at: Vec<usize>,
    /// Sample indices where an unfolding event completed.
    pub unfolding_at: Vec<usize>,
    /// Fraction of samples in the folded state.
    pub folded_fraction: f64,
}

/// Two-threshold transition detection on Q(t).
pub fn detect_transitions(q: &[f64], folded_above: f64, unfolded_below: f64) -> FoldingEvents {
    assert!(folded_above > unfolded_below);
    let mut events = FoldingEvents::default();
    // Initial state from the first sample.
    let mut folded = q.first().is_some_and(|&v| v >= folded_above);
    let mut folded_samples = 0usize;
    for (i, &v) in q.iter().enumerate() {
        if folded {
            if v <= unfolded_below {
                folded = false;
                events.unfolding_at.push(i);
            }
        } else if v >= folded_above {
            folded = true;
            events.folding_at.push(i);
        }
        if folded {
            folded_samples += 1;
        }
    }
    events.folded_fraction = folded_samples as f64 / q.len().max(1) as f64;
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_square_wave() {
        // folded (0.9) for 50, unfolded (0.2) for 50, folded again.
        let mut q = vec![0.9; 50];
        q.extend(vec![0.2; 50]);
        q.extend(vec![0.9; 50]);
        let ev = detect_transitions(&q, 0.75, 0.35);
        assert_eq!(ev.unfolding_at, vec![50]);
        assert_eq!(ev.folding_at, vec![100]);
        assert!((ev.folded_fraction - 100.0 / 150.0).abs() < 0.01);
    }

    #[test]
    fn hysteresis_ignores_recrossings() {
        // Chatter around 0.55 must produce no events.
        let q: Vec<f64> = (0..200)
            .map(|i| 0.55 + 0.1 * ((i % 2) as f64 - 0.5))
            .collect();
        let ev = detect_transitions(&q, 0.75, 0.35);
        assert!(ev.folding_at.is_empty());
        assert!(ev.unfolding_at.is_empty());
    }

    #[test]
    fn counts_multiple_events() {
        let mut q = Vec::new();
        for _ in 0..4 {
            q.extend(vec![0.9; 20]);
            q.extend(vec![0.2; 20]);
        }
        let ev = detect_transitions(&q, 0.75, 0.35);
        assert_eq!(ev.unfolding_at.len(), 4);
        assert_eq!(ev.folding_at.len(), 3);
    }
}

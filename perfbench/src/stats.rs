//! Order statistics over measured samples.

/// A percentile together with the number of samples it was taken from,
/// so no figure is ever printed without its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value (0 when there are no samples).
    pub value: f64,
    /// Samples the value was taken from.
    pub n: usize,
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least `q * n` samples at or below it. Never interpolates, so the
/// value is always one that was measured.
pub fn nearest_rank(samples: &[f64], q: f64) -> Quantile {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = samples.len();
    if n == 0 {
        return Quantile { value: 0.0, n };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        n,
    }
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Quantile {
    nearest_rank(samples, 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_value_and_sample_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = nearest_rank(&xs, 0.95);
        assert_eq!(
            p95,
            Quantile {
                value: 190.0,
                n: 200
            }
        );
        // Ten samples lie beyond the 95th percentile of 200.
        assert_eq!(xs.iter().filter(|&&x| x > p95.value).count(), 10);
        assert_eq!(median(&xs).value, 100.0);
        assert_eq!(nearest_rank(&xs, 1.0).value, 200.0);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Quantile { value: 2.0, n: 4 });
        assert_eq!(nearest_rank(&[7.5], 0.95), Quantile { value: 7.5, n: 1 });
        assert_eq!(median(&[]), Quantile { value: 0.0, n: 0 });
    }
}

//! The harness's own statistics: nearest-rank percentiles, the
//! "at least ten samples beyond" reporting rule, medians of repeated
//! measurements, and the latency-limit share.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`): the
/// `ceil(p * n)`-th smallest value. `None` for an empty sample.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The nearest-rank percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond its rank — so a p99 needs 1,000
/// samples. `None` when the sample cannot support it.
#[must_use]
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || n.saturating_sub(rank.max(1)) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// Median of repeated measurements (lower median for even counts, so
/// the value is always one that was measured).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Share of `attempted` requests that succeeded within `limit`:
/// `latencies` holds the successful requests only, so every failed or
/// refused request counts as a miss.
#[must_use]
pub fn within_limit_frac(latencies: &[f64], attempted: usize, limit: f64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    let met = latencies.iter().filter(|&&l| l <= limit).count();
    #[allow(clippy::cast_precision_loss)]
    let frac = met as f64 / attempted as f64;
    frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&samples, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&samples, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[3.0], 0.99), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&short, 0.99), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&enough, 0.99), Some(989.0));
        // A median needs only 20 samples.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(supported_percentile(&twenty, 0.5), Some(9.0));
        assert_eq!(supported_percentile(&twenty[..19], 0.5), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        // Four requests sent, three answered (one within the limit).
        assert!((within_limit_frac(&[1.0, 5.0, 9.0], 4, 2.0) - 0.25).abs() < 1e-12);
        // All answered within the limit, but one of five failed.
        assert!((within_limit_frac(&[1.0; 4], 5, 2.0) - 0.8).abs() < 1e-12);
        assert!((within_limit_frac(&[2.0], 1, 2.0) - 1.0).abs() < 1e-12);
        assert!(within_limit_frac(&[], 0, 2.0).abs() < 1e-12);
    }
}

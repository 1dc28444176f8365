//! Order statistics for latency samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer would make it the reading of a handful of jobs.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: exactly ten samples (91..=100) lie beyond.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        // Order of arrival does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}

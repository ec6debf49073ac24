//! Percentiles over latency samples. Percentiles are given in per mille
//! (900 = p90) so ranks are exact integer arithmetic.

/// Percentiles the benchmark may report, highest first, in per mille.
const LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `q` among `n` samples.
fn rank(n: usize, q: u64) -> usize {
    (q as usize * n).div_ceil(1000)
}

/// Nearest-rank percentile `q` (per mille, 1..=1000) of `samples`: the
/// smallest sample with at least `q`‰ of the samples at or below it.
pub fn percentile(samples: &[f64], q: u64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder (per mille) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond its rank, if any does.
pub fn highest_supported(n: usize) -> Option<u64> {
    LADDER.into_iter().find(|&q| n - rank(n, q) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), Some(5.0));
        assert_eq!(percentile(&s, 900), Some(9.0));
        assert_eq!(percentile(&s, 910), Some(10.0));
        assert_eq!(percentile(&s, 1000), Some(10.0));
        assert_eq!(percentile(&s, 10), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 500), Some(2.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(750));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(950));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }
}

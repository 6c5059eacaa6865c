//! Sample summaries: nearest-rank percentiles that carry their sample
//! count, so a reader can tell a p99 backed by thousands of samples from
//! one backed by a handful.

/// A percentile of a sample set, with the count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank: the support of the
    /// tail estimate (choose the highest percentile with at least ten).
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 100) of `samples`.
///
/// The rank is `ceil(q/100 * n)` (1-based), so p50 of `[1, 2, 3, 4]` is 2
/// and p99 of 100 samples is the 99th smallest, leaving one beyond it.
/// Returns `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Pct {
        value: v[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `samples` (nearest rank), 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Arithmetic mean, 0 for an empty set.
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
    fn nearest_rank_and_support() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(p90));
    }

    #[test]
    fn small_and_empty_sets() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.n, one.beyond), (7.0, 1, 0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}

//! Small statistics helpers: medians, nearest-rank percentiles with
//! their sample counts, and the process's peak memory.

/// The median of `values` (the mean of the two middle values for an even
/// count). `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller measures at least one
/// sample, and a NaN time would be a bug in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A percentile read by the nearest-rank rule, with the number of samples
/// it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(q · n)`.
    pub value: f64,
    /// `n`, the number of samples.
    pub samples: usize,
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `values`: the smallest
/// sample with at least a share `q` of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `q` outside `(0, 1]`.
pub fn nearest_rank(values: &[f64], q: f64) -> Percentile {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    sorted
}

/// The process's peak resident set size (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_reports_value_and_sample_count() {
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let p50 = nearest_rank(&values, 0.5);
        assert_eq!(p50.value, 5.0);
        assert_eq!(p50.samples, 10);
        let p90 = nearest_rank(&values, 0.9);
        assert_eq!(p90.value, 9.0);
        assert_eq!(p90.samples, 10);
        assert_eq!(nearest_rank(&values, 1.0).value, 10.0);
        // Rank ceil(0.9 · 4) = 4: with few samples p90 is the maximum.
        let few = nearest_rank(&[2.0, 8.0, 4.0, 6.0], 0.9);
        assert_eq!((few.value, few.samples), (8.0, 4));
        let one = nearest_rank(&[3.5], 0.5);
        assert_eq!((one.value, one.samples), (3.5, 1));
    }

    #[test]
    #[should_panic(expected = "percentile of no samples")]
    fn nearest_rank_refuses_an_empty_sample() {
        nearest_rank(&[], 0.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}

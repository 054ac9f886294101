//! Order statistics and metric naming rules shared by every workload.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 95.0, 90.0];

/// The highest of p90/p95/p99 that has at least ten samples beyond it, or
/// `None` when even p90 has fewer (under 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A sorted copy of `v` (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    s
}

/// Median (nearest-rank p50) of unsorted samples; 0 for none.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v), 50.0)
    }
}

/// Whether a metric name uses only `[A-Za-z0-9_.-]`, starts with a letter
/// or digit, and fits in 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 100 samples: p95 is the 95th smallest
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        for n in [100, 200, 1000, 5000] {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10);
        }
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("latency_p50_ms"));
        assert!(valid_metric_name("store.plan_front_hit_ratio"));
        assert!(valid_metric_name("loadgen.lag_p99_ms"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_x"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("a/b"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }
}

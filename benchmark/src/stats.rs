//! Order statistics with an honest sample-count rule.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail number is never one or two outliers. `p95`
//! therefore needs 200 samples and the median 20.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample in place (total order, NaNs last) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile (nearest rank) of a non-empty sorted sample, with no
/// sample-count rule: for samples whose size is fixed by design.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (nearest rank) of a sorted sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), q);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The highest quantile not above `q` that [`percentile`] supports for a
/// sample of `n`, or `None` if even the median is unsupported. Only the
/// `--quick` mode reports a lower quantile in a higher one's place, and
/// it says so.
pub fn supported_quantile(n: usize, q: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let max_q = (n - MIN_BEYOND) as f64 / n as f64;
    // Step down in whole percents so the label stays readable.
    let mut q_used = q.min(max_q);
    q_used = (q_used * 100.0).floor() / 100.0;
    while rank(n, q_used) + MIN_BEYOND > n - 1 {
        q_used -= 0.01;
    }
    Some(q_used)
}

/// Plain median of a sorted sample (no sample-count rule): used for the
/// per-layer medians over the fixed 48-frame replay and for `setup_s`.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of an unsorted sample.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&ramp(199), 0.95), None);
        // 200 samples: rank 190 (value 189), ten samples beyond it.
        assert_eq!(percentile(&ramp(200), 0.95), Some(189.0));
    }

    #[test]
    fn never_reports_with_fewer_than_ten_beyond() {
        for n in 1..400 {
            let s = ramp(n);
            for q in [0.5, 0.9, 0.95, 0.99] {
                if let Some(v) = percentile(&s, q) {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn median_needs_twenty() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(9.0));
    }

    #[test]
    fn supported_quantile_is_reportable_and_capped() {
        assert_eq!(supported_quantile(19, 0.95), None);
        assert_eq!(supported_quantile(200, 0.95), Some(0.95));
        for n in 20..300 {
            let q = supported_quantile(n, 0.95).unwrap();
            assert!(q <= 0.95);
            assert!(percentile(&ramp(n), q).is_some(), "n={n} q={q}");
        }
    }

    #[test]
    fn plain_median() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 5.0, 9.0]), 5.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
    }
}

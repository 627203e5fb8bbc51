//! Property tests for the log-bucketed streaming histogram: its
//! quantile estimates must stay within one bucket's relative error of
//! the exact sorted-population percentiles, for arbitrary sample sets.

use proptest::prelude::*;

use hgpcn_telemetry::histogram::{DEFAULT_FLOOR, DEFAULT_GROWTH};
use hgpcn_telemetry::LogHistogram;

/// Exact nearest-rank percentile of a sorted population — the same
/// rank convention the histogram uses (`ceil(q * n)`-th smallest).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For samples above the underflow floor, every streaming quantile
    /// is within one geometric bucket of the exact percentile:
    /// `exact / growth <= estimate <= exact * growth` (with a hair of
    /// fp slack for bucket-boundary values).
    #[test]
    fn quantiles_match_exact_within_one_bucket(
        samples in prop::collection::vec(1e-6f64..1e3, 1..300),
    ) {
        let mut h = LogHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let approx = h.quantile(q);
            let lo = exact / DEFAULT_GROWTH * (1.0 - 1e-9);
            let hi = exact * DEFAULT_GROWTH * (1.0 + 1e-9);
            prop_assert!(
                approx >= lo && approx <= hi,
                "p{} estimate {} outside [{}, {}] (exact {})",
                (q * 100.0) as u32, approx, lo, hi, exact
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Merging two histograms is indistinguishable from recording the
    /// union into one, and the mean matches the population mean.
    #[test]
    fn merge_and_mean_match_population(
        left in prop::collection::vec(1e-6f64..1e3, 0..100),
        right in prop::collection::vec(1e-6f64..1e3, 0..100),
    ) {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut union = LogHistogram::default();
        for &s in &left {
            a.record(s);
            union.record(s);
        }
        for &s in &right {
            b.record(s);
            union.record(s);
        }
        a.merge(&b);
        // Bucket contents and the maximum match exactly; the running sums
        // may differ in the last ulp (different addition order).
        prop_assert_eq!(a.cumulative_buckets(), union.cumulative_buckets());
        prop_assert_eq!(a.count(), union.count());
        prop_assert_eq!(a.max(), union.max());
        prop_assert!((a.sum() - union.sum()).abs() <= 1e-9 * union.sum().max(1.0));
        let n = left.len() + right.len();
        if n > 0 {
            let pop_mean = (left.iter().sum::<f64>() + right.iter().sum::<f64>()) / n as f64;
            prop_assert!((a.mean() - pop_mean).abs() <= 1e-9 * pop_mean.max(1.0));
        }
    }

    /// Samples at or below the floor never corrupt the positive-sample
    /// statistics.
    #[test]
    fn underflow_never_pollutes_stats(
        good in prop::collection::vec(1e-3f64..1e3, 1..50),
        bad_count in 0usize..20,
    ) {
        let mut h = LogHistogram::default();
        for &s in &good {
            h.record(s);
        }
        for _ in 0..bad_count {
            h.record(DEFAULT_FLOOR / 2.0);
        }
        let max = good.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.count(), (good.len() + bad_count) as u64);
        prop_assert!((h.max() - max).abs() <= f64::EPSILON * max);
    }
}

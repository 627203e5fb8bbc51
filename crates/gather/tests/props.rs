//! Property tests for the gathering methods.

use proptest::prelude::*;

use hgpcn_gather::{ball, knn, sorter};
use hgpcn_geometry::{Point3, PointCloud};

fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0), 2..200).prop_map(
        |pts| {
            pts.into_iter()
                .map(|(x, y, z)| Point3::new(x, y, z))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Brute KNN returns exactly k unique indices, sorted by distance,
    /// excluding the center.
    #[test]
    fn knn_invariants(cloud in arb_cloud(), center_frac in 0.0f64..1.0, k in 1usize..12) {
        prop_assume!(cloud.len() > k);
        let center = ((cloud.len() - 1) as f64 * center_frac) as usize;
        let r = knn::gather(&cloud, center, k).unwrap();
        prop_assert_eq!(r.neighbors.len(), k);
        prop_assert!(!r.neighbors.contains(&center));
        let set: std::collections::HashSet<_> = r.neighbors.iter().collect();
        prop_assert_eq!(set.len(), k);
        let c = cloud.point(center);
        let dists: Vec<f32> = r.neighbors.iter().map(|&i| cloud.point(i).distance_sq(c)).collect();
        prop_assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        // No unpicked point is strictly closer than the worst picked one.
        let worst = dists.last().copied().unwrap_or(0.0);
        for i in 0..cloud.len() {
            if i != center && !r.neighbors.contains(&i) {
                prop_assert!(cloud.point(i).distance_sq(c) >= worst);
            }
        }
    }

    /// Ball query returns only in-ball points, padded to k when non-empty.
    #[test]
    fn ball_query_invariants(cloud in arb_cloud(), radius in 0.1f32..30.0, k in 1usize..16) {
        let r = ball::gather(&cloud, 0, radius, k).unwrap();
        let c = cloud.point(0);
        for &i in &r.neighbors {
            prop_assert!(i != 0);
            prop_assert!(cloud.point(i).distance(c) <= radius * 1.0001);
        }
        if !r.neighbors.is_empty() {
            prop_assert_eq!(r.neighbors.len(), k);
        }
    }

    /// Bitonic cost model sanity: comparators and stages are monotone in
    /// n, and a maximally wide sorter needs exactly `stages` cycles.
    #[test]
    fn sorter_model_monotone(n in 1usize..5000) {
        prop_assert!(sorter::comparator_count(n) <= sorter::comparator_count(n + 1).max(sorter::comparator_count(n)));
        prop_assert!(sorter::stage_count(n) <= sorter::stage_count(2 * n));
        let p = sorter::padded_size(n);
        prop_assert_eq!(sorter::sort_cycles(n, p / 2 + 1), u64::from(sorter::stage_count(n)));
        // Total comparator work equals stages x per-stage comparators.
        prop_assert_eq!(
            sorter::comparator_count(n),
            u64::from(sorter::stage_count(n)) * (p as u64 / 2)
        );
    }
}

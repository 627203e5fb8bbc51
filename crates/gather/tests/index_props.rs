//! Equivalence of the once-per-cloud [`VegIndex`] to the per-call gather
//! functions, on random clouds.
//!
//! [`VegIndex`]: hgpcn_gather::VegIndex

use proptest::prelude::*;

use hgpcn_gather::veg::{self, VegConfig, VegMode};
use hgpcn_gather::{knn, VegIndex};
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_octree::{Octree, OctreeConfig};

/// A well-spread, duplicate-free cloud: golden-ratio strides plus a
/// salt-derived offset. (A modular-arithmetic generator used here
/// before produced heavily duplicated points, whose degenerate octrees
/// made VEG shell enumeration explode and neighbor ties ambiguous.)
fn cloud(n: usize, salt: u64) -> PointCloud {
    let off = (salt % 977) as f32 * 0.00093;
    (0..n)
        .map(|i| {
            let f = i as f32;
            Point3::new(
                (f * 0.618_034 + off).fract() * 4.0,
                (f * 0.414_214 + off * 2.0).fract() * 4.0,
                (f * 0.732_051 + off * 3.0).fract() * 4.0,
            )
        })
        .collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// VegIndex in Exact mode returns the same neighbor *set* as brute
    /// KNN (VEG's exactness guarantee), through the amortized index.
    #[test]
    fn veg_index_exact_mode_equals_brute_set(
        n in 60usize..400,
        salt in 0u64..5000,
        k in 1usize..20,
        center_salt in 0usize..97,
    ) {
        let c = cloud(n, salt);
        let cfg = VegConfig { gather_level: None, mode: VegMode::Exact };
        let index = VegIndex::build(&c, cfg, OctreeConfig::default()).unwrap();
        let center = center_salt % n;
        let a = index.query(center, k).unwrap();
        let b = knn::gather(&c, center, k).unwrap();
        prop_assert_eq!(sorted(a.neighbors), sorted(b.neighbors));
    }

    /// VegIndex in the paper's mode answers identically to the per-call
    /// `veg::gather` over a per-call octree — the index only amortizes
    /// the build, never changes the result.
    #[test]
    fn veg_index_equals_per_call_veg(
        n in 60usize..400,
        salt in 0u64..5000,
        k in 1usize..20,
        center_salt in 0usize..97,
    ) {
        let c = cloud(n, salt);
        let cfg = VegConfig::default();
        let index = VegIndex::build(&c, cfg, OctreeConfig::default()).unwrap();
        let octree = Octree::build(&c, OctreeConfig::default()).unwrap();
        let perm = octree.permutation();
        let mut inverse = vec![0usize; perm.len()];
        for (sfc, &raw) in perm.iter().enumerate() {
            inverse[raw as usize] = sfc;
        }
        let center = center_salt % n;
        let a = index.query(center, k).unwrap();
        let direct = veg::gather(&octree, inverse[center], k, &cfg).unwrap();
        let mapped: Vec<usize> = direct.neighbors.iter().map(|&s| perm[s] as usize).collect();
        prop_assert_eq!(a.neighbors, mapped);
        prop_assert_eq!(a.counts, direct.counts);
    }
}

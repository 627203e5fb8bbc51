//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary point clouds, not just the curated fixtures.

use proptest::prelude::*;

use hgpcn::gather::knn;
use hgpcn::gather::veg::{self, VegConfig, VegMode};
use hgpcn::memsim::HostMemory;
use hgpcn::prelude::*;
use hgpcn::sampling::{fps, ois};

fn arb_cloud(max_points: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(
        (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0),
        2..max_points,
    )
    .prop_map(|pts| {
        pts.into_iter()
            .map(|(x, y, z)| Point3::new(x, y, z))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The octree build never loses or duplicates a point, and the SFC
    /// permutation is a bijection.
    #[test]
    fn octree_preserves_points(cloud in arb_cloud(300)) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(2)).unwrap();
        prop_assert_eq!(tree.points().len(), cloud.len());
        let mut perm = tree.permutation().to_vec();
        perm.sort_unstable();
        prop_assert_eq!(perm, (0..cloud.len() as u32).collect::<Vec<_>>());
        // Leaf ranges partition [0, n): total leaf points == n.
        let leaf_total: usize =
            tree.nodes().iter().filter(|n| n.is_leaf()).map(|n| n.point_count()).sum();
        prop_assert_eq!(leaf_total, cloud.len());
    }

    /// The Octree-Table walk reaches the same voxel ranges as the tree.
    #[test]
    fn table_walk_agrees_with_tree(cloud in arb_cloud(200)) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(2)).unwrap();
        let table = OctreeTable::from_octree(&tree);
        for node in tree.nodes() {
            let (idx, _) = table.walk(node.code());
            prop_assert_eq!(table.entry(idx).point_start as usize, node.point_range().start);
            prop_assert_eq!(table.entry(idx).point_count as usize, node.point_count());
        }
    }

    /// FPS's closed-form counts equal the instrumented run, for any cloud
    /// and any valid K.
    #[test]
    fn fps_analytic_counts_always_match(cloud in arb_cloud(120), k_frac in 0.0f64..1.0) {
        let k = ((cloud.len() as f64 * k_frac) as usize).clamp(1, cloud.len());
        let mut mem = HostMemory::from_cloud(&cloud);
        let r = fps::sample(&mut mem, k, 7).unwrap();
        prop_assert_eq!(r.counts, fps::analytic_counts(cloud.len(), k));
    }

    /// OIS always returns a valid, duplicate-free sample of the requested
    /// size, reading exactly K points from host memory.
    #[test]
    fn ois_sample_always_valid(cloud in arb_cloud(250), k_frac in 0.0f64..1.0) {
        let k = ((cloud.len() as f64 * k_frac) as usize).clamp(1, cloud.len());
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let table = OctreeTable::from_octree(&tree);
        let mut mem = HostMemory::from_cloud(tree.points());
        let r = ois::sample(&tree, &table, &mut mem, k, 3).unwrap();
        prop_assert_eq!(r.len(), k);
        prop_assert!(r.is_valid_sample_of(cloud.len()));
        prop_assert_eq!(r.counts.mem_reads, k as u64);
        prop_assert_eq!(r.counts.mem_writes, 0);
    }

    /// Exact-mode VEG returns the brute-force KNN set for any cloud,
    /// center and K.
    #[test]
    fn exact_veg_equals_brute_knn(cloud in arb_cloud(150), center_frac in 0.0f64..1.0, k in 1usize..12) {
        prop_assume!(cloud.len() > k);
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(7).leaf_capacity(2)).unwrap();
        let sfc_center = ((tree.points().len() - 1) as f64 * center_frac) as usize;
        let cfg = VegConfig { gather_level: None, mode: VegMode::Exact };
        let veg_r = veg::gather(&tree, sfc_center, k, &cfg).unwrap();
        let brute = knn::gather(tree.points(), sfc_center, k).unwrap();
        let mut a = veg_r.neighbors.clone();
        let mut b = brute.neighbors.clone();
        a.sort_unstable();
        b.sort_unstable();
        // Distance multisets must agree (ties may resolve differently in
        // index space but never in distance space).
        let c = tree.points().point(sfc_center);
        let da: Vec<u32> = a.iter().map(|&i| tree.points().point(i).distance_sq(c).to_bits()).collect();
        let db: Vec<u32> = b.iter().map(|&i| tree.points().point(i).distance_sq(c).to_bits()).collect();
        prop_assert_eq!(da, db);
    }

    /// Paper-mode VEG always returns K unique neighbors excluding the
    /// center, and never sorts more candidates than the whole cloud.
    #[test]
    fn paper_veg_always_valid(cloud in arb_cloud(200), k in 1usize..24) {
        prop_assume!(cloud.len() > k);
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let r = veg::gather(&tree, 0, k, &VegConfig::default()).unwrap();
        prop_assert_eq!(r.len(), k);
        prop_assert!(!r.neighbors.contains(&0));
        let set: std::collections::HashSet<_> = r.neighbors.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(r.stats.candidates_sorted < cloud.len());
    }

    /// Down-sampling then gathering composes for arbitrary clouds: the
    /// pre-processing engine's output always feeds VEG cleanly.
    #[test]
    fn preprocess_then_gather_composes(cloud in arb_cloud(400)) {
        prop_assume!(cloud.len() >= 64);
        let engine = hgpcn::system::PreprocessingEngine::prototype();
        let out = engine.run(&cloud, 32, 1).unwrap();
        prop_assert_eq!(out.sampled.len(), 32);
        let tree = Octree::build(&out.sampled, OctreeConfig::default()).unwrap();
        let r = veg::gather(&tree, 0, 8, &VegConfig::default()).unwrap();
        prop_assert_eq!(r.len(), 8);
    }
}

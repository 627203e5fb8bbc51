//! Property tests for the samplers.

use proptest::prelude::*;

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::HostMemory;
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::{fps, ois, random, reinforce, voxelgrid};

fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-30.0f32..30.0, -30.0f32..30.0, -30.0f32..30.0), 2..200).prop_map(
        |pts| {
            pts.into_iter()
                .map(|(x, y, z)| Point3::new(x, y, z))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every sampler returns a valid duplicate-free sample of size k.
    #[test]
    fn all_samplers_return_valid_samples(cloud in arb_cloud(), k_frac in 0.0f64..1.0, seed in 0u64..1000) {
        let n = cloud.len();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);

        let mut mem = HostMemory::from_cloud(&cloud);
        let f = fps::sample(&mut mem, k, seed).unwrap();
        prop_assert!(f.is_valid_sample_of(n));
        prop_assert_eq!(f.len(), k);

        let mut mem = HostMemory::from_cloud(&cloud);
        let r = random::sample(&mut mem, k, seed).unwrap();
        prop_assert!(r.is_valid_sample_of(n));
        prop_assert_eq!(r.len(), k);

        let mut mem = HostMemory::from_cloud(&cloud);
        let rf = reinforce::sample(&mut mem, k, seed).unwrap();
        prop_assert_eq!(rf.indices, r.indices, "reinforce must keep RS's picks");
        prop_assert!(rf.counts.macs > 0);
    }

    /// OIS and approximate OIS both produce valid samples with exactly K
    /// host-memory point reads.
    #[test]
    fn ois_variants_valid(cloud in arb_cloud(), k_frac in 0.0f64..1.0, stop in 0u8..6) {
        let n = cloud.len();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(3)).unwrap();
        let table = OctreeTable::from_octree(&tree);

        let mut mem = HostMemory::from_cloud(tree.points());
        let exact = ois::sample(&tree, &table, &mut mem, k, 7).unwrap();
        prop_assert!(exact.is_valid_sample_of(n));
        prop_assert_eq!(exact.counts.mem_reads, k as u64);

        let mut mem = HostMemory::from_cloud(tree.points());
        let approx = ois::approx_sample(&tree, &table, &mut mem, k, 7, stop).unwrap();
        prop_assert!(approx.is_valid_sample_of(n));
        prop_assert_eq!(approx.len(), k);
    }

    /// Voxel-grid keeps exactly one point per occupied voxel.
    #[test]
    fn voxelgrid_invariants(cloud in arb_cloud(), level in 0u8..7) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(2)).unwrap();
        let mut mem = HostMemory::from_cloud(tree.points());
        let r = voxelgrid::sample(&tree, &mut mem, level).unwrap();
        prop_assert_eq!(r.len(), voxelgrid::occupied_voxels(&tree, level));
        prop_assert!(r.is_valid_sample_of(cloud.len()));
    }

    /// FPS's farthest-first property: each pick (after the seed) attains
    /// the maximum min-distance to the already-picked set.
    #[test]
    fn fps_is_farthest_first(cloud in arb_cloud(), seed in 0u64..100) {
        prop_assume!(cloud.len() >= 4);
        let k = 4;
        let mut mem = HostMemory::from_cloud(&cloud);
        let r = fps::sample(&mut mem, k, seed).unwrap();
        for pick in 1..k {
            let picked = &r.indices[..pick];
            let min_d = |i: usize| {
                picked
                    .iter()
                    .map(|&j| cloud.point(i).distance_sq(cloud.point(j)))
                    .fold(f32::INFINITY, f32::min)
            };
            let best = (0..cloud.len())
                .filter(|i| !picked.contains(i))
                .map(min_d)
                .fold(0.0f32, f32::max);
            prop_assert_eq!(min_d(r.indices[pick]), best, "pick {}", pick);
        }
    }
}

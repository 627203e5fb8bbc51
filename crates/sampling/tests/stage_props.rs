//! Sampling-backend equivalence: every [`SamplingKernel`] backend must
//! pick **identical center indices in identical order** — and charge
//! identical modeled operation counts — as the scalar anchor, across
//! ragged cloud sizes, every `k` from 0 to n, duplicate and coincident
//! points, and collapsed (single-voxel) geometry.
//!
//! NaN coordinates are carved out deliberately: `Octree::build` rejects
//! non-finite clouds (`OctreeError::InvalidGeometry`) before any
//! sampling backend can run, so no NaN ever reaches the OIS scoreboard
//! — the same upstream-validation carve-out `kernel_props.rs` applies
//! to non-finite weights.

use proptest::prelude::*;

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::HostMemory;
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::{ois, SamplingKernel};

/// Clouds with deliberate duplicates: a quantization knob snaps a slice
/// of the coordinates to a coarse grid so exact coincident points (the
/// OIS scoreboard's tie-handling hot spot) occur with high probability.
fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    (
        prop::collection::vec((-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0), 1..150),
        0u8..3,
    )
        .prop_map(|(pts, quantize)| {
            pts.into_iter()
                .enumerate()
                .map(|(i, (x, y, z))| {
                    if quantize > 0 && i % 2 == 0 {
                        // Snap to a 4-unit grid: many exact duplicates.
                        Point3::new(
                            (x / 4.0).round() * 4.0,
                            (y / 4.0).round() * 4.0,
                            (z / 4.0).round() * 4.0,
                        )
                    } else {
                        Point3::new(x, y, z)
                    }
                })
                .collect()
        })
}

fn backends_under_test() -> Vec<SamplingKernel> {
    SamplingKernel::all()
        .iter()
        .copied()
        .filter(|k| *k != SamplingKernel::Scalar)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical picks, identical order, identical modeled counts on
    /// every backend, for every target size including 0 and n.
    #[test]
    fn backends_pick_identical_centers(
        cloud in arb_cloud(),
        k_frac in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let n = cloud.len();
        let k = ((n as f64 * k_frac).round() as usize).min(n);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(3)).unwrap();
        let table = OctreeTable::from_octree(&tree);

        let mut mem = HostMemory::from_cloud(tree.points());
        let want = ois::sample_with(&tree, &table, &mut mem, k, seed, SamplingKernel::Scalar)
            .unwrap();
        prop_assert!(want.is_valid_sample_of(n));

        for backend in backends_under_test() {
            let mut mem = HostMemory::from_cloud(tree.points());
            let got = ois::sample_with(&tree, &table, &mut mem, k, seed, backend).unwrap();
            prop_assert_eq!(&got.indices, &want.indices, "{}: picked centers", backend.name());
            prop_assert_eq!(got.counts, want.counts, "{}: modeled counts", backend.name());
        }
    }

    /// A fully coincident cloud (every point identical) exercises the
    /// all-ties path: backends must still agree exactly.
    #[test]
    fn backends_agree_on_coincident_clouds(n in 1usize..40, seed in 0u64..100) {
        let cloud: PointCloud = (0..n).map(|_| Point3::splat(1.5)).collect();
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(2)).unwrap();
        let table = OctreeTable::from_octree(&tree);
        let k = (n / 2).max(1);

        let mut mem = HostMemory::from_cloud(tree.points());
        let want = ois::sample_with(&tree, &table, &mut mem, k, seed, SamplingKernel::Scalar)
            .unwrap();
        for backend in backends_under_test() {
            let mut mem = HostMemory::from_cloud(tree.points());
            let got = ois::sample_with(&tree, &table, &mut mem, k, seed, backend).unwrap();
            prop_assert_eq!(&got.indices, &want.indices, "{}", backend.name());
            prop_assert_eq!(got.counts, want.counts, "{}", backend.name());
        }
    }
}

//! Property test for the stream-scoped build: across arbitrary drift
//! sequences — including empty frames, single-point frames, point-count
//! changes and AABB drift — `Octree::build_with_scratch` must be
//! bit-identical to a stateless `Octree::build` on every frame, reporting
//! `reused` exactly when consecutive frames share a root grid.

use proptest::prelude::*;

use hgpcn_geometry::{Aabb, Point3, PointCloud};
use hgpcn_octree::{Octree, OctreeConfig, OctreeScratch, OctreeTable};

/// One frame of a synthetic stream.
#[derive(Clone, Debug)]
enum Frame {
    /// Anchored drift: two fixed corner points pin the AABB while `n`
    /// interior points translate by `shift` — the warm-path case.
    Drift { n: usize, shift: f32 },
    /// Single anchored point only (degenerate AABB → cold rebuild).
    Single,
    /// No points at all (both build paths must error identically).
    Empty,
    /// Drift plus an outlier that grows the AABB → cold fall-back.
    Grown { n: usize, shift: f32 },
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    // (selector, n, shift) → Frame, weighted toward the drift case.
    (0u32..10, 1usize..120, 0.0f32..4.0).prop_map(|(kind, n, shift)| match kind {
        0..=5 => Frame::Drift { n, shift },
        6 => Frame::Single,
        7 => Frame::Empty,
        _ => Frame::Grown { n, shift },
    })
}

fn materialize(frame: &Frame) -> PointCloud {
    let mut cloud = PointCloud::new();
    match *frame {
        Frame::Drift { n, shift } | Frame::Grown { n, shift } => {
            cloud.push(Point3::ORIGIN);
            cloud.push(Point3::splat(16.0));
            for i in 0..n {
                let t = i as f32;
                cloud.push(Point3::new(
                    1.0 + (t * 0.613 + shift) % 13.0,
                    1.0 + (t * 1.371 + shift * 0.5) % 13.0,
                    1.0 + (t * 0.257 + shift * 2.0) % 13.0,
                ));
            }
            if matches!(*frame, Frame::Grown { .. }) {
                cloud.push(Point3::splat(40.0));
            }
        }
        Frame::Single => cloud.push(Point3::splat(3.0)),
        Frame::Empty => {}
    }
    cloud
}

fn assert_bit_identical(warm: &Octree, cold: &Octree) {
    assert_eq!(warm.root_bounds(), cold.root_bounds(), "root grid");
    assert_eq!(warm.nodes(), cold.nodes(), "node arena");
    assert_eq!(warm.root(), cold.root(), "root id");
    assert_eq!(warm.point_bits(), cold.point_bits(), "sorted codes");
    assert_eq!(warm.permutation(), cold.permutation(), "permutation");
    assert_eq!(warm.points(), cold.points(), "reorganized cloud");
    let wt = OctreeTable::from_octree(warm);
    let ct = OctreeTable::from_octree(cold);
    assert_eq!(wt.len(), ct.len(), "table length");
    for i in 0..wt.len() as u32 {
        assert_eq!(wt.entry(i), ct.entry(i), "table entry {i}");
    }
}

fn root_grid(cloud: &PointCloud) -> Option<Aabb> {
    let bounds = cloud.bounds()?;
    let margin = (bounds.diagonal() * 1e-6).max(f32::MIN_POSITIVE);
    Some(bounds.inflate(margin).cubified())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Across a random frame sequence, every scratch build is bit-identical
    /// to a cold build of the same frame, and the warm path engages exactly
    /// when the previous successful frame shared the root grid.
    #[test]
    fn drift_sequences_are_bit_identical_to_cold(
        frames in prop::collection::vec(arb_frame(), 1..10),
        depth in 3u8..7,
        cap in 1usize..4,
    ) {
        let cfg = OctreeConfig::new().max_depth(depth).leaf_capacity(cap);
        let mut scratch = OctreeScratch::new();
        let mut prev_grid: Option<Aabb> = None;
        for (k, frame) in frames.iter().enumerate() {
            let cloud = materialize(frame);
            let cold = Octree::build(&cloud, cfg);
            let warm = Octree::build_with_scratch(&cloud, cfg, &mut scratch);
            match (cold, warm) {
                (Err(ce), Err(we)) => {
                    prop_assert_eq!(ce, we, "frame {}: paths must fail alike", k);
                    // A failed frame must not perturb the cache.
                    continue;
                }
                (Ok(cold), Ok(warm)) => {
                    let expect_warm = prev_grid.is_some() && prev_grid == root_grid(&cloud);
                    prop_assert_eq!(
                        warm.build_stats().reused, expect_warm,
                        "frame {}: warm-path engagement", k
                    );
                    prop_assert!(warm.build_stats().dirty_points <= cloud.len());
                    assert_bit_identical(&warm, &cold);
                    prev_grid = Some(warm.root_bounds());
                    // Recycle every other tree so both the recycled and the
                    // fresh-allocation paths are exercised.
                    if k % 2 == 0 {
                        scratch.recycle(warm);
                    }
                }
                (cold, warm) => {
                    prop_assert!(false, "frame {}: paths disagree on success: cold={:?} warm={:?}",
                        k, cold.map(|_| ()), warm.map(|_| ()));
                }
            }
        }
    }
}

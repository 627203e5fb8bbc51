//! Property tests for the octree: structural invariants over arbitrary
//! clouds.

use proptest::prelude::*;

use hgpcn_geometry::morton::MAX_LEVEL;
use hgpcn_geometry::{MortonCode, Point3, PointCloud};
use hgpcn_octree::{neighbor, Octree, OctreeConfig, OctreeError, OctreeTable};

fn arb_point() -> impl Strategy<Value = Point3> {
    (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0).prop_map(|(x, y, z)| Point3::new(x, y, z))
}

fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(arb_point(), 1..250).prop_map(PointCloud::from_points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Children's ranges tile their parent's range in order, at every node.
    #[test]
    fn ranges_are_nested_and_ordered(cloud in arb_cloud(), cap in 1usize..6) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(7).leaf_capacity(cap)).unwrap();
        for node in tree.nodes() {
            if node.is_leaf() {
                continue;
            }
            let mut cursor = node.point_range().start;
            for child in node.children() {
                let r = tree.node(child).point_range();
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end <= node.point_range().end);
                cursor = r.end;
            }
            prop_assert_eq!(cursor, node.point_range().end);
        }
    }

    /// voxel_range at any level equals the brute-force prefix filter.
    #[test]
    fn voxel_range_matches_brute_filter(cloud in arb_cloud(), level in 0u8..5) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(6)).unwrap();
        // Probe the voxel of the first point at the given level.
        let voxel = tree.point_code(0).ancestor_at(level);
        let range = tree.voxel_range(voxel);
        for i in 0..cloud.len() {
            let inside = tree.point_code(i).ancestor_at(level) == voxel;
            prop_assert_eq!(range.contains(&i), inside, "point {}", i);
        }
    }

    /// Every point's voxel at max depth contains exactly the points that
    /// share its code.
    #[test]
    fn leaf_voxels_group_equal_codes(cloud in arb_cloud()) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(5).leaf_capacity(1)).unwrap();
        for i in 0..cloud.len() {
            let code = tree.point_code(i);
            let range = tree.voxel_range(code);
            prop_assert!(range.contains(&i));
            for j in range {
                prop_assert_eq!(tree.point_code(j), code);
            }
        }
    }

    /// The flattened table and the tree agree on every node, and the table
    /// size model is exact.
    #[test]
    fn table_is_a_faithful_flattening(cloud in arb_cloud()) {
        let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(3)).unwrap();
        let table = OctreeTable::from_octree(&tree);
        prop_assert_eq!(table.len(), tree.node_count());
        prop_assert_eq!(table.size_bits(), table.len() * OctreeTable::ENTRY_BITS);
        for node in tree.nodes() {
            let (idx, lookups) = table.walk(node.code());
            prop_assert_eq!(u64::from(lookups), u64::from(node.level()) + 1);
            prop_assert_eq!(table.entry(idx).point_count as usize, node.point_count());
        }
    }

    /// Shell enumeration: shells are disjoint, distance-correct, and their
    /// union over 0..=s is the clipped Chebyshev ball.
    #[test]
    fn shells_partition_the_ball(x in 0u32..16, y in 0u32..16, z in 0u32..16, s in 0u32..4) {
        let center = MortonCode::from_grid_coords(x, y, z, 4);
        let mut seen = std::collections::HashSet::new();
        for shell in 0..=s {
            for v in neighbor::shell_codes(center, shell) {
                prop_assert_eq!(center.chebyshev_distance(v), shell);
                prop_assert!(seen.insert(v), "duplicate voxel across shells");
            }
        }
        // The clipped Chebyshev ball: a (2s + 1)-wide box cut to the grid.
        let span = |c: u32| (c + s).min(15) - c.saturating_sub(s) + 1;
        prop_assert_eq!(seen.len() as u32, span(x) * span(y) * span(z));
    }

    /// Depth never exceeds the cap and the build is deterministic.
    #[test]
    fn build_is_deterministic_and_bounded(cloud in arb_cloud(), depth in 1u8..8) {
        let cfg = OctreeConfig::new().max_depth(depth).leaf_capacity(2);
        let a = Octree::build(&cloud, cfg).unwrap();
        let b = Octree::build(&cloud, cfg).unwrap();
        prop_assert!(a.depth() <= depth);
        prop_assert_eq!(a.permutation(), b.permutation());
        prop_assert_eq!(a.node_count(), b.node_count());
    }
}

/// The build against a reference composed from the per-level `Aabb` walk
/// (the encode oracle) and a stable comparison sort by code: same
/// permutation — ties in raw order — and same sorted codes.
fn assert_build_equals_walk_and_stable_sort(
    cloud: &PointCloud,
    depth: u8,
) -> Result<(), TestCaseError> {
    let tree = Octree::build(cloud, OctreeConfig::new().max_depth(depth)).unwrap();
    let raw: Vec<MortonCode> = cloud
        .iter()
        .map(|p| {
            let mut code = MortonCode::root();
            let mut voxel = tree.root_bounds();
            for _ in 0..depth {
                let oct = voxel.octant_of(p);
                voxel = voxel.octant_bounds(oct);
                code = code.child(oct);
            }
            code
        })
        .collect();
    let mut perm: Vec<u32> = (0..cloud.len() as u32).collect();
    perm.sort_by_key(|&i| raw[i as usize]);
    let sorted: Vec<u64> = perm.iter().map(|&i| raw[i as usize].bits()).collect();
    prop_assert_eq!(tree.permutation(), &perm[..], "depth {}", depth);
    prop_assert_eq!(tree.point_bits(), &sorted[..], "depth {}", depth);
    Ok(())
}

/// The frames a radix sort has nothing to do on, at every depth: one point,
/// and one position many times over (no digit tells two keys apart, so the
/// permutation is the identity). Depth 0 has no key bits at all; depth 21
/// has 63, the last digit a partial one.
#[test]
fn single_point_and_all_identical_frames_at_every_depth() {
    let p = Point3::new(3.5, -1.25, 7.0);
    for depth in 0..=MAX_LEVEL {
        for n in [1, 2, 777] {
            let cloud: PointCloud = std::iter::repeat_n(p, n).collect();
            assert_build_equals_walk_and_stable_sort(&cloud, depth).unwrap();
        }
    }
}

// No pinned case count: the per-PR CI runs this file once at
// `PROPTEST_CASES=256` and the scheduled sweep at 1024, beside the geometry
// crate's encoder properties.
proptest! {
    /// Small frames of distinct points: few ties, rarely two keys in one
    /// bucket.
    #[test]
    fn build_equals_per_point_walk_and_stable_sort(cloud in arb_cloud(), depth in 0u8..=MAX_LEVEL) {
        assert_build_equals_walk_and_stable_sort(&cloud, depth)?;
    }

    /// At most eight positions, thousands of points: every bucket is a run
    /// of ties, so the permutation *is* the sort's stability.
    #[test]
    fn build_is_stable_on_heavily_duplicated_frames(
        positions in prop::collection::vec(arb_point(), 1..9),
        picks in prop::collection::vec(0usize..8, 1..5001),
        depth in 0u8..=MAX_LEVEL,
    ) {
        let cloud: PointCloud = picks.iter().map(|&k| positions[k % positions.len()]).collect();
        assert_build_equals_walk_and_stable_sort(&cloud, depth)?;
    }

    /// 20 000 points: many entries in every bucket of every pass.
    #[test]
    fn build_equals_oracle_on_a_large_frame(
        points in prop::collection::vec(arb_point(), 20_000),
        depth in 0u8..=MAX_LEVEL,
    ) {
        assert_build_equals_walk_and_stable_sort(&PointCloud::from_points(points), depth)?;
    }

    /// A planar frame (constant x) at every depth. The cubified root is
    /// centred on the plane, so every point takes the same x bit at every
    /// level, and at depths 7 and 17 the keys' top radix digit (10 bits) is
    /// the level-1 x bit alone: a digit every key shares, which the sort
    /// skips.
    #[test]
    fn build_equals_oracle_when_keys_share_their_high_digit(
        x in -50.0f32..50.0,
        yz in prop::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 2..400),
    ) {
        let cloud: PointCloud = yz.iter().map(|&(y, z)| Point3::new(x, y, z)).collect();
        for depth in 0..=MAX_LEVEL {
            assert_build_equals_walk_and_stable_sort(&cloud, depth)?;
        }
    }

    /// Finite coordinates anywhere in `f32`, near ±`f32::MAX` included:
    /// the build never panics. A frame with a coordinate beyond
    /// ±`f32::MAX / 2` is refused with `RootOverflow`; a refused frame has
    /// a coordinate of magnitude 1e18 or more (below that neither the
    /// margin nor the root can overflow); a built one matches the oracle.
    #[test]
    fn build_refuses_or_builds_frames_near_f32_max(
        ordinary in prop::collection::vec(arb_point(), 0..40),
        far in prop::collection::vec(
            (1.0f32..3.4, 1.0f32..3.4, 1.0f32..3.4, 0u8..8, 18i32..=38),
            1..6,
        ),
    ) {
        let mut points = ordinary;
        for &(x, y, z, signs, exponent) in &far {
            let scale = 10f32.powi(exponent);
            let sign = |bit: u8| if signs >> bit & 1 == 1 { -scale } else { scale };
            points.push(Point3::new(x * sign(0), y * sign(1), z * sign(2)));
        }
        let cloud = PointCloud::from_points(points);
        let bounds = cloud.bounds().unwrap();
        let beyond_half = [bounds.min(), bounds.max()]
            .iter()
            .any(|p| [p.x, p.y, p.z].iter().any(|c| c.abs() > f32::MAX / 2.0));
        match Octree::build(&cloud, OctreeConfig::default()) {
            Ok(_) => {
                prop_assert!(!beyond_half, "built a root beyond f32::MAX / 2: {}", bounds);
                assert_build_equals_walk_and_stable_sort(&cloud, 10)?;
            }
            Err(err) => {
                prop_assert_eq!(err, OctreeError::RootOverflow);
                let far = [bounds.min(), bounds.max()]
                    .iter()
                    .any(|p| [p.x, p.y, p.z].iter().any(|c| c.abs() >= 1e18));
                prop_assert!(far, "refused {}", bounds);
            }
        }
    }
}

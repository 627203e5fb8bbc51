//! Property tests for the geometric primitives.

use proptest::prelude::*;

use hgpcn_geometry::morton::{EncodeBody, FrameEncoder, MAX_LEVEL};
use hgpcn_geometry::{Aabb, MortonCode, Point3, PointCloud};

fn arb_point() -> impl Strategy<Value = Point3> {
    (-1000.0f32..1000.0, -1000.0f32..1000.0, -1000.0f32..1000.0)
        .prop_map(|(x, y, z)| Point3::new(x, y, z))
}

fn arb_unit_point() -> impl Strategy<Value = Point3> {
    (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0).prop_map(|(x, y, z)| Point3::new(x, y, z))
}

/// A box with its low corner in ±1000 and edges up to 2000 per axis, so
/// `arb_point` falls inside, on and outside it.
fn arb_box() -> impl Strategy<Value = Aabb> {
    (arb_point(), 0.0f32..2000.0, 0.0f32..2000.0, 0.0f32..2000.0)
        .prop_map(|(min, ex, ey, ez)| Aabb::new(min, min + Point3::new(ex, ey, ez)))
}

/// The encode oracle: the per-level walk `MortonCode::encode` was first
/// written as, one asserted child `Aabb` per level.
fn walk(p: Point3, root: &Aabb, level: u8) -> MortonCode {
    let mut code = MortonCode::root();
    let mut voxel = *root;
    for _ in 0..level {
        let oct = voxel.octant_of(p);
        voxel = voxel.octant_bounds(oct);
        code = code.child(oct);
    }
    code
}

/// Both encoders agree with the oracle on every point of `frame`: the
/// per-point encode, and the frame encoder on every body this CPU runs.
/// A frame shorter than 40 points is also encoded cycled out to 40 (two
/// 16-point steps and an 8-point tail), so the AVX-512 body sees the
/// frame's points in its vector lanes, not only in its scalar tail.
fn assert_encoders_match_walk(
    frame: &[Point3],
    root: &Aabb,
    level: u8,
) -> Result<(), TestCaseError> {
    let want: Vec<MortonCode> = frame.iter().map(|&p| walk(p, root, level)).collect();
    for (&p, &want) in frame.iter().zip(&want) {
        prop_assert_eq!(
            MortonCode::encode(p, root, level),
            want,
            "encode {} in {} at {}",
            p,
            root,
            level
        );
    }
    let long: Vec<usize> = (0..frame.len().max(40)).map(|i| i % frame.len()).collect();
    let cycled: Vec<Point3> = long.iter().map(|&i| frame[i]).collect();
    for &body in EncodeBody::all().iter().filter(|b| b.is_supported()) {
        let mut encoder = FrameEncoder::with_body(body);
        for (points, index) in [(frame, None), (&cycled[..], Some(&long))] {
            let mut bits = Vec::new();
            encoder.encode_frame(points, root, level, &mut bits);
            prop_assert_eq!(bits.len(), points.len());
            for (k, (&p, &bits)) in points.iter().zip(&bits).enumerate() {
                // The frame encoder emits bare bits: the level is the frame's.
                let want = want[index.map_or(k, |index| index[k])];
                prop_assert_eq!(
                    bits,
                    want.bits(),
                    "{:?} frame encoder, point {} of {}: {} in {} at {}",
                    body,
                    k,
                    points.len(),
                    p,
                    root,
                    level
                );
            }
        }
    }
    Ok(())
}

/// The root `Octree::build_with_scratch` gives a frame (octree/src/tree.rs).
fn builder_root(frame: &[Point3]) -> Aabb {
    let bounds = Aabb::from_points(frame.iter().copied()).expect("non-empty frame");
    let margin = (bounds.diagonal() * 1e-6).max(f32::MIN_POSITIVE);
    bounds.inflate(margin).cubified()
}

/// `v` and its two neighbouring floats (`next_down`/`next_up`, which the
/// workspace's minimum toolchain predates): the tie and both sides of it.
fn around(v: f32) -> [f32; 3] {
    let step = |up: bool| match v {
        0.0 => f32::from_bits(1) * if up { 1.0 } else { -1.0 },
        // Away from zero is one more in the magnitude bits.
        _ if (v > 0.0) == up => f32::from_bits(v.to_bits() + 1),
        _ => f32::from_bits(v.to_bits() - 1),
    };
    [step(false), v, step(true)]
}

/// A root whose first midpoint is finite but whose upper half's is not
/// (`1.2e38 + 3.4e38` overflows): points that stay in the lower half get
/// the walk's code from both encoders, and a point whose path meets the
/// overflow is refused by all three rather than given a code.
#[test]
fn overflowed_midpoint_panics_only_on_its_path() {
    let root = Aabb::new(Point3::splat(-1e38), Point3::splat(3.4e38));
    let low = [Point3::splat(-5e37), Point3::new(-1e38, 1e37, 1.1e38)];
    for level in 0..=MAX_LEVEL {
        assert_encoders_match_walk(&low, &root, level).unwrap();
    }
    let high = Point3::splat(3e38);
    assert_encoders_match_walk(&[high], &root, 1).unwrap();
    for level in [2, 10, MAX_LEVEL] {
        assert!(std::panic::catch_unwind(|| walk(high, &root, level)).is_err());
        assert!(std::panic::catch_unwind(|| MortonCode::encode(high, &root, level)).is_err());
        let frame =
            || FrameEncoder::new().encode_frame([low[0], high], &root, level, &mut Vec::new());
        assert!(std::panic::catch_unwind(frame).is_err());
    }
}

proptest! {
    /// Triangle inequality and symmetry of the distance.
    #[test]
    fn distance_metric_properties(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() <= 1e-3);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-2);
        prop_assert_eq!(a.distance(a), 0.0);
    }

    /// distance_sq is the square of distance.
    #[test]
    fn distance_sq_consistent(a in arb_point(), b in arb_point()) {
        let d = a.distance(b);
        prop_assert!((d * d - a.distance_sq(b)).abs() <= a.distance_sq(b).max(1.0) * 1e-4);
    }

    /// The bounding box of any point set contains every point, and
    /// cubifying preserves containment.
    #[test]
    fn aabb_contains_its_points(pts in prop::collection::vec(arb_point(), 1..50)) {
        let bounds = Aabb::from_points(pts.iter().copied()).unwrap();
        for &p in &pts {
            prop_assert!(bounds.contains(p));
            prop_assert!(bounds.cubified().inflate(1e-3).contains(p));
        }
    }

    /// Every point belongs to exactly the octant octant_of names.
    #[test]
    fn octant_of_is_consistent(p in arb_unit_point()) {
        let root = Aabb::unit();
        let oct = root.octant_of(p);
        prop_assert!(root.octant_bounds(oct).contains(p));
    }

    /// Morton encode/decode: the decoded voxel contains the point, and the
    /// voxel shrinks by half each level.
    #[test]
    fn morton_encode_decode(p in arb_unit_point(), level in 0u8..12) {
        let root = Aabb::unit();
        let code = MortonCode::encode(p, &root, level);
        let bounds = code.decode_bounds(&root);
        prop_assert!(bounds.inflate(1e-6).contains(p));
        let expected_edge = 1.0 / (1u64 << level) as f32;
        prop_assert!((bounds.extent().x - expected_edge).abs() < 1e-5);
    }

    /// Grid-coordinate round trip at every level.
    #[test]
    fn grid_coords_round_trip(x in 0u32..256, y in 0u32..256, z in 0u32..256) {
        let code = MortonCode::from_grid_coords(x % 256, y % 256, z % 256, 8);
        prop_assert_eq!(code.grid_coords(), (x % 256, y % 256, z % 256));
    }

    /// Morton order restricted to one level is total and antisymmetric,
    /// and ancestors sort before descendants.
    #[test]
    fn morton_order_properties(a in 0u64..4096, b in 0u64..4096) {
        let ca = MortonCode::from_bits(a, 4);
        let cb = MortonCode::from_bits(b, 4);
        prop_assert_eq!(ca.cmp(&cb), cb.cmp(&ca).reverse());
        let parent = ca.parent().unwrap();
        prop_assert!(parent < ca);
    }

    /// (i), (vi) Random boxes and points at every level: both encoders are
    /// the walk. Half the draws are levels 11-21, where the frame encoder
    /// looks ten levels up in its table and walks the rest.
    #[test]
    fn encoders_match_walk_on_random_boxes(
        root in arb_box(),
        frame in prop::collection::vec(arb_point(), 1..40),
        level in 0u8..=MAX_LEVEL,
    ) {
        assert_encoders_match_walk(&frame, &root, level)?;
    }

    /// Every frame length from 1 to 40: no step, one step and two steps of
    /// the AVX-512 body, each with every tail length.
    #[test]
    fn encoders_match_walk_at_every_frame_length(
        root in arb_box(),
        frame in prop::collection::vec(arb_point(), 40),
        level in 0u8..=MAX_LEVEL,
    ) {
        for len in 1..=frame.len() {
            assert_encoders_match_walk(&frame[..len], &root, level)?;
        }
    }

    /// (ii) Coordinates on the splitting planes themselves and one float to
    /// either side. The corners of a voxel at `cell_level <= level` are
    /// midpoints the descent to `level` compares against: table entries up
    /// to level 10, tail midpoints below.
    #[test]
    fn encoders_match_walk_on_boundary_coordinates(
        root in arb_box(),
        cell in arb_unit_point(),
        cell_level in 0u8..=MAX_LEVEL,
        deeper in 0u8..=MAX_LEVEL,
    ) {
        let level = cell_level.saturating_add(deeper).min(MAX_LEVEL);
        let n = (1u64 << cell_level) as f32;
        let grid = |t: f32| ((t * n) as u32).min((1u32 << cell_level) - 1);
        let voxel = MortonCode::from_grid_coords(grid(cell.x), grid(cell.y), grid(cell.z), cell_level)
            .decode_bounds(&root);
        let mut frame = Vec::new();
        for corner in [voxel.min(), voxel.max()] {
            for x in around(corner.x) {
                for y in around(corner.y) {
                    for z in around(corner.z) {
                        frame.push(Point3::new(x, y, z));
                    }
                }
            }
        }
        assert_encoders_match_walk(&frame, &root, level)?;
    }

    /// (iii) The roots the octree builder makes for an all-duplicate cloud:
    /// a `f32::MIN_POSITIVE` margin that vanishes next to any ordinary
    /// coordinate (zero extent) and survives next to a tiny one.
    #[test]
    fn encoders_match_walk_on_duplicate_cloud_roots(
        exponent in -45i32..=37,
        mantissa in 1.0f32..10.0,
        negative in prop::bool::ANY,
        level in 0u8..=MAX_LEVEL,
    ) {
        let c = mantissa * 10f32.powi(exponent) * if negative { -1.0 } else { 1.0 };
        let p = Point3::new(c, -c, c * 0.5);
        let root = builder_root(&[p, p, p]);
        let mut frame = vec![p];
        frame.extend(around(c).map(Point3::splat));
        frame.extend([root.min(), root.max(), root.center()]);
        assert_encoders_match_walk(&frame, &root, level)?;
    }

    /// (iii) Denormal extents: a root a few hundred denormal steps wide has
    /// fewer distinct boundaries than cells, so table entries repeat and
    /// the quantised guess overflows.
    #[test]
    fn encoders_match_walk_on_denormal_extents(
        base in 0u32..1000,
        width in 0u32..3000,
        steps in prop::collection::vec(0u32..4000, 1..30),
        level in 0u8..=MAX_LEVEL,
    ) {
        let tiny = |k: u32| f32::from_bits(k);
        let root = Aabb::new(Point3::splat(tiny(base)), Point3::splat(tiny(base + width)));
        let frame: Vec<Point3> = steps
            .iter()
            .map(|&k| Point3::new(tiny(k), tiny(base + k % (width + 1)), -tiny(k)))
            .collect();
        assert_encoders_match_walk(&frame, &root, level)?;
    }

    /// (iv) The `tests/robustness.rs::huge_coordinates` frame under the
    /// builder's root: 1e7 offsets, where neighbouring floats are a whole
    /// unit apart.
    #[test]
    fn encoders_match_walk_on_huge_coordinates(level in 0u8..=MAX_LEVEL) {
        let frame: Vec<Point3> = (0..300).map(|i| Point3::splat(1e7 + i as f32 * 1e3)).collect();
        assert_encoders_match_walk(&frame, &builder_root(&frame), level)?;
    }

    /// (v) Points far outside the root, infinite and NaN coordinates
    /// included, take the outermost cells the walk gives them.
    #[test]
    fn encoders_match_walk_outside_the_root(
        root in arb_box(),
        far in prop::collection::vec((-1e9f32..1e9, -1e9f32..1e9, -1e9f32..1e9), 1..20),
        level in 0u8..=MAX_LEVEL,
    ) {
        let mut frame: Vec<Point3> = far.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect();
        frame.push(Point3::new(f32::INFINITY, f32::NEG_INFINITY, f32::NAN));
        frame.push(Point3::new(f32::MAX, f32::MIN, -0.0));
        assert_encoders_match_walk(&frame, &root, level)?;
    }

    /// Normalization maps every cloud into the unit cube and preserves
    /// relative distances up to the uniform scale.
    #[test]
    fn normalization_preserves_shape(pts in prop::collection::vec(arb_point(), 2..40)) {
        let cloud = PointCloud::from_points(pts);
        let norm = cloud.normalized_unit_cube().unwrap();
        let unit = Aabb::unit();
        for p in norm.iter() {
            prop_assert!(unit.contains(p));
        }
        // Ratios of pairwise distances are preserved (scale-invariant).
        let d01 = cloud.point(0).distance(cloud.point(1));
        let n01 = norm.point(0).distance(norm.point(1));
        if d01 > 1.0 {
            for i in 2..cloud.len() {
                let di = cloud.point(0).distance(cloud.point(i));
                let ni = norm.point(0).distance(norm.point(i));
                if di > 1.0 {
                    prop_assert!(((di / d01) - (ni / n01)).abs() < 0.05,
                        "ratio drift: {} vs {}", di / d01, ni / n01);
                }
            }
        }
    }

    /// Hamming distance on equal-level codes is a metric.
    #[test]
    fn hamming_is_a_metric(a in 0u64..512, b in 0u64..512, c in 0u64..512) {
        let (ca, cb, cc) = (
            MortonCode::from_bits(a, 3),
            MortonCode::from_bits(b, 3),
            MortonCode::from_bits(c, 3),
        );
        prop_assert_eq!(ca.hamming_distance(cb), cb.hamming_distance(ca));
        prop_assert_eq!(ca.hamming_distance(ca), 0);
        prop_assert!(ca.hamming_distance(cc) <= ca.hamming_distance(cb) + cb.hamming_distance(cc));
    }
}

use std::fmt;

use crate::Point3;

/// One of the eight children of a subdivided axis-aligned box.
///
/// The index encodes the child's relative position inside its parent exactly
/// like the paper's m-code bits (§V-A): bit 2 is the X half, bit 1 the Y
/// half, bit 0 the Z half (`0` = low/"bottom-left", `1` = high). This is the
/// space-filling-curve traversal order illustrated in Fig. 5(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Octant(u8);

impl Octant {
    /// All eight octants in SFC order.
    pub const ALL: [Octant; 8] = [
        Octant(0),
        Octant(1),
        Octant(2),
        Octant(3),
        Octant(4),
        Octant(5),
        Octant(6),
        Octant(7),
    ];

    /// Creates an octant from its 3-bit index.
    ///
    /// Returns `None` if `index > 7`.
    #[inline]
    pub fn new(index: u8) -> Option<Octant> {
        (index < 8).then_some(Octant(index))
    }

    /// The 3-bit index (`0..8`) of this octant.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this octant is in the high X half of its parent.
    #[inline]
    pub fn high_x(self) -> bool {
        self.0 & 0b100 != 0
    }

    /// Whether this octant is in the high Y half of its parent.
    #[inline]
    pub fn high_y(self) -> bool {
        self.0 & 0b010 != 0
    }

    /// Whether this octant is in the high Z half of its parent.
    #[inline]
    pub fn high_z(self) -> bool {
        self.0 & 0b001 != 0
    }
}

impl fmt::Display for Octant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03b}", self.0)
    }
}

/// An axis-aligned bounding box: the "voxel" primitive of the paper.
///
/// The octree's root voxel is the bounding box of a whole frame; each
/// subdivision splits a voxel into its eight [`Octant`]s.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{Aabb, Point3};
///
/// let root = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
/// let child = root.octant_bounds(hgpcn_geometry::Octant::new(7).unwrap());
/// assert_eq!(child.min(), Point3::splat(1.0));
/// assert_eq!(child.max(), Point3::splat(2.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    min: Point3,
    max: Point3,
}

impl Aabb {
    /// Creates a box from its minimum and maximum corners.
    ///
    /// # Panics
    ///
    /// Panics if any component of `min` exceeds the matching component of
    /// `max`, or if either corner is non-finite.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Aabb {
        assert!(
            min.is_finite() && max.is_finite(),
            "AABB corners must be finite"
        );
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "AABB min {min} must not exceed max {max}"
        );
        Aabb { min, max }
    }

    /// The tightest box containing every point of `points`, or `None` for an
    /// empty iterator.
    pub fn from_points<I>(points: I) -> Option<Aabb>
    where
        I: IntoIterator<Item = Point3>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let (min, max) = iter.fold((first, first), |(lo, hi), p| (lo.min(p), hi.max(p)));
        Some(Aabb { min, max })
    }

    /// A cube centered at `center` with the given half-extent.
    #[inline]
    pub fn cube(center: Point3, half_extent: f32) -> Aabb {
        let h = Point3::splat(half_extent);
        Aabb::new(center - h, center + h)
    }

    /// The canonical unit cube `[0, 1]^3` that normalized clouds live in.
    #[inline]
    pub fn unit() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> Point3 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> Point3 {
        self.max
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Point3 {
        self.max - self.min
    }

    /// Length of the main diagonal.
    #[inline]
    pub fn diagonal(&self) -> f32 {
        self.extent().norm()
    }

    /// Returns `true` if `p` lies inside the box (inclusive on every face).
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if `self` and `other` overlap (touching counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Grows the box by `margin` on every face.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative enough to invert the box.
    #[inline]
    pub fn inflate(&self, margin: f32) -> Aabb {
        Aabb::new(
            self.min - Point3::splat(margin),
            self.max + Point3::splat(margin),
        )
    }

    /// The cube with the same center whose edge is the box's longest edge.
    ///
    /// The octree roots frames in a cube so that every subdivision level
    /// halves the voxel edge uniformly.
    pub fn cubified(&self) -> Aabb {
        let e = self.extent();
        let edge = e.x.max(e.y).max(e.z);
        Aabb::cube(self.center(), edge * 0.5)
    }

    /// Which octant of this box the point falls into.
    ///
    /// Points exactly on a splitting plane go to the high side, matching the
    /// m-code assignment in Fig. 5(a).
    #[inline]
    pub fn octant_of(&self, p: Point3) -> Octant {
        let c = self.center();
        let mut idx = 0u8;
        if p.x >= c.x {
            idx |= 0b100;
        }
        if p.y >= c.y {
            idx |= 0b010;
        }
        if p.z >= c.z {
            idx |= 0b001;
        }
        Octant(idx)
    }

    /// The bounds of one octant child of this box.
    #[inline]
    pub fn octant_bounds(&self, octant: Octant) -> Aabb {
        let c = self.center();
        let (min_x, max_x) = if octant.high_x() {
            (c.x, self.max.x)
        } else {
            (self.min.x, c.x)
        };
        let (min_y, max_y) = if octant.high_y() {
            (c.y, self.max.y)
        } else {
            (self.min.y, c.y)
        };
        let (min_z, max_z) = if octant.high_z() {
            (c.z, self.max.z)
        } else {
            (self.min.z, c.z)
        };
        Aabb::new(
            Point3::new(min_x, min_y, min_z),
            Point3::new(max_x, max_y, max_z),
        )
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_is_tight() {
        let pts = vec![
            Point3::new(1.0, 5.0, -1.0),
            Point3::new(-2.0, 0.0, 3.0),
            Point3::new(0.0, 2.0, 0.0),
        ];
        let b = Aabb::from_points(pts).unwrap();
        assert_eq!(b.min(), Point3::new(-2.0, 0.0, -1.0));
        assert_eq!(b.max(), Point3::new(1.0, 5.0, 3.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn octants_tile_the_parent() {
        let root = Aabb::new(Point3::ORIGIN, Point3::splat(4.0));
        let mut volume = 0.0;
        for oct in Octant::ALL {
            let child = root.octant_bounds(oct);
            let e = child.extent();
            volume += e.x * e.y * e.z;
            assert!(root.contains(child.center()));
        }
        assert_eq!(volume, 64.0);
    }

    #[test]
    fn octant_of_matches_octant_bounds() {
        let root = Aabb::new(Point3::splat(-1.0), Point3::splat(1.0));
        for oct in Octant::ALL {
            let child = root.octant_bounds(oct);
            assert_eq!(root.octant_of(child.center()), oct);
        }
    }

    #[test]
    fn octant_flags_follow_bits() {
        let o = Octant::new(0b101).unwrap();
        assert!(o.high_x());
        assert!(!o.high_y());
        assert!(o.high_z());
        assert!(Octant::new(8).is_none());
    }

    #[test]
    fn contains_is_inclusive() {
        let b = Aabb::unit();
        assert!(b.contains(Point3::ORIGIN));
        assert!(b.contains(Point3::splat(1.0)));
        assert!(!b.contains(Point3::splat(1.0001)));
    }

    #[test]
    fn intersects_touching_boxes() {
        let a = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let b = Aabb::new(Point3::splat(1.0), Point3::splat(2.0));
        let c = Aabb::new(Point3::splat(1.5), Point3::splat(2.5));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn cubified_has_equal_edges() {
        let b = Aabb::new(Point3::ORIGIN, Point3::new(4.0, 2.0, 1.0));
        let c = b.cubified();
        let e = c.extent();
        assert_eq!(e.x, 4.0);
        assert_eq!(e.y, 4.0);
        assert_eq!(e.z, 4.0);
        assert_eq!(c.center(), b.center());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_bounds_panic() {
        let _ = Aabb::new(Point3::splat(1.0), Point3::ORIGIN);
    }
}

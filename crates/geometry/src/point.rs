use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub};

/// A point (or vector) in 3-D space, stored as `f32` like the FPGA fixed/
/// floating-point datapath in the paper's prototype.
///
/// The layout is three consecutive `f32`s (`repr(C)`), so a `&[Point3]`
/// is a run of `3 * len` coordinates, x first — what the AVX-512 Morton
/// encoder loads 16 points at a time.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::Point3;
///
/// let a = Point3::new(1.0, 2.0, 3.0);
/// let b = Point3::new(1.0, 2.0, 5.0);
/// assert_eq!(a.distance(b), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Point3 {
    /// X coordinate.
    pub x: f32,
    /// Y coordinate.
    pub y: f32,
    /// Z coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin `(0, 0, 0)`.
    pub const ORIGIN: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point with all three coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Point3::new(v, v, v)
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// The samplers and gatherers compare distances, so they use the squared
    /// form to avoid the square root — exactly what the hardware datapath in
    /// §V-B does.
    #[inline]
    pub fn distance_sq(self, other: Point3) -> f32 {
        let d = self - other;
        d.x * d.x + d.y * d.y + d.z * d.z
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f32 {
        self.distance_sq(other).sqrt()
    }

    /// Euclidean norm of the vector from the origin to this point.
    #[inline]
    pub fn norm(self) -> f32 {
        self.distance(Point3::ORIGIN)
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Point3) -> f32 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product with `other`.
    #[inline]
    pub fn cross(self, other: Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Returns `true` if all coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Coordinates as a `[x, y, z]` array.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f32; 3]> for Point3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f32; 3] {
    #[inline]
    fn from(p: Point3) -> Self {
        p.to_array()
    }
}

impl From<(f32, f32, f32)> for Point3 {
    #[inline]
    fn from((x, y, z): (f32, f32, f32)) -> Self {
        Point3::new(x, y, z)
    }
}

impl Index<usize> for Point3 {
    type Output = f32;

    /// Accesses a coordinate by axis index (`0 => x`, `1 => y`, `2 => z`).
    ///
    /// # Panics
    ///
    /// Panics if `axis > 2`.
    #[inline]
    fn index(&self, axis: usize) -> &f32 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis index {axis} out of range 0..3"),
        }
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f32) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f32) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point3::new(1.0, -2.0, 0.5);
        let b = Point3::new(-3.0, 4.0, 2.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point3::new(0.0, 3.0, 4.0);
        assert_eq!(a.distance_sq(Point3::ORIGIN), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Point3::splat(3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Point3::new(1.0, 0.0, 0.0);
        let b = Point3::new(0.0, 1.0, 0.0);
        let c = a.cross(b);
        assert_eq!(c, Point3::new(0.0, 0.0, 1.0));
        assert_eq!(c.dot(a), 0.0);
        assert_eq!(c.dot(b), 0.0);
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(2.0, 3.0, -1.0);
        assert_eq!(a.min(b), Point3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Point3::new(2.0, 5.0, -1.0));
    }

    #[test]
    fn index_by_axis() {
        let a = Point3::new(7.0, 8.0, 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 8.0);
        assert_eq!(a[2], 9.0);
    }

    #[test]
    #[should_panic(expected = "axis index")]
    fn index_out_of_range_panics() {
        let _ = Point3::ORIGIN[3];
    }

    #[test]
    fn conversions_round_trip() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let arr: [f32; 3] = a.into();
        assert_eq!(Point3::from(arr), a);
        assert_eq!(Point3::from((1.0, 2.0, 3.0)), a);
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f32::INFINITY, 0.0).is_finite());
    }
}

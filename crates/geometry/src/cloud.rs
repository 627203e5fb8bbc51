use crate::{Aabb, GeometryError, Point3};

/// An owned point cloud `{(p_k, f_k)}` with optional per-point features.
///
/// Coordinates are stored as a dense `Vec<Point3>`; features as one flat
/// `Vec<f32>` of `len() * feature_dim()` values, matching how a frame sits
/// in the paper's host memory (§IV) so that the memory simulator can charge
/// realistic byte counts.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{Point3, PointCloud};
///
/// let mut cloud = PointCloud::new();
/// cloud.push(Point3::new(0.5, 0.5, 0.5));
/// cloud.push(Point3::new(0.25, 0.75, 0.1));
/// let normalized = cloud.normalized_unit_cube().unwrap();
/// assert!(normalized.iter().all(|p| hgpcn_geometry::Aabb::unit().contains(p)));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Point3>,
    features: Vec<f32>,
    feature_dim: usize,
}

impl PointCloud {
    /// Creates an empty cloud with no features.
    #[inline]
    pub fn new() -> PointCloud {
        PointCloud::default()
    }

    /// Creates an empty cloud that will carry `feature_dim` features per point.
    #[inline]
    pub fn with_feature_dim(feature_dim: usize) -> PointCloud {
        PointCloud {
            points: Vec::new(),
            features: Vec::new(),
            feature_dim,
        }
    }

    /// Creates a cloud from bare coordinates (no features).
    #[inline]
    pub fn from_points(points: Vec<Point3>) -> PointCloud {
        PointCloud {
            points,
            features: Vec::new(),
            feature_dim: 0,
        }
    }

    /// Creates a cloud from coordinates plus a flat feature buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::FeatureShape`] unless
    /// `features.len() == points.len() * feature_dim`.
    pub fn from_parts(
        points: Vec<Point3>,
        features: Vec<f32>,
        feature_dim: usize,
    ) -> Result<PointCloud, GeometryError> {
        if features.len() != points.len() * feature_dim {
            return Err(GeometryError::FeatureShape {
                points: points.len(),
                feature_dim,
                buffer_len: features.len(),
            });
        }
        Ok(PointCloud {
            points,
            features,
            feature_dim,
        })
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Per-point feature dimension (0 when the cloud carries no features).
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The coordinates as a slice.
    #[inline]
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// The flat feature buffer (`len() * feature_dim()` values).
    #[inline]
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Coordinate of the `index`-th point.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn point(&self, index: usize) -> Point3 {
        self.points[index]
    }

    /// Feature vector of the `index`-th point (empty slice if no features).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn feature(&self, index: usize) -> &[f32] {
        if self.feature_dim == 0 {
            &[]
        } else {
            &self.features[index * self.feature_dim..(index + 1) * self.feature_dim]
        }
    }

    /// Appends a point without features.
    ///
    /// # Panics
    ///
    /// Panics if the cloud carries features (`feature_dim() > 0`); use
    /// [`PointCloud::push_with_feature`] there instead.
    #[inline]
    pub fn push(&mut self, p: Point3) {
        assert_eq!(
            self.feature_dim, 0,
            "cloud carries features; use push_with_feature"
        );
        self.points.push(p);
    }

    /// Appends a point together with its feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `feature.len() != feature_dim()`.
    #[inline]
    pub fn push_with_feature(&mut self, p: Point3, feature: &[f32]) {
        assert_eq!(
            feature.len(),
            self.feature_dim,
            "feature dimension mismatch"
        );
        self.points.push(p);
        self.features.extend_from_slice(feature);
    }

    /// Iterates over the coordinates.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Point3> + '_ {
        self.points.iter().copied()
    }

    /// Tightest bounding box, or `None` for an empty cloud.
    #[inline]
    pub fn bounds(&self) -> Option<Aabb> {
        Aabb::from_points(self.iter())
    }

    /// Builds a new cloud containing the points at `indices`, carrying
    /// features along. This is exactly the "gather by Sampled-Point-Table"
    /// read-out of §V-B.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> PointCloud {
        let mut out = PointCloud::with_feature_dim(self.feature_dim);
        self.gather_into(indices, &mut out);
        out
    }

    /// Like [`PointCloud::gather`], but writes into `out`, reusing its
    /// buffers. `out` is cleared first and adopts this cloud's feature
    /// dimension; its previous contents only contribute spare capacity.
    /// Preprocessing contexts use this to gather every frame they build
    /// without a fresh allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_into(&self, indices: &[usize], out: &mut PointCloud) {
        out.points.clear();
        out.features.clear();
        out.feature_dim = self.feature_dim;
        out.points.extend(indices.iter().map(|&i| self.points[i]));
        match self.feature_dim {
            0 => {}
            // One feature per point (S3DIS, KITTI): a straight copy too.
            1 => out
                .features
                .extend(indices.iter().map(|&i| self.features[i])),
            dim => {
                out.features.reserve(indices.len() * dim);
                for &i in indices {
                    out.features
                        .extend_from_slice(&self.features[i * dim..(i + 1) * dim]);
                }
            }
        }
    }

    /// Returns a copy translated and uniformly scaled into the unit cube
    /// `[0, 1]^3` (longest frame edge maps to 1). Down-sampling methods in
    /// the paper normalize frames before sampling (§V).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyCloud`] for an empty cloud.
    pub fn normalized_unit_cube(&self) -> Result<PointCloud, GeometryError> {
        let bounds = self.bounds().ok_or(GeometryError::EmptyCloud)?;
        let cube = bounds.cubified();
        let edge = cube.extent().x;
        let scale = if edge > 0.0 { 1.0 / edge } else { 1.0 };
        let min = cube.min();
        // Clamp to absorb f32 rounding at the cube faces so callers can rely
        // on every output lying inside [0, 1]^3 exactly.
        let points = self
            .points
            .iter()
            .map(|&p| {
                ((p - min) * scale)
                    .max(Point3::ORIGIN)
                    .min(Point3::splat(1.0))
            })
            .collect();
        Ok(PointCloud {
            points,
            features: self.features.clone(),
            feature_dim: self.feature_dim,
        })
    }

    /// Validates that every coordinate is finite.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonFinitePoint`] with the index of the first
    /// offending point.
    pub fn validate_finite(&self) -> Result<(), GeometryError> {
        match self.points.iter().position(|p| !p.is_finite()) {
            Some(index) => Err(GeometryError::NonFinitePoint { index }),
            None => Ok(()),
        }
    }

    /// Centroid of the cloud (the `||S||2` "virtual summary point" used as
    /// the FPS reference in §V-B), or `None` for an empty cloud.
    pub fn centroid(&self) -> Option<Point3> {
        if self.is_empty() {
            return None;
        }
        let sum = self.iter().fold(Point3::ORIGIN, |acc, p| acc + p);
        Some(sum / self.len() as f32)
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> Self {
        PointCloud::from_points(iter.into_iter().collect())
    }
}

impl Extend<Point3> for PointCloud {
    /// Extends the cloud with bare points.
    ///
    /// # Panics
    ///
    /// Panics if the cloud carries features.
    fn extend<I: IntoIterator<Item = Point3>>(&mut self, iter: I) {
        assert_eq!(
            self.feature_dim, 0,
            "cloud carries features; use push_with_feature"
        );
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cloud() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(0.0, 4.0, 0.0),
            Point3::new(0.0, 0.0, 8.0),
        ])
    }

    #[test]
    fn from_parts_validates_shape() {
        let pts = vec![Point3::ORIGIN; 3];
        assert!(PointCloud::from_parts(pts.clone(), vec![0.0; 6], 2).is_ok());
        let err = PointCloud::from_parts(pts, vec![0.0; 5], 2).unwrap_err();
        assert!(matches!(err, GeometryError::FeatureShape { .. }));
    }

    #[test]
    fn feature_access() {
        let pts = vec![Point3::ORIGIN, Point3::splat(1.0)];
        let cloud = PointCloud::from_parts(pts, vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(cloud.feature(0), &[1.0, 2.0]);
        assert_eq!(cloud.feature(1), &[3.0, 4.0]);
        assert_eq!(cloud.feature_dim(), 2);
    }

    #[test]
    fn gather_carries_features() {
        let pts = vec![Point3::ORIGIN, Point3::splat(1.0), Point3::splat(2.0)];
        let cloud = PointCloud::from_parts(pts.clone(), vec![0.0, 1.0, 2.0], 1).unwrap();
        let g = cloud.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.point(0), Point3::splat(2.0));
        assert_eq!(g.feature(0), &[2.0]);
        assert_eq!(g.feature(1), &[0.0]);

        // Every arm of the copy, each into one `out` that last held a
        // different feature dimension (and more or fewer points).
        let indices = [2, 0, 2, 1];
        let mut out = PointCloud::with_feature_dim(2);
        for dim in [0, 1, 3, 1, 0] {
            let features = (0..pts.len() * dim).map(|v| v as f32 + 0.5).collect();
            let cloud = PointCloud::from_parts(pts.clone(), features, dim).unwrap();
            cloud.gather_into(&indices[..dim + 1], &mut out);
            assert_eq!(out.feature_dim(), dim);
            assert_eq!(out.len(), dim + 1);
            assert_eq!(out.features().len(), (dim + 1) * dim);
            for (k, &i) in indices[..dim + 1].iter().enumerate() {
                assert_eq!(out.point(k), cloud.point(i), "dim {dim}, point {k}");
                assert_eq!(out.feature(k), cloud.feature(i), "dim {dim}, point {k}");
            }
        }
    }

    #[test]
    fn normalized_fits_unit_cube() {
        let norm = sample_cloud().normalized_unit_cube().unwrap();
        let unit = Aabb::unit();
        assert!(norm.iter().all(|p| unit.contains(p)));
        // Longest axis (z, length 8) must span the full unit interval.
        let b = norm.bounds().unwrap();
        assert!((b.extent().z - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_empty_errors() {
        assert_eq!(
            PointCloud::new().normalized_unit_cube().unwrap_err(),
            GeometryError::EmptyCloud
        );
    }

    #[test]
    fn centroid_average() {
        let c = sample_cloud().centroid().unwrap();
        assert_eq!(c, Point3::new(0.5, 1.0, 2.0));
        assert!(PointCloud::new().centroid().is_none());
    }

    #[test]
    fn validate_finite_catches_nan() {
        let mut cloud = sample_cloud();
        cloud.push(Point3::new(f32::NAN, 0.0, 0.0));
        assert_eq!(
            cloud.validate_finite().unwrap_err(),
            GeometryError::NonFinitePoint { index: 4 }
        );
    }

    #[test]
    fn collect_from_iterator() {
        let cloud: PointCloud = (0..5).map(|i| Point3::splat(i as f32)).collect();
        assert_eq!(cloud.len(), 5);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn push_with_wrong_dim_panics() {
        let mut cloud = PointCloud::with_feature_dim(3);
        cloud.push_with_feature(Point3::ORIGIN, &[1.0]);
    }
}

use hgpcn_geometry::morton::MAX_LEVEL;

/// Configuration for [`crate::Octree::build`].
///
/// The paper subdivides "each non-empty voxel … until it reaches a
/// pre-defined depth" (§V-A). `leaf_capacity` additionally stops subdividing
/// once a voxel holds few enough points, which keeps trees for uniform
/// frames shallow — reproducing the non-uniformity-dependent depth of
/// Fig. 11 — while `max_depth` caps the worst case.
///
/// # Examples
///
/// ```
/// use hgpcn_octree::OctreeConfig;
///
/// let cfg = OctreeConfig::new().max_depth(8).leaf_capacity(4);
/// assert_eq!(cfg.max_depth_value(), 8);
/// assert_eq!(cfg.leaf_capacity_value(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OctreeConfig {
    pub(crate) max_depth: u8,
    pub(crate) leaf_capacity: usize,
}

impl OctreeConfig {
    /// Default configuration: depth cap 10, leaf capacity 8.
    #[inline]
    pub fn new() -> OctreeConfig {
        OctreeConfig::default()
    }

    /// Sets the depth cap (number of subdivision levels below the root).
    ///
    /// Values above the Morton-code limit are not clamped: the build
    /// refuses them with [`crate::OctreeError::DepthTooLarge`].
    #[inline]
    pub fn max_depth(mut self, depth: u8) -> OctreeConfig {
        self.max_depth = depth;
        self
    }

    /// Sets the number of points below which a voxel is kept as a leaf.
    ///
    /// A capacity of 1 subdivides until every leaf holds a single point (or
    /// the depth cap stops it).
    #[inline]
    pub fn leaf_capacity(mut self, capacity: usize) -> OctreeConfig {
        self.leaf_capacity = capacity.max(1);
        self
    }

    /// The configured depth cap.
    #[inline]
    pub fn max_depth_value(&self) -> u8 {
        self.max_depth
    }

    /// The configured leaf capacity.
    #[inline]
    pub fn leaf_capacity_value(&self) -> usize {
        self.leaf_capacity
    }

    /// Whether the depth cap fits in the 64-bit m-code.
    #[inline]
    pub fn is_supported(&self) -> bool {
        self.max_depth <= MAX_LEVEL
    }
}

impl Default for OctreeConfig {
    fn default() -> Self {
        OctreeConfig {
            max_depth: 10,
            leaf_capacity: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = OctreeConfig::new().max_depth(12).leaf_capacity(2);
        assert_eq!(cfg.max_depth_value(), 12);
        assert_eq!(cfg.leaf_capacity_value(), 2);
        assert!(cfg.is_supported());
    }

    #[test]
    fn leaf_capacity_zero_clamped_to_one() {
        assert_eq!(
            OctreeConfig::new().leaf_capacity(0).leaf_capacity_value(),
            1
        );
    }

    #[test]
    fn unsupported_depth_detected() {
        assert!(!OctreeConfig::new().max_depth(MAX_LEVEL + 1).is_supported());
    }
}

//! The per-cloud VEG index: build **once**, answer every center query.
//!
//! The traditional gather path re-derives its candidate structure on every
//! call — brute KNN rescans the whole cloud per center (the "4095
//! distances for 32 neighbors" waste of §VI). A [`VegIndex`] builds one
//! octree + SFC reorganization per cloud and answers every center of that
//! cloud from it — the paper's §VII-B amortization argument turned into
//! an API. Its answers equal the per-call [`veg::gather`] over a fresh
//! octree, mapped back to the caller's point order.

use hgpcn_geometry::PointCloud;
use hgpcn_octree::{Octree, OctreeConfig, OctreeError};

use crate::veg::{self, VegConfig};
use crate::{GatherError, GatherKernel, GatherResult};

/// The HgPCN index: one octree build + SFC reorganization per cloud, then
/// VEG shell expansion per center. Queries take and return indices in the
/// caller's original cloud order; the SFC permutation is applied
/// internally.
#[derive(Clone, Debug)]
pub struct VegIndex {
    /// SFC-ordered points; its permutation maps SFC position → caller
    /// index.
    octree: Octree,
    /// Caller index → SFC position.
    inverse: Vec<usize>,
    config: VegConfig,
    kernel: GatherKernel,
}

impl VegIndex {
    /// Builds the octree and the inverse of its permutation.
    ///
    /// # Errors
    ///
    /// * [`GatherError::EmptyCloud`] for an empty cloud;
    /// * [`GatherError::IndexBuild`] when the octree rejects the cloud
    ///   (non-finite coordinates, unsupported depth, more than `u32::MAX`
    ///   points).
    pub fn build(
        cloud: &PointCloud,
        config: VegConfig,
        octree_config: OctreeConfig,
    ) -> Result<VegIndex, GatherError> {
        let octree = Octree::build(cloud, octree_config).map_err(|e| match e {
            OctreeError::EmptyCloud => GatherError::EmptyCloud,
            other => GatherError::IndexBuild {
                reason: other.to_string(),
            },
        })?;
        let perm = octree.permutation();
        let mut inverse = vec![0usize; perm.len()];
        for (sfc, &raw) in perm.iter().enumerate() {
            inverse[raw as usize] = sfc;
        }
        Ok(VegIndex {
            octree,
            inverse,
            config,
            kernel: GatherKernel::default(),
        })
    }

    /// Pins queries from this index to a specific [`GatherKernel`]
    /// backend instead of the default ([`GatherKernel::default`]).
    /// All backends are bit-identical, so this changes host speed only
    /// — it exists so a harness can run an anchor yardstick and an
    /// optimized candidate side by side in one process.
    #[must_use]
    pub fn with_kernel(mut self, kernel: GatherKernel) -> VegIndex {
        self.kernel = kernel;
        self
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.inverse.len()
    }

    /// Returns `true` if the index covers no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers the VEG-selected `k` neighbors of `cloud[center]`, in the
    /// caller's indexing.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::knn::gather`]: see [`GatherError`].
    pub fn query(&self, center: usize, k: usize) -> Result<GatherResult, GatherError> {
        if center >= self.inverse.len() {
            return Err(GatherError::CenterOutOfRange {
                center,
                len: self.inverse.len(),
            });
        }
        let mut r = veg::gather_with(
            &self.octree,
            self.inverse[center],
            k,
            &self.config,
            self.kernel,
        )?;
        let perm = self.octree.permutation();
        for n in &mut r.neighbors {
            *n = perm[*n] as usize;
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;

    fn cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract() * 3.0,
                    (f * 0.414).fract() * 3.0,
                    (f * 0.732).fract() * 3.0,
                )
            })
            .collect()
    }

    fn build(c: &PointCloud, mode: veg::VegMode) -> Result<VegIndex, GatherError> {
        let config = VegConfig {
            mode,
            ..VegConfig::default()
        };
        VegIndex::build(c, config, OctreeConfig::default())
    }

    #[test]
    fn veg_index_matches_per_call_veg_through_fresh_octree() {
        let c = cloud(300);
        let cfg = VegConfig::default();
        let index = VegIndex::build(&c, cfg, OctreeConfig::default()).unwrap();
        assert_eq!(index.len(), 300);
        assert!(!index.is_empty());
        let octree = Octree::build(&c, OctreeConfig::default()).unwrap();
        let perm = octree.permutation();
        let mut inverse = vec![0usize; perm.len()];
        for (sfc, &raw) in perm.iter().enumerate() {
            inverse[raw as usize] = sfc;
        }
        for center in [5usize, 123, 299] {
            let a = index.query(center, 12).unwrap();
            let direct = veg::gather(&octree, inverse[center], 12, &cfg).unwrap();
            let mapped: Vec<usize> = direct.neighbors.iter().map(|&s| perm[s] as usize).collect();
            assert_eq!(a.neighbors, mapped, "center {center}");
            assert_eq!(a.counts, direct.counts);
        }
    }

    #[test]
    fn empty_cloud_is_rejected_at_build() {
        assert!(matches!(
            build(&PointCloud::new(), veg::VegMode::Paper),
            Err(GatherError::EmptyCloud)
        ));
    }

    #[test]
    fn nonfinite_cloud_fails_build_with_index_error() {
        let mut c = cloud(20);
        c.push(Point3::new(f32::NAN, 0.0, 0.0));
        assert!(matches!(
            build(&c, veg::VegMode::Paper),
            Err(GatherError::IndexBuild { .. })
        ));
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let c = cloud(30);
        for mode in [veg::VegMode::Paper, veg::VegMode::Exact] {
            let index = build(&c, mode).unwrap();
            assert!(matches!(
                index.query(99, 3),
                Err(GatherError::CenterOutOfRange { .. })
            ));
            assert!(matches!(
                index.query(0, 30),
                Err(GatherError::KTooLarge { .. })
            ));
        }
    }
}

//! Per-cloud neighbor indices: build **once**, answer every center query.
//!
//! The traditional gather path re-derives its candidate structure on every
//! call — brute KNN rescans the whole cloud per center (the "4095
//! distances for 32 neighbors" waste of §VI), and the VEG/octree path used
//! to rebuild its octree inside each `Gatherer::gather` call. A
//! [`NeighborIndex`] inverts that: one build per cloud, amortized across
//! all center queries of that cloud — the paper's §VII-B amortization
//! argument turned into an API.
//!
//! Three implementations cover the accelerator classes the paper surveys:
//!
//! * [`BruteIndex`] — no structure at all (the PointACC/GPU baselines);
//!   the "index" is the cloud itself and every query pays the full scan;
//! * [`KdTreeIndex`] — the exact tree-based class (QuickNN/Tigris);
//!   one balanced k-d tree answers all queries with backtracking;
//! * [`VegIndex`] — HgPCN's own method: one octree + SFC reorganization,
//!   then Voxel-Expanded Gathering per center.
//!
//! All three return the same [`GatherResult`] as the free-standing
//! per-call functions ([`knn::gather`], [`KdTree::knn`], [`veg::gather`]),
//! and are property-tested to produce identical neighbor sets.

use hgpcn_geometry::PointCloud;
use hgpcn_memsim::OpCounts;
use hgpcn_octree::{Octree, OctreeConfig, OctreeError};

use crate::kdtree::KdTree;
use crate::veg::{self, VegConfig};
use crate::{knn, GatherError, GatherKernel, GatherResult};

/// A neighbor index over one point cloud: built once, queried many times.
///
/// Implementations own whatever per-cloud structure they need; queries
/// are read-only and cheap to issue from any caller holding the index.
/// Query results use the **caller's** point indexing (the order of the
/// cloud the index was built from), regardless of any internal
/// reorganization.
pub trait NeighborIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Returns `true` if the index covers no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short human-readable name of the method ("brute", "kdtree", "veg").
    fn method(&self) -> &'static str;

    /// Operations spent building the index (charged once per cloud).
    fn build_counts(&self) -> OpCounts;

    /// Gathers the `k` nearest (or VEG-selected) neighbors of
    /// `cloud[center]`, in the caller's indexing.
    ///
    /// # Errors
    ///
    /// Same contract as [`knn::gather`]: see [`GatherError`].
    fn query(&self, center: usize, k: usize) -> Result<GatherResult, GatherError>;

    /// Answers every center from the same index, summing query costs.
    /// The one-time [`NeighborIndex::build_counts`] is *not* included —
    /// callers charge it once per cloud, however many query batches run.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid center.
    fn query_all(
        &self,
        centers: &[usize],
        k: usize,
    ) -> Result<(Vec<GatherResult>, OpCounts), GatherError> {
        let mut total = OpCounts::default();
        let mut out = Vec::with_capacity(centers.len());
        for &c in centers {
            let r = self.query(c, k)?;
            total += r.counts;
            out.push(r);
        }
        Ok((out, total))
    }
}

/// Which index a [`build`] call constructs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexKind {
    /// No acceleration structure: exhaustive scan per query.
    Brute,
    /// Balanced k-d tree with exact backtracking queries.
    KdTree {
        /// Points per leaf (see [`KdTree::build`]).
        leaf_capacity: usize,
    },
    /// Octree + Voxel-Expanded Gathering.
    Veg {
        /// VEG shell-selection behaviour.
        veg: VegConfig,
        /// Octree build parameters.
        octree: OctreeConfig,
    },
}

impl Default for IndexKind {
    fn default() -> Self {
        IndexKind::Veg {
            veg: VegConfig::default(),
            octree: OctreeConfig::default(),
        }
    }
}

/// Builds the neighbor index `kind` over `cloud`.
///
/// # Errors
///
/// * [`GatherError::EmptyCloud`] for an empty cloud (all kinds);
/// * [`GatherError::IndexBuild`] if the octree rejects the cloud
///   (non-finite coordinates) for [`IndexKind::Veg`].
pub fn build(cloud: &PointCloud, kind: IndexKind) -> Result<Box<dyn NeighborIndex>, GatherError> {
    if cloud.is_empty() {
        return Err(GatherError::EmptyCloud);
    }
    Ok(match kind {
        IndexKind::Brute => Box::new(BruteIndex::build(cloud)),
        IndexKind::KdTree { leaf_capacity } => Box::new(KdTreeIndex::build(cloud, leaf_capacity)),
        IndexKind::Veg { veg, octree } => Box::new(VegIndex::build(cloud, veg, octree)?),
    })
}

/// The structure-free index of the traditional baselines: queries pay the
/// full-cloud distance scan, exactly like [`knn::gather`].
#[derive(Clone, Debug)]
pub struct BruteIndex {
    cloud: PointCloud,
}

impl BruteIndex {
    /// "Builds" the index: retains an SoA copy of the cloud.
    pub fn build(cloud: &PointCloud) -> BruteIndex {
        BruteIndex {
            cloud: cloud.clone(),
        }
    }
}

impl NeighborIndex for BruteIndex {
    fn len(&self) -> usize {
        self.cloud.len()
    }

    fn method(&self) -> &'static str {
        "brute"
    }

    fn build_counts(&self) -> OpCounts {
        OpCounts::default()
    }

    fn query(&self, center: usize, k: usize) -> Result<GatherResult, GatherError> {
        knn::gather(&self.cloud, center, k)
    }
}

/// A k-d tree built once per cloud; every query is an exact backtracking
/// search identical to [`KdTree::knn`].
#[derive(Clone, Debug)]
pub struct KdTreeIndex {
    cloud: PointCloud,
    tree: KdTree,
}

impl KdTreeIndex {
    /// Builds the tree with the given leaf capacity.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_capacity == 0` (see [`KdTree::build`]).
    pub fn build(cloud: &PointCloud, leaf_capacity: usize) -> KdTreeIndex {
        KdTreeIndex {
            cloud: cloud.clone(),
            tree: KdTree::build(cloud, leaf_capacity),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }
}

impl NeighborIndex for KdTreeIndex {
    fn len(&self) -> usize {
        self.cloud.len()
    }

    fn method(&self) -> &'static str {
        "kdtree"
    }

    fn build_counts(&self) -> OpCounts {
        // One pass over the points per tree level (median partitions).
        let n = self.cloud.len() as u64;
        let levels = (n.max(1) / self.tree.leaf_capacity().max(1) as u64)
            .next_power_of_two()
            .trailing_zeros() as u64;
        OpCounts {
            mem_reads: n * (levels + 1),
            bytes_read: n * (levels + 1) * 12,
            comparisons: n * levels,
            ..OpCounts::default()
        }
    }

    fn query(&self, center: usize, k: usize) -> Result<GatherResult, GatherError> {
        self.tree.knn(&self.cloud, center, k)
    }
}

/// The HgPCN index: one octree build + SFC reorganization per cloud, then
/// VEG shell expansion per center. Queries take and return indices in the
/// caller's original cloud order; the SFC permutation is applied
/// internally.
#[derive(Clone, Debug)]
pub struct VegIndex {
    octree: Octree,
    /// SFC position → caller index.
    perm: Vec<usize>,
    /// Caller index → SFC position.
    inverse: Vec<usize>,
    config: VegConfig,
    kernel: GatherKernel,
}

impl VegIndex {
    /// Builds the octree and both permutations.
    ///
    /// # Errors
    ///
    /// * [`GatherError::EmptyCloud`] for an empty cloud;
    /// * [`GatherError::IndexBuild`] when the octree rejects the cloud
    ///   (non-finite coordinates, unsupported depth).
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
        let perm = octree.permutation().to_vec();
        let mut inverse = vec![0usize; perm.len()];
        for (sfc, &raw) in perm.iter().enumerate() {
            inverse[raw] = sfc;
        }
        Ok(VegIndex {
            octree,
            perm,
            inverse,
            config,
            kernel: GatherKernel::default(),
        })
    }

    /// Pins queries from this index to a specific [`GatherKernel`]
    /// backend instead of the default ([`GatherKernel::default`]).
    /// All backends are bit-identical, so this changes host speed only
    /// — it exists so a harness (or a runtime honoring a per-run
    /// `stage_backends` override) can run an anchor yardstick and an
    /// optimized candidate side by side in one process.
    #[must_use]
    pub fn with_kernel(mut self, kernel: GatherKernel) -> VegIndex {
        self.kernel = kernel;
        self
    }

    /// The underlying octree (SFC-ordered points inside).
    pub fn octree(&self) -> &Octree {
        &self.octree
    }

    /// The VEG configuration queries run with.
    pub fn config(&self) -> &VegConfig {
        &self.config
    }

    /// The top-K selection backend queries dispatch to.
    pub fn kernel(&self) -> GatherKernel {
        self.kernel
    }
}

impl NeighborIndex for VegIndex {
    fn len(&self) -> usize {
        self.perm.len()
    }

    fn method(&self) -> &'static str {
        "veg"
    }

    fn build_counts(&self) -> OpCounts {
        let s = self.octree.build_stats();
        OpCounts {
            mem_reads: s.point_reads as u64,
            mem_writes: s.point_writes as u64,
            bytes_read: s.point_reads as u64 * 12,
            bytes_written: s.point_writes as u64 * 12,
            table_lookups: s.nodes_created as u64,
            ..OpCounts::default()
        }
    }

    fn query(&self, center: usize, k: usize) -> Result<GatherResult, GatherError> {
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
        for n in &mut r.neighbors {
            *n = self.perm[*n];
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

    fn kinds() -> Vec<IndexKind> {
        vec![
            IndexKind::Brute,
            IndexKind::KdTree { leaf_capacity: 8 },
            IndexKind::default(),
            IndexKind::Veg {
                veg: VegConfig {
                    gather_level: None,
                    mode: veg::VegMode::Exact,
                },
                octree: OctreeConfig::default(),
            },
        ]
    }

    #[test]
    fn every_kind_answers_all_centers_from_one_build() {
        let c = cloud(400);
        for kind in kinds() {
            let index = build(&c, kind).unwrap();
            assert_eq!(index.len(), 400);
            assert!(!index.is_empty());
            let centers: Vec<usize> = vec![0, 13, 200, 399];
            let (results, total) = index.query_all(&centers, 9).unwrap();
            assert_eq!(results.len(), 4, "{}", index.method());
            for (r, &ctr) in results.iter().zip(&centers) {
                assert_eq!(r.len(), 9, "{}", index.method());
                assert!(!r.neighbors.contains(&ctr), "{}", index.method());
                assert!(r.neighbors.iter().all(|&i| i < 400));
            }
            let sum: u64 = results.iter().map(|r| r.counts.distance_computations).sum();
            assert_eq!(total.distance_computations, sum);
        }
    }

    #[test]
    fn brute_index_matches_per_call_gather_exactly() {
        let c = cloud(250);
        let index = BruteIndex::build(&c);
        for center in [0usize, 50, 249] {
            let a = index.query(center, 7).unwrap();
            let b = knn::gather(&c, center, 7).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(index.build_counts(), OpCounts::default());
    }

    #[test]
    fn veg_index_matches_per_call_veg_through_fresh_octree() {
        let c = cloud(300);
        let cfg = VegConfig::default();
        let index = VegIndex::build(&c, cfg, OctreeConfig::default()).unwrap();
        let octree = Octree::build(&c, OctreeConfig::default()).unwrap();
        let perm = octree.permutation();
        let mut inverse = vec![0usize; perm.len()];
        for (sfc, &raw) in perm.iter().enumerate() {
            inverse[raw] = sfc;
        }
        for center in [5usize, 123, 299] {
            let a = index.query(center, 12).unwrap();
            let direct = veg::gather(&octree, inverse[center], 12, &cfg).unwrap();
            let mapped: Vec<usize> = direct.neighbors.iter().map(|&s| perm[s]).collect();
            assert_eq!(a.neighbors, mapped, "center {center}");
            assert_eq!(a.counts, direct.counts);
        }
        let built = index.build_counts();
        assert_eq!(built.mem_writes, 300, "one reorganized write per point");
        assert_eq!(built.table_lookups, octree.node_count() as u64);
    }

    #[test]
    fn kdtree_index_matches_brute_distances() {
        let c = cloud(300);
        let index = KdTreeIndex::build(&c, 8);
        let ctr = 150;
        let a = index.query(ctr, 10).unwrap();
        let b = knn::gather(&c, ctr, 10).unwrap();
        let p = c.point(ctr);
        let da: Vec<u32> = a
            .neighbors
            .iter()
            .map(|&i| c.point(i).distance_sq(p).to_bits())
            .collect();
        let db: Vec<u32> = b
            .neighbors
            .iter()
            .map(|&i| c.point(i).distance_sq(p).to_bits())
            .collect();
        assert_eq!(da, db);
        assert!(index.build_counts().mem_reads > 0);
        assert_eq!(index.tree().leaf_capacity(), 8);
    }

    #[test]
    fn empty_cloud_is_rejected_at_build() {
        let empty = PointCloud::new();
        for kind in [IndexKind::Brute, IndexKind::default()] {
            assert!(matches!(build(&empty, kind), Err(GatherError::EmptyCloud)));
        }
    }

    #[test]
    fn nonfinite_cloud_fails_veg_build_with_index_error() {
        let mut c = cloud(20);
        c.push(Point3::new(f32::NAN, 0.0, 0.0));
        assert!(matches!(
            build(&c, IndexKind::default()),
            Err(GatherError::IndexBuild { .. })
        ));
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let c = cloud(30);
        for kind in kinds() {
            let index = build(&c, kind).unwrap();
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

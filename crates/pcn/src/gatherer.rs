use hgpcn_geometry::PointCloud;
use hgpcn_memsim::OpCounts;

use crate::PcnError;

/// The pluggable data-structuring step of the inference phase.
///
/// Implementations return, for each central point, the indices of its `k`
/// gathered neighbors, and tally the operations spent. The HgPCN Inference
/// Engine plugs a VEG-backed gatherer here; the baselines plug brute-force
/// KNN — everything downstream (feature computation) is identical, which
/// is exactly the paper's architecture (Fig. 8: DSU feeds a commercial
/// DLA).
pub trait Gatherer {
    /// Gathers `k` neighbors for each of `centers` within `cloud`.
    ///
    /// # Errors
    ///
    /// Returns [`PcnError::Gather`] when the underlying method rejects the
    /// inputs (e.g. `k` too large for the cloud).
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError>;

    /// Operations spent by all [`Gatherer::gather`] calls so far.
    fn counts(&self) -> OpCounts;
}

/// Brute-force KNN gathering: the traditional method used by the CPU/GPU
/// baselines and (conceptually) by PointACC's full-cloud Mapping Unit.
#[derive(Debug, Default)]
pub struct BruteKnnGatherer {
    counts: OpCounts,
}

impl BruteKnnGatherer {
    /// Creates a gatherer with zeroed counters.
    pub fn new() -> BruteKnnGatherer {
        BruteKnnGatherer::default()
    }
}

impl Gatherer for BruteKnnGatherer {
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError> {
        let (results, total) = hgpcn_gather::knn::gather_all(cloud, centers, k)?;
        self.counts += total;
        Ok(results.into_iter().map(|r| r.neighbors).collect())
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;

    #[test]
    fn brute_gatherer_collects_counts() {
        let cloud: PointCloud = (0..20).map(|i| Point3::splat(i as f32)).collect();
        let mut g = BruteKnnGatherer::new();
        let sets = g.gather(&cloud, &[5, 10], 3).unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 3);
        assert!(g.counts().distance_computations > 0);
    }

    #[test]
    fn propagates_gather_errors() {
        let cloud: PointCloud = (0..3).map(|i| Point3::splat(i as f32)).collect();
        let mut g = BruteKnnGatherer::new();
        assert!(matches!(
            g.gather(&cloud, &[0], 5),
            Err(PcnError::Gather(_))
        ));
    }
}

use hgpcn_gather::veg::VegConfig;
use hgpcn_gather::{GatherKernel, GatherResult, VegIndex};
use hgpcn_geometry::PointCloud;
use hgpcn_memsim::OpCounts;
use hgpcn_octree::OctreeConfig;
use hgpcn_pcn::{Gatherer, PcnError};

/// The VEG-backed [`Gatherer`]: the Data Structuring Unit's algorithmic
/// half, pluggable into the PointNet++ forward pass.
///
/// PointNet++ gathers at several hierarchy levels (the down-sampled input,
/// then each set-abstraction level), so the gatherer builds one
/// [`VegIndex`] per level it is handed — octree + SFC permutations built
/// **once**, every center of the level answered from it. The octree build
/// for the *input* level conceptually reuses the pre-processing octree
/// (the paper's amortization argument, §VII-B); the build operations are
/// not charged to the query counts, matching that amortization.
#[derive(Debug)]
pub struct VegGatherer {
    config: VegConfig,
    octree_config: OctreeConfig,
    kernel: GatherKernel,
    counts: OpCounts,
    results: Vec<GatherResult>,
}

impl VegGatherer {
    /// Creates a gatherer with the given VEG behaviour, dispatching
    /// top-K selection to the default [`GatherKernel`] backend.
    pub fn new(config: VegConfig) -> VegGatherer {
        VegGatherer {
            config,
            octree_config: OctreeConfig::default(),
            kernel: GatherKernel::default(),
            counts: OpCounts::default(),
            results: Vec::new(),
        }
    }

    /// Pins the top-K selection backend for every index this gatherer
    /// builds, overriding the default. All backends are
    /// bit-identical, so this is a host-speed knob only — the inference
    /// engine uses it to apply a `StageBackends` selection.
    #[must_use]
    pub fn with_kernel(mut self, kernel: GatherKernel) -> VegGatherer {
        self.kernel = kernel;
        self
    }

    /// All per-center gather results so far (the DSU pipeline model
    /// consumes their [`hgpcn_gather::VegStats`]).
    pub fn results(&self) -> &[GatherResult] {
        &self.results
    }
}

impl Default for VegGatherer {
    fn default() -> Self {
        VegGatherer::new(VegConfig::default())
    }
}

impl Gatherer for VegGatherer {
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError> {
        // One index build for this level; the index translates between
        // the caller's order and SFC order internally.
        let index =
            VegIndex::build(cloud, self.config, self.octree_config)?.with_kernel(self.kernel);
        let mut out = Vec::with_capacity(centers.len());
        for &c in centers {
            let r = index.query(c, k)?;
            self.counts += r.counts;
            out.push(r.neighbors.clone());
            self.results.push(r);
        }
        Ok(out)
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;
    use hgpcn_pcn::BruteKnnGatherer;

    fn cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect()
    }

    #[test]
    fn returns_indices_in_caller_order() {
        let c = cloud(300);
        let mut g = VegGatherer::default();
        let sets = g.gather(&c, &[5, 100], 8).unwrap();
        assert_eq!(sets.len(), 2);
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), 8);
            assert!(set.iter().all(|&x| x < 300));
            let center = [5usize, 100][i];
            assert!(
                !set.contains(&center),
                "center must not be its own neighbor"
            );
        }
        assert_eq!(g.results().len(), 2);
        assert!(g.counts().table_lookups > 0);
    }

    #[test]
    fn exact_mode_matches_brute_knn_through_the_trait() {
        let c = cloud(400);
        let mut veg = VegGatherer::new(VegConfig {
            gather_level: None,
            mode: hgpcn_gather::veg::VegMode::Exact,
        });
        let mut brute = BruteKnnGatherer::new();
        let centers = [0usize, 17, 200, 399];
        let a = veg.gather(&c, &centers, 10).unwrap();
        let b = brute.gather(&c, &centers, 10).unwrap();
        for (x, y) in a.iter().zip(&b) {
            let mut x = x.clone();
            let mut y = y.clone();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn sorts_fewer_candidates_than_brute_force() {
        let c = cloud(1000);
        let mut g = VegGatherer::default();
        let _ = g.gather(&c, &[500], 32).unwrap();
        let stats = g.results()[0].stats;
        assert!(stats.candidates_sorted < 999);
    }
}

//! The paper's §VIII future-work directions, made measurable:
//!
//! * **Approximate OIS-based FPS** — stop the octree search near the leaf
//!   level and take a spatially adjacent substitute. The trade-off is
//!   sampling latency vs coverage quality.
//! * **Semi-approximate VEG** — skip the final-shell sort and take
//!   adjacent substitutes. The trade-off is data-structuring latency vs
//!   neighbor recall (and it needs no training adaptation, unlike fully
//!   approximate methods).

use hgpcn_gather::veg::{self, VegConfig, VegMode};
use hgpcn_gather::{dsu::DataStructuringUnit, knn};
use hgpcn_geometry::PointCloud;
use hgpcn_memsim::{HostMemory, Latency};
use hgpcn_octree::{Octree, OctreeTable};
use hgpcn_sampling::{ois, quality};

use crate::{PreprocessingEngine, SystemError};

/// One row of the approximate-OIS trade-off study.
#[derive(Clone, Debug)]
pub struct ApproxOisRow {
    /// Levels above the leaves where the exact search stops (0 = exact).
    pub stop_levels: u8,
    /// Modeled latency on the Down-sampling Unit.
    pub hw_latency: Latency,
    /// Coverage radius of the sample (lower is better).
    pub coverage: f32,
}

/// Runs exact OIS and the approximate variant at several stop levels over
/// `frame`, reporting latency vs coverage.
///
/// # Errors
///
/// Propagates octree/sampling failures.
pub fn approx_ois_tradeoff(
    frame: &PointCloud,
    k: usize,
    seed: u64,
    stop_levels: &[u8],
) -> Result<Vec<ApproxOisRow>, SystemError> {
    let engine = PreprocessingEngine::prototype();
    let octree = Octree::build(frame, engine.octree_config)?;
    let table = OctreeTable::from_octree(&octree);
    let mut rows = Vec::new();

    let mut mem = HostMemory::from_cloud(octree.points());
    let exact = ois::sample(&octree, &table, &mut mem, k, seed)?;
    rows.push(ApproxOisRow {
        stop_levels: 0,
        hw_latency: engine.unit.latency(&exact.counts),
        coverage: quality::coverage_radius(octree.points(), &exact.indices),
    });

    for &stop in stop_levels {
        let mut mem = HostMemory::from_cloud(octree.points());
        let r = ois::approx_sample(&octree, &table, &mut mem, k, seed, stop)?;
        rows.push(ApproxOisRow {
            stop_levels: stop,
            hw_latency: engine.unit.latency(&r.counts),
            coverage: quality::coverage_radius(octree.points(), &r.indices),
        });
    }
    Ok(rows)
}

/// One row of the semi-approximate-VEG trade-off study.
#[derive(Clone, Debug)]
pub struct SemiVegRow {
    /// Mode label (`"paper"` / `"semi-approx"` / `"exact"`).
    pub mode: &'static str,
    /// Modeled DSU pipeline latency for the batch of gathers.
    pub dsu_latency: Latency,
    /// Mean recall of the gathered sets against brute-force KNN.
    pub mean_recall: f64,
    /// Final-shell candidates sorted across the batch.
    pub candidates_sorted: u64,
}

/// Gathers `k` neighbors for `centers` over `cloud` under the three VEG
/// modes and compares DSU latency, sort workload and recall.
///
/// # Errors
///
/// Propagates octree/gather failures.
pub fn semi_veg_tradeoff(
    cloud: &PointCloud,
    centers: &[usize],
    k: usize,
) -> Result<Vec<SemiVegRow>, SystemError> {
    let octree = Octree::build(cloud, hgpcn_octree::OctreeConfig::default())?;
    let dsu = DataStructuringUnit::prototype();
    // Brute-force reference in SFC index space.
    let perm = octree.permutation();
    let mut inverse = vec![0usize; perm.len()];
    for (sfc, &raw) in perm.iter().enumerate() {
        inverse[raw as usize] = sfc;
    }
    let sfc_centers: Vec<usize> = centers.iter().map(|&c| inverse[c]).collect();
    let reference: Vec<Vec<usize>> = sfc_centers
        .iter()
        .map(|&c| knn::gather(octree.points(), c, k).map(|r| r.neighbors))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    for (label, mode) in [
        ("exact", VegMode::Exact),
        ("paper", VegMode::Paper),
        ("semi-approx", VegMode::SemiApprox),
    ] {
        let cfg = VegConfig {
            gather_level: None,
            mode,
        };
        let (results, _) = veg::gather_all(&octree, &sfc_centers, k, &cfg)?;
        let (_, latency) = dsu.run(&results, k);
        let mean_recall = results
            .iter()
            .zip(&reference)
            .map(|(r, reference)| r.recall_against(reference))
            .sum::<f64>()
            / results.len().max(1) as f64;
        let candidates_sorted = results
            .iter()
            .map(|r| r.stats.candidates_sorted as u64)
            .sum();
        rows.push(SemiVegRow {
            mode: label,
            dsu_latency: latency,
            mean_recall,
            candidates_sorted,
        });
    }
    Ok(rows)
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
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect()
    }

    #[test]
    fn approx_ois_trades_quality_for_speed() {
        let frame = cloud(5000);
        let rows = approx_ois_tradeoff(&frame, 128, 3, &[4]).unwrap();
        assert_eq!(rows.len(), 2);
        let exact = &rows[0];
        let approx = &rows[1];
        assert!(
            approx.hw_latency <= exact.hw_latency,
            "approx must not be slower"
        );
        // Quality can only degrade (allow a small tolerance for ties).
        assert!(approx.coverage >= exact.coverage * 0.95);
    }

    #[test]
    fn semi_veg_kills_the_sort_and_keeps_most_recall() {
        let c = cloud(2000);
        let centers: Vec<usize> = (0..32).map(|i| i * 60).collect();
        let rows = semi_veg_tradeoff(&c, &centers, 16).unwrap();
        let exact = rows.iter().find(|r| r.mode == "exact").unwrap();
        let paper = rows.iter().find(|r| r.mode == "paper").unwrap();
        let semi = rows.iter().find(|r| r.mode == "semi-approx").unwrap();
        assert!(exact.mean_recall > 0.999);
        assert_eq!(semi.candidates_sorted, 0);
        assert!(semi.dsu_latency <= paper.dsu_latency);
        // "Most of the gathered points are accurate" (§VIII).
        assert!(semi.mean_recall > 0.6, "semi recall {}", semi.mean_recall);
        assert!(paper.mean_recall >= semi.mean_recall);
    }
}

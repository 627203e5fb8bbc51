//! Voxel-Expanded Gathering (VEG) — the paper's data-structuring method
//! (§VI, Fig. 8).
//!
//! For each central point, VEG locates the voxel containing it, then
//! expands voxel shells outward (shell 1 = the 26 touching voxels, shell 2
//! the next ring, …) until the expanded region holds at least K points.
//! Points from the seed voxel and inner shells are gathered **for free** —
//! no distances, no sorting — and only the final shell's candidates are
//! distance-sorted to select the remainder. Against a traditional gatherer
//! that sorts the entire input cloud per central point, the sorted
//! workload drops from `n − 1` to `N_n` (Fig. 15).
//!
//! Three modes are provided:
//!
//! * [`VegMode::Paper`] — exactly the shell rule of §VI (inner shells
//!   taken wholesale). Near-exact in practice; its recall against brute
//!   KNN is measured in this module's tests (`paper_mode_has_high_recall`)
//!   and end to end in `tests/equivalence.rs`.
//! * [`VegMode::Exact`] — keeps expanding until the K-th candidate
//!   distance is provably inside the covered region, then sorts all
//!   candidates: bit-identical neighbor sets to brute-force KNN, at the
//!   cost of a somewhat larger sort.
//! * [`VegMode::SemiApprox`] — the §VIII future-work variant: the final
//!   shell's remainder is picked without sorting (spatially adjacent
//!   substitutes), eliminating the sort workload entirely.

use hgpcn_memsim::OpCounts;
use hgpcn_octree::{neighbor, Octree};

use crate::{sorter, GatherError, GatherKernel, GatherResult, VegStats};

/// Neighbor-selection behaviour of the final shell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VegMode {
    /// The paper's rule: inner shells wholesale, sort only the final shell.
    Paper,
    /// Expand until provably exact, sort all candidates (matches brute KNN).
    Exact,
    /// Semi-approximate (§VIII): no sorting; the final-shell remainder is
    /// taken in deterministic voxel order.
    SemiApprox,
}

/// Configuration of a VEG run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VegConfig {
    /// Octree level at which voxel shells are expanded. `None` picks, per
    /// central point, the deepest ancestor voxel holding ≤ K points (the
    /// LV stage's adaptive walk).
    pub gather_level: Option<u8>,
    /// Selection mode for the final shell.
    pub mode: VegMode,
}

impl Default for VegConfig {
    fn default() -> Self {
        VegConfig {
            gather_level: None,
            mode: VegMode::Paper,
        }
    }
}

fn validate(octree: &Octree, center: usize, k: usize) -> Result<(), GatherError> {
    let n = octree.points().len();
    if n == 0 {
        return Err(GatherError::EmptyCloud);
    }
    if center >= n {
        return Err(GatherError::CenterOutOfRange { center, len: n });
    }
    if k > n - 1 {
        return Err(GatherError::KTooLarge {
            k,
            available: n - 1,
        });
    }
    Ok(())
}

/// Gathers the K neighbors of the point at SFC address `center` using VEG.
///
/// `octree` is the tree built during pre-processing — VEG reuses it, which
/// is how HgPCN amortizes the build overhead across both phases (§VII-B).
///
/// # Errors
///
/// See [`GatherError`] for the rejected inputs.
pub fn gather(
    octree: &Octree,
    center: usize,
    k: usize,
    config: &VegConfig,
) -> Result<GatherResult, GatherError> {
    gather_with(octree, center, k, config, GatherKernel::default())
}

/// [`gather`] on a specific [`GatherKernel`] backend instead of the
/// default ([`GatherKernel::default`]). The kernel only changes how
/// the final shell's candidates are *selected on the host* — neighbor
/// sets, modeled counts and [`VegStats`] are bit-identical across
/// backends.
///
/// # Errors
///
/// See [`GatherError`] for the rejected inputs.
pub fn gather_with(
    octree: &Octree,
    center: usize,
    k: usize,
    config: &VegConfig,
    kernel: GatherKernel,
) -> Result<GatherResult, GatherError> {
    validate(octree, center, k)?;
    let mut counts = OpCounts::default();
    let mut stats = VegStats::default();

    // FP: fetch the central point and its m-code.
    let center_code = octree.point_code(center);
    let center_point = octree.points().point(center);
    counts.mem_reads += 1;
    counts.bytes_read += 12;

    // LV: locate the gather-level voxel containing the center.
    let max_depth = octree.config().max_depth_value();
    let level = match config.gather_level {
        Some(l) => l.min(max_depth),
        None => {
            // Descend until the seed voxel holds at most ~K/4 points: tight
            // enough that the wholesale inner shells stay genuinely near
            // the center, coarse enough that a couple of expansions cover K.
            let target = (k / 4).max(1);
            let mut l = 1u8;
            while l < max_depth {
                stats.locate_lookups += 1;
                counts.table_lookups += 1;
                if octree.voxel_point_count(center_code.ancestor_at(l)) <= target {
                    break;
                }
                l += 1;
            }
            l
        }
    };
    let seed = center_code.ancestor_at(level);

    // VE: expand shells until the covered voxels hold ≥ k points
    // (excluding the center itself).
    let max_shell = neighbor::max_shell(seed);
    let mut shell_ranges: Vec<Vec<std::ops::Range<usize>>> = Vec::new();
    let mut covered = 0usize; // points covered, excluding the center
    let mut shell = 0u32;
    loop {
        let codes = if shell == 0 {
            vec![seed]
        } else {
            neighbor::shell_codes(seed, shell)
        };
        let mut ranges = Vec::new();
        for code in codes {
            stats.expand_lookups += 1;
            counts.table_lookups += 1;
            let range = octree.voxel_range(code);
            if !range.is_empty() {
                covered += range.len();
                if shell == 0 {
                    covered -= 1; // the center sits in the seed voxel
                }
                ranges.push(range);
            }
        }
        shell_ranges.push(ranges);
        if covered >= k || shell >= max_shell {
            break;
        }
        shell += 1;
    }
    stats.shells_expanded = shell;

    // Voxel edge at the gather level (for the exactness guarantee).
    let root_edge = octree.root_bounds().extent().x;
    let voxel_edge = root_edge / (1u64 << level) as f32;

    let collect = |ranges: &[std::ops::Range<usize>]| -> Vec<usize> {
        ranges
            .iter()
            .flat_map(|r| r.clone())
            .filter(|&i| i != center)
            .collect()
    };

    let neighbors = match config.mode {
        VegMode::Paper | VegMode::SemiApprox => {
            // GP: gather the seed voxel and inner shells for free.
            let mut free: Vec<usize> = Vec::with_capacity(k);
            for ranges in &shell_ranges[..shell_ranges.len().saturating_sub(1)] {
                free.extend(collect(ranges));
            }
            let last = collect(shell_ranges.last().expect("at least the seed shell"));
            free.truncate(k);
            let need = k - free.len();
            counts.mem_reads += last.len() as u64; // read final-shell candidates
            counts.bytes_read += last.len() as u64 * 12;
            match config.mode {
                VegMode::Paper => {
                    // ST: sort only the final shell.
                    stats.candidates_sorted = last.len();
                    counts.distance_computations += last.len() as u64;
                    counts.comparisons += sorter::comparator_count(last.len());
                    let mut scored: Vec<(f32, usize)> = last
                        .into_iter()
                        .map(|i| (octree.points().point(i).distance_sq(center_point), i))
                        .collect();
                    kernel.top_k(&mut scored, need);
                    free.extend(scored.into_iter().map(|(_, i)| i));
                    free
                }
                VegMode::SemiApprox => {
                    // §VIII: skip the sort; take the first `need` in voxel
                    // (SFC) order — spatially adjacent substitutes.
                    stats.candidates_sorted = 0;
                    free.extend(last.into_iter().take(need));
                    free
                }
                VegMode::Exact => unreachable!(),
            }
        }
        VegMode::Exact => {
            // Keep expanding until the k-th best distance is provably
            // within the covered region, then sort everything gathered.
            let mut candidates: Vec<usize> =
                shell_ranges.iter().flat_map(|rs| collect(rs)).collect();
            loop {
                let mut scored: Vec<(f32, usize)> = candidates
                    .iter()
                    .map(|&i| (octree.points().point(i).distance_sq(center_point), i))
                    .collect();
                // Only the K nearest are ever consumed (the K-th distance
                // for the exactness test, the first K as the answer), so
                // the kernel may partition instead of fully sorting.
                kernel.top_k(&mut scored, k);
                let kth = scored[k - 1].0.sqrt();
                // Any unexplored point is at Euclidean distance
                // >= shell * voxel_edge from the center.
                if kth <= shell as f32 * voxel_edge || shell >= max_shell {
                    stats.candidates_sorted = candidates.len();
                    counts.mem_reads += candidates.len() as u64;
                    counts.bytes_read += candidates.len() as u64 * 12;
                    counts.distance_computations += candidates.len() as u64;
                    counts.comparisons += sorter::comparator_count(candidates.len());
                    break scored.into_iter().map(|(_, i)| i).collect();
                }
                shell += 1;
                stats.shells_expanded = shell;
                for code in neighbor::shell_codes(seed, shell) {
                    stats.expand_lookups += 1;
                    counts.table_lookups += 1;
                    let range = octree.voxel_range(code);
                    candidates.extend(range.filter(|&i| i != center));
                }
            }
        }
    };

    debug_assert_eq!(neighbors.len(), k);
    // BF: write the K gathered records to the FCU input buffer.
    counts.mem_writes += k as u64;
    counts.bytes_written += (k as u64) * 12;
    Ok(GatherResult {
        neighbors,
        counts,
        stats,
    })
}

/// VEG for a batch of central points, summing costs and statistics.
///
/// # Errors
///
/// Fails on the first invalid center.
pub fn gather_all(
    octree: &Octree,
    centers: &[usize],
    k: usize,
    config: &VegConfig,
) -> Result<(Vec<GatherResult>, OpCounts), GatherError> {
    let mut total = OpCounts::default();
    let mut out = Vec::with_capacity(centers.len());
    for &c in centers {
        let r = gather(octree, c, k, config)?;
        total += r.counts;
        out.push(r);
    }
    Ok((out, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn;
    use hgpcn_geometry::{Point3, PointCloud};
    use hgpcn_octree::OctreeConfig;

    fn setup(n: usize) -> Octree {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.6180339).fract() * 4.0,
                    (f * 0.4142135).fract() * 4.0,
                    (f * 0.7320508).fract() * 4.0,
                )
            })
            .collect();
        Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(4)).unwrap()
    }

    #[test]
    fn gathers_k_unique_neighbors_excluding_center() {
        let tree = setup(500);
        for mode in [VegMode::Paper, VegMode::Exact, VegMode::SemiApprox] {
            let cfg = VegConfig {
                gather_level: None,
                mode,
            };
            let r = gather(&tree, 42, 16, &cfg).unwrap();
            assert_eq!(r.len(), 16, "{mode:?}");
            assert!(!r.neighbors.contains(&42), "{mode:?}");
            let set: std::collections::HashSet<_> = r.neighbors.iter().collect();
            assert_eq!(set.len(), 16, "{mode:?} produced duplicates");
        }
    }

    #[test]
    fn exact_mode_matches_brute_knn() {
        let tree = setup(400);
        let cfg = VegConfig {
            gather_level: None,
            mode: VegMode::Exact,
        };
        for center in [0usize, 57, 123, 399] {
            let veg = gather(&tree, center, 12, &cfg).unwrap();
            let brute = knn::gather(tree.points(), center, 12).unwrap();
            let mut a = veg.neighbors.clone();
            let mut b = brute.neighbors.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "center {center}");
        }
    }

    #[test]
    fn paper_mode_has_high_recall() {
        let tree = setup(800);
        let cfg = VegConfig::default();
        let mut total_recall = 0.0;
        let centers = [3usize, 99, 250, 444, 700];
        for &center in &centers {
            let veg = gather(&tree, center, 16, &cfg).unwrap();
            let brute = knn::gather(tree.points(), center, 16).unwrap();
            total_recall += veg.recall_against(&brute.neighbors);
        }
        let mean = total_recall / centers.len() as f64;
        assert!(
            mean >= 0.8,
            "mean recall {mean} too low for the paper's shell rule"
        );
    }

    #[test]
    fn sorts_far_fewer_candidates_than_full_cloud() {
        let tree = setup(1000);
        let cfg = VegConfig::default();
        let r = gather(&tree, 500, 32, &cfg).unwrap();
        // The Fig. 15 claim: workload fundamentally below the full cloud.
        assert!(
            r.stats.candidates_sorted < 500,
            "sorted {} of 999 candidates",
            r.stats.candidates_sorted
        );
        assert!(r.counts.distance_computations < 999);
    }

    #[test]
    fn semi_approx_skips_the_sort() {
        let tree = setup(600);
        let cfg = VegConfig {
            gather_level: None,
            mode: VegMode::SemiApprox,
        };
        let r = gather(&tree, 100, 24, &cfg).unwrap();
        assert_eq!(r.stats.candidates_sorted, 0);
        assert_eq!(r.counts.comparisons, 0);
        assert_eq!(r.len(), 24);
    }

    #[test]
    fn fixed_gather_level_is_respected() {
        let tree = setup(500);
        let cfg = VegConfig {
            gather_level: Some(2),
            mode: VegMode::Paper,
        };
        let r = gather(&tree, 10, 8, &cfg).unwrap();
        assert_eq!(r.stats.locate_lookups, 0, "fixed level skips the LV walk");
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let tree = setup(50);
        let cfg = VegConfig::default();
        assert!(matches!(
            gather(&tree, 99, 4, &cfg),
            Err(GatherError::CenterOutOfRange { .. })
        ));
        assert!(matches!(
            gather(&tree, 0, 50, &cfg),
            Err(GatherError::KTooLarge { .. })
        ));
    }

    #[test]
    fn batch_aggregates_counts() {
        let tree = setup(300);
        let cfg = VegConfig::default();
        let (results, total) = gather_all(&tree, &[1, 2, 3], 8, &cfg).unwrap();
        assert_eq!(results.len(), 3);
        let sum: u64 = results.iter().map(|r| r.counts.table_lookups).sum();
        assert_eq!(total.table_lookups, sum);
    }

    #[test]
    fn gather_kernels_are_bit_identical() {
        let tree = setup(700);
        for mode in [VegMode::Paper, VegMode::Exact, VegMode::SemiApprox] {
            let cfg = VegConfig {
                gather_level: None,
                mode,
            };
            for center in [0usize, 42, 356, 699] {
                let a = gather_with(&tree, center, 24, &cfg, GatherKernel::Scalar).unwrap();
                let b = gather_with(&tree, center, 24, &cfg, GatherKernel::Blocked).unwrap();
                assert_eq!(a, b, "{mode:?} center {center}");
            }
        }
    }

    #[test]
    fn can_gather_near_whole_cloud() {
        let tree = setup(40);
        let cfg = VegConfig::default();
        let r = gather(&tree, 0, 39, &cfg).unwrap();
        assert_eq!(r.len(), 39);
        let set: std::collections::HashSet<_> = r.neighbors.iter().collect();
        assert_eq!(set.len(), 39);
    }
}

//! Brute-force K-nearest-neighbors: the traditional data-structuring
//! method (§II-A) and the core of the PointACC/GPU baselines.
//!
//! For every central point it computes the distance to every other input
//! point and selects the K smallest — the "4095 distances for 32
//! neighbors" waste the paper quantifies in §VI.

use hgpcn_geometry::PointCloud;
use hgpcn_memsim::OpCounts;

use crate::{sorter, GatherError, GatherKernel, GatherResult};

fn validate(cloud: &PointCloud, center: usize, k: usize) -> Result<(), GatherError> {
    if cloud.is_empty() {
        return Err(GatherError::EmptyCloud);
    }
    if center >= cloud.len() {
        return Err(GatherError::CenterOutOfRange {
            center,
            len: cloud.len(),
        });
    }
    if k > cloud.len() - 1 {
        return Err(GatherError::KTooLarge {
            k,
            available: cloud.len() - 1,
        });
    }
    Ok(())
}

/// Gathers the `k` nearest neighbors of `cloud[center]` by exhaustive
/// search, charging the full-cloud distance pass plus a hardware bitonic
/// sort over all candidates (how PointACC's Mapping Unit prices it).
///
/// Ties are broken by index, so results are deterministic.
///
/// # Errors
///
/// See [`GatherError`] for the rejected inputs.
pub fn gather(cloud: &PointCloud, center: usize, k: usize) -> Result<GatherResult, GatherError> {
    gather_with(cloud, center, k, GatherKernel::default())
}

/// [`gather`] on a specific [`GatherKernel`] backend instead of the
/// default ([`GatherKernel::default`]). All backends are
/// bit-identical, so this changes host speed only; equivalence tests
/// sweep it.
///
/// # Errors
///
/// See [`GatherError`] for the rejected inputs.
pub fn gather_with(
    cloud: &PointCloud,
    center: usize,
    k: usize,
    kernel: GatherKernel,
) -> Result<GatherResult, GatherError> {
    validate(cloud, center, k)?;
    let c = cloud.point(center);
    let mut scored: Vec<(f32, usize)> = (0..cloud.len())
        .filter(|&i| i != center)
        .map(|i| (cloud.point(i).distance_sq(c), i))
        .collect();
    // `total_cmp` (inside the kernel's canonical comparator) gives NaN
    // distances a definite (last) rank instead of silently treating them
    // as equal to everything, which made results depend on the sort's
    // visit order for NaN-coordinate clouds.
    kernel.top_k(&mut scored, k);
    let neighbors: Vec<usize> = scored.iter().map(|&(_, i)| i).collect();

    let n = cloud.len() as u64;
    let counts = OpCounts {
        // Read every candidate point once, write K gathered records.
        mem_reads: n,
        bytes_read: n * 12,
        mem_writes: k as u64,
        bytes_written: (k as u64) * 12,
        distance_computations: n - 1,
        comparisons: sorter::comparator_count(cloud.len() - 1),
        ..OpCounts::default()
    };
    Ok(GatherResult {
        neighbors,
        counts,
        stats: Default::default(),
    })
}

/// Brute-force KNN for a batch of central points, summing the costs.
///
/// # Errors
///
/// Fails on the first invalid center (see [`GatherError`]).
pub fn gather_all(
    cloud: &PointCloud,
    centers: &[usize],
    k: usize,
) -> Result<(Vec<GatherResult>, OpCounts), GatherError> {
    let mut total = OpCounts::default();
    let mut out = Vec::with_capacity(centers.len());
    for &c in centers {
        let r = gather(cloud, c, k)?;
        total += r.counts;
        out.push(r);
    }
    Ok((out, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;

    fn grid() -> PointCloud {
        let mut cloud = PointCloud::new();
        for x in 0..5 {
            for y in 0..5 {
                cloud.push(Point3::new(x as f32, y as f32, 0.0));
            }
        }
        cloud
    }

    #[test]
    fn finds_true_neighbors_on_grid() {
        let cloud = grid();
        // Center (2,2) is index 12; its 4 nearest are the +-1 axis moves.
        let r = gather(&cloud, 12, 4).unwrap();
        let mut n = r.neighbors.clone();
        n.sort_unstable();
        assert_eq!(n, vec![7, 11, 13, 17]);
    }

    #[test]
    fn neighbors_exclude_center_and_are_unique() {
        let cloud = grid();
        let r = gather(&cloud, 0, 10).unwrap();
        assert!(!r.neighbors.contains(&0));
        let set: std::collections::HashSet<_> = r.neighbors.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn neighbors_sorted_by_distance() {
        let cloud = grid();
        let c = cloud.point(12);
        let r = gather(&cloud, 12, 8).unwrap();
        let dists: Vec<f32> = r
            .neighbors
            .iter()
            .map(|&i| cloud.point(i).distance_sq(c))
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn counts_charge_full_cloud() {
        let cloud = grid();
        let r = gather(&cloud, 3, 5).unwrap();
        assert_eq!(r.counts.distance_computations, 24);
        assert_eq!(r.counts.mem_reads, 25);
        assert_eq!(r.counts.comparisons, sorter::comparator_count(24));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cloud = grid();
        assert!(matches!(
            gather(&cloud, 99, 3),
            Err(GatherError::CenterOutOfRange { .. })
        ));
        assert!(matches!(
            gather(&cloud, 0, 25),
            Err(GatherError::KTooLarge { .. })
        ));
        assert!(matches!(
            gather(&PointCloud::new(), 0, 1),
            Err(GatherError::EmptyCloud)
        ));
    }

    #[test]
    fn nan_coordinates_rank_last_and_stay_deterministic() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` treated NaN
        // distances as equal to everything, so the neighbor set of a
        // NaN-polluted cloud depended on the sort's internal visit order.
        // `total_cmp` ranks NaN after every finite distance.
        let mut cloud = grid();
        cloud.push(Point3::new(f32::NAN, 2.0, 0.0));
        cloud.push(Point3::new(2.0, f32::NAN, f32::NAN));
        let nan_a = cloud.len() - 2;
        let nan_b = cloud.len() - 1;

        // 24 finite non-center points exist, so a k=10 query must never
        // pick a NaN point.
        let r = gather(&cloud, 12, 10).unwrap();
        assert!(!r.neighbors.contains(&nan_a));
        assert!(!r.neighbors.contains(&nan_b));

        // The finite prefix matches the NaN-free cloud's answer.
        let clean = gather(&grid(), 12, 10).unwrap();
        assert_eq!(r.neighbors, clean.neighbors);

        // Asking for every point still terminates and puts NaNs last.
        let all = gather(&cloud, 12, cloud.len() - 1).unwrap();
        let tail: Vec<usize> = all.neighbors[all.neighbors.len() - 2..].to_vec();
        assert!(tail.contains(&nan_a) && tail.contains(&nan_b));

        // Determinism across repeated runs.
        assert_eq!(gather(&cloud, 12, 10).unwrap().neighbors, r.neighbors);
    }

    #[test]
    fn gather_kernels_are_bit_identical() {
        let mut cloud = grid();
        cloud.push(Point3::new(f32::NAN, 1.0, 0.0));
        cloud.push(Point3::new(2.0, 2.0, 0.0)); // duplicate of index 12
        for center in [0usize, 12, 24] {
            for k in [1usize, 5, cloud.len() - 1] {
                let a = gather_with(&cloud, center, k, GatherKernel::Scalar).unwrap();
                let b = gather_with(&cloud, center, k, GatherKernel::Blocked).unwrap();
                assert_eq!(a, b, "center {center} k {k}");
            }
        }
    }

    #[test]
    fn batch_sums_costs() {
        let cloud = grid();
        let (results, total) = gather_all(&cloud, &[0, 12, 24], 4).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(total.distance_computations, 3 * 24);
    }
}

//! Voxel-grid down-sampling: the other practical baseline (one
//! representative point per occupied voxel), common in point-cloud
//! toolchains (PCL, Open3D).
//!
//! The paper's Fig. 12 compares FPS, RS and RS+reinforce; voxel-grid is
//! included here because it shares OIS's "relative position" insight —
//! but, unlike OIS, it cannot hit an exact output size K: the number of
//! occupied voxels is data-dependent, which is precisely why PCN
//! pipelines needing a fixed input size use FPS instead.

use hgpcn_geometry::MortonCode;
use hgpcn_memsim::HostMemory;
use hgpcn_octree::Octree;

use crate::{SampleResult, SamplingError};

/// Keeps the first (SFC-lowest) point of every occupied voxel at `level`
/// of the octree.
///
/// Returns SFC addresses like OIS. The output size is the number of
/// occupied voxels — use [`occupied_voxels`] to probe it first.
///
/// # Errors
///
/// * [`SamplingError::OctreeMismatch`] if `mem` doesn't hold the octree's
///   reorganized frame;
/// * [`SamplingError::EmptyCloud`] if the frame is empty.
pub fn sample(
    octree: &Octree,
    mem: &mut HostMemory,
    level: u8,
) -> Result<SampleResult, SamplingError> {
    let n = octree.points().len();
    if mem.len() != n {
        return Err(SamplingError::OctreeMismatch {
            octree_points: n,
            memory_points: mem.len(),
        });
    }
    if n == 0 {
        return Err(SamplingError::EmptyCloud);
    }
    let _ = mem.reset_counts();
    let level = level.min(octree.config().max_depth_value());
    let mut indices = Vec::new();
    let mut counts = hgpcn_memsim::OpCounts::default();

    // Points are SFC-sorted, so voxel membership at any level is a run of
    // equal code prefixes: one comparison per point finds the boundaries.
    let mut last: Option<MortonCode> = None;
    for sfc in 0..n {
        let voxel = octree.point_code(sfc).ancestor_at(level);
        counts.comparisons += 1;
        if last != Some(voxel) {
            let _ = mem.read_point(sfc);
            indices.push(sfc);
            last = Some(voxel);
        }
    }
    counts += mem.counts();
    Ok(SampleResult { indices, counts })
}

/// Number of occupied voxels at `level` (the output size [`sample`] would
/// produce).
pub fn occupied_voxels(octree: &Octree, level: u8) -> usize {
    let level = level.min(octree.config().max_depth_value());
    let mut count = 0;
    let mut last = None;
    for sfc in 0..octree.points().len() {
        let voxel = octree.point_code(sfc).ancestor_at(level);
        if last != Some(voxel) {
            count += 1;
            last = Some(voxel);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::{Point3, PointCloud};
    use hgpcn_octree::OctreeConfig;

    fn setup(n: usize) -> (Octree, HostMemory) {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect();
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(2)).unwrap();
        let mem = HostMemory::from_cloud(tree.points());
        (tree, mem)
    }

    #[test]
    fn one_point_per_occupied_voxel() {
        let (tree, mut mem) = setup(500);
        let level = 3;
        let r = sample(&tree, &mut mem, level).unwrap();
        assert_eq!(r.len(), occupied_voxels(&tree, level));
        assert!(r.is_valid_sample_of(500));
        // Every pair of kept points lies in distinct voxels.
        let voxels: std::collections::HashSet<_> = r
            .indices
            .iter()
            .map(|&i| tree.point_code(i).ancestor_at(level))
            .collect();
        assert_eq!(voxels.len(), r.len());
    }

    #[test]
    fn occupancy_grows_with_level() {
        let (tree, _) = setup(800);
        let mut prev = 0;
        for level in 0..=6 {
            let occ = occupied_voxels(&tree, level);
            assert!(occ >= prev, "occupancy must be monotone in level");
            prev = occ;
        }
        assert_eq!(occupied_voxels(&tree, 0), 1);
    }

    #[test]
    fn memory_traffic_is_one_read_per_kept_point() {
        let (tree, mut mem) = setup(600);
        let r = sample(&tree, &mut mem, 2).unwrap();
        assert_eq!(r.counts.mem_reads, r.len() as u64);
    }

    #[test]
    fn rejects_mismatched_memory() {
        let (tree, _) = setup(100);
        let mut wrong = HostMemory::from_points(vec![Point3::ORIGIN; 3]);
        assert!(matches!(
            sample(&tree, &mut wrong, 3).unwrap_err(),
            SamplingError::OctreeMismatch { .. }
        ));
    }
}

/// Operation counts recorded while building an octree.
///
/// The Octree-build Unit runs on the CPU and its cost is the dominant part
/// of OIS latency when everything runs in software (Fig. 11, 0.25–0.8 of
/// total). The memory simulator converts these counts into bytes and cycles;
/// this struct only records *what happened*, not how long it took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BuildStats {
    /// Number of points in the frame.
    pub points: usize,
    /// Point reads performed (one per point: the "single pass" of §V-A).
    pub point_reads: usize,
    /// Point writes performed (the reorganized SFC copy in host memory).
    pub point_writes: usize,
    /// Morton-code computations (one per point: a lookup in the frame's
    /// per-axis boundary table). The host's SFC sort is a radix sort and
    /// has no count of its own — it makes no comparisons, and the cost
    /// model (`hgpcn_system::build_counts`) charges the whole single pass
    /// from this field.
    pub code_computations: usize,
    /// Nodes created (internal + leaf).
    pub nodes_created: usize,
    /// Depth of the deepest leaf actually created. Depends on the frame's
    /// spatial non-uniformity (the MN.piano vs MN.plant effect in Fig. 11).
    pub achieved_depth: u8,
    /// `true` when the frame landed on the scratch's cached root grid, so
    /// the build is *priced* as the §V-A delta pass. The host runs the
    /// same radix sort and node construction either way; only the cost
    /// model differs.
    pub reused: bool,
    /// Points whose Morton code changed relative to the cached previous
    /// frame (`reused`), or all points otherwise. This is the "n" of the
    /// delta pass the warm cost model charges.
    pub dirty_points: usize,
    /// Octree-Table rows whose content (code, point range, or children)
    /// may have changed relative to the cached previous frame: nodes
    /// whose sorted-position range touches a changed position. Equals
    /// `nodes_created` when not `reused`. A conservative (never
    /// undercounting) estimate — the quantity the §V-A incremental
    /// table update re-emits while clean rows persist in BRAM.
    pub nodes_dirty: usize,
}

impl BuildStats {
    /// Total host-memory accesses (reads + writes) in units of points.
    #[inline]
    pub fn memory_accesses(&self) -> usize {
        self.point_reads + self.point_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_accesses_sums_reads_and_writes() {
        let s = BuildStats {
            point_reads: 10,
            point_writes: 7,
            ..BuildStats::default()
        };
        assert_eq!(s.memory_accesses(), 17);
    }
}

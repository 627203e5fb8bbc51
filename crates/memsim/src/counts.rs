use std::fmt;
use std::ops::{Add, AddAssign};

/// Operation tally — the common currency every algorithm in the workspace
/// reports and every [`crate::DeviceProfile`] prices.
///
/// Counting conventions:
///
/// * `mem_reads`/`mem_writes` are **host-memory** accesses in units of
///   records (a point or a scalar); `bytes_read`/`bytes_written` carry the
///   actual sizes for bandwidth modeling.
/// * `table_lookups` are Octree-Table row reads (on-chip when the table
///   lives in FPGA BRAM, cache-resident on a CPU).
/// * `distance_computations` are 3-D (squared-)distance evaluations,
///   `comparisons` are sort/rank comparisons, `hamming_ops` are the XOR +
///   popcount voxel-distance evaluations of the Sampling Modules, and
///   `macs` are multiply-accumulates in feature computation.
///
/// # Examples
///
/// ```
/// use hgpcn_memsim::OpCounts;
///
/// let mut total = OpCounts::default();
/// total.mem_reads += 100;
/// total += OpCounts { distance_computations: 5, ..OpCounts::default() };
/// assert_eq!(total.mem_reads, 100);
/// assert_eq!(total.distance_computations, 5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Host-memory record reads.
    pub mem_reads: u64,
    /// Host-memory record writes.
    pub mem_writes: u64,
    /// Bytes read from host memory.
    pub bytes_read: u64,
    /// Bytes written to host memory.
    pub bytes_written: u64,
    /// Octree-Table row lookups.
    pub table_lookups: u64,
    /// 3-D distance computations.
    pub distance_computations: u64,
    /// Sort / rank comparisons.
    pub comparisons: u64,
    /// XOR + popcount voxel-distance evaluations.
    pub hamming_ops: u64,
    /// Multiply-accumulate operations (feature computation).
    pub macs: u64,
}

impl OpCounts {
    /// A zeroed tally.
    #[inline]
    pub fn new() -> OpCounts {
        OpCounts::default()
    }

    /// Total host-memory accesses (reads + writes), the Fig. 9 metric.
    #[inline]
    pub fn memory_accesses(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }

    /// Total bytes moved to/from host memory.
    #[inline]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Scales every field by `n` — e.g. to extrapolate one central point's
    /// gather cost to all central points.
    pub fn scaled(&self, n: u64) -> OpCounts {
        OpCounts {
            mem_reads: self.mem_reads * n,
            mem_writes: self.mem_writes * n,
            bytes_read: self.bytes_read * n,
            bytes_written: self.bytes_written * n,
            table_lookups: self.table_lookups * n,
            distance_computations: self.distance_computations * n,
            comparisons: self.comparisons * n,
            hamming_ops: self.hamming_ops * n,
            macs: self.macs * n,
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            mem_reads: self.mem_reads + rhs.mem_reads,
            mem_writes: self.mem_writes + rhs.mem_writes,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            table_lookups: self.table_lookups + rhs.table_lookups,
            distance_computations: self.distance_computations + rhs.distance_computations,
            comparisons: self.comparisons + rhs.comparisons,
            hamming_ops: self.hamming_ops + rhs.hamming_ops,
            macs: self.macs + rhs.macs,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mem {}r/{}w, {} lookups, {} dist, {} cmp, {} xor, {} mac",
            self.mem_reads,
            self.mem_writes,
            self.table_lookups,
            self.distance_computations,
            self.comparisons,
            self.hamming_ops,
            self.macs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum_helpers() {
        let a = OpCounts {
            mem_reads: 3,
            mem_writes: 2,
            comparisons: 5,
            ..OpCounts::default()
        };
        let b = OpCounts {
            mem_reads: 1,
            macs: 7,
            ..OpCounts::default()
        };
        let c = a + b;
        assert_eq!(c.mem_reads, 4);
        assert_eq!(c.memory_accesses(), 6);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let a = OpCounts {
            mem_reads: 2,
            distance_computations: 3,
            ..OpCounts::default()
        };
        let s = a.scaled(10);
        assert_eq!(s.mem_reads, 20);
        assert_eq!(s.distance_computations, 30);
    }

    #[test]
    fn display_mentions_counts() {
        let a = OpCounts {
            mem_reads: 9,
            ..OpCounts::default()
        };
        assert!(a.to_string().contains("9r"));
    }
}

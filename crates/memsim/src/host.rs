use hgpcn_geometry::{Point3, PointCloud};

use crate::{OpCounts, POINT_BYTES, SCALAR_BYTES};

/// The shared host memory of the CPU–FPGA platform (§IV), instrumented with
/// access counters.
///
/// Samplers fetch their points *through* this model, so the Fig. 9
/// memory-access comparison between FPS and OIS is a measurement of what
/// the algorithms actually did, not an analytic estimate. Scalar methods
/// track the intermediate distance arrays FPS spills ("all of the computed
/// distances are written into the memory, and then read again", §III-A).
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{Point3, PointCloud};
/// use hgpcn_memsim::HostMemory;
///
/// let cloud: PointCloud = (0..4).map(|i| Point3::splat(i as f32)).collect();
/// let mut mem = HostMemory::from_cloud(&cloud);
/// let p = mem.read_point(2);
/// assert_eq!(p, Point3::splat(2.0));
/// assert_eq!(mem.counts().mem_reads, 1);
/// ```
#[derive(Clone, Debug)]
pub struct HostMemory {
    points: Vec<Point3>,
    counts: OpCounts,
}

impl HostMemory {
    /// Loads the coordinates of `cloud` into host memory (uncounted — the
    /// sensor DMA writes the frame before either phase starts).
    pub fn from_cloud(cloud: &PointCloud) -> HostMemory {
        HostMemory {
            points: cloud.points().to_vec(),
            counts: OpCounts::default(),
        }
    }

    /// Loads raw coordinates into host memory (uncounted).
    pub fn from_points(points: Vec<Point3>) -> HostMemory {
        HostMemory {
            points,
            counts: OpCounts::default(),
        }
    }

    /// Reloads the coordinates of `cloud`, reusing this memory's buffer
    /// capacity and zeroing the access tally — equivalent to a fresh
    /// [`HostMemory::from_cloud`] without the allocation. Preprocessing
    /// contexts call this once per frame.
    pub fn reload_cloud(&mut self, cloud: &PointCloud) {
        self.points.clear();
        self.points.extend_from_slice(cloud.points());
        self.counts = OpCounts::default();
    }

    /// Number of resident points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no points are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Reads the point at `addr`, charging one record read of 12 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read_point(&mut self, addr: usize) -> Point3 {
        self.counts.mem_reads += 1;
        self.counts.bytes_read += POINT_BYTES as u64;
        self.points[addr]
    }

    /// Charges one scalar (f32) read of intermediate data.
    #[inline]
    pub fn read_scalar(&mut self) {
        self.counts.mem_reads += 1;
        self.counts.bytes_read += SCALAR_BYTES as u64;
    }

    /// Charges one scalar (f32) write of intermediate data.
    #[inline]
    pub fn write_scalar(&mut self) {
        self.counts.mem_writes += 1;
        self.counts.bytes_written += SCALAR_BYTES as u64;
    }

    /// The access tally so far.
    #[inline]
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Resets the tally (e.g. between the build pass and the sample pass).
    #[inline]
    pub fn reset_counts(&mut self) -> OpCounts {
        std::mem::take(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> HostMemory {
        HostMemory::from_points((0..10).map(|i| Point3::splat(i as f32)).collect())
    }

    #[test]
    fn reads_are_counted() {
        let mut mem = memory();
        assert_eq!(mem.read_point(5), Point3::splat(5.0));
        let _ = mem.read_point(0);
        let c = mem.counts();
        assert_eq!(c.mem_reads, 2);
        assert_eq!(c.mem_writes, 0);
        assert_eq!(c.bytes_read, 24);
        assert_eq!(c.bytes_written, 0);
    }

    #[test]
    fn scalars_charge_four_bytes() {
        let mut mem = memory();
        mem.write_scalar();
        mem.read_scalar();
        assert_eq!(mem.counts().bytes_moved(), 8);
    }

    #[test]
    fn reset_returns_previous_tally() {
        let mut mem = memory();
        let _ = mem.read_point(0);
        let old = mem.reset_counts();
        assert_eq!(old.mem_reads, 1);
        assert_eq!(mem.counts(), OpCounts::default());
    }

    #[test]
    fn from_cloud_is_uncounted() {
        let cloud: PointCloud = (0..3).map(|i| Point3::splat(i as f32)).collect();
        let mem = HostMemory::from_cloud(&cloud);
        assert_eq!(mem.len(), 3);
        assert_eq!(mem.counts(), OpCounts::default());
        assert!(!mem.is_empty());
    }
}

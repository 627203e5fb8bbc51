use crate::{Latency, OpCounts};

/// A per-operation cost table for one device (or one hardware engine).
///
/// The paper compares HgPCN against an Intel Xeon W-2255, an Nvidia Jetson
/// Xavier NX, an RTX 4060 Ti, and the PointACC/Mesorasi accelerators. We
/// model each as a small set of documented per-operation costs and a
/// roofline combination rule ([`DeviceProfile::latency`]): memory time and
/// compute time overlap, so the modeled latency is their maximum plus a
/// fixed invocation overhead.
///
/// The constants are first-order estimates from public spec sheets (memory
/// bandwidth, core counts, clock rates). Absolute values are *not* the
/// point — the paper's figures are all ratios, and those are driven by the
/// operation counts the algorithms in this workspace actually perform.
///
/// # Examples
///
/// ```
/// use hgpcn_memsim::{DeviceProfile, OpCounts};
///
/// let cpu = DeviceProfile::xeon_w2255();
/// let counts = OpCounts { distance_computations: 1_000_000, ..OpCounts::default() };
/// assert!(cpu.latency(&counts).ns() > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// Streaming cost per byte moved to/from host memory (ns).
    pub ns_per_byte: f64,
    /// Issue/serialization cost per memory access (ns), on top of bytes.
    pub ns_per_access: f64,
    /// Cost per Octree-Table row lookup (ns).
    pub ns_per_lookup: f64,
    /// Cost per 3-D distance computation (ns).
    pub ns_per_distance: f64,
    /// Cost per sort/rank comparison (ns).
    pub ns_per_comparison: f64,
    /// Cost per XOR+popcount voxel-distance evaluation (ns).
    pub ns_per_hamming: f64,
    /// Cost per multiply-accumulate (ns).
    pub ns_per_mac: f64,
    /// Compute parallelism divisor (independent lanes/modules).
    pub parallel_lanes: f64,
    /// Fixed per-invocation overhead: kernel launch, MMIO doorbell… (ns).
    pub overhead_ns: f64,
}

impl DeviceProfile {
    /// Intel Xeon W-2255 (the paper's host CPU): 10 cores @ 3.7 GHz, but
    /// pre-processing codes run single-threaded; ~20 GB/s effective stream
    /// bandwidth from one core.
    pub fn xeon_w2255() -> DeviceProfile {
        DeviceProfile {
            name: "Xeon W-2255",
            ns_per_byte: 0.05,
            ns_per_access: 0.3,
            // Octree-Table walks on the CPU are dependent pointer chases
            // over a multi-MB table: mostly L2/L3 hits with DRAM misses.
            ns_per_lookup: 15.0,
            ns_per_distance: 0.8,
            ns_per_comparison: 0.5,
            // Scoreboard/voxel scoring is branchless and SIMD-friendly
            // (AVX processes ~16 u32 lanes per cycle).
            ns_per_hamming: 0.1,
            ns_per_mac: 0.25,
            parallel_lanes: 1.0,
            overhead_ns: 0.0,
        }
    }

    /// Nvidia RTX 4060 Ti (the paper's desktop GPU): 288 GB/s GDDR6,
    /// ~22 TFLOPS fp32.
    pub fn rtx_4060ti() -> DeviceProfile {
        DeviceProfile {
            name: "RTX 4060 Ti",
            ns_per_byte: 0.0035,
            ns_per_access: 0.004,
            ns_per_lookup: 1.5,
            ns_per_distance: 0.0012,
            ns_per_comparison: 0.0025,
            ns_per_hamming: 0.002,
            ns_per_mac: 0.00009,
            parallel_lanes: 1.0,
            overhead_ns: 10_000.0,
        }
    }

    /// The HgPCN Down-sampling Unit on the Arria 10 (§V-B): 200 MHz, eight
    /// parallel Sampling Modules, one Octree-Table lookup per cycle per
    /// module, Hamming distances in a single XOR. Host memory is reached
    /// over the PAC's shared-memory link (~16 GB/s).
    pub fn hgpcn_downsampling_unit() -> DeviceProfile {
        DeviceProfile {
            name: "HgPCN Down-sampling Unit (FPGA)",
            ns_per_byte: 0.0625,
            ns_per_access: 0.5,
            ns_per_lookup: 5.0,
            ns_per_distance: 5.0,
            ns_per_comparison: 0.7, // bitonic-sorter stage, amortized per key
            ns_per_hamming: 5.0,
            ns_per_mac: 5.0,
            parallel_lanes: 8.0,
            overhead_ns: 2_000.0, // MMIO table transfer doorbell
        }
    }

    /// Models one invocation: memory and compute overlap (roofline), plus
    /// the fixed invocation overhead.
    pub fn latency(&self, counts: &OpCounts) -> Latency {
        let mem_ns = counts.bytes_moved() as f64 * self.ns_per_byte
            + counts.memory_accesses() as f64 * self.ns_per_access;
        let compute_ns = (counts.table_lookups as f64 * self.ns_per_lookup
            + counts.distance_computations as f64 * self.ns_per_distance
            + counts.comparisons as f64 * self.ns_per_comparison
            + counts.hamming_ops as f64 * self.ns_per_hamming
            + counts.macs as f64 * self.ns_per_mac)
            / self.parallel_lanes;
        Latency::from_ns(mem_ns.max(compute_ns) + self.overhead_ns)
    }

    /// Latency of a pure data transfer of `bytes` over this device's
    /// memory link.
    pub fn transfer(&self, bytes: u64) -> Latency {
        Latency::from_ns(bytes as f64 * self.ns_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_takes_max_of_phases() {
        let dev = DeviceProfile {
            name: "test",
            ns_per_byte: 1.0,
            ns_per_access: 0.0,
            ns_per_lookup: 0.0,
            ns_per_distance: 10.0,
            ns_per_comparison: 0.0,
            ns_per_hamming: 0.0,
            ns_per_mac: 0.0,
            parallel_lanes: 1.0,
            overhead_ns: 5.0,
        };
        // Memory-bound case: 100 bytes (100 ns) vs 1 distance (10 ns).
        let mem_bound = OpCounts {
            bytes_read: 100,
            distance_computations: 1,
            ..OpCounts::default()
        };
        assert_eq!(dev.latency(&mem_bound).ns(), 105.0);
        // Compute-bound case.
        let compute_bound = OpCounts {
            bytes_read: 10,
            distance_computations: 5,
            ..OpCounts::default()
        };
        assert_eq!(dev.latency(&compute_bound).ns(), 55.0);
    }

    #[test]
    fn lanes_divide_compute() {
        let mut dev = DeviceProfile::hgpcn_downsampling_unit();
        dev.overhead_ns = 0.0;
        let counts = OpCounts {
            table_lookups: 800,
            ..OpCounts::default()
        };
        let eight = dev.latency(&counts);
        dev.parallel_lanes = 1.0;
        let one = dev.latency(&counts);
        assert!((one.ns() / eight.ns() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn presets_have_distinct_names() {
        let names = [
            DeviceProfile::xeon_w2255().name,
            DeviceProfile::rtx_4060ti().name,
            DeviceProfile::hgpcn_downsampling_unit().name,
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn gpu_macs_are_cheaper_than_cpu() {
        let counts = OpCounts {
            macs: 1_000_000_000,
            ..OpCounts::default()
        };
        let cpu = DeviceProfile::xeon_w2255().latency(&counts);
        let gpu = DeviceProfile::rtx_4060ti().latency(&counts);
        assert!(gpu < cpu);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let dev = DeviceProfile::xeon_w2255();
        assert_eq!(dev.transfer(2000).ns(), 2000.0 * dev.ns_per_byte);
    }
}

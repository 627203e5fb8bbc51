//! Memory and cost simulation — the stand-in for the paper's Intel PAC
//! (Xeon + Arria 10 FPGA) platform and its baseline devices.
//!
//! The paper's headline results are ratios of *operation counts* mapped
//! through device characteristics: host-memory accesses saved by OIS
//! (Fig. 9/10), on-chip FPGA memory saved (Fig. 13), and data-structuring
//! workload saved by VEG (Fig. 15). This crate provides the instruments:
//!
//! * [`OpCounts`] — the common currency every algorithm in this workspace
//!   reports: memory accesses, distance computations, comparisons, table
//!   lookups, MACs;
//! * [`HostMemory`] — a shared host-memory model with read/write counters,
//!   through which the samplers actually fetch their points;
//! * [`OnChipMemory`] — a capacity-checked FPGA BRAM model (65 Mb on the
//!   paper's Arria 10 GX 1150);
//! * [`DeviceProfile`] — documented per-operation cost tables for the Xeon
//!   W-2255, Jetson Xavier NX, RTX 4060 Ti, and the HgPCN FPGA engines;
//! * [`Latency`] — a pretty-printing nanosecond newtype.
//!
//! Latency here is a deterministic cost-model output, **not** wall-clock
//! time: the same counts always produce the same latency, which keeps every
//! figure reproducible. (The benchmark of record, `benchmark/run.sh`,
//! separately measures real wall-clock of the Rust implementations.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod device;
mod host;
mod latency;
mod onchip;

pub use counts::OpCounts;
pub use device::DeviceProfile;
pub use host::HostMemory;
pub use latency::Latency;
pub use onchip::{CapacityError, OnChipMemory};

/// Bytes occupied by one point coordinate record (3 × f32).
pub const POINT_BYTES: usize = 12;

/// Bytes occupied by one scalar intermediate (f32 distance).
pub const SCALAR_BYTES: usize = 4;

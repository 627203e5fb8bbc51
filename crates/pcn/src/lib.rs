//! PointNet++ — the backend PCN the paper runs on every platform
//! (Table I: Pointnet++(c), (ps) and (s) variants).
//!
//! This is a real forward pass over `f32` tensors, not just a cost model:
//! set-abstraction stages group neighbors, run shared MLPs and max-pool;
//! feature-propagation stages interpolate back up for segmentation; heads
//! produce class logits. Weights are seeded-random — the paper's latency
//! results depend only on layer dimensions and gather patterns, never on
//! trained weight values.
//!
//! The neighbor-gathering step is **pluggable** through [`Gatherer`]: the
//! CPU/GPU baselines plug brute-force KNN, HgPCN plugs VEG. Because both
//! return neighbor index sets, the equivalence of VEG to traditional data
//! structuring is testable end-to-end: identical gathers ⇒ identical
//! logits.
//!
//! [`PointNetConfig::workload`] exports each stage's batch size and MLP
//! shape so the system crate can price feature computation on the shared
//! systolic-array model.
//!
//! The matmul itself is pluggable too: every dense layer dispatches to a
//! [`kernel::LinearKernel`] backend (reference scalar, cache-blocked
//! scalar, explicit AVX2 and AVX-512 on `x86_64`), selected by runtime
//! CPU detection and pinnable with
//! [`PointNet::with_kernel`]. All backends are bit-identical by
//! contract, so the kernel choice moves host speed, never results — see
//! the [`kernel`] module docs.
//!
//! [`stage`] generalizes the kernel seam to the rest of the frame
//! pipeline: every preproc stage (sampling, gather, FP interpolation)
//! dispatches to a backend bit-identical to its anchor, bundled per run
//! as a [`stage::StageBackends`] selection.

// `deny` rather than `forbid`: the explicit-SIMD backends in
// `kernel::avx2` and `kernel::avx512` (compiled into every `x86_64`
// build) each carry a safety-commented `#![allow(unsafe_code)]`;
// everything else still refuses unsafe code outright.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod error;
mod gatherer;
pub mod kernel;
mod network;
pub mod stage;
mod tensor;

pub use config::{PointNetConfig, Stage, StageWorkload, TaskKind};
pub use error::PcnError;
pub use gatherer::{BruteKnnGatherer, Gatherer, IndexedGatherer};
pub use kernel::LinearKernel;
pub use network::{CenterPolicy, InferenceOutput, PointNet, Precision};
pub use stage::{InterpolateKernel, StageBackends};
pub use tensor::Matrix;

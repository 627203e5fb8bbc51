//! PointNet++ — the backend PCN the paper runs on every platform
//! (Table I: Pointnet++(c), (ps) and (s) variants).
//!
//! This is a real forward pass over `f32` tensors, not just a cost model:
//! set-abstraction stages group neighbors, run shared MLPs and max-pool;
//! feature-propagation stages interpolate back up for segmentation; heads
//! produce class logits. Weights are seeded-random — the paper's latency
//! results depend only on layer dimensions and gather patterns, never on
//! trained weight values (see `DESIGN.md`).
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
//! scalar, explicit AVX2 under the `simd` feature), selected by build
//! features and runtime CPU detection and pinnable with
//! [`PointNet::with_kernel`]. All backends are bit-identical by
//! contract, so the kernel choice moves host speed, never results — see
//! the [`kernel`] module docs.
//!
//! And the *precision* is pluggable through the same seam: the
//! [`quant`] module adds a post-training-quantized int8 tier — a
//! [`Calibrator`] observes activation ranges, [`PointNet::with_int8`]
//! freezes per-channel i8 weights next to the f32 ones, and
//! [`Precision`] selects the tier per forward pass (the i8 GEMM runs
//! on a [`kernel::Int8Kernel`] riding the same backend dispatch).
//!
//! [`stage`] generalizes that seam to the rest of the frame pipeline:
//! every preproc stage (sampling, gather, FP interpolation) dispatches
//! to a backend bit-identical to its anchor, bundled per run as a
//! [`stage::StageBackends`] selection.

// `deny` rather than `forbid`: the explicit-SIMD backend in
// `kernel::avx2` (compiled only under the `simd` feature) carries the
// crate's single, safety-commented `#![allow(unsafe_code)]`; everything
// else still refuses unsafe code outright.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod error;
mod gatherer;
pub mod kernel;
mod network;
pub mod quant;
pub mod stage;
mod tensor;

pub use config::{PointNetConfig, Stage, StageWorkload, TaskKind};
pub use error::PcnError;
pub use gatherer::{BruteKnnGatherer, Gatherer, IndexedGatherer};
pub use kernel::{Int8Kernel, LinearKernel};
pub use network::{CenterPolicy, InferenceOutput, PointNet};
pub use quant::{Calibration, Calibrator, Precision, QuantLayer};
pub use stage::{InterpolateKernel, StageBackends};
pub use tensor::Matrix;

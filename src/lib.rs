//! Reproduction of *HgPCN: A Heterogeneous Architecture for E2E Embedded
//! Point Cloud Inference* (MICRO 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — points, bounding boxes, clouds, Morton codes, SFC order;
//! * [`datasets`] — synthetic ModelNet40/ShapeNet/S3DIS/KITTI-like frames;
//! * [`octree`] — the spatial index: single-pass build, Octree-Table,
//!   voxel-shell neighbor enumeration;
//! * [`memsim`] — host/on-chip memory models and device cost profiles;
//! * [`sampling`] — FPS, RS, RS+reinforce, Octree-Indexed Sampling (OIS)
//!   and the FPGA Down-sampling Unit model;
//! * [`gather`] — brute KNN, Voxel-Expanded Gathering (VEG),
//!   the six-stage Data Structuring Unit model, and the per-cloud
//!   `VegIndex` built once and queried per center;
//! * [`dla`] — the 16×16 systolic Feature Computation Unit;
//! * [`pcn`] — a real PointNet++ forward pass with pluggable gathering,
//!   and `infer_batch` (B clouds per call, streamed through each MLP in
//!   cache-sized row chunks that max-pool as they leave it,
//!   bit-identical results);
//! * [`system`] — both HgPCN engines, the baseline platforms, the E2E
//!   pipeline and the real-time experiment;
//! * [`runtime`] — the concurrent multi-stream serving runtime: a
//!   session-oriented core (`ServingRuntime`: open streams, submit
//!   frames, poll tickets, live stats, graceful shutdown) as its one
//!   front end, and the batch `Runtime::run` as a client of it — stage-
//!   pipelined worker pools, multi-tenant admission, backpressure,
//!   micro-batch coalescing into the SoA engine path, and per-stream
//!   latency metrics over real threads;
//! * [`serve`] — the std-only HTTP/JSON-RPC 2.0 front end over one
//!   serving runtime (`hgpcn-serve` binary: `POST /rpc`, `GET /health`,
//!   `GET /metrics`), built on the in-tree `minihttp` compat layer;
//! * [`telemetry`] — frame-lifecycle traces (Chrome trace-event JSON
//!   for Perfetto), a metrics registry with a Prometheus text exporter,
//!   and log-bucketed histograms; the runtime records nothing for them
//!   while it serves, and derives a run's trace and metrics from its
//!   per-frame records when asked;
//! * [`bench`](mod@bench) — regenerators for every table and figure of
//!   the paper.
//!
//! # Quick start
//!
//! ```
//! use hgpcn::prelude::*;
//!
//! // A raw "sensor" frame.
//! let frame: PointCloud = (0..5000)
//!     .map(|i| {
//!         let f = i as f32;
//!         Point3::new((f * 0.618).fract(), (f * 0.414).fract(), (f * 0.732).fract())
//!     })
//!     .collect();
//!
//! // End-to-end: octree build + OIS down-sampling + VEG + PointNet++.
//! let pipeline = E2ePipeline::prototype();
//! let net = PointNet::new(PointNetConfig::classification(), 7);
//! let report = pipeline.process_frame(&frame, 1024, &net, 7)?;
//! assert!(report.total().ns() > 0.0);
//! # Ok::<(), hgpcn::system::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hgpcn_bench as bench;
pub use hgpcn_datasets as datasets;
pub use hgpcn_dla as dla;
pub use hgpcn_gather as gather;
pub use hgpcn_geometry as geometry;
pub use hgpcn_memsim as memsim;
pub use hgpcn_octree as octree;
pub use hgpcn_pcn as pcn;
pub use hgpcn_runtime as runtime;
pub use hgpcn_sampling as sampling;
pub use hgpcn_serve as serve;
pub use hgpcn_system as system;
pub use hgpcn_telemetry as telemetry;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use hgpcn_geometry::{Aabb, MortonCode, Point3, PointCloud};
    pub use hgpcn_memsim::{DeviceProfile, HostMemory, Latency, OnChipMemory, OpCounts};
    pub use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
    pub use hgpcn_pcn::{CenterPolicy, PointNet, PointNetConfig};
    pub use hgpcn_runtime::{
        ArrivalModel, BackpressurePolicy, BatchingStats, ErrorCode, FrameStatus, FrameTicket,
        KittiSource, Runtime, RuntimeConfig, RuntimeError, RuntimeReport, ServingRuntime,
        StageBreakdown, StreamHandle, StreamProfile, StreamSpec, SyntheticSource,
        TelemetrySnapshot,
    };
    pub use hgpcn_serve::App;
    pub use hgpcn_system::{E2ePipeline, InferenceEngine, PreprocessingEngine};
    pub use hgpcn_telemetry::{LogHistogram, Registry, TelemetryMode, Trace};
}

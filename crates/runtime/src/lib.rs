//! `hgpcn-runtime` — a concurrent multi-stream serving runtime for the
//! HgPCN end-to-end pipeline.
//!
//! The paper's §VII-E real-time criterion is modeled analytically in
//! [`hgpcn_system::realtime`]: a single sensor stream, with serial and
//! two-stage-pipelined FPS computed from per-frame latencies. This crate
//! *executes* that pipeline: N independent sensor streams are submitted
//! to one [`ServingRuntime`] (a batch [`Runtime::run`] submits a fleet
//! in [`Scheduler`] order), flow through bounded MPMC
//! [`BoundedQueue`]s into a pre-processing worker pool and an inference
//! worker pool (so pre-processing of frame *t+1* overlaps inference of
//! frame *t* in real threads), and every frame's journey is recorded
//! into a [`RuntimeReport`] with per-stream p50/p95/p99 latency
//! summaries, achieved-vs-sensor FPS, queue depths and drop counters.
//!
//! In the spirit of a microkernel, orchestration is separated from
//! compute: this crate contains **no** pipeline math — it only moves
//! frames between the engines that [`hgpcn_system`] already models —
//! and policy (admission order, backpressure) is separated from
//! mechanism (queues and worker pools).
//!
//! Inference workers run one loop: each dequeued frame, plus up to
//! [`RuntimeConfig::max_batch`]` − 1` frames already queued behind it,
//! forms a **micro-batch** executed through the one batched engine call
//! ([`InferenceEngine::run_batch_in_parts`](hgpcn_system::InferenceEngine::run_batch_in_parts)):
//! the call spreads the batch's frames over the worker's share of the
//! host's cores in contiguous sub-batches, each one SoA pass with one
//! weight traversal per MLP layer, and a lone frame is a batch of one on
//! the worker's own thread. The share is `cores / inference_workers`, at
//! least one, so the inference pool never runs more threads than there
//! are cores.
//! Coalescing never waits for frames (only already-queued work is
//! drained) and preserves both per-stream FIFO order and per-frame
//! `frame_seed` determinism — per-frame results are bit-identical at
//! every `max_batch` and split, only host throughput changes
//! ([`RuntimeReport::wall_speedup_over`], [`BatchingStats`]).
//!
//! Latency accounting runs on a *virtual clock*: workers advance their
//! own virtual time by the modeled latency of the work they actually
//! executed. Per-frame results are deterministic regardless of worker
//! count (seeds depend only on stream and frame index); the aggregate
//! virtual timeline is bit-reproducible with one worker per stage —
//! wider pools inherit the OS's frame-to-worker assignment — and stays
//! directly comparable to the analytical
//! [`RealtimeReport::pipelined_fps`](hgpcn_system::realtime::RealtimeReport)
//! — see [`RuntimeReport::validate_against`].
//!
//! # Quick start
//!
//! ```
//! use hgpcn_runtime::{
//!     ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource,
//! };
//! use hgpcn_pcn::{PointNet, PointNetConfig};
//!
//! let runtime = Runtime::new(
//!     RuntimeConfig::default()
//!         .preproc_workers(2)
//!         .inference_workers(2)
//!         .target_points(512)
//!         .arrival(ArrivalModel::Backlogged),
//! )?;
//! let net = PointNet::new(PointNetConfig::classification(), 7);
//! let streams = vec![
//!     StreamSpec::new("lidar-a", SyntheticSource::new(2000, 10.0, 3, 1)),
//!     StreamSpec::new("lidar-b", SyntheticSource::new(2000, 20.0, 3, 2)),
//! ];
//! let report = runtime.run(streams, &net)?;
//! assert_eq!(report.total_frames, 6);
//! assert!(report.modeled_pipelined_fps > 0.0);
//! # Ok::<(), hgpcn_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod executor;
mod metrics;
mod queue;
mod scheduler;
pub(crate) mod session;
mod stream;

pub use config::{ArrivalModel, BackpressurePolicy, RuntimeConfig};
pub use executor::Runtime;
pub use metrics::{
    BatchingStats, CrossValidation, FrameRecord, LatencySummary, QueueDepthStats, QueueStats,
    RuntimeReport, StageBackendNames, StageBreakdown, StreamReport, TelemetrySnapshot,
    WorkerUtilization, DEFAULT_VALIDATION_TOLERANCE,
};
pub use queue::{BoundedQueue, Closed};
pub use scheduler::Scheduler;
pub use session::{FrameResult, FrameStatus, FrameTicket, ServingRuntime, StreamHandle};
pub use stream::{
    FrameSource, KittiSource, StreamProfile, StreamSpec, SyntheticSource, TimedFrame,
};

// Re-exported so serving code can pin preproc-stage backends without a
// direct `hgpcn_pcn` dependency.
pub use hgpcn_pcn::StageBackends;

// Re-exported so serving code can pin the preprocessing state policy
// without a direct `hgpcn_system` dependency.
pub use hgpcn_system::PreprocReuse;

// Re-exported so serving code can configure and consume telemetry
// without a direct `hgpcn_telemetry` dependency.
pub use hgpcn_telemetry::{Registry, TelemetryMode, Trace};

use std::error::Error;
use std::fmt;

use hgpcn_system::SystemError;

/// Errors produced by the serving runtime.
///
/// Every variant maps to a stable machine-readable [`ErrorCode`] via
/// [`RuntimeError::code`] — the contract network front ends (JSON-RPC
/// error objects, HTTP statuses) are built on, so matching on codes
/// stays valid across releases even though the enum itself is
/// `#[non_exhaustive]`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The configuration cannot be run.
    InvalidConfig(String),
    /// `run` was called with an empty stream list.
    NoStreams,
    /// An engine failed on a frame. On a [`ServingRuntime`] it resolves
    /// only that frame's ticket ([`FrameStatus::Failed`]); a batch run
    /// returns the first one in submission order.
    Frame {
        /// Stream the failing frame belonged to.
        stream_id: usize,
        /// Per-stream index of the failing frame.
        frame_index: usize,
        /// The underlying engine failure.
        source: SystemError,
    },
    /// A frame was evicted by `DropOldest` backpressure before it could
    /// be served (serving sessions only; a batch run counts drops in its
    /// report instead).
    Dropped {
        /// Stream the evicted frame belonged to.
        stream_id: usize,
        /// Per-stream index of the evicted frame.
        frame_index: usize,
    },
    /// The stream id has not been opened on this session.
    UnknownStream {
        /// The offending id.
        stream_id: usize,
    },
    /// The ticket was never issued by this session, or its result was
    /// already consumed by an earlier poll.
    UnknownTicket {
        /// Stream of the offending ticket.
        stream_id: usize,
        /// Frame index of the offending ticket.
        frame_index: usize,
    },
    /// The session is shutting down and refuses new work, or a worker
    /// panic tore it down while the polled ticket was still pending.
    ShuttingDown,
}

/// Stable machine-readable identity of a [`RuntimeError`].
///
/// The string form ([`ErrorCode::as_str`]) and the JSON-RPC numeric
/// form ([`ErrorCode::json_rpc`]) are wire contract: they never change
/// for an existing variant, and new variants get new values.
/// `unknown_shard` / `-32008` is retired and must not be reused, because
/// clients match on codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// `invalid_config` / `-32001`.
    InvalidConfig,
    /// `no_streams` / `-32002`.
    NoStreams,
    /// `frame_failed` / `-32003`.
    FrameFailed,
    /// `frame_dropped` / `-32004`.
    FrameDropped,
    /// `unknown_stream` / `-32005`.
    UnknownStream,
    /// `unknown_ticket` / `-32006`.
    UnknownTicket,
    /// `shutting_down` / `-32007`.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable snake_case identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::NoStreams => "no_streams",
            ErrorCode::FrameFailed => "frame_failed",
            ErrorCode::FrameDropped => "frame_dropped",
            ErrorCode::UnknownStream => "unknown_stream",
            ErrorCode::UnknownTicket => "unknown_ticket",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// The stable JSON-RPC 2.0 error code (in the server-defined
    /// `-32000..=-32099` band the spec reserves for implementations).
    pub fn json_rpc(self) -> i64 {
        match self {
            ErrorCode::InvalidConfig => -32001,
            ErrorCode::NoStreams => -32002,
            ErrorCode::FrameFailed => -32003,
            ErrorCode::FrameDropped => -32004,
            ErrorCode::UnknownStream => -32005,
            ErrorCode::UnknownTicket => -32006,
            ErrorCode::ShuttingDown => -32007,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RuntimeError {
    /// This error's stable machine-readable code.
    pub fn code(&self) -> ErrorCode {
        match self {
            RuntimeError::InvalidConfig(_) => ErrorCode::InvalidConfig,
            RuntimeError::NoStreams => ErrorCode::NoStreams,
            RuntimeError::Frame { .. } => ErrorCode::FrameFailed,
            RuntimeError::Dropped { .. } => ErrorCode::FrameDropped,
            RuntimeError::UnknownStream { .. } => ErrorCode::UnknownStream,
            RuntimeError::UnknownTicket { .. } => ErrorCode::UnknownTicket,
            RuntimeError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }

    /// For [`RuntimeError::Frame`], the engine stage that failed
    /// (`octree` / `sampling` / `gather` / `pcn`) — a stable
    /// sub-code network front ends forward as error data.
    pub fn frame_stage(&self) -> Option<&'static str> {
        match self {
            RuntimeError::Frame { source, .. } => Some(match source {
                SystemError::Octree(_) => "octree",
                SystemError::Sampling(_) => "sampling",
                SystemError::Gather(_) => "gather",
                SystemError::Pcn(_) => "pcn",
                // `SystemError` is non-exhaustive; a stage added there
                // gets a proper name here on the next audit.
                _ => "system",
            }),
            _ => None,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidConfig(why) => write!(f, "invalid runtime config: {why}"),
            RuntimeError::NoStreams => write!(f, "no streams to serve"),
            RuntimeError::Frame {
                stream_id,
                frame_index,
                source,
            } => write!(
                f,
                "frame {frame_index} of stream {stream_id} failed: {source}"
            ),
            RuntimeError::Dropped {
                stream_id,
                frame_index,
            } => write!(
                f,
                "frame {frame_index} of stream {stream_id} was evicted by backpressure"
            ),
            RuntimeError::UnknownStream { stream_id } => {
                write!(f, "stream {stream_id} is not open on this session")
            }
            RuntimeError::UnknownTicket {
                stream_id,
                frame_index,
            } => write!(
                f,
                "no pending result for frame {frame_index} of stream {stream_id} \
                 (never submitted, or already consumed)"
            ),
            RuntimeError::ShuttingDown => write!(f, "runtime is shutting down"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Derives the per-frame seed every stage uses for a given frame.
///
/// Deterministic in `(base, stream_id, frame_index)` and independent of
/// worker count or scheduling order — the foundation of the runtime's
/// reproducibility guarantee. A serial re-run of
/// [`E2ePipeline::process_frame`](hgpcn_system::E2ePipeline::process_frame)
/// with this seed reproduces the runtime's per-frame results exactly.
pub fn frame_seed(base: u64, stream_id: usize, frame_index: usize) -> u64 {
    base ^ (stream_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (frame_index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_seeds_are_distinct_across_streams_and_frames() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..8 {
            for frame in 0..64 {
                assert!(seen.insert(frame_seed(7, stream, frame)));
            }
        }
    }

    #[test]
    fn error_display_names_the_frame() {
        let err = RuntimeError::NoStreams;
        assert_eq!(err.to_string(), "no streams to serve");
        let bad = RuntimeError::InvalidConfig("queue_capacity must be >= 1".into());
        assert!(bad.to_string().contains("queue_capacity"));
    }
}

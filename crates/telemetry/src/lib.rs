//! `hgpcn-telemetry` — observability primitives for the serving stack.
//!
//! Two std-only layers, designed as a first-class seam every backend
//! and pipeline stage reports through (the microkernel separation:
//! representation and export here, what a frame did in the runtime):
//!
//! * **Frame-lifecycle traces** ([`trace`]): a [`Trace`] is an ordered
//!   list of admit / enqueue / dequeue / preproc / batch-coalesce /
//!   infer / complete events on the *virtual* (modeled) clock, with the
//!   host's wall clock on the stage spans, exportable as Chrome
//!   trace-event JSON loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev). Nothing records events while
//!   frames are served: the runtime derives a trace after the fact from
//!   the one per-frame record it keeps.
//! * **Metrics** ([`registry`], [`histogram`]): a [`Registry`] of named
//!   counters, gauges and log-bucketed streaming [`LogHistogram`]s with a
//!   Prometheus text-format exporter — the payload a `/metrics` endpoint
//!   serves.
//!
//! A trace's virtual-clock half is deterministic: two runs of the same
//! deterministic workload with one worker per stage produce
//! byte-identical virtual-clock trace JSON (see
//! [`Trace::chrome_trace_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::LogHistogram;
pub use registry::{MetricKind, Registry};
pub use trace::{EventKind, StageId, Trace, TraceEvent, WorkerId};

/// Whether a run's final report carries its trace and metrics registry.
///
/// `Off` (the default) leaves the report's telemetry empty; `On`
/// derives both from the run's frame records at shutdown. Serving does
/// the same work either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// The final report carries no telemetry.
    #[default]
    Off,
    /// The final report carries the trace and the metrics registry.
    On,
}

//! Batch runs: a pre-registered fleet of
//! [`FrameSource`](crate::FrameSource) streams served to completion.
//!
//! [`Runtime::run`] is a client of [`ServingRuntime`], the one front end
//! of the session core: it opens a stream per spec, pulls frames
//! round-robin on the caller's thread and submits them, and returns the
//! shutdown report. Thread topology:
//!
//! ```text
//! caller ──submit──► [ingress queue] ──► preproc pool ──► [stage queue] ──► inference pool ──► tickets
//! (scheduler)           bounded            P workers         bounded           I workers
//! ```
//!
//! Pre-processing of frame *t+1* overlaps inference of frame *t* in
//! real threads — the execution the analytical
//! [`realtime`](hgpcn_system::realtime) model only predicts. Latency
//! accounting runs on a **virtual clock**: each worker advances its own
//! virtual time by the modeled latency of the work it actually executed,
//! keeping throughput comparable to the paper's modeled numbers while
//! wall-clock duration is reported separately. Per-frame modeled
//! results are fully deterministic (seeds depend only on stream and
//! frame index); the *aggregate* virtual timeline is bit-reproducible
//! with one worker per stage, while wider pools inherit the OS's
//! frame-to-worker assignment and may shift virtual queueing times
//! slightly between runs.

use std::collections::VecDeque;
use std::sync::Arc;

use hgpcn_pcn::PointNet;
use hgpcn_system::E2ePipeline;

use crate::config::RuntimeConfig;
use crate::metrics::RuntimeReport;
use crate::scheduler::Scheduler;
use crate::session::{FrameStatus, ServingRuntime};
use crate::stream::StreamSpec;
use crate::RuntimeError;

/// The concurrent multi-stream runtime, run to completion over a fixed
/// fleet.
///
/// A client of [`ServingRuntime`](crate::ServingRuntime), which serves
/// open-ended workloads (submit frames one at a time, poll results, live
/// stats); the same frames in the same order give bit-identical
/// per-frame results through either.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Creates a runtime after validating `config`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for empty pools or queues.
    pub fn new(config: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        config.validate()?;
        Ok(Runtime { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Serves `streams` through the prototype [`E2ePipeline`] with `net`.
    ///
    /// # Errors
    ///
    /// Propagates the first frame failure, or config/stream mistakes.
    pub fn run(
        &self,
        streams: Vec<StreamSpec>,
        net: &PointNet,
    ) -> Result<RuntimeReport, RuntimeError> {
        self.run_with_pipeline(&E2ePipeline::prototype(), streams, net)
    }

    /// Serves `streams` through a caller-supplied pipeline: frames are
    /// submitted round-robin across the streams, and `DropOldest`
    /// evictions are counted in the report, not treated as errors.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoStreams`] for an empty stream list and
    /// [`RuntimeError::Frame`] for the first engine failure in
    /// submission order.
    ///
    /// # Panics
    ///
    /// A panic inside a user-supplied [`FrameSource`](crate::FrameSource)
    /// (pulled on the caller's thread) or in engine code propagates out
    /// of this call; it never deadlocks the worker pools.
    pub fn run_with_pipeline(
        &self,
        pipeline: &E2ePipeline,
        streams: Vec<StreamSpec>,
        net: &PointNet,
    ) -> Result<RuntimeReport, RuntimeError> {
        // `new()` already validated, but `run_with_pipeline` is also the
        // funnel for configs arriving by other roads (e.g. a
        // deserialized server config) — validating here keeps "reject,
        // don't panic in a worker" true for every entry point.
        self.config.validate()?;
        if streams.is_empty() {
            return Err(RuntimeError::NoStreams);
        }
        let runtime = ServingRuntime::start_with_pipeline(
            self.config.clone(),
            pipeline.clone(),
            Arc::new(net.clone()),
        )?;
        for spec in &streams {
            runtime.open_stream(spec.profile())?;
        }
        let fed = feed(&runtime, Scheduler::new(streams));
        // Joins the pools either way, re-raising a worker's panic.
        let report = runtime.shutdown();
        fed.and(report)
    }
}

/// Submits every frame the scheduler yields, resolving tickets in
/// submission order as they finish so completed results never pile up.
fn feed(runtime: &ServingRuntime, mut scheduler: Scheduler) -> Result<(), RuntimeError> {
    // `DropOldest` evictions resolve as `Failed(Dropped)`: not errors of a
    // batch run, whose report counts them.
    let settle = |status| match status {
        FrameStatus::Failed(err @ RuntimeError::Frame { .. }) => Err(err),
        _ => Ok(()),
    };
    let mut outstanding = VecDeque::new();
    while let Some(frame) = scheduler.next_frame() {
        outstanding.push_back(runtime.submit(frame.stream_id, frame.sensor_ts_s, frame.cloud)?);
        while let Some(&head) = outstanding.front() {
            match runtime.poll(head)? {
                FrameStatus::Pending => break,
                status => {
                    outstanding.pop_front();
                    settle(status)?;
                }
            }
        }
    }
    outstanding
        .into_iter()
        .try_for_each(|ticket| settle(runtime.wait(ticket)?))
}

#[cfg(test)]
mod tests {
    use hgpcn_geometry::PointCloud;
    use hgpcn_pcn::{PointNet, PointNetConfig};

    use super::*;

    struct PanickingSource;

    impl crate::FrameSource for PanickingSource {
        fn next_frame(&mut self) -> Option<(f64, PointCloud)> {
            panic!("source exploded");
        }

        fn nominal_fps(&self) -> f64 {
            10.0
        }
    }

    #[test]
    fn panicking_source_propagates_instead_of_deadlocking() {
        let runtime = Runtime::new(RuntimeConfig::default()).unwrap();
        let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runtime.run(vec![StreamSpec::new("bad", PanickingSource)], &net)
        }));
        assert!(
            outcome.is_err(),
            "the source's panic must surface, not hang the pools"
        );
    }

    #[test]
    fn engine_failure_aborts_with_frame_error() {
        // target_points(8) passes preprocessing but is far below the
        // net's coarsest stage, so inference fails on the first frame;
        // the run must surface that frame's error, not hang or succeed.
        let runtime = Runtime::new(RuntimeConfig::default().target_points(8)).unwrap();
        let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 1);
        let streams = vec![StreamSpec::new(
            "tiny",
            crate::SyntheticSource::new(1200, 10.0, 4, 5),
        )];
        match runtime.run(streams, &net) {
            Err(RuntimeError::Frame { stream_id: 0, .. }) => {}
            other => panic!("expected a frame error, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_list_is_an_error() {
        let runtime = Runtime::new(RuntimeConfig::default()).unwrap();
        let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 1);
        assert_eq!(
            runtime.run(vec![], &net).unwrap_err(),
            crate::RuntimeError::NoStreams
        );
    }
}

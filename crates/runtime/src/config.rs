//! Runtime configuration: worker pools, queue sizing and policies.

use hgpcn_telemetry::TelemetryMode;

use crate::RuntimeError;

/// What admission does when the ingress queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the submitter until a worker frees a slot (lossless).
    #[default]
    Block,
    /// Evict the oldest queued frame to make room (bounded latency,
    /// lossy). The eviction is charged to the evicted frame's stream.
    DropOldest,
}

/// What virtual arrival times frames carry.
///
/// The runtime executes on real threads but its latency accounting runs
/// on the *modeled* clock (the workspace's deterministic cost models),
/// so "arrival" is a virtual-time notion:
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Frames arrive at their sensor timestamps — sojourn times include
    /// the wait for data, and achieved FPS is capped by the sensor rate.
    #[default]
    Sensor,
    /// All frames are ready at t=0 (a backlogged source) — achieved FPS
    /// measures pipeline *capacity*, the number the analytical
    /// `RealtimeReport::pipelined_fps` bounds.
    Backlogged,
}

/// Configuration of a [`Runtime`](crate::Runtime): pool and queue
/// sizes, admission policies, sampling target, seed and telemetry.
///
/// The pipeline a frame runs through is not configurable. Every run
/// dispatches to [`StageBackends::active`](hgpcn_pcn::StageBackends::active),
/// and every stream keeps its previous frame, so a frame on that frame's
/// root grid is priced as the §V-A delta pass
/// ([`hgpcn_system::reuse`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Workers in the pre-processing stage pool.
    pub preproc_workers: usize,
    /// Workers in the inference stage pool.
    pub inference_workers: usize,
    /// Capacity of each inter-stage frame queue.
    pub queue_capacity: usize,
    /// Ingress-queue overflow policy.
    pub backpressure: BackpressurePolicy,
    /// Virtual arrival-time model.
    pub arrival: ArrivalModel,
    /// Points each frame is down-sampled to before inference.
    pub target_points: usize,
    /// Base seed; per-frame seeds derive from it via
    /// [`frame_seed`](crate::frame_seed).
    pub seed: u64,
    /// Largest micro-batch an inference worker may coalesce from the
    /// stage queue (default `1`). Every frame runs the SoA batched engine
    /// call
    /// ([`InferenceEngine::run_batch_in_parts`](hgpcn_system::InferenceEngine::run_batch_in_parts));
    /// this is only the ceiling on how many already-queued frames share
    /// one call, which spreads them over the worker's share of the host's
    /// cores (`cores / inference_workers`). A lone frame
    /// is a batch of one, and per-frame results are bit-identical at
    /// every value.
    pub max_batch: usize,
    /// Whether the run records frame-lifecycle telemetry (trace +
    /// metrics registry into [`RuntimeReport::telemetry`](crate::RuntimeReport::telemetry)).
    /// The default, [`TelemetryMode::Auto`], defers to the
    /// `HGPCN_TELEMETRY` environment variable; when resolved off the
    /// recorders are no-op sinks and the hot path never touches them.
    pub telemetry: TelemetryMode,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            preproc_workers: 1,
            inference_workers: 1,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::Block,
            arrival: ArrivalModel::Sensor,
            target_points: 1024,
            seed: 0x5EED,
            max_batch: 1,
            telemetry: TelemetryMode::Auto,
        }
    }
}

impl RuntimeConfig {
    /// Sets the pre-processing worker-pool size.
    pub fn preproc_workers(mut self, n: usize) -> Self {
        self.preproc_workers = n;
        self
    }

    /// Sets the inference worker-pool size.
    pub fn inference_workers(mut self, n: usize) -> Self {
        self.inference_workers = n;
        self
    }

    /// Sets the capacity of the inter-stage queues.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the ingress backpressure policy.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the virtual arrival model.
    pub fn arrival(mut self, arrival: ArrivalModel) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the down-sampling target.
    pub fn target_points(mut self, n: usize) -> Self {
        self.target_points = n;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the largest micro-batch the inference stage may coalesce.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Sets whether the run records telemetry.
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Checks the configuration is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when a pool is empty, the
    /// queue capacity is zero, or the sampling target is zero.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.preproc_workers == 0 {
            return Err(RuntimeError::InvalidConfig(
                "preproc_workers must be >= 1".into(),
            ));
        }
        if self.inference_workers == 0 {
            return Err(RuntimeError::InvalidConfig(
                "inference_workers must be >= 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(RuntimeError::InvalidConfig(
                "queue_capacity must be >= 1".into(),
            ));
        }
        if self.target_points == 0 {
            return Err(RuntimeError::InvalidConfig(
                "target_points must be >= 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(RuntimeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(RuntimeConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_set_fields() {
        let cfg = RuntimeConfig::default()
            .preproc_workers(3)
            .inference_workers(2)
            .queue_capacity(5)
            .backpressure(BackpressurePolicy::DropOldest)
            .arrival(ArrivalModel::Backlogged)
            .target_points(256)
            .seed(42)
            .max_batch(8)
            .telemetry(TelemetryMode::On);
        assert_eq!(cfg.preproc_workers, 3);
        assert_eq!(cfg.inference_workers, 2);
        assert_eq!(cfg.queue_capacity, 5);
        assert_eq!(cfg.backpressure, BackpressurePolicy::DropOldest);
        assert_eq!(cfg.arrival, ArrivalModel::Backlogged);
        assert_eq!(cfg.target_points, 256);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.telemetry, TelemetryMode::On);
        assert_eq!(RuntimeConfig::default().telemetry, TelemetryMode::Auto);
    }

    #[test]
    fn zero_pools_rejected() {
        assert!(RuntimeConfig::default()
            .preproc_workers(0)
            .validate()
            .is_err());
        assert!(RuntimeConfig::default()
            .inference_workers(0)
            .validate()
            .is_err());
        assert!(RuntimeConfig::default()
            .queue_capacity(0)
            .validate()
            .is_err());
        assert!(RuntimeConfig::default()
            .target_points(0)
            .validate()
            .is_err());
        assert!(RuntimeConfig::default().max_batch(0).validate().is_err());
        assert!(RuntimeConfig::default().max_batch(16).validate().is_ok());
    }
}

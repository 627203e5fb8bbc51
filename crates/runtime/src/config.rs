//! Runtime configuration: worker pools, queue sizing and policies.

use hgpcn_pcn::StageBackends;
use hgpcn_system::PreprocReuse;
use hgpcn_telemetry::TelemetryMode;

use crate::RuntimeError;

/// How the scheduler interleaves frames from multiple streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Visit streams in a fixed cycle, one frame per turn.
    #[default]
    RoundRobin,
    /// Smooth weighted round-robin: streams are visited in proportion
    /// to their [`StreamSpec::weight`](crate::StreamSpec::weight).
    WeightedFair,
}

/// What the admission thread does when the ingress queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block admission until a worker frees a slot (lossless).
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

/// Configuration of a [`Runtime`](crate::Runtime).
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Workers in the pre-processing stage pool.
    pub preproc_workers: usize,
    /// Workers in the inference stage pool.
    pub inference_workers: usize,
    /// Capacity of each inter-stage frame queue.
    pub queue_capacity: usize,
    /// Multi-stream interleaving policy.
    pub admission: AdmissionPolicy,
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
    /// Preproc-stage backend selection (sampling / gather / FP
    /// interpolation) for every worker of the run. `None` (the default)
    /// defers to the served network's pinned
    /// [`stage_backends`](hgpcn_pcn::PointNet::stage_backends) — which
    /// itself defaults to [`StageBackends::default`].
    /// Every backend is bit-identical to its scalar anchor, so this knob
    /// moves host speed only, never results or modeled latencies; the
    /// resolved selection is reported in
    /// [`RuntimeReport::stage_backends`](crate::RuntimeReport::stage_backends).
    pub stage_backends: Option<StageBackends>,
    /// Preprocessing state policy for every stream of the run. `None`
    /// (the default) means [`PreprocReuse::default`], i.e. `On`. With
    /// [`PreprocReuse::On`] each stream keeps its
    /// [`PreviousFrame`](hgpcn_system::PreviousFrame), and consecutive
    /// frames sharing a root AABB are priced as a §V-A delta pass. Either
    /// way each pre-processing worker runs every frame through its own
    /// working set. Results are **bit-identical** either way and the host
    /// runs the same build; what changes is the *modeled* preprocessing
    /// cost of warm frames. The resolved policy is reported in
    /// [`RuntimeReport::preproc_reuse`](crate::RuntimeReport::preproc_reuse).
    pub preproc_reuse: Option<PreprocReuse>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            preproc_workers: 1,
            inference_workers: 1,
            queue_capacity: 8,
            admission: AdmissionPolicy::RoundRobin,
            backpressure: BackpressurePolicy::Block,
            arrival: ArrivalModel::Sensor,
            target_points: 1024,
            seed: 0x5EED,
            max_batch: 1,
            telemetry: TelemetryMode::Auto,
            stage_backends: None,
            preproc_reuse: None,
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

    /// Sets the multi-stream admission policy.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
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

    /// Pins the preproc-stage backends for every worker of the run
    /// (bit-identical to the anchors — a host-speed knob only).
    pub fn stage_backends(mut self, stages: StageBackends) -> Self {
        self.stage_backends = Some(stages);
        self
    }

    /// Pins the preprocessing state policy for the run instead of the
    /// default `On` (bit-identical results either way — a modeled-cost
    /// and host-speed knob).
    pub fn preproc_reuse(mut self, policy: PreprocReuse) -> Self {
        self.preproc_reuse = Some(policy);
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
            .admission(AdmissionPolicy::WeightedFair)
            .backpressure(BackpressurePolicy::DropOldest)
            .arrival(ArrivalModel::Backlogged)
            .target_points(256)
            .seed(42)
            .max_batch(8)
            .telemetry(TelemetryMode::On)
            .stage_backends(StageBackends::anchor())
            .preproc_reuse(PreprocReuse::Off);
        assert_eq!(cfg.preproc_workers, 3);
        assert_eq!(cfg.inference_workers, 2);
        assert_eq!(cfg.queue_capacity, 5);
        assert_eq!(cfg.admission, AdmissionPolicy::WeightedFair);
        assert_eq!(cfg.backpressure, BackpressurePolicy::DropOldest);
        assert_eq!(cfg.arrival, ArrivalModel::Backlogged);
        assert_eq!(cfg.target_points, 256);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.telemetry, TelemetryMode::On);
        assert_eq!(cfg.stage_backends, Some(StageBackends::anchor()));
        assert_eq!(cfg.preproc_reuse, Some(PreprocReuse::Off));
        assert_eq!(RuntimeConfig::default().stage_backends, None);
        assert_eq!(RuntimeConfig::default().preproc_reuse, None);
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

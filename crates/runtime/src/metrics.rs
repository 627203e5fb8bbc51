//! Per-stream and aggregate serving metrics.
//!
//! All latencies here are **modeled** latencies from the workspace's
//! deterministic cost models, accumulated on a virtual clock by the real
//! worker threads; wall-clock numbers are reported separately. The
//! aggregate [`RuntimeReport`] cross-validates the runtime's achieved
//! virtual throughput against the analytical
//! [`RealtimeReport::pipelined_fps`](hgpcn_system::realtime::RealtimeReport).

use std::fmt;
use std::time::Duration;

use hgpcn_memsim::Latency;
use hgpcn_pcn::StageBackends;
use hgpcn_system::realtime::RealtimeReport;
use hgpcn_system::E2eReport;

/// The resolved preproc-stage backend names of a run — one entry per
/// dispatch seam of the frame pipeline (sampling scoreboard scan,
/// neighbor top-K selection, FP interpolation). Like
/// [`RuntimeReport::kernel_backend`] this is host-speed provenance, not
/// a result qualifier: every backend is bit-identical to its scalar
/// anchor, so two runs differing only here produce identical logits,
/// modeled latencies and report timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageBackendNames {
    /// OIS scoreboard-scan backend (`hgpcn_sampling::SamplingKernel::name`).
    pub sampling: &'static str,
    /// Neighbor top-K selection backend (`hgpcn_gather::GatherKernel::name`).
    pub gather: &'static str,
    /// FP-interpolation backend (`hgpcn_pcn::InterpolateKernel::name`).
    pub interpolate: &'static str,
}

impl StageBackendNames {
    /// `(stage, backend)` pairs in pipeline order — the iteration the
    /// report renderers share.
    pub fn as_pairs(&self) -> [(&'static str, &'static str); 3] {
        [
            ("sampling", self.sampling),
            ("gather", self.gather),
            ("interpolate", self.interpolate),
        ]
    }
}

impl From<StageBackends> for StageBackendNames {
    fn from(stages: StageBackends) -> StageBackendNames {
        StageBackendNames {
            sampling: stages.sampling.name(),
            gather: stages.gather.name(),
            interpolate: stages.interpolate.name(),
        }
    }
}

impl fmt::Display for StageBackendNames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sampling={} gather={} interpolate={}",
            self.sampling, self.gather, self.interpolate
        )
    }
}

/// One frame's complete journey, recorded by the worker that finished it.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// Owning stream.
    pub stream_id: usize,
    /// Per-stream sequence number.
    pub frame_index: usize,
    /// Sensor timestamp of the frame.
    pub sensor_ts_s: f64,
    /// Virtual arrival time (sensor timestamp, or 0 when backlogged).
    pub virtual_arrival_s: f64,
    /// Virtual time the pre-processing stage began serving the frame
    /// (`>= virtual_arrival_s`; the gap is ingress queue wait).
    pub virtual_preproc_start_s: f64,
    /// Virtual time the pre-processing stage finished the frame.
    pub virtual_preproc_done_s: f64,
    /// Virtual time the inference stage began serving the frame
    /// (`>= virtual_preproc_done_s`; the gap is stage queue wait).
    pub virtual_infer_start_s: f64,
    /// Virtual time the inference stage finished the frame.
    pub virtual_done_s: f64,
    /// Modeled per-phase latencies and op counts.
    pub modeled: E2eReport,
    /// Ingress-queue dequeue ticket (proves FIFO admission order).
    pub preproc_ticket: u64,
    /// Stage-queue dequeue ticket.
    pub inference_ticket: u64,
    /// Host wall-clock seconds the pre-processing engine call took.
    pub wall_preproc_s: f64,
    /// Host wall-clock seconds of this frame's share of its inference
    /// engine call: the call's wall time split evenly over its frames,
    /// whose sub-batches may have run in parallel on the host's cores.
    pub wall_infer_s: f64,
    /// Wall-clock instant (relative to run start) the frame completed.
    pub wall_done: Duration,
    /// Whether preprocessing landed on the stream's previous root grid
    /// and was priced as the temporal-coherence delta pass. Modeled-cost
    /// provenance only: the host build is the same, and warm and cold
    /// frames carry bit-identical sampled clouds and logits.
    pub preproc_reused: bool,
}

/// Percentile summary of a latency population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: Latency,
    /// 95th percentile.
    pub p95: Latency,
    /// 99th percentile.
    pub p99: Latency,
    /// Worst observation.
    pub max: Latency,
    /// Arithmetic mean.
    pub mean: Latency,
}

impl LatencySummary {
    /// Summarizes `samples` (need not be sorted). Returns zeros for an
    /// empty population. Non-finite samples (degenerate cost-model
    /// arithmetic, e.g. `∞ × 0`) are excluded from the population
    /// instead of panicking mid-report.
    pub fn from_samples(samples: &[Latency]) -> LatencySummary {
        let mut ns: Vec<f64> = samples
            .iter()
            .map(|l| l.ns())
            .filter(|n| n.is_finite())
            .collect();
        if ns.is_empty() {
            let z = Latency::ZERO;
            return LatencySummary {
                p50: z,
                p95: z,
                p99: z,
                max: z,
                mean: z,
            };
        }
        // total_cmp, not partial_cmp().expect("finite latencies"): even
        // if the filter above ever changes, sorting must not be the
        // thing that aborts a finished run's report.
        ns.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| -> Latency {
            let idx = ((ns.len() - 1) as f64 * q).round() as usize;
            Latency::from_ns(ns[idx])
        };
        LatencySummary {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: Latency::from_ns(*ns.last().expect("nonempty")),
            mean: Latency::from_ns(ns.iter().sum::<f64>() / ns.len() as f64),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {} | p95 {} | p99 {} | max {} | mean {}",
            self.p50, self.p95, self.p99, self.max, self.mean
        )
    }
}

/// Serving metrics for one stream.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Stream index in the submitted list.
    pub stream_id: usize,
    /// Stream name from its [`StreamSpec`](crate::StreamSpec).
    pub name: String,
    /// Frames the source produced.
    pub offered: usize,
    /// Frames completing inference.
    pub completed: usize,
    /// Frames evicted by `DropOldest` backpressure.
    pub dropped: usize,
    /// The sensor's nominal generation rate.
    pub sensor_fps: f64,
    /// The preproc-stage backends that served this stream — always
    /// [`StageBackends::active`], repeated here so a per-stream consumer
    /// need not join against the run report.
    pub stage_backends: StageBackendNames,
    /// Always `"on"`: every stream keeps its previous frame. Kept only
    /// because `benchmark/` checks it; it goes with the next benchmark
    /// change (ROADMAP item 5).
    pub preproc_reuse: &'static str,
    /// Frames of this stream whose preprocessing was priced as the
    /// temporal-coherence delta pass.
    pub preproc_reuse_hits: u64,
    /// Frames priced as a full build (first frame, root-AABB drift).
    /// Hits staying at zero while frames flow means warm pricing never
    /// engages — the silent-fallback diagnostic.
    pub preproc_reuse_misses: u64,
    /// Completed frames per virtual second, over this stream's span of
    /// virtual time (arrival of first frame to completion of last).
    pub achieved_fps: f64,
    /// Modeled service time per frame (preprocess + inference).
    pub service: LatencySummary,
    /// Modeled sojourn per frame (virtual completion − virtual arrival;
    /// includes pipeline queueing).
    pub sojourn: LatencySummary,
    /// Where this stream's sojourn went: queue wait vs service, per
    /// stage (the components telescope back to `sojourn`).
    pub breakdown: StageBreakdown,
}

impl StreamReport {
    /// Fraction of offered frames that completed.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }
}

/// Occupancy statistics of one inter-stage queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Deepest observed occupancy.
    pub high_water: usize,
    /// Frames evicted (drop-oldest only; zero under `Block`).
    pub dropped: u64,
}

/// Virtual-time queue-depth reconstruction for one inter-stage queue.
///
/// [`QueueStats::high_water`] is the *live* occupancy the real queue
/// observed, which depends on host thread interleaving. This is the
/// **modeled** occupancy on the virtual clock, reconstructed post-hoc
/// from frame records (a frame occupies the queue from the moment it
/// becomes available until its next stage starts serving it) — fully
/// deterministic, and timestamped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueDepthStats {
    /// Deepest modeled occupancy.
    pub high_water: usize,
    /// Virtual time at which the high-water mark was first reached.
    pub high_water_vts_s: f64,
    /// `(virtual_time, depth)` after every occupancy change, in time
    /// order — the queue-depth time series.
    pub samples: Vec<(f64, usize)>,
}

impl QueueDepthStats {
    /// Reconstructs the series from `(virtual_time, +1 | -1)` occupancy
    /// deltas. At equal timestamps departures apply before arrivals, so
    /// a frame handed straight to an idle worker never counts as queued.
    pub fn from_deltas(mut deltas: Vec<(f64, i64)>) -> QueueDepthStats {
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut depth = 0i64;
        let mut stats = QueueDepthStats::default();
        for (t, d) in deltas {
            depth += d;
            let depth_u = depth.max(0) as usize;
            stats.samples.push((t, depth_u));
            if depth_u > stats.high_water {
                stats.high_water = depth_u;
                stats.high_water_vts_s = t;
            }
        }
        stats
    }
}

/// Per-stage latency attribution for a set of frames: where each
/// frame's sojourn went, split into queue wait and service per stage.
///
/// Built from [`FrameRecord`]s for every run (telemetry on or off).
/// The four components telescope exactly:
/// `preproc_wait + preproc_service + infer_wait + infer_service =
/// sojourn` per frame, so the component means sum to the sojourn mean
/// (asserted in the runtime's telemetry tests).
#[derive(Clone, Debug, PartialEq)]
pub struct StageBreakdown {
    /// Frames attributed.
    pub frames: usize,
    /// Ingress queue wait (`virtual_preproc_start − virtual_arrival`).
    pub preproc_wait: LatencySummary,
    /// Pre-processing service (`virtual_preproc_done − virtual_preproc_start`).
    pub preproc_service: LatencySummary,
    /// Stage queue wait (`virtual_infer_start − virtual_preproc_done`).
    pub infer_wait: LatencySummary,
    /// Inference service (`virtual_done − virtual_infer_start`).
    pub infer_service: LatencySummary,
    /// Total virtual seconds of pre-processing service.
    pub virtual_preproc_busy_s: f64,
    /// Total virtual seconds of inference service.
    pub virtual_infer_busy_s: f64,
    /// Total virtual seconds spent waiting in queues (both stages).
    pub virtual_wait_s: f64,
    /// Total host wall seconds of pre-processing engine calls.
    pub wall_preproc_s: f64,
    /// Total host wall seconds of inference engine calls.
    pub wall_infer_s: f64,
}

impl StageBreakdown {
    /// Attributes every record in `records`.
    pub fn from_records<'a, I>(records: I) -> StageBreakdown
    where
        I: IntoIterator<Item = &'a FrameRecord>,
    {
        let mut pre_wait = Vec::new();
        let mut pre_service = Vec::new();
        let mut inf_wait = Vec::new();
        let mut inf_service = Vec::new();
        let mut wall_preproc_s = 0.0;
        let mut wall_infer_s = 0.0;
        for r in records {
            pre_wait.push(Latency::from_secs(
                r.virtual_preproc_start_s - r.virtual_arrival_s,
            ));
            pre_service.push(Latency::from_secs(
                r.virtual_preproc_done_s - r.virtual_preproc_start_s,
            ));
            inf_wait.push(Latency::from_secs(
                r.virtual_infer_start_s - r.virtual_preproc_done_s,
            ));
            inf_service.push(Latency::from_secs(
                r.virtual_done_s - r.virtual_infer_start_s,
            ));
            wall_preproc_s += r.wall_preproc_s;
            wall_infer_s += r.wall_infer_s;
        }
        let sum_s = |v: &[Latency]| v.iter().map(|l| l.secs()).sum::<f64>();
        StageBreakdown {
            frames: pre_wait.len(),
            virtual_preproc_busy_s: sum_s(&pre_service),
            virtual_infer_busy_s: sum_s(&inf_service),
            virtual_wait_s: sum_s(&pre_wait) + sum_s(&inf_wait),
            wall_preproc_s,
            wall_infer_s,
            preproc_wait: LatencySummary::from_samples(&pre_wait),
            preproc_service: LatencySummary::from_samples(&pre_service),
            infer_wait: LatencySummary::from_samples(&inf_wait),
            infer_service: LatencySummary::from_samples(&inf_service),
        }
    }

    /// Sum of the four component means — equals the sojourn mean of the
    /// same records, up to floating-point rounding.
    pub fn mean_sojourn(&self) -> Latency {
        Latency::from_ns(
            self.preproc_wait.mean.ns()
                + self.preproc_service.mean.ns()
                + self.infer_wait.mean.ns()
                + self.infer_service.mean.ns(),
        )
    }
}

impl fmt::Display for StageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "preproc: wait {} | service {}",
            self.preproc_wait, self.preproc_service
        )?;
        write!(
            f,
            "infer:   wait {} | service {}",
            self.infer_wait, self.infer_service
        )
    }
}

/// Worker-pool busy fractions over the run's virtual makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerUtilization {
    /// Pre-processing pool: busy virtual time / (makespan × workers).
    pub preproc_busy: f64,
    /// Inference pool: busy virtual time / (makespan × workers).
    pub infer_busy: f64,
}

impl WorkerUtilization {
    /// Idle fraction of the pre-processing pool.
    pub fn preproc_idle(&self) -> f64 {
        (1.0 - self.preproc_busy).max(0.0)
    }

    /// Idle fraction of the inference pool.
    pub fn infer_idle(&self) -> f64 {
        (1.0 - self.infer_busy).max(0.0)
    }
}

/// The run-level figures every [`RuntimeReport`] derives from its
/// records alone — one derivation shared by a session's live and final
/// reports.
pub(crate) struct RunSummary {
    pub(crate) virtual_makespan_s: f64,
    pub(crate) modeled_pipelined_fps: f64,
    pub(crate) breakdown: StageBreakdown,
    pub(crate) utilization: WorkerUtilization,
    pub(crate) ingress_depth: QueueDepthStats,
    pub(crate) stage_depth: QueueDepthStats,
}

impl RunSummary {
    /// Summarizes `records` as served by pools of the given sizes.
    pub(crate) fn from_records(
        records: &[FrameRecord],
        preproc_workers: usize,
        inference_workers: usize,
    ) -> RunSummary {
        let earliest_arrival = records
            .iter()
            .map(|r| r.virtual_arrival_s)
            .fold(f64::INFINITY, f64::min);
        let latest_done = records
            .iter()
            .map(|r| r.virtual_done_s)
            .fold(0.0f64, f64::max);
        let virtual_makespan_s = if records.is_empty() {
            0.0
        } else {
            (latest_done - earliest_arrival).max(0.0)
        };
        let modeled_pipelined_fps = if virtual_makespan_s > 1e-12 {
            records.len() as f64 / virtual_makespan_s
        } else {
            0.0
        };
        let breakdown = StageBreakdown::from_records(records);
        let utilization = if virtual_makespan_s > 1e-12 {
            WorkerUtilization {
                preproc_busy: breakdown.virtual_preproc_busy_s
                    / (virtual_makespan_s * preproc_workers as f64),
                infer_busy: breakdown.virtual_infer_busy_s
                    / (virtual_makespan_s * inference_workers as f64),
            }
        } else {
            WorkerUtilization::default()
        };
        let ingress_depth = QueueDepthStats::from_deltas(
            records
                .iter()
                .flat_map(|r| [(r.virtual_arrival_s, 1), (r.virtual_preproc_start_s, -1)])
                .collect(),
        );
        let stage_depth = QueueDepthStats::from_deltas(
            records
                .iter()
                .flat_map(|r| [(r.virtual_preproc_done_s, 1), (r.virtual_infer_start_s, -1)])
                .collect(),
        );
        RunSummary {
            virtual_makespan_s,
            modeled_pipelined_fps,
            breakdown,
            utilization,
            ingress_depth,
            stage_depth,
        }
    }
}

/// The optional telemetry payload of a traced run: the merged frame
/// lifecycle trace and the populated metrics registry.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Merged, time-ordered lifecycle events
    /// ([`Trace::chrome_trace_json`](hgpcn_telemetry::Trace::chrome_trace_json)
    /// exports them for `chrome://tracing` / Perfetto).
    pub trace: hgpcn_telemetry::Trace,
    /// Counters, gauges and histograms
    /// ([`Registry::prometheus_text`](hgpcn_telemetry::Registry::prometheus_text)
    /// is the `/metrics` payload).
    pub metrics: hgpcn_telemetry::Registry,
}

/// Micro-batching behaviour of one run's inference stage.
///
/// Every completed frame is counted in exactly one micro-batch (one
/// single-tier engine call): at `max_batch 1`, or whenever nothing else
/// was queued, that is a batch of one, so only a run that completed no
/// frame reports zero `batches`. Comparing a coalescing run's throughput
/// against a `max_batch 1` one is [`RuntimeReport::wall_speedup_over`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchingStats {
    /// Configured micro-batch ceiling.
    pub max_batch: usize,
    /// Micro-batches the inference pool executed.
    pub batches: usize,
    /// Largest micro-batch actually coalesced.
    pub largest_batch: usize,
    /// Mean frames per micro-batch (1.0 when no batch ran).
    pub mean_batch_size: f64,
    /// Frames that shared a micro-batch with at least one other frame.
    pub coalesced_frames: usize,
}

impl BatchingStats {
    /// Summarizes the batch sizes one run produced.
    pub fn from_sizes(max_batch: usize, sizes: &[usize]) -> BatchingStats {
        let batches = sizes.len();
        let frames: usize = sizes.iter().sum();
        BatchingStats {
            max_batch,
            batches,
            largest_batch: sizes.iter().copied().max().unwrap_or(0),
            mean_batch_size: if batches == 0 {
                1.0
            } else {
                frames as f64 / batches as f64
            },
            coalesced_frames: sizes.iter().filter(|&&s| s > 1).sum(),
        }
    }
}

/// Aggregate outcome of one [`Runtime::run`](crate::Runtime::run).
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Per-stream metrics, in stream-id order.
    pub streams: Vec<StreamReport>,
    /// Frames completing inference across all streams.
    pub total_frames: usize,
    /// Frames dropped across all streams.
    pub total_dropped: usize,
    /// Pre-processing worker-pool size used.
    pub preproc_workers: usize,
    /// Inference worker-pool size used.
    pub inference_workers: usize,
    /// Ingress (admission → preprocess) queue stats.
    pub ingress_queue: QueueStats,
    /// Stage (preprocess → inference) queue stats.
    pub stage_queue: QueueStats,
    /// Virtual time from the earliest arrival to the last completion.
    pub virtual_makespan_s: f64,
    /// Achieved throughput on the virtual clock:
    /// `total_frames / virtual_makespan_s`.
    pub modeled_pipelined_fps: f64,
    /// Wall-clock duration of the run (host execution speed — unrelated
    /// to the modeled hardware's throughput).
    pub wall_elapsed: Duration,
    /// The matmul kernel backend the served network dispatched to
    /// (`hgpcn_pcn::LinearKernel::name`) — results are bit-identical
    /// across backends, so this is host-speed provenance, not a result
    /// qualifier.
    pub kernel_backend: &'static str,
    /// The preproc-stage backends every worker of the run dispatched to:
    /// always [`StageBackends::active`]. Host-speed provenance like
    /// `kernel_backend`.
    pub stage_backends: StageBackendNames,
    /// Always `"on"`: every stream keeps its previous frame. Kept only
    /// because `benchmark/` checks it; it goes with the next benchmark
    /// change (ROADMAP item 5).
    pub preproc_reuse: &'static str,
    /// Frames across all streams whose preprocessing was priced as the
    /// temporal-coherence delta pass.
    pub preproc_reuse_hits: u64,
    /// Frames across all streams priced as a full build.
    pub preproc_reuse_misses: u64,
    /// Micro-batching behaviour of the inference stage.
    pub batching: BatchingStats,
    /// Aggregate per-stage attribution across all streams.
    pub breakdown: StageBreakdown,
    /// Worker-pool busy fractions over the virtual makespan.
    pub utilization: WorkerUtilization,
    /// Modeled ingress-queue occupancy time series (virtual clock).
    pub ingress_depth: QueueDepthStats,
    /// Modeled stage-queue occupancy time series (virtual clock).
    pub stage_depth: QueueDepthStats,
    /// Trace and metrics of the run, when telemetry was enabled
    /// ([`RuntimeConfig::telemetry`](crate::RuntimeConfig::telemetry));
    /// `None` for an untraced run.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Every completed frame's journey, sorted by `(stream, frame)`.
    pub records: Vec<FrameRecord>,
}

impl RuntimeReport {
    /// Host-side throughput (frames per wall-clock second).
    pub fn wall_fps(&self) -> f64 {
        self.total_frames as f64 / self.wall_elapsed.as_secs_f64().max(1e-12)
    }

    /// Coalescing-vs-singleton throughput: this run's host throughput
    /// over `baseline`'s. Run the same fleet twice — once with
    /// `max_batch: 1`, once with a higher ceiling — and this is the
    /// single-machine speedup coalescing delivers (per-frame modeled
    /// results are identical by construction, so only wall time differs).
    pub fn wall_speedup_over(&self, baseline: &RuntimeReport) -> f64 {
        self.wall_fps() / baseline.wall_fps().max(1e-12)
    }

    /// Fraction of preprocessed frames priced warm:
    /// `hits / (hits + misses)`, or 0.0 when nothing was preprocessed.
    /// With reuse `on` and temporally coherent streams this approaches
    /// `(n − streams) / n`; a value of 0.0 while frames flowed is the
    /// silent-fallback diagnostic (AABB drifting every frame).
    pub fn preproc_warm_ratio(&self) -> f64 {
        let total = self.preproc_reuse_hits + self.preproc_reuse_misses;
        if total == 0 {
            return 0.0;
        }
        self.preproc_reuse_hits as f64 / total as f64
    }

    /// Populates a metrics registry from this report: frame counters
    /// and achieved-FPS gauges per stream, run-level throughput and
    /// utilization gauges, and per-stage service / queue-wait / sojourn
    /// / queue-depth histograms. Everything here derives from the
    /// deterministic virtual timeline except the two `wall` gauges.
    ///
    /// This is what a traced run stores in
    /// [`TelemetrySnapshot::metrics`], and what the HTTP front end
    /// renders on `/metrics`
    /// ([`Registry::prometheus_text`](hgpcn_telemetry::Registry::prometheus_text)).
    pub fn build_metrics(&self) -> hgpcn_telemetry::Registry {
        let mut reg = hgpcn_telemetry::Registry::new();
        for s in &self.streams {
            let labels = [("stream", s.name.as_str())];
            reg.counter_add(
                "hgpcn_frames_offered_total",
                "Frames offered by stream sources",
                &labels,
                s.offered as u64,
            );
            reg.counter_add(
                "hgpcn_frames_completed_total",
                "Frames completing inference",
                &labels,
                s.completed as u64,
            );
            reg.counter_add(
                "hgpcn_frames_dropped_total",
                "Frames evicted by backpressure",
                &labels,
                s.dropped as u64,
            );
            reg.gauge_set(
                "hgpcn_stream_achieved_fps",
                "Per-stream achieved virtual-clock throughput",
                &labels,
                s.achieved_fps,
            );
            reg.counter_add(
                "hgpcn_preproc_reuse_hits_total",
                "Frames priced as the temporal-coherence warm delta pass",
                &labels,
                s.preproc_reuse_hits,
            );
            reg.counter_add(
                "hgpcn_preproc_reuse_misses_total",
                "Frames priced as a full cold rebuild",
                &labels,
                s.preproc_reuse_misses,
            );
        }
        reg.gauge_set(
            "hgpcn_modeled_fps",
            "Achieved virtual-clock throughput of the run",
            &[],
            self.modeled_pipelined_fps,
        );
        reg.gauge_set(
            "hgpcn_wall_fps",
            "Host wall-clock throughput of the run",
            &[],
            self.wall_fps(),
        );
        reg.gauge_set(
            "hgpcn_virtual_makespan_seconds",
            "Virtual time from first arrival to last completion",
            &[],
            self.virtual_makespan_s,
        );
        for (stage, busy) in [
            ("preproc", self.utilization.preproc_busy),
            ("infer", self.utilization.infer_busy),
        ] {
            reg.gauge_set(
                "hgpcn_worker_busy_ratio",
                "Worker-pool busy fraction over the virtual makespan",
                &[("stage", stage)],
                busy,
            );
        }
        // Absent only until the first frame completes: every frame runs
        // in a micro-batch, a lone one in a batch of one.
        if self.batching.batches > 0 {
            reg.counter_add(
                "hgpcn_micro_batches_total",
                "Micro-batches the inference pool executed",
                &[],
                self.batching.batches as u64,
            );
            reg.gauge_set(
                "hgpcn_mean_batch_size",
                "Mean frames per micro-batch",
                &[],
                self.batching.mean_batch_size,
            );
        }
        for r in &self.records {
            reg.histogram_record(
                "hgpcn_stage_service_seconds",
                "Modeled per-stage service time",
                &[("stage", "preproc")],
                r.virtual_preproc_done_s - r.virtual_preproc_start_s,
            );
            reg.histogram_record(
                "hgpcn_stage_service_seconds",
                "Modeled per-stage service time",
                &[("stage", "infer")],
                r.virtual_done_s - r.virtual_infer_start_s,
            );
            reg.histogram_record(
                "hgpcn_queue_wait_seconds",
                "Modeled time queued between stages",
                &[("queue", "ingress")],
                r.virtual_preproc_start_s - r.virtual_arrival_s,
            );
            reg.histogram_record(
                "hgpcn_queue_wait_seconds",
                "Modeled time queued between stages",
                &[("queue", "stage")],
                r.virtual_infer_start_s - r.virtual_preproc_done_s,
            );
            reg.histogram_record(
                "hgpcn_sojourn_seconds",
                "Modeled end-to-end frame sojourn",
                &[],
                r.virtual_done_s - r.virtual_arrival_s,
            );
        }
        for (queue, depth) in [
            ("ingress", &self.ingress_depth),
            ("stage", &self.stage_depth),
        ] {
            for &(_, d) in &depth.samples {
                reg.histogram_record(
                    "hgpcn_queue_depth",
                    "Modeled queue occupancy after each change",
                    &[("queue", queue)],
                    d as f64,
                );
            }
        }
        reg
    }

    /// Cross-validates this run against the analytical model.
    ///
    /// See [`CrossValidation`] for the tolerance rationale.
    pub fn validate_against(&self, analytical: &RealtimeReport) -> CrossValidation {
        CrossValidation {
            measured_fps: self.modeled_pipelined_fps,
            analytical_fps: analytical.pipelined_fps,
            tolerance: DEFAULT_VALIDATION_TOLERANCE,
        }
    }
}

/// Default relative tolerance for [`RuntimeReport::validate_against`].
///
/// The analytical `pipelined_fps` is `1 / max_t max(pre_t, inf_t)` — a
/// worst-frame bound — while the runtime measures `n / makespan`, which
/// reflects *mean* stage occupancy plus one pipeline fill. For a stream
/// of similar-sized frames the two agree closely; the mean-vs-max gap
/// and the `1/n` fill overhead bound the disagreement well inside ±25%
/// for the frame counts the experiments use (n ≥ 16). A measured value
/// below `1 − tolerance` indicates the executor lost overlap (stalled
/// queues); above `1 + tolerance`, that the analytical bound is loose
/// for the workload (high frame-to-frame variance).
pub const DEFAULT_VALIDATION_TOLERANCE: f64 = 0.25;

/// Comparison of measured (virtual-clock) vs analytical throughput.
#[derive(Clone, Copy, Debug)]
pub struct CrossValidation {
    /// The runtime's achieved virtual throughput.
    pub measured_fps: f64,
    /// The analytical two-stage bound.
    pub analytical_fps: f64,
    /// Relative tolerance for agreement.
    pub tolerance: f64,
}

impl CrossValidation {
    /// `measured / analytical`.
    pub fn ratio(&self) -> f64 {
        self.measured_fps / self.analytical_fps.max(1e-12)
    }

    /// Whether the two agree within the tolerance.
    pub fn agrees(&self) -> bool {
        (self.ratio() - 1.0).abs() <= self.tolerance
    }
}

impl fmt::Display for CrossValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "measured {:.2} FPS vs analytical {:.2} FPS (ratio {:.3}, tolerance ±{:.0}%: {})",
            self.measured_fps,
            self.analytical_fps,
            self.ratio(),
            self.tolerance * 100.0,
            if self.agrees() { "agree" } else { "DISAGREE" },
        )
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RuntimeReport: {} frames ({} dropped) | {}+{} workers | kernel {} | stages {} | reuse {} ({} warm / {} cold) | virtual makespan {:.3} s | {:.2} modeled FPS | wall {:.2?} ({:.1} frames/s host)",
            self.total_frames,
            self.total_dropped,
            self.preproc_workers,
            self.inference_workers,
            self.kernel_backend,
            self.stage_backends,
            self.preproc_reuse,
            self.preproc_reuse_hits,
            self.preproc_reuse_misses,
            self.virtual_makespan_s,
            self.modeled_pipelined_fps,
            self.wall_elapsed,
            self.wall_fps(),
        )?;
        writeln!(
            f,
            "  queues: ingress high-water {} (dropped {}), stage high-water {} (dropped {})",
            self.ingress_queue.high_water,
            self.ingress_queue.dropped,
            self.stage_queue.high_water,
            self.stage_queue.dropped,
        )?;
        writeln!(
            f,
            "  modeled depth: ingress high-water {} @ {:.3} s, stage high-water {} @ {:.3} s",
            self.ingress_depth.high_water,
            self.ingress_depth.high_water_vts_s,
            self.stage_depth.high_water,
            self.stage_depth.high_water_vts_s,
        )?;
        writeln!(
            f,
            "  utilization: preproc {:.1}% busy / {:.1}% idle, infer {:.1}% busy / {:.1}% idle",
            self.utilization.preproc_busy * 100.0,
            self.utilization.preproc_idle() * 100.0,
            self.utilization.infer_busy * 100.0,
            self.utilization.infer_idle() * 100.0,
        )?;
        if self.batching.batches > 0 {
            writeln!(
                f,
                "  batching: {} micro-batches (max {}, largest {}, mean {:.2}), {} frames coalesced",
                self.batching.batches,
                self.batching.max_batch,
                self.batching.largest_batch,
                self.batching.mean_batch_size,
                self.batching.coalesced_frames,
            )?;
        }
        for s in &self.streams {
            writeln!(
                f,
                "  [{}] {}: {}/{} frames (dropped {}), sensor {:.1} FPS, achieved {:.2} FPS",
                s.stream_id,
                s.name,
                s.completed,
                s.offered,
                s.dropped,
                s.sensor_fps,
                s.achieved_fps,
            )?;
            writeln!(f, "      service: {}", s.service)?;
            writeln!(f, "      sojourn: {}", s.sojourn)?;
            writeln!(
                f,
                "      stages:  preproc wait {} / service {}, infer wait {} / service {}",
                s.breakdown.preproc_wait.mean,
                s.breakdown.preproc_service.mean,
                s.breakdown.infer_wait.mean,
                s.breakdown.infer_service.mean,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> Latency {
        Latency::from_ms(v)
    }

    #[test]
    fn summary_percentiles_ordered() {
        let samples: Vec<Latency> = (1..=100).map(|i| ms(i as f64)).collect();
        let s = LatencySummary::from_samples(&samples);
        // Nearest-rank on 100 samples: idx = round(99 * q).
        assert_eq!(s.p50, ms(51.0));
        assert_eq!(s.p95, ms(95.0));
        assert_eq!(s.p99, ms(99.0));
        assert_eq!(s.max, ms(100.0));
        assert!((s.mean.ms() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.max, Latency::ZERO);
        assert_eq!(s.mean, Latency::ZERO);
    }

    #[test]
    fn summary_survives_nonfinite_samples() {
        // Regression: summarization used partial_cmp().expect("finite
        // latencies"), so a non-finite sample aborted the whole run's
        // report. (`Latency::from_ns` rejects NaN at construction, so ∞
        // — which it does admit — is the representative non-finite
        // input; the internal f64 path is additionally NaN-safe via the
        // filter + total_cmp.)
        let samples = vec![ms(1.0), Latency::from_ns(f64::INFINITY), ms(2.0)];
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.max, ms(2.0), "non-finite samples are excluded");
        assert_eq!(s.p50, ms(2.0));
        assert!((s.mean.ms() - 1.5).abs() < 1e-12);

        let all_bad = vec![Latency::from_ns(f64::INFINITY)];
        assert_eq!(
            LatencySummary::from_samples(&all_bad).max,
            Latency::ZERO,
            "an all-non-finite population degrades to the empty summary"
        );
    }

    #[test]
    fn queue_depth_reconstruction() {
        // Frames available at t=0,1,2; drained at t=1.5, 2.5, 3.5.
        let stats = QueueDepthStats::from_deltas(vec![
            (0.0, 1),
            (1.0, 1),
            (2.0, 1),
            (1.5, -1),
            (2.5, -1),
            (3.5, -1),
        ]);
        assert_eq!(stats.high_water, 2);
        assert_eq!(stats.high_water_vts_s, 1.0);
        assert_eq!(stats.samples.last(), Some(&(3.5, 0)));
    }

    #[test]
    fn queue_depth_ties_apply_departures_first() {
        // Arrival and departure at the same instant: the frame went
        // straight to an idle worker and never queued.
        let stats = QueueDepthStats::from_deltas(vec![(1.0, 1), (1.0, -1), (1.0, 1)]);
        assert_eq!(stats.high_water, 1);
    }

    fn record(arrival: f64, waits: [f64; 2], services: [f64; 2]) -> FrameRecord {
        use hgpcn_memsim::OpCounts;
        use hgpcn_system::PhaseReport;
        let phase = |s: f64| PhaseReport {
            latency: Latency::from_secs(s),
            counts: OpCounts::default(),
        };
        let pre_start = arrival + waits[0];
        let pre_done = pre_start + services[0];
        let inf_start = pre_done + waits[1];
        FrameRecord {
            stream_id: 0,
            frame_index: 0,
            sensor_ts_s: arrival,
            virtual_arrival_s: arrival,
            virtual_preproc_start_s: pre_start,
            virtual_preproc_done_s: pre_done,
            virtual_infer_start_s: inf_start,
            virtual_done_s: inf_start + services[1],
            modeled: hgpcn_system::E2eReport {
                preprocess: phase(services[0]),
                inference: phase(services[1]),
            },
            preproc_ticket: 0,
            inference_ticket: 0,
            wall_preproc_s: 0.0,
            wall_infer_s: 0.0,
            wall_done: Duration::ZERO,
            preproc_reused: false,
        }
    }

    #[test]
    fn breakdown_telescopes_to_sojourn() {
        let records = vec![
            record(0.0, [0.1, 0.2], [0.3, 0.4]),
            record(1.0, [0.0, 0.5], [0.25, 0.25]),
        ];
        let b = StageBreakdown::from_records(&records);
        assert_eq!(b.frames, 2);
        let sojourns: Vec<Latency> = records
            .iter()
            .map(|r| Latency::from_secs(r.virtual_done_s - r.virtual_arrival_s))
            .collect();
        let sojourn = LatencySummary::from_samples(&sojourns);
        assert!(
            (b.mean_sojourn().secs() - sojourn.mean.secs()).abs() < 1e-9,
            "component means must telescope to the sojourn mean"
        );
        assert!((b.virtual_preproc_busy_s - 0.55).abs() < 1e-12);
        assert!((b.virtual_infer_busy_s - 0.65).abs() < 1e-12);
        assert!((b.virtual_wait_s - 0.8).abs() < 1e-12);
    }

    #[test]
    fn batching_stats_from_sizes() {
        let s = BatchingStats::from_sizes(8, &[8, 8, 3, 1]);
        assert_eq!(s.batches, 4);
        assert_eq!(s.largest_batch, 8);
        assert_eq!(s.coalesced_frames, 19);
        assert!((s.mean_batch_size - 5.0).abs() < 1e-12);

        let serial = BatchingStats::from_sizes(1, &[]);
        assert_eq!(serial.batches, 0);
        assert_eq!(serial.largest_batch, 0);
        assert_eq!(serial.coalesced_frames, 0);
        assert_eq!(serial.mean_batch_size, 1.0);
    }

    #[test]
    fn cross_validation_tolerance() {
        let v = CrossValidation {
            measured_fps: 110.0,
            analytical_fps: 100.0,
            tolerance: 0.25,
        };
        assert!(v.agrees());
        assert!((v.ratio() - 1.1).abs() < 1e-12);
        let bad = CrossValidation {
            measured_fps: 50.0,
            analytical_fps: 100.0,
            tolerance: 0.25,
        };
        assert!(!bad.agrees());
    }
}

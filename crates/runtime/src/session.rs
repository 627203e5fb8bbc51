//! The session-oriented runtime core and its one front end.
//!
//! This module owns the pipeline machinery — bounded queues, the
//! pre-processing and inference worker pools, per-frame accounting —
//! behind [`ServingRuntime`], a **live** runtime. Streams are opened
//! while the pools run ([`ServingRuntime::open_stream`]), frames are
//! pushed one at a time ([`ServingRuntime::submit`] returns a
//! [`FrameTicket`]), results are retrieved by polling
//! ([`ServingRuntime::poll`]), stats are snapshotted mid-flight
//! ([`ServingRuntime::stats`]), and a graceful
//! [`ServingRuntime::shutdown`] drains the backlog and returns the final
//! [`RuntimeReport`]. Engine failures resolve the failing frame's ticket
//! ([`FrameStatus::Failed`]) without killing the runtime — a server
//! keeps serving. A worker panic tears the session down: pending tickets
//! then resolve to [`RuntimeError::ShuttingDown`] and `shutdown`
//! re-raises the panic.
//!
//! [`Runtime::run`](crate::Runtime::run) is a client of the same API: it
//! submits a fleet's frames from the caller's thread and collects the
//! shutdown report. Frame identity is `(stream_id, frame_index)`, and a
//! fresh core starts all worker clocks at zero, so the same frames
//! submitted in the same order produce bit-identical [`FrameRecord`]s
//! whoever submits them.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hgpcn_geometry::PointCloud;
use hgpcn_pcn::{InferenceOutput, PointNet, StageBackends};
use hgpcn_system::{
    E2ePipeline, E2eReport, InferenceEngine, InferenceReport, PhaseReport, PreviousFrame,
    StreamPreprocContext, SystemError,
};
use hgpcn_telemetry::TelemetryMode;

use crate::config::{ArrivalModel, BackpressurePolicy, RuntimeConfig};
use crate::metrics::{
    lifecycle_trace, BatchingStats, FrameRecord, LatencySummary, QueueStats, RunSummary,
    RuntimeReport, StageBackendNames, StageBreakdown, StreamReport, TelemetrySnapshot,
};
use crate::queue::BoundedQueue;
use crate::stream::{StreamProfile, TimedFrame};
use crate::{frame_seed, RuntimeError};

/// A frame admitted to the pre-processing stage.
#[derive(Debug)]
struct PreprocJob {
    frame: TimedFrame,
    virtual_arrival_s: f64,
}

/// A pre-processed frame awaiting inference.
#[derive(Debug)]
struct StageJob {
    stream_id: usize,
    frame_index: usize,
    sensor_ts_s: f64,
    virtual_arrival_s: f64,
    virtual_preproc_start_s: f64,
    virtual_preproc_done_s: f64,
    preproc_ticket: u64,
    preproc_worker: usize,
    wall_preproc_start: Duration,
    wall_preproc_s: f64,
    sampled: PointCloud,
    pre_phase: PhaseReport,
    /// Whether preprocessing was priced as the temporal-coherence delta
    /// pass.
    preproc_reused: bool,
}

// ---------------------------------------------------------------------
// Stream-scoped previous frames.
//
// Each pre-processing worker owns one working set (`StreamPreprocContext`)
// and a stream owns only its previous frame, which the worker swaps into
// its working set for the length of the stream's frame.
//
// A frame's *results* are bit-identical from any cache state, but its
// modeled cost (warm vs cold, dirty counts) depends on which frame last
// primed the cache. To keep modeled latencies a pure function of
// submission order at any worker count, previous-frame updates are
// serialized into frame order per stream: the worker holding frame f waits
// for its turn (`next == f`), frames evicted before preprocessing are
// skipped over, and teardown aborts the turn discipline so waiters never
// outlive the run. Deadlock-free by induction: ingress pops are FIFO,
// so the earliest-popped unfinished frame's stream predecessors have
// all finished — its worker never waits.
// ---------------------------------------------------------------------

/// One stream's context slot: its [`PreviousFrame`] and warm/cold tally,
/// plus the turn state serializing their updates into frame order.
struct CtxSlot {
    inner: Mutex<CtxInner>,
    turn: Condvar,
}

struct CtxInner {
    /// The next frame index allowed to update the previous frame.
    next: usize,
    /// Admitted frames evicted before preprocessing; `next` advances
    /// over them instead of waiting for work that will never arrive.
    skipped: BTreeSet<usize>,
    prev: PreviousFrame,
    /// Frames priced as the delta pass, and frames priced in full.
    hits: u64,
    misses: u64,
}

impl CtxSlot {
    fn new() -> CtxSlot {
        CtxSlot {
            inner: Mutex::new(CtxInner {
                next: 0,
                skipped: BTreeSet::new(),
                prev: PreviousFrame::new(),
                hits: 0,
                misses: 0,
            }),
            turn: Condvar::new(),
        }
    }

    /// Advances the turn past `frame_index` (just finished, failed, or
    /// evicted) and wakes waiters. A no-op for out-of-turn completions
    /// (aborted-mode processing).
    fn advance_locked(&self, inner: &mut CtxInner, frame_index: usize) {
        if inner.next == frame_index {
            inner.next = frame_index + 1;
            while inner.skipped.remove(&inner.next) {
                inner.next += 1;
            }
            self.turn.notify_all();
        }
    }
}

/// The session's registry of per-stream context slots, indexed by
/// stream id (slots are opened alongside streams).
struct CtxRegistry {
    slots: Mutex<Vec<Arc<CtxSlot>>>,
    /// Set on teardown (panic unwind, shutdown-less drop): waiters
    /// proceed out of order instead of waiting on predecessors that were
    /// discarded with the queues.
    aborted: AtomicBool,
}

impl CtxRegistry {
    fn new() -> CtxRegistry {
        CtxRegistry {
            slots: Mutex::new(Vec::new()),
            aborted: AtomicBool::new(false),
        }
    }

    fn open(&self) {
        self.slots
            .lock()
            .expect("context registry poisoned")
            .push(Arc::new(CtxSlot::new()));
    }

    fn slot(&self, stream_id: usize) -> Arc<CtxSlot> {
        Arc::clone(&self.slots.lock().expect("context registry poisoned")[stream_id])
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Marks an admitted-but-evicted frame so the turn can pass it.
    fn skip(&self, stream_id: usize, frame_index: usize) {
        let slot = self.slot(stream_id);
        let mut inner = slot.inner.lock().expect("preproc context poisoned");
        if frame_index == inner.next {
            slot.advance_locked(&mut inner, frame_index);
        } else if frame_index > inner.next {
            inner.skipped.insert(frame_index);
        }
    }

    /// Ends the turn discipline: waiters wake and process unordered
    /// (the run is dying; its reports are already forfeit). Tolerates
    /// poisoned locks — this runs on panic-unwind paths.
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        let slots: Vec<Arc<CtxSlot>> = match self.slots.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        for slot in slots {
            // Take (and immediately release) the slot lock so a waiter
            // between its flag check and `wait` cannot miss the wakeup.
            let _turn = slot.inner.lock();
            slot.turn.notify_all();
        }
    }

    /// Per-stream `(warm hits, cold misses)`, in stream-id order.
    fn counts(&self) -> Vec<(u64, u64)> {
        self.slots
            .lock()
            .expect("context registry poisoned")
            .iter()
            .map(|slot| {
                let inner = slot.inner.lock().expect("preproc context poisoned");
                (inner.hits, inner.misses)
            })
            .collect()
    }
}

/// Tears the session down if the holding worker unwinds, so a panic
/// releases the other workers (blocked on queue condvars or context
/// turns) and every client parked in [`ServingRuntime::wait`] instead of
/// deadlocking them; [`ServingRuntime::shutdown`] then re-raises the
/// panic through the joins.
struct PanicGuard<'a>(&'a SessionCore);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.tear_down();
        }
    }
}

/// Receipt for one submitted frame: poll it to retrieve the result.
///
/// Tickets are deterministic — `(stream_id, frame_index)` — so a client
/// that replays the same submissions gets the same tickets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameTicket {
    /// The owning stream.
    pub stream_id: usize,
    /// Per-stream frame sequence number, assigned at submission.
    pub frame_index: usize,
}

/// A completed frame: the network output plus the frame's full journey.
#[derive(Clone, Debug)]
pub struct FrameResult {
    /// The inference output (logits, op counts).
    pub output: InferenceOutput,
    /// The frame's modeled/virtual-clock journey through the pipeline.
    pub record: FrameRecord,
}

/// Outcome of polling a [`FrameTicket`].
#[derive(Debug)]
pub enum FrameStatus {
    /// Still queued or in flight; poll again.
    Pending,
    /// Inference finished. Delivered at most once: the poll that
    /// observes `Done` consumes the result. (Boxed: a result carries
    /// the full logits matrix and frame record, far larger than the
    /// other variants.)
    Done(Box<FrameResult>),
    /// The frame failed (engine error, or evicted by backpressure).
    /// Also delivered at most once.
    Failed(RuntimeError),
}

/// One open stream in the registry.
#[derive(Clone, Debug)]
struct StreamState {
    name: String,
    nominal_fps: f64,
    offered: usize,
    dropped: usize,
    next_index: usize,
}

/// Shared state of one runtime session — everything the worker loops,
/// the submitters and the pollers touch. Lock order (outer first):
/// `admission` → `streams` → queue internals; `results` and `records`
/// are leaves.
struct SessionCore {
    config: RuntimeConfig,
    kernel_backend: &'static str,
    /// Resolved once per session: how many sub-batches (threads) one
    /// inference call may spread a micro-batch over ([`infer_parts`]).
    infer_parts: usize,
    started: Instant,
    /// Per-stream previous frames, warm/cold tallies and turn state.
    contexts: CtxRegistry,
    ingress: BoundedQueue<PreprocJob>,
    stage: BoundedQueue<StageJob>,
    streams: Mutex<Vec<StreamState>>,
    /// Held across index assignment and enqueue, so concurrent
    /// submitters cannot reorder a stream's frames.
    admission: Mutex<()>,
    /// Ticket → status, from admission until a poll consumes it.
    results: Mutex<HashMap<(usize, usize), FrameStatus>>,
    results_ready: Condvar,
    records: Mutex<Vec<FrameRecord>>,
    preproc_live: AtomicUsize,
}

/// Sub-batches per inference call: the host's cores shared out over the
/// inference workers, at least one. So the pool never runs more inference
/// threads than there are cores, and a pool with a worker per core never
/// splits. Pre-processing workers are not counted: a micro-batch forms
/// only when frames queue at inference, that is while pre-processing is
/// ahead of it.
fn infer_parts(cores: usize, inference_workers: usize) -> usize {
    (cores / inference_workers).max(1)
}

impl SessionCore {
    fn new(config: RuntimeConfig, net: &PointNet) -> SessionCore {
        SessionCore {
            kernel_backend: net.kernel().name(),
            infer_parts: infer_parts(InferenceEngine::host_cores(), config.inference_workers),
            started: Instant::now(),
            contexts: CtxRegistry::new(),
            ingress: BoundedQueue::new(config.queue_capacity),
            stage: BoundedQueue::new(config.queue_capacity),
            streams: Mutex::new(Vec::new()),
            admission: Mutex::new(()),
            results: Mutex::new(HashMap::new()),
            results_ready: Condvar::new(),
            records: Mutex::new(Vec::new()),
            preproc_live: AtomicUsize::new(config.preproc_workers),
            config,
        }
    }

    /// Registers a stream; refused once the session is torn down, since
    /// no frame of it could ever be served.
    fn open_stream(&self, profile: StreamProfile) -> Result<usize, RuntimeError> {
        if self.torn_down() {
            return Err(RuntimeError::ShuttingDown);
        }
        let mut streams = self.streams.lock().expect("stream registry poisoned");
        let id = streams.len();
        // One context slot per stream, so stream ids index the registry.
        self.contexts.open();
        streams.push(StreamState {
            name: profile.name,
            nominal_fps: profile.nominal_fps,
            offered: 0,
            dropped: 0,
            next_index: 0,
        });
        Ok(id)
    }

    /// Assigns the stream's next frame index and admits the frame.
    fn submit(
        &self,
        stream_id: usize,
        sensor_ts_s: f64,
        cloud: PointCloud,
    ) -> Result<FrameTicket, RuntimeError> {
        // The admission lock is taken for the whole assign+enqueue so
        // concurrent submitters cannot reorder a stream's indices; a
        // full ingress queue under `Block` therefore backpressures every
        // submitter, not just this one.
        let _admission = self.admission.lock().expect("admission lock poisoned");
        let frame_index = {
            let mut streams = self.streams.lock().expect("stream registry poisoned");
            let state = streams
                .get_mut(stream_id)
                .ok_or(RuntimeError::UnknownStream { stream_id })?;
            let index = state.next_index;
            state.next_index += 1;
            state.offered += 1;
            index
        };
        let key = (stream_id, frame_index);
        let virtual_arrival_s = match self.config.arrival {
            ArrivalModel::Sensor => sensor_ts_s,
            ArrivalModel::Backlogged => 0.0,
        };
        // The Pending entry must exist before the frame becomes visible
        // to workers, or a fast completion could be overwritten by it.
        self.results
            .lock()
            .expect("result table poisoned")
            .insert(key, FrameStatus::Pending);
        let job = PreprocJob {
            frame: TimedFrame {
                stream_id,
                frame_index,
                sensor_ts_s,
                cloud,
            },
            virtual_arrival_s,
        };
        let pushed = match self.config.backpressure {
            BackpressurePolicy::Block => self.ingress.push_blocking(job).map(|()| None),
            BackpressurePolicy::DropOldest => self.ingress.push_drop_oldest(job),
        };
        match pushed {
            Ok(evicted) => {
                if let Some(evicted) = evicted {
                    self.evicted(evicted);
                }
                Ok(FrameTicket {
                    stream_id,
                    frame_index,
                })
            }
            Err(_) => {
                self.results
                    .lock()
                    .expect("result table poisoned")
                    .remove(&key);
                Err(RuntimeError::ShuttingDown)
            }
        }
    }

    /// Accounts a frame `DropOldest` evicted from the ingress queue and
    /// resolves its ticket.
    fn evicted(&self, job: PreprocJob) {
        let (stream_id, frame_index) = (job.frame.stream_id, job.frame.frame_index);
        self.streams.lock().expect("stream registry poisoned")[stream_id].dropped += 1;
        // The evicted frame will never reach a preproc worker: pass its
        // context turn so successors don't wait for it.
        self.contexts.skip(stream_id, frame_index);
        self.publish(
            (stream_id, frame_index),
            FrameStatus::Failed(RuntimeError::Dropped {
                stream_id,
                frame_index,
            }),
        );
    }

    fn publish(&self, key: (usize, usize), status: FrameStatus) {
        let mut results = self.results.lock().expect("result table poisoned");
        results.insert(key, status);
        self.results_ready.notify_all();
    }

    /// Ends the session after a worker panic or a shutdown-less drop:
    /// discards the backlog, releases workers parked on a context turn
    /// and wakes every waiter, whose still-pending ticket then resolves
    /// to [`RuntimeError::ShuttingDown`]. Tolerates poisoned locks — this
    /// runs on panic-unwind paths.
    fn tear_down(&self) {
        self.ingress.close_and_clear();
        self.stage.close_and_clear();
        self.contexts.abort();
        // Take (and release) the results lock so a waiter between its
        // teardown check and `wait` cannot miss the wakeup.
        let _results = self.results.lock();
        self.results_ready.notify_all();
    }

    fn torn_down(&self) -> bool {
        self.contexts.is_aborted()
    }

    /// Non-blocking poll. `Done`/`Failed` are consumed by the observing
    /// poll; a consumed (or never-issued) ticket is `UnknownTicket`, and
    /// a ticket still pending when the session was torn down is
    /// `ShuttingDown`.
    fn poll(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        let key = (ticket.stream_id, ticket.frame_index);
        let mut results = self.results.lock().expect("result table poisoned");
        match results.get(&key) {
            Some(FrameStatus::Pending) if self.torn_down() => Err(RuntimeError::ShuttingDown),
            Some(FrameStatus::Pending) => Ok(FrameStatus::Pending),
            Some(_) => Ok(results.remove(&key).expect("entry just observed")),
            None => Err(RuntimeError::UnknownTicket {
                stream_id: ticket.stream_id,
                frame_index: ticket.frame_index,
            }),
        }
    }

    /// Blocking poll: parks until the ticket resolves or the session is
    /// torn down.
    fn wait(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        let key = (ticket.stream_id, ticket.frame_index);
        let mut results = self.results.lock().expect("result table poisoned");
        loop {
            match results.get(&key) {
                Some(FrameStatus::Pending) if self.torn_down() => {
                    return Err(RuntimeError::ShuttingDown)
                }
                Some(FrameStatus::Pending) => {
                    results = self
                        .results_ready
                        .wait(results)
                        .expect("result table poisoned");
                }
                Some(_) => return Ok(results.remove(&key).expect("entry just observed")),
                None => {
                    return Err(RuntimeError::UnknownTicket {
                        stream_id: ticket.stream_id,
                        frame_index: ticket.frame_index,
                    })
                }
            }
        }
    }

    /// Resolves a failed frame's ticket; the session keeps serving.
    fn frame_failed(&self, stream_id: usize, frame_index: usize, source: SystemError) {
        let err = RuntimeError::Frame {
            stream_id,
            frame_index,
            source,
        };
        self.publish((stream_id, frame_index), FrameStatus::Failed(err));
    }

    /// A live snapshot report over everything completed so far; its
    /// `telemetry` stays `None`.
    fn snapshot(&self) -> RuntimeReport {
        let records = self.records.lock().expect("record sink poisoned").clone();
        self.report(records)
    }

    /// Assembles the final report after every worker has exited, with
    /// the trace and metrics derived from its records when the config
    /// asks for them. Called exactly once per session.
    fn finalize(&self) -> RuntimeReport {
        let records = std::mem::take(&mut *self.records.lock().expect("record sink poisoned"));
        let mut report = self.report(records);
        if self.config.telemetry == TelemetryMode::On {
            report.telemetry = Some(TelemetrySnapshot {
                trace: lifecycle_trace(&report.records),
                metrics: report.build_metrics(),
            });
        }
        report
    }

    /// Report assembly, shared by live snapshots and the final report.
    fn report(&self, mut records: Vec<FrameRecord>) -> RuntimeReport {
        use hgpcn_memsim::Latency;

        records.sort_by_key(|r| (r.stream_id, r.frame_index));
        let streams = self
            .streams
            .lock()
            .expect("stream registry poisoned")
            .clone();
        let stage_backends = StageBackendNames::from(StageBackends::active());
        let reuse_counts = self.contexts.counts();
        let mut reports = Vec::with_capacity(streams.len());
        for (id, state) in streams.iter().enumerate() {
            let mine: Vec<&FrameRecord> = records.iter().filter(|r| r.stream_id == id).collect();
            let service: Vec<Latency> = mine.iter().map(|r| r.modeled.total()).collect();
            let sojourn: Vec<Latency> = mine
                .iter()
                .map(|r| Latency::from_secs((r.virtual_done_s - r.virtual_arrival_s).max(0.0)))
                .collect();
            let achieved_fps = match mine.first() {
                Some(first) => {
                    let span = mine
                        .iter()
                        .map(|r| r.virtual_done_s)
                        .fold(f64::NEG_INFINITY, f64::max)
                        - first.virtual_arrival_s;
                    if span > 1e-12 {
                        mine.len() as f64 / span
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            reports.push(StreamReport {
                stream_id: id,
                name: state.name.clone(),
                offered: state.offered,
                completed: mine.len(),
                dropped: state.dropped,
                sensor_fps: state.nominal_fps,
                stage_backends,
                preproc_reuse: "on",
                preproc_reuse_hits: reuse_counts.get(id).map_or(0, |c| c.0),
                preproc_reuse_misses: reuse_counts.get(id).map_or(0, |c| c.1),
                achieved_fps,
                service: LatencySummary::from_samples(&service),
                sojourn: LatencySummary::from_samples(&sojourn),
                breakdown: StageBreakdown::from_records(mine.iter().copied()),
            });
        }

        let run = RunSummary::from_records(
            &records,
            self.config.preproc_workers,
            self.config.inference_workers,
        );

        RuntimeReport {
            streams: reports,
            total_frames: records.len(),
            total_dropped: streams.iter().map(|s| s.dropped).sum(),
            preproc_workers: self.config.preproc_workers,
            inference_workers: self.config.inference_workers,
            ingress_queue: QueueStats {
                high_water: self.ingress.high_water(),
                dropped: self.ingress.dropped(),
            },
            stage_queue: QueueStats {
                high_water: self.stage.high_water(),
                dropped: self.stage.dropped(),
            },
            virtual_makespan_s: run.virtual_makespan_s,
            modeled_pipelined_fps: run.modeled_pipelined_fps,
            wall_elapsed: self.started.elapsed(),
            kernel_backend: self.kernel_backend,
            stage_backends,
            preproc_reuse: "on",
            preproc_reuse_hits: reuse_counts.iter().map(|c| c.0).sum(),
            preproc_reuse_misses: reuse_counts.iter().map(|c| c.1).sum(),
            batching: BatchingStats::from_records(self.config.max_batch, &records),
            breakdown: run.breakdown,
            utilization: run.utilization,
            ingress_depth: run.ingress_depth,
            stage_depth: run.stage_depth,
            telemetry: None,
            records,
        }
    }
}

// ---------------------------------------------------------------------
// Worker loops. Latency accounting runs on the virtual clock: each
// worker advances its own virtual time by the modeled latency of the
// work it actually executed.
// ---------------------------------------------------------------------

fn preproc_worker(core: &SessionCore, pipeline: &E2ePipeline, w: usize) {
    let _guard = PanicGuard(core);
    let mut vclock = 0.0f64;
    // The worker's working set, shared by every stream it serves.
    let mut ctx = StreamPreprocContext::new();
    while let Some((job, ticket)) = core.ingress.pop() {
        let PreprocJob {
            frame,
            virtual_arrival_s,
        } = job;
        let seed = frame_seed(core.config.seed, frame.stream_id, frame.frame_index);
        // The frame runs against its stream's previous frame under the
        // stream's turn, so cache state — and therefore modeled cost — is
        // a pure function of submission order at any worker count.
        let slot = core.contexts.slot(frame.stream_id);
        let mut turn = slot.inner.lock().expect("preproc context poisoned");
        while turn.next != frame.frame_index && !core.contexts.is_aborted() {
            turn = slot.turn.wait(turn).expect("preproc context poisoned");
        }
        ctx.swap_previous(&mut turn.prev);
        // Wall time is measured around the engine call only, excluding
        // the turn wait.
        let wall0 = Instant::now();
        let wall_preproc_start = wall0.duration_since(core.started);
        let processed = pipeline
            .preproc
            .run_with_context(
                &frame.cloud,
                core.config.target_points,
                seed,
                StageBackends::active().sampling,
                &mut ctx,
            )
            .map(|mut out| {
                let latency = out.total_latency();
                let counts = out.total_counts();
                let reused = out.reused;
                let sampled = std::mem::replace(&mut out.sampled, PointCloud::new());
                ctx.recycle(out);
                (
                    sampled,
                    latency,
                    counts,
                    reused,
                    wall0.elapsed().as_secs_f64(),
                )
            });
        ctx.swap_previous(&mut turn.prev);
        match &processed {
            Ok((.., true, _)) => turn.hits += 1,
            Ok(_) => turn.misses += 1,
            Err(_) => {}
        }
        // Pass the turn whether the frame succeeded or failed; successors
        // must not wait on a frame that already resolved.
        slot.advance_locked(&mut turn, frame.frame_index);
        drop(turn);
        match processed {
            Ok((sampled, latency, counts, preproc_reused, wall_preproc_s)) => {
                let start = vclock.max(virtual_arrival_s);
                let done = start + latency.secs();
                vclock = done;
                let stage_job = StageJob {
                    stream_id: frame.stream_id,
                    frame_index: frame.frame_index,
                    sensor_ts_s: frame.sensor_ts_s,
                    virtual_arrival_s,
                    virtual_preproc_start_s: start,
                    virtual_preproc_done_s: done,
                    preproc_ticket: ticket,
                    preproc_worker: w,
                    wall_preproc_start,
                    wall_preproc_s,
                    sampled,
                    pre_phase: PhaseReport { latency, counts },
                    preproc_reused,
                };
                if core.stage.push_blocking(stage_job).is_err() {
                    break; // shutdown under way
                }
            }
            Err(err) => core.frame_failed(frame.stream_id, frame.frame_index, err),
        }
    }
    if core.preproc_live.fetch_sub(1, Ordering::AcqRel) == 1 {
        core.stage.close();
    }
}

// One loop at every `max_batch`: a frame dequeued with nothing else
// queued runs as a batch of one — bit-identical to its slot in any
// larger batch by construction.
fn inference_worker(core: &SessionCore, pipeline: &E2ePipeline, net: &PointNet, w: usize) {
    let _guard = PanicGuard(core);
    let mut vclock = 0.0f64;
    while let Some(first) = core.stage.pop() {
        // The first frame is taken blocking; the rest of the micro-batch
        // only drains whatever is already queued, up to `max_batch` — a
        // frame never waits for companions.
        let mut batch = vec![first];
        while batch.len() < core.config.max_batch {
            match core.stage.try_pop() {
                Some(next) => batch.push(next),
                None => break,
            }
        }
        infer_batch(core, pipeline, net, w, batch, &mut vclock);
    }
}

/// What one inference engine call shares with every frame it ran.
struct InferCall {
    /// The inference worker that made the call.
    worker: usize,
    /// Frames in the call's micro-batch.
    batch_size: usize,
    /// Wall-clock instant (relative to run start) the call began.
    wall_start: Duration,
    /// Each frame's even share of the call's wall time.
    wall_share_s: f64,
}

/// Runs one micro-batch through the batched engine call on inference
/// worker `worker` and completes its frames in dequeue order. A failed
/// call is attributed by re-running the batch one frame at a time through
/// this same function (deterministic, so healthy frames reproduce
/// exactly); a failing batch of one is its own culprit.
fn infer_batch(
    core: &SessionCore,
    pipeline: &E2ePipeline,
    net: &PointNet,
    worker: usize,
    batch: Vec<(StageJob, u64)>,
    vclock: &mut f64,
) {
    let inputs: Vec<&PointCloud> = batch.iter().map(|(job, _)| &job.sampled).collect();
    let seeds: Vec<u64> = batch
        .iter()
        .map(|(job, _)| frame_seed(core.config.seed, job.stream_id, job.frame_index))
        .collect();
    let wall0 = Instant::now();
    match pipeline.inference.run_batch_in_parts(
        &inputs,
        net,
        &seeds,
        StageBackends::active(),
        core.infer_parts,
    ) {
        Ok(reports) => {
            // Per-frame share of the call's host wall time, split evenly:
            // the call's sub-batches may run in parallel on the host's cores,
            // so no one frame's own time can be read off it. Only a call
            // that succeeds forms a batch: the frames of a failed one are
            // batched by their one-frame re-runs instead.
            let call = InferCall {
                worker,
                batch_size: batch.len(),
                wall_start: wall0.duration_since(core.started),
                wall_share_s: wall0.elapsed().as_secs_f64() / batch.len() as f64,
            };
            for (i, ((job, ticket), inf)) in batch.into_iter().zip(&reports).enumerate() {
                complete_frame(core, job, ticket, inf, vclock, &call, i == 0);
            }
        }
        Err(err) if batch.len() == 1 => {
            let job = &batch[0].0;
            core.frame_failed(job.stream_id, job.frame_index, err);
        }
        Err(_) => {
            for frame in batch {
                infer_batch(core, pipeline, net, worker, vec![frame], vclock);
            }
        }
    }
}

/// Advances the worker's virtual clock past `job`, records its journey,
/// and resolves its ticket with the output. Within a micro-batch, frames
/// advance the clock in dequeue order, so the modeled timeline is the
/// same at every `max_batch`. `batch_head` marks the batch's first frame.
fn complete_frame(
    core: &SessionCore,
    job: StageJob,
    inference_ticket: u64,
    inf: &InferenceReport,
    vclock: &mut f64,
    call: &InferCall,
    batch_head: bool,
) {
    let key = (job.stream_id, job.frame_index);
    let latency = inf.total_latency();
    let start = vclock.max(job.virtual_preproc_done_s);
    let done = start + latency.secs();
    *vclock = done;
    let record = FrameRecord {
        stream_id: job.stream_id,
        frame_index: job.frame_index,
        sensor_ts_s: job.sensor_ts_s,
        virtual_arrival_s: job.virtual_arrival_s,
        virtual_preproc_start_s: job.virtual_preproc_start_s,
        virtual_preproc_done_s: job.virtual_preproc_done_s,
        virtual_infer_start_s: start,
        virtual_done_s: done,
        modeled: E2eReport {
            preprocess: job.pre_phase,
            inference: PhaseReport {
                latency,
                counts: inf.total_counts(),
            },
        },
        preproc_ticket: job.preproc_ticket,
        inference_ticket,
        preproc_worker: job.preproc_worker,
        inference_worker: call.worker,
        batch_size: call.batch_size,
        batch_head,
        wall_preproc_start: job.wall_preproc_start,
        wall_preproc_s: job.wall_preproc_s,
        wall_infer_s: call.wall_share_s,
        wall_infer_start: call.wall_start,
        wall_done: core.started.elapsed(),
        preproc_reused: job.preproc_reused,
    };
    // Record first, publish second: a poller that observes `Done` must
    // find the frame already counted in `stats()` snapshots.
    core.records
        .lock()
        .expect("record sink poisoned")
        .push(record.clone());
    core.publish(
        key,
        FrameStatus::Done(Box::new(FrameResult {
            output: inf.output.clone(),
            record,
        })),
    );
}

// ---------------------------------------------------------------------
// The front end.
// ---------------------------------------------------------------------

/// A live, session-oriented serving runtime.
///
/// A `ServingRuntime` keeps its worker pools running and lets clients
/// open streams and submit frames one at a time — the core a network
/// front end (`hgpcn-serve`) is built on, and the one
/// [`Runtime::run`](crate::Runtime::run) drives a fleet to completion
/// through.
///
/// ```
/// use hgpcn_runtime::{FrameStatus, RuntimeConfig, ServingRuntime, StreamProfile};
/// use hgpcn_pcn::{PointNet, PointNetConfig};
/// use hgpcn_geometry::Point3;
///
/// let net = PointNet::new(PointNetConfig::classification(), 7);
/// let rt = ServingRuntime::start(RuntimeConfig::default().target_points(512), net)?;
/// let stream = rt.open_stream(StreamProfile::new("lidar-a"))?;
/// let cloud = (0..1000)
///     .map(|i| {
///         let f = i as f32;
///         Point3::new((f * 0.618).fract(), (f * 0.414).fract(), (f * 0.732).fract())
///     })
///     .collect();
/// let ticket = rt.submit(stream.id(), 0.0, cloud)?;
/// match rt.wait(ticket)? {
///     FrameStatus::Done(result) => assert!(result.output.logits.rows() > 0),
///     other => panic!("expected completion, got {other:?}"),
/// }
/// let report = rt.shutdown()?;
/// assert_eq!(report.total_frames, 1);
/// # Ok::<(), hgpcn_runtime::RuntimeError>(())
/// ```
pub struct ServingRuntime {
    core: Option<Arc<SessionCore>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingRuntime")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServingRuntime {
    /// Starts worker pools over the prototype pipeline.
    ///
    /// The network is taken as `impl Into<Arc<PointNet>>`: passing a
    /// `PointNet` by value keeps working unchanged, while passing an
    /// `Arc<PointNet>` lets a caller that still needs the net share its
    /// weights with the runtime instead of cloning them.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `config` fails
    /// [`RuntimeConfig::validate`].
    pub fn start(
        config: RuntimeConfig,
        net: impl Into<Arc<PointNet>>,
    ) -> Result<ServingRuntime, RuntimeError> {
        ServingRuntime::start_with_pipeline(config, E2ePipeline::prototype(), net)
    }

    /// Starts worker pools over a caller-supplied pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `config` fails
    /// [`RuntimeConfig::validate`].
    pub fn start_with_pipeline(
        config: RuntimeConfig,
        pipeline: E2ePipeline,
        net: impl Into<Arc<PointNet>>,
    ) -> Result<ServingRuntime, RuntimeError> {
        config.validate()?;
        let net: Arc<PointNet> = net.into();
        let core = Arc::new(SessionCore::new(config.clone(), &net));
        let pipeline = Arc::new(pipeline);
        let mut workers = Vec::with_capacity(config.preproc_workers + config.inference_workers);
        for w in 0..config.preproc_workers {
            let (core, pipeline) = (Arc::clone(&core), Arc::clone(&pipeline));
            workers.push(
                thread::Builder::new()
                    .name(format!("hgpcn-preproc-{w}"))
                    .spawn(move || preproc_worker(&core, &pipeline, w))
                    .expect("spawn preproc worker"),
            );
        }
        for w in 0..config.inference_workers {
            let (core, pipeline, net) =
                (Arc::clone(&core), Arc::clone(&pipeline), Arc::clone(&net));
            workers.push(
                thread::Builder::new()
                    .name(format!("hgpcn-infer-{w}"))
                    .spawn(move || inference_worker(&core, &pipeline, &net, w))
                    .expect("spawn inference worker"),
            );
        }
        Ok(ServingRuntime {
            core: Some(core),
            workers,
        })
    }

    fn core(&self) -> &Arc<SessionCore> {
        self.core.as_ref().expect("core present until shutdown")
    }

    /// Opens a stream session and returns its handle, the stream's id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShuttingDown`] once a worker panic has torn the
    /// session down ([`ServingRuntime::is_live`] is then `false`).
    pub fn open_stream(&self, profile: StreamProfile) -> Result<StreamHandle, RuntimeError> {
        let stream_id = self.core().open_stream(profile)?;
        Ok(StreamHandle { stream_id })
    }

    /// Whether the session still serves: `false` once a worker panic has
    /// torn it down, after which every pending ticket, submission and
    /// stream opening is refused with [`RuntimeError::ShuttingDown`].
    pub fn is_live(&self) -> bool {
        !self.core().torn_down()
    }

    /// Submits one frame to `stream_id`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] for an unopened id and
    /// [`RuntimeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(
        &self,
        stream_id: usize,
        sensor_ts_s: f64,
        cloud: PointCloud,
    ) -> Result<FrameTicket, RuntimeError> {
        self.core().submit(stream_id, sensor_ts_s, cloud)
    }

    /// Polls a ticket without blocking. See [`FrameStatus`] for the
    /// at-most-once delivery contract.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownTicket`] for a never-issued or
    /// already-consumed ticket.
    pub fn poll(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        self.core().poll(ticket)
    }

    /// Blocks until `ticket` resolves.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownTicket`] for a never-issued or
    /// already-consumed ticket.
    pub fn wait(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        self.core().wait(ticket)
    }

    /// A live snapshot of the aggregate serving report: everything
    /// completed so far, on the schema [`ServingRuntime::shutdown`] returns
    /// (`telemetry` stays `None` until [`ServingRuntime::shutdown`]).
    pub fn stats(&self) -> RuntimeReport {
        self.core().snapshot()
    }

    /// One stream's slice of [`ServingRuntime::stats`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] for an unopened id.
    pub fn stream_stats(&self, stream_id: usize) -> Result<StreamReport, RuntimeError> {
        self.stats()
            .streams
            .into_iter()
            .find(|s| s.stream_id == stream_id)
            .ok_or(RuntimeError::UnknownStream { stream_id })
    }

    /// Graceful shutdown: refuses new submissions, drains every queued
    /// frame, joins the pools and returns the final report (with its
    /// trace and metrics when
    /// [`RuntimeConfig::telemetry`](crate::RuntimeConfig::telemetry) is
    /// `On`).
    ///
    /// # Errors
    ///
    /// Never fails today; frame failures resolve their own tickets, and
    /// the `Result` reserves room for a shutdown that can.
    ///
    /// # Panics
    ///
    /// Propagates a worker-thread panic (an engine bug).
    pub fn shutdown(mut self) -> Result<RuntimeReport, RuntimeError> {
        let core = self.core.take().expect("core present until shutdown");
        core.ingress.close();
        for handle in std::mem::take(&mut self.workers) {
            handle.join().expect("runtime worker panicked");
        }
        Ok(core.finalize())
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        // Shutdown-less drop: abort (discarding backlog) rather than
        // leak live threads. Worker panics are swallowed — propagating
        // from a destructor would abort the process.
        if let Some(core) = self.core.take() {
            core.tear_down();
            for handle in std::mem::take(&mut self.workers) {
                let _ = handle.join();
            }
        }
    }
}

/// The id of an open stream, as [`ServingRuntime::open_stream`] returns
/// it; pass [`StreamHandle::id`] to the runtime's per-stream methods.
#[derive(Clone, Debug)]
pub struct StreamHandle {
    stream_id: usize,
}

impl StreamHandle {
    /// The stream's id (its index in report stream lists).
    pub fn id(&self) -> usize {
        self.stream_id
    }
}

#[cfg(test)]
mod tests {
    use super::infer_parts;

    #[test]
    fn inference_pools_never_split_past_the_cores() {
        assert_eq!(infer_parts(2, 1), 2);
        assert_eq!(infer_parts(2, 2), 1);
        assert_eq!(infer_parts(8, 3), 2);
        assert_eq!(infer_parts(1, 1), 1);
        for cores in 1..=16 {
            for workers in 1..=4 {
                let threads = infer_parts(cores, workers) * workers;
                assert!(threads <= cores.max(workers));
            }
        }
    }
}

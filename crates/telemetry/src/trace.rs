//! Frame-lifecycle tracing: per-worker span recorders and the merged
//! run trace, exportable as Chrome trace-event JSON.
//!
//! Recording is mutex-free on the hot path: every pipeline worker owns
//! a [`SpanRecorder`] (a plain `Vec` push per event), and buffers are
//! merged into one [`Trace`] through a [`TraceCollector`] only at run
//! end. Every event carries both clocks — the *virtual* timestamp from
//! the workspace's deterministic cost models and the *wall* timestamp
//! of the recording host — so the virtual timeline stays
//! bit-reproducible while wall time remains available for host-side
//! profiling.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Pipeline stage a worker belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageId {
    /// Admission: submitters pushing frames onto the ingress queue.
    Admission,
    /// The pre-processing worker pool.
    Preproc,
    /// The inference worker pool.
    Inference,
}

impl StageId {
    /// Short stable name used in thread labels and metrics.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Admission => "admission",
            StageId::Preproc => "preproc",
            StageId::Inference => "infer",
        }
    }
}

/// Identity of one recording worker: its stage and index in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkerId {
    /// The stage the worker serves.
    pub stage: StageId,
    /// Index within the stage's pool (admission is 0).
    pub index: u32,
}

impl WorkerId {
    /// Admission's identity.
    pub fn admission() -> WorkerId {
        WorkerId {
            stage: StageId::Admission,
            index: 0,
        }
    }

    /// Worker `index` of the pre-processing pool.
    pub fn preproc(index: usize) -> WorkerId {
        WorkerId {
            stage: StageId::Preproc,
            index: index as u32,
        }
    }

    /// Worker `index` of the inference pool.
    pub fn inference(index: usize) -> WorkerId {
        WorkerId {
            stage: StageId::Inference,
            index: index as u32,
        }
    }

    /// `stage-index` label (`preproc-1`), used as the trace thread name.
    pub fn label(&self) -> String {
        format!("{}-{}", self.stage.name(), self.index)
    }
}

/// What happened to a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The scheduler admitted the frame from its source.
    Admit,
    /// The frame entered an inter-stage queue.
    Enqueue,
    /// A worker took the frame off a queue.
    Dequeue,
    /// Pre-processing began (virtual service start).
    PreprocStart,
    /// Pre-processing finished.
    PreprocEnd,
    /// The frame was coalesced into a micro-batch (`detail` = batch
    /// size, recorded once per batch on its head frame).
    BatchCoalesce,
    /// Inference began (virtual service start).
    InferStart,
    /// Inference finished.
    InferEnd,
    /// The frame completed its journey.
    Complete,
    /// The frame was evicted by backpressure.
    Drop,
}

impl EventKind {
    /// Stable event name used in trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::PreprocStart => "preproc_start",
            EventKind::PreprocEnd => "preproc_end",
            EventKind::BatchCoalesce => "batch_coalesce",
            EventKind::InferStart => "infer_start",
            EventKind::InferEnd => "infer_end",
            EventKind::Complete => "complete",
            EventKind::Drop => "drop",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Recording worker.
    pub worker: WorkerId,
    /// Owning stream.
    pub stream_id: u32,
    /// Per-stream frame sequence number.
    pub frame_index: u32,
    /// Virtual (modeled-clock) timestamp in seconds.
    pub virtual_ts_s: f64,
    /// Wall-clock seconds since run start, at recording time.
    pub wall_ts_s: f64,
    /// Kind-specific payload ([`EventKind::BatchCoalesce`]: batch size).
    pub detail: u32,
}

/// A worker-owned event buffer. Appending is a plain `Vec` push — no
/// locks, no allocation beyond amortized growth — and a disabled
/// recorder returns before even reading the wall clock, which is what
/// makes telemetry zero-cost when off.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    worker: WorkerId,
    origin: Instant,
    events: Vec<TraceEvent>,
}

impl SpanRecorder {
    /// A recorder for `worker`. `origin` anchors wall timestamps (pass
    /// the run's start instant so all workers share one epoch);
    /// `enabled: false` yields the no-op sink.
    pub fn new(worker: WorkerId, origin: Instant, enabled: bool) -> SpanRecorder {
        SpanRecorder {
            enabled,
            worker,
            origin,
            events: Vec::new(),
        }
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `kind` for frame `(stream_id, frame_index)` at virtual
    /// time `virtual_ts_s`. No-op when disabled.
    #[inline]
    pub fn record(&mut self, kind: EventKind, stream_id: usize, frame_index: usize, vts_s: f64) {
        self.record_detail(kind, stream_id, frame_index, vts_s, 0);
    }

    /// [`record`](SpanRecorder::record) with a kind-specific `detail`
    /// payload (batch size for [`EventKind::BatchCoalesce`]).
    #[inline]
    pub fn record_detail(
        &mut self,
        kind: EventKind,
        stream_id: usize,
        frame_index: usize,
        vts_s: f64,
        detail: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            kind,
            worker: self.worker,
            stream_id: stream_id as u32,
            frame_index: frame_index as u32,
            virtual_ts_s: vts_s,
            wall_ts_s: self.origin.elapsed().as_secs_f64(),
            detail,
        });
    }

    /// Consumes the recorder, yielding its buffer in recording order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Collects worker buffers at run end. The only synchronized piece of
/// the tracing path — and it is touched once per worker per run, not
/// per event.
#[derive(Debug, Default)]
pub struct TraceCollector {
    buffers: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Absorbs a finished worker's recorder (no-op if it was disabled
    /// and empty).
    pub fn submit(&self, recorder: SpanRecorder) {
        let events = recorder.into_events();
        if events.is_empty() {
            return;
        }
        self.buffers
            .lock()
            .expect("trace collector poisoned")
            .push(events);
    }

    /// Merges every submitted buffer into one deterministic [`Trace`].
    ///
    /// Events are ordered by virtual timestamp, ties broken by worker
    /// identity; each worker's own events keep their recording order
    /// (the per-worker virtual clock is monotone, so this is also
    /// virtual-time order). The result is independent of thread exit
    /// order — the foundation of byte-identical trace exports.
    pub fn finish(self) -> Trace {
        let mut buffers = self.buffers.into_inner().expect("trace collector poisoned");
        // Concatenate in worker order so the stable sort below sees a
        // deterministic input regardless of submission order.
        buffers.sort_by_key(|b| b.first().map(|e| e.worker));
        let mut events: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
        events.sort_by(|a, b| {
            a.virtual_ts_s
                .total_cmp(&b.virtual_ts_s)
                .then_with(|| a.worker.cmp(&b.worker))
        });
        Trace { events }
    }
}

/// The merged, ordered event timeline of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load).
    ///
    /// * Preproc and infer stage work becomes complete (`"ph": "X"`)
    ///   spans on the recording worker's row, with `ts`/`dur` on the
    ///   **virtual** clock in microseconds.
    /// * Every other lifecycle event becomes a thread-scoped instant
    ///   (`"ph": "i"`).
    /// * Worker rows are named via `thread_name` metadata events.
    ///
    /// With `include_wall: false` the output is a pure function of the
    /// virtual timeline — two identical deterministic runs (one worker
    /// per stage) render byte-identical JSON. With `include_wall: true`
    /// each event's `args` additionally carries its wall-clock
    /// timestamp (and spans their wall duration), which is
    /// host-dependent and therefore not reproducible.
    pub fn chrome_trace_json(&self, include_wall: bool) -> String {
        let mut workers: Vec<WorkerId> = self.events.iter().map(|e| e.worker).collect();
        workers.sort();
        workers.dedup();
        let tid =
            |w: WorkerId| -> usize { workers.binary_search(&w).expect("worker seen in events") };

        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };

        for (i, w) in workers.iter().enumerate() {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    w.label()
                ),
                &mut out,
            );
        }

        // Open spans per worker: (kind that closes it, start event).
        let mut pending: Vec<Option<TraceEvent>> = vec![None; workers.len()];
        for e in &self.events {
            let t = tid(e.worker);
            match e.kind {
                EventKind::PreprocStart | EventKind::InferStart => {
                    pending[t] = Some(*e);
                }
                EventKind::PreprocEnd | EventKind::InferEnd => {
                    let Some(start) = pending[t].take() else {
                        continue; // unmatched end: skip rather than lie
                    };
                    if (start.stream_id, start.frame_index) != (e.stream_id, e.frame_index) {
                        continue;
                    }
                    let name = match e.kind {
                        EventKind::PreprocEnd => "preproc",
                        _ => "infer",
                    };
                    let mut args =
                        format!("\"stream\":{},\"frame\":{}", e.stream_id, e.frame_index);
                    if include_wall {
                        let _ = write!(
                            args,
                            ",\"wall_ts_us\":{:.3},\"wall_dur_us\":{:.3}",
                            start.wall_ts_s * 1e6,
                            (e.wall_ts_s - start.wall_ts_s).max(0.0) * 1e6
                        );
                    }
                    push(
                        format!(
                            "{{\"name\":\"{name}\",\"cat\":\"stage\",\"ph\":\"X\",\
                             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{t},\
                             \"args\":{{{args}}}}}",
                            start.virtual_ts_s * 1e6,
                            (e.virtual_ts_s - start.virtual_ts_s).max(0.0) * 1e6,
                        ),
                        &mut out,
                    );
                }
                _ => {
                    let mut args =
                        format!("\"stream\":{},\"frame\":{}", e.stream_id, e.frame_index);
                    if e.kind == EventKind::BatchCoalesce {
                        let _ = write!(args, ",\"batch_size\":{}", e.detail);
                    }
                    if include_wall {
                        let _ = write!(args, ",\"wall_ts_us\":{:.3}", e.wall_ts_s * 1e6);
                    }
                    push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{:.3},\"pid\":1,\"tid\":{t},\"args\":{{{args}}}}}",
                            e.kind.name(),
                            e.virtual_ts_s * 1e6,
                        ),
                        &mut out,
                    );
                }
            }
        }
        out.push_str("\n]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(worker: WorkerId, enabled: bool) -> SpanRecorder {
        SpanRecorder::new(worker, Instant::now(), enabled)
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = recorder(WorkerId::preproc(0), false);
        r.record(EventKind::Admit, 0, 0, 0.0);
        assert!(r.into_events().is_empty());
    }

    #[test]
    fn merge_is_independent_of_submission_order() {
        let build = |order_flip: bool| {
            let collector = TraceCollector::new();
            let mut a = recorder(WorkerId::preproc(0), true);
            a.record(EventKind::PreprocStart, 0, 0, 1.0);
            a.record(EventKind::PreprocEnd, 0, 0, 2.0);
            let mut b = recorder(WorkerId::inference(0), true);
            b.record(EventKind::InferStart, 0, 0, 2.0);
            b.record(EventKind::InferEnd, 0, 0, 3.0);
            if order_flip {
                collector.submit(b);
                collector.submit(a);
            } else {
                collector.submit(a);
                collector.submit(b);
            }
            collector.finish()
        };
        let x = build(false);
        let y = build(true);
        // Wall timestamps differ run to run; the virtual view must not.
        let virtual_view = |t: &Trace| {
            t.events()
                .iter()
                .map(|e| (e.kind, e.worker, e.stream_id, e.frame_index, e.virtual_ts_s))
                .collect::<Vec<_>>()
        };
        assert_eq!(virtual_view(&x), virtual_view(&y));
        assert_eq!(x.chrome_trace_json(false), y.chrome_trace_json(false));
    }

    #[test]
    fn chrome_export_pairs_spans() {
        let collector = TraceCollector::new();
        let mut r = recorder(WorkerId::inference(1), true);
        r.record(EventKind::Dequeue, 2, 5, 1.5);
        r.record_detail(EventKind::BatchCoalesce, 2, 5, 1.5, 4);
        r.record(EventKind::InferStart, 2, 5, 1.5);
        r.record(EventKind::InferEnd, 2, 5, 2.5);
        r.record(EventKind::Complete, 2, 5, 2.5);
        collector.submit(r);
        let json = collector.finish().chrome_trace_json(false);
        assert!(json.contains("\"name\":\"infer\""));
        assert!(json.contains("\"dur\":1000000.000"));
        assert!(json.contains("\"batch_size\":4"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("infer-1"));
        assert!(
            !json.contains("wall"),
            "virtual-clock export must not leak wall timestamps"
        );
    }

    #[test]
    fn wall_export_adds_args() {
        let collector = TraceCollector::new();
        let mut r = recorder(WorkerId::preproc(0), true);
        r.record(EventKind::PreprocStart, 0, 0, 0.0);
        r.record(EventKind::PreprocEnd, 0, 0, 1.0);
        collector.submit(r);
        let json = collector.finish().chrome_trace_json(true);
        assert!(json.contains("wall_ts_us"));
        assert!(json.contains("wall_dur_us"));
    }
}

//! Frame-lifecycle traces and their Chrome trace-event JSON export.
//!
//! A [`Trace`] is the ordered event timeline of a run: what happened to
//! each frame, on which worker's row, at which *virtual* timestamp (the
//! workspace's deterministic cost models). The two stage spans also
//! carry the *wall* instants of the host's engine calls, so the virtual
//! timeline stays bit-reproducible while wall time remains available for
//! host-side profiling.

use std::fmt::Write as _;

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
        }
    }
}

/// One lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// The worker whose row the event belongs on.
    pub worker: WorkerId,
    /// Owning stream.
    pub stream_id: u32,
    /// Per-stream frame sequence number.
    pub frame_index: u32,
    /// Virtual (modeled-clock) timestamp in seconds.
    pub virtual_ts_s: f64,
    /// Wall-clock seconds since run start at which the host's engine call
    /// began or ended, on the events that bound a stage span; `None` on
    /// the lifecycle instants.
    pub wall_ts_s: Option<f64>,
    /// Kind-specific payload ([`EventKind::BatchCoalesce`]: batch size).
    pub detail: u32,
}

/// The ordered event timeline of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace of `events`, which must already be in timeline order:
    /// by virtual time, and on each worker's row a stage's start before
    /// its end, so [`chrome_trace_json`](Trace::chrome_trace_json) can
    /// pair every span.
    pub fn new(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load).
    ///
    /// * Preproc and infer stage work becomes complete (`"ph": "X"`)
    ///   spans on the serving worker's row, with `ts`/`dur` on the
    ///   **virtual** clock in microseconds.
    /// * Every other lifecycle event becomes a thread-scoped instant
    ///   (`"ph": "i"`).
    /// * Worker rows are named via `thread_name` metadata events.
    ///
    /// With `include_wall: false` the output is a pure function of the
    /// virtual timeline — two identical deterministic runs (one worker
    /// per stage) render byte-identical JSON. With `include_wall: true`
    /// each stage span whose ends carry wall timestamps adds its wall
    /// start and duration to its `args`, which are host-dependent and
    /// therefore not reproducible.
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
                    if let (true, Some(w0), Some(w1)) = (include_wall, start.wall_ts_s, e.wall_ts_s)
                    {
                        let _ = write!(
                            args,
                            ",\"wall_ts_us\":{:.3},\"wall_dur_us\":{:.3}",
                            w0 * 1e6,
                            (w1 - w0).max(0.0) * 1e6
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

    fn event(kind: EventKind, worker: WorkerId, vts: f64, wall: Option<f64>) -> TraceEvent {
        TraceEvent {
            kind,
            worker,
            stream_id: 2,
            frame_index: 5,
            virtual_ts_s: vts,
            wall_ts_s: wall,
            detail: if kind == EventKind::BatchCoalesce {
                4
            } else {
                0
            },
        }
    }

    #[test]
    fn chrome_export_pairs_spans() {
        let w = WorkerId::inference(1);
        let trace = Trace::new(vec![
            event(EventKind::Dequeue, w, 1.5, None),
            event(EventKind::BatchCoalesce, w, 1.5, None),
            event(EventKind::InferStart, w, 1.5, Some(0.25)),
            event(EventKind::InferEnd, w, 2.5, Some(0.5)),
            event(EventKind::Complete, w, 2.5, None),
        ]);
        let json = trace.chrome_trace_json(false);
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
    fn wall_export_adds_args_to_spans_only() {
        let w = WorkerId::preproc(0);
        let json = Trace::new(vec![
            event(EventKind::Dequeue, w, 0.0, None),
            event(EventKind::PreprocStart, w, 0.0, Some(0.001)),
            event(EventKind::PreprocEnd, w, 1.0, Some(0.003)),
        ])
        .chrome_trace_json(true);
        assert!(json.contains("\"wall_ts_us\":1000.000,\"wall_dur_us\":2000.000"));
        assert_eq!(json.matches("wall_ts_us").count(), 1, "{json}");
    }
}

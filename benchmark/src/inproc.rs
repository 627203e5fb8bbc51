//! The three closed-loop workloads: one thread keeps a fixed number of
//! frames outstanding on an in-process [`ServingRuntime`].
//!
//! With one worker per stage the runtime completes frames in admission
//! order, so waiting on the oldest outstanding ticket is waiting on the
//! next completion, and re-submitting on the stream that just completed
//! keeps every stream's frames in order.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hgpcn_runtime::{
    FrameResult, FrameStatus, FrameTicket, RuntimeConfig, RuntimeReport, ServingRuntime,
    StreamProfile,
};

use crate::load::{p, FrameSample, Identity, LoadOutcome, Plan, MODELED_FRAMES};
use crate::procfs::{self, Who};
use crate::report::Metrics;
use crate::stats::ms_since;
use crate::verify::{Kept, Returned};
use crate::workload::{Kind, Workload};

/// How long stragglers get after the measured phase before they count
/// as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// A booted runtime with its streams open and frame 0 of stream 0
/// already served.
struct Live {
    rt: ServingRuntime,
    ids: Vec<usize>,
    first: Box<FrameResult>,
    first_frame_ms: f64,
}

/// Set-up as a user pays it: build the network, boot the pools, open
/// the streams, and get the first frame's result back (lazy seam
/// resolution and first-touch allocation land here).
fn set_up(w: &Workload, config: &RuntimeConfig) -> (f64, Live) {
    let t0 = Instant::now();
    let rt = ServingRuntime::start(config.clone(), w.net()).expect("valid runtime config");
    let ids: Vec<usize> = (0..w.streams())
        .map(|s| {
            let profile = StreamProfile::new(format!("{}-{s}", w.name())).nominal_fps(10.0);
            rt.open_stream(profile).expect("stream opens").id()
        })
        .collect();
    let t_submit = Instant::now();
    let ticket = rt
        .submit(ids[0], 0.0, w.frame(0, 0).clone())
        .expect("first frame admitted");
    let first = match rt.wait(ticket).expect("first ticket resolves") {
        FrameStatus::Done(result) => result,
        other => panic!("first frame did not complete: {other:?}"),
    };
    let first_frame_ms = ms_since(t_submit);
    (
        t0.elapsed().as_secs_f64(),
        Live {
            rt,
            ids,
            first,
            first_frame_ms,
        },
    )
}

fn keep(stream: usize, index: usize, result: &FrameResult) -> Kept {
    Kept {
        stream,
        index,
        reused: result.record.preproc_reused,
        returned: Returned::Full {
            logits: result.output.logits.clone(),
            macs: result.output.macs,
            pre: result.record.modeled.preprocess.latency,
            inf: result.record.modeled.inference.latency,
        },
    }
}

/// What one closed loop measured.
struct LoopOutcome {
    samples: Vec<FrameSample>,
    /// CPU seconds of the submitting thread inside the measured phase.
    client_cpu_s: f64,
    submitted: usize,
    failed: usize,
    kept: Vec<Kept>,
    /// Modeled ms of every completed frame numbered below
    /// [`MODELED_FRAMES`], in submission (= completion) order.
    modeled_ms: Vec<f64>,
}

impl LoopOutcome {
    /// Wall seconds of the measured phase: it closes with its last frame.
    fn window_s(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.done_s).max(1e-9)
    }
}

struct Outstanding {
    ticket: FrameTicket,
    g: usize,
    submitted_at: Instant,
    submit_ms: f64,
}

/// Keeps `w.streams()` frames outstanding for `warmup + measure` seconds,
/// starting at submission number `first_g`. The measured phase opens at
/// the first completion after the warm-up and closes at the first one
/// `measure_s` later, so its frame count and its wall time share their
/// boundaries exactly.
fn closed_loop(
    w: &Workload,
    live: &Live,
    first_g: usize,
    warmup_s: f64,
    measure_s: f64,
    keeps: impl Fn(usize) -> bool,
) -> LoopOutcome {
    let mut out = LoopOutcome {
        samples: Vec::new(),
        client_cpu_s: 0.0,
        submitted: 0,
        failed: 0,
        kept: Vec::new(),
        modeled_ms: Vec::new(),
    };
    let mut inflight: VecDeque<Outstanding> = VecDeque::new();
    let mut next_g = first_g;
    let mut submit = |inflight: &mut VecDeque<Outstanding>, out: &mut LoopOutcome| {
        let g = next_g;
        next_g += 1;
        let (stream, index) = w.nth(g);
        let cloud = w.frame(stream, index).clone();
        let submitted_at = Instant::now();
        out.submitted += 1;
        match live.rt.submit(live.ids[stream], index as f64 * 0.1, cloud) {
            Ok(ticket) => inflight.push_back(Outstanding {
                ticket,
                g,
                submitted_at,
                submit_ms: ms_since(submitted_at),
            }),
            Err(err) => {
                eprintln!("submit refused: {err}");
                out.failed += 1;
            }
        }
    };
    // The loop opens with the workload's start-up burst on top of its
    // standing load, and lets that many completions pass unanswered to
    // come back down to it.
    let mut surplus = w.kind.startup_burst();
    for _ in 0..w.streams() + surplus {
        submit(&mut inflight, &mut out);
    }

    let cpu_now = |who| procfs::cpu_seconds(who).unwrap_or(0.0);
    let started = Instant::now();
    // (opened at, process CPU then, this thread's CPU then)
    let mut window: Option<(Instant, f64, f64)> = None;
    // Set when the phase closes: stop submitting, poll out the stragglers.
    let mut drain_until: Option<Instant> = None;
    while let Some(front) = inflight.pop_front() {
        let status = match drain_until {
            // Measuring: block on the oldest ticket.
            None => live.rt.wait(front.ticket),
            // Draining: poll, so a wedged runtime costs 10 s, not forever.
            Some(deadline) => loop {
                match live.rt.poll(front.ticket) {
                    Ok(FrameStatus::Pending) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    other => break other,
                }
            },
        };
        let latency_ms = ms_since(front.submitted_at);
        let (stream, index) = w.nth(front.g);
        match status {
            Ok(FrameStatus::Done(result)) => {
                let modeled_ms = result.record.modeled.total().ms();
                if front.g < MODELED_FRAMES {
                    out.modeled_ms.push(modeled_ms);
                }
                if let (Some((opened, cpu0, _)), None) = (window, drain_until) {
                    out.samples.push(FrameSample {
                        done_s: opened.elapsed().as_secs_f64(),
                        cpu_s: cpu_now(Who::Me) - cpu0,
                        latency_ms,
                        modeled_ms,
                        submit_ms: front.submit_ms,
                        wall_preproc_ms: result.record.wall_preproc_s * 1e3,
                        wall_infer_ms: result.record.wall_infer_s * 1e3,
                    });
                }
                if keeps(front.g) {
                    out.kept.push(keep(stream, index, &result));
                }
            }
            Ok(other) => {
                eprintln!("stream {stream} frame {index}: {other:?}");
                out.failed += 1;
            }
            Err(err) => {
                eprintln!("stream {stream} frame {index}: {err}");
                out.failed += 1;
            }
        }
        let now = Instant::now();
        match window {
            None if started.elapsed().as_secs_f64() >= warmup_s => {
                window = Some((now, cpu_now(Who::Me), cpu_now(Who::ThisThread)));
            }
            Some((opened, _, client0))
                if drain_until.is_none() && (now - opened).as_secs_f64() >= measure_s =>
            {
                out.client_cpu_s = cpu_now(Who::ThisThread) - client0;
                drain_until = Some(now + DRAIN_DEADLINE);
            }
            _ => {}
        }
        if surplus > 0 {
            surplus -= 1;
        } else if drain_until.is_none() {
            submit(&mut inflight, &mut out);
        }
    }
    out
}

/// The `runtime.*` and `client.*` per-layer metrics of an in-process run.
fn layer_metrics(
    run: &LoopOutcome,
    report: &RuntimeReport,
    first_frame_ms: f64,
    stats_ms: (f64, f64),
    shutdown_ms: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let n = Some(run.samples.len());
    let col = |f: fn(&FrameSample) -> f64| -> Vec<f64> { run.samples.iter().map(f).collect() };
    let submit = col(|s| s.submit_ms);
    m.set_n("runtime.submit_ms_p50", p(&submit, 0.5), n);
    m.set_n("runtime.submit_ms_p95", p(&submit, 0.95), n);
    m.set_n(
        "runtime.wall_preproc_ms_p50",
        p(&col(|s| s.wall_preproc_ms), 0.5),
        n,
    );
    m.set_n(
        "runtime.wall_infer_ms_p50",
        p(&col(|s| s.wall_infer_ms), 0.5),
        n,
    );
    m.set_n(
        "runtime.wall_wait_ms_p50",
        p(
            &col(|s| s.latency_ms - s.wall_preproc_ms - s.wall_infer_ms),
            0.5,
        ),
        n,
    );
    let busy =
        |f: fn(&FrameSample) -> f64| run.samples.iter().map(f).sum::<f64>() / 1e3 / run.window_s();
    m.set("runtime.preproc_busy_share", busy(|s| s.wall_preproc_ms));
    m.set("runtime.infer_busy_share", busy(|s| s.wall_infer_ms));
    m.set("runtime.mean_batch_size", report.batching.mean_batch_size);
    m.set(
        "runtime.largest_batch",
        report.batching.largest_batch as f64,
    );
    m.set("runtime.batches", report.batching.batches as f64);
    m.set("runtime.reuse_hit_share", report.preproc_warm_ratio());
    m.set("runtime.dropped", report.total_dropped as f64);
    m.set("runtime.failed", run.failed as f64);
    m.set("runtime.first_frame_ms", first_frame_ms);
    m.set("runtime.stats_ms_first", stats_ms.0);
    m.set("runtime.stats_ms_last", stats_ms.1);
    m.set("runtime.stats_growth", stats_ms.1 / stats_ms.0.max(1e-9));
    m.set("runtime.shutdown_ms", shutdown_ms);
    m.set("client.cpu_share", run.client_cpu_s / run.window_s());
    m
}

/// Median wall time of `stats()` over a few calls, milliseconds.
fn stats_ms(rt: &ServingRuntime) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(rt.stats());
            ms_since(t)
        })
        .collect();
    crate::stats::median_of(&times)
}

/// Runs one closed-loop workload end to end.
pub fn run(w: &Workload, plan: &Plan) -> LoadOutcome {
    // Inputs exist; nothing of the program under test does yet.
    let baseline_rss = procfs::rss_mib(Who::Me).unwrap_or(0.0);
    let config = w.runtime_config();
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut live = None;
    for _ in 0..plan.setups.max(1) {
        if let Some(Live { rt, .. }) = live.take() {
            rt.shutdown().expect("set-up runtime shuts down");
        }
        let (secs, booted) = set_up(w, &config);
        setup_s.push(secs);
        live = Some(booted);
    }
    let live = live.expect("at least one set-up");
    let stats_first = stats_ms(&live.rt);

    let mut run = closed_loop(w, &live, 1, plan.warmup_s, plan.measure_s, |g| {
        plan.keeps(g)
    });
    if plan.keeps(0) {
        run.kept.insert(0, keep(0, 0, &live.first));
    }
    // Frame 0 went through set-up.
    run.modeled_ms
        .insert(0, live.first.record.modeled.total().ms());
    let stats_last = stats_ms(&live.rt);
    let t = Instant::now();
    let report = live.rt.shutdown().expect("runtime shuts down");
    let shutdown_ms = ms_since(t);
    let peak_rss_mib = procfs::peak_rss_mib(Who::Me).unwrap_or(0.0) - baseline_rss;

    let mut violations = Vec::new();
    if report.preproc_reuse != "on" {
        violations.push(format!(
            "preproc_reuse resolved to {:?}, not \"on\"",
            report.preproc_reuse
        ));
    }
    if w.kind == Kind::StreamWarm && report.preproc_warm_ratio() < 0.9 {
        violations.push(format!(
            "stream_warm reuse hit share {:.3} < 0.9: the warm path is not engaging",
            report.preproc_warm_ratio()
        ));
    }
    if w.kind == Kind::InferBatched && report.batching.mean_batch_size < 2.0 {
        violations.push(format!(
            "infer_batched mean batch size {:.2} < 2: micro-batches are not forming",
            report.batching.mean_batch_size
        ));
    }
    let layer = layer_metrics(
        &run,
        &report,
        live.first_frame_ms,
        (stats_first, stats_last),
        shutdown_ms,
    );
    LoadOutcome {
        setup_s,
        peak_rss_mib,
        // +1: frame 0 of stream 0 went through set-up.
        attempted: run.submitted + 1,
        failed: run.failed,
        kept: run.kept,
        samples: run.samples,
        modeled_ms: run.modeled_ms,
        layer,
        identity: Identity {
            kernel_backend: report.kernel_backend.to_string(),
            stage_backends: report.stage_backends.to_string(),
            preproc_reuse: report.preproc_reuse.to_string(),
        },
        violations,
    }
}

/// The telemetry leg: the same closed loop on a fresh runtime with
/// telemetry recording on. Returns `(frames_per_s, events_per_frame)`.
pub fn telemetry_leg(w: &Workload, warmup_s: f64, measure_s: f64) -> (f64, f64) {
    let config = w
        .runtime_config()
        .telemetry(hgpcn_runtime::TelemetryMode::On);
    let (_, live) = set_up(w, &config);
    let run = closed_loop(w, &live, 1, warmup_s, measure_s, |_| false);
    let report = live.rt.shutdown().expect("telemetry runtime shuts down");
    let events = report.telemetry.map_or(0, |t| t.trace.len());
    (
        run.samples.len() as f64 / run.window_s(),
        events as f64 / report.total_frames.max(1) as f64,
    )
}

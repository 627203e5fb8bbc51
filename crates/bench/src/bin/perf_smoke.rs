//! Perf smoke for CI: the batched-vs-serial serving sweep behind the
//! `BENCH_runtime.json` trajectory.
//!
//! ```text
//! perf_smoke [--streams N] [--frames N] [--batch N] [--workers N]
//!            [--seed N] [--out PATH]
//! ```
//!
//! Runs the same synthetic fleet through the serving runtime at three
//! sweep points — the **yardstick**: every frame a batch of one
//! (`max_batch = 1`), pinned to the reference scalar kernel and the
//! all-scalar stage anchors; the **modern path**: SoA micro-batching
//! (`max_batch = N`, default 8) on the dispatched kernel backend (AVX2
//! under `--features simd`, otherwise the blocked scalar kernel); and
//! the **telemetry tax point**: the batched configuration once more
//! with `TelemetryMode::On`, so the recording hot path's wall-clock
//! cost is measured on every CI run — all on the **same** worker count.
//! It asserts the per-frame modeled results are bit-identical across
//! serial/batched (all kernel backends are, by contract), that the
//! telemetry recorder leaves every modeled latency and op count
//! untouched (tracing is observation only), and writes throughput,
//! speedup and latency percentiles as JSON — including
//! `telemetry_on_vs_off`, the traced over untraced throughput ratio the
//! bench gate holds a floor under.
//!
//! Three kinds of numbers land in the JSON:
//!
//! * `wall_fps` / `speedup` — host wall-clock throughput. Machine
//!   dependent; CI gates only on the *ratio* (batched-modern over the
//!   batch-of-one yardstick), which is stable across runner generations and is
//!   exactly the metric the committed baseline has tracked since the
//!   batching PR.
//! * `p95_service_ms` — the modeled per-frame service latency from the
//!   deterministic cost models. Bit-reproducible anywhere; CI gates on it
//!   tightly.
//! * `kernel_backend` / `kernel_gmacs` / `kernel_gmacs_vs_reference` —
//!   which backend the batched side dispatched to, its measured dense
//!   matmul throughput on a representative layer shape, and that
//!   throughput as a same-host multiple of the reference kernel's. The
//!   absolute GMAC/s is machine dependent and never gated; the
//!   vs-reference multiple is machine-relative (like `speedup`) and is
//!   what CI gates — it collapses if dispatch silently stops selecting
//!   the fast backend.
//! * `stage_backends` (per side) / `preproc_gmacs` /
//!   `preproc_gmacs_vs_anchor` — which backend each preproc stage
//!   (sampling / gather / interpolate) dispatched to on that side, the
//!   dispatched stage set's GMAC-equivalent composite preproc
//!   throughput on representative per-frame shapes, and that throughput
//!   as a same-host multiple of the all-scalar anchor set's. The
//!   serial yardstick is pinned to `StageBackends::anchor()` exactly as
//!   it is pinned to the reference matmul kernel, so `speedup` keeps
//!   meaning "what the modern path buys over the original one" as the
//!   stage seams widen. Schema version 5 added this block.
//! * `preproc_warm_vs_cold` / `preproc_reuse` — the stream-context
//!   reuse seam's trajectory: modeled cold octree-build +
//!   Octree-Table-update latency over the §V-A warm delta pass,
//!   averaged across the warm frames of a temporally coherent
//!   drifting-scene stream, plus the policy name and the stream's
//!   hit/miss tally (`hit_rate` is the cache hit-rate). The latencies
//!   come from the deterministic cost models, so the ratio is
//!   bit-reproducible anywhere and CI holds both a tolerance band and
//!   an absolute floor (`bench_gate --min-warm-vs-cold`) under it.
//!   Schema version 6 added this pair.

use std::time::Instant;

use hgpcn_datasets::{DriftingScene, DriftingSceneConfig};
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::{HostMemory, Latency, OpCounts};
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_pcn::{LinearKernel, Matrix, PointNet, PointNetConfig, StageBackends};
use hgpcn_runtime::{
    ArrivalModel, LatencySummary, Runtime, RuntimeConfig, RuntimeReport, StageBackendNames,
    StreamSpec, SyntheticSource, TelemetryMode,
};
use hgpcn_sampling::ois;
use hgpcn_system::{PreprocessingEngine, StreamPreprocContext};

const TARGET: usize = 512;

struct Args {
    streams: usize,
    frames: usize,
    batch: usize,
    workers: usize,
    repeats: usize,
    seed: u64,
    out: String,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            streams: 8,
            frames: 4,
            batch: 8,
            workers: 2,
            repeats: 3,
            seed: 42,
            out: "BENCH_runtime.json".to_owned(),
        }
    }
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        let parse_usize = |s: String| {
            s.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("not an integer: {s}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--streams" => out.streams = parse_usize(next("a count")),
            "--frames" => out.frames = parse_usize(next("a count")),
            "--batch" => out.batch = parse_usize(next("a batch size")),
            "--workers" => out.workers = parse_usize(next("a pool size")),
            "--repeats" => out.repeats = parse_usize(next("a count")).max(1),
            "--seed" => out.seed = parse_usize(next("a seed")) as u64,
            "--out" => out.out = next("a path"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    out
}

fn fleet(args: &Args) -> Vec<StreamSpec> {
    (0..args.streams)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1400 + 120 * i, 10.0, args.frames, i as u64),
            )
        })
        .collect()
}

/// Runs the fleet `repeats` times at one `(max_batch, telemetry)`
/// sweep point and keeps the fastest wall time (the modeled report is
/// identical across repeats; best-of-N filters out co-tenant noise on
/// shared CI runners).
fn run(
    args: &Args,
    max_batch: usize,
    net: &PointNet,
    telemetry: TelemetryMode,
    repeats: usize,
) -> (RuntimeReport, f64) {
    let config = RuntimeConfig::default()
        .preproc_workers(args.workers)
        .inference_workers(args.workers)
        .queue_capacity(64)
        .arrival(ArrivalModel::Backlogged)
        .target_points(TARGET)
        .seed(args.seed)
        .max_batch(max_batch)
        .telemetry(telemetry);
    let runtime = Runtime::new(config).expect("valid config");
    let mut best: Option<(RuntimeReport, f64)> = None;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let report = runtime.run(fleet(args), net).expect("run succeeds");
        let secs = started.elapsed().as_secs_f64();
        if best.as_ref().map_or(true, |(_, b)| secs < *b) {
            best = Some((report, secs));
        }
    }
    best.expect("at least one repeat")
}

/// Modeled per-frame service latency percentiles across all records —
/// deterministic, so CI can gate on them tightly.
fn service_summary(report: &RuntimeReport) -> LatencySummary {
    let samples: Vec<Latency> = report.records.iter().map(|r| r.modeled.total()).collect();
    LatencySummary::from_samples(&samples)
}

/// The per-stage backend identity of a side, as a JSON object in
/// pipeline order — the "per-stage backend recorded" half of the
/// schema-5 bump.
fn stage_backends_json(stages: &StageBackendNames) -> String {
    let pairs: Vec<String> = stages
        .as_pairs()
        .iter()
        .map(|(stage, backend)| format!("\"{stage}\": \"{backend}\""))
        .collect();
    format!("{{ {} }}", pairs.join(", "))
}

fn side_json(label: &str, report: &RuntimeReport, wall_s: f64) -> String {
    let service = service_summary(report);
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"frames\": {},\n",
            "    \"wall_s\": {:.4},\n",
            "    \"wall_fps\": {:.3},\n",
            "    \"p50_service_ms\": {:.6},\n",
            "    \"p95_service_ms\": {:.6},\n",
            "    \"modeled_pipelined_fps\": {:.4},\n",
            "    \"kernel_backend\": \"{}\",\n",
            "    \"stage_backends\": {},\n",
            "    \"batches\": {},\n",
            "    \"mean_batch_size\": {:.3},\n",
            "    \"largest_batch\": {}\n",
            "  }}"
        ),
        label,
        report.total_frames,
        wall_s,
        report.total_frames as f64 / wall_s.max(1e-12),
        service.p50.ms(),
        service.p95.ms(),
        report.modeled_pipelined_fps,
        report.kernel_backend,
        stage_backends_json(&report.stage_backends),
        report.batching.batches,
        report.batching.mean_batch_size,
        report.batching.largest_batch,
    )
}

/// Dense matmul throughput (GMAC/s) of `kernel` on a representative
/// mid-network layer shape — best of a few reps, no zero-skips (the
/// same [`hgpcn_bench::dense_matrix`] workload the `kernel_matmul`
/// bench sweeps), so the number reads directly as kernel arithmetic
/// throughput.
fn kernel_gmacs(kernel: LinearKernel) -> f64 {
    const ROWS: usize = 1024;
    const INS: usize = 131;
    const OUTS: usize = 128;
    let x = hgpcn_bench::dense_matrix(ROWS, INS, 0.0);
    let w = hgpcn_bench::dense_matrix(INS, OUTS, 1.0);
    let bias: Vec<f32> = (0..OUTS).map(|j| j as f32 * 0.01 - 0.2).collect();
    let macs = (ROWS * INS * OUTS) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let started = Instant::now();
        std::hint::black_box(kernel.apply(&x, &w, &bias, true));
        best = best.min(started.elapsed().as_secs_f64());
    }
    macs / best.max(1e-12) / 1e9
}

/// The shared preproc micro-workload: one fleet-sized frame's stage
/// shapes. Sampling runs OIS at `TARGET` centers over the SFC-built
/// octree; gather scores every point against `PREPROC_CENTERS` query
/// centers and keeps the `PREPROC_K` nearest (the first SA layer's
/// shape); interpolate propagates a `PREPROC_CENTERS`-wide feature
/// matrix onto all `TARGET` fine points (the deepest FP layer's pair
/// count — the term that dominates the preproc floor).
struct PreprocWorkload {
    tree: Octree,
    table: OctreeTable,
    centers: Vec<Point3>,
    fine: Vec<Point3>,
    feats: Matrix,
}

const PREPROC_POINTS: usize = 1400;
const PREPROC_CENTERS: usize = 128;
const PREPROC_K: usize = 32;

fn preproc_workload() -> PreprocWorkload {
    let cloud: PointCloud = (0..PREPROC_POINTS)
        .map(|i| {
            let f = i as f32;
            Point3::new(
                (f * 0.618).fract() * 4.0,
                (f * 0.414).fract() * 4.0,
                (f * 0.732).fract() * 4.0,
            )
        })
        .collect();
    let tree =
        Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(3)).expect("finite");
    let table = OctreeTable::from_octree(&tree);
    let pts = tree.points();
    let centers: Vec<Point3> = (0..PREPROC_CENTERS)
        .map(|i| pts.point(i * pts.len() / PREPROC_CENTERS))
        .collect();
    let fine: Vec<Point3> = (0..TARGET).map(|i| pts.point(i % pts.len())).collect();
    let feats = Matrix::from_vec(
        PREPROC_CENTERS,
        128,
        (0..PREPROC_CENTERS * 128)
            .map(|i| (i as f32 * 0.37).sin())
            .collect(),
    );
    PreprocWorkload {
        tree,
        table,
        centers,
        fine,
        feats,
    }
}

/// One timed pass of all three preproc stages under `stages`, returning
/// `(wall seconds, MAC-equivalents)` — a squared distance (3 mul +
/// 5 add/sub) is charged as 3 MAC-equivalents, scan comparisons as
/// 1, so the composite reads on the same GMAC/s axis as the dense
/// kernels. Best-of-N over callers; the modeled counts are identical
/// across backends by the bit-equality contract, so only the wall time
/// distinguishes the stage sets.
fn preproc_pass(w: &PreprocWorkload, stages: StageBackends) -> (f64, f64) {
    let started = Instant::now();
    // Sampling: exact OIS at the serving target on the forced backend.
    let mut mem = HostMemory::from_cloud(w.tree.points());
    let sampled = ois::sample_with(&w.tree, &w.table, &mut mem, TARGET, 7, stages.sampling)
        .expect("valid workload");
    // Gather: score-all + top-K per query center (the selection loop is
    // the stage seam; the scoring sweep is the same code on both sides).
    let pts = w.tree.points();
    let mut scored: Vec<(f32, usize)> = Vec::with_capacity(pts.len());
    for &c in &w.centers {
        scored.clear();
        scored.extend((0..pts.len()).map(|i| (c.distance_sq(pts.point(i)), i)));
        stages.gather.top_k(&mut scored, PREPROC_K);
        std::hint::black_box(scored.len());
    }
    // Interpolate: the deepest FP layer's fine x coarse propagation.
    let mut counts = OpCounts::default();
    let out = stages
        .interpolate
        .apply(&w.fine, &w.centers, &w.feats, &mut counts);
    std::hint::black_box((&sampled, &out));
    let secs = started.elapsed().as_secs_f64();

    let sample_equiv =
        sampled.counts.distance_computations as f64 * 3.0 + sampled.counts.comparisons as f64;
    let gather_equiv = (w.centers.len() * pts.len()) as f64 * 3.0;
    let interp_equiv = counts.distance_computations as f64 * 3.0 + counts.comparisons as f64;
    (secs, sample_equiv + gather_equiv + interp_equiv)
}

/// GMAC-equivalent composite preproc throughput of a stage-backend set:
/// best-of-6 over [`preproc_pass`]. Absolute numbers are machine
/// dependent and never gated; the vs-anchor multiple is same-host
/// machine-relative, exactly like `kernel_gmacs_vs_reference`.
fn preproc_gmacs(w: &PreprocWorkload, stages: StageBackends) -> f64 {
    let mut best = f64::INFINITY;
    let mut equiv = 0.0;
    for _ in 0..6 {
        let (secs, e) = preproc_pass(w, stages);
        best = best.min(secs);
        equiv = e;
    }
    equiv / best.max(1e-12) / 1e9
}

/// The stream-context reuse trajectory for the JSON: the modeled
/// cold-over-warm latency ratio and the measurement stream's hit/miss
/// tally.
struct ReuseMeasurement {
    warm_vs_cold: f64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

/// Measures the stream-context reuse seam: modeled cold octree-build +
/// Octree-Table-update latency over the §V-A warm delta pass, averaged
/// across the warm frames (everything after the cache-priming frame 0)
/// of a temporally coherent drifting-scene stream.
///
/// The scene is background-dominated — two small movers over a large
/// static shell, the regime real LiDAR streams sit in and the one where
/// incremental table updates pay: most sorted positions are unchanged
/// frame to frame, so the warm pass re-emits only the dirty table rows.
/// The build and transfer latencies come from the deterministic cost
/// models, making the ratio bit-reproducible anywhere — the sampling
/// stage is deliberately excluded (reuse leaves its cost untouched, and
/// including it would only dilute the gated signal).
fn reuse_warm_vs_cold() -> ReuseMeasurement {
    let scene = DriftingScene::new(
        DriftingSceneConfig {
            objects: 2,
            points_per_object: 200,
            shell_points: 3712,
            ..DriftingSceneConfig::default()
        },
        9,
    );
    let engine = PreprocessingEngine::prototype();
    let sampling = hgpcn_sampling::SamplingKernel::default();
    let mut ctx = StreamPreprocContext::new();
    let frames = 8;
    let (mut warm, mut cold) = (Latency::ZERO, Latency::ZERO);
    for i in 0..frames {
        let frame = scene.frame(i);
        let cold_out = engine
            .run_using(&frame, TARGET, 7, sampling)
            .expect("cold preproc succeeds");
        let out = engine
            .run_with_context(&frame, TARGET, 7, sampling, &mut ctx)
            .expect("warm preproc succeeds");
        // The context changes pricing, never results: the warm frame
        // must pick bit-identical samples.
        assert_eq!(
            out.sampled_sfc, cold_out.sampled_sfc,
            "reuse changed frame {i}'s samples"
        );
        if i > 0 {
            warm += out.build_latency + out.transfer_latency;
            cold += cold_out.build_latency + cold_out.transfer_latency;
        }
        ctx.recycle(out);
    }
    let (hits, misses) = (ctx.hits(), ctx.misses());
    ReuseMeasurement {
        warm_vs_cold: cold.secs() / warm.secs().max(1e-12),
        hits,
        misses,
        hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
    }
}

fn main() {
    let args = parse_args();
    // The yardstick: a batch of one per frame, pinned to the reference
    // scalar kernel *and* the all-scalar anchor stage backends, so the
    // metric keeps meaning "what did batching + kernel dispatch + stage
    // dispatch buy over the original path". The candidate: the batched
    // path on the default backends. Same seed, and all backends are
    // bit-identical, so the two nets produce identical per-frame results.
    let config = PointNetConfig::semantic_segmentation(TARGET);
    let net_serial = PointNet::new(config.clone(), 1)
        .with_kernel(LinearKernel::Reference)
        .with_stage_backends(StageBackends::anchor());
    let net_modern = PointNet::new(config, 1);

    // One warm-up pass per sweep point so first-touch costs (page
    // faults, lazy init) don't land on whichever side runs first.
    let _ = run(&args, 1, &net_serial, TelemetryMode::Off, 1);
    let _ = run(&args, args.batch, &net_modern, TelemetryMode::Off, 1);
    let _ = run(&args, args.batch, &net_modern, TelemetryMode::On, 1);

    let (serial, serial_s) = run(&args, 1, &net_serial, TelemetryMode::Off, args.repeats);
    // The observability tax pair: the batched sweep point untraced
    // and once more with the full tracing + metrics hot path live. Same
    // seed and cost models, so the modeled outputs must be untouched;
    // only wall time may move. The two sides are *interleaved* repeat by
    // repeat so they sample the same host-noise window — a sequential
    // block of traced repeats can land entirely under a co-tenant burst
    // and fake a large overhead ratio.
    let mut off_best: Option<(RuntimeReport, f64)> = None;
    let mut on_best: Option<(RuntimeReport, f64)> = None;
    for _ in 0..args.repeats {
        let off = run(&args, args.batch, &net_modern, TelemetryMode::Off, 1);
        if off_best.as_ref().map_or(true, |(_, b)| off.1 < *b) {
            off_best = Some(off);
        }
        let on = run(&args, args.batch, &net_modern, TelemetryMode::On, 1);
        if on_best.as_ref().map_or(true, |(_, b)| on.1 < *b) {
            on_best = Some(on);
        }
    }
    let (batched, batched_s) = off_best.expect("at least one repeat");
    let (traced, traced_s) = on_best.expect("at least one repeat");

    // The batched path may not perturb the modeled results: identical
    // per-frame modeled inference latencies and op counts.
    assert_eq!(serial.total_frames, batched.total_frames);
    for (a, b) in serial.records.iter().zip(&batched.records) {
        assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
        assert_eq!(
            a.modeled.inference.latency, b.modeled.inference.latency,
            "batching perturbed frame ({}, {})",
            a.stream_id, a.frame_index
        );
        assert_eq!(a.modeled.inference.counts, b.modeled.inference.counts);
    }
    // Telemetry is observation only: with recording on, every modeled
    // per-frame result must stay bit-identical to the untraced run, and
    // the snapshot must actually have recorded the lifecycle.
    assert_eq!(batched.total_frames, traced.total_frames);
    for (a, t) in batched.records.iter().zip(&traced.records) {
        assert_eq!((a.stream_id, a.frame_index), (t.stream_id, t.frame_index));
        assert_eq!(
            a.modeled.inference.latency, t.modeled.inference.latency,
            "telemetry perturbed the modeled latency of frame ({}, {})",
            a.stream_id, a.frame_index
        );
        assert_eq!(a.modeled.inference.counts, t.modeled.inference.counts);
    }
    let snapshot = traced
        .telemetry
        .as_ref()
        .expect("TelemetryMode::On must produce a snapshot");
    assert!(!snapshot.trace.is_empty(), "traced run recorded no events");

    let serial_fps = serial.total_frames as f64 / serial_s.max(1e-12);
    let batched_fps = batched.total_frames as f64 / batched_s.max(1e-12);
    let traced_fps = traced.total_frames as f64 / traced_s.max(1e-12);
    let speedup = batched_fps / serial_fps.max(1e-12);
    // Same-host throughput ratio with recording on vs off — the
    // measured cost of the "zero-cost-when-off, cheap-when-on" claim.
    let telemetry_on_vs_off = traced_fps / batched_fps.max(1e-12);
    let active = net_modern.kernel();
    let gmacs = kernel_gmacs(active);
    // Same-host ratio of the dispatched backend over the reference
    // kernel: machine-relative like `speedup`, so the gate can hold it
    // to a tight tolerance across runner generations. A dispatch that
    // silently stops selecting AVX2 drops this by ~30%.
    let gmacs_vs_reference = gmacs / kernel_gmacs(LinearKernel::Reference).max(1e-12);
    // The preproc-stage mirror of the kernel pair: composite
    // GMAC-equivalent throughput of the dispatched stage set, its
    // same-host multiple over the all-scalar anchor set (the gated
    // ratio).
    let stages_active = net_modern.stage_backends();
    let workload = preproc_workload();
    let anchor_gmacs = preproc_gmacs(&workload, StageBackends::anchor());
    let pre_gmacs = preproc_gmacs(&workload, stages_active);
    let pre_vs_anchor = pre_gmacs / anchor_gmacs.max(1e-12);
    // The reuse seam's counterpart pair: modeled (deterministic), so the
    // gate bands it tightly and holds an absolute floor under it.
    let reuse = reuse_warm_vs_cold();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"runtime_batching\",\n",
            "  \"schema_version\": 8,\n",
            "  \"config\": {{\n",
            "    \"streams\": {},\n",
            "    \"frames_per_stream\": {},\n",
            "    \"workers_per_stage\": {},\n",
            "    \"max_batch\": {},\n",
            "    \"target_points\": {},\n",
            "    \"seed\": {}\n",
            "  }},\n",
            "{},\n",
            "{},\n",
            "{},\n",
            "  \"kernel_backend\": \"{}\",\n",
            "  \"kernel_gmacs\": {:.4},\n",
            "  \"kernel_gmacs_vs_reference\": {:.4},\n",
            "  \"preproc_gmacs\": {:.4},\n",
            "  \"preproc_gmacs_vs_anchor\": {:.4},\n",
            "  \"preproc_warm_vs_cold\": {:.4},\n",
            "  \"preproc_reuse\": {{\n",
            "    \"policy\": \"{}\",\n",
            "    \"hits\": {},\n",
            "    \"misses\": {},\n",
            "    \"hit_rate\": {:.4}\n",
            "  }},\n",
            "  \"speedup\": {:.4},\n",
            "  \"telemetry_on_vs_off\": {:.4},\n",
            "  \"telemetry_events\": {}\n",
            "}}\n"
        ),
        args.streams,
        args.frames,
        args.workers,
        args.batch,
        TARGET,
        args.seed,
        side_json("serial", &serial, serial_s),
        side_json("batched", &batched, batched_s),
        side_json("telemetry", &traced, traced_s),
        active.name(),
        gmacs,
        gmacs_vs_reference,
        pre_gmacs,
        pre_vs_anchor,
        reuse.warm_vs_cold,
        batched.preproc_reuse,
        reuse.hits,
        reuse.misses,
        reuse.hit_rate,
        speedup,
        telemetry_on_vs_off,
        snapshot.trace.len(),
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });

    println!("perf_smoke: {} frames per side", serial.total_frames);
    println!(
        "  serial : {serial_s:.3} s wall, {serial_fps:.2} frames/s (max_batch 1, kernel {})",
        serial.kernel_backend
    );
    println!(
        "  batched: {batched_s:.3} s wall, {batched_fps:.2} frames/s (max_batch {}, mean batch {:.2}, kernel {})",
        args.batch,
        batched.batching.mean_batch_size,
        batched.kernel_backend
    );
    println!(
        "  kernel : {} at {gmacs:.2} GMAC/s dense ({gmacs_vs_reference:.2}x the reference kernel)",
        active.name()
    );
    println!(
        "  stages : {} at {pre_gmacs:.2} GMAC-equiv/s preproc ({pre_vs_anchor:.2}x the anchor set)",
        batched.stage_backends
    );
    println!(
        "  reuse  : policy {}, warm build+table modeled {:.2}x cheaper than cold ({} hits / {} misses, hit rate {:.2})",
        batched.preproc_reuse, reuse.warm_vs_cold, reuse.hits, reuse.misses, reuse.hit_rate
    );
    println!(
        "  traced : {traced_s:.3} s wall, {traced_fps:.2} frames/s ({:.1}% of untraced, {} events)",
        telemetry_on_vs_off * 100.0,
        snapshot.trace.len()
    );
    println!("  speedup: {speedup:.2}x batched  -> {}", args.out);
}

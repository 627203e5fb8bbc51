//! Open-loop load harness for the sharded serving runtime: the
//! `BENCH_load.json` trajectory behind the `load-smoke` CI job.
//!
//! ```text
//! load_smoke [--shards N] [--streams N] [--events N] [--rate FPS]
//!            [--target-points N] [--seed N] [--placement hash|least-loaded]
//!            [--sat-streams N] [--sat-events N] [--out PATH]
//!            [--http ADDR] [--http-streams N] [--http-frames N]
//!            [--metrics-out FILE]
//! ```
//!
//! Two in-process legs drive a [`ShardedRuntime`] the way a fleet of
//! sensors would, open-loop (submission never waits for results):
//!
//! * **Offered leg** — Poisson arrivals (exponential inter-arrival
//!   times at `--rate` aggregate fps) across `--streams` synthetic
//!   streams, each event picking a stream uniformly at random and a
//!   frame size from a Pareto(α = 1.8) heavy tail, the classic
//!   lidar-frame size distribution. Every replica runs **one** worker
//!   per stage, so each shard's virtual timeline — and therefore the
//!   sojourn distribution and `modeled_pipelined_fps` — is a
//!   bit-reproducible function of the seed; CI gates `p99_sojourn_ms`
//!   and `achieved_fps` tightly.
//! * **Saturation leg** — a fresh sharded runtime with tiny
//!   (`queue_capacity = 4`) queues under `DropOldest`, hit with a
//!   zero-timestamp burst of pre-built frames. At this depth of
//!   overload nearly every frame is evicted, so `drop_rate` is a
//!   stable macroscopic number even though individual evictions race
//!   real worker threads; CI holds a floor under it
//!   (`bench_gate`'s `MIN_DROP_RATE`) rather than a tolerance band.
//!
//! An optional **HTTP leg** (`--http ADDR`) drives a live
//! `hgpcn-serve --shards N` server over loopback through the full
//! JSON-RPC surface (`open_stream`, `submit_cloud`, `poll_result`,
//! `shard_stats`), then scrapes `/metrics` — verifying the
//! `hgpcn_shard` label is present when the server is sharded — and
//! saves the scrape for `trace_check --prom` validation.
//!
//! Wall-clock numbers (`wall_s`, `wall_fps`) are recorded for the
//! record but never gated; the gated metrics are modeled and
//! deterministic (offered leg) or deep-overload-stable (drop rate).

use std::sync::Arc;
use std::time::Instant;

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    BackpressurePolicy, FrameStatus, PlacementPolicy, RuntimeConfig, RuntimeReport, ShardedRuntime,
    StreamProfile,
};
use minihttp::http::request;
use minihttp::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    shards: usize,
    streams: usize,
    events: usize,
    rate: f64,
    target_points: usize,
    seed: u64,
    placement: PlacementPolicy,
    sat_streams: usize,
    sat_events: usize,
    out: String,
    http: Option<String>,
    http_streams: usize,
    http_frames: usize,
    metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            shards: 4,
            streams: 2048,
            events: 2048,
            rate: 240.0,
            target_points: 512,
            seed: 0x10AD,
            placement: PlacementPolicy::ConsistentHash,
            sat_streams: 64,
            sat_events: 1024,
            out: "BENCH_load.json".to_owned(),
            http: None,
            http_streams: 8,
            http_frames: 4,
            metrics_out: None,
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
        let parse_f64 = |s: String| {
            s.parse::<f64>().unwrap_or_else(|_| {
                eprintln!("not a number: {s}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--shards" => out.shards = parse_usize(next("a count")),
            "--streams" => out.streams = parse_usize(next("a count")),
            "--events" => out.events = parse_usize(next("a count")),
            "--rate" => out.rate = parse_f64(next("an fps")),
            "--target-points" => out.target_points = parse_usize(next("a count")),
            "--seed" => out.seed = parse_usize(next("a seed")) as u64,
            "--placement" => {
                out.placement = match next("hash|least-loaded").as_str() {
                    "hash" => PlacementPolicy::ConsistentHash,
                    "least-loaded" => PlacementPolicy::LeastLoaded,
                    other => {
                        eprintln!("--placement: {other:?} is not \"hash\" or \"least-loaded\"");
                        std::process::exit(2);
                    }
                }
            }
            "--sat-streams" => out.sat_streams = parse_usize(next("a count")),
            "--sat-events" => out.sat_events = parse_usize(next("a count")),
            "--out" => out.out = next("a path"),
            "--http" => out.http = Some(next("an address")),
            "--http-streams" => out.http_streams = parse_usize(next("a count")),
            "--http-frames" => out.http_frames = parse_usize(next("a count")),
            "--metrics-out" => out.metrics_out = Some(next("a path")),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    out
}

/// One synthetic arrival: which stream, when (virtual sensor time), and
/// how large a cloud.
struct Event {
    stream: usize,
    ts_s: f64,
    points: usize,
}

/// The offered-load trace: a merged Poisson process at `rate` aggregate
/// fps, each event assigned a uniform stream and a Pareto(α) frame
/// size — heavy-tailed, so occasional frames are several times the
/// median and exercise the preproc stage's size sensitivity.
fn poisson_trace(args: &Args) -> Vec<Event> {
    const ALPHA: f64 = 1.8;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let xm = args.target_points as f64 * 1.25;
    let cap = args.target_points * 8;
    let mut clock = 0.0f64;
    (0..args.events)
        .map(|_| {
            // Exponential inter-arrival: -ln(1 - U) / λ.
            let u: f64 = rng.gen_range(0.0..1.0);
            clock += -(1.0 - u).ln() / args.rate.max(1e-9);
            // Pareto size: xm · (1 - U)^(-1/α), clamped to keep the
            // tail heavy but the wall time bounded.
            let v: f64 = rng.gen_range(0.0..1.0);
            let points = (xm * (1.0 - v).powf(-1.0 / ALPHA)) as usize;
            Event {
                stream: rng.gen_range(0..args.streams),
                ts_s: clock,
                points: points.clamp(args.target_points, cap),
            }
        })
        .collect()
}

/// Deterministic low-discrepancy cloud for event `e` of size `points`.
///
/// The fractional parts are computed in f64: at event indices in the
/// thousands the running index exceeds f32's exact-integer range, and
/// an f32 `fract()` would collapse the cloud onto a handful of
/// quantized coordinates (thousands of duplicate points — a degenerate
/// octree input, not a lidar frame).
fn event_cloud(e: usize, points: usize) -> PointCloud {
    (0..points)
        .map(|p| {
            let f = (e * 7919 + p) as f64;
            Point3::new(
                ((f * 0.618_033_988_749).fract() * 2.0) as f32,
                ((f * 0.414_213_562_373).fract() * 2.0) as f32,
                ((f * 0.732_050_807_568).fract() * 2.0) as f32,
            )
        })
        .collect()
}

/// The p-th percentile (nearest-rank on the sorted samples).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct OfferedOutcome {
    report: RuntimeReport,
    wall_s: f64,
    p50_sojourn_ms: f64,
    p99_sojourn_ms: f64,
}

/// The offered leg: open the fleet, replay the Poisson trace in
/// timestamp order (open loop — no waiting between submissions), drain
/// every ticket, shut down for the merged report.
fn run_offered(args: &Args, net: &Arc<PointNet>) -> OfferedOutcome {
    let config = RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .queue_capacity(64)
        .max_batch(4)
        .target_points(args.target_points)
        .seed(args.seed);
    let runtime = ShardedRuntime::start(config, args.shards, args.placement, Arc::clone(net))
        .expect("valid config");
    let ids: Vec<usize> = (0..args.streams)
        .map(|s| {
            runtime
                .open_stream(StreamProfile::new(format!("load-{s:04}")).nominal_fps(10.0))
                .expect("stream opens")
        })
        .collect();
    let trace = poisson_trace(args);
    let started = Instant::now();
    let tickets: Vec<_> = trace
        .iter()
        .enumerate()
        .map(|(e, ev)| {
            runtime
                .submit(ids[ev.stream], ev.ts_s, event_cloud(e, ev.points))
                .expect("lossless backpressure admits every frame")
        })
        .collect();
    for ticket in tickets {
        match runtime.wait(ticket).expect("ticket resolves") {
            FrameStatus::Done(_) => {}
            other => panic!("offered leg frame resolved {other:?}"),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let report = runtime.shutdown().expect("clean shutdown");
    assert_eq!(report.total_frames, args.events, "offered leg lost frames");
    let mut sojourns_ms: Vec<f64> = report
        .records
        .iter()
        .map(|r| (r.virtual_done_s - r.virtual_arrival_s) * 1e3)
        .collect();
    sojourns_ms.sort_by(f64::total_cmp);
    OfferedOutcome {
        p50_sojourn_ms: percentile(&sojourns_ms, 0.50),
        p99_sojourn_ms: percentile(&sojourns_ms, 0.99),
        report,
        wall_s,
    }
}

/// The saturation leg: tiny queues, `DropOldest`, and a zero-timestamp
/// burst of pre-built frames submitted as fast as the admission path
/// accepts them. Returns `(report, offered)`.
fn run_saturation(args: &Args, net: &Arc<PointNet>) -> (RuntimeReport, usize) {
    let config = RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .queue_capacity(4)
        .backpressure(BackpressurePolicy::DropOldest)
        .max_batch(4)
        .target_points(args.target_points)
        .seed(args.seed ^ 0x5A7);
    let runtime = ShardedRuntime::start(config, args.shards, args.placement, Arc::clone(net))
        .expect("valid config");
    let ids: Vec<usize> = (0..args.sat_streams)
        .map(|s| {
            runtime
                .open_stream(StreamProfile::new(format!("burst-{s:02}")).nominal_fps(10.0))
                .expect("stream opens")
        })
        .collect();
    // Pre-build every cloud so the burst is as tight as the admission
    // path allows — cloud construction must not pace the overload.
    let clouds: Vec<PointCloud> = (0..args.sat_events)
        .map(|e| event_cloud(e, args.target_points + 32))
        .collect();
    let tickets: Vec<_> = clouds
        .into_iter()
        .enumerate()
        .map(|(e, cloud)| {
            runtime
                .submit(ids[e % ids.len()], 0.0, cloud)
                .expect("DropOldest admission never blocks")
        })
        .collect();
    // Every ticket resolves: evicted frames as Failed(Dropped), the
    // survivors as Done.
    for ticket in tickets {
        let _ = runtime.wait(ticket).expect("ticket resolves");
    }
    let report = runtime.shutdown().expect("clean shutdown");
    (report, args.sat_events)
}

/// One JSON-RPC call against the live server (HTTP leg).
fn rpc(addr: &str, id: usize, method: &str, params: Json) -> Result<Json, String> {
    let body = Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", Json::from(id)),
        ("method", Json::str(method)),
        ("params", params),
    ])
    .to_string();
    let resp = request(addr, "POST", "/rpc", body.as_bytes())
        .map_err(|e| format!("{method}: transport error: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "{method}: HTTP {} — {}",
            resp.status,
            resp.body_text()
        ));
    }
    let doc = json::parse(&resp.body_text())
        .map_err(|e| format!("{method}: unparseable response: {e}"))?;
    if let Some(err) = doc.path("error") {
        return Err(format!("{method}: JSON-RPC error: {err}"));
    }
    doc.path("result")
        .cloned()
        .ok_or_else(|| format!("{method}: response has neither result nor error"))
}

fn cloud_json(frame: usize, points: usize) -> Json {
    let pts: Vec<Json> = (0..points)
        .map(|p| {
            let f = (frame * points + p) as f64;
            Json::Arr(vec![
                Json::Num((f * 0.618_033_988).fract()),
                Json::Num((f * 0.414_213_562).fract()),
                Json::Num((f * 0.732_050_808).fract()),
            ])
        })
        .collect();
    Json::Arr(pts)
}

struct HttpOutcome {
    frames: usize,
    shard_count: usize,
    wall_s: f64,
}

/// The HTTP leg: the same open-loop discipline over loopback against a
/// live (usually `--shards N`) server, plus the sharded observability
/// surface: `shard_stats` must answer, the stream's `shard` field must
/// agree with the aggregate view, and `/metrics` must carry the
/// `hgpcn_shard` label whenever the server has more than one shard.
fn run_http(args: &Args, addr: &str) -> Result<HttpOutcome, String> {
    // The server must be healthy before the first RPC.
    let mut last = String::from("no attempt made");
    let healthy = (0..100).any(|_| match request(addr, "GET", "/health", b"") {
        Ok(resp) if resp.status == 200 => true,
        Ok(resp) => {
            last = format!("HTTP {}", resp.status);
            std::thread::sleep(std::time::Duration::from_millis(100));
            false
        }
        Err(e) => {
            last = e.to_string();
            std::thread::sleep(std::time::Duration::from_millis(100));
            false
        }
    });
    if !healthy {
        return Err(format!("server at {addr} never became healthy: {last}"));
    }

    let started = Instant::now();
    let mut stream_ids = Vec::with_capacity(args.http_streams);
    for s in 0..args.http_streams {
        let opened = rpc(
            addr,
            1 + s,
            "open_stream",
            Json::obj([
                ("name", Json::str(format!("http-load-{s}"))),
                ("nominal_fps", Json::from(10.0)),
            ]),
        )?;
        stream_ids.push(
            opened
                .usize_at("stream_id")
                .ok_or_else(|| format!("open_stream: no stream_id in {opened}"))?,
        );
    }

    // Open loop: submit the whole grid, then drain with blocking polls.
    let points = 600.max(args.target_points);
    let mut tickets = Vec::new();
    for frame in 0..args.http_frames {
        for (s, &id) in stream_ids.iter().enumerate() {
            let result = rpc(
                addr,
                1000 + frame * args.http_streams + s,
                "submit_cloud",
                Json::obj([
                    ("stream_id", Json::from(id)),
                    ("sensor_ts_s", Json::from(frame as f64 / 10.0)),
                    ("points", cloud_json(frame * args.http_streams + s, points)),
                ]),
            )?;
            let frame_index = result
                .usize_at("frame_index")
                .ok_or_else(|| format!("submit_cloud: no frame_index in {result}"))?;
            tickets.push((id, frame_index));
        }
    }
    for (i, (id, frame_index)) in tickets.iter().enumerate() {
        let result = rpc(
            addr,
            5000 + i,
            "poll_result",
            Json::obj([
                ("stream_id", Json::from(*id)),
                ("frame_index", Json::from(*frame_index)),
                ("wait", Json::from(true)),
            ]),
        )?;
        if result.str_at("status") != Some("done") {
            return Err(format!("poll_result: frame did not complete: {result}"));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    // The sharded observability surface.
    let empty: [(&str, Json); 0] = [];
    let shards = rpc(addr, 9000, "shard_stats", Json::obj(empty))?;
    let shard_count = shards
        .usize_at("shard_count")
        .ok_or_else(|| format!("shard_stats: no shard_count in {shards}"))?;
    let stats = rpc(
        addr,
        9001,
        "stream_stats",
        Json::obj([("stream_id", Json::from(stream_ids[0]))]),
    )?;
    let shard = stats
        .usize_at("shard")
        .ok_or_else(|| format!("stream_stats: no shard field in {stats}"))?;
    if shard >= shard_count {
        return Err(format!(
            "stream_stats: shard {shard} out of range (shard_count {shard_count})"
        ));
    }

    let metrics = request(addr, "GET", "/metrics", b"")
        .map_err(|e| format!("/metrics: transport error: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("/metrics: HTTP {}", metrics.status));
    }
    let text = metrics.body_text();
    if shard_count > 1 && !text.contains("hgpcn_shard=\"") {
        return Err("/metrics: sharded server exposes no hgpcn_shard label".to_string());
    }
    if !text.contains("hgpcn_frames_completed_total") {
        return Err("/metrics: missing hgpcn_frames_completed_total".to_string());
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, text.as_bytes())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }

    Ok(HttpOutcome {
        frames: tickets.len(),
        shard_count,
        wall_s,
    })
}

fn main() {
    let args = parse_args();
    // The size-parameterized segmentation net scales its sampling
    // pyramid to `target_points`, so small frames stay cheap and the
    // harness can afford thousands of events per CI run.
    let net = Arc::new(PointNet::new(
        PointNetConfig::semantic_segmentation(args.target_points),
        args.seed,
    ));

    let offered = run_offered(&args, &net);
    let (saturation, sat_offered) = run_saturation(&args, &net);
    let drop_rate = saturation.total_dropped as f64 / sat_offered.max(1) as f64;

    let http = args.http.as_deref().map(|addr| {
        run_http(&args, addr).unwrap_or_else(|why| {
            eprintln!("load_smoke: http leg failed: {why}");
            std::process::exit(1);
        })
    });

    let placement = match args.placement {
        PlacementPolicy::ConsistentHash => "hash",
        PlacementPolicy::LeastLoaded => "least-loaded",
    };
    let http_json = match &http {
        None => String::new(),
        Some(h) => format!(
            concat!(
                ",\n  \"http\": {{\n",
                "    \"frames\": {},\n",
                "    \"shard_count\": {},\n",
                "    \"wall_s\": {:.4}\n",
                "  }}"
            ),
            h.frames, h.shard_count, h.wall_s,
        ),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"load_harness\",\n",
            "  \"schema_version\": 1,\n",
            "  \"config\": {{\n",
            "    \"shards\": {},\n",
            "    \"streams\": {},\n",
            "    \"events\": {},\n",
            "    \"rate_fps\": {},\n",
            "    \"target_points\": {},\n",
            "    \"placement\": \"{}\",\n",
            "    \"seed\": {}\n",
            "  }},\n",
            "  \"offered\": {{\n",
            "    \"frames\": {},\n",
            "    \"p50_sojourn_ms\": {:.6},\n",
            "    \"p99_sojourn_ms\": {:.6},\n",
            "    \"achieved_fps\": {:.4},\n",
            "    \"virtual_makespan_s\": {:.6},\n",
            "    \"wall_s\": {:.4},\n",
            "    \"wall_fps\": {:.3}\n",
            "  }},\n",
            "  \"saturation\": {{\n",
            "    \"offered\": {},\n",
            "    \"completed\": {},\n",
            "    \"dropped\": {},\n",
            "    \"drop_rate\": {:.4},\n",
            "    \"queue_capacity\": 4\n",
            "  }}{}\n",
            "}}\n"
        ),
        args.shards,
        args.streams,
        args.events,
        args.rate,
        args.target_points,
        placement,
        args.seed,
        offered.report.total_frames,
        offered.p50_sojourn_ms,
        offered.p99_sojourn_ms,
        offered.report.modeled_pipelined_fps,
        offered.report.virtual_makespan_s,
        offered.wall_s,
        offered.report.total_frames as f64 / offered.wall_s.max(1e-12),
        sat_offered,
        saturation.total_frames,
        saturation.total_dropped,
        drop_rate,
        http_json,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });

    println!(
        "load_smoke: offered {} frames over {} streams on {} shards ({placement})",
        offered.report.total_frames, args.streams, args.shards
    );
    println!(
        "  offered   : p50 {:.3} ms, p99 {:.3} ms sojourn; {:.1} modeled fps, {:.1} wall fps ({:.2} s)",
        offered.p50_sojourn_ms,
        offered.p99_sojourn_ms,
        offered.report.modeled_pipelined_fps,
        offered.report.total_frames as f64 / offered.wall_s.max(1e-12),
        offered.wall_s,
    );
    println!(
        "  saturation: {}/{} dropped (rate {:.3}) at queue capacity 4 under DropOldest",
        saturation.total_dropped, sat_offered, drop_rate,
    );
    if let Some(h) = &http {
        println!(
            "  http      : {} frames over loopback against {} shard(s) ({:.2} s)",
            h.frames, h.shard_count, h.wall_s,
        );
    }
    println!("  -> {}", args.out);
}

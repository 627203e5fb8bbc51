//! `e2e_bench` — the benchmark of record for the HgPCN reproduction.
//!
//! ```text
//! e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--serve-bin PATH] [--quick]
//! e2e_bench --compare DIR_A1[,DIR_A2..] DIR_B1[,DIR_B2..]
//! ```
//!
//! One invocation runs one workload: generate inputs from the seed, set
//! the program up (several times), drive the load for `--seconds`, check
//! outputs against a serial recomputation, and — with `--trace 1` —
//! replay the first frames through every layer with spans. All measured
//! metrics are printed by name; the last line of standard output is the
//! JSON object the driver reads (`end_to_end` metrics with `--trace 0`,
//! `per_layer` metrics with `--trace 1`). `benchmark/run.sh` builds
//! everything and is the one command; see `benchmark/README.md`.

mod compare;
mod http;
mod inproc;
mod load;
mod procfs;
mod replay;
mod report;
mod schedule;
mod stats;
mod trace;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hgpcn_pcn::StageBackends;
use hgpcn_system::E2ePipeline;

use load::{LoadOutcome, Plan};
use report::{Metrics, END_TO_END, PER_LAYER};
use verify::Kept;
use workload::{Kind, Workload, REPLAY_FRAMES};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const DEFAULT_SECONDS: f64 = 22.0;
const DEFAULT_SEED: u64 = 11;
const WARMUP_S: f64 = 2.0;
/// Set-ups per run: cheap in process (~0.1 s), a process spawn over HTTP.
const SETUPS: usize = 11;
const HTTP_SETUPS: usize = 7;
/// A run that has not finished by then is killed (the driver allows 180 s).
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    serve_bin: PathBuf,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: e2e_bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--out DIR] [--serve-bin PATH] [--quick]\n\
         \x20      e2e_bench --compare DIR_A1[,DIR_A2..] DIR_B1[,DIR_B2..]",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Kind::RawCold,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        serve_bin: http::default_server_binary(),
        quick: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--serve-bin" => args.serve_bin = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.quick {
        args.seconds = args.seconds.min(6.0);
    }
    Ok(args)
}

/// Removes every `HGPCN_*` variable, so each seam resolves to its
/// default here and in the server child, which inherits this
/// environment. Must run before any thread exists or any seam is read.
fn scrub_environment() -> Vec<String> {
    let found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HGPCN_"))
        .collect();
    for key in &found {
        std::env::remove_var(key);
    }
    found
}

/// Keeps at most `max` of `kept`'s frames beyond the replayed prefix,
/// evenly spaced, so the serial recomputation stays a few seconds.
fn thin(kept: Vec<Kept>, streams: usize, replayed: bool, max: usize) -> Vec<Kept> {
    let g_of = |k: &Kept| k.index * streams + k.stream;
    let (head, tail): (Vec<Kept>, Vec<Kept>) = kept
        .into_iter()
        .partition(|k| replayed && g_of(k) < REPLAY_FRAMES);
    let stride = tail.len().div_ceil(max.max(1)).max(1);
    head.into_iter()
        .chain(tail.into_iter().step_by(stride))
        .collect()
}

/// Writes one of the run's artefacts into the output directory.
fn save(args: &Args, name: String, content: String) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(name);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    let scrubbed = scrub_environment();
    let started = Instant::now();
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("e2e_bench: watchdog: run exceeded {WATCHDOG:?}; killing it");
        http::kill_server();
        std::process::exit(3);
    });

    let kind = args.workload;
    println!(
        "== e2e_bench {} (seed {}, {} s, trace {}) ==",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if args.quick {
        println!("!! --quick: shortened phases; these numbers are NOT valid for claims");
    }
    println!(
        "host: nproc {}  rustc {:?}  commit {:?}  scrubbed {:?}",
        std::thread::available_parallelism().map_or(0, usize::from),
        std::env::var("E2E_RUSTC").unwrap_or_default(),
        std::env::var("E2E_GIT_COMMIT").unwrap_or_default(),
        scrubbed
    );

    let mut w = Workload::generate(kind, args.seed);
    let plan = Plan {
        warmup_s: match (kind, args.quick) {
            (_, true) => 1.0,
            (Kind::ServeHttp, false) => workload::HTTP_WARMUP_S,
            (_, false) => WARMUP_S,
        },
        measure_s: args.seconds,
        setups: match (kind, args.quick) {
            (_, true) => 2,
            (Kind::ServeHttp, false) => HTTP_SETUPS,
            (_, false) => SETUPS,
        },
        trace: args.trace,
    };
    let mut out: LoadOutcome;
    let mut layer = Metrics::default();
    match kind {
        Kind::ServeHttp => {
            let pool = http::encode_pool(&mut w);
            out = http::run(&w, &pool, &plan, &args.serve_bin)?;
            let parse_ms = stats::median_of(&pool.parse_ms);
            let mb = pool.bytes() as f64 / 1e6;
            layer.set_n(
                "minihttp.json_parse_ms_p50",
                parse_ms,
                Some(pool.parse_ms.len()),
            );
            layer.set(
                "minihttp.json_parse_mb_per_s",
                mb / (pool.parse_ms.iter().sum::<f64>() / 1e3),
            );
            layer.set(
                "minihttp.json_share_of_submit",
                parse_ms
                    / out
                        .layer
                        .get("serve.submit_rtt_ms_p50")
                        .unwrap_or(0.0)
                        .max(1e-9),
            );
        }
        _ => out = inproc::run(&w, &plan),
    }
    // Built only now, so that the first set-up above paid for resolving
    // the seams, as a fresh process does.
    let net = w.net();
    let stages = StageBackends::active();
    println!(
        "served by: kernel {}  stages [{}]  preproc_reuse {}",
        out.identity.kernel_backend, out.identity.stage_backends, out.identity.preproc_reuse
    );
    let mut violations = std::mem::take(&mut out.violations);
    // Same build, same scrubbed environment: whatever served the load
    // must be what this process resolves for itself.
    let mine = hgpcn_runtime::StageBackendNames::from(stages).to_string();
    if out.identity.kernel_backend != net.kernel().name() || out.identity.stage_backends != mine {
        violations.push(format!(
            "a seam degraded: served by {} [{}], expected {} [{mine}]",
            out.identity.kernel_backend,
            out.identity.stage_backends,
            net.kernel().name()
        ));
    }

    // Every measured frame, for whoever wants to look closer.
    let mut csv = String::from(
        "done_s,cpu_s,latency_ms,modeled_ms,submit_ms,wall_preproc_ms,wall_infer_ms\n",
    );
    for s in &out.samples {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            s.done_s,
            s.cpu_s,
            s.latency_ms,
            s.modeled_ms,
            s.submit_ms,
            s.wall_preproc_ms,
            s.wall_infer_ms
        ));
    }
    save(args, format!("frames_{}.csv", kind.name()), csv)?;

    let mut metrics = Metrics::default();
    load::end_to_end(&out, !args.quick, &mut metrics)?;
    let fail_share = out.failed as f64 / out.attempted.max(1) as f64;

    // The traced replay (also the output check of its own frames).
    let pipeline = E2ePipeline::prototype();
    let kept = thin(
        std::mem::take(&mut out.kept),
        w.streams(),
        args.trace,
        if args.trace { 12 } else { 24 },
    );
    let mut wrong = 0usize;
    let mut checked = 0usize;
    let g_of = |k: &Kept| k.index * w.streams() + k.stream;
    let mut replayed = None;
    if args.trace {
        let r = replay::run(&w, &net, stages);
        violations.extend(r.violations.iter().cloned());
        let name = format!("trace_{}.json", kind.name());
        let path = save(args, name, trace::chrome_json(&r.spans))?;
        println!("trace: {} spans -> {}", r.spans.len(), path.display());
        replayed = Some(r);
    }
    for k in &kept {
        let g = g_of(k);
        let fresh;
        let truth = match &replayed {
            Some(r) if g < REPLAY_FRAMES => &r.results[g],
            _ => {
                fresh = verify::recompute(&w, &pipeline, &net, stages, k.stream, k.index, k.reused);
                &fresh
            }
        };
        checked += 1;
        if let Some(why) = verify::mismatch(k, truth) {
            eprintln!("output mismatch: {why}");
            wrong += 1;
        }
    }
    let digest = verify::digest(kept.iter().filter(|k| g_of(k) < REPLAY_FRAMES));
    println!(
        "output check: {checked} frames recomputed, {wrong} wrong; replay digest {digest:016x}"
    );

    if let Some(r) = replayed {
        layer.absorb(r.layer);
        if kind == Kind::InferBatched {
            let (fps_on, events) =
                inproc::telemetry_leg(&w, 1.0, if args.quick { 2.0 } else { 4.0 });
            // Like against like: both whole-phase rates, not block quartiles.
            layer.set("telemetry.on_fps_ratio", fps_on / out.whole_phase_fps());
            layer.set("telemetry.events_per_frame", events);
        }
    }
    layer.absorb(std::mem::take(&mut out.layer));
    let whole = load::whole_phase(&out, metrics.get("frames_per_s").unwrap_or(0.0));
    layer.set("client.noisy_block_share", whole.noisy_block_share);
    if args.trace {
        // What no part of this run measured does not apply to this row
        // (`serve.*` in process, `telemetry.*` off `infer_batched`, ...).
        for name in layer.missing(PER_LAYER) {
            layer.set(name, 0.0);
        }
    }

    println!(
        "{}",
        report::table(
            "end to end (host wall unless marked modeled):",
            END_TO_END,
            &metrics
        )
    );
    println!(
        "  fail_share {fail_share:.6} ratio ({} failed + {wrong} wrong of {} attempted)",
        out.failed, out.attempted
    );
    println!(
        "  whole phase, noise and all: {:.4} frames/s, frame_ms p50 {:.4} p{:.0} {:.4}, \
         {:.4} CPU ms/frame; {:.0}% of blocks ran under 90% of the reported rate\n",
        whole.fps,
        whole.p50_ms,
        whole.tail_q * 100.0,
        whole.tail_ms,
        whole.cpu_ms_per_frame,
        whole.noisy_block_share * 100.0
    );
    println!("{}", report::table("per layer:", PER_LAYER, &layer));
    for v in &violations {
        eprintln!("violation: {v}");
    }
    let failed = out.failed + wrong;
    let correct = wrong == 0 && violations.is_empty() && (failed == 0 || kind == Kind::ServeHttp);
    println!(
        "{} in {:.1} s",
        if correct { "OK" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );

    let (decls, values) = if args.trace {
        (PER_LAYER, &layer)
    } else {
        (END_TO_END, &metrics)
    };
    let line = report::driver_line(decls, values, correct, out.attempted, failed);
    // Everything this run measured, kept for `--compare`.
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"replay_digest\": \"{digest:016x}\", \"end_to_end\": {}, \"per_layer\": {}}}\n",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        report::driver_line(END_TO_END, &metrics, correct, out.attempted, failed),
        if args.trace {
            report::driver_line(PER_LAYER, &layer, correct, out.attempted, failed)
        } else {
            "null".into()
        },
    );
    save(args, format!("result_{}.json", kind.name()), record)?;
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("e2e_bench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    http::kill_server();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("e2e_bench: {why}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_memsim::Latency;
    use hgpcn_pcn::Matrix;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_http",
            "--seed",
            "7",
            "--seconds",
            "22",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Kind::ServeHttp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 22.0, true));
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "raw_cold", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "raw_cold", "--seconds", "0"]).is_err());
    }

    #[test]
    fn thinning_keeps_the_replayed_prefix_and_bounds_the_rest() {
        let kept: Vec<Kept> = (0..100)
            .map(|g| Kept {
                stream: g % 4,
                index: g / 4,
                reused: false,
                returned: verify::Returned::Full {
                    logits: Matrix::zeros(1, 1),
                    macs: 0,
                    pre: Latency::ZERO,
                    inf: Latency::ZERO,
                },
            })
            .collect();
        let thinned = thin(kept.clone(), 4, true, 10);
        let gs: Vec<usize> = thinned.iter().map(|k| k.index * 4 + k.stream).collect();
        assert!((0..REPLAY_FRAMES).all(|g| gs.contains(&g)));
        let beyond = gs.iter().filter(|&&g| g >= REPLAY_FRAMES).count();
        assert!(beyond > 0 && beyond <= 10);
        assert!(thin(kept, 4, false, 40).len() <= 40);
    }
}

//! `bench_gate` — the CI perf-regression comparator.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> [--tolerance 0.15]
//!            [--min-speedup X] [--min-int8-vs-f32 X]
//!            [--min-telemetry-ratio X] [--min-drop-rate X]
//!            [--min-preproc-vs-anchor X] [--min-warm-vs-cold X]
//! ```
//!
//! Reads two bench JSON files (the committed baseline and the fresh CI
//! measurement) and fails (exit 1) when the candidate regresses. The
//! schema is auto-detected: a candidate carrying
//! `offered.p99_sojourn_ms` is a `BENCH_load.json` from the `load_smoke`
//! harness and is gated on the load checks below; anything else is a
//! `BENCH_runtime.json` from `perf_smoke`.
//!
//! **Load schema** (`load-smoke` CI job):
//!
//! * `offered.p50_sojourn_ms` / `offered.p99_sojourn_ms` — virtual-time
//!   sojourn percentiles of the offered (Poisson) leg. Each shard runs
//!   one worker per stage, so these are bit-reproducible functions of
//!   the seed; any drift beyond the tolerance is a real scheduling or
//!   cost-model change.
//! * `offered.achieved_fps` — the aggregated `modeled_pipelined_fps`
//!   across shards. Deterministic like the sojourns.
//! * with `--min-drop-rate X`, requires `saturation.drop_rate >= X` —
//!   the saturation leg races real worker threads, so its drop count is
//!   only macroscopically stable; CI holds a floor under it instead of
//!   a tolerance band.
//!
//! **Runtime schema** (`perf-smoke` CI job):
//!
//! * `batched.p95_service_ms` — the **modeled** per-frame p95 latency.
//!   Deterministic across machines, so any drift beyond the tolerance is
//!   a real change in the cost models or the execution path.
//! * `speedup` — batched-over-serial host throughput. Wall-clock FPS is
//!   machine-dependent, but the *ratio* between two runs of the same
//!   binary on the same host is stable, so the gate compares ratios:
//!   candidate speedup must stay within `tolerance` of the baseline's.
//! * `kernel_gmacs_vs_reference` — the selected matmul backend's dense
//!   throughput as a same-host multiple of the reference kernel's.
//!   Machine-relative like `speedup` (both kernels ran on the same
//!   CPU), so a drop beyond the tolerance means the kernel itself
//!   regressed or the dispatch silently fell back to a scalar backend.
//!   The absolute `kernel_gmacs` is printed for the record but — like
//!   `wall_fps` — never gated across runner generations.
//! * `int8.p95_service_ms` / `int8_speedup` /
//!   `int8_gmacs_vs_f32_blocked` — the int8 serving tier's modeled p95
//!   (deterministic), its batched-over-serial host ratio, and the int8
//!   GEMM's dense throughput as a same-host multiple of the f32
//!   `blocked` kernel — the acceptance claim that quantized inference
//!   out-runs the best scalar f32 path. All gated exactly like their
//!   f32 counterparts.
//! * `preproc_gmacs_vs_anchor` — the selected preproc stage-backend
//!   set's GMAC-equivalent throughput as a same-host multiple of the
//!   all-anchor (scalar) set. Machine-relative like
//!   `kernel_gmacs_vs_reference`, so a drop beyond the tolerance means
//!   a stage backend regressed or the default selection silently
//!   fell back to scalar. The absolute `preproc_gmacs` is printed for
//!   the record but never gated.
//! * `preproc_warm_vs_cold` — the stream-context reuse seam's modeled
//!   cold octree-build+table-update latency over the §V-A warm delta
//!   pass on a coherent drifting-scene stream. Both sides come from the
//!   deterministic cost models, so this is banded tightly like the
//!   modeled p95s; a collapse to ≈1.0 means warm pricing stopped
//!   engaging (the cache never hits). The
//!   `preproc_reuse.{policy,hits,misses,hit_rate}` block is printed
//!   for the record but never gated.
//! * with `--min-speedup X`, additionally requires `speedup >= X`;
//!   with `--min-int8-vs-f32 X`, requires
//!   `int8_gmacs_vs_f32_blocked >= X` (the absolute floor behind the
//!   "int8 beats the f32 blocked kernel" acceptance criterion);
//!   with `--min-telemetry-ratio X`, requires `telemetry_on_vs_off >= X`
//!   — the traced-over-untraced throughput ratio of the same batched
//!   configuration, same-host like `speedup`, holding the telemetry
//!   subsystem to its bounded-overhead claim;
//!   with `--min-preproc-vs-anchor X`, requires
//!   `preproc_gmacs_vs_anchor >= X` (the absolute floor behind the
//!   "optimized stage backends beat the anchors" acceptance criterion);
//!   with `--min-warm-vs-cold X`, requires `preproc_warm_vs_cold >= X`
//!   (the absolute floor behind the "warm-frame preprocessing is
//!   modeled cheaper than a cold rebuild" acceptance criterion —
//!   deterministic, so the floor holds on any runner).
//!
//! Absolute `wall_fps` values are printed for the record but never gated
//! (a faster or slower runner generation would otherwise break CI).
//!
//! No crates.io dependencies: JSON parsing comes from the in-tree
//! `minihttp::json` module.

use std::process::ExitCode;

use minihttp::json::{self, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 0.15f64;
    let mut min_speedup: Option<f64> = None;
    let mut min_int8_vs_f32: Option<f64> = None;
    let mut min_telemetry_ratio: Option<f64> = None;
    let mut min_drop_rate: Option<f64> = None;
    let mut min_preproc_vs_anchor: Option<f64> = None;
    let mut min_warm_vs_cold: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a number");
                    std::process::exit(2);
                })
            }
            "--min-speedup" => {
                min_speedup = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-speedup needs a number");
                    std::process::exit(2);
                }))
            }
            "--min-int8-vs-f32" => {
                min_int8_vs_f32 =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-int8-vs-f32 needs a number");
                        std::process::exit(2);
                    }))
            }
            "--min-telemetry-ratio" => {
                min_telemetry_ratio =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-telemetry-ratio needs a number");
                        std::process::exit(2);
                    }))
            }
            "--min-drop-rate" => {
                min_drop_rate =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-drop-rate needs a number");
                        std::process::exit(2);
                    }))
            }
            "--min-preproc-vs-anchor" => {
                min_preproc_vs_anchor =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-preproc-vs-anchor needs a number");
                        std::process::exit(2);
                    }))
            }
            "--min-warm-vs-cold" => {
                min_warm_vs_cold =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--min-warm-vs-cold needs a number");
                        std::process::exit(2);
                    }))
            }
            other => paths.push(other.to_owned()),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_gate <baseline.json> <candidate.json> [--tolerance 0.15] \
             [--min-speedup X] [--min-int8-vs-f32 X] [--min-telemetry-ratio X] \
             [--min-drop-rate X] [--min-preproc-vs-anchor X] [--min-warm-vs-cold X]"
        );
        return ExitCode::from(2);
    }
    let (baseline, candidate) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let failures = std::cell::Cell::new(0usize);
    let check = |name: &str, base: Option<f64>, cand: Option<f64>, lower_is_better: bool| {
        let (Some(base), Some(cand)) = (base, cand) else {
            eprintln!("FAIL {name}: missing in baseline or candidate");
            failures.set(failures.get() + 1);
            return;
        };
        // Regression = candidate worse than baseline by more than the
        // tolerance, in the metric's bad direction. Improvements pass.
        let ratio = cand / base.max(1e-12);
        let bad = if lower_is_better {
            ratio > 1.0 + tolerance
        } else {
            ratio < 1.0 - tolerance
        };
        let verdict = if bad { "FAIL" } else { "ok  " };
        println!(
            "{verdict} {name}: baseline {base:.4}, candidate {cand:.4} (ratio {ratio:.3}, tolerance {tolerance:.0}%)",
            tolerance = tolerance * 100.0
        );
        if bad {
            failures.set(failures.get() + 1);
        }
    };

    // Schema detection: the load harness writes `offered.*`, perf_smoke
    // writes `serial.*`/`batched.*` — gate whichever trajectory this is.
    let is_load = candidate.num("offered.p99_sojourn_ms").is_some()
        || baseline.num("offered.p99_sojourn_ms").is_some();
    if is_load {
        check(
            "offered.p50_sojourn_ms (virtual-time, deterministic)",
            baseline.num("offered.p50_sojourn_ms"),
            candidate.num("offered.p50_sojourn_ms"),
            true,
        );
        check(
            "offered.p99_sojourn_ms (virtual-time, deterministic)",
            baseline.num("offered.p99_sojourn_ms"),
            candidate.num("offered.p99_sojourn_ms"),
            true,
        );
        check(
            "offered.achieved_fps (modeled, deterministic)",
            baseline.num("offered.achieved_fps"),
            candidate.num("offered.achieved_fps"),
            false,
        );

        if let Some(floor) = min_drop_rate {
            match candidate.num("saturation.drop_rate") {
                Some(v) if v >= floor => println!("ok   drop-rate floor: {v:.3} >= {floor:.3}"),
                Some(v) => {
                    eprintln!("FAIL drop-rate floor: {v:.3} < {floor:.3}");
                    failures.set(failures.get() + 1);
                }
                None => {
                    eprintln!("FAIL drop-rate floor: candidate has no saturation.drop_rate");
                    failures.set(failures.get() + 1);
                }
            }
        }

        // Context lines (informational, never gated).
        for key in [
            "offered.frames",
            "offered.wall_fps",
            "offered.virtual_makespan_s",
            "saturation.drop_rate",
            "saturation.completed",
            "http.wall_s",
        ] {
            if let (Some(b), Some(c)) = (baseline.num(key), candidate.num(key)) {
                println!("info {key}: baseline {b:.3}, candidate {c:.3} (not gated)");
            }
        }

        return if failures.get() > 0 {
            eprintln!(
                "bench_gate: {} regression(s) beyond {:.0}% tolerance",
                failures.get(),
                tolerance * 100.0
            );
            ExitCode::FAILURE
        } else {
            println!("bench_gate: no regressions");
            ExitCode::SUCCESS
        };
    }

    check(
        "batched.p95_service_ms (modeled, deterministic)",
        baseline.num("batched.p95_service_ms"),
        candidate.num("batched.p95_service_ms"),
        true,
    );
    check(
        "serial.p95_service_ms (modeled, deterministic)",
        baseline.num("serial.p95_service_ms"),
        candidate.num("serial.p95_service_ms"),
        true,
    );
    check(
        "speedup (batched over serial, machine-relative)",
        baseline.num("speedup"),
        candidate.num("speedup"),
        false,
    );
    check(
        "kernel_gmacs_vs_reference (selected backend, same-host multiple)",
        baseline.num("kernel_gmacs_vs_reference"),
        candidate.num("kernel_gmacs_vs_reference"),
        false,
    );
    check(
        "int8.p95_service_ms (modeled, deterministic)",
        baseline.num("int8.p95_service_ms"),
        candidate.num("int8.p95_service_ms"),
        true,
    );
    check(
        "int8_speedup (int8 batched over serial, machine-relative)",
        baseline.num("int8_speedup"),
        candidate.num("int8_speedup"),
        false,
    );
    check(
        "int8_gmacs_vs_f32_blocked (int8 GEMM over the f32 blocked kernel)",
        baseline.num("int8_gmacs_vs_f32_blocked"),
        candidate.num("int8_gmacs_vs_f32_blocked"),
        false,
    );
    check(
        "preproc_gmacs_vs_anchor (selected stage set, same-host multiple)",
        baseline.num("preproc_gmacs_vs_anchor"),
        candidate.num("preproc_gmacs_vs_anchor"),
        false,
    );
    check(
        "preproc_warm_vs_cold (modeled, deterministic)",
        baseline.num("preproc_warm_vs_cold"),
        candidate.num("preproc_warm_vs_cold"),
        false,
    );

    if let Some(floor) = min_int8_vs_f32 {
        match candidate.num("int8_gmacs_vs_f32_blocked") {
            Some(v) if v >= floor => println!("ok   int8-vs-f32 floor: {v:.3} >= {floor:.3}"),
            Some(v) => {
                eprintln!("FAIL int8-vs-f32 floor: {v:.3} < {floor:.3}");
                failures.set(failures.get() + 1);
            }
            None => {
                eprintln!("FAIL int8-vs-f32 floor: candidate has no int8_gmacs_vs_f32_blocked");
                failures.set(failures.get() + 1);
            }
        }
    }

    if let Some(floor) = min_telemetry_ratio {
        match candidate.num("telemetry_on_vs_off") {
            Some(v) if v >= floor => println!("ok   telemetry-ratio floor: {v:.3} >= {floor:.3}"),
            Some(v) => {
                eprintln!("FAIL telemetry-ratio floor: {v:.3} < {floor:.3}");
                failures.set(failures.get() + 1);
            }
            None => {
                eprintln!("FAIL telemetry-ratio floor: candidate has no telemetry_on_vs_off");
                failures.set(failures.get() + 1);
            }
        }
    }

    if let Some(floor) = min_preproc_vs_anchor {
        match candidate.num("preproc_gmacs_vs_anchor") {
            Some(v) if v >= floor => {
                println!("ok   preproc-vs-anchor floor: {v:.3} >= {floor:.3}")
            }
            Some(v) => {
                eprintln!("FAIL preproc-vs-anchor floor: {v:.3} < {floor:.3}");
                failures.set(failures.get() + 1);
            }
            None => {
                eprintln!("FAIL preproc-vs-anchor floor: candidate has no preproc_gmacs_vs_anchor");
                failures.set(failures.get() + 1);
            }
        }
    }

    if let Some(floor) = min_warm_vs_cold {
        match candidate.num("preproc_warm_vs_cold") {
            Some(v) if v >= floor => {
                println!("ok   warm-vs-cold floor: {v:.3} >= {floor:.3}")
            }
            Some(v) => {
                eprintln!("FAIL warm-vs-cold floor: {v:.3} < {floor:.3}");
                failures.set(failures.get() + 1);
            }
            None => {
                eprintln!("FAIL warm-vs-cold floor: candidate has no preproc_warm_vs_cold");
                failures.set(failures.get() + 1);
            }
        }
    }

    if let Some(floor) = min_speedup {
        match candidate.num("speedup") {
            Some(s) if s >= floor => println!("ok   speedup floor: {s:.3} >= {floor:.3}"),
            Some(s) => {
                eprintln!("FAIL speedup floor: {s:.3} < {floor:.3}");
                failures.set(failures.get() + 1);
            }
            None => {
                eprintln!("FAIL speedup floor: candidate has no speedup field");
                failures.set(failures.get() + 1);
            }
        }
    }

    // Context lines (informational, never gated).
    for key in [
        "serial.wall_fps",
        "batched.wall_fps",
        "int8.wall_fps",
        "kernel_gmacs",
        "int8_gmacs",
        "int8_vs_f32_batched",
        "telemetry.wall_fps",
        "telemetry_on_vs_off",
        "telemetry_events",
        "preproc_gmacs",
        "preproc_reuse.hits",
        "preproc_reuse.misses",
        "preproc_reuse.hit_rate",
    ] {
        if let (Some(b), Some(c)) = (baseline.num(key), candidate.num(key)) {
            println!("info {key}: baseline {b:.2}, candidate {c:.2} (not gated)");
        }
    }
    if let (Some(Json::Str(b)), Some(Json::Str(c))) = (
        baseline.path("kernel_backend"),
        candidate.path("kernel_backend"),
    ) {
        println!("info kernel_backend: baseline {b}, candidate {c} (not gated)");
    }
    if let (Some(Json::Str(b)), Some(Json::Str(c))) = (
        baseline.path("preproc_reuse.policy"),
        candidate.path("preproc_reuse.policy"),
    ) {
        println!("info preproc_reuse.policy: baseline {b}, candidate {c} (not gated)");
    }
    for stage in ["sampling", "gather", "interpolate"] {
        let key = format!("batched.stage_backends.{stage}");
        if let (Some(Json::Str(b)), Some(Json::Str(c))) =
            (baseline.path(&key), candidate.path(&key))
        {
            println!("info {key}: baseline {b}, candidate {c} (not gated)");
        }
    }

    if failures.get() > 0 {
        eprintln!(
            "bench_gate: {} regression(s) beyond {:.0}% tolerance",
            failures.get(),
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("bench_gate: no regressions");
        ExitCode::SUCCESS
    }
}

//! `bench_gate` — the CI perf-regression comparator.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> [--tolerance 0.15]
//!            [--min-speedup X] [--min-telemetry-ratio X] [--min-drop-rate X]
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
//! **Runtime schema** (`perf-smoke` CI job). Banded against the baseline
//! (deterministic — the cost models produce the same number anywhere,
//! so drift beyond the tolerance is a real change in the models or the
//! execution path):
//!
//! * `batched.p95_service_ms` / `serial.p95_service_ms` — the **modeled**
//!   per-frame p95 latency of each side.
//! * `preproc_warm_vs_cold` — the stream-context reuse seam's modeled
//!   cold octree-build+table-update latency over the §V-A warm delta
//!   pass on a coherent drifting-scene stream; a collapse to ≈1.0 means
//!   warm pricing stopped engaging (the cache never hits).
//!
//! Held above an absolute floor, never banded (same-host wall ratios: a
//! baseline recorded on another host says nothing about this one's):
//!
//! * `--min-speedup X` requires `speedup >= X` — batched-over-serial
//!   host throughput;
//! * `--min-preproc-vs-anchor X` requires `preproc_gmacs_vs_anchor >= X`
//!   — the selected preproc stage-backend set's GMAC-equivalent
//!   throughput as a multiple of the all-anchor (scalar) set's;
//! * `--min-telemetry-ratio X` requires `telemetry_on_vs_off >= X` — the
//!   traced-over-untraced throughput ratio of the same batched
//!   configuration, holding the telemetry subsystem to its
//!   bounded-overhead claim;
//! * `--min-warm-vs-cold X` requires `preproc_warm_vs_cold >= X`
//!   (deterministic, so this floor holds on any runner).
//!
//! Everything else is printed as `info … (not gated)`: `speedup`,
//! `kernel_gmacs_vs_reference` and `preproc_gmacs_vs_anchor` against the
//! baseline's, the absolute `*.wall_fps` / `kernel_gmacs` /
//! `preproc_gmacs` (a faster or slower runner generation would otherwise
//! break CI), the `preproc_reuse.{policy,hits,misses,hit_rate}` block and
//! the backend names.
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
    let mut min_telemetry_ratio: Option<f64> = None;
    let mut min_drop_rate: Option<f64> = None;
    let mut min_preproc_vs_anchor: Option<f64> = None;
    let mut min_warm_vs_cold: Option<f64> = None;
    while let Some(a) = args.next() {
        // The value of a numeric flag, or exit 2.
        let mut number = || {
            args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("{a} needs a number");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--tolerance" => tolerance = number(),
            "--min-speedup" => min_speedup = Some(number()),
            "--min-telemetry-ratio" => min_telemetry_ratio = Some(number()),
            "--min-drop-rate" => min_drop_rate = Some(number()),
            "--min-preproc-vs-anchor" => min_preproc_vs_anchor = Some(number()),
            "--min-warm-vs-cold" => min_warm_vs_cold = Some(number()),
            other => paths.push(other.to_owned()),
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_gate <baseline.json> <candidate.json> [--tolerance 0.15] \
             [--min-speedup X] [--min-telemetry-ratio X] [--min-drop-rate X] \
             [--min-preproc-vs-anchor X] [--min-warm-vs-cold X]"
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
    // An absolute floor under one candidate value; `None` = flag not given.
    let floor = |label: &str, key: &str, min: Option<f64>| {
        let Some(min) = min else { return };
        match candidate.num(key) {
            Some(v) if v >= min => return println!("ok   {label} floor: {v:.3} >= {min:.3}"),
            Some(v) => eprintln!("FAIL {label} floor: {v:.3} < {min:.3}"),
            None => eprintln!("FAIL {label} floor: candidate has no {key}"),
        }
        failures.set(failures.get() + 1);
    };
    let verdict = || {
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

        floor("drop-rate", "saturation.drop_rate", min_drop_rate);

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

        return verdict();
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
        "preproc_warm_vs_cold (modeled, deterministic)",
        baseline.num("preproc_warm_vs_cold"),
        candidate.num("preproc_warm_vs_cold"),
        false,
    );

    floor(
        "telemetry-ratio",
        "telemetry_on_vs_off",
        min_telemetry_ratio,
    );
    floor(
        "preproc-vs-anchor",
        "preproc_gmacs_vs_anchor",
        min_preproc_vs_anchor,
    );
    floor("warm-vs-cold", "preproc_warm_vs_cold", min_warm_vs_cold);
    floor("speedup", "speedup", min_speedup);

    // Context lines (informational, never gated): wall numbers, and wall
    // ratios whose baseline was recorded on another host.
    for key in [
        "serial.wall_fps",
        "batched.wall_fps",
        "speedup",
        "kernel_gmacs",
        "kernel_gmacs_vs_reference",
        "telemetry.wall_fps",
        "telemetry_on_vs_off",
        "telemetry_events",
        "preproc_gmacs",
        "preproc_gmacs_vs_anchor",
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

    verdict()
}

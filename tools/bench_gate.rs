//! `bench_gate` — the `load-smoke` CI comparator.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json>
//! ```
//!
//! Reads two `BENCH_load.json` files from the `load_smoke` harness (the
//! committed baseline and a fresh measurement) and fails (exit 1) when
//! the candidate regresses. It takes no flags; exit 2 is a usage or
//! parse error.
//!
//! * `offered.p50_sojourn_ms` / `offered.p99_sojourn_ms` — virtual-time
//!   sojourn percentiles of the offered (Poisson) leg. Each shard runs
//!   one worker per stage, so these are bit-reproducible functions of
//!   the seed; any drift beyond `TOLERANCE` (25 %) is a real scheduling or
//!   cost-model change.
//! * `offered.achieved_fps` — the aggregated `modeled_pipelined_fps`
//!   across shards. Deterministic like the sojourns.
//! * `saturation.drop_rate >= MIN_DROP_RATE` (0.5) — the saturation leg
//!   races real worker threads, so its drop count is only
//!   macroscopically stable: a floor, not a band.
//!
//! Wall numbers are printed as `info … (not gated)`. Wall-clock claims
//! go through the benchmark of record (`benchmark/run.sh`).
//!
//! No crates.io dependencies: JSON parsing comes from the in-tree
//! `minihttp::json` module.

use std::process::ExitCode;

use minihttp::json::{self, Json};

/// How far a deterministic number may drift from the baseline, in its
/// bad direction, before it counts as a regression.
const TOLERANCE: f64 = 0.25;
/// `DropOldest` must shed at least this share of the saturation burst.
const MIN_DROP_RATE: f64 = 0.5;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() != 2 || paths.iter().any(|p| p.starts_with("--")) {
        eprintln!("usage: bench_gate <baseline.json> <candidate.json>");
        return ExitCode::from(2);
    }
    let (baseline, candidate) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    for (key, lower_is_better) in [
        ("offered.p50_sojourn_ms", true),
        ("offered.p99_sojourn_ms", true),
        ("offered.achieved_fps", false),
    ] {
        let (Some(base), Some(cand)) = (baseline.num(key), candidate.num(key)) else {
            eprintln!("FAIL {key}: missing in baseline or candidate");
            failures += 1;
            continue;
        };
        // Improvements pass; only the metric's bad direction is banded.
        let ratio = cand / base.max(1e-12);
        let bad = if lower_is_better {
            ratio > 1.0 + TOLERANCE
        } else {
            ratio < 1.0 - TOLERANCE
        };
        let verdict = if bad { "FAIL" } else { "ok  " };
        println!(
            "{verdict} {key} (virtual-time, deterministic): baseline {base:.4}, candidate {cand:.4} (ratio {ratio:.3}, tolerance {:.0}%)",
            TOLERANCE * 100.0
        );
        failures += usize::from(bad);
    }
    match candidate.num("saturation.drop_rate") {
        Some(v) if v >= MIN_DROP_RATE => {
            println!("ok   drop-rate floor: {v:.3} >= {MIN_DROP_RATE:.3}")
        }
        other => {
            eprintln!("FAIL drop-rate floor: {other:?} is not >= {MIN_DROP_RATE:.3}");
            failures += 1;
        }
    }
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

    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} regression(s) beyond {:.0}% tolerance",
            TOLERANCE * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("bench_gate: no regressions");
        ExitCode::SUCCESS
    }
}

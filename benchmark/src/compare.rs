//! `e2e_bench --compare A1[,A2..] B1[,B2..]`: result directories of the
//! same commit, two sides (the A/A check behind `benchmark/aa.sh`).
//!
//! Every end-to-end metric must agree within its `BENCHMARK.json` bound;
//! everything that is a pure function of the seed — modeled time, replay
//! counts, the result digest — must agree exactly, in every run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use minihttp::json::{self, Json};

use crate::workload::Kind;

/// Per-layer metrics that depend on the seed alone (beyond every
/// `*_modeled_ms`): counts and shares taken from the serial replay, and
/// the failure counters, which are zero on a healthy run.
const EXACT_PER_LAYER: &[&str] = &[
    "octree.nodes_per_frame",
    "octree.warm_share",
    "octree.dirty_point_share",
    "sampling.mem_reads_per_frame",
    "gather.queries_per_frame",
    "pcn.macs_per_frame",
    "runtime.dropped",
    "runtime.failed",
    "serve.http_errors",
];

fn is_exact(name: &str) -> bool {
    name.contains("modeled") || EXACT_PER_LAYER.contains(&name)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One value of a driver-style `{"metrics": {name: {"value": v}}}`.
/// (Names hold dots, so `Json::path` cannot reach them.)
fn metric(doc: Option<&Json>, name: &str) -> Option<f64> {
    match doc?.path("metrics")? {
        Json::Obj(map) => map.get(name)?.num("value"),
        _ => None,
    }
}

/// Relative difference of `b` against `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

pub fn run(a_dirs: &str, b_dirs: &str) -> ExitCode {
    let split = |list: &str| -> Vec<PathBuf> { list.split(',').map(PathBuf::from).collect() };
    match compare(&split(a_dirs), &split(b_dirs)) {
        Ok(0) => {
            println!("\nA/A: every metric within its bound, every seed-determined value identical");
            ExitCode::SUCCESS
        }
        Ok(bad) => {
            println!("\nA/A: {bad} comparison(s) FAILED");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("e2e_bench --compare: {why}");
            ExitCode::from(2)
        }
    }
}

/// One side of the comparison: the results of one or more runs of the
/// suite. A side's value for a metric is the best any of its runs saw
/// (the quiet-side rule again: the host's noise only makes numbers
/// worse); its seed-determined values must be the same in every run.
struct Side {
    runs: Vec<Json>,
}

impl Side {
    fn load(dirs: &[PathBuf], file: &str) -> Result<Side, String> {
        let runs = dirs
            .iter()
            .map(|d| load(&d.join(file)))
            .collect::<Result<_, _>>()?;
        Ok(Side { runs })
    }

    /// Every run's value of `name` in `section`.
    fn all(&self, section: &str, name: &str) -> Result<Vec<f64>, String> {
        self.runs
            .iter()
            .map(|r| {
                metric(r.path(section), name).ok_or(format!("{section} metric {name} missing"))
            })
            .collect()
    }

    fn best(&self, section: &str, name: &str, higher_is_better: bool) -> Result<f64, String> {
        let all = self.all(section, name)?;
        Ok(if higher_is_better {
            all.into_iter().fold(f64::MIN, f64::max)
        } else {
            all.into_iter().fold(f64::MAX, f64::min)
        })
    }

    fn digests(&self) -> Vec<String> {
        self.runs
            .iter()
            .map(|r| r.str_at("replay_digest").unwrap_or("?").to_string())
            .collect()
    }
}

fn compare(a_dirs: &[PathBuf], b_dirs: &[PathBuf]) -> Result<usize, String> {
    let spec = load(Path::new("BENCHMARK.json"))?;
    let end_to_end = spec
        .arr("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let mut bad = 0usize;
    println!("| workload | metric | side A | side B | rel. diff | allowed | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    for kind in Kind::ALL {
        let file = format!("result_{}.json", kind.name());
        let (a, b) = (Side::load(a_dirs, &file)?, Side::load(b_dirs, &file)?);
        let mut row = |metric: &str, va: f64, vb: f64, allowed: f64| {
            let diff = rel_diff(va, vb);
            let ok = diff <= allowed;
            bad += usize::from(!ok);
            let allowed = if allowed == 0.0 {
                "exact".to_string()
            } else {
                format!("{:.1}%", allowed * 100.0)
            };
            println!(
                "| {} | {metric} | {va:.6} | {vb:.6} | {:.2}% | {allowed} | {} |",
                kind.name(),
                diff * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        };
        // Seed-determined values: the extremes over *all* runs of both
        // sides, which must coincide.
        let extremes = |section: &str, name: &str| -> Result<(f64, f64), String> {
            let mut all = a.all(section, name)?;
            all.extend(b.all(section, name)?);
            Ok((
                all.iter().copied().fold(f64::MAX, f64::min),
                all.iter().copied().fold(f64::MIN, f64::max),
            ))
        };
        for m in end_to_end {
            let (Some(name), Some(bound)) = (m.str_at("name"), m.num("bound")) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            if is_exact(name) {
                let (lo, hi) = extremes("end_to_end", name)?;
                row(name, lo, hi, 0.0);
            } else {
                let higher = m.str_at("better") == Some("higher");
                let va = a.best("end_to_end", name, higher)?;
                let vb = b.best("end_to_end", name, higher)?;
                row(name, va, vb, bound);
            }
        }
        for (name, _, _) in crate::report::PER_LAYER.iter().filter(|d| is_exact(d.0)) {
            let (lo, hi) = extremes("per_layer", name)?;
            row(name, lo, hi, 0.0);
        }
        let mut digests = a.digests();
        digests.extend(b.digests());
        let same = digests.windows(2).all(|w| w[0] == w[1]);
        bad += usize::from(!same);
        println!(
            "| {} | replay_digest | {} | {} | | exact | {} |",
            kind.name(),
            digests[0],
            digests[digests.len() - 1],
            if same { "ok" } else { "FAIL" }
        );
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
        assert!((rel_diff(100.0, 93.0) - 0.07).abs() < 1e-12);
        assert!(rel_diff(0.0, 1.0) > 1e300);
    }

    #[test]
    fn seed_determined_metrics_are_recognised() {
        assert!(is_exact("modeled_frame_ms_p95"));
        assert!(is_exact("dla.fc_modeled_ms"));
        assert!(is_exact("pcn.macs_per_frame"));
        assert!(!is_exact("frames_per_s"));
        assert!(!is_exact("runtime.batches"));
        for name in EXACT_PER_LAYER {
            assert!(
                crate::report::PER_LAYER.iter().any(|d| d.0 == *name),
                "{name}"
            );
        }
    }

    #[test]
    fn reads_driver_style_metric_objects() {
        let doc =
            json::parse(r#"{"x": {"metrics": {"a.b": {"value": 1.5, "unit": "ms"}}}}"#).unwrap();
        assert_eq!(metric(doc.path("x"), "a.b"), Some(1.5));
        assert_eq!(metric(doc.path("x"), "a.c"), None);
        assert_eq!(metric(doc.path("missing"), "a.b"), None);
    }
}

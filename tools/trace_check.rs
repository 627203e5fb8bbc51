//! `trace_check` — the CI validator for telemetry artifacts.
//!
//! ```text
//! trace_check --trace trace.json --prom metrics.prom
//! ```
//!
//! Validates, with no dependencies beyond the in-tree `minihttp::json`:
//!
//! * **Chrome trace-event JSON** (`--trace`): the file parses, carries a
//!   non-empty `traceEvents` array, every event has `name`/`ph`/`pid`/
//!   `tid`, phases are limited to the ones the exporter emits (`X`
//!   complete spans, `i` instants, `M` metadata), `X` spans have a
//!   non-negative `dur` and never overlap on their thread row, and every
//!   thread row is named via a `thread_name` metadata event.
//! * **Prometheus text** (`--prom`): every sample is preceded by its
//!   `# HELP` and `# TYPE` declarations, sample values parse, histogram
//!   bucket counts are cumulative (non-decreasing in `le`), every
//!   histogram series ends in an `le="+Inf"` bucket whose count equals
//!   the series' `_count` sample.
//!
//! Exit code 0 when every check passes, 1 otherwise — CI runs this over
//! the artifacts the `traced_serving` example writes.

use std::collections::BTreeMap;
use std::process::ExitCode;

use minihttp::json;

/// Back-to-back spans meet exactly on the virtual clock, but `ts` and
/// `dur` are each rendered rounded to 3 decimals (nanosecond
/// precision), so a boundary can print as end = next-start + 1.5e-3 µs.
/// Allow that rounding skew; a real overlap is microseconds wide.
const OVERLAP_SLACK_US: f64 = 2e-3;

struct Checker {
    failures: usize,
}

impl Checker {
    fn check(&mut self, ok: bool, what: &str) {
        if ok {
            return;
        }
        eprintln!("FAIL {what}");
        self.failures += 1;
    }
}

fn check_trace(text: &str, c: &mut Checker) {
    let root = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            c.check(false, &format!("trace: {e}"));
            return;
        }
    };
    let Some(events) = root.arr("traceEvents") else {
        c.check(false, "trace: no traceEvents array");
        return;
    };
    c.check(!events.is_empty(), "trace: traceEvents is empty");

    let mut spans: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut named_tids: Vec<u64> = Vec::new();
    let mut used_tids: Vec<u64> = Vec::new();
    let (mut n_spans, mut n_instants) = (0usize, 0usize);
    for (i, e) in events.iter().enumerate() {
        let what = |field: &str| format!("trace: event {i} {field}");
        let name = e.str_at("name").unwrap_or("");
        c.check(!name.is_empty(), &what("has no name"));
        let ph = e.str_at("ph").unwrap_or("");
        c.check(
            matches!(ph, "X" | "i" | "M"),
            &what(&format!("has unexpected phase {ph:?}")),
        );
        c.check(e.num("pid").is_some(), &what("has no pid"));
        let Some(tid) = e.num("tid") else {
            c.check(false, &what("has no tid"));
            continue;
        };
        let tid = tid as u64;
        match ph {
            "M" => {
                c.check(name == "thread_name", &what("metadata is not thread_name"));
                c.check(
                    e.str_at("args.name").is_some_and(|n| !n.is_empty()),
                    &what("thread_name has no args.name"),
                );
                named_tids.push(tid);
            }
            "X" => {
                n_spans += 1;
                used_tids.push(tid);
                let ts = e.num("ts");
                let dur = e.num("dur");
                c.check(ts.is_some(), &what("span has no ts"));
                c.check(
                    dur.is_some_and(|d| d >= 0.0),
                    &what("span has no non-negative dur"),
                );
                if let (Some(ts), Some(dur)) = (ts, dur) {
                    spans.entry(tid).or_default().push((ts, dur));
                }
            }
            "i" => {
                n_instants += 1;
                used_tids.push(tid);
                c.check(e.num("ts").is_some(), &what("instant has no ts"));
                c.check(e.str_at("s").is_some(), &what("instant has no scope"));
            }
            _ => {}
        }
    }
    c.check(n_spans > 0, "trace: no stage spans recorded");
    c.check(n_instants > 0, "trace: no lifecycle instants recorded");

    named_tids.sort_unstable();
    used_tids.sort_unstable();
    used_tids.dedup();
    for tid in &used_tids {
        c.check(
            named_tids.binary_search(tid).is_ok(),
            &format!("trace: tid {tid} has no thread_name metadata"),
        );
    }

    // A worker row is a single (virtual) thread: its complete spans must
    // be totally ordered, never overlapping.
    for (tid, list) in &mut spans {
        list.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in list.windows(2) {
            let ((ts0, dur0), (ts1, _)) = (w[0], w[1]);
            c.check(
                ts1 >= ts0 + dur0 - OVERLAP_SLACK_US,
                &format!(
                    "trace: tid {tid} spans overlap ([{ts0}, {}] then {ts1})",
                    ts0 + dur0
                ),
            );
        }
    }
    println!(
        "trace: {} events ({} spans, {} instants) across {} worker rows",
        events.len(),
        n_spans,
        n_instants,
        used_tids.len()
    );
}

/// One parsed Prometheus sample: metric name, sorted labels, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = line.rsplit_once(' ')?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    let (name, labels) = match head.split_once('{') {
        None => (head.to_owned(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            let mut rem = body;
            while !rem.is_empty() {
                let (key, after) = rem.split_once("=\"")?;
                let (val, after) = after.split_once('"')?;
                labels.push((key.to_owned(), val.to_owned()));
                rem = after.strip_prefix(',').unwrap_or(after);
            }
            (name.to_owned(), labels)
        }
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Maps a sample name to the family it belongs to: histogram samples
/// are exposed under `_bucket`/`_sum`/`_count` suffixes.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn check_prometheus(text: &str, c: &mut Checker) {
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, labels-minus-le) -> ascending (le, cumulative count).
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut sums: BTreeMap<SeriesKey, bool> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                helps.insert(name.to_owned(), help.to_owned());
            } else {
                c.check(false, &format!("prom line {n}: malformed # HELP"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            match rest.split_once(' ') {
                Some((name, kind)) if matches!(kind, "counter" | "gauge" | "histogram") => {
                    types.insert(name.to_owned(), kind.to_owned());
                }
                _ => c.check(false, &format!("prom line {n}: malformed # TYPE")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let Some(sample) = parse_sample(line) else {
            c.check(false, &format!("prom line {n}: unparseable sample"));
            continue;
        };
        samples += 1;
        let family = family_of(&sample.name, &types).to_owned();
        c.check(
            types.contains_key(&family),
            &format!("prom line {n}: {} has no preceding # TYPE", sample.name),
        );
        c.check(
            helps.contains_key(&family),
            &format!("prom line {n}: {} has no preceding # HELP", sample.name),
        );
        if types.get(&family).map(String::as_str) == Some("histogram") {
            let mut labels = sample.labels.clone();
            labels.retain(|(k, _)| k != "le");
            let key = (family.clone(), labels);
            if sample.name.ends_with("_bucket") {
                let le = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .and_then(|(_, v)| {
                        if v == "+Inf" {
                            Some(f64::INFINITY)
                        } else {
                            v.parse().ok()
                        }
                    });
                match le {
                    Some(le) => buckets.entry(key).or_default().push((le, sample.value)),
                    None => c.check(false, &format!("prom line {n}: bucket without le label")),
                }
            } else if sample.name.ends_with("_count") {
                counts.insert(key, sample.value);
            } else if sample.name.ends_with("_sum") {
                sums.insert(key, true);
            }
        }
    }
    c.check(samples > 0, "prom: no samples at all");

    for ((family, labels), series) in &buckets {
        let tag = format!("{family}{labels:?}");
        for w in series.windows(2) {
            c.check(
                w[1].0 > w[0].0,
                &format!("prom: {tag} bucket le values not ascending"),
            );
            c.check(
                w[1].1 >= w[0].1,
                &format!("prom: {tag} bucket counts not cumulative"),
            );
        }
        let Some(&(last_le, last_count)) = series.last() else {
            continue;
        };
        c.check(
            last_le.is_infinite(),
            &format!("prom: {tag} has no le=\"+Inf\" bucket"),
        );
        let key = (family.clone(), labels.clone());
        c.check(
            counts.get(&key) == Some(&last_count),
            &format!("prom: {tag} +Inf bucket disagrees with _count"),
        );
        c.check(
            sums.contains_key(&key),
            &format!("prom: {tag} has no _sum sample"),
        );
    }
    println!(
        "prom: {} samples across {} families ({} histogram series)",
        samples,
        types.len(),
        buckets.len()
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => trace_path = args.next(),
            "--prom" => prom_path = args.next(),
            other => {
                eprintln!("trace_check: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    if trace_path.is_none() && prom_path.is_none() {
        eprintln!("usage: trace_check [--trace trace.json] [--prom metrics.prom]");
        return ExitCode::from(2);
    }

    type Check = fn(&str, &mut Checker);
    let mut c = Checker { failures: 0 };
    let jobs: [(Option<String>, Check); 2] =
        [(trace_path, check_trace), (prom_path, check_prometheus)];
    for (path, run) in jobs {
        let Some(path) = path else { continue };
        match std::fs::read_to_string(&path) {
            Ok(text) => run(&text, &mut c),
            Err(e) => c.check(false, &format!("cannot read {path}: {e}")),
        }
    }

    if c.failures > 0 {
        eprintln!("trace_check: {} violation(s)", c.failures);
        ExitCode::FAILURE
    } else {
        println!("trace_check: all checks passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_trace(text: &str) -> usize {
        let mut c = Checker { failures: 0 };
        check_trace(text, &mut c);
        c.failures
    }

    fn run_prom(text: &str) -> usize {
        let mut c = Checker { failures: 0 };
        check_prometheus(text, &mut c);
        c.failures
    }

    #[test]
    fn accepts_well_formed_trace() {
        let good = r#"{"traceEvents": [
          {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"infer-0"}},
          {"name":"admit","ph":"i","s":"t","ts":0.0,"pid":1,"tid":0,"args":{}},
          {"name":"infer","ph":"X","ts":1.0,"dur":2.0,"pid":1,"tid":0,"args":{}},
          {"name":"infer","ph":"X","ts":3.0,"dur":1.0,"pid":1,"tid":0,"args":{}}
        ]}"#;
        assert_eq!(run_trace(good), 0);
    }

    #[test]
    fn rejects_overlapping_and_unnamed() {
        let overlap = r#"{"traceEvents": [
          {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"infer-0"}},
          {"name":"a","ph":"i","s":"t","ts":0.0,"pid":1,"tid":0},
          {"name":"infer","ph":"X","ts":1.0,"dur":5.0,"pid":1,"tid":0},
          {"name":"infer","ph":"X","ts":3.0,"dur":1.0,"pid":1,"tid":0}
        ]}"#;
        assert_eq!(run_trace(overlap), 1);
        let unnamed_tid = r#"{"traceEvents": [
          {"name":"a","ph":"i","s":"t","ts":0.0,"pid":1,"tid":7},
          {"name":"infer","ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":7}
        ]}"#;
        assert_eq!(run_trace(unnamed_tid), 1);
        assert!(run_trace("[1, 2]") > 0);
        assert!(run_trace("not json") > 0);
    }

    #[test]
    fn accepts_well_formed_prometheus() {
        let good = "\
# HELP hgpcn_frames_total Frames.\n\
# TYPE hgpcn_frames_total counter\n\
hgpcn_frames_total{stream=\"s0\"} 3\n\
# HELP hgpcn_sojourn_seconds Sojourn.\n\
# TYPE hgpcn_sojourn_seconds histogram\n\
hgpcn_sojourn_seconds_bucket{le=\"0.1\"} 1\n\
hgpcn_sojourn_seconds_bucket{le=\"+Inf\"} 3\n\
hgpcn_sojourn_seconds_sum 0.5\n\
hgpcn_sojourn_seconds_count 3\n";
        assert_eq!(run_prom(good), 0);
    }

    #[test]
    fn rejects_bad_prometheus() {
        // Sample with no preceding declarations: both HELP and TYPE fail.
        assert_eq!(run_prom("orphan_metric 1\n"), 2);
        // Non-cumulative buckets and a +Inf/_count mismatch.
        let bad = "\
# HELP h H.\n\
# TYPE h histogram\n\
h_bucket{le=\"0.1\"} 5\n\
h_bucket{le=\"+Inf\"} 3\n\
h_sum 1.0\n\
h_count 9\n";
        assert_eq!(run_prom(bad), 2);
    }
}

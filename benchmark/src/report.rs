//! The metric catalogue and the two output formats.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: the
//! same names, units and directions as `BENCHMARK.json` (a unit test
//! holds the two together). Every run prints every metric it measured by
//! name with its unit; the last line of standard output is the JSON
//! object the driver reads.

use std::fmt::Write as _;

/// `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[Decl] = &[
    ("frames_per_s", "frames/s", "higher"),
    ("frame_ms_p50", "ms", "lower"),
    ("frame_ms_p95", "ms", "lower"),
    ("modeled_frame_ms_p50", "ms", "lower"),
    ("modeled_frame_ms_p95", "ms", "lower"),
    ("cpu_ms_per_frame", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const PER_LAYER: &[Decl] = &[
    // octree (replay)
    ("octree.build_ms", "ms", "lower"),
    ("octree.build_ns_per_point", "ns/point", "lower"),
    ("octree.table_ms", "ms", "lower"),
    ("octree.nodes_per_frame", "count", "lower"),
    ("octree.warm_share", "share", "higher"),
    ("octree.dirty_point_share", "share", "lower"),
    ("octree.build_modeled_ms", "ms", "lower"),
    // memsim (replay)
    ("memsim.hostmem_load_ms", "ms", "lower"),
    ("memsim.transfer_modeled_ms", "ms", "lower"),
    // sampling (replay)
    ("sampling.ois_ms", "ms", "lower"),
    ("sampling.ois_us_per_sample", "us", "lower"),
    ("sampling.mem_reads_per_frame", "count", "lower"),
    ("sampling.modeled_ms", "ms", "lower"),
    // geometry (replay)
    ("geometry.gather_points_ms", "ms", "lower"),
    // system (replay)
    ("system.preproc_ms", "ms", "lower"),
    ("system.preproc_self_ms", "ms", "lower"),
    ("system.infer_ms", "ms", "lower"),
    ("system.price_ms", "ms", "lower"),
    ("system.preproc_share", "share", "lower"),
    // gather (replay)
    ("gather.sa_ms", "ms", "lower"),
    ("gather.sa1_ms", "ms", "lower"),
    ("gather.sa2_ms", "ms", "lower"),
    ("gather.sa3_ms", "ms", "lower"),
    ("gather.sa4_ms", "ms", "lower"),
    ("gather.index_build_ms", "ms", "lower"),
    ("gather.us_per_query", "us", "lower"),
    ("gather.queries_per_frame", "count", "lower"),
    ("gather.ds_modeled_ms", "ms", "lower"),
    // pcn (replay)
    ("pcn.infer_ms", "ms", "lower"),
    ("pcn.mlp_ms", "ms", "lower"),
    ("pcn.macs_per_frame", "count", "lower"),
    ("pcn.gmacs_per_s", "GMAC/s", "higher"),
    ("pcn.batch8_ms_per_frame", "ms", "lower"),
    ("pcn.batch8_speedup", "ratio", "higher"),
    // dla (replay)
    ("dla.fc_modeled_ms", "ms", "lower"),
    // runtime (load run)
    ("runtime.submit_ms_p50", "ms", "lower"),
    ("runtime.submit_ms_p95", "ms", "lower"),
    ("runtime.wall_preproc_ms_p50", "ms", "lower"),
    ("runtime.wall_infer_ms_p50", "ms", "lower"),
    ("runtime.wall_wait_ms_p50", "ms", "lower"),
    ("runtime.preproc_busy_share", "share", "lower"),
    ("runtime.infer_busy_share", "share", "lower"),
    ("runtime.mean_batch_size", "frames", "higher"),
    ("runtime.largest_batch", "frames", "higher"),
    ("runtime.batches", "count", "lower"),
    ("runtime.reuse_hit_share", "share", "higher"),
    ("runtime.dropped", "count", "lower"),
    ("runtime.failed", "count", "lower"),
    ("runtime.first_frame_ms", "ms", "lower"),
    ("runtime.stats_ms_first", "ms", "lower"),
    ("runtime.stats_ms_last", "ms", "lower"),
    ("runtime.stats_growth", "ratio", "lower"),
    ("runtime.shutdown_ms", "ms", "lower"),
    // telemetry (extra leg, infer_batched only)
    ("telemetry.on_fps_ratio", "ratio", "higher"),
    ("telemetry.events_per_frame", "count", "lower"),
    // serve (serve_http load run)
    ("serve.boot_ms", "ms", "lower"),
    ("serve.health_rtt_ms_p50", "ms", "lower"),
    ("serve.open_stream_rtt_ms_p50", "ms", "lower"),
    ("serve.submit_rtt_ms_p50", "ms", "lower"),
    ("serve.submit_rtt_ms_p95", "ms", "lower"),
    ("serve.wait_rtt_ms_p50", "ms", "lower"),
    ("serve.stream_stats_rtt_ms_p50", "ms", "lower"),
    ("serve.metrics_scrape_ms_first", "ms", "lower"),
    ("serve.metrics_scrape_ms_last", "ms", "lower"),
    ("serve.metrics_scrape_growth", "ratio", "lower"),
    ("serve.metrics_bytes_last", "bytes", "lower"),
    ("serve.request_bytes_per_frame", "bytes", "lower"),
    ("serve.http_errors", "count", "lower"),
    ("serve.server_cpu_ms_per_frame", "ms", "lower"),
    ("serve.server_rss_mb_end", "MiB", "lower"),
    // minihttp (bench process, on the exact submit bodies)
    ("minihttp.json_parse_ms_p50", "ms", "lower"),
    ("minihttp.json_parse_mb_per_s", "MB/s", "higher"),
    ("minihttp.json_share_of_submit", "share", "lower"),
    // client (load-generator health)
    ("client.gen_lag_ms_p95", "ms", "lower"),
    ("client.cpu_share", "share", "lower"),
    ("client.encode_ms_per_body", "ms", "lower"),
    ("client.noisy_block_share", "share", "lower"),
    // trace (the replay itself)
    ("trace.serial_frame_ms", "ms", "lower"),
    ("trace.untraced_serial_frame_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
];

/// One measured value. `n` is the sample count behind it, where it is a
/// statistic of a sample.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub n: Option<usize>,
}

/// Values measured in one run, looked up by name when the output is
/// assembled, so a metric is never silently dropped or invented.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, None);
    }

    pub fn set_n(&mut self, name: &str, value: f64, n: Option<usize>) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.0 == name),
            "undeclared metric {name}"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            n,
        });
    }

    /// Takes over every metric of `other` that this set does not hold yet,
    /// with its sample count.
    pub fn absorb(&mut self, other: Metrics) {
        for m in other.0 {
            if self.get(&m.name).is_none() {
                self.0.push(m);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.find(name).map(|m| m.value)
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Names from `decls` that this run did not measure.
    pub fn missing(&self, decls: &[Decl]) -> Vec<&'static str> {
        decls
            .iter()
            .filter(|d| self.get(d.0).is_none())
            .map(|d| d.0)
            .collect()
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(
    decls: &[Decl],
    metrics: &Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, _)) in decls.iter().enumerate() {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    out.push_str("}}");
    out
}

/// The human table: one metric per line with unit and sample count.
pub fn table(title: &str, decls: &[Decl], metrics: &Metrics) -> String {
    let mut out = format!("{title}\n");
    for (name, unit, better) in decls {
        let Some(m) = metrics.find(name) else {
            continue;
        };
        let n = m.n.map_or(String::new(), |n| format!("  n={n}"));
        let _ = writeln!(
            out,
            "  {name:<34} {:>14.4} {unit:<9} ({better} is better){n}",
            m.value
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihttp::json::{self, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "higher" | "lower"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` and the catalogue must not drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .arr(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.str_at(k).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let declared: Vec<(String, String, String)> = decls
                .iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
        let workloads: Vec<&str> = doc
            .arr("workloads")
            .unwrap()
            .iter()
            .map(|w| w.str_at("name").unwrap())
            .collect();
        let kinds: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, kinds);
        assert_eq!(
            doc.num("run_seconds"),
            Some(crate::DEFAULT_SECONDS),
            "run_seconds"
        );
    }

    #[test]
    fn driver_line_is_valid_json_with_exactly_four_keys() {
        let mut m = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            m.set(d.0, 1.25 + i as f64);
        }
        let line = driver_line(END_TO_END, &m, true, 300, 0);
        let Json::Obj(map) = json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Json::Obj(metrics) = &map["metrics"] else {
            panic!("metrics not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].num("value"), Some(8.25));
        assert_eq!(metrics["setup_s"].str_at("unit"), Some("s"));
    }

    #[test]
    fn missing_metrics_are_named() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        assert!(m.missing(END_TO_END).contains(&"frames_per_s"));
        assert!(!m.missing(END_TO_END).contains(&"setup_s"));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}

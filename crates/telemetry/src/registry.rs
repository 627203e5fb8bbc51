//! A named-metric registry: counters, gauges and streaming histograms
//! with a Prometheus text-format exporter.
//!
//! The registry is plain owned data (`&mut` to update, no interior
//! mutability): the runtime assembles one single-threaded at run end
//! from merged worker records, and a future HTTP front end can wrap one
//! in a `Mutex` to serve `/metrics`. All maps are `BTreeMap`s, so
//! exports are deterministically ordered — two registries built from
//! the same data render byte-identical text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::LogHistogram;

/// Kind of a metric family, named after the Prometheus `# TYPE`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone accumulated count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-bucketed streaming distribution.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labeled series inside a family.
#[derive(Clone, Debug, PartialEq)]
enum Series {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

type LabelSet = Vec<(String, String)>;

#[derive(Clone, Debug, PartialEq)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<LabelSet, Series>,
}

/// A registry of metric families, keyed by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

fn labels_of(labels: &[(&str, &str)]) -> LabelSet {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Panics on names Prometheus would reject — catching typos at the
/// registration site instead of in a scrape parser.
fn check_name(name: &str) {
    let ok = !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        });
    assert!(ok, "invalid metric name: {name:?}");
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        check_name(name);
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert!(
            fam.kind == kind,
            "metric {name} re-registered as {:?} (was {:?})",
            kind,
            fam.kind
        );
        fam
    }

    /// Adds `by` to the counter `name{labels}` (created at 0 on first
    /// touch).
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], by: u64) {
        let fam = self.family(name, help, MetricKind::Counter);
        match fam
            .series
            .entry(labels_of(labels))
            .or_insert(Series::Counter(0))
        {
            Series::Counter(v) => *v += by,
            _ => unreachable!("kind checked by family()"),
        }
    }

    /// Sets the gauge `name{labels}`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let fam = self.family(name, help, MetricKind::Gauge);
        fam.series.insert(labels_of(labels), Series::Gauge(value));
    }

    /// Records `value` into the histogram `name{labels}` (default
    /// bucket layout on first touch).
    pub fn histogram_record(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        match fam
            .series
            .entry(labels_of(labels))
            .or_insert_with(|| Series::Histogram(LogHistogram::default()))
        {
            Series::Histogram(h) => h.record(value),
            _ => unreachable!("kind checked by family()"),
        }
    }

    /// The counter's current value, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.series.get(&labels_of(labels))? {
            Series::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Renders the Prometheus text exposition format: per family a
    /// `# HELP` and `# TYPE` line, then every series; histograms expand
    /// to cumulative `_bucket{le=..}` samples plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape(&fam.help));
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.name());
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Series::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Series::Histogram(h) => {
                        for (ub, cum) in h.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(("le", &format!("{ub}"))))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some(("le", "+Inf"))),
                            h.count()
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add(
            "hgpcn_frames_completed_total",
            "Frames completing inference",
            &[("stream", "s0")],
            7,
        );
        r.counter_add(
            "hgpcn_frames_completed_total",
            "Frames completing inference",
            &[("stream", "s1")],
            3,
        );
        r.gauge_set("hgpcn_modeled_fps", "Modeled throughput", &[], 42.5);
        for i in 1..=100 {
            r.histogram_record(
                "hgpcn_service_seconds",
                "Modeled service time",
                &[],
                i as f64 * 1e-3,
            );
        }
        r
    }

    #[test]
    fn counters_accumulate() {
        let mut r = sample_registry();
        r.counter_add("hgpcn_frames_completed_total", "", &[("stream", "s0")], 2);
        assert_eq!(
            r.counter_value("hgpcn_frames_completed_total", &[("stream", "s0")]),
            Some(9)
        );
        assert_eq!(
            r.counter_value("hgpcn_frames_completed_total", &[("stream", "nope")]),
            None
        );
    }

    #[test]
    fn prometheus_text_shape() {
        let text = sample_registry().prometheus_text();
        assert!(text.contains("# HELP hgpcn_frames_completed_total Frames completing inference"));
        assert!(text.contains("# TYPE hgpcn_frames_completed_total counter"));
        assert!(text.contains("hgpcn_frames_completed_total{stream=\"s0\"} 7"));
        assert!(text.contains("# TYPE hgpcn_modeled_fps gauge"));
        assert!(text.contains("hgpcn_modeled_fps 42.5"));
        assert!(text.contains("# TYPE hgpcn_service_seconds histogram"));
        assert!(text.contains("hgpcn_service_seconds_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("hgpcn_service_seconds_count 100"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_registry();
        let b = sample_registry();
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter_add("bad name", "", &[], 1);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflicts_are_rejected() {
        let mut r = Registry::new();
        r.counter_add("hgpcn_x_total", "", &[], 1);
        r.gauge_set("hgpcn_x_total", "", &[], 1.0);
    }
}

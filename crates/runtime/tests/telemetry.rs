//! Telemetry integration: per-stage attribution must reconcile with the
//! existing latency summaries, the virtual-clock trace export must be
//! byte-reproducible, and the whole subsystem must vanish when off.

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    ArrivalModel, Runtime, RuntimeConfig, RuntimeReport, StreamSpec, SyntheticSource, TelemetryMode,
};
use hgpcn_telemetry::EventKind;

const TARGET: usize = 512;

fn fleet(streams: usize, frames: usize) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1200 + 70 * i, 10.0, frames, i as u64),
            )
        })
        .collect()
}

fn base_config() -> RuntimeConfig {
    RuntimeConfig::default()
        .target_points(TARGET)
        .arrival(ArrivalModel::Backlogged)
        .queue_capacity(16)
}

fn run(config: RuntimeConfig, streams: usize, frames: usize) -> RuntimeReport {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    Runtime::new(config)
        .unwrap()
        .run(fleet(streams, frames), &net)
        .unwrap()
}

/// The four breakdown components telescope per frame, so their means
/// must sum to the sojourn mean, and the two service components must
/// sum to the modeled service mean — per stream and in aggregate.
#[test]
fn breakdown_reconciles_with_sojourn_and_service() {
    let report = run(base_config().telemetry(TelemetryMode::Off), 2, 4);
    let close = |a: f64, b: f64, what: &str| {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{what}: {a} vs {b}"
        );
    };
    for s in &report.streams {
        close(
            s.breakdown.mean_sojourn().secs(),
            s.sojourn.mean.secs(),
            &format!("stream {} sojourn", s.stream_id),
        );
        close(
            s.breakdown.preproc_service.mean.secs() + s.breakdown.infer_service.mean.secs(),
            s.service.mean.secs(),
            &format!("stream {} service", s.stream_id),
        );
    }
    // Aggregate: total virtual time is conserved across the split.
    let sojourn_sum: f64 = report
        .records
        .iter()
        .map(|r| r.virtual_done_s - r.virtual_arrival_s)
        .sum();
    close(
        report.breakdown.virtual_wait_s
            + report.breakdown.virtual_preproc_busy_s
            + report.breakdown.virtual_infer_busy_s,
        sojourn_sum,
        "aggregate",
    );
    assert_eq!(report.breakdown.frames, report.total_frames);
    // Utilization is a fraction of the makespan.
    assert!(report.utilization.preproc_busy > 0.0);
    assert!(report.utilization.infer_busy > 0.0);
    assert!(report.utilization.preproc_busy <= 1.0 + 1e-9);
    assert!(report.utilization.infer_busy <= 1.0 + 1e-9);
}

/// With one worker per stage and no batching, the virtual timeline is
/// deterministic, so the wall-free Chrome trace export must be
/// byte-identical across runs.
#[test]
fn virtual_trace_export_is_byte_identical() {
    let config = || base_config().telemetry(TelemetryMode::On);
    let a = run(config(), 2, 3);
    let b = run(config(), 2, 3);
    let json_a = a.telemetry.as_ref().unwrap().trace.chrome_trace_json(false);
    let json_b = b.telemetry.as_ref().unwrap().trace.chrome_trace_json(false);
    assert!(!json_a.is_empty());
    assert_eq!(json_a, json_b, "virtual-clock trace must be reproducible");
    // The wall-clock variant carries host timing and is NOT asserted
    // equal — only well-formed.
    assert!(a
        .telemetry
        .as_ref()
        .unwrap()
        .trace
        .chrome_trace_json(true)
        .contains("wall_ts_us"));
}

#[test]
fn telemetry_off_is_none_and_on_is_populated() {
    let off = run(base_config().telemetry(TelemetryMode::Off), 1, 2);
    assert!(off.telemetry.is_none(), "pinned Off must record nothing");
    // The always-on attribution still works without telemetry.
    assert_eq!(off.breakdown.frames, off.total_frames);

    let on = run(base_config().telemetry(TelemetryMode::On), 2, 3);
    let snap = on.telemetry.as_ref().expect("pinned On must record");
    let completes = snap
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .count();
    assert_eq!(completes, on.total_frames, "one Complete event per frame");
    let admits = snap
        .trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Admit)
        .count();
    assert_eq!(admits, 6, "one Admit per offered frame");

    let prom = snap.metrics.prometheus_text();
    assert!(prom.contains("# TYPE hgpcn_frames_completed_total counter"));
    assert!(prom.contains("# TYPE hgpcn_stage_service_seconds histogram"));
    assert!(prom.contains("# HELP hgpcn_modeled_fps"));
    assert_eq!(
        snap.metrics
            .counter_value("hgpcn_frames_completed_total", &[("stream", "s0")]),
        Some(3)
    );
}

/// Telemetry is observation only: the recording run's modeled results
/// equal the untraced run's, record for record, micro-batching included.
#[test]
fn telemetry_on_leaves_every_modeled_result_untouched() {
    let config = |mode| base_config().max_batch(4).telemetry(mode);
    let off = run(config(TelemetryMode::Off), 4, 3);
    let on = run(config(TelemetryMode::On), 4, 3);
    assert_eq!(off.total_frames, 12);
    assert_eq!(on.total_frames, 12);
    for (a, b) in off.records.iter().zip(&on.records) {
        assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
        assert_eq!(
            a.modeled, b.modeled,
            "telemetry perturbed frame ({}, {})",
            a.stream_id, a.frame_index
        );
    }
    let snapshot = on.telemetry.as_ref().expect("pinned On must record");
    assert!(!snapshot.trace.is_empty(), "traced run recorded no events");
}

/// The modeled queue-depth reconstruction: a backlogged single-worker
/// run queues frames, the series is time-ordered, and the high-water
/// mark carries its virtual timestamp.
#[test]
fn queue_depth_series_is_ordered_and_timestamped() {
    let report = run(base_config().telemetry(TelemetryMode::Off), 2, 4);
    for depth in [&report.ingress_depth, &report.stage_depth] {
        assert!(!depth.samples.is_empty());
        for w in depth.samples.windows(2) {
            assert!(w[0].0 <= w[1].0, "depth series must be time-ordered");
        }
        assert!(depth.samples.iter().map(|&(_, d)| d).max().unwrap() == depth.high_water);
    }
    // Backlogged arrival floods the ingress queue: the high-water mark
    // must see real queueing, and its timestamp must sit inside the run.
    assert!(report.ingress_depth.high_water >= 2);
    assert!(report.ingress_depth.high_water_vts_s <= report.virtual_makespan_s + 1e-9);
    // Display surfaces the timestamped high-water marks.
    let shown = format!("{report}");
    assert!(shown.contains("modeled depth"));
    assert!(shown.contains("utilization"));
}

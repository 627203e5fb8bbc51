//! Observability end-to-end: serve a three-stream fleet, export the
//! frame-lifecycle trace the final report derives from its frame records
//! as Chrome trace-event JSON (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`) and the metrics registry as Prometheus text, and
//! print the per-stage attribution the runtime computes for every run.
//!
//! ```bash
//! cargo run --release --example traced_serving [output-dir]
//! # writes <output-dir>/trace.json and <output-dir>/metrics.prom
//! # (default: current directory)
//! ```

use std::path::PathBuf;

use hgpcn::prelude::*;
use hgpcn_runtime::{ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource};
use hgpcn_system::E2ePipeline;
use hgpcn_telemetry::TelemetryMode;

const TARGET: usize = 512;

fn main() {
    let out_dir: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();

    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 7);
    let streams = vec![
        StreamSpec::new("mapping", SyntheticSource::new(1600, 10.0, 4, 1)),
        StreamSpec::new("scout-a", SyntheticSource::new(1400, 20.0, 4, 2)),
        StreamSpec::new("scout-b", SyntheticSource::new(1300, 20.0, 4, 3)),
    ];
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .preproc_workers(2)
            .inference_workers(2)
            .arrival(ArrivalModel::Backlogged)
            .target_points(TARGET)
            .max_batch(4)
            // On: the final report carries the trace and the metrics
            // registry, both derived from its frame records at shutdown.
            .telemetry(TelemetryMode::On),
    )
    .expect("valid config");
    let report = runtime
        .run_with_pipeline(&E2ePipeline::prototype(), streams, &net)
        .expect("fleet serves");

    println!("{report}");
    println!("aggregate stage attribution:\n{}", report.breakdown);

    // The four per-stage components telescope back to the sojourn: what
    // the breakdown attributes is exactly what the summaries measured.
    let close = |a: f64, b: f64, what: &str| {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{what} must reconcile: {a} vs {b}"
        );
    };
    for s in &report.streams {
        close(
            s.breakdown.mean_sojourn().secs(),
            s.sojourn.mean.secs(),
            &format!("stream {} wait+service vs sojourn", s.name),
        );
        close(
            s.breakdown.preproc_service.mean.secs() + s.breakdown.infer_service.mean.secs(),
            s.service.mean.secs(),
            &format!("stream {} service split", s.name),
        );
    }
    let sojourn_total: f64 = report
        .records
        .iter()
        .map(|r| r.virtual_done_s - r.virtual_arrival_s)
        .sum();
    close(
        report.breakdown.virtual_wait_s
            + report.breakdown.virtual_preproc_busy_s
            + report.breakdown.virtual_infer_busy_s,
        sojourn_total,
        "aggregate wait+service vs sojourn total",
    );

    let snapshot = report.telemetry.as_ref().expect("telemetry on");
    assert!(!snapshot.trace.is_empty());

    let trace_path = out_dir.join("trace.json");
    let prom_path = out_dir.join("metrics.prom");
    // include_wall=true: a human profiling the host wants both clocks.
    std::fs::write(&trace_path, snapshot.trace.chrome_trace_json(true)).expect("write trace JSON");
    std::fs::write(&prom_path, snapshot.metrics.prometheus_text()).expect("write Prometheus text");
    println!(
        "wrote {} ({} events) and {} ({} metric families)",
        trace_path.display(),
        snapshot.trace.len(),
        prom_path.display(),
        snapshot.metrics.family_count(),
    );
    println!("open the trace at https://ui.perfetto.dev or chrome://tracing");
}

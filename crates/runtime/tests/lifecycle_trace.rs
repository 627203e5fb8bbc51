//! The lifecycle trace is derived from the frame records alone. With two
//! workers per stage and coalescing micro-batches — where rows interleave
//! and back-to-back spans meet at equal timestamps — every frame's spans
//! must still land on the rows of the workers that served it, no row may
//! hold overlapping spans, and every frame must be counted in exactly one
//! micro-batch.

use std::collections::HashMap;

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource, TelemetryMode,
};
use hgpcn_telemetry::EventKind;

const TARGET: usize = 512;

/// The value of `"key":` in one line of the exporter's output (one event
/// per line, no nested quotes).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = line
        .rfind(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tag.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}']).expect("value ends")].trim_matches('"')
}

#[test]
fn two_by_two_batched_trace_puts_each_frame_on_its_workers_rows() {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    let streams = (0..4)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1300 + 90 * i, 10.0, 4, i as u64),
            )
        })
        .collect();
    let config = RuntimeConfig::default()
        .preproc_workers(2)
        .inference_workers(2)
        .max_batch(4)
        .target_points(TARGET)
        .arrival(ArrivalModel::Backlogged)
        .queue_capacity(16)
        .telemetry(TelemetryMode::On);
    let report = Runtime::new(config).unwrap().run(streams, &net).unwrap();
    assert_eq!(report.total_frames, 16);
    let trace = &report.telemetry.as_ref().expect("pinned On").trace;

    // Metadata rows come first in the export, so every span's tid is
    // named by the time it is read.
    let mut rows: HashMap<String, String> = HashMap::new();
    let mut frame_rows: HashMap<(String, String, String), Vec<String>> = HashMap::new();
    let mut row_spans: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    for line in trace.chrome_trace_json(false).lines() {
        if !line.starts_with('{') || !line.contains("\"ph\"") {
            continue;
        }
        let tid = field(line, "tid").to_string();
        match field(line, "ph") {
            "M" => {
                rows.insert(tid, field(line, "name").to_string());
            }
            "X" => {
                let row = rows[&tid].clone();
                let key = (
                    field(line, "name").to_string(),
                    field(line, "stream").to_string(),
                    field(line, "frame").to_string(),
                );
                frame_rows.entry(key).or_default().push(row.clone());
                let ts: f64 = field(line, "ts").parse().unwrap();
                let dur: f64 = field(line, "dur").parse().unwrap();
                row_spans.entry(row).or_default().push((ts, dur));
            }
            _ => {}
        }
    }

    assert_eq!(frame_rows.len(), 2 * report.total_frames);
    for r in &report.records {
        let (stream, frame) = (r.stream_id.to_string(), r.frame_index.to_string());
        for (stage, want) in [
            ("preproc", format!("preproc-{}", r.preproc_worker)),
            ("infer", format!("infer-{}", r.inference_worker)),
        ] {
            let key = (stage.to_string(), stream.clone(), frame.clone());
            assert_eq!(
                frame_rows.get(&key),
                Some(&vec![want]),
                "frame ({stream}, {frame}) {stage} spans"
            );
        }
    }

    // `ts` and `dur` print rounded to the nanosecond, so back-to-back
    // spans may seem to overlap by that rounding, never by more.
    for (row, spans) in &mut row_spans {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            let ((ts0, dur0), (ts1, _)) = (w[0], w[1]);
            assert!(
                ts1 >= ts0 + dur0 - 2e-3,
                "{row}: [{ts0}, +{dur0}] then {ts1}"
            );
        }
    }

    let coalesced: Vec<u32> = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::BatchCoalesce)
        .map(|e| e.detail)
        .collect();
    assert_eq!(coalesced.len(), report.batching.batches);
    assert_eq!(
        coalesced.iter().map(|&s| s as usize).sum::<usize>(),
        report.total_frames
    );
}

//! A stage-backend pin moves host speed only: the same segmentation
//! fleet served with every stage pinned to its scalar anchor and with
//! the default (optimized) selection must agree record for record —
//! modeled latencies, op counts, and the logits down to the bit — and
//! each run must report the selection that actually served it.

use hgpcn_pcn::{PointNet, PointNetConfig, StageBackends};
use hgpcn_runtime::{
    FrameResult, FrameStatus, RuntimeConfig, RuntimeReport, ServingRuntime, StreamProfile,
    SyntheticSource,
};

const TARGET: usize = 512;
const STREAMS: usize = 3;
const FRAMES: usize = 2;

/// FNV-1a over the logits' bit patterns: equal digests ⇔ bit-equal
/// logits (up to hash collisions), without holding both runs' matrices.
fn logits_digest(result: &FrameResult) -> u64 {
    let logits = &result.output.logits;
    (0..logits.rows())
        .flat_map(|r| logits.row(r))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Serves the fleet at `max_batch 4`, waiting on every ticket in
/// submission order.
fn serve(config: RuntimeConfig) -> (Vec<FrameResult>, RuntimeReport) {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 3);
    let serving = ServingRuntime::start(
        config
            .preproc_workers(1)
            .inference_workers(1)
            .queue_capacity(16)
            .target_points(TARGET)
            .max_batch(4),
        net,
    )
    .expect("valid config");
    let mut tickets = Vec::new();
    for s in 0..STREAMS {
        let source = SyntheticSource::new(1500 + 90 * s, 10.0, FRAMES, s as u64);
        let stream = serving
            .open_stream(StreamProfile::new(format!("s{s}")))
            .unwrap();
        for f in 0..FRAMES {
            tickets.push(
                stream
                    .submit(f as f64 * 0.1, source.frame_cloud(f))
                    .unwrap(),
            );
        }
    }
    let results = tickets
        .into_iter()
        .map(|t| match serving.wait(t).unwrap() {
            FrameStatus::Done(result) => *result,
            other => panic!("frame {t:?} did not complete: {other:?}"),
        })
        .collect();
    (results, serving.shutdown().unwrap())
}

#[test]
fn anchor_pinned_run_matches_the_default_run_record_for_record() {
    let (pinned, pinned_report) =
        serve(RuntimeConfig::default().stage_backends(StageBackends::anchor()));
    let (default, default_report) = serve(RuntimeConfig::default());

    assert_eq!(pinned.len(), STREAMS * FRAMES);
    assert_eq!(default.len(), pinned.len());
    for (a, b) in pinned.iter().zip(&default) {
        let key = (a.record.stream_id, a.record.frame_index);
        assert_eq!(key, (b.record.stream_id, b.record.frame_index));
        assert_eq!(
            a.record.modeled.preprocess.latency, b.record.modeled.preprocess.latency,
            "{key:?}"
        );
        assert_eq!(
            a.record.modeled.preprocess.counts, b.record.modeled.preprocess.counts,
            "{key:?}"
        );
        assert_eq!(
            a.record.modeled.inference.latency, b.record.modeled.inference.latency,
            "{key:?}"
        );
        assert_eq!(
            a.record.modeled.inference.counts, b.record.modeled.inference.counts,
            "{key:?}"
        );
        assert_eq!(a.output.macs, b.output.macs, "{key:?}");
        assert_eq!(logits_digest(a), logits_digest(b), "{key:?} logits");
    }

    // Each run names the selection that served it, on the report and on
    // every stream.
    assert_eq!(pinned_report.stage_backends, StageBackends::anchor().into());
    assert_eq!(
        default_report.stage_backends,
        StageBackends::default().into()
    );
    assert_ne!(pinned_report.stage_backends, default_report.stage_backends);
    for (pinned, default) in pinned_report.streams.iter().zip(&default_report.streams) {
        assert_eq!(pinned.stage_backends, pinned_report.stage_backends);
        assert_eq!(default.stage_backends, default_report.stage_backends);
    }
}

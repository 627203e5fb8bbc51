//! The `max_batch` ceiling must change host throughput only: per-frame
//! modeled results, per-stream FIFO order and the virtual timeline are
//! bit-identical whether every frame runs as a batch of one or frames
//! coalesce.

use hgpcn_memsim::Latency;
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    ArrivalModel, FrameStatus, LatencySummary, Runtime, RuntimeConfig, RuntimeError,
    ServingRuntime, StreamProfile, StreamSpec, SyntheticSource,
};

const TARGET: usize = 512;

fn fleet(streams: usize, frames: usize) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1400 + 120 * i, 10.0, frames, i as u64),
            )
        })
        .collect()
}

fn base_config() -> RuntimeConfig {
    RuntimeConfig::default()
        .target_points(TARGET)
        .arrival(ArrivalModel::Backlogged)
        .queue_capacity(32)
}

#[test]
fn batched_run_is_bit_identical_to_serial_run() {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    let serial = Runtime::new(base_config().seed(42))
        .unwrap()
        .run(fleet(8, 4), &net)
        .unwrap();
    let batched = Runtime::new(base_config().seed(42).max_batch(8))
        .unwrap()
        .run(fleet(8, 4), &net)
        .unwrap();

    assert_eq!(serial.total_frames, 32);
    assert_eq!(batched.total_frames, 32);
    // Single-worker pools: every deterministic field of every record —
    // modeled results, the whole virtual timeline, the dequeue tickets —
    // is identical; within a micro-batch frames advance the clock in
    // dequeue order. (Only the host wall fields differ.)
    for (a, b) in serial.records.iter().zip(&batched.records) {
        assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
        assert_eq!(
            a.modeled, b.modeled,
            "frame ({}, {})",
            a.stream_id, a.frame_index
        );
        assert_eq!(a.sensor_ts_s.to_bits(), b.sensor_ts_s.to_bits());
        assert_eq!(a.virtual_arrival_s.to_bits(), b.virtual_arrival_s.to_bits());
        assert_eq!(
            a.virtual_preproc_start_s.to_bits(),
            b.virtual_preproc_start_s.to_bits()
        );
        assert_eq!(
            a.virtual_preproc_done_s.to_bits(),
            b.virtual_preproc_done_s.to_bits()
        );
        assert_eq!(
            a.virtual_infer_start_s.to_bits(),
            b.virtual_infer_start_s.to_bits()
        );
        assert_eq!(a.virtual_done_s.to_bits(), b.virtual_done_s.to_bits());
        assert_eq!(a.preproc_ticket, b.preproc_ticket);
        assert_eq!(a.inference_ticket, b.inference_ticket);
        assert_eq!(a.preproc_reused, b.preproc_reused);
    }
    assert_eq!(
        serial.modeled_pipelined_fps.to_bits(),
        batched.modeled_pipelined_fps.to_bits()
    );
    // The modeled service percentiles of this fleet are a function of
    // the cost models alone: a change here is a change to a model or to
    // the frame path, on either side of the batching ceiling.
    for report in [&serial, &batched] {
        let service: Vec<Latency> = report.records.iter().map(|r| r.modeled.total()).collect();
        let service = LatencySummary::from_samples(&service);
        assert_eq!(format!("{:.6}", service.p50.ms()), "3.108426");
        assert_eq!(format!("{:.6}", service.p95.ms()), "3.169860");
    }

    // The batched run actually batched.
    assert!(batched.batching.batches > 0);
    assert!(batched.batching.largest_batch >= 2);
    assert!(batched.batching.largest_batch <= 8);
    assert!(batched.batching.mean_batch_size > 1.0);
    // The `max_batch 1` run ran the same loop: every frame a batch of one.
    assert_eq!(serial.batching.batches, serial.total_frames);
    assert_eq!(serial.batching.largest_batch, 1);
    assert_eq!(serial.batching.coalesced_frames, 0);
    assert_eq!(serial.batching.mean_batch_size, 1.0);
}

#[test]
fn batching_preserves_per_stream_fifo_under_many_workers() {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    let report = Runtime::new(
        base_config()
            .preproc_workers(4)
            .inference_workers(4)
            .max_batch(4),
    )
    .unwrap()
    .run(fleet(3, 6), &net)
    .unwrap();

    assert_eq!(report.total_frames, 18);
    assert_eq!(report.total_dropped, 0);
    for id in 0..3 {
        let mine: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.stream_id == id)
            .collect();
        assert_eq!(mine.len(), 6);
        // Same guarantee the serial pipeline makes (see ordering.rs):
        // admission is FIFO per stream, proven by the ingress dequeue
        // tickets. Stage-queue order between frames of one stream can
        // swap when parallel preproc workers finish out of order — that
        // is pre-existing pipeline behaviour, not something coalescing
        // may make worse; completeness plus deterministic per-frame
        // results (asserted in the bit-identity test above) cover the
        // batching-specific risk.
        for pair in mine.windows(2) {
            assert_eq!(pair[1].frame_index, pair[0].frame_index + 1);
            assert!(
                pair[1].preproc_ticket > pair[0].preproc_ticket,
                "stream {id}: frames {} and {} admitted out of order",
                pair[0].frame_index,
                pair[1].frame_index
            );
        }
    }
}

#[test]
fn frame_failure_in_a_batch_is_attributed_to_its_frame() {
    // target_points(8) passes preprocessing but starves the net, so
    // every frame fails inference; the batched path must attribute the
    // failure to a concrete (stream, frame), not a whole batch.
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .target_points(8)
            .arrival(ArrivalModel::Backlogged)
            .max_batch(4),
    )
    .unwrap();
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    match runtime.run(fleet(1, 3), &net) {
        Err(RuntimeError::Frame {
            stream_id: 0,
            frame_index,
            ..
        }) => assert_eq!(frame_index, 0, "first frame fails first"),
        other => panic!("expected a frame error, got {other:?}"),
    }
}

/// Serves two streams at `target_points(8)`, frames submitted interleaved
/// before any is awaited so they can share a micro-batch: every sampled
/// cloud starves the net, so a coalesced batch fails as a whole and is
/// re-run one frame at a time under the per-frame (serving) policy.
fn serve_starved_frames(max_batch: usize) {
    const FRAMES: usize = 4;
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    let serving =
        ServingRuntime::start(base_config().target_points(8).max_batch(max_batch), net).unwrap();
    let streams = [
        serving.open_stream(StreamProfile::new("a")).unwrap(),
        serving.open_stream(StreamProfile::new("b")).unwrap(),
    ];
    let source = SyntheticSource::new(1400, 10.0, FRAMES, 7);
    let mut tickets = Vec::new();
    for i in 0..FRAMES {
        for stream in &streams {
            tickets.push(
                stream
                    .submit(i as f64 / 10.0, source.frame_cloud(i))
                    .unwrap(),
            );
        }
    }
    // Tickets are distinct by construction, so each failing exactly once
    // as itself means none was lost, duplicated or blamed on a batch-mate.
    for ticket in tickets {
        match serving.wait(ticket).unwrap() {
            FrameStatus::Failed(err) => {
                assert_eq!(err.frame_stage(), Some("pcn"));
                assert!(
                    matches!(err, RuntimeError::Frame { stream_id, frame_index, .. }
                        if (stream_id, frame_index) == (ticket.stream_id, ticket.frame_index)),
                    "frame {ticket:?} failed as {err:?}"
                );
            }
            other => panic!("starved frame {ticket:?} resolved {other:?}"),
        }
        assert!(
            matches!(
                serving.poll(ticket),
                Err(RuntimeError::UnknownTicket { .. })
            ),
            "a failure is delivered at most once"
        );
    }
    let report = serving.shutdown().unwrap();
    assert_eq!(report.total_frames, 0, "no frame completed");
    for stream in &report.streams {
        assert_eq!((stream.offered, stream.completed), (FRAMES, 0));
    }
}

#[test]
fn failed_micro_batch_resolves_every_ticket_as_itself() {
    serve_starved_frames(4);
    serve_starved_frames(1);
}

//! The session-oriented serving API: submit/poll must be *bit-exact*
//! with the batch `Runtime::run` driver over the same frames (both are
//! thin front ends over the same session core), frame failures must
//! isolate to their ticket, the error surface must carry the stable
//! machine-readable codes the network layer forwards, and an open-loop
//! offered load has bit-pinned latency quantiles.

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    ErrorCode, FrameStatus, FrameTicket, Runtime, RuntimeConfig, RuntimeError, ServingRuntime,
    StreamProfile, StreamSpec, SyntheticSource,
};

const POINTS: usize = 1500;
const TARGET: usize = 512;
const FRAMES: usize = 6;
const FPS: f64 = 10.0;
const SEED: u64 = 0xBEEF;

fn net() -> PointNet {
    PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1)
}

fn config() -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .target_points(TARGET)
        .seed(SEED)
}

#[test]
fn submit_poll_is_bit_exact_with_batch_run() {
    // Batch reference: the run-to-completion driver.
    let source = SyntheticSource::new(POINTS, FPS, FRAMES, 3);
    let batch = Runtime::new(config())
        .unwrap()
        .run(vec![StreamSpec::new("solo", source.clone())], &net())
        .unwrap();
    assert_eq!(batch.total_frames, FRAMES);

    // Serving session: same config, same frames, same timestamps,
    // submitted through the session API instead of a source.
    let serving = ServingRuntime::start(config(), net()).unwrap();
    let stream = serving
        .open_stream(StreamProfile::new("solo").nominal_fps(FPS))
        .unwrap();
    let mut outputs = Vec::new();
    for i in 0..FRAMES {
        let ticket = serving
            .submit(stream.id(), i as f64 / FPS, source.frame_cloud(i))
            .unwrap();
        assert_eq!(
            ticket,
            FrameTicket {
                stream_id: 0,
                frame_index: i
            },
            "tickets are deterministic"
        );
        // Drain each frame as it is produced (single-worker pools keep
        // the virtual timeline identical to the batch run regardless).
        match serving.wait(ticket).unwrap() {
            FrameStatus::Done(result) => outputs.push(result),
            other => panic!("frame {i} did not complete: {other:?}"),
        }
    }
    let report = serving.shutdown().unwrap();

    // Frame-for-frame, the serving session must reproduce the batch
    // run's modeled results and virtual-clock journey bit-exactly.
    assert_eq!(report.total_frames, batch.total_frames);
    assert_eq!(report.records.len(), batch.records.len());
    for (s, b) in report.records.iter().zip(&batch.records) {
        assert_eq!(s.frame_index, b.frame_index);
        assert_eq!(s.modeled, b.modeled, "frame {} diverged", b.frame_index);
        assert_eq!(s.virtual_arrival_s, b.virtual_arrival_s);
        assert_eq!(s.virtual_preproc_start_s, b.virtual_preproc_start_s);
        assert_eq!(s.virtual_preproc_done_s, b.virtual_preproc_done_s);
        assert_eq!(s.virtual_infer_start_s, b.virtual_infer_start_s);
        assert_eq!(s.virtual_done_s, b.virtual_done_s);
    }
    assert_eq!(report.virtual_makespan_s, batch.virtual_makespan_s);
    assert_eq!(report.modeled_pipelined_fps, batch.modeled_pipelined_fps);

    // The polled outputs carry the same records the report does.
    for (result, record) in outputs.iter().zip(&batch.records) {
        assert_eq!(result.record.modeled, record.modeled);
        assert_eq!(result.output.logits.rows(), TARGET);
    }
}

#[test]
fn frame_failure_isolates_to_its_ticket() {
    let serving = ServingRuntime::start(config(), net()).unwrap();
    let stream = serving.open_stream(StreamProfile::new("s")).unwrap();
    let source = SyntheticSource::new(POINTS, FPS, 2, 9);

    let good_before = serving
        .submit(stream.id(), 0.0, source.frame_cloud(0))
        .unwrap();
    // One point cannot be sampled up to TARGET: this frame must fail.
    let bad = serving
        .submit(
            stream.id(),
            0.1,
            SyntheticSource::new(1, FPS, 1, 0).frame_cloud(0),
        )
        .unwrap();
    let good_after = serving
        .submit(stream.id(), 0.2, source.frame_cloud(1))
        .unwrap();

    match serving.wait(bad).unwrap() {
        FrameStatus::Failed(err) => {
            assert_eq!(err.code(), ErrorCode::FrameFailed);
            assert_eq!(err.code().as_str(), "frame_failed");
            assert_eq!(err.code().json_rpc(), -32003);
            assert!(
                err.frame_stage().is_some(),
                "frame errors carry their failing stage: {err}"
            );
        }
        other => panic!("undersized frame resolved {other:?}"),
    }
    // Frames before and after the failure still complete: per-frame
    // failure policy, not batch abort.
    for ticket in [good_before, good_after] {
        match serving.wait(ticket).unwrap() {
            FrameStatus::Done(_) => {}
            other => panic!("healthy frame resolved {other:?}"),
        }
    }
    let report = serving.shutdown().unwrap();
    assert_eq!(report.total_frames, 2);
}

#[test]
fn results_are_delivered_at_most_once() {
    let serving = ServingRuntime::start(config(), net()).unwrap();
    let stream = serving.open_stream(StreamProfile::new("s")).unwrap();
    let ticket = serving
        .submit(
            stream.id(),
            0.0,
            SyntheticSource::new(POINTS, FPS, 1, 4).frame_cloud(0),
        )
        .unwrap();
    assert!(matches!(
        serving.wait(ticket).unwrap(),
        FrameStatus::Done(_)
    ));
    // The wait consumed the result; the ticket is now unknown.
    match serving.poll(ticket) {
        Err(err @ RuntimeError::UnknownTicket { .. }) => {
            assert_eq!(err.code(), ErrorCode::UnknownTicket);
        }
        other => panic!("consumed ticket polled {other:?}"),
    }
    serving.shutdown().unwrap();
}

#[test]
fn unknown_stream_and_ticket_have_stable_codes() {
    let serving = ServingRuntime::start(config(), net()).unwrap();
    match serving.submit(7, 0.0, SyntheticSource::new(8, FPS, 1, 0).frame_cloud(0)) {
        Err(err @ RuntimeError::UnknownStream { .. }) => {
            assert_eq!(err.code().as_str(), "unknown_stream");
        }
        other => panic!("unopened stream accepted {other:?}"),
    }
    match serving.poll(FrameTicket {
        stream_id: 0,
        frame_index: 99,
    }) {
        Err(err @ RuntimeError::UnknownTicket { .. }) => {
            assert_eq!(err.code().as_str(), "unknown_ticket");
        }
        other => panic!("never-issued ticket polled {other:?}"),
    }
    assert!(serving.stream_stats(0).is_err(), "no stream was opened");
    serving.shutdown().unwrap();
}

#[test]
fn invalid_config_is_refused_before_any_thread_spawns() {
    let bad = RuntimeConfig::default().preproc_workers(0);
    match ServingRuntime::start(bad, net()) {
        Err(err @ RuntimeError::InvalidConfig(_)) => {
            assert_eq!(err.code(), ErrorCode::InvalidConfig);
            assert_eq!(err.code().json_rpc(), -32001);
        }
        other => panic!("zero-worker config accepted: {other:?}"),
    }
}

#[test]
fn live_stats_track_progress() {
    let serving = ServingRuntime::start(config(), net()).unwrap();
    let stream = serving
        .open_stream(StreamProfile::new("tracked").nominal_fps(FPS))
        .unwrap();
    let before = serving.stream_stats(stream.id()).unwrap();
    assert_eq!((before.offered, before.completed), (0, 0));
    let ticket = serving
        .submit(
            stream.id(),
            0.0,
            SyntheticSource::new(POINTS, FPS, 1, 6).frame_cloud(0),
        )
        .unwrap();
    assert!(matches!(
        serving.wait(ticket).unwrap(),
        FrameStatus::Done(_)
    ));
    let after = serving.stream_stats(stream.id()).unwrap();
    assert_eq!((after.offered, after.completed), (1, 1));
    assert_eq!(after.name, "tracked");
    assert!(serving.stream_stats(99).is_err());
    serving.shutdown().unwrap();
}

/// SplitMix64 mapped onto `[0, 1)`: the offered trace's seeded uniform
/// source.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// Nearest-rank percentile of ascending `sorted` samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// A low-discrepancy cloud of `points` points starting at sequence index
/// `offset`. Computed in f64 — an f32 `fract()` at large indices would
/// collapse onto quantized coordinates.
fn cloud(offset: usize, points: usize) -> PointCloud {
    (0..points)
        .map(|p| {
            let f = (offset + p) as f64;
            Point3::new(
                ((f * 0.618_033_988_749).fract() * 2.0) as f32,
                ((f * 0.414_213_562_373).fract() * 2.0) as f32,
                ((f * 0.732_050_807_568).fract() * 2.0) as f32,
            )
        })
        .collect()
}

/// An open-loop fleet under offered load: Poisson arrivals (exponential
/// gaps at `RATE` aggregate fps) over `STREAMS` streams, each event on a
/// uniformly drawn stream with a Pareto(1.8) frame size — the
/// heavy-tailed lidar size distribution. With one worker per stage the
/// virtual timeline is a function of the submission order alone (frames
/// advance the inference clock in dequeue order whatever the batch), so
/// the sojourn quantiles, the modeled fps and the makespan are pinned to
/// the bit: any drift is a scheduling or cost-model change, never host
/// noise.
#[test]
fn offered_load_quantiles_are_pinned_to_the_bit() {
    const STREAMS: usize = 8;
    const EVENTS: usize = 32;
    const RATE: f64 = 480.0;
    const ALPHA: f64 = 1.8;
    let serving = ServingRuntime::start(config().max_batch(4), net()).unwrap();
    let ids: Vec<usize> = (0..STREAMS)
        .map(|s| {
            serving
                .open_stream(StreamProfile::new(format!("cam-{s}")).nominal_fps(FPS))
                .unwrap()
                .id()
        })
        .collect();

    let mut rng = 0x10AD_u64;
    let mut clock = 0.0f64;
    let tickets: Vec<_> = (0..EVENTS)
        .map(|e| {
            clock += -(1.0 - uniform(&mut rng)).ln() / RATE;
            let size = TARGET as f64 * 1.25 * (1.0 - uniform(&mut rng)).powf(-1.0 / ALPHA);
            let points = (size as usize).min(4 * TARGET);
            let stream = (uniform(&mut rng) * STREAMS as f64) as usize;
            serving
                .submit(ids[stream], clock, cloud(e * 7919, points))
                .expect("lossless backpressure admits every frame")
        })
        .collect();
    for ticket in tickets {
        match serving.wait(ticket).unwrap() {
            FrameStatus::Done(_) => {}
            other => panic!("frame did not complete: {other:?}"),
        }
    }
    let report = serving.shutdown().unwrap();
    assert_eq!(report.total_frames, EVENTS);

    let mut sojourns_s: Vec<f64> = report
        .records
        .iter()
        .map(|r| r.virtual_done_s - r.virtual_arrival_s)
        .collect();
    sojourns_s.sort_by(f64::total_cmp);
    let got = [
        percentile(&sojourns_s, 0.50),
        percentile(&sojourns_s, 0.99),
        report.modeled_pipelined_fps,
        report.virtual_makespan_s,
    ];
    // p50 and p99 sojourn (s), modeled pipelined fps, makespan (s).
    let want = [
        0.023586701263671996,
        0.0417109688672441,
        305.59212143097875,
        0.10471474149973314,
    ];
    assert_eq!(
        got.map(f64::to_bits),
        want.map(f64::to_bits),
        "{got:?} != {want:?}"
    );
}

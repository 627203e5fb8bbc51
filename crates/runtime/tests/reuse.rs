//! Stream-scoped preprocessing contexts under the serving runtime: a
//! stream mixing warm-hit and cold-miss frames must stay FIFO, produce
//! logits **bit-identical** to the all-cold run, report its hit/miss
//! tally honestly, and stay bit-deterministic (including the warm-path
//! modeled timings) at any worker count — the context-turn discipline
//! under test.

use hgpcn_datasets::{DriftingScene, DriftingSceneConfig};
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{FrameStatus, PreprocReuse, RuntimeConfig, ServingRuntime, StreamProfile};

const TARGET: usize = 512;
const FPS: f64 = 10.0;

fn net() -> PointNet {
    PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 5)
}

fn config(reuse: PreprocReuse, preproc_workers: usize, infer_workers: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(preproc_workers)
        .inference_workers(infer_workers)
        .queue_capacity(16)
        .target_points(TARGET)
        .seed(0xC0FFEE)
        .preproc_reuse(reuse)
}

/// Ten frames of one stream: a temporally coherent drifting scene with
/// two AABB-growing outlier frames injected. Expected warm pattern
/// under `PreprocReuse::On`: frame 0 cold (first), outlier frames cold
/// (grid grew), each frame *after* an outlier cold again (grid shrank
/// back), everything else warm.
///
/// The scene is background-dominated (two small movers over a large
/// static shell), the regime real LiDAR streams sit in and the one
/// where the warm delta pass is modeled strictly cheaper than a cold
/// rebuild — which this test asserts per frame.
fn mixed_frames() -> (Vec<PointCloud>, Vec<bool>) {
    let config = DriftingSceneConfig {
        objects: 2,
        points_per_object: 200,
        shell_points: 3712,
        ..DriftingSceneConfig::default()
    };
    let scene = DriftingScene::new(config, 21);
    let outliers = [4usize, 7];
    let mut frames = Vec::new();
    let mut expect_warm = Vec::new();
    for i in 0..10 {
        let mut cloud = scene.frame(i);
        if outliers.contains(&i) {
            cloud.push(Point3::splat(scene.bounds().max().x * 2.0));
        }
        let prev_outlierish = i > 0 && (outliers.contains(&(i - 1)) || outliers.contains(&i));
        expect_warm.push(i > 0 && !prev_outlierish);
        frames.push(cloud);
    }
    (frames, expect_warm)
}

/// Runs the mixed stream through a serving session, waiting on every
/// ticket in submission order, and returns (per-frame results, report).
fn run(
    cfg: RuntimeConfig,
    frames: &[PointCloud],
) -> (
    Vec<hgpcn_runtime::FrameResult>,
    hgpcn_runtime::RuntimeReport,
) {
    let serving = ServingRuntime::start(cfg, net()).unwrap();
    let stream = serving
        .open_stream(StreamProfile::new("drift").nominal_fps(FPS))
        .unwrap();
    let tickets: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(i, cloud)| stream.submit(i as f64 / FPS, cloud.clone()).unwrap())
        .collect();
    let results: Vec<_> = tickets
        .into_iter()
        .map(|t| match serving.wait(t).unwrap() {
            FrameStatus::Done(result) => *result,
            other => panic!("frame {} did not complete: {other:?}", t.frame_index),
        })
        .collect();
    let report = serving.shutdown().unwrap();
    (results, report)
}

#[test]
fn mixed_stream_is_fifo_and_bit_identical_to_all_cold() {
    let (frames, expect_warm) = mixed_frames();
    let (warm_run, warm_report) = run(config(PreprocReuse::On, 1, 1), &frames);
    let (cold_run, cold_report) = run(config(PreprocReuse::Off, 1, 1), &frames);

    // Bit-identical *results* frame for frame: the warm path is recycled
    // buffers and the §V-A delta pricing, never a result change.
    for (i, (w, c)) in warm_run.iter().zip(&cold_run).enumerate() {
        assert_eq!(w.output.logits, c.output.logits, "frame {i} logits");
        assert_eq!(w.output.macs, c.output.macs, "frame {i} macs");
        assert_eq!(
            w.output.predicted_class(0),
            c.output.predicted_class(0),
            "frame {i}"
        );
        assert_eq!(
            w.record.preproc_reused, expect_warm[i],
            "frame {i} warm flag"
        );
        assert!(!c.record.preproc_reused, "frame {i}: off-policy warm flag");
        // Warm frames are priced as a delta pass: modeled preprocessing
        // can only get cheaper, never different in kind.
        let (w_pre, c_pre) = (
            w.record.virtual_preproc_done_s - w.record.virtual_preproc_start_s,
            c.record.virtual_preproc_done_s - c.record.virtual_preproc_start_s,
        );
        if expect_warm[i] {
            assert!(
                w_pre < c_pre,
                "frame {i}: warm not cheaper ({w_pre} vs {c_pre})"
            );
        } else {
            assert_eq!(w_pre, c_pre, "frame {i}: cold frames priced identically");
        }
    }

    // FIFO: the stream's frames complete in submission order on the
    // virtual clock, under both policies.
    for results in [&warm_run, &cold_run] {
        for pair in results.windows(2) {
            assert!(
                pair[0].record.virtual_done_s <= pair[1].record.virtual_done_s,
                "stream left FIFO order"
            );
        }
    }

    // The tally is reported, never hidden: 6 warm hits / 4 cold misses
    // on this pattern, repeated on the stream report. Off keeps no
    // cache, so it reports an empty tally rather than "10 misses".
    let hits = expect_warm.iter().filter(|&&w| w).count() as u64;
    assert_eq!(warm_report.preproc_reuse, "on");
    assert_eq!(warm_report.preproc_reuse_hits, hits);
    assert_eq!(warm_report.preproc_reuse_misses, 10 - hits);
    assert_eq!(warm_report.streams[0].preproc_reuse_hits, hits);
    assert_eq!(
        warm_report.preproc_warm_ratio(),
        hits as f64 / 10.0,
        "warm ratio"
    );
    assert_eq!(cold_report.preproc_reuse, "off");
    assert_eq!(cold_report.preproc_reuse_hits, 0);
    assert_eq!(cold_report.preproc_reuse_misses, 0);
}

#[test]
fn warm_pattern_is_deterministic_across_worker_counts() {
    // The context-turn discipline serializes cache updates into frame
    // order, so the warm/cold pattern — and with it every result and
    // every modeled per-frame cost — must be a pure function of
    // submission order, not of how many workers race over the queues.
    // (Absolute virtual timestamps legitimately differ: they model the
    // configured pipeline width.)
    let (frames, expect_warm) = mixed_frames();
    let (solo, solo_report) = run(config(PreprocReuse::On, 1, 1), &frames);
    let (pooled, pooled_report) = run(config(PreprocReuse::On, 3, 2), &frames);

    for (i, (a, b)) in solo.iter().zip(&pooled).enumerate() {
        assert_eq!(a.output.logits, b.output.logits, "frame {i} logits");
        assert_eq!(a.record.preproc_reused, expect_warm[i], "frame {i} solo");
        assert_eq!(b.record.preproc_reused, expect_warm[i], "frame {i} pooled");
        assert_eq!(a.record.modeled, b.record.modeled, "frame {i} modeled");
        assert_eq!(a.record.virtual_arrival_s, b.record.virtual_arrival_s);
    }
    assert_eq!(
        solo_report.preproc_reuse_hits,
        pooled_report.preproc_reuse_hits
    );
    assert_eq!(
        solo_report.preproc_reuse_misses,
        pooled_report.preproc_reuse_misses
    );

    // And the pooled configuration itself is reproducible: results,
    // warm pattern, and modeled costs never vary run to run. (Absolute
    // virtual timestamps can: which worker's clock serves a frame is a
    // wall-clock race, for cold and warm runtimes alike.)
    let (again, _) = run(config(PreprocReuse::On, 3, 2), &frames);
    for (i, (a, b)) in pooled.iter().zip(&again).enumerate() {
        assert_eq!(a.output.logits, b.output.logits, "frame {i} logits");
        assert_eq!(
            a.record.preproc_reused, b.record.preproc_reused,
            "frame {i}"
        );
        assert_eq!(a.record.modeled, b.record.modeled, "frame {i} modeled");
    }
}

#[test]
fn two_streams_keep_independent_caches() {
    // Two streams submitting interleaved frames: each keeps its own
    // context, so stream A's cadence never pollutes stream B's cache.
    // B's frames carry an extra outlier so the two streams' root grids
    // differ every frame — shared state would miss constantly.
    let scene = DriftingScene::new(DriftingSceneConfig::default(), 33);
    let serving = ServingRuntime::start(config(PreprocReuse::On, 2, 1), net()).unwrap();
    let a = serving.open_stream(StreamProfile::new("a")).unwrap();
    let b = serving.open_stream(StreamProfile::new("b")).unwrap();
    let mut tickets = Vec::new();
    for i in 0..4 {
        let cloud = scene.frame(i);
        tickets.push((true, a.submit(i as f64 / FPS, cloud.clone()).unwrap()));
        let mut grown = cloud;
        grown.push(Point3::splat(scene.bounds().max().x * 3.0));
        tickets.push((false, b.submit(i as f64 / FPS, grown).unwrap()));
    }
    for (_, t) in &tickets {
        assert!(matches!(serving.wait(*t).unwrap(), FrameStatus::Done(_)));
    }
    let report = serving.shutdown().unwrap();
    // Per-stream caches: each stream misses only its first frame.
    for s in &report.streams {
        assert_eq!(s.preproc_reuse_hits, 3, "stream {}", s.name);
        assert_eq!(s.preproc_reuse_misses, 1, "stream {}", s.name);
    }
    assert_eq!(report.preproc_reuse_hits, 6);
    assert_eq!(report.preproc_reuse_misses, 2);
}

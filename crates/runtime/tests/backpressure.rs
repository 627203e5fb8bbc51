//! Backpressure and drop-policy properties.
//!
//! The queue-level property test models `push_drop_oldest` against a
//! reference `VecDeque` over arbitrary interleavings of pushes and
//! pops; the runtime-level tests check end-to-end frame conservation
//! under the lossy policy: every offered frame is either completed or
//! accounted as dropped, survivors keep their relative order, and a
//! serving runtime at saturation sheds most of a burst instead of
//! stalling admission.

use std::collections::VecDeque;

use proptest::prelude::*;

use hgpcn_geometry::PointCloud;
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    ArrivalModel, BackpressurePolicy, BoundedQueue, FrameStatus, Runtime, RuntimeConfig,
    RuntimeError, ServingRuntime, StreamProfile, StreamSpec, SyntheticSource,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drop-oldest mirrors a reference ring buffer under any
    /// push/pop interleaving, and conserves items:
    /// delivered + dropped + still-queued == offered.
    #[test]
    fn drop_oldest_matches_reference_model(
        capacity in 1usize..6,
        ops in prop::collection::vec(prop::bool::ANY, 1..60),
    ) {
        let queue = BoundedQueue::new(capacity);
        let mut reference: VecDeque<usize> = VecDeque::new();
        let mut next_item = 0usize;
        let mut delivered = 0usize;
        for &is_push in &ops {
            if is_push {
                let evicted = queue.push_drop_oldest(next_item).unwrap();
                if reference.len() >= capacity {
                    let expect = reference.pop_front();
                    prop_assert_eq!(evicted, expect, "wrong eviction victim");
                } else {
                    prop_assert!(evicted.is_none(), "evicted below capacity");
                }
                reference.push_back(next_item);
                next_item += 1;
            } else if let Some(expect) = reference.pop_front() {
                let (got, _) = queue.pop().expect("reference says queue is nonempty");
                prop_assert_eq!(got, expect, "FIFO violated");
                delivered += 1;
            }
            prop_assert_eq!(queue.depth(), reference.len());
        }
        // Conservation.
        prop_assert_eq!(
            delivered + queue.dropped() as usize + queue.depth(),
            next_item,
            "items leaked or duplicated"
        );
        // Survivors drain in order.
        queue.close();
        while let Some(expect) = reference.pop_front() {
            prop_assert_eq!(queue.pop().map(|(v, _)| v), Some(expect));
        }
        prop_assert!(queue.pop().is_none());
    }

    /// Block policy never drops: the queue refuses nothing and keeps
    /// strict FIFO.
    #[test]
    fn block_policy_is_lossless(capacity in 1usize..5, n in 1usize..40) {
        let queue = BoundedQueue::new(capacity);
        let mut delivered = Vec::new();
        // Keep the queue below capacity by interleaving push and pop.
        for i in 0..n {
            queue.push_blocking(i).unwrap();
            if queue.depth() == capacity {
                delivered.push(queue.pop().unwrap().0);
            }
        }
        queue.close();
        while let Some((v, _)) = queue.pop() {
            delivered.push(v);
        }
        prop_assert_eq!(delivered, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(queue.dropped(), 0);
    }
}

#[test]
fn runtime_conserves_frames_under_drop_oldest() {
    const FRAMES: usize = 8;
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .queue_capacity(1) // tiny: maximal eviction pressure
            .backpressure(BackpressurePolicy::DropOldest)
            .arrival(ArrivalModel::Sensor)
            .target_points(512),
    )
    .unwrap();
    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 1);
    let streams = vec![
        StreamSpec::new("a", SyntheticSource::new(1300, 20.0, FRAMES, 1)),
        StreamSpec::new("b", SyntheticSource::new(1700, 10.0, FRAMES, 2)),
    ];
    let report = runtime.run(streams, &net).unwrap();

    for s in &report.streams {
        assert_eq!(s.offered, FRAMES);
        assert_eq!(
            s.completed + s.dropped,
            s.offered,
            "stream {}: frames leaked (completed {} + dropped {} != offered {})",
            s.name,
            s.completed,
            s.dropped,
            s.offered
        );
        assert!(s.delivery_ratio() <= 1.0);
    }
    let dropped: usize = report.streams.iter().map(|s| s.dropped).sum();
    assert_eq!(report.total_dropped, dropped);
    assert_eq!(report.total_frames + dropped, 2 * FRAMES);
    assert_eq!(report.ingress_queue.dropped as usize, dropped);

    // Survivors of each stream keep ascending frame indices (drop-oldest
    // never reorders).
    for id in 0..2 {
        let mine: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.stream_id == id)
            .collect();
        for pair in mine.windows(2) {
            assert!(pair[1].frame_index > pair[0].frame_index);
            assert!(pair[1].preproc_ticket > pair[0].preproc_ticket);
        }
    }
}

/// Saturation: tiny queues under `DropOldest` and a zero-timestamp burst
/// of pre-built clouds, submitted as fast as admission accepts them.
/// Every ticket resolves — survivors as `Done`, the evicted as
/// `Failed(Dropped)` — the two tallies conserve the burst, and the
/// drop rate stays above a floor. Individual evictions race the worker
/// threads, but at this depth of overload the shed share is a
/// macroscopic number, so a floor (not a band) is what holds.
#[test]
fn serving_runtime_sheds_a_saturating_burst() {
    const STREAMS: usize = 16;
    const BURST: usize = 256;
    const MIN_DROP_RATE: f64 = 0.5;
    let config = RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .queue_capacity(4)
        .backpressure(BackpressurePolicy::DropOldest)
        .max_batch(4)
        .target_points(512);
    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 1);
    let runtime = ServingRuntime::start(config, net).expect("valid config");
    let ids: Vec<usize> = (0..STREAMS)
        .map(|s| {
            runtime
                .open_stream(StreamProfile::new(format!("burst-{s:02}")).nominal_fps(10.0))
                .expect("stream opens")
                .id()
        })
        .collect();
    // Cloud construction must not pace the overload.
    let source = SyntheticSource::new(544, 10.0, BURST, 7);
    let clouds: Vec<PointCloud> = (0..BURST).map(|e| source.frame_cloud(e)).collect();
    let tickets: Vec<_> = clouds
        .into_iter()
        .enumerate()
        .map(|(e, cloud)| {
            runtime
                .submit(ids[e % STREAMS], 0.0, cloud)
                .expect("DropOldest admission never blocks")
        })
        .collect();
    let (mut completed, mut dropped) = (0usize, 0usize);
    for ticket in tickets {
        match runtime.wait(ticket).expect("resolves") {
            FrameStatus::Done(_) => completed += 1,
            FrameStatus::Failed(RuntimeError::Dropped { .. }) => dropped += 1,
            other => panic!("frame resolved {other:?}"),
        }
    }
    let report = runtime.shutdown().expect("clean shutdown");

    assert_eq!(completed + dropped, BURST, "frames leaked");
    assert_eq!(report.total_frames, completed);
    assert_eq!(report.total_dropped, dropped);
    let drop_rate = dropped as f64 / BURST as f64;
    assert!(
        drop_rate >= MIN_DROP_RATE,
        "DropOldest shed {dropped}/{BURST} (rate {drop_rate:.3} < {MIN_DROP_RATE})"
    );
}

//! What an open stream costs in memory, counted by this test binary's
//! own global allocator.
//!
//! A stream keeps only its previous frame between frames: the root grid
//! and the frame's code bits in raw and in SFC order, 16 bytes per point.
//! The working set a frame is built and sampled in (the octree arena, the
//! sort and encode buffers, the OIS scoreboard and the host-memory image)
//! belongs to the pre-processing worker, so it does not grow with the
//! number of streams.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{FrameStatus, RuntimeConfig, ServingRuntime, StreamProfile, SyntheticSource};

/// A std-only wrapper over [`System`] that counts, process-wide and only
/// while armed, live bytes and their peak. The runtime's workers are
/// threads of their own, so the counters are atomics, not thread-locals;
/// this binary holds one test, so nothing else runs beside it. A
/// `realloc` moves the live count by the size change, as the old block
/// is freed within the same call.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn note(bytes: isize) {
    if ARMED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns what `System` returns, so `System`'s guarantees
// are this allocator's. The counting only touches static atomics, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const POINTS: usize = 20_000;
const FRAMES: usize = 16;
const TARGET: usize = 512;
const FPS: f64 = 10.0;

/// Peak live bytes while a 1+1 serving runtime takes `FRAMES` frames,
/// dealt round-robin over `streams` streams, one frame in flight at a
/// time so no two runs differ in what is queued. Memory allocated before
/// (the clouds, the net) is not counted.
fn peak_live(streams: usize, clouds: &[hgpcn_geometry::PointCloud]) -> usize {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);
    let config = RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .target_points(TARGET)
        .seed(0x5EED);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let serving = ServingRuntime::start(config, net).unwrap();
    let handles: Vec<_> = (0..streams)
        .map(|s| {
            serving
                .open_stream(StreamProfile::new(format!("s{s}")).nominal_fps(FPS))
                .unwrap()
        })
        .collect();
    for (i, cloud) in clouds.iter().enumerate() {
        let ticket = serving
            .submit(handles[i % streams].id(), i as f64 / FPS, cloud.clone())
            .unwrap();
        assert!(matches!(
            serving.wait(ticket).unwrap(),
            FrameStatus::Done(_)
        ));
    }
    let report = serving.shutdown().unwrap();
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(report.total_frames, FRAMES);
    PEAK.load(Ordering::Relaxed) as usize
}

#[test]
fn an_extra_stream_keeps_only_its_previous_frame() {
    let source = SyntheticSource::new(POINTS, FPS, FRAMES, 3);
    let clouds: Vec<_> = (0..FRAMES).map(|i| source.frame_cloud(i)).collect();
    let one = peak_live(1, &clouds);
    let four = peak_live(4, &clouds);
    let per_stream = four.saturating_sub(one) as f64 / 3.0 / POINTS as f64;
    eprintln!(
        "peak live: 1 stream {one} B, 4 streams {four} B; {per_stream:.1} B/point per extra stream"
    );
    assert!(
        per_stream <= 24.0,
        "each extra stream holds {per_stream:.1} B/point (1 stream {one} B, 4 streams {four} B)"
    );
}

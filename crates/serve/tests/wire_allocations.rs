//! What one `submit_cloud` body costs the allocator on its way through
//! `rpc::handle`, counted by this test binary's own global allocator.
//!
//! The parser decodes `params.points` straight into the frame's
//! `Vec<Point3>`, so a KITTI-sized body costs a few dozen allocation
//! calls (the cloud's own growth among them) instead of one `Vec` per
//! point, and a body over the cap is counted and refused without ever
//! holding more than the capped cloud.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use hgpcn_runtime::RuntimeConfig;
use hgpcn_serve::rpc::{self, MAX_CLOUD_POINTS};
use hgpcn_serve::{default_net, App};
use minihttp::json::{self, Json};

/// A std-only wrapper over [`System`] that counts, per thread and only
/// while armed, allocation calls and live bytes. Counting per thread
/// keeps the runtime's workers and any test running beside this one out
/// of the numbers. A `realloc` moves the live count by the size change,
/// as the old block is freed within the same call.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(calls: usize, bytes: isize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            CALLS.with(|c| c.set(c.get() + calls));
            LIVE.with(|live| {
                live.set(live.get() + bytes);
                PEAK.with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns what `System` returns, so `System`'s guarantees
// are this allocator's. The counting only touches const-initialised
// `Cell`s in thread-locals with no destructor, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(0, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            note(1, new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls and peak live bytes on this thread while `f` runs.
/// Memory allocated before (the body) is not counted, so freeing it
/// would only lower the count.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    CALLS.with(|c| c.set(0));
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, CALLS.with(Cell::get), PEAK.with(Cell::get) as usize)
}

fn app() -> &'static App {
    static APP: OnceLock<App> = OnceLock::new();
    APP.get_or_init(|| {
        let config = RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .target_points(512)
            .seed(1);
        App::new(config, default_net(1)).unwrap()
    })
}

/// A `submit_cloud` body with `n` points spelled like a LiDAR client's
/// (`{}` of an `f32`, a few metres, several digits), for a stream that
/// is never opened: the whole wire path runs, then the runtime refuses
/// the frame, so what is counted is the wire's cost alone.
fn body(n: usize) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(n * 32 + 128);
    text.push_str(
        r#"{"jsonrpc":"2.0","id":1,"method":"submit_cloud","params":{"stream_id":999999,"sensor_ts_s":0.1,"points":["#,
    );
    for i in 0..n {
        if i > 0 {
            text.push(',');
        }
        let f = i as f32;
        let _ = write!(
            text,
            "[{},{},{}]",
            (f * 0.618_034).fract() * 80.0 - 40.0,
            (f * 0.414_214).fract() * 80.0 - 40.0,
            (f * 0.732_051).fract() * 4.0 - 2.0,
        );
    }
    text.push_str("]}}");
    text
}

fn error(resp: &minihttp::http::Response) -> Json {
    json::parse(std::str::from_utf8(&resp.body).unwrap())
        .unwrap()
        .path("error")
        .cloned()
        .unwrap()
}

#[test]
fn a_kitti_sized_body_costs_a_few_dozen_allocations() {
    let body = body(69_584);
    let runtime = app().runtime();
    let (resp, calls, peak) = measure(|| rpc::handle(runtime, body.as_bytes()));
    let err = error(&resp);
    assert_eq!(err.str_at("data.code"), Some("unknown_stream"), "{err}");
    assert!(calls <= 64, "{calls} allocation calls");
    assert!(peak <= 3 << 20, "{peak} bytes peak live");
}

#[test]
fn an_oversize_body_is_refused_without_materialising_it() {
    let body = body(MAX_CLOUD_POINTS + 1);
    let runtime = app().runtime();
    let (resp, _, peak) = measure(|| rpc::handle(runtime, body.as_bytes()));
    let err = error(&resp);
    assert_eq!(err.num("code"), Some(-32602.0), "{err}");
    assert!(err.str_at("message").unwrap().contains("at most"), "{err}");
    assert!(
        peak <= MAX_CLOUD_POINTS * 12 + (1 << 20),
        "{peak} bytes peak live"
    );
}

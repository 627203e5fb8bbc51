//! What one batched forward pass holds live at its peak, counted by
//! this test binary's own global allocator.
//!
//! The set-abstraction stages stream row chunks of the gathered groups
//! through their MLPs and max-pool each chunk as it leaves the last
//! layer, so a pass never holds a stage's stacked grouped input or
//! output. A pass that stacked them would hold, for SA1 alone, every
//! cloud's `npoint · k · out_width` output floats at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hgpcn_dla::MlpSpec;
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{
    BruteKnnGatherer, CenterPolicy, Gatherer, PointNet, PointNetConfig, Stage, TaskKind,
};

/// A std-only wrapper over [`System`] that counts, per thread and only
/// while armed, live bytes and their peak. Counting per thread keeps
/// any test running beside this one out of the numbers. A `realloc`
/// moves the live count by the size change, as the old block is freed
/// within the same call.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(bytes: isize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
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

/// Peak live bytes on this thread while `f` runs. Memory allocated
/// before (the clouds, the net) is not counted.
fn peak_live<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

const NPOINT: usize = 128;
const K: usize = 12;
const SA1_OUT: usize = 64;

/// A classification net small enough for a debug build.
fn net() -> PointNet {
    PointNet::new(
        PointNetConfig {
            name: "memory".to_owned(),
            task: TaskKind::Classification { classes: 10 },
            input_size: 256,
            stages: vec![
                Stage::SetAbstraction {
                    npoint: NPOINT,
                    k: K,
                    mlp: MlpSpec::new(3, &[16, SA1_OUT]),
                },
                Stage::SetAbstraction {
                    npoint: 32,
                    k: K,
                    mlp: MlpSpec::new(3 + SA1_OUT, &[32, 64]),
                },
                Stage::GlobalAbstraction {
                    mlp: MlpSpec::new(3 + 64, &[64, 128]),
                },
            ],
            fp_mlps: Vec::new(),
            head: MlpSpec::new(128, &[10]),
        },
        5,
    )
}

fn cloud(n: usize, salt: usize) -> PointCloud {
    (0..n)
        .map(|i| {
            let f = (i + salt * 7) as f32;
            Point3::new(
                (f * 0.618_034).fract() * 2.0,
                (f * 0.414_214).fract() * 2.0,
                (f * 0.732_051).fract() * 2.0,
            )
        })
        .collect()
}

#[test]
fn a_batch_of_eight_never_holds_one_stacked_sa1_output_per_cloud() {
    const B: usize = 8;
    let net = net();
    let clouds: Vec<PointCloud> = (0..B).map(|i| cloud(256, i)).collect();
    let refs: Vec<&PointCloud> = clouds.iter().collect();
    let policies: Vec<CenterPolicy> = (0..B as u64)
        .map(|seed| CenterPolicy::Random { seed })
        .collect();
    let mut gs: Vec<BruteKnnGatherer> = (0..B).map(|_| BruteKnnGatherer::new()).collect();
    let mut grefs: Vec<&mut dyn Gatherer> = gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();

    let (outs, peak) = peak_live(|| net.infer_batch(&refs, &mut grefs, &policies));
    assert_eq!(outs.unwrap().len(), B);
    let stacked_sa1_output = B * NPOINT * K * SA1_OUT * 4;
    assert!(
        peak < stacked_sa1_output,
        "{peak} bytes peak live, against {stacked_sa1_output} for B stacked SA1 outputs"
    );
}

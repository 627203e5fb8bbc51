//! The anchor, pinned by bits: one frame of each workload shape through
//! the prototype [`E2ePipeline`] and a seeded [`PointNet`], with every
//! number the frame's result carries compared by `to_bits()` against a
//! recorded value.
//!
//! The backend-parity suites compare every GEMM backend with
//! `LinearKernel::Reference`, so a change made to every backend at once
//! passes them; the cost models are otherwise checked only for shape.
//! This file is what notices either: a changed accumulation order, one
//! ulp on one weight, or one cost-model constant off by 1 % each fail it.
//! A deliberate change of the arithmetic or pricing contract is a visible
//! edit of the values below.

use hgpcn::datasets::kitti::{self, KittiConfig};
use hgpcn::datasets::modelnet::{self, ModelNetObject};
use hgpcn::datasets::s3dis::{self, RoomConfig};
use hgpcn::datasets::{DriftingScene, DriftingSceneConfig};
use hgpcn::geometry::PointCloud;
use hgpcn::memsim::{Latency, OpCounts};
use hgpcn::pcn::{PointNet, PointNetConfig};
use hgpcn::sampling::SamplingKernel;
use hgpcn::system::{E2ePipeline, StreamPreprocContext};

/// Every modeled number one frame's pre-processing and inference carry.
#[derive(Debug, PartialEq, Eq)]
struct Anchor {
    /// FNV-1a over the logits' shape and the bits of every logit.
    logits: u64,
    macs: u64,
    /// Whether pre-processing was priced as the warm delta pass.
    reused: bool,
    /// Bits of the modeled latencies in ns: octree build, table
    /// transfer, sampling, data structuring, feature computation.
    latency_ns: [u64; 5],
    /// Op counts: octree build, sampling, data structuring, feature
    /// computation, and the forward pass's own gather counts.
    counts: [[u64; 9]; 5],
    /// DSU stage cycles (fetch, locate, expand, gather, sort, buffer),
    /// then gathers, candidates sorted and points gathered free.
    dsu: [u64; 9],
}

fn counts(c: OpCounts) -> [u64; 9] {
    [
        c.mem_reads,
        c.mem_writes,
        c.bytes_read,
        c.bytes_written,
        c.table_lookups,
        c.distance_computations,
        c.comparisons,
        c.hamming_ops,
        c.macs,
    ]
}

fn digest(logits: &hgpcn::pcn::Matrix) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let shape = [logits.rows() as u32, logits.cols() as u32];
    let bits = (0..logits.rows()).flat_map(|r| logits.row(r).iter().map(|v| v.to_bits()));
    for word in shape.into_iter().chain(bits) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Runs one frame through `ctx` and the engine, as a serving worker does.
fn anchor(
    frame: &PointCloud,
    target: usize,
    net: &PointNet,
    seed: u64,
    ctx: &mut StreamPreprocContext,
) -> Anchor {
    let pipeline = E2ePipeline::prototype();
    let pre = pipeline
        .preproc
        .run_with_context(frame, target, seed, SamplingKernel::default(), ctx)
        .expect("pre-processing succeeds");
    let inf = pipeline
        .inference
        .run(&pre.sampled, net, seed)
        .expect("inference succeeds");
    let ns = |l: Latency| l.ns().to_bits();
    let c = inf.stage_cycles;
    let pinned = Anchor {
        logits: digest(&inf.output.logits),
        macs: inf.output.macs,
        reused: pre.reused,
        latency_ns: [
            ns(pre.build_latency),
            ns(pre.transfer_latency),
            ns(pre.sample_latency),
            ns(inf.ds_latency),
            ns(inf.fc_latency),
        ],
        counts: [
            counts(pre.build_counts),
            counts(pre.sample_counts),
            counts(inf.ds_counts),
            counts(inf.fc_counts),
            counts(inf.output.gather_counts),
        ],
        dsu: [
            c.fetch,
            c.locate,
            c.expand,
            c.gather,
            c.sort,
            c.buffer,
            inf.gathers as u64,
            inf.candidates_sorted,
            inf.gathered_free,
        ],
    };
    ctx.recycle(pre);
    pinned
}

fn one_frame(frame: &PointCloud, target: usize, net: &PointNet, seed: u64) -> Anchor {
    anchor(frame, target, net, seed, &mut StreamPreprocContext::new())
}

fn segmentation() -> PointNet {
    PointNet::new(PointNetConfig::semantic_segmentation(512), 17)
}

#[test]
fn kitti_frame_is_pinned() {
    let config = KittiConfig {
        beams: 16,
        azimuth_steps: 240,
        ..KittiConfig::standard()
    };
    let frame = kitti::generate_frame(config, 3);
    let got = one_frame(&frame, 512, &segmentation(), 11);
    assert_eq!(got, KITTI);
}

#[test]
fn s3dis_room_is_pinned() {
    let frame = s3dis::generate_room(RoomConfig::default(), 3000, 5);
    let got = one_frame(&frame, 512, &segmentation(), 12);
    assert_eq!(got, S3DIS);
}

#[test]
fn modelnet_object_is_pinned() {
    let frame = modelnet::generate(ModelNetObject::Chair, 2048, 7);
    let net = PointNet::new(PointNetConfig::classification(), 19);
    let got = one_frame(&frame, 1024, &net, 13);
    assert_eq!(got, MODELNET);
}

#[test]
fn drifting_stream_is_pinned_cold_then_warm() {
    let scene = DriftingScene::new(
        DriftingSceneConfig {
            objects: 2,
            points_per_object: 400,
            shell_points: 1200,
            ..DriftingSceneConfig::default()
        },
        9,
    );
    let net = segmentation();
    let mut ctx = StreamPreprocContext::new();
    let cold = anchor(&scene.frame(0), 512, &net, 14, &mut ctx);
    let warm = anchor(&scene.frame(1), 512, &net, 15, &mut ctx);
    assert!(
        !cold.reused && warm.reused,
        "the second frame is priced warm"
    );
    assert_eq!(cold, DRIFT_COLD);
    assert_eq!(warm, DRIFT_WARM);
}

// Recorded with the prototype pipeline; see the module docs before editing.

const KITTI: Anchor = Anchor {
    logits: 0x04f8551752e3c46c,
    macs: 106405376,
    reused: false,
    latency_ns: [
        f64::to_bits(11814.0),
        f64::to_bits(249.1875),
        f64::to_bits(26759.19921875),
        f64::to_bits(60275.0),
        f64::to_bits(3013440.0),
    ],
    counts: [
        [3446, 3446, 41352, 41352, 443, 0, 10338, 0, 0],
        [512, 0, 6144, 0, 7584, 0, 716, 274007, 0],
        [9769, 5382, 117228, 64584, 17394, 9599, 181016, 0, 0],
        [3762, 0, 8589364, 4748160, 0, 0, 0, 0, 120078336],
        [79673, 5382, 956076, 64584, 17394, 79503, 250920, 0, 0],
    ],
    dsu: [170, 876, 2143, 0, 11348, 1348, 170, 9599, 0],
};

const S3DIS: Anchor = Anchor {
    logits: 0xcc7aad2ae9af1497,
    macs: 106405376,
    reused: false,
    latency_ns: [
        f64::to_bits(11235.0),
        f64::to_bits(252.5625),
        f64::to_bits(21502.79296875),
        f64::to_bits(50970.0),
        f64::to_bits(3013440.0),
    ],
    counts: [
        [3000, 3000, 36000, 36000, 449, 0, 9000, 0, 0],
        [512, 0, 6144, 0, 5104, 0, 756, 321039, 0],
        [9036, 5382, 108432, 64584, 7845, 8866, 161040, 0, 0],
        [3762, 0, 8589364, 4748160, 0, 0, 0, 0, 120078336],
        [78940, 5382, 947280, 64584, 7845, 78770, 230944, 0, 0],
    ],
    dsu: [170, 461, 1016, 0, 10099, 1348, 170, 8866, 0],
};

const MODELNET: Anchor = Anchor {
    logits: 0x84a6ad565dbb12fb,
    macs: 837527552,
    reused: false,
    latency_ns: [
        f64::to_bits(9147.0),
        f64::to_bits(227.8125),
        f64::to_bits(43508.96484375),
        f64::to_bits(304055.0),
        f64::to_bits(17819760.0),
    ],
    counts: [
        [2048, 2048, 24576, 24576, 405, 0, 6144, 0, 0],
        [1024, 0, 12288, 0, 11348, 0, 1202, 634251, 0],
        [42021, 24576, 504252, 294912, 91506, 41381, 894408, 0, 0],
        [5756, 0, 34013424, 28137296, 0, 0, 0, 0, 837527552],
        [42021, 24576, 504252, 294912, 91506, 41381, 894408, 0, 0],
    ],
    dsu: [640, 2634, 11419, 0, 56313, 6144, 640, 41381, 0],
};

const DRIFT_COLD: Anchor = Anchor {
    logits: 0x640bb2285c0d76c5,
    macs: 106405376,
    reused: false,
    latency_ns: [
        f64::to_bits(6645.0),
        f64::to_bits(136.6875),
        f64::to_bits(20175.78125),
        f64::to_bits(42025.0),
        f64::to_bits(3013440.0),
    ],
    counts: [
        [2000, 2000, 24000, 24000, 243, 0, 6000, 0, 0],
        [512, 0, 6144, 0, 5672, 0, 511, 188232, 0],
        [6849, 5382, 82188, 64584, 25233, 6679, 102192, 0, 0],
        [3762, 0, 8589364, 4748160, 0, 0, 0, 0, 120078336],
        [76753, 5382, 921036, 64584, 25233, 76583, 172096, 0, 0],
    ],
    dsu: [170, 679, 3153, 0, 6475, 1348, 170, 6679, 0],
};

const DRIFT_WARM: Anchor = Anchor {
    logits: 0x4c57c2c83027086e,
    macs: 106405376,
    reused: true,
    latency_ns: [
        f64::to_bits(4030.0),
        f64::to_bits(68.625),
        f64::to_bits(19783.4375),
        f64::to_bits(45910.0),
        f64::to_bits(3013440.0),
    ],
    counts: [
        [2000, 800, 24000, 9600, 122, 0, 4400, 0, 0],
        [512, 0, 6144, 0, 5579, 0, 511, 180048, 0],
        [7747, 5382, 92964, 64584, 24025, 7577, 118180, 0, 0],
        [3762, 0, 8589364, 4748160, 0, 0, 0, 0, 120078336],
        [77651, 5382, 931812, 64584, 24025, 77481, 188084, 0, 0],
    ],
    dsu: [170, 645, 3001, 0, 7461, 1348, 170, 7577, 0],
};

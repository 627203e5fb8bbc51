//! The four workloads: their fixed runtime shape and their seeded inputs.
//!
//! Everything the program under test sees is generated here, from
//! `--seed`, before any clock starts. Worker counts and queue sizes are
//! constants, not derived from `nproc`, so the work is the same on every
//! machine.

use hgpcn_datasets::kitti::{self, KittiConfig};
use hgpcn_datasets::modelnet::{self, ModelNetObject};
use hgpcn_datasets::s3dis::{self, RoomConfig};
use hgpcn_datasets::{DriftingScene, DriftingSceneConfig};
use hgpcn_geometry::PointCloud;
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::RuntimeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const PREPROC_WORKERS: usize = 1;
pub const INFERENCE_WORKERS: usize = 1;
pub const QUEUE_CAPACITY: usize = 16;

/// Frames of the serial replay (and of the result digest).
pub const REPLAY_FRAMES: usize = 48;

/// Offered load of the open-loop workload, frames/s over all streams:
/// under 60 % of what one inference worker sustains on the reference
/// 2-core host (~12.8 frames/s). The sandbox host runs up to 1.5 times
/// slower for minutes at a time; at this rate such a spell stretches
/// latency instead of building a backlog that never drains.
pub const HTTP_RATE_FPS: f64 = 7.5;
/// Warm-up of the open loop, seconds. Long enough that warm-up plus the
/// 22 s phase hold the 200 submissions `modeled_frame_ms_p95` is over.
pub const HTTP_WARMUP_S: f64 = 5.0;
/// Uniform jitter on each due time, as a share of the inter-arrival gap.
pub const HTTP_JITTER: f64 = 0.2;
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RawCold,
    InferBatched,
    StreamWarm,
    ServeHttp,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::RawCold,
        Kind::InferBatched,
        Kind::StreamWarm,
        Kind::ServeHttp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RawCold => "raw_cold",
            Kind::InferBatched => "infer_batched",
            Kind::StreamWarm => "stream_warm",
            Kind::ServeHttp => "serve_http",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Streams, which is also the number of frames kept outstanding by
    /// the closed loops.
    pub fn streams(self) -> usize {
        match self {
            Kind::RawCold | Kind::StreamWarm => 4,
            Kind::InferBatched => 8,
            Kind::ServeHttp => 5,
        }
    }

    /// Largest micro-batch the inference worker may form. Over HTTP one
    /// submit connection feeds the server a frame at a time, so batches
    /// form only when the host stutters — and each extra frame in the
    /// largest batch of a run adds ~17 MiB to the server's peak RSS.
    /// Batching is `infer_batched`'s subject; here it is switched off so
    /// that `peak_rss_mb` is the server's footprint, not the run's luck.
    pub fn max_batch(self) -> usize {
        match self {
            Kind::ServeHttp => 1,
            _ => 8,
        }
    }

    /// Frames a closed loop submits on top of its standing load when it
    /// starts, inside the discarded warm-up. With eight outstanding the
    /// coalescer's batches alternate 1 and 7 and reach its maximum of 8
    /// only when timing slips, and whether one did decided the peak RSS
    /// (131 or 175 MiB on identical runs). Eight extra frames at the start
    /// queue a full batch behind the first frame, so the peak is the
    /// footprint the configuration can reach. The preproc-bound loops
    /// never queue at the inference stage and get no burst.
    pub fn startup_burst(self) -> usize {
        match self {
            Kind::InferBatched => 8,
            _ => 0,
        }
    }

    pub fn target_points(self) -> usize {
        match self {
            Kind::RawCold | Kind::StreamWarm => 512,
            Kind::InferBatched | Kind::ServeHttp => 1024,
        }
    }

    fn net_config(self) -> PointNetConfig {
        match self {
            Kind::RawCold | Kind::StreamWarm => PointNetConfig::semantic_segmentation(512),
            // `hgpcn-serve` always serves the classification network.
            Kind::InferBatched | Kind::ServeHttp => PointNetConfig::classification(),
        }
    }
}

/// Inputs of one workload: which cloud each `(stream, frame index)` is.
pub struct Workload {
    pub kind: Kind,
    /// `RuntimeConfig::seed` / `hgpcn-serve --seed`: with the stream and
    /// frame index it fixes every frame's sampling and center seed.
    pub base_seed: u64,
    /// One pool per stream (`stream_warm`) or one shared pool.
    pools: Vec<Vec<PointCloud>>,
}

impl Workload {
    /// Generates the inputs. Pools are cycled, so memory and generation
    /// time do not depend on how many frames the run gets through.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let sub = |j: usize| seed.wrapping_mul(1_000_003).wrapping_add(j as u64);
        let pools = match kind {
            // A different room every frame, each with its own dimensions,
            // so the root AABB changes and every octree build is cold.
            Kind::RawCold => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0C01D);
                vec![(0..61)
                    .map(|j| {
                        let room = RoomConfig {
                            width: rng.gen_range(6.0..10.0),
                            depth: rng.gen_range(5.0..8.0),
                            height: rng.gen_range(2.6..3.4),
                            furniture: rng.gen_range(4..9),
                        };
                        s3dis::generate_room(room, 150_000, sub(j))
                    })
                    .collect()]
            }
            Kind::InferBatched => vec![(0..61)
                .map(|j| modelnet::generate(ModelNetObject::ALL[j % 8], 4096, sub(j)))
                .collect()],
            // One scene per stream, frames in stream order: the root AABB
            // is pinned, so every frame after the first can build warm.
            Kind::StreamWarm => (0..kind.streams())
                .map(|s| {
                    let scene = DriftingScene::new(
                        DriftingSceneConfig {
                            extent: 24.0,
                            objects: 24,
                            points_per_object: 2000,
                            shell_points: 12_000,
                            frame_dt: 0.1,
                        },
                        sub(s),
                    );
                    (0..WARM_POOL).map(|i| scene.frame(i)).collect()
                })
                .collect(),
            Kind::ServeHttp => vec![(0..13)
                .map(|j| kitti::generate_frame(KittiConfig::standard(), sub(j)))
                .collect()],
        };
        Workload {
            kind,
            base_seed: seed,
            pools,
        }
    }

    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    pub fn streams(&self) -> usize {
        self.kind.streams()
    }

    pub fn net(&self) -> PointNet {
        PointNet::new(self.kind.net_config(), self.base_seed)
    }

    /// The runtime shape every workload shares. Telemetry is pinned off
    /// (not `Auto`) so the measured run never depends on the environment.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::default()
            .preproc_workers(PREPROC_WORKERS)
            .inference_workers(INFERENCE_WORKERS)
            .max_batch(self.kind.max_batch())
            .queue_capacity(QUEUE_CAPACITY)
            .target_points(self.kind.target_points())
            .seed(self.base_seed)
            .telemetry(hgpcn_runtime::TelemetryMode::Off)
    }

    /// Pool slot of frame `index` of `stream`.
    fn slot(&self, stream: usize, index: usize) -> (usize, usize) {
        match self.kind {
            Kind::StreamWarm => (stream, ping_pong(index, WARM_POOL)),
            _ => (0, (index * self.streams() + stream) % self.pools[0].len()),
        }
    }

    /// The cloud submitted as frame `index` of `stream`.
    pub fn frame(&self, stream: usize, index: usize) -> &PointCloud {
        let (pool, i) = self.slot(stream, index);
        &self.pools[pool][i]
    }

    /// Distinct clouds of the shared pool: `serve_http` encodes each once
    /// and swaps in what the server decodes from that encoding.
    pub fn shared_pool_mut(&mut self) -> &mut [PointCloud] {
        &mut self.pools[0]
    }

    /// Index into the shared pool of a frame.
    pub fn shared_slot(&self, stream: usize, index: usize) -> usize {
        self.slot(stream, index).1
    }

    /// Stream and per-stream frame index of the `g`-th submission: the
    /// generators go round the streams in order.
    pub fn nth(&self, g: usize) -> (usize, usize) {
        (g % self.streams(), g / self.streams())
    }
}

/// Frames generated per `stream_warm` scene.
const WARM_POOL: usize = 24;

/// `0, 1, .., n-1, n-2, .., 1, 0, 1, ..`: walks a pool back and forth so
/// that consecutive frames are always neighbours in time.
fn ping_pong(index: usize, n: usize) -> usize {
    let pos = index % (2 * (n - 1));
    if pos < n {
        pos
    } else {
        2 * (n - 1) - pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_moves_one_step_at_a_time() {
        let seq: Vec<usize> = (0..12).map(|i| ping_pong(i, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1]);
        for w in (0..200)
            .map(|i| ping_pong(i, WARM_POOL))
            .collect::<Vec<_>>()
            .windows(2)
        {
            assert_eq!(w[0].abs_diff(w[1]), 1);
        }
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_round_robin_order() {
        let a = Workload::generate(Kind::InferBatched, 5);
        let b = Workload::generate(Kind::InferBatched, 5);
        let c = Workload::generate(Kind::InferBatched, 6);
        assert_eq!(a.frame(3, 9), b.frame(3, 9));
        assert_ne!(a.frame(3, 9), c.frame(3, 9));
        assert_eq!(a.nth(0), (0, 0));
        assert_eq!(a.nth(9), (1, 1));
        // Consecutive frames of one stream are different clouds.
        assert_ne!(a.frame(2, 0), a.frame(2, 1));
    }
}

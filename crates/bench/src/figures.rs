//! Regenerators for every table and figure of the paper's evaluation.

use hgpcn_datasets::kitti::{KittiConfig, KittiStream};
use hgpcn_datasets::{modelnet, s3dis, shapenet, EvalFrame, TABLE_I};
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::{DeviceProfile, Latency, OnChipMemory, OpCounts};
use hgpcn_octree::{Octree, OctreeTable};
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_sampling::fps;
use hgpcn_sampling::hw::DownsamplingUnit;
use hgpcn_system::baselines::{
    self, desktop_gpu_inference, jetson_inference, mesorasi_inference, pointacc_inference,
};
use hgpcn_system::realtime::{self, RealtimeReport};
use hgpcn_system::{E2ePipeline, InferenceEngine, PreprocessingEngine, SystemError};

/// Frames above this FPS work volume (`n × k`) use the closed-form FPS
/// counts instead of executing the sampler.
const FPS_EXECUTE_LIMIT: u64 = 60_000_000;

/// FPS operation counts for a frame: executed when cheap, closed-form when
/// large (the two are property-tested equal).
pub fn fps_counts(frame: &PointCloud, k: usize, seed: u64) -> (OpCounts, bool) {
    let n = frame.len();
    if (n as u64) * (k as u64) <= FPS_EXECUTE_LIMIT {
        let mut mem = hgpcn_memsim::HostMemory::from_cloud(frame);
        let r = fps::sample(&mut mem, k, seed).expect("valid FPS inputs");
        (r.counts, true)
    } else {
        (fps::analytic_counts(n, k), false)
    }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Application name.
    pub application: &'static str,
    /// Dataset name.
    pub dataset: String,
    /// PCN input size.
    pub input_size: usize,
    /// PCN model name.
    pub model: String,
}

/// Regenerates Table I from the dataset specs and network presets.
pub fn table1() -> Vec<Table1Row> {
    TABLE_I
        .iter()
        .map(|s| Table1Row {
            application: s.application,
            dataset: s.dataset.to_string(),
            input_size: s.input_size,
            model: PointNetConfig::for_input_size(s.input_size).name,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 3 — E2E breakdown on a general-purpose platform
// ---------------------------------------------------------------------

/// One bar of Fig. 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Dataset label.
    pub dataset: String,
    /// FPS pre-processing latency on the host CPU.
    pub preprocess: Latency,
    /// PointNet++ inference latency on the desktop GPU.
    pub inference: Latency,
    /// Pre-processing share of the end-to-end latency.
    pub preprocess_fraction: f64,
}

/// Regenerates Fig. 3: FPS on the Xeon + PointNet++ on the 4060 Ti, per
/// Table I dataset. ShapeNet's raw frames are below the sampling target,
/// so its pre-processing is a pass-through (the paper omits it likewise).
pub fn fig3(seed: u64) -> Vec<Fig3Row> {
    let cpu = DeviceProfile::xeon_w2255();
    TABLE_I
        .iter()
        .map(|spec| {
            let preprocess = if spec.raw_points > spec.input_size {
                baselines::fps_on_analytic(&cpu, spec.raw_points, spec.input_size).latency
            } else {
                Latency::ZERO
            };
            let _ = seed;
            let config = PointNetConfig::for_input_size(spec.input_size);
            let inference = desktop_gpu_inference(&config).latency;
            let total = preprocess + inference;
            Fig3Row {
                dataset: spec.dataset.to_string(),
                preprocess,
                inference,
                preprocess_fraction: preprocess.ns() / total.ns(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs. 9/10/11 — OIS vs FPS on the CPU
// ---------------------------------------------------------------------

/// One frame's OIS-vs-FPS comparison (Figs. 9 and 10 share it).
#[derive(Clone, Debug)]
pub struct OisVsFpsRow {
    /// Frame label (`MN.piano`, `kitti.avg`, …).
    pub label: &'static str,
    /// Raw frame size.
    pub raw_points: usize,
    /// Down-sampling target K.
    pub target: usize,
    /// Host-memory accesses of common FPS.
    pub fps_accesses: u64,
    /// Host-memory accesses of OIS (build + sample).
    pub ois_accesses: u64,
    /// Fig. 9 metric: `fps_accesses / ois_accesses`.
    pub access_saving: f64,
    /// FPS latency on the CPU.
    pub fps_latency: Latency,
    /// OIS latency on the CPU (build + sample, all software).
    pub ois_latency: Latency,
    /// Fig. 10 metric: `fps_latency / ois_latency`.
    pub latency_speedup: f64,
    /// Fig. 11 metric: octree-build share of the OIS latency.
    pub build_fraction: f64,
    /// Achieved octree depth (the non-uniformity signal of Fig. 11).
    pub octree_depth: u8,
    /// Whether the FPS numbers were executed (vs closed-form).
    pub fps_executed: bool,
}

/// Regenerates the data behind Figs. 9, 10 and 11: per evaluation frame,
/// run OIS fully in software and compare against common FPS on the same
/// CPU.
pub fn ois_vs_fps(seed: u64) -> Vec<OisVsFpsRow> {
    let engine = PreprocessingEngine::prototype();
    EvalFrame::PREPROCESSING
        .iter()
        .map(|f| {
            let frame = f.generate(seed);
            // The paper's Figs. 9-11 plot frames down-sampled to at most
            // 4096 points ("down-sampled to 4096"); Table I's larger KITTI
            // target belongs to the inference figures.
            let target = f.sample_target().min(4096);
            let (fps_c, fps_executed) = fps_counts(&frame, target, seed);
            let fps_latency = engine.cpu.latency(&fps_c);
            let out = engine
                .run_on_cpu(&frame, target, seed)
                .expect("valid frame");
            let ois_c = out.total_counts();
            OisVsFpsRow {
                label: f.label(),
                raw_points: frame.len(),
                target,
                fps_accesses: fps_c.memory_accesses(),
                ois_accesses: ois_c.memory_accesses(),
                access_saving: fps_c.memory_accesses() as f64 / ois_c.memory_accesses() as f64,
                fps_latency,
                ois_latency: out.total_latency(),
                latency_speedup: out.total_latency().speedup_over(fps_latency),
                build_fraction: out.build_fraction(),
                octree_depth: out.octree.depth(),
                fps_executed,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 12 — Pre-processing Engine vs sampling baselines
// ---------------------------------------------------------------------

/// One frame's Fig. 12 comparison.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Frame label.
    pub label: &'static str,
    /// OIS fully in software on the CPU.
    pub ois_cpu: Latency,
    /// OIS on HgPCN (CPU build + MMIO + FPGA Down-sampling Unit).
    pub ois_hgpcn: Latency,
    /// Common FPS on its best device (CPU vs desktop GPU).
    pub fps_best: Latency,
    /// Random sampling on the CPU.
    pub rs: Latency,
    /// RS+reinforce on the desktop GPU.
    pub rs_reinforce: Latency,
    /// Speedup of the FPGA Down-sampling Unit over the CPU implementation
    /// of the same unit (the paper reports 5.95–6.24×).
    pub dsu_hw_speedup: f64,
}

/// Regenerates Fig. 12.
pub fn fig12(seed: u64) -> Vec<Fig12Row> {
    let engine = PreprocessingEngine::prototype();
    let cpu = DeviceProfile::xeon_w2255();
    let gpu = DeviceProfile::rtx_4060ti();
    EvalFrame::PREPROCESSING
        .iter()
        .map(|f| {
            let frame = f.generate(seed);
            let target = f.sample_target();
            let sw = engine
                .run_on_cpu(&frame, target, seed)
                .expect("valid frame");
            let hw = engine.run(&frame, target, seed).expect("valid frame");
            let (fps_c, _) = fps_counts(&frame, target, seed);
            let fps_best = cpu.latency(&fps_c).ns().min(gpu.latency(&fps_c).ns());
            let rs = baselines::random_on(&cpu, &frame, target, seed).expect("valid frame");
            let rf = baselines::reinforce_on(&gpu, &frame, target, seed).expect("valid frame");
            Fig12Row {
                label: f.label(),
                ois_cpu: sw.total_latency(),
                ois_hgpcn: hw.total_latency(),
                fps_best: Latency::from_ns(fps_best),
                rs: rs.latency,
                rs_reinforce: rf.latency,
                dsu_hw_speedup: hw.sample_latency.speedup_over(sw.sample_latency),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 13 — on-chip memory
// ---------------------------------------------------------------------

/// One frame-size point of Fig. 13.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Raw frame size.
    pub raw_points: usize,
    /// BRAM bits an on-chip FPS needs (frame + intermediates).
    pub fps_bits: u64,
    /// BRAM bits OIS needs (Octree-Table + SPT + registers).
    pub ois_bits: u64,
    /// Memory saving `fps_bits / ois_bits`.
    pub saving: f64,
    /// Whether FPS fits the Arria 10's 65 Mb.
    pub fps_fits: bool,
    /// Whether OIS fits.
    pub ois_fits: bool,
}

/// Regenerates Fig. 13 over a sweep of frame sizes up to the paper's 10^6.
pub fn fig13(seed: u64) -> Vec<Fig13Row> {
    let unit = DownsamplingUnit::prototype();
    let bram = OnChipMemory::arria10();
    [60_000usize, 100_000, 300_000, 500_000, 1_000_000]
        .iter()
        .map(|&n| {
            let frame = surface_cloud(n, seed);
            let config = PreprocessingEngine::prototype().octree_config;
            let tree = Octree::build(&frame, config).expect("non-empty");
            let table = OctreeTable::from_octree(&tree);
            // Sampling targets track Table I: 16384 for LiDAR-scale frames,
            // 4096 otherwise.
            let k = if n >= 500_000 {
                16_384
            } else {
                4_096.min(n / 2)
            };
            let fps_bits = fps::onchip_bits(n);
            let ois_bits = unit.onchip_bits(&table, k);
            Fig13Row {
                raw_points: n,
                fps_bits,
                ois_bits,
                saving: fps_bits as f64 / ois_bits as f64,
                fps_fits: bram.fits(fps_bits),
                ois_fits: bram.fits(ois_bits),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs. 14/15/16 — Inference Engine vs accelerators
// ---------------------------------------------------------------------

/// One task's Fig. 14/15/16 data.
#[derive(Clone, Debug)]
pub struct InferenceRow {
    /// Task label (dataset name).
    pub task: String,
    /// PCN input size.
    pub input_size: usize,
    /// HgPCN Inference Engine latency (executed VEG + modeled FCU).
    pub hgpcn: Latency,
    /// PointACC-like accelerator latency.
    pub pointacc: Latency,
    /// Mesorasi-like accelerator latency.
    pub mesorasi: Latency,
    /// Jetson-class GPU latency.
    pub jetson: Latency,
    /// Fig. 15: candidates a traditional sorter processes (pool per
    /// gather, summed).
    pub traditional_sorted: u64,
    /// Fig. 15: candidates HgPCN's DSU actually sorted.
    pub veg_sorted: u64,
    /// Fig. 16: DSU stage-cycle fractions (FP/LV/VE/GP/ST/BF).
    pub stage_fractions: [f64; 6],
}

impl InferenceRow {
    /// Speedup of HgPCN over PointACC.
    pub fn speedup_vs_pointacc(&self) -> f64 {
        self.hgpcn.speedup_over(self.pointacc)
    }

    /// Speedup of HgPCN over Mesorasi.
    pub fn speedup_vs_mesorasi(&self) -> f64 {
        self.hgpcn.speedup_over(self.mesorasi)
    }

    /// Speedup of HgPCN over the Jetson GPU.
    pub fn speedup_vs_jetson(&self) -> f64 {
        self.hgpcn.speedup_over(self.jetson)
    }

    /// Fig. 15 metric: sorted-workload reduction of VEG.
    pub fn veg_workload_reduction(&self) -> f64 {
        self.traditional_sorted as f64 / self.veg_sorted.max(1) as f64
    }
}

/// Builds the PCN input cloud for one Table I task.
fn task_input(input_size: usize, seed: u64) -> PointCloud {
    match input_size {
        1024 => modelnet::generate(modelnet::ModelNetObject::Airplane, 1024, seed),
        2048 => shapenet::generate(shapenet::ShapeNetCategory::Mug, 2048, seed),
        4096 => s3dis::generate_room(s3dis::RoomConfig::default(), 4096, seed),
        n => {
            // KITTI: down-sample a generated LiDAR frame through the real
            // Pre-processing Engine.
            let frame = hgpcn_datasets::kitti::generate_frame(KittiConfig::standard(), seed);
            let engine = PreprocessingEngine::prototype();
            engine
                .run(&frame, n, seed)
                .expect("frame larger than target")
                .sampled
        }
    }
}

/// Regenerates Figs. 14, 15 and 16: run the HgPCN Inference Engine for
/// real on each Table I task and compare against the modeled accelerators.
///
/// # Errors
///
/// Propagates engine failures.
pub fn inference_comparison(seed: u64) -> Result<Vec<InferenceRow>, SystemError> {
    let engine = InferenceEngine::prototype();
    let array = engine.array;
    let mut rows = Vec::new();
    for spec in &TABLE_I {
        let config = PointNetConfig::for_input_size(spec.input_size);
        let input = task_input(spec.input_size, seed);
        let net = PointNet::new(config.clone(), seed);
        let report = engine.run(&input, &net, seed)?;
        let traditional_sorted = baselines::knn_candidates(&config);
        rows.push(InferenceRow {
            task: spec.dataset.to_string(),
            input_size: spec.input_size,
            hgpcn: report.total_latency(),
            pointacc: pointacc_inference(&config, &array).latency,
            mesorasi: mesorasi_inference(&config, &array).latency,
            jetson: jetson_inference(&config).latency,
            traditional_sorted,
            veg_sorted: report.candidates_sorted,
            stage_fractions: report.stage_cycles.fractions(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// §VII-E — system-level real time
// ---------------------------------------------------------------------

/// Regenerates the §VII-E experiment: stream KITTI-like frames through the
/// full HgPCN pipeline and compare throughput against the sensor rate.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn e2e_realtime(frames: usize, seed: u64) -> Result<RealtimeReport, SystemError> {
    let pipeline = E2ePipeline::prototype();
    let net = PointNet::new(PointNetConfig::semantic_segmentation(16_384), seed);
    let stream: Vec<(f64, PointCloud)> = KittiStream::new(KittiConfig::standard(), seed)
        .take(frames.max(2))
        .map(|f| (f.timestamp_s, f.cloud))
        .collect();
    realtime::run_stream(&pipeline, &net, &stream, 16_384, seed)
}

// ---------------------------------------------------------------------
// §VIII future-work ablations and the queue-level real-time view
// ---------------------------------------------------------------------

/// Regenerates the §VIII approximate-OIS trade-off on a ModelNet-like
/// frame: latency on the Down-sampling Unit vs coverage quality.
///
/// # Errors
///
/// Propagates engine failures.
pub fn ablation_approx_ois(
    seed: u64,
) -> Result<Vec<hgpcn_system::ablation::ApproxOisRow>, SystemError> {
    let frame = modelnet::generate(modelnet::ModelNetObject::Chair, 20_000, seed);
    hgpcn_system::ablation::approx_ois_tradeoff(&frame, 1024, seed, &[2, 4, 6])
}

/// Regenerates the §VIII semi-approximate-VEG trade-off on an S3DIS-like
/// input: DSU latency and sort workload vs neighbor recall.
///
/// # Errors
///
/// Propagates engine failures.
pub fn ablation_semi_veg(
    seed: u64,
) -> Result<Vec<hgpcn_system::ablation::SemiVegRow>, SystemError> {
    let cloud = s3dis::generate_room(s3dis::RoomConfig::default(), 4096, seed);
    let centers: Vec<usize> = (0..256).map(|i| i * 16).collect();
    hgpcn_system::ablation::semi_veg_tradeoff(&cloud, &centers, 32)
}

/// The bounded-queue view of the §VII-E experiment: offered load at the
/// sensor rate against the pipeline's modeled service times, with a
/// 2-frame queue.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn e2e_queue(frames: usize, seed: u64) -> Result<realtime::QueueReport, SystemError> {
    let pipeline = E2ePipeline::prototype();
    let net = PointNet::new(PointNetConfig::semantic_segmentation(16_384), seed);
    let stream: Vec<_> = KittiStream::new(KittiConfig::standard(), seed)
        .take(frames.max(2))
        .collect();
    let mut arrivals = Vec::with_capacity(stream.len());
    let mut service = Vec::with_capacity(stream.len());
    for f in &stream {
        let report = pipeline.process_frame(&f.cloud, 16_384, &net, seed ^ f.index as u64)?;
        arrivals.push(f.timestamp_s);
        // Pipelined engines: the served stage is the slower of the two.
        service.push(report.preprocess.latency.max(report.inference.latency));
    }
    Ok(realtime::simulate_queue(&arrivals, &service, 2))
}

/// A seeded surface-sampled cloud of `n` points (a jittered sphere).
/// Sensor point clouds sample 2-D surfaces, so octree occupancy — and with
/// it the Octree-Table size Fig. 13 depends on — must scale like a
/// surface, not a volume.
pub fn surface_cloud(n: usize, seed: u64) -> PointCloud {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed | 1);
    let mut pts = hgpcn_datasets::sample_sphere(&mut rng, Point3::splat(5.0), 4.0, n);
    hgpcn_datasets::jitter(&mut rng, &mut pts, 0.01);
    PointCloud::from_points(pts)
}

/// A quasi-random (golden-ratio lattice) cloud of `n` points — cheap
/// filler for size sweeps where only scale matters.
/// The fractions are computed in f64 and cast last: at indices ≥4M an
/// f32 ulp is ~0.25, so an f32 `fract()` collapses the lattice onto a
/// handful of duplicate points — a degenerate octree/KNN input, not a
/// lidar frame.
pub fn golden_cloud(n: usize, seed: u64) -> PointCloud {
    let offset = (seed as f64 * 0.137).fract();
    (0..n)
        .map(|i| {
            let f = i as f64 + offset;
            Point3::new(
                ((f * 0.618_033_988_749).fract() * 10.0) as f32,
                ((f * 0.414_213_562_373).fract() * 10.0) as f32,
                ((f * 0.732_050_807_568).fract() * 10.0) as f32,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_cloud_stays_diverse_past_four_million() {
        // Regression for the ulp-collapse bug: at index ≥4M an f32 ulp
        // is ~0.25, so fractions computed in f32 collapse the lattice
        // onto a handful of duplicate points (degenerate octree/KNN →
        // wedged inference workers). The f64 lattice must keep its
        // low-discrepancy spread arbitrarily deep into the sequence.
        const BASE: usize = 4 << 20;
        const WINDOW: usize = 2048;
        let cloud = golden_cloud(BASE + WINDOW, 5);
        let tail = &cloud.points()[BASE..];
        let distinct_x: std::collections::BTreeSet<u32> =
            tail.iter().map(|p| p.x.to_bits()).collect();
        assert!(
            distinct_x.len() > WINDOW * 9 / 10,
            "tail collapsed to {} distinct x values of {WINDOW}",
            distinct_x.len()
        );
        // A golden-ratio lattice fills the box evenly: every octant of
        // the [0,10)^3 cube must be populated even this deep in.
        let mut octants = [false; 8];
        for p in tail {
            let o =
                (p.x >= 5.0) as usize | ((p.y >= 5.0) as usize) << 1 | ((p.z >= 5.0) as usize) << 2;
            octants[o] = true;
        }
        assert!(octants.iter().all(|&o| o), "octants missed: {octants:?}");
    }

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].input_size, 1024);
        assert_eq!(t[3].model, "Pointnet++(s)");
    }

    #[test]
    fn fig13_saving_grows_and_fps_overflows() {
        let rows = fig13(1);
        // FPS overflows the Arria 10 around 5x10^5 points; OIS always fits.
        let half_million = rows.iter().find(|r| r.raw_points == 500_000).unwrap();
        assert!(!half_million.fps_fits);
        assert!(half_million.ois_fits);
        assert!(rows.iter().all(|r| r.ois_fits));
        let small = &rows[0];
        assert!(small.fps_fits);
        // Saving is at least an order of magnitude everywhere.
        assert!(rows.iter().all(|r| r.saving > 10.0), "{rows:?}");
    }

    #[test]
    fn fig3_preprocessing_dominates_large_datasets() {
        let rows = fig3(1);
        let shapenet = rows
            .iter()
            .find(|r| r.dataset == "ShapeNet")
            .unwrap()
            .clone();
        for r in &rows {
            if r.dataset == "ShapeNet" {
                // ShapeNet's raw frames are barely above the input size, so
                // its pre-processing share is the smallest by far.
                assert!(r.preprocess_fraction < 0.7);
            } else {
                assert!(
                    r.preprocess_fraction > 0.8,
                    "{}: fraction {}",
                    r.dataset,
                    r.preprocess_fraction
                );
                assert!(r.preprocess_fraction > shapenet.preprocess_fraction);
            }
        }
    }
}

//! The paper's shape claims, asserted end-to-end.
//!
//! These tests regenerate (scaled-down where noted) figure data through
//! the same code paths as the `repro` binary and assert the qualitative
//! results the paper reports: who wins, by roughly what factor, and where
//! the crossovers fall. Absolute paper numbers are *not* asserted — the
//! substrate is a simulator, not the authors' testbed (see README.md).

use hgpcn::bench::figures;
use hgpcn::datasets::modelnet::{self, ModelNetObject};
use hgpcn::memsim::DeviceProfile;
use hgpcn::sampling::fps;
use hgpcn::system::{baselines, PreprocessingEngine};

const SEED: u64 = 2024;

/// Fig. 9 shape: OIS saves ≥ 3 orders of magnitude of memory accesses,
/// and the saving grows with the sampling target K.
#[test]
fn fig9_memory_saving_shape() {
    let engine = PreprocessingEngine::prototype();
    let frame = modelnet::generate(ModelNetObject::Chair, 40_000, SEED);
    let mut savings = Vec::new();
    for k in [512usize, 2048] {
        let fps_accesses = fps::analytic_counts(frame.len(), k).memory_accesses();
        let out = engine.run_on_cpu(&frame, k, SEED).unwrap();
        let saving = fps_accesses as f64 / out.total_counts().memory_accesses() as f64;
        assert!(
            saving > 1_000.0,
            "k={k}: saving {saving} below 3 orders of magnitude"
        );
        savings.push(saving);
    }
    assert!(
        savings[1] > savings[0],
        "saving must grow with K: {savings:?}"
    );
}

/// Fig. 10 shape: OIS-on-CPU beats FPS-on-CPU by ≥ 2 orders of magnitude.
#[test]
fn fig10_latency_speedup_shape() {
    let engine = PreprocessingEngine::prototype();
    let cpu = DeviceProfile::xeon_w2255();
    let frame = modelnet::generate(ModelNetObject::Plant, 40_000, SEED);
    let fps_latency = cpu.latency(&fps::analytic_counts(frame.len(), 1024));
    let out = engine.run_on_cpu(&frame, 1024, SEED).unwrap();
    let speedup = out.total_latency().speedup_over(fps_latency);
    assert!(speedup > 100.0, "speedup {speedup}");
}

/// Fig. 11 shape: the octree build is a substantial share of software OIS,
/// and the non-uniform piano yields a deeper octree than the plant.
#[test]
fn fig11_build_overhead_and_nonuniformity() {
    let engine = PreprocessingEngine::prototype();
    let piano = modelnet::generate(ModelNetObject::Piano, 60_000, SEED);
    let plant = modelnet::generate(ModelNetObject::Plant, 60_000, SEED);
    let out_piano = engine.run_on_cpu(&piano, 1024, SEED).unwrap();
    let out_plant = engine.run_on_cpu(&plant, 1024, SEED).unwrap();
    assert!(
        out_piano.build_fraction() > 0.15,
        "{}",
        out_piano.build_fraction()
    );
    assert!(out_piano.build_fraction() < 0.95);
    assert!(
        out_piano.octree.depth() >= out_plant.octree.depth(),
        "piano (non-uniform) must subdivide at least as deep as plant: {} vs {}",
        out_piano.octree.depth(),
        out_plant.octree.depth()
    );
}

/// Fig. 12 shape: RS < OIS-on-HgPCN < OIS-on-CPU < FPS in latency, and the
/// hardware Down-sampling Unit beats its CPU implementation.
#[test]
fn fig12_baseline_ordering() {
    let engine = PreprocessingEngine::prototype();
    let cpu = DeviceProfile::xeon_w2255();
    let frame = modelnet::generate(ModelNetObject::Car, 50_000, SEED);
    let sw = engine.run_on_cpu(&frame, 1024, SEED).unwrap();
    let hw = engine.run(&frame, 1024, SEED).unwrap();
    let fps = cpu.latency(&fps::analytic_counts(frame.len(), 1024));
    let rs = baselines::random_on(&cpu, &frame, 1024, SEED)
        .unwrap()
        .latency;
    assert!(rs < hw.total_latency());
    assert!(hw.total_latency() < sw.total_latency());
    assert!(sw.total_latency() < fps);
    assert!(hw.sample_latency < sw.sample_latency);
}

/// Fig. 13 shape: OIS saves ≥ 10x on-chip memory, FPS overflows the
/// Arria 10 by ~5x10^5 points while OIS always fits.
#[test]
fn fig13_onchip_memory_shape() {
    let rows = figures::fig13(SEED);
    assert!(rows.iter().all(|r| r.saving > 10.0), "{rows:?}");
    assert!(rows.iter().all(|r| r.ois_fits));
    let big = rows.iter().find(|r| r.raw_points >= 500_000).unwrap();
    assert!(!big.fps_fits, "FPS must overflow the device at LiDAR scale");
    let small = rows.first().unwrap();
    assert!(small.fps_fits);
}

/// Figs. 14/15/16 shape: HgPCN wins against every accelerator baseline on
/// every task; the gap and the VEG workload reduction grow with input
/// size; the sort stage dominates the DSU pipeline.
#[test]
fn fig14_15_16_inference_shapes() {
    let rows = figures::inference_comparison(SEED).unwrap();
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.speedup_vs_pointacc() > 1.0, "{}: vs PointACC", r.task);
        assert!(
            r.speedup_vs_mesorasi() > r.speedup_vs_pointacc(),
            "{}",
            r.task
        );
        assert!(
            r.speedup_vs_jetson() > r.speedup_vs_mesorasi(),
            "{}",
            r.task
        );
        assert!(r.veg_workload_reduction() > 5.0, "{}", r.task);
        // Fig. 16: the final-shell sort is the biggest DSU stage.
        let st = r.stage_fractions[4];
        assert!(
            r.stage_fractions.iter().all(|&f| f <= st),
            "{}: ST must dominate, got {:?}",
            r.task,
            r.stage_fractions
        );
    }
    // Growth with input size (the paper's crossover structure): the
    // largest task must show a decisively larger speedup than the
    // smallest on every baseline.
    let first = &rows[0];
    let last = &rows[3];
    assert!(last.speedup_vs_pointacc() > 2.0 * first.speedup_vs_pointacc());
    assert!(last.speedup_vs_mesorasi() > 2.0 * first.speedup_vs_mesorasi());
    assert!(last.veg_workload_reduction() > first.veg_workload_reduction());
}

/// §VII-E shape: the pipelined system keeps up with the sensor rate.
#[test]
fn e2e_realtime_shape() {
    let report = figures::e2e_realtime(2, SEED).unwrap();
    assert!(
        report.sensor_fps > 8.0 && report.sensor_fps < 12.0,
        "{}",
        report.sensor_fps
    );
    assert!(
        report.meets_realtime(),
        "pipelined {} vs sensor {}",
        report.pipelined_fps,
        report.sensor_fps
    );
}

/// Fig. 3 shape: pre-processing dominates end-to-end latency on every
/// dataset whose raw frames are meaningfully larger than the input size.
#[test]
fn fig3_ai_tax_shape() {
    let rows = figures::fig3(SEED);
    for r in rows {
        if r.dataset != "ShapeNet" {
            assert!(
                r.preprocess_fraction > 0.8,
                "{}: {}",
                r.dataset,
                r.preprocess_fraction
            );
        }
    }
}

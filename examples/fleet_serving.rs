//! Fleet serving: many LiDARs, one HgPCN service.
//!
//! The paper's §VII-E experiment asks whether *one* sensor stream can be
//! served in real time; a deployed perception service faces a fleet.
//! This scenario drives the concurrent runtime with six streams at mixed
//! rates — four simulated rotating LiDARs plus two synthetic
//! high-rate sensors — through stage-pipelined worker pools, prints the
//! resulting `RuntimeReport`, and then cross-validates the runtime's
//! measured single-stream throughput against the analytical
//! `RealtimeReport::pipelined_fps` (tolerance documented in
//! `hgpcn_runtime::DEFAULT_VALIDATION_TOLERANCE`).
//!
//! ```text
//! cargo run --release --example fleet_serving [frames_per_stream]
//! ```

use hgpcn::datasets::kitti::KittiConfig;
use hgpcn::prelude::*;
use hgpcn::runtime::{FrameSource, DEFAULT_VALIDATION_TOLERANCE};
use hgpcn::system::realtime;

const TARGET: usize = 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let seed = 7;

    // A medium-resolution scanner keeps the executed (host) runtime of
    // the example in seconds; the modeled latencies scale the same way.
    let lidar = KittiConfig {
        beams: 24,
        azimuth_steps: 600,
        ..KittiConfig::standard()
    };

    // --- The fleet: 4 LiDARs at 10 Hz + 2 synthetic sensors at 20/30 Hz.
    let streams: Vec<StreamSpec> = (0..4)
        .map(|i| {
            StreamSpec::new(
                format!("lidar-{i}"),
                KittiSource::new(lidar, seed + i as u64, frames),
            )
        })
        .chain([
            StreamSpec::new("cam-20hz", SyntheticSource::new(9_000, 20.0, frames, 100)),
            StreamSpec::new("cam-30hz", SyntheticSource::new(6_000, 30.0, frames, 200)),
        ])
        .collect();
    let fleet_size = streams.len();

    let config = RuntimeConfig::default()
        .preproc_workers(2)
        .inference_workers(2)
        .queue_capacity(8)
        .backpressure(BackpressurePolicy::Block)
        .arrival(ArrivalModel::Sensor)
        .target_points(TARGET)
        .seed(seed);
    let runtime = Runtime::new(config)?;
    let net = PointNet::new(PointNetConfig::classification(), seed);

    println!("serving {fleet_size} streams x {frames} frames (2 preproc + 2 inference workers)...");
    let report = runtime.run(streams, &net)?;
    println!();
    print!("{report}");

    assert!(
        report.streams.len() >= 4,
        "the fleet must exceed four concurrent streams"
    );
    assert_eq!(
        report.total_frames + report.total_dropped,
        fleet_size * frames
    );

    // --- Cross-validation against the analytical §VII-E model:
    // a single backlogged stream through 1+1 workers measures pipeline
    // capacity, the quantity `RealtimeReport::pipelined_fps` bounds.
    println!("cross-validating the single-stream case against the analytical model...");
    let pipeline = E2ePipeline::prototype();
    let solo_frames = frames.max(8);
    let solo = || KittiSource::new(lidar, seed, solo_frames);
    let capacity_runtime = Runtime::new(
        RuntimeConfig::default()
            .arrival(ArrivalModel::Backlogged)
            .target_points(TARGET)
            .seed(seed),
    )?;
    let solo_report = capacity_runtime.run_with_pipeline(
        &pipeline,
        vec![StreamSpec::new("solo", solo())],
        &net,
    )?;

    let mut replay = solo();
    let timestamped: Vec<(f64, PointCloud)> = std::iter::from_fn(|| replay.next_frame()).collect();
    let analytical = realtime::run_stream(&pipeline, &net, &timestamped, TARGET, seed)?;

    let validation = solo_report.validate_against(&analytical);
    println!("  {validation}");
    println!(
        "  (tolerance rationale: analytical = worst-frame bound, measured = mean occupancy \
         + one pipeline fill; documented at DEFAULT_VALIDATION_TOLERANCE = {:.0}%)",
        DEFAULT_VALIDATION_TOLERANCE * 100.0
    );
    assert!(
        validation.agrees(),
        "measured pipelined throughput strayed outside tolerance: {validation}"
    );

    println!();
    println!(
        "fleet verdict: {} of {} streams kept up with their sensors",
        report
            .streams
            .iter()
            .filter(|s| s.completed == 0 || s.achieved_fps >= s.sensor_fps * 0.99)
            .count(),
        report.streams.len(),
    );
    Ok(())
}

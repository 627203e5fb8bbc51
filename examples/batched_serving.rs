//! Serial vs micro-batched serving of the same fleet.
//!
//! ```bash
//! cargo run --release --example batched_serving            # batch of 8
//! cargo run --release --example batched_serving 4          # batch of 4
//! ```
//!
//! Runs one synthetic 8-stream fleet through the serving runtime twice
//! on the same 2+2 worker pool — once with every frame a batch of one
//! (`max_batch = 1`), once coalescing queued frames — verifies the
//! per-frame modeled results are bit-identical, and prints the
//! host-throughput speedup batching delivered.

use hgpcn::prelude::*;

const TARGET: usize = 512;
const STREAMS: usize = 8;
const FRAMES: usize = 4;

fn fleet() -> Vec<StreamSpec> {
    (0..STREAMS)
        .map(|i| {
            StreamSpec::new(
                format!("lidar-{i}"),
                SyntheticSource::new(1400 + 120 * i, 10.0, FRAMES, i as u64),
            )
        })
        .collect()
}

fn config() -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(2)
        .inference_workers(2)
        .queue_capacity(64)
        .arrival(ArrivalModel::Backlogged)
        .target_points(TARGET)
}

fn main() {
    let batch: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let net = PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1);

    println!("serving {STREAMS} streams x {FRAMES} frames, 2+2 workers");
    let serial = Runtime::new(config())
        .expect("valid config")
        .run(fleet(), &net)
        .expect("serial run");
    println!(
        "  serial : {:6.2} frames/s host ({} frames in {:.3?})",
        serial.wall_fps(),
        serial.total_frames,
        serial.wall_elapsed
    );

    let batched = Runtime::new(config().max_batch(batch))
        .expect("valid config")
        .run(fleet(), &net)
        .expect("batched run");
    println!(
        "  batched: {:6.2} frames/s host (max_batch {batch}, {} micro-batches, mean size {:.2})",
        batched.wall_fps(),
        batched.batching.batches,
        batched.batching.mean_batch_size
    );

    // Batching must not perturb results: every frame's modeled outcome
    // is bit-identical to the serial run's.
    assert_eq!(serial.total_frames, batched.total_frames);
    for (a, b) in serial.records.iter().zip(&batched.records) {
        assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
        assert_eq!(a.modeled.inference.latency, b.modeled.inference.latency);
        assert_eq!(a.modeled.inference.counts, b.modeled.inference.counts);
    }
    println!("  per-frame modeled results: bit-identical across both runs");
    println!(
        "  speedup: {:.2}x at batch size {batch}",
        batched.wall_speedup_over(&serial)
    );
}

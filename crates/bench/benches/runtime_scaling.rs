//! Scaling of the concurrent serving runtime: wall-clock cost of one
//! `Runtime::run` as the worker pools widen and the fleet grows.
//!
//! Three sweeps:
//! * `runtime_workers`: a fixed 4-stream fleet over 1/2/4 workers per
//!   stage — measures how much host-side overlap the stage-pipelined
//!   executor extracts;
//! * `runtime_streams`: a fixed 2+2 worker pool over 1/2/4/8 streams —
//!   measures multi-tenant admission and queue overhead as load grows;
//! * `runtime_batching`: a fixed 8-stream fleet and 2+2 workers over
//!   `max_batch` 1/2/4/8 — measures the micro-batching speedup at
//!   constant worker count (each batch spreads over `cores / 2` threads,
//!   at least one, so on two cores it runs as one SoA pass; per-frame results are
//!   bit-identical across the sweep; only host throughput moves). The
//!   in-situ B=8 ratio of record is `pcn.batch8_speedup` in
//!   `benchmark/run.sh`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource};

const TARGET: usize = 512;
const FRAMES_PER_STREAM: usize = 2;

fn net() -> PointNet {
    PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1)
}

fn fleet(streams: usize) -> Vec<StreamSpec> {
    (0..streams)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1500 + 100 * i, 10.0, FRAMES_PER_STREAM, i as u64),
            )
        })
        .collect()
}

fn config(workers: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(workers)
        .inference_workers(workers)
        .arrival(ArrivalModel::Backlogged)
        .target_points(TARGET)
}

fn bench_worker_scaling(c: &mut Criterion) {
    let net = net();
    let mut group = c.benchmark_group("runtime_workers");
    group.sample_size(3);
    const STREAMS: usize = 4;
    group.throughput(Throughput::Elements((STREAMS * FRAMES_PER_STREAM) as u64));
    for &workers in &[1usize, 2, 4] {
        let runtime = Runtime::new(config(workers)).expect("valid config");
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| runtime.run(fleet(STREAMS), &net).expect("run succeeds"))
        });
    }
    group.finish();
}

fn bench_stream_scaling(c: &mut Criterion) {
    let net = net();
    let mut group = c.benchmark_group("runtime_streams");
    group.sample_size(3);
    for &streams in &[1usize, 2, 4, 8] {
        let runtime = Runtime::new(config(2)).expect("valid config");
        group.bench_with_input(BenchmarkId::new("streams", streams), &streams, |b, _| {
            b.iter(|| runtime.run(fleet(streams), &net).expect("run succeeds"))
        });
    }
    group.finish();
}

fn bench_batching(c: &mut Criterion) {
    let net = net();
    let mut group = c.benchmark_group("runtime_batching");
    group.sample_size(3);
    const STREAMS: usize = 8;
    const FRAMES: usize = 4;
    group.throughput(Throughput::Elements((STREAMS * FRAMES) as u64));
    for &batch in &[1usize, 2, 4, 8] {
        let runtime = Runtime::new(config(2).max_batch(batch)).expect("valid config");
        group.bench_with_input(BenchmarkId::new("max_batch", batch), &batch, |b, _| {
            b.iter(|| {
                let fleet: Vec<StreamSpec> = (0..STREAMS)
                    .map(|i| {
                        StreamSpec::new(
                            format!("s{i}"),
                            SyntheticSource::new(1400 + 120 * i, 10.0, FRAMES, i as u64),
                        )
                    })
                    .collect();
                runtime.run(fleet, &net).expect("run succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_worker_scaling,
    bench_stream_scaling,
    bench_batching
);
criterion_main!(benches);

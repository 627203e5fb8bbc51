//! Wall-clock comparison of the executed samplers (the algorithmic side of
//! Figs. 9/10): common FPS vs OIS (octree build + table + sampling), and
//! of the sampling stage seam's backends (scalar anchor vs default) on a
//! serving-sized frame.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hgpcn_bench::figures::golden_cloud;
use hgpcn_memsim::HostMemory;
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::{fps, ois, random, SamplingKernel};

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.sample_size(10);
    for &n in &[10_000usize, 40_000] {
        let cloud = golden_cloud(n, 7);
        let k = 512;

        group.bench_with_input(BenchmarkId::new("fps", n), &n, |b, _| {
            b.iter(|| {
                let mut mem = HostMemory::from_cloud(&cloud);
                fps::sample(&mut mem, k, 1).unwrap()
            })
        });

        group.bench_with_input(BenchmarkId::new("random", n), &n, |b, _| {
            b.iter(|| {
                let mut mem = HostMemory::from_cloud(&cloud);
                random::sample(&mut mem, k, 1).unwrap()
            })
        });

        // OIS end-to-end: build + table + sample (what Fig. 10 compares).
        group.bench_with_input(BenchmarkId::new("ois_with_build", n), &n, |b, _| {
            b.iter(|| {
                let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
                let table = OctreeTable::from_octree(&tree);
                let mut mem = HostMemory::from_cloud(tree.points());
                ois::sample(&tree, &table, &mut mem, k, 1).unwrap()
            })
        });

        // OIS sampling step alone (the Down-sampling Unit's share).
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let table = OctreeTable::from_octree(&tree);
        group.bench_with_input(BenchmarkId::new("ois_sample_only", n), &n, |b, _| {
            b.iter(|| {
                let mut mem = HostMemory::from_cloud(tree.points());
                ois::sample(&tree, &table, &mut mem, k, 1).unwrap()
            })
        });
    }
    group.finish();
}

/// OIS at the serving target over a fleet-sized frame, one benchmark per
/// [`SamplingKernel`]: every backend picks bit-identical samples, so wall
/// time is all that separates them.
fn bench_stage_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_backends");
    group.sample_size(10);
    let n = 1400;
    let tree = Octree::build(&golden_cloud(n, 7), OctreeConfig::default()).unwrap();
    let table = OctreeTable::from_octree(&tree);
    for &kernel in SamplingKernel::all() {
        group.bench_with_input(BenchmarkId::new(kernel.name(), n), &n, |b, _| {
            b.iter(|| {
                let mut mem = HostMemory::from_cloud(tree.points());
                ois::sample_with(&tree, &table, &mut mem, 512, 7, kernel).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_stage_backends);
criterion_main!(benches);

//! Wall-clock comparison of the data-structuring methods (the algorithmic
//! side of Figs. 14/15): brute-force KNN vs the three VEG modes, and of
//! the gather stage seam's top-K backends (scalar anchor vs default) on
//! the first set-abstraction layer's shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hgpcn_bench::figures::golden_cloud;
use hgpcn_gather::veg::{self, VegConfig, VegMode};
use hgpcn_gather::{ball, knn, GatherKernel};
use hgpcn_octree::{Octree, OctreeConfig};

fn bench_gatherers(c: &mut Criterion) {
    let mut group = c.benchmark_group("gathering");
    group.sample_size(10);
    for &n in &[2_048usize, 8_192] {
        let cloud = golden_cloud(n, 3);
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let centers: Vec<usize> = (0..64).map(|i| i * (n / 64)).collect();
        let k = 32;

        group.bench_with_input(BenchmarkId::new("brute_knn", n), &n, |b, _| {
            b.iter(|| knn::gather_all(tree.points(), &centers, k).unwrap())
        });

        group.bench_with_input(BenchmarkId::new("ball_query", n), &n, |b, _| {
            b.iter(|| {
                centers
                    .iter()
                    .map(|&c| ball::gather(tree.points(), c, 0.5, k).unwrap())
                    .collect::<Vec<_>>()
            })
        });

        for (label, mode) in [
            ("veg_paper", VegMode::Paper),
            ("veg_exact", VegMode::Exact),
            ("veg_semi_approx", VegMode::SemiApprox),
        ] {
            let cfg = VegConfig {
                gather_level: None,
                mode,
            };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| veg::gather_all(&tree, &centers, k, &cfg).unwrap())
            });
        }
    }
    group.finish();
}

/// Score-all + top-K for 128 query centers × K = 32 over a fleet-sized
/// frame, one benchmark per [`GatherKernel`]: the selection is the seam
/// (the scoring sweep is the same code on every backend) and every
/// backend keeps bit-identical neighbors.
fn bench_stage_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_backends");
    group.sample_size(10);
    let n = 1400;
    let cloud = golden_cloud(n, 3);
    for &kernel in GatherKernel::all() {
        group.bench_with_input(BenchmarkId::new(kernel.name(), n), &n, |b, _| {
            let mut scored: Vec<(f32, usize)> = Vec::with_capacity(n);
            b.iter(|| {
                for c in (0..128).map(|i| cloud.point(i * n / 128)) {
                    scored.clear();
                    scored.extend((0..n).map(|i| (c.distance_sq(cloud.point(i)), i)));
                    kernel.top_k(&mut scored, 32);
                    criterion::black_box(scored.len());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gatherers, bench_stage_backends);
criterion_main!(benches);

//! Wall-clock cost of the Octree-build Unit's work: single-pass build,
//! SFC reorganization and table flattening (the Fig. 11 overhead).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hgpcn_bench::figures::{golden_cloud, surface_cloud};
use hgpcn_datasets::s3dis::{self, RoomConfig};
use hgpcn_geometry::morton::FrameEncoder;
use hgpcn_geometry::MortonCode;
use hgpcn_octree::{Octree, OctreeConfig, OctreeScratch, OctreeTable};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree_build");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000, 150_000] {
        let cloud = surface_cloud(n, 5);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| Octree::build(&cloud, OctreeConfig::default()).unwrap())
        });
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("flatten_table", n), &n, |b, _| {
            b.iter(|| OctreeTable::from_octree(&tree))
        });
    }
    // A `raw_cold` frame as the runtime builds it: the 150 000-point room
    // at the default depth through a recycled scratch. This minus
    // `encode/frame_encoder` is the sort, the gather and node construction.
    let room = s3dis::generate_room(RoomConfig::default(), 150_000, 11);
    let mut scratch = OctreeScratch::new();
    group.throughput(Throughput::Elements(room.len() as u64));
    group.bench_function("room_150k", |b| {
        b.iter(|| {
            let tree =
                Octree::build_with_scratch(&room, OctreeConfig::default(), &mut scratch).unwrap();
            let nodes = tree.node_count();
            scratch.recycle(tree);
            nodes
        })
    });
    group.finish();
}

fn bench_depth_sensitivity(c: &mut Criterion) {
    // Depth cap vs build cost (the non-uniformity effect of Fig. 11).
    let mut group = c.benchmark_group("octree_depth");
    group.sample_size(10);
    let cloud = golden_cloud(50_000, 9);
    for &depth in &[6u8, 8, 10, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter(|| Octree::build(&cloud, OctreeConfig::new().max_depth(d)).unwrap())
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    // The build's single pass on its own — one m-code per point of a
    // `raw_cold`-sized room at the default depth — walked point by point
    // and looked up in the per-frame boundary table (which emits the bare
    // bits). `octree_build/room_150k` minus `frame_encoder` is what the
    // sort, the gather and node construction cost.
    let mut group = c.benchmark_group("encode");
    group.sample_size(10);
    let cloud = s3dis::generate_room(RoomConfig::default(), 150_000, 11);
    let config = OctreeConfig::default();
    let root = Octree::build(&cloud, config).unwrap().root_bounds();
    let level = config.max_depth_value();
    let mut codes = Vec::with_capacity(cloud.len());
    group.throughput(Throughput::Elements(cloud.len() as u64));
    group.bench_function("per_point", |b| {
        b.iter(|| {
            codes.clear();
            codes.extend(cloud.iter().map(|p| MortonCode::encode(p, &root, level)));
            black_box(codes.last().copied())
        })
    });
    let mut encoder = FrameEncoder::new();
    let mut bits = Vec::with_capacity(cloud.len());
    group.bench_function("frame_encoder", |b| {
        b.iter(|| {
            encoder.encode_frame(cloud.iter(), &root, level, &mut bits);
            black_box(bits.last().copied())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_depth_sensitivity, bench_encode);
criterion_main!(benches);

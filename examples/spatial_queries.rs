//! Non-AI uses of the octree substrate — the paper's §VIII generality
//! claim ("OIS is applicable to other non-AI point cloud applications
//! (e.g. AR/VR)... VEG can be used for other point cloud applications
//! which require neighbor gathering").
//!
//! Demonstrates, on a KITTI-like LiDAR frame:
//! * spatial-database range queries over the SFC-organized frame;
//! * voxel-grid decimation for rendering level-of-detail;
//! * approximate OIS for latency-critical AR down-sampling;
//! * brute-force KNN (the paper's traditional baseline) vs VEG through a
//!   per-cloud `VegIndex`.
//!
//! ```text
//! cargo run --release --example spatial_queries
//! ```

use hgpcn::datasets::kitti::{generate_frame, KittiConfig};
use hgpcn::gather::veg::VegConfig;
use hgpcn::gather::{knn, VegIndex};
use hgpcn::memsim::HostMemory;
use hgpcn::prelude::*;
use hgpcn::sampling::{ois, voxelgrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 13;
    let frame = generate_frame(KittiConfig::standard(), seed);
    println!("LiDAR frame: {} returns", frame.len());

    let tree = Octree::build(&frame, OctreeConfig::new().max_depth(10).leaf_capacity(24))?;
    println!(
        "octree: depth {}, {} nodes, table {} KiB",
        tree.depth(),
        tree.node_count(),
        OctreeTable::from_octree(&tree).size_bits() / 8192
    );

    // --- Range query: "what is within 15 m ahead of the vehicle?" ------
    let ahead = Aabb::new(Point3::new(0.0, -5.0, -1.0), Point3::new(15.0, 5.0, 3.0));
    let hits = tree.points_in_aabb(&ahead);
    println!("\nrange query (15m corridor ahead): {} returns", hits.len());

    // --- Level-of-detail decimation for rendering ----------------------
    println!("\nvoxel-grid level of detail:");
    for level in [4u8, 6, 8] {
        let mut mem = HostMemory::from_cloud(tree.points());
        let lod = voxelgrid::sample(&tree, &mut mem, level)?;
        println!("  level {level}: {} representative points", lod.len());
    }

    // --- AR-style down-sampling: exact vs approximate OIS ---------------
    let table = OctreeTable::from_octree(&tree);
    let mut mem = HostMemory::from_cloud(tree.points());
    let exact = ois::sample(&tree, &table, &mut mem, 2048, seed)?;
    let mut mem2 = HostMemory::from_cloud(tree.points());
    let approx = ois::approx_sample(&tree, &table, &mut mem2, 2048, seed, 4)?;
    println!(
        "\nOIS to 2048 points: exact {} table ops, approx {} table ops",
        exact.counts.table_lookups + exact.counts.hamming_ops,
        approx.counts.table_lookups + approx.counts.hamming_ops
    );

    // --- Neighbor gathering: brute-force KNN vs VEG ---------------------
    let sampled = tree.points().gather(&exact.indices);
    let center = sampled.len() / 2;
    let brute_r = knn::gather(&sampled, center, 16)?;
    let veg_r = VegIndex::build(&sampled, VegConfig::default(), OctreeConfig::default())?
        .query(center, 16)?;
    println!(
        "\n16-NN of a central return: brute force computed {} distances, VEG sorted {}",
        brute_r.counts.distance_computations, veg_r.stats.candidates_sorted
    );
    println!("done.");
    Ok(())
}

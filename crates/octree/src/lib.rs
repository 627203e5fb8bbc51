//! Octree spatial index — the substrate both HgPCN methods are built on.
//!
//! The paper's Octree-build Unit (§V-A, running on the CPU) makes a single
//! pass over the raw frame to
//!
//! 1. assign every point an **m-code** (Morton code) by recursive octant
//!    subdivision,
//! 2. **reorganize** the frame in host memory into space-filling-curve (SFC)
//!    order, so every voxel's points occupy consecutive addresses, and
//! 3. emit a compact **Octree-Table** that maps voxels to those address
//!    ranges, transferred to the FPGA over MMIO.
//!
//! This crate reproduces all three:
//!
//! * [`Octree`] — the pointer-style tree with per-node point ranges;
//! * [`OctreeTable`] — the flattened table with an explicit bit-size model
//!   (used for the Fig. 13 on-chip memory comparison);
//! * [`neighbor`] — voxel-shell enumeration for VEG's voxel expansion (§VI);
//! * [`BuildStats`] — operation counts charged by the memory simulator.
//!
//! # Examples
//!
//! ```
//! use hgpcn_geometry::{Point3, PointCloud};
//! use hgpcn_octree::{Octree, OctreeConfig};
//!
//! let cloud: PointCloud = (0..100)
//!     .map(|i| Point3::new((i % 10) as f32, (i / 10) as f32, 0.0))
//!     .collect();
//! let octree = Octree::build(&cloud, OctreeConfig::default())?;
//! assert_eq!(octree.points().len(), 100);
//! # Ok::<(), hgpcn_octree::OctreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod error;
pub mod neighbor;
mod node;
mod stats;
mod table;
mod tree;

pub use build::OctreeConfig;
pub use error::OctreeError;
pub use node::{Node, NodeId};
pub use stats::BuildStats;
pub use table::{OctreeTable, TableEntry};
pub use tree::{Octree, OctreeScratch, PreviousFrame};

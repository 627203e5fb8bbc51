//! Synthetic point-cloud datasets standing in for the paper's benchmarks.
//!
//! The paper evaluates on ModelNet40, ShapeNet, S3DIS and KITTI (Table I).
//! Those datasets are not redistributable here, and nothing in the
//! evaluation depends on their *semantic* content — what matters is each
//! frame's **size**, **spatial non-uniformity** (which sets octree depth,
//! Fig. 11) and **density distribution** (which sets VEG shell statistics).
//! This crate generates seeded synthetic frames that match those
//! characteristics:
//!
//! * [`modelnet`] — CAD-like single objects assembled from parametric
//!   primitives, including the `MN.piano` / `MN.plant` pair whose differing
//!   uniformity the paper calls out;
//! * [`shapenet`] — smaller part-segmentation-scale objects (raw < 4096);
//! * [`s3dis`] — indoor rooms: walls, floor, ceiling and furniture;
//! * [`kitti`] — a rotating 64-beam LiDAR ray-cast into a street scene,
//!   producing variable-size frames with per-frame timestamps for the
//!   §VII-E real-time experiment;
//! * [`DriftingScene`] — rigid objects translating through a fixed world
//!   box: AABB-stable, temporally coherent frame streams for exercising
//!   the stream-scoped preprocessing warm pricing (and the seed of the
//!   scenario engine parked in ROADMAP);
//! * [`BenchmarkSpec`]/[`TABLE_I`] — the paper's benchmark table;
//! * [`EvalFrame`] — the named frames appearing on figure x-axes.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drifting;
mod frames;
pub mod kitti;
pub mod modelnet;
pub mod s3dis;
pub mod shapenet;
mod shapes;
mod spec;

pub use drifting::{DriftingScene, DriftingSceneConfig};
pub use frames::EvalFrame;
pub use shapes::{jitter, sample_box, sample_cylinder, sample_disk, sample_plane, sample_sphere};
pub use spec::{BenchmarkSpec, DatasetKind, PcnTask, TABLE_I};

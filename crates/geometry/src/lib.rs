//! Geometric primitives shared by every crate in the HgPCN reproduction.
//!
//! A *point cloud* is a set `{(p_k, f_k)}` where `p_k = (x_k, y_k, z_k)` is a
//! 3-D coordinate and `f_k` an optional per-point feature vector (§II-A of
//! the paper). This crate provides:
//!
//! * [`Point3`] — a 3-D point with the vector operations the samplers need;
//! * [`Aabb`] — axis-aligned bounding boxes with octant subdivision, the
//!   voxel primitive behind the octree;
//! * [`PointCloud`] — an owned cloud with optional flat feature storage;
//! * [`morton`] — Morton ("m-code") encoding used by the Octree-Table, the
//!   space-filling-curve (SFC) linear order, and the Hamming-distance voxel
//!   metric used by the Down-sampling Unit (§V-B).
//!
//! # Examples
//!
//! ```
//! use hgpcn_geometry::{Point3, PointCloud};
//!
//! let cloud = PointCloud::from_points(vec![
//!     Point3::new(0.0, 0.0, 0.0),
//!     Point3::new(1.0, 1.0, 1.0),
//! ]);
//! assert_eq!(cloud.len(), 2);
//! let bounds = cloud.bounds().expect("non-empty cloud");
//! assert_eq!(bounds.diagonal(), 3f32.sqrt());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod cloud;
mod error;
pub mod morton;
mod point;

pub use aabb::{Aabb, Octant};
pub use cloud::PointCloud;
pub use error::GeometryError;
pub use morton::MortonCode;
pub use point::Point3;

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
//! # Unsafe code
//!
//! The crate denies `unsafe` with one exception: the AVX-512 body of
//! [`morton::FrameEncoder`] (module `morton::avx512`, `x86_64` only) uses
//! `std::arch` intrinsics behind a CPUID check, with a `SAFETY:` note on
//! every load, gather and store. It returns the scalar body's bits
//! ([`morton::EncodeBody`]).
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

// `deny` rather than `forbid`: the AVX-512 body of the Morton frame
// encoder (`morton::avx512`, compiled into every `x86_64` build) carries a
// safety-commented `#![allow(unsafe_code)]`; everything else still refuses
// unsafe code outright.
#![deny(unsafe_code)]
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

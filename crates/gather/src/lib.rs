//! Data structuring: forming the "input feature map" for PCN inference
//! (§VI of the paper) and the baselines it is compared against.
//!
//! Before feature computation, a PCN gathers each central point's K nearest
//! neighbors into a point-subset. Traditional methods compute the distance
//! from the central point to *every* other input point and rank them; the
//! paper's **Voxel-Expanded Gathering (VEG)** uses the octree built during
//! pre-processing to expand voxel shells around the central voxel until
//! ≥ K points are covered — only the final shell needs distance sorting.
//!
//! * [`knn`] — brute-force K-nearest-neighbors (the traditional method and
//!   the basis of the PointACC/GPU baselines);
//! * [`ball`] — brute-force ball query (the other common DS method);
//! * [`veg`] — Voxel-Expanded Gathering with three modes: the paper's
//!   shell rule, a guaranteed-exact variant, and the semi-approximate
//!   future-work variant (§VIII);
//! * [`dsu`] — the six-stage Data Structuring Unit pipeline model
//!   (FP/LV/VE/GP/ST/BF, Fig. 8) with per-stage cycle accounting for
//!   Fig. 16;
//! * [`sorter`] — bitonic-sorter cost helpers shared with the PointACC
//!   mapping-unit model;
//! * [`index`] — the per-cloud [`VegIndex`] (octree + SFC order) built
//!   **once** per cloud and shared by every center query, amortizing the
//!   build the way §VII-B amortizes the octree;
//! * [`stage`] — the [`GatherKernel`] dispatch seam: interchangeable,
//!   bit-identical top-K selection backends.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ball;
pub mod dsu;
mod error;
pub mod index;
pub mod knn;
mod result;
pub mod sorter;
pub mod stage;
pub mod veg;

pub use error::GatherError;
pub use index::VegIndex;
pub use result::{GatherResult, VegStats};
pub use stage::GatherKernel;

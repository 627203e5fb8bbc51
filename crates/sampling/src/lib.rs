//! Down-sampling: the Pre-processing Engine of HgPCN (§V) and its baselines.
//!
//! An edge point-cloud service must decimate each raw frame (10^5–10^6
//! points) to a fixed PCN input size (e.g. 4096) before inference. The
//! paper identifies this step as the dominant "AI tax" and replaces the
//! memory-intensive farthest-point sampling (FPS) with **Octree-Indexed
//! Sampling (OIS)**. This crate implements, over the instrumented
//! [`hgpcn_memsim::HostMemory`]:
//!
//! * [`fps`] — the common FPS method (Algorithm 1 of Fig. 6), faithfully
//!   spilling and re-reading its intermediate distance array;
//! * [`random`] — random sampling (fast, lossy);
//! * [`reinforce`] — the RS+reinforce baseline of Fig. 12 (RandLA-style
//!   encoder repair after random sampling), as a cost model;
//! * [`ois`] — Octree-Indexed Sampling (Algorithm 2 of Fig. 6): FPS-style
//!   farthest-first traversal executed as Octree-Table lookups and
//!   m-code Hamming comparisons, touching host memory only to read the
//!   points actually sampled;
//! * [`ois::approx_sample`] — the approximate-OIS future-work variant
//!   (§VIII): stop the descent near the leaves and pick a spatially
//!   adjacent substitute;
//! * [`hw`] — the Down-sampling Unit hardware model (Fig. 7): eight
//!   parallel Sampling Modules, bitonic selection, on-chip Octree-Table;
//! * [`quality`] — sampling-quality metrics (coverage radius) used to show
//!   OIS ≈ FPS ≫ RS on information retention;
//! * [`voxelgrid`] — the one-point-per-voxel baseline common in practice
//!   (cannot hit an exact output size, which is why PCNs use FPS).
//!
//! Every sampler returns a [`SampleResult`] carrying the chosen indices
//! (the Sampled-Point-Table) and the [`hgpcn_memsim::OpCounts`] it cost.
//!
//! [`stage`] holds the [`SamplingKernel`] dispatch seam: interchangeable,
//! bit-identical scoreboard scan backends.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
pub mod fps;
pub mod hw;
pub mod ois;
pub mod quality;
pub mod random;
pub mod reinforce;
mod result;
pub mod stage;
pub mod voxelgrid;

pub use error::SamplingError;
pub use result::SampleResult;
pub use stage::SamplingKernel;

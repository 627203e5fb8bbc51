//! The preprocessing-reuse dispatch seam and the stream-scoped context it
//! selects.
//!
//! PR 8 made the preprocessing *stages* swappable kernels; this seam makes
//! the preprocessing *state policy* swappable the same way. With reuse
//! [`PreprocReuse::On`], the runtime gives every open stream a
//! [`StreamPreprocContext`] and runs frames through
//! [`PreprocessingEngine::run_with_context`]: scratch buffers (octree
//! arena, Morton/sort workspace, sampling scoreboard, host-memory image)
//! persist across the stream's frames, and a frame sharing the previous
//! frame's root AABB is *priced* as the §V-A delta pass over the points
//! and table rows that changed. With [`PreprocReuse::Off`] (the anchor),
//! preprocessing is stateless per frame and every build is priced in
//! full.
//!
//! There is one host build path: reuse is recycled buffers plus modeled
//! delta pricing, never a second sort. Seeding the sort from the cached
//! order was measured on the benchmark of record and lost: on
//! `stream_warm` (60 k-point frames, 0.92 hit share, 0.80 of points
//! dirty, 2 vCPU) a seeded adaptive merge ran 538–554 ns/point against
//! 491–502 for the full sort through the same buffers (≈0.91×); only a
//! bit-identical repeated frame reached 1.3×, because the sort is ≈25 %
//! of a build.
//!
//! Either way the outputs are **bit-identical** — by construction, and
//! proptested against [`Octree::build`](hgpcn_octree::Octree::build) — so,
//! like the stage kernels, this knob trades allocation and modeled cost,
//! never results.
//!
//! The default policy is a constant ([`PreprocReuse::default`] is `on`);
//! a `RuntimeConfig::preproc_reuse` pin selects the stateless anchor for
//! tests and yardsticks. The session's policy is surfaced in
//! `RuntimeReport`/`StreamReport` and the `hgpcn_preproc_reuse_info`
//! metric.
//!
//! [`PreprocessingEngine::run_with_context`]: crate::PreprocessingEngine::run_with_context

use hgpcn_memsim::HostMemory;
use hgpcn_octree::OctreeScratch;
use hgpcn_sampling::ois::OisScratch;

/// The preprocessing state policy: stateless per frame, or stream-scoped
/// with temporal-coherence pricing. Both produce bit-identical outputs; see
/// the [module docs](self).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PreprocReuse {
    /// The anchor: stateless preprocessing, fresh working memory and a
    /// fully priced octree build for every frame.
    Off,
    /// Stream-scoped contexts: per-stream recycled buffers plus §V-A
    /// delta pricing when consecutive frames share a root grid.
    #[default]
    On,
}

impl PreprocReuse {
    /// Stable lower-case name, as reported in `RuntimeReport`.
    pub fn name(&self) -> &'static str {
        match self {
            PreprocReuse::Off => "off",
            PreprocReuse::On => "on",
        }
    }
}

/// Stream-scoped preprocessing state: everything one stream's frames share
/// across the preprocessing phase.
///
/// Owned by the runtime, one per open stream (there is no `close_stream`
/// yet, so contexts are freed when the runtime shuts down). Carries the
/// octree build scratch with its previous-frame cache, the OIS sampling
/// scratch, a reusable host-memory image, and the stream's warm-hit/miss
/// tally. The context
/// never changes results: they are bit-identical whether frames run
/// through a fresh context or a primed one.
#[derive(Clone, Debug)]
pub struct StreamPreprocContext {
    pub(crate) octree: OctreeScratch,
    pub(crate) ois: OisScratch,
    pub(crate) mem: HostMemory,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl StreamPreprocContext {
    /// Creates an empty context (no cached frame, no capacity yet).
    pub fn new() -> StreamPreprocContext {
        StreamPreprocContext {
            octree: OctreeScratch::new(),
            ois: OisScratch::new(),
            mem: HostMemory::from_points(Vec::new()),
            hits: 0,
            misses: 0,
        }
    }

    /// Frames of this stream that landed on the cached grid and were
    /// priced as the delta pass.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Frames priced as a full build (first frame, AABB drift, or config
    /// change). A stream whose hit count stays at zero while frames flow
    /// is the ≈1.0-warm-ratio diagnostic: reuse is on but never engaging.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reclaims the heap buffers of a [`crate::PreprocessOutput`] this
    /// context produced, once the caller has extracted what it needs.
    /// Purely a capacity optimization; skipping it never affects results.
    pub fn recycle(&mut self, output: crate::PreprocessOutput) {
        self.octree.recycle(output.octree);
    }
}

impl Default for StreamPreprocContext {
    fn default() -> StreamPreprocContext {
        StreamPreprocContext::new()
    }
}

//! The preprocessing-reuse dispatch seam and the stream-scoped context it
//! selects.
//!
//! PR 8 made the preprocessing *stages* swappable kernels; this seam makes
//! the preprocessing *state policy* swappable the same way. With reuse
//! [`PreprocReuse::On`], the runtime gives every open stream a
//! [`StreamPreprocContext`] and runs frames through
//! [`PreprocessingEngine::run_with_context`]: scratch buffers (octree
//! arena, Morton/sort workspace, sampling scoreboard, host-memory image)
//! persist across the stream's frames, and consecutive frames sharing a
//! root AABB take the temporal-coherence warm path — an adaptive merge of
//! the previous frame's near-sorted order instead of a full SFC sort,
//! priced as a §V-A delta pass. With [`PreprocReuse::Off`] (the anchor),
//! preprocessing stays stateless-per-frame, exactly as before this seam
//! existed.
//!
//! Either way the outputs are **bit-identical** — the warm path is proven
//! equal to a cold rebuild by construction and by proptest — so, like the
//! stage kernels, this knob trades speed and modeled cost, never results.
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
/// with temporal-coherence reuse. Both produce bit-identical outputs; see
/// the [module docs](self).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PreprocReuse {
    /// The anchor: stateless preprocessing, a cold octree build and fresh
    /// working memory for every frame.
    Off,
    /// Stream-scoped contexts: per-stream scratch reuse plus the warm
    /// adaptive-merge path when consecutive frames share a root grid.
    #[default]
    On,
}

impl PreprocReuse {
    /// Stable lower-case name, as reported in `RuntimeReport` and
    /// `BENCH_runtime.json`.
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
/// Owned by the runtime, one per open stream (following the stream's shard
/// pinning; there is no `close_stream` yet, so contexts are freed when the
/// runtime shuts down). Carries the octree build scratch with its
/// temporal-coherence cache, the OIS sampling scratch, a reusable
/// host-memory image, and the stream's warm-hit/miss tally. The context is
/// a pure accelerator: results are bit-identical whether frames run
/// through a fresh context or a warm one.
#[derive(Clone, Debug)]
pub struct StreamPreprocContext {
    pub(crate) octree: OctreeScratch,
    pub(crate) ois: OisScratch,
    pub(crate) mem: HostMemory,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl StreamPreprocContext {
    /// Creates an empty context (cold cache, no capacity yet).
    pub fn new() -> StreamPreprocContext {
        StreamPreprocContext {
            octree: OctreeScratch::new(),
            ois: OisScratch::new(),
            mem: HostMemory::from_points(Vec::new()),
            hits: 0,
            misses: 0,
        }
    }

    /// Frames of this stream that took the temporal-coherence warm path.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Frames that rebuilt cold (first frame, AABB drift, or config
    /// change). A stream whose hit count stays at zero while frames flow
    /// is the ≈1.0-warm-ratio diagnostic: reuse is on but never engaging.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops the warm cache (e.g. on a stream discontinuity) while
    /// keeping buffer capacity; the next frame rebuilds cold.
    pub fn invalidate(&mut self) {
        self.octree.invalidate();
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

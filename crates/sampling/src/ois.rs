//! Octree-Indexed Sampling (OIS) — Algorithm 2 of Fig. 6, the paper's
//! replacement for FPS in the pre-processing phase (§V).
//!
//! OIS performs farthest-first sampling at **voxel granularity**: the
//! Sampling Modules hold a scoreboard of coarse voxels (one per module
//! batch, Fig. 7), score each candidate voxel by the **minimum Hamming
//! distance of its m-code to the picked set's voxels** (one XOR + popcount
//! per module), and a bitonic stage selects the maximum — the farthest
//! not-yet-covered region. The descent below the chosen voxel follows the
//! remaining-count hierarchy (each level keeps the least-sampled child),
//! and the leaf yields its SFC-extreme remaining point.
//!
//! Host memory is touched exactly once per pick, to read the chosen point
//! — the entire search runs on the on-chip Octree-Table, which is where
//! the Fig. 9 memory-access saving comes from.
//!
//! The max-min scoreboard is what makes OIS *FPS-equivalent in coverage*
//! (§VII-C): like FPS, a region stops being "far" the moment a sample
//! lands in it. A plain greedy farthest-from-`||S||2` descent (the
//! simplest reading of Algorithm 2) degenerates — it keeps drawing from
//! the single region opposite the centroid. `tests/equivalence.rs`
//! (`ois_quality_matches_fps_class_and_beats_random`) holds the max-min
//! scoreboard's coverage to FPS class.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgpcn_geometry::MortonCode;
use hgpcn_memsim::{HostMemory, OpCounts};
use hgpcn_octree::{Octree, OctreeTable};

use crate::{SampleResult, SamplingError, SamplingKernel};

/// Upper bound on the voxel scoreboard. The scoreboard starts as a coarse
/// octree cut and *refines* — when a pick lands in a voxel, that voxel is
/// replaced by its children — so resolution concentrates where samples
/// accumulate, up to this many entries (hardware: a scoreboard RAM scored
/// by the Sampling Modules in batches of eight).
pub const SCOREBOARD_LIMIT: usize = 512;

/// Initial (pre-refinement) scoreboard size.
pub const SCOREBOARD_INITIAL: usize = 256;

/// Two-ended cursor over a leaf's SFC range: picks consume either extreme.
#[derive(Clone, Copy, Debug)]
struct LeafCursor {
    lo: u32,
    hi: u32,
}

/// Reusable OIS working memory for a sequence of frames — the sampling half
/// of a preprocessing context. Holds the remaining-count
/// array, the leaf cursors, the descent path, and the scoreboard's column
/// arrays, so repeated [`sample_with_scratch`] calls allocate nothing.
///
/// Purely capacity: results and op counts are bit-identical with or
/// without it (every buffer is cleared before use), so a scratch may be
/// carried across frames, streams, or backends freely.
#[derive(Clone, Debug, Default)]
pub struct OisScratch {
    remaining: Vec<u32>,
    cursors: std::collections::HashMap<u32, LeafCursor>,
    path: Vec<u32>,
    sb_entries: Vec<u32>,
    sb_spare: Vec<u32>,
    sb_codes: Vec<MortonCode>,
    sb_boxes: Vec<(u32, u32, u32, u32)>,
    sb_min: Vec<u32>,
    sb_counts: Vec<u32>,
}

impl OisScratch {
    /// Creates an empty scratch (no capacity yet).
    pub fn new() -> OisScratch {
        OisScratch::default()
    }
}

struct OisState<'a> {
    table: &'a OctreeTable,
    /// Unpicked points remaining under each table entry.
    remaining: Vec<u32>,
    cursors: std::collections::HashMap<u32, LeafCursor>,
    counts: OpCounts,
}

impl<'a> OisState<'a> {
    fn new(table: &'a OctreeTable, scratch: &mut OisScratch) -> OisState<'a> {
        let mut remaining = std::mem::take(&mut scratch.remaining);
        remaining.clear();
        remaining.extend((0..table.len() as u32).map(|i| table.entry(i).point_count));
        let mut cursors = std::mem::take(&mut scratch.cursors);
        cursors.clear();
        OisState {
            table,
            remaining,
            cursors,
            counts: OpCounts::default(),
        }
    }

    fn cursor(&mut self, leaf: u32) -> LeafCursor {
        let entry = self.table.entry(leaf);
        *self.cursors.entry(leaf).or_insert(LeafCursor {
            lo: entry.point_start,
            hi: entry.point_start + entry.point_count,
        })
    }

    /// Takes a point from the leaf at the end of `path`: the high SFC end
    /// if `take_high`, else the low end. Decrements the remaining counts
    /// along the path and returns the SFC address.
    fn take(&mut self, path: &[u32], take_high: bool) -> usize {
        let leaf = *path.last().expect("path includes the leaf");
        let mut cur = self.cursor(leaf);
        debug_assert!(cur.lo < cur.hi, "leaf must have remaining points");
        let addr = if take_high {
            cur.hi -= 1;
            cur.hi
        } else {
            let a = cur.lo;
            cur.lo += 1;
            a
        };
        self.cursors.insert(leaf, cur);
        for &idx in path {
            self.remaining[idx as usize] -= 1;
            self.counts.table_lookups += 1;
        }
        addr as usize
    }

    /// Walks the table from the root along `code`'s octant path, collecting
    /// the entry indices into `path` (counting one lookup per row read).
    fn walk_path_into(&mut self, code: MortonCode, path: &mut Vec<u32>) {
        path.clear();
        path.push(self.table.root());
        self.counts.table_lookups += 1;
        for level in 1..=code.level() {
            let octant = code
                .ancestor_at(level)
                .octant_in_parent()
                .expect("level >= 1");
            let idx = *path.last().expect("non-empty");
            match self.table.entry(idx).child(octant) {
                Some(next) => {
                    path.push(next);
                    self.counts.table_lookups += 1;
                }
                None => break,
            }
        }
    }

    /// Stratified descent: from `path`'s tail, repeatedly enter the child
    /// from which the fewest points have been taken so far, extending
    /// `path` down to a leaf. Visiting children round-robin regardless of
    /// their density is what gives FPS-like *spatial* uniformity — a
    /// max-remaining rule would chase dense regions instead.
    fn descend_stratified(&mut self, path: &mut Vec<u32>) {
        loop {
            let idx = *path.last().expect("non-empty");
            let entry = *self.table.entry(idx);
            if entry.is_leaf() {
                return;
            }
            let mut best: Option<(u32, u32)> = None; // (picked, child)
            for octant in entry.child_octants() {
                let child = entry.child(octant).expect("octant from mask");
                let remaining = self.remaining[child as usize];
                let picked = self.table.entry(child).point_count - remaining;
                self.counts.comparisons += 1;
                if remaining > 0 && best.is_none_or(|(bp, _)| picked < bp) {
                    best = Some((picked, child));
                }
            }
            let (_, child) = best.expect("internal node with remaining > 0 has such a child");
            path.push(child);
            self.counts.table_lookups += 1;
        }
    }

    /// Random descent weighted by remaining counts (seed pick and the
    /// approximate variant's tail).
    fn descend_random(&mut self, rng: &mut StdRng, path: &mut Vec<u32>) {
        loop {
            let idx = *path.last().expect("non-empty");
            let entry = *self.table.entry(idx);
            if entry.is_leaf() {
                return;
            }
            let total = self.remaining[idx as usize];
            debug_assert!(total > 0);
            let mut pick = rng.gen_range(0..total);
            let mut chosen = None;
            for octant in entry.child_octants() {
                let child = entry.child(octant).expect("octant from mask");
                let r = self.remaining[child as usize];
                if pick < r {
                    chosen = Some(child);
                    break;
                }
                pick -= r;
            }
            path.push(chosen.expect("remaining counts are consistent"));
            self.counts.table_lookups += 1;
        }
    }
}

/// The voxel scoreboard the Sampling Modules score each iteration.
///
/// Distances are normalized to leaf-cell units (`chebyshev << (max_depth -
/// level)`) so entries at different refinement levels compare correctly.
struct Scoreboard {
    /// Table entry index of each scoreboard voxel.
    entries: Vec<u32>,
    /// m-code of each scoreboard voxel.
    codes: Vec<MortonCode>,
    /// Leaf-cell-unit box of each voxel, cached at build/refine time:
    /// `(lo_x, lo_y, lo_z, scale)` with `scale = 2^(max_depth - level)`.
    /// Scoring runs once per voxel per pick, so de-interleaving the
    /// m-code there (as the hardware's combinational logic does for
    /// free) was a measurable share of the sampling floor.
    boxes: Vec<(u32, u32, u32, u32)>,
    /// Minimum (normalized) voxel distance to the picked set so far.
    min_hamming: Vec<u32>,
    /// Total point count of each scoreboard voxel, cached at
    /// build/refine time like `boxes` — the batched select backend
    /// reads it instead of chasing the Octree-Table row (the hardware
    /// scoreboard RAM holds this field anyway, so caching it costs no
    /// modeled ops).
    point_counts: Vec<u32>,
    /// Refinement capacity.
    limit: usize,
    /// Depth normalization reference.
    max_depth: u8,
}

/// Cached leaf-cell-unit box of a scoreboard voxel.
fn voxel_box(code: MortonCode, max_depth: u8) -> (u32, u32, u32, u32) {
    let scale = 1u32 << (max_depth - code.level());
    let (vx, vy, vz) = code.grid_coords();
    (vx * scale, vy * scale, vz * scale, scale)
}

impl Scoreboard {
    /// Builds the scoreboard as the shallowest octree cut of at most
    /// [`SCOREBOARD_INITIAL`] voxels, with refinement capacity scaled to
    /// the sampling target (`min(4k, SCOREBOARD_LIMIT)`).
    fn build(
        table: &OctreeTable,
        k: usize,
        counts: &mut OpCounts,
        scratch: &mut OisScratch,
    ) -> Scoreboard {
        let mut cut = std::mem::take(&mut scratch.sb_entries);
        cut.clear();
        cut.push(table.root());
        let mut spare = std::mem::take(&mut scratch.sb_spare);
        counts.table_lookups += 1;
        loop {
            let expandable: usize = cut
                .iter()
                .map(|&i| table.entry(i).child_mask.count_ones() as usize)
                .sum();
            if expandable == 0 {
                break;
            }
            let next_size = cut.iter().filter(|&&i| table.entry(i).is_leaf()).count() + expandable;
            if next_size > SCOREBOARD_INITIAL {
                break;
            }
            let mut next = spare;
            next.clear();
            next.reserve(next_size);
            for &i in &cut {
                let e = table.entry(i);
                if e.is_leaf() {
                    next.push(i);
                } else {
                    for octant in e.child_octants() {
                        next.push(e.child(octant).expect("octant from mask"));
                        counts.table_lookups += 1;
                    }
                }
            }
            spare = cut;
            cut = next;
        }
        scratch.sb_spare = spare;
        let mut codes = std::mem::take(&mut scratch.sb_codes);
        codes.clear();
        codes.extend(cut.iter().map(|&i| table.code(i)));
        let max_depth = table.max_depth();
        let mut boxes = std::mem::take(&mut scratch.sb_boxes);
        boxes.clear();
        boxes.extend(codes.iter().map(|&c| voxel_box(c, max_depth)));
        let mut min_hamming = std::mem::take(&mut scratch.sb_min);
        min_hamming.clear();
        min_hamming.resize(cut.len(), u32::MAX);
        let mut point_counts = std::mem::take(&mut scratch.sb_counts);
        point_counts.clear();
        point_counts.extend(cut.iter().map(|&i| table.entry(i).point_count));
        let limit = (4 * k.max(1)).clamp(SCOREBOARD_INITIAL, SCOREBOARD_LIMIT);
        Scoreboard {
            entries: cut,
            codes,
            boxes,
            min_hamming,
            point_counts,
            limit,
            max_depth,
        }
    }

    /// Refines the slot a pick landed in: replace the voxel by its
    /// children (inheriting the parent's normalized min-distance) while
    /// capacity allows. Concentrates scoreboard resolution where samples
    /// accumulate, the way FPS's min-distance field sharpens near picks.
    fn refine(&mut self, slot: usize, table: &OctreeTable, counts: &mut OpCounts) {
        let entry = self.entries[slot];
        let e = *table.entry(entry);
        let kids = e.child_mask.count_ones() as usize;
        if e.is_leaf() || self.entries.len() + kids - 1 > self.limit {
            return;
        }
        let inherited = self.min_hamming[slot];
        let mut first = true;
        for octant in e.child_octants() {
            let child = e.child(octant).expect("octant from mask");
            counts.table_lookups += 1;
            let code = table.code(child);
            let bx = voxel_box(code, self.max_depth);
            let pc = table.entry(child).point_count;
            if first {
                self.entries[slot] = child;
                self.codes[slot] = code;
                self.boxes[slot] = bx;
                self.min_hamming[slot] = inherited;
                self.point_counts[slot] = pc;
                first = false;
            } else {
                self.entries.push(child);
                self.codes.push(code);
                self.boxes.push(bx);
                self.min_hamming.push(inherited);
                self.point_counts.push(pc);
            }
        }
    }

    /// Scores every voxel against the newly picked point's code: one
    /// voxel-distance evaluation per Sampling Module. The paper describes
    /// the voxel metric as the Hamming distance of the m-codes; plain XOR
    /// popcount is a poor spatial proxy (adjacent voxels can differ in
    /// every bit), so we evaluate the Chebyshev grid distance of the
    /// de-interleaved coordinates — the same single-cycle combinational
    /// evaluation in hardware, and the interpretation that preserves the
    /// paper's FPS-accuracy claim (see the module docs).
    fn update(&mut self, kernel: SamplingKernel, picked: MortonCode, counts: &mut OpCounts) {
        match kernel {
            SamplingKernel::Scalar => self.update_scalar(picked, counts),
            SamplingKernel::Batched => self.update_batched(picked, counts),
        }
    }

    /// The anchor scoring loop, kept byte-for-byte.
    fn update_scalar(&mut self, picked: MortonCode, counts: &mut OpCounts) {
        let (px, py, pz) = picked.grid_coords();
        for (i, &(lx, ly, lz, scale)) in self.boxes.iter().enumerate() {
            // Chebyshev distance, in leaf-cell units, from the picked leaf
            // cell to the scoreboard voxel's cached box: per axis a pair
            // of compare-subtracts — one module-cycle.
            let axis = |lo: u32, p: u32| {
                let hi = lo + scale - 1;
                if p < lo {
                    lo - p
                } else {
                    p.saturating_sub(hi)
                }
            };
            let d = axis(lx, px).max(axis(ly, py)).max(axis(lz, pz));
            counts.hamming_ops += 1;
            if d < self.min_hamming[i] {
                self.min_hamming[i] = d;
            }
        }
    }

    /// Branchless scoring: per axis `max(lo ∸ p, p ∸ hi)` (saturating
    /// subtractions), then an unconditional `min` into the slot. For
    /// every case (`p < lo`, inside, `p > hi`) the expression reduces to
    /// the anchor's branch arms, and `u32` arithmetic is exact — so the
    /// resulting `min_hamming` values are identical, while the loop body
    /// autovectorizes over the SoA box cache.
    fn update_batched(&mut self, picked: MortonCode, counts: &mut OpCounts) {
        let (px, py, pz) = picked.grid_coords();
        for (bx, mh) in self.boxes.iter().zip(self.min_hamming.iter_mut()) {
            let &(lx, ly, lz, scale) = bx;
            let dx = lx.saturating_sub(px).max(px.saturating_sub(lx + scale - 1));
            let dy = ly.saturating_sub(py).max(py.saturating_sub(ly + scale - 1));
            let dz = lz.saturating_sub(pz).max(pz.saturating_sub(lz + scale - 1));
            *mh = (*mh).min(dx.max(dy).max(dz));
        }
        counts.hamming_ops += self.boxes.len() as u64;
    }

    /// The bitonic-selected farthest voxel with remaining points: maximum
    /// min-distance, ties broken toward the *least-sampled* voxel (fewest
    /// picks taken). Breaking ties toward dense voxels would collapse the
    /// sampler into density-proportional (random-sampling-like) behaviour.
    fn select(
        &self,
        kernel: SamplingKernel,
        table: &OctreeTable,
        remaining: &[u32],
        counts: &mut OpCounts,
    ) -> Option<usize> {
        match kernel {
            SamplingKernel::Scalar => self.select_scalar(table, remaining, counts),
            SamplingKernel::Batched => self.select_batched(remaining, counts),
        }
    }

    /// The anchor selection loop, kept byte-for-byte.
    fn select_scalar(
        &self,
        table: &OctreeTable,
        remaining: &[u32],
        counts: &mut OpCounts,
    ) -> Option<usize> {
        let mut best: Option<(u32, u32, usize)> = None; // (min_dist, picked, slot)
        for (i, &entry) in self.entries.iter().enumerate() {
            // Scoreboard scans are module-evaluated in hardware and
            // vectorized on CPU; tally them with the scoring ops.
            counts.hamming_ops += 1;
            let rem = remaining[entry as usize];
            if rem == 0 {
                continue;
            }
            let picked = table.entry(entry).point_count - rem;
            let better = match best {
                None => true,
                Some((h, p, _)) => {
                    self.min_hamming[i] > h || (self.min_hamming[i] == h && picked < p)
                }
            };
            if better {
                best = Some((self.min_hamming[i], picked, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Selection over scoreboard-resident fields only: `picked` comes
    /// from the cached `point_counts` (equal by construction to the
    /// Octree-Table row the anchor reads), and the argmax carries plain
    /// integers instead of an `Option` tuple. Same strict-improvement
    /// rule — maximum min-distance, ties toward fewest picks, first
    /// slot wins residual ties — so the chosen slot is identical.
    fn select_batched(&self, remaining: &[u32], counts: &mut OpCounts) -> Option<usize> {
        let mut best_slot = usize::MAX;
        let mut best_h = 0u32;
        let mut best_p = 0u32;
        for (i, &entry) in self.entries.iter().enumerate() {
            let rem = remaining[entry as usize];
            if rem == 0 {
                continue;
            }
            let h = self.min_hamming[i];
            let picked = self.point_counts[i] - rem;
            if best_slot == usize::MAX || h > best_h || (h == best_h && picked < best_p) {
                best_slot = i;
                best_h = h;
                best_p = picked;
            }
        }
        counts.hamming_ops += self.entries.len() as u64;
        (best_slot != usize::MAX).then_some(best_slot)
    }
}

fn validate(octree: &Octree, mem: &HostMemory, k: usize) -> Result<(), SamplingError> {
    let n = octree.points().len();
    if mem.len() != n {
        return Err(SamplingError::OctreeMismatch {
            octree_points: n,
            memory_points: mem.len(),
        });
    }
    if n == 0 {
        return Err(SamplingError::EmptyCloud);
    }
    if k > n {
        return Err(SamplingError::TargetExceedsInput {
            target: k,
            available: n,
        });
    }
    Ok(())
}

/// Runs exact OIS (Algorithm 2), sampling `k` points.
///
/// `mem` must hold the **SFC-reorganized** frame (`octree.points()`), i.e.
/// the host memory after the Octree-build Unit's pre-configuration step.
/// Returned indices are SFC addresses; translate to raw-frame indices with
/// [`Octree::permutation`]. The memory's access counters are reset on
/// entry. The returned counts cover sampling only — charge the build
/// separately from [`Octree::build_stats`].
///
/// # Errors
///
/// * [`SamplingError::OctreeMismatch`] if `mem` doesn't match the octree;
/// * [`SamplingError::EmptyCloud`] / [`SamplingError::TargetExceedsInput`]
///   as for the other samplers.
pub fn sample(
    octree: &Octree,
    table: &OctreeTable,
    mem: &mut HostMemory,
    k: usize,
    seed: u64,
) -> Result<SampleResult, SamplingError> {
    sample_with(octree, table, mem, k, seed, SamplingKernel::default())
}

/// [`sample`] on a specific [`SamplingKernel`] backend instead of the
/// default ([`SamplingKernel::default`]). All backends pick
/// bit-identical indices and charge identical counts; this knob exists
/// so a harness (or a runtime honoring a per-run `stage_backends`
/// override) can run an anchor yardstick and an optimized candidate
/// side by side in one process.
///
/// # Errors
///
/// As [`sample`].
pub fn sample_with(
    octree: &Octree,
    table: &OctreeTable,
    mem: &mut HostMemory,
    k: usize,
    seed: u64,
    kernel: SamplingKernel,
) -> Result<SampleResult, SamplingError> {
    sample_inner(octree, table, mem, k, seed, None, kernel, None)
}

/// [`sample_with`] reusing an [`OisScratch`]'s buffers instead of
/// allocating fresh working memory. Bit-identical indices and counts to
/// the scratch-free entry points — the scratch is a pure allocation
/// eliminator for preprocessing contexts.
///
/// # Errors
///
/// As [`sample`].
pub fn sample_with_scratch(
    octree: &Octree,
    table: &OctreeTable,
    mem: &mut HostMemory,
    k: usize,
    seed: u64,
    kernel: SamplingKernel,
    scratch: &mut OisScratch,
) -> Result<SampleResult, SamplingError> {
    sample_inner(octree, table, mem, k, seed, None, kernel, Some(scratch))
}

/// The approximate-OIS future-work variant (§VIII): once the descent is
/// within `stop_levels` of the leaves, pick a random remaining point of
/// the current node instead of completing the structured search. The
/// substitute is spatially adjacent to the exact answer (same voxel), so
/// information loss is bounded by the voxel size at the switch level —
/// and the per-level child comparisons below that point are saved.
pub fn approx_sample(
    octree: &Octree,
    table: &OctreeTable,
    mem: &mut HostMemory,
    k: usize,
    seed: u64,
    stop_levels: u8,
) -> Result<SampleResult, SamplingError> {
    sample_inner(
        octree,
        table,
        mem,
        k,
        seed,
        Some(stop_levels),
        SamplingKernel::default(),
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn sample_inner(
    octree: &Octree,
    table: &OctreeTable,
    mem: &mut HostMemory,
    k: usize,
    seed: u64,
    approx_stop: Option<u8>,
    kernel: SamplingKernel,
    scratch: Option<&mut OisScratch>,
) -> Result<SampleResult, SamplingError> {
    validate(octree, mem, k)?;
    let _ = mem.reset_counts();
    let mut indices = Vec::with_capacity(k);
    if k == 0 {
        return Ok(SampleResult {
            indices,
            counts: OpCounts::default(),
        });
    }
    // Without a caller-provided scratch, run through a throwaway one: the
    // algorithm below is identical either way, the scratch only decides
    // whether the buffers outlive this call.
    let mut own = OisScratch::default();
    let scratch = scratch.unwrap_or(&mut own);
    let mut state = OisState::new(table, scratch);
    let mut rng = StdRng::seed_from_u64(seed);

    let depth = table.max_depth();
    let mut scoreboard = Scoreboard::build(table, k, &mut state.counts, scratch);

    // Seed pick: a weighted-random point, like FPS's random seed.
    let mut path = std::mem::take(&mut scratch.path);
    path.clear();
    path.push(table.root());
    state.descend_random(&mut rng, &mut path);
    let mut last_code = table.code(*path.last().expect("leaf"));
    let addr = state.take(&path, rng.gen_bool(0.5));
    let _ = mem.read_point(addr);
    indices.push(addr);
    scoreboard.update(kernel, octree.point_code(addr), &mut state.counts);

    for _ in 1..k {
        // 1. Scoreboard: farthest (max-min Hamming) voxel with points left.
        let slot = scoreboard
            .select(kernel, table, &state.remaining, &mut state.counts)
            .expect("picks < k <= n leaves remaining points");
        let voxel_code = scoreboard.codes[slot];

        // 2. Walk to that voxel, then descend the least-sampled children.
        state.walk_path_into(voxel_code, &mut path);
        match approx_stop {
            None => state.descend_stratified(&mut path),
            Some(stop) => {
                // Structured descent until near the leaves, then random.
                loop {
                    let idx = *path.last().expect("non-empty");
                    let entry = *state.table.entry(idx);
                    if entry.is_leaf() {
                        break;
                    }
                    if entry.level + stop >= depth {
                        state.descend_random(&mut rng, &mut path);
                        break;
                    }
                    let mut best: Option<(u32, u32)> = None;
                    for octant in entry.child_octants() {
                        let child = entry.child(octant).expect("octant from mask");
                        let r = state.remaining[child as usize];
                        state.counts.comparisons += 1;
                        if r > 0 && best.is_none_or(|(br, _)| r > br) {
                            best = Some((r, child));
                        }
                    }
                    path.push(best.expect("remaining > 0").1);
                    state.counts.table_lookups += 1;
                }
            }
        }

        // 3. Take the SFC-extreme remaining point of the leaf: the high end
        // if the leaf sits after the previously picked voxel on the curve.
        let leaf = *path.last().expect("non-empty");
        let leaf_code = table.code(leaf);
        let take_high =
            leaf_code >= last_code.ancestor_at(leaf_code.level().min(last_code.level()));
        state.counts.comparisons += 1;
        let addr = state.take(&path, take_high);
        let _ = mem.read_point(addr);
        last_code = leaf_code;
        indices.push(addr);

        // 4. Refine the chosen slot and score the new pick against the
        // whole scoreboard in parallel.
        scoreboard.refine(slot, table, &mut state.counts);
        scoreboard.update(kernel, octree.point_code(addr), &mut state.counts);
    }

    let counts = state.counts + mem.counts();

    // Hand every buffer back to the scratch for the next frame.
    scratch.path = path;
    scratch.remaining = state.remaining;
    scratch.cursors = state.cursors;
    let Scoreboard {
        entries,
        codes,
        boxes,
        min_hamming,
        point_counts,
        ..
    } = scoreboard;
    scratch.sb_entries = entries;
    scratch.sb_codes = codes;
    scratch.sb_boxes = boxes;
    scratch.sb_min = min_hamming;
    scratch.sb_counts = point_counts;

    Ok(SampleResult { indices, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::{Point3, PointCloud};
    use hgpcn_octree::OctreeConfig;

    fn setup(n: usize) -> (Octree, OctreeTable, HostMemory) {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract() * 10.0,
                    (f * 0.414).fract() * 10.0,
                    (f * 0.732).fract() * 10.0,
                )
            })
            .collect();
        let octree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(2)).unwrap();
        let table = OctreeTable::from_octree(&octree);
        let mem = HostMemory::from_cloud(octree.points());
        (octree, table, mem)
    }

    #[test]
    fn produces_valid_unique_sample() {
        let (octree, table, mut mem) = setup(500);
        let r = sample(&octree, &table, &mut mem, 64, 3).unwrap();
        assert_eq!(r.len(), 64);
        assert!(r.is_valid_sample_of(500));
    }

    #[test]
    fn reads_exactly_k_points_from_host_memory() {
        let (octree, table, mut mem) = setup(1000);
        let k = 128;
        let r = sample(&octree, &table, &mut mem, k, 9).unwrap();
        // The memory-access saving of Fig. 9: OIS touches host memory once
        // per sampled point, nothing else.
        assert_eq!(r.counts.mem_reads, k as u64);
        assert_eq!(r.counts.mem_writes, 0);
    }

    #[test]
    fn lookups_bounded_per_pick() {
        let (octree, table, mut mem) = setup(1000);
        let k = 100;
        let r = sample(&octree, &table, &mut mem, k, 1).unwrap();
        // Each pick walks to a leaf and decrements the same path: at most
        // ~2·(depth+1) lookups, plus the scoreboard construction.
        let bound =
            (k as u64 + 1) * (2 * u64::from(octree.depth()) + 2) + SCOREBOARD_LIMIT as u64 + 2;
        assert!(
            r.counts.table_lookups <= bound,
            "lookups {} exceed bound {bound}",
            r.counts.table_lookups
        );
    }

    #[test]
    fn can_exhaust_the_whole_frame() {
        let (octree, table, mut mem) = setup(100);
        let r = sample(&octree, &table, &mut mem, 100, 5).unwrap();
        assert!(r.is_valid_sample_of(100));
        let mut idx = r.indices.clone();
        idx.sort_unstable();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn second_pick_is_far_from_seed() {
        let (octree, table, mut mem) = setup(400);
        let r = sample(&octree, &table, &mut mem, 2, 7).unwrap();
        let pts = octree.points();
        let d = pts.point(r.indices[0]).distance(pts.point(r.indices[1]));
        // The frame spans a 10-unit cube; a farthest-voxel pick must land
        // well across it.
        let diag = octree.root_bounds().diagonal();
        assert!(d > diag * 0.3, "second pick only {d} away (diag {diag})");
    }

    #[test]
    fn coverage_beats_clustered_sampling() {
        // Max-min scoreboard sampling must spread picks across the frame:
        // with k picks the mean nearest-sample distance must be well below
        // the frame diagonal / 2 (what a single-corner cluster would give).
        let (octree, table, mut mem) = setup(2000);
        let k = 64;
        let r = sample(&octree, &table, &mut mem, k, 11).unwrap();
        let cov = crate::quality::coverage_radius(octree.points(), &r.indices);
        let diag = octree.root_bounds().diagonal();
        assert!(cov < diag * 0.25, "coverage {cov} vs diagonal {diag}");
    }

    #[test]
    fn approx_variant_is_cheaper_in_comparisons() {
        let cloud: PointCloud = (0..800)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect();
        let octree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(1)).unwrap();
        let table = OctreeTable::from_octree(&octree);
        let mut mem = HostMemory::from_cloud(octree.points());
        let exact = sample(&octree, &table, &mut mem, 64, 3).unwrap();
        let mut mem2 = HostMemory::from_cloud(octree.points());
        let approx = approx_sample(&octree, &table, &mut mem2, 64, 3, 5).unwrap();
        assert!(
            approx.counts.comparisons < exact.counts.comparisons,
            "approx {} vs exact {}",
            approx.counts.comparisons,
            exact.counts.comparisons
        );
        assert!(approx.is_valid_sample_of(800));
        assert_eq!(approx.len(), 64);
    }

    #[test]
    fn rejects_mismatched_memory() {
        let (octree, table, _) = setup(100);
        let mut wrong = HostMemory::from_points(vec![Point3::ORIGIN; 7]);
        assert!(matches!(
            sample(&octree, &table, &mut wrong, 5, 0).unwrap_err(),
            SamplingError::OctreeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_oversized_target() {
        let (octree, table, mut mem) = setup(50);
        assert!(matches!(
            sample(&octree, &table, &mut mem, 51, 0).unwrap_err(),
            SamplingError::TargetExceedsInput { .. }
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let (octree, table, _) = setup(300);
        let mut m1 = HostMemory::from_cloud(octree.points());
        let mut m2 = HostMemory::from_cloud(octree.points());
        let a = sample(&octree, &table, &mut m1, 32, 11).unwrap();
        let b = sample(&octree, &table, &mut m2, 32, 11).unwrap();
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn sampling_kernels_are_bit_identical() {
        for n in [60usize, 500, 2000] {
            let (octree, table, _) = setup(n);
            let k = (n / 4).max(1);
            let mut m1 = HostMemory::from_cloud(octree.points());
            let mut m2 = HostMemory::from_cloud(octree.points());
            let a = sample_with(&octree, &table, &mut m1, k, 17, SamplingKernel::Scalar).unwrap();
            let b = sample_with(&octree, &table, &mut m2, k, 17, SamplingKernel::Batched).unwrap();
            assert_eq!(a.indices, b.indices, "n={n}");
            assert_eq!(a.counts, b.counts, "n={n}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch carried across frames of different sizes and both
        // kernels must change nothing: same indices, same counts.
        let mut scratch = OisScratch::new();
        for (frame, n) in [(0usize, 300usize), (1, 900), (2, 60), (3, 900)] {
            let (octree, table, _) = setup(n);
            let k = (n / 5).max(1);
            let seed = 23 + frame as u64;
            for kernel in [SamplingKernel::Scalar, SamplingKernel::Batched] {
                let mut m1 = HostMemory::from_cloud(octree.points());
                let mut m2 = HostMemory::from_cloud(octree.points());
                let fresh = sample_with(&octree, &table, &mut m1, k, seed, kernel).unwrap();
                let reused =
                    sample_with_scratch(&octree, &table, &mut m2, k, seed, kernel, &mut scratch)
                        .unwrap();
                assert_eq!(fresh.indices, reused.indices, "frame {frame} {kernel:?}");
                assert_eq!(fresh.counts, reused.counts, "frame {frame} {kernel:?}");
            }
        }
    }

    #[test]
    fn k_zero_is_empty() {
        let (octree, table, mut mem) = setup(50);
        let r = sample(&octree, &table, &mut mem, 0, 0).unwrap();
        assert!(r.is_empty());
    }
}

use std::ops::Range;

use hgpcn_geometry::morton::{FrameEncoder, MAX_LEVEL};
use hgpcn_geometry::{Aabb, MortonCode, Octant, Point3, PointCloud};

use crate::{BuildStats, Node, NodeId, OctreeConfig, OctreeError};

/// An octree over one point-cloud frame, with its SFC-reorganized copy of
/// the points.
///
/// Building the tree performs exactly what the paper's Octree-build Unit
/// does in one pass (§V-A): per-point m-code computation, a stable radix
/// sort of the points by code (the host-memory *pre-configuration*), and
/// node construction. The reorganized cloud, the permutation back to raw
/// indices, and the [`BuildStats`] the memory simulator charges are all
/// retained.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{Point3, PointCloud};
/// use hgpcn_octree::{Octree, OctreeConfig};
///
/// let cloud: PointCloud =
///     (0..64).map(|i| Point3::new((i % 4) as f32, ((i / 4) % 4) as f32, (i / 16) as f32)).collect();
/// let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(4).leaf_capacity(1))?;
/// assert!(tree.depth() <= 4);
/// assert_eq!(tree.permutation().len(), 64);
/// # Ok::<(), hgpcn_octree::OctreeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Octree {
    root_bounds: Aabb,
    nodes: Vec<Node>,
    root: NodeId,
    points: PointCloud,
    permutation: Vec<u32>,
    /// The points' code bits at `config.max_depth`, in SFC order.
    bits: Vec<u64>,
    config: OctreeConfig,
    stats: BuildStats,
}

impl Octree {
    /// Builds an octree over `cloud`.
    ///
    /// # Errors
    ///
    /// * [`OctreeError::EmptyCloud`] if the frame has no points;
    /// * [`OctreeError::TooManyPoints`] if it has more than `u32::MAX`;
    /// * [`OctreeError::DepthTooLarge`] if `config.max_depth` exceeds the
    ///   m-code limit;
    /// * [`OctreeError::InvalidGeometry`] if any coordinate is non-finite;
    /// * [`OctreeError::RootOverflow`] if the coordinates are finite but
    ///   the root voxel cannot be computed or halved in `f32`.
    pub fn build(cloud: &PointCloud, config: OctreeConfig) -> Result<Octree, OctreeError> {
        // Stateless = one build through a throwaway scratch: a fresh
        // scratch has no cached frame, so the stats record a full build.
        Octree::build_with_scratch(cloud, config, &mut OctreeScratch::new())
    }

    /// Builds an octree over `cloud` through `scratch`'s recycled buffers,
    /// and diffs the frame against the one the scratch last built.
    ///
    /// There is one host build path: every frame runs the same stable radix
    /// sort, so the result is **bit-identical** to [`Octree::build`] in every
    /// geometric respect (`root_bounds`, nodes, point codes, permutation,
    /// reorganized points). Only [`BuildStats`] differs: when the computed
    /// root grid (cubified, inflated AABB) is bit-equal to the cached one and
    /// the config matches, `reused` is set and `dirty_points` /
    /// `nodes_dirty` count what moved since the cached frame — the inputs
    /// the §V-A delta pass is *priced* from. Any grid drift records a full
    /// build and refreshes the cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Octree::build`]; on error the scratch's cache is
    /// left untouched.
    pub fn build_with_scratch(
        cloud: &PointCloud,
        config: OctreeConfig,
        scratch: &mut OctreeScratch,
    ) -> Result<Octree, OctreeError> {
        check_frame(cloud.len(), config)?;
        cloud.validate_finite()?;
        let bounds = cloud.bounds().expect("non-empty cloud has bounds");
        let root_bounds = root_grid(&bounds).ok_or(OctreeError::RootOverflow)?;

        let n = cloud.len();
        let mut stats = BuildStats {
            points: n,
            ..BuildStats::default()
        };

        // Single pass: one m-code per point, into the reused raw-order
        // buffer. Every code of the frame is at `max_depth`, so the buffer
        // holds bare bits.
        scratch.encoder.encode_frame(
            cloud.points(),
            &root_bounds,
            config.max_depth,
            &mut scratch.raw_bits,
        );
        stats.code_computations = n;
        stats.point_reads = n;

        // A frame on the cached grid is diffed against the cached frame:
        // the points whose code moved are the "n" the §V-A delta pass is
        // priced for. Off the grid everything is new.
        let prev = &scratch.prev;
        let warm = prev.grid == Some((root_bounds, config));
        stats.reused = warm;
        stats.dirty_points = if warm {
            (0..n)
                .filter(|&i| prev.raw.differs(i, scratch.raw_bits[i]))
                .count()
        } else {
            n
        };

        // Host-memory pre-configuration: stable sort along the SFC, on one
        // packed word per point, unpacked into the recycled permutation and
        // code-bit buffers the tree takes.
        let mut permutation = std::mem::take(&mut scratch.spare_perm);
        let mut bits = std::mem::take(&mut scratch.spare_bits);
        let key_bits = 3 * u32::from(config.max_depth);
        if key_bits <= u64::KEY_BITS {
            sort_along_sfc(
                &scratch.raw_bits,
                key_bits,
                &mut scratch.sort_words,
                &mut permutation,
                &mut bits,
            );
        } else {
            sort_along_sfc(
                &scratch.raw_bits,
                key_bits,
                &mut scratch.wide_sort_words,
                &mut permutation,
                &mut bits,
            );
        }

        let mut points = std::mem::take(&mut scratch.spare_points);
        cloud.gather_into(&permutation, &mut points);
        stats.point_writes = n;

        // Node construction over the sorted code bits; each voxel's points
        // are a contiguous range, so children partition the parent range.
        let mut nodes = std::mem::take(&mut scratch.spare_nodes);
        nodes.clear();
        let mut max_level = 0u8;
        let root = Self::build_node(
            &bits,
            MortonCode::root(),
            0..n as u32,
            &config,
            &mut nodes,
            &mut max_level,
        );
        stats.nodes_created = nodes.len();
        stats.achieved_depth = max_level;
        stats.nodes_dirty = if warm {
            dirty_nodes(
                &nodes,
                &bits,
                &scratch.prev.sorted,
                &mut scratch.dirty_prefix,
            )
        } else {
            nodes.len()
        };

        // Refresh the cache: the next frame is diffed against this one.
        let prev = &mut scratch.prev;
        prev.grid = Some((root_bounds, config));
        prev.raw.store(&scratch.raw_bits, key_bits);
        prev.sorted.store(&bits, key_bits);

        Ok(Octree {
            root_bounds,
            nodes,
            root,
            points,
            permutation,
            bits,
            config,
            stats,
        })
    }

    fn build_node(
        bits: &[u64],
        code: MortonCode,
        range: Range<u32>,
        config: &OctreeConfig,
        nodes: &mut Vec<Node>,
        max_level: &mut u8,
    ) -> NodeId {
        *max_level = (*max_level).max(code.level());
        let count = (range.end - range.start) as usize;
        let is_leaf = code.level() >= config.max_depth || count <= config.leaf_capacity;
        let id = NodeId(nodes.len() as u32);
        nodes.push(Node {
            code,
            range: range.clone(),
            children: [None; 8],
            is_leaf,
        });
        if is_leaf {
            return id;
        }
        let mut children = [None; 8];
        let mut start = range.start;
        for octant in Octant::ALL {
            let child_code = code.child(octant);
            // Points of this child are the prefix-matching run beginning at
            // `start`; binary search for its end within the parent range.
            let end = range.start
                + partition_end(bits, range.clone(), child_code, config.max_depth) as u32;
            if end > start {
                let child_id =
                    Self::build_node(bits, child_code, start..end, config, nodes, max_level);
                children[octant.index() as usize] = Some(child_id);
            }
            start = end;
            if start >= range.end {
                break;
            }
        }
        nodes[id.index()].children = children;
        nodes[id.index()].is_leaf = false;
        id
    }

    /// The cubified root voxel.
    #[inline]
    pub fn root_bounds(&self) -> Aabb {
        self.root_bounds
    }

    /// Id of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes in creation (pre)order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest leaf.
    #[inline]
    pub fn depth(&self) -> u8 {
        self.stats.achieved_depth
    }

    /// The SFC-reorganized copy of the frame (the paper's pre-configured
    /// host-memory layout).
    #[inline]
    pub fn points(&self) -> &PointCloud {
        &self.points
    }

    /// Maps each SFC position to the index of that point in the raw frame
    /// (a frame has at most `u32::MAX` points).
    #[inline]
    pub fn permutation(&self) -> &[u32] {
        &self.permutation
    }

    /// The [bits](MortonCode::bits) of every point's m-code at
    /// `config.max_depth`, in SFC order (non-decreasing).
    #[inline]
    pub fn point_bits(&self) -> &[u64] {
        &self.bits
    }

    /// The m-code at `config.max_depth` of the point at SFC position
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn point_code(&self, index: usize) -> MortonCode {
        MortonCode::from_bits(self.bits[index], self.config.max_depth)
    }

    /// The configuration the tree was built with.
    #[inline]
    pub fn config(&self) -> OctreeConfig {
        self.config
    }

    /// Operation counts of the build (charged to the CPU by the simulator).
    #[inline]
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Descends from the root to the leaf voxel containing `p`.
    ///
    /// Returns `None` if `p` lies outside the root voxel or in an empty
    /// sub-voxel (no point of the frame shares its leaf).
    pub fn leaf_for(&self, p: Point3) -> Option<NodeId> {
        if !self.root_bounds.contains(p) {
            return None;
        }
        let mut id = self.root;
        let mut bounds = self.root_bounds;
        loop {
            let node = self.node(id);
            if node.is_leaf() {
                return Some(id);
            }
            let octant = bounds.octant_of(p);
            bounds = bounds.octant_bounds(octant);
            id = node.child(octant)?;
        }
    }

    /// The SFC-position range of all points inside the voxel `code`, whether
    /// or not the tree has a node at that exact level.
    ///
    /// Implemented as two binary searches over the sorted point codes — this
    /// is the Octree-Table lookup primitive the VEG point-count step uses.
    pub fn voxel_range(&self, code: MortonCode) -> Range<usize> {
        debug_assert!(code.level() <= self.config.max_depth);
        // Walk the node arena along the code's octant path instead of
        // binary-searching the full code array: the (very common) query
        // for an *empty* voxel — VEG probes every voxel of a shell —
        // exits at the first missing child, and a populated voxel
        // narrows to at most one leaf's few points. Results are
        // identical to a two-sided search of the sorted code array.
        let mut node = self.node(self.root);
        for level in 1..=code.level() {
            if node.is_leaf {
                break;
            }
            let octant = code
                .ancestor_at(level)
                .octant_in_parent()
                .expect("level >= 1");
            match node.children[octant.index() as usize] {
                Some(child) => node = self.node(child),
                None => return 0..0,
            }
        }
        if node.code.level() >= code.level() {
            // Found the voxel's own node (or a deeper ancestor chain
            // ended exactly here): its recorded range is the answer.
            let r = node.range.clone();
            return r.start as usize..r.end as usize;
        }
        // A shallower leaf covers the queried voxel: narrow its small
        // contiguous range by code prefix.
        let shift = 3 * (self.config.max_depth - code.level()) as u32;
        let lo = code.bits() << shift;
        let hi = lo + (1u64 << shift);
        let within = &self.bits[node.range.start as usize..node.range.end as usize];
        let start = node.range.start as usize + within.partition_point(|&b| b < lo);
        let end = node.range.start as usize + within.partition_point(|&b| b < hi);
        start..end
    }

    /// Number of points inside the voxel `code`.
    #[inline]
    pub fn voxel_point_count(&self, code: MortonCode) -> usize {
        self.voxel_range(code).len()
    }

    /// SFC addresses of all points inside `query`, found by pruned tree
    /// traversal — the spatial-database range query the paper's §VIII
    /// generality claim builds on (its \[25\] indexes point clouds in an
    /// Oracle Spatial octree the same way).
    pub fn points_in_aabb(&self, query: &Aabb) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![(self.root, self.root_bounds)];
        while let Some((id, bounds)) = stack.pop() {
            if !bounds.intersects(query) {
                continue;
            }
            let node = self.node(id);
            // Fully covered voxel: take the whole contiguous range.
            if query.contains(bounds.min()) && query.contains(bounds.max()) {
                out.extend(node.point_range());
                continue;
            }
            if node.is_leaf() {
                for i in node.point_range() {
                    if query.contains(self.points.point(i)) {
                        out.push(i);
                    }
                }
                continue;
            }
            for octant in hgpcn_geometry::Octant::ALL {
                if let Some(child) = node.child(octant) {
                    stack.push((child, bounds.octant_bounds(octant)));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Index (relative to `range.start`) of the first code in `range` that does
/// not belong to the voxel `child_code`; `bits` are codes at `max_depth`.
fn partition_end(bits: &[u64], range: Range<u32>, child_code: MortonCode, max_depth: u8) -> usize {
    let slice = &bits[range.start as usize..range.end as usize];
    let shift = 3 * (max_depth - child_code.level()) as u32;
    let hi = (child_code.bits() + 1) << shift;
    slice.partition_point(|&b| b < hi)
}

/// The root voxel of a frame with these bounds: inflated a hair so
/// boundary points never fall outside after `f32` rounding, then cubified
/// so each level halves the voxel edge (`bounds.inflate(margin).cubified()`,
/// operation for operation). `None` when that overflows — coordinates a
/// few 1e19 apart overflow the margin's diagonal — or when a corner lies
/// beyond ±`f32::MAX / 2`, where the sum of two voxel corners, and so a
/// midpoint of the descent, could overflow. Inside that range no midpoint
/// of any level can, so the encode cannot panic on a frame this accepts.
fn root_grid(bounds: &Aabb) -> Option<Aabb> {
    let margin = (bounds.diagonal() * 1e-6).max(f32::MIN_POSITIVE);
    let (min, max) = (
        bounds.min() - Point3::splat(margin),
        bounds.max() + Point3::splat(margin),
    );
    let e = max - min;
    let center = (min + max) * 0.5;
    let half = Point3::splat(e.x.max(e.y).max(e.z) * 0.5);
    let (lo, hi) = (center - half, center + half);
    // False for a NaN or an infinity, which the overflow leaves behind.
    let halvable = |p: Point3| [p.x, p.y, p.z].iter().all(|c| c.abs() <= f32::MAX / 2.0);
    (margin.is_finite() && halvable(lo) && halvable(hi)).then(|| Aabb::new(lo, hi))
}

/// Refuses a frame [`Octree::build_with_scratch`] cannot build, before any
/// work: an empty one, one with more points than a `u32` index can name (the
/// sort's packed index and the nodes' point ranges are both `u32`), or a
/// depth past the m-code limit.
fn check_frame(len: usize, config: OctreeConfig) -> Result<(), OctreeError> {
    if len == 0 {
        return Err(OctreeError::EmptyCloud);
    }
    if u32::try_from(len).is_err() {
        return Err(OctreeError::TooManyPoints {
            points: len,
            max: u32::MAX as usize,
        });
    }
    if !config.is_supported() {
        return Err(OctreeError::DepthTooLarge {
            requested: config.max_depth,
            max: MAX_LEVEL,
        });
    }
    Ok(())
}

/// Bits per radix digit of the SFC sort: three scatter passes over the 30
/// key bits of the default depth, counted in 12 KiB. Measured on
/// 150 000-point rooms at depth 10 (2-vCPU AVX-512 host, release build,
/// instrumented build loop, alternating runs in one session), the sort
/// with its unpack took 14.5–19.3 ns/point against 22.3–26.2 with four
/// 8-bit digits and a `usize` permutation. On the gather
/// indices' small frames (`Octree::build` on a fresh scratch) 8-bit digits
/// win only at 16 points (≈ 300 against 360 ns/point, one microsecond a
/// build), tie at 64 and lose from 256 on (41–48 against 45–50, and 23
/// against 27–35 at 1 024), so one width serves every frame. 11-bit digits
/// would save no pass at depth 10 and double the counts.
const DIGIT_BITS: u32 = 10;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Low bits of a [`SortWord`] that hold the point's raw index.
const INDEX_BITS: u32 = u32::BITS;

/// What the SFC sort scatters: one point's code bits above its raw index in
/// the low [`INDEX_BITS`]. A `u64` holds the keys of depths up to 10, a
/// `u128` those of every depth up to [`MAX_LEVEL`].
trait SortWord: Copy + Default {
    /// Widest key the word holds.
    const KEY_BITS: u32;
    fn pack(bits: u64, index: u32) -> Self;
    fn bits(self) -> u64;
    fn index(self) -> u32;
}

impl SortWord for u64 {
    const KEY_BITS: u32 = u64::BITS - INDEX_BITS;
    #[inline]
    fn pack(bits: u64, index: u32) -> u64 {
        bits << INDEX_BITS | u64::from(index)
    }
    #[inline]
    fn bits(self) -> u64 {
        self >> INDEX_BITS
    }
    #[inline]
    fn index(self) -> u32 {
        self as u32
    }
}

impl SortWord for u128 {
    const KEY_BITS: u32 = u64::BITS;
    #[inline]
    fn pack(bits: u64, index: u32) -> u128 {
        u128::from(bits) << INDEX_BITS | u128::from(index)
    }
    #[inline]
    fn bits(self) -> u64 {
        (self >> INDEX_BITS) as u64
    }
    #[inline]
    fn index(self) -> u32 {
        self as u32
    }
}

/// Stable least-significant-digit radix sort of a frame along the SFC.
///
/// `raw[i]` is the code bits of raw point `i`, of which the low `key_bits`
/// (at most `W::KEY_BITS`) can be set, and `raw` has at most `u32::MAX`
/// points. On return `perm` maps each SFC position to its raw index — equal
/// codes keep their raw order — and `sorted` holds the bits in that order.
/// Both are overwritten. `raw` is only read: the first pass packs each key
/// with its position as it scatters it, later passes ping-pong the packed
/// words between the two `words` buffers, and one sequential pass unpacks
/// the last one.
///
/// One read of the frame counts every digit, which also tells which digits
/// to skip: a digit all keys share leaves the order as it is. No key bits,
/// or all keys equal, is therefore no pass at all — the identity
/// permutation over `raw` itself — and leaves `words` untouched.
fn sort_along_sfc<W: SortWord>(
    raw: &[u64],
    key_bits: u32,
    words: &mut [Vec<W>; 2],
    perm: &mut Vec<u32>,
    sorted: &mut Vec<u64>,
) {
    debug_assert!(key_bits <= W::KEY_BITS && u32::try_from(raw.len()).is_ok());
    let n = raw.len();
    let digit = |bits: u64, d: usize| (bits >> (d as u32 * DIGIT_BITS)) as usize % BUCKETS;
    let mut counts = vec![[0u32; BUCKETS]; key_bits.div_ceil(DIGIT_BITS) as usize];
    for &bits in raw {
        for (d, count) in counts.iter_mut().enumerate() {
            count[digit(bits, d)] += 1;
        }
    }

    let [src, dst] = words;
    let mut scattered = false;
    for (d, count) in counts.iter_mut().enumerate() {
        if count.contains(&(n as u32)) {
            continue;
        }
        // Counts become each bucket's first target slot.
        let mut next = 0;
        for slot in count.iter_mut() {
            next += std::mem::replace(slot, next);
        }
        // Stale contents are fine: the pass writes every slot.
        dst.resize(n, W::default());
        let mut scatter = |word: W| {
            let slot = &mut count[digit(word.bits(), d)];
            dst[*slot as usize] = word;
            *slot += 1;
        };
        if scattered {
            src.iter().for_each(|&word| scatter(word));
        } else {
            raw.iter()
                .zip(0..)
                .for_each(|(&bits, i)| scatter(W::pack(bits, i)));
        }
        std::mem::swap(src, dst);
        scattered = true;
    }

    if scattered {
        // As above, every slot of both is written.
        perm.resize(n, 0);
        sorted.resize(n, 0);
        for ((&word, index), bits) in src.iter().zip(perm.iter_mut()).zip(sorted.iter_mut()) {
            *index = word.index();
            *bits = word.bits();
        }
    } else {
        perm.clear();
        perm.extend(0..n as u32);
        sorted.clear();
        sorted.extend_from_slice(raw);
    }
}

/// One frame's code bits, as narrow as its depth allows: `u32` when every
/// code fits (`3 * max_depth <= 32`, the default depth 10 included), `u64`
/// otherwise.
#[derive(Clone, Debug)]
enum FrameBits {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for FrameBits {
    fn default() -> FrameBits {
        FrameBits::Narrow(Vec::new())
    }
}

impl FrameBits {
    /// Replaces the contents with `bits`, codes of `key_bits` bits, keeping
    /// the allocation while the width stays.
    fn store(&mut self, bits: &[u64], key_bits: u32) {
        *self = match std::mem::take(self) {
            FrameBits::Narrow(mut stored) if key_bits <= u32::BITS => {
                stored.clear();
                stored.extend(bits.iter().map(|&b| b as u32));
                FrameBits::Narrow(stored)
            }
            _ if key_bits <= u32::BITS => {
                FrameBits::Narrow(bits.iter().map(|&b| b as u32).collect())
            }
            FrameBits::Wide(mut stored) => {
                stored.clear();
                stored.extend_from_slice(bits);
                FrameBits::Wide(stored)
            }
            FrameBits::Narrow(_) => FrameBits::Wide(bits.to_vec()),
        };
    }

    fn len(&self) -> usize {
        match self {
            FrameBits::Narrow(stored) => stored.len(),
            FrameBits::Wide(stored) => stored.len(),
        }
    }

    /// Whether position `i` holds other bits than `bits`; every position
    /// past the end does. Bits are comparable across two frames on one
    /// grid because such frames share the config, hence the width.
    #[inline]
    fn differs(&self, i: usize, bits: u64) -> bool {
        match self {
            FrameBits::Narrow(stored) => stored.get(i).is_none_or(|&b| u64::from(b) != bits),
            FrameBits::Wide(stored) => stored.get(i).is_none_or(|&b| b != bits),
        }
    }
}

/// What the §V-A delta pass needs from a stream's previous frame: its
/// root grid and its code bits in raw and in SFC order.
///
/// [`Octree::build_with_scratch`] diffs a frame on the same grid against
/// it to fill the [`BuildStats`] the delta pass is priced from (`reused`,
/// `dirty_points`, `nodes_dirty`), then replaces it with the frame just
/// built. It is the only build state that belongs to a stream: a server
/// keeps one per open stream and moves it into a worker's
/// [`OctreeScratch`] for the length of a frame with
/// [`OctreeScratch::swap_previous`]. It holds 8 bytes per point at depths
/// up to 10 (two `u32` codes), 16 deeper.
#[derive(Clone, Debug, Default)]
pub struct PreviousFrame {
    /// Root grid of the cached frame; `None` until the first successful
    /// build.
    grid: Option<(Aabb, OctreeConfig)>,
    /// Code bits in raw point order.
    raw: FrameBits,
    /// The same bits in SFC order.
    sorted: FrameBits,
}

impl PreviousFrame {
    /// Creates an empty previous frame: the next build through it is
    /// priced in full.
    pub fn new() -> PreviousFrame {
        PreviousFrame::default()
    }
}

/// Reusable build state: the working set of the octree half of a
/// preprocessing context, plus the [`PreviousFrame`] it diffs against.
///
/// * **scratch capacity** — every buffer [`Octree::build`] would otherwise
///   allocate per frame (the encoder's boundary table, the raw-order code
///   bits, the radix sort's two packed-word buffers, and — via
///   [`OctreeScratch::recycle`] — the permutation, code bits, node arena
///   and reorganized cloud of a consumed tree). Only the frame in flight
///   uses it, so one scratch can serve any number of streams in turn;
/// * **the previous frame** — see [`PreviousFrame`]. A scratch serving
///   several streams swaps each stream's own in and out around its frame
///   ([`OctreeScratch::swap_previous`]).
///
/// The cache feeds pricing only: every build runs the same sort, so the
/// tree is bit-identical whatever the cache holds. Building *unrelated*
/// streams against one previous frame is therefore safe but prices every
/// frame against a stranger.
#[derive(Clone, Debug, Default)]
pub struct OctreeScratch {
    /// The frame the next build is diffed against.
    prev: PreviousFrame,
    /// Working buffer: this frame's code bits in raw point order.
    raw_bits: Vec<u64>,
    /// Working buffers: the radix sort's ping-pong of packed words, 8 bytes
    /// per point at depths up to 10.
    sort_words: [Vec<u64>; 2],
    /// The same at depths 11 to [`MAX_LEVEL`], 16 bytes per point; empty
    /// unless a frame is built that deep.
    wide_sort_words: [Vec<u128>; 2],
    /// Holds the per-axis boundary table the single pass looks points up
    /// in; refilled from the root of every frame.
    encoder: FrameEncoder,
    /// Working buffer: prefix counts of changed sorted positions (for the
    /// dirty-node estimate).
    dirty_prefix: Vec<u32>,
    spare_nodes: Vec<Node>,
    spare_bits: Vec<u64>,
    spare_perm: Vec<u32>,
    spare_points: PointCloud,
}

impl OctreeScratch {
    /// Creates an empty scratch (no cache, no capacity).
    pub fn new() -> OctreeScratch {
        OctreeScratch::default()
    }

    /// Reclaims the heap buffers of a tree this scratch (or [`Octree::build`])
    /// produced, once the caller is done with it. Purely a capacity
    /// optimization — skipping it never affects results, it just makes the
    /// next build allocate.
    pub fn recycle(&mut self, tree: Octree) {
        let Octree {
            nodes,
            points,
            permutation,
            bits,
            ..
        } = tree;
        self.spare_nodes = nodes;
        self.spare_nodes.clear();
        self.spare_bits = bits;
        self.spare_perm = permutation;
        self.spare_points = points;
    }

    /// Exchanges the scratch's previous frame with `prev`, in O(1): the
    /// next build is diffed against what `prev` held, and `prev` takes the
    /// frame the scratch last built (or was last handed).
    pub fn swap_previous(&mut self, prev: &mut PreviousFrame) {
        std::mem::swap(&mut self.prev, prev);
    }
}

/// Counts nodes whose Octree-Table row may differ from the cached previous
/// frame's — the rows the §V-A incremental table update must re-emit while
/// clean rows persist in BRAM.
///
/// The test is positional: sorted position `i` is *changed* when this
/// frame's code there differs from what the previous frame's sorted order
/// held at `i` (positions past the shorter frame are always changed), and a
/// node is dirty when any position inside **or immediately adjacent to**
/// its range changed, or when the frame length changed and its range
/// touches the tail. The adjacency slack makes the estimate conservative:
/// a node's row can only differ from its previous incarnation if its code
/// run grew, shrank, or moved, and every such shift puts a changed code at
/// or next to one of its boundaries. Clean nodes are therefore guaranteed
/// unchanged rows; the count can only err high (e.g. a boundary-adjacent
/// change in a sibling flags this node too).
fn dirty_nodes(
    nodes: &[Node],
    sorted: &[u64],
    prev_sorted: &FrameBits,
    prefix: &mut Vec<u32>,
) -> usize {
    let n = sorted.len();
    prefix.clear();
    prefix.reserve(n + 1);
    prefix.push(0);
    let mut acc = 0u32;
    for (i, &bits) in sorted.iter().enumerate() {
        acc += prev_sorted.differs(i, bits) as u32;
        prefix.push(acc);
    }
    let tail_changed = n != prev_sorted.len();
    nodes
        .iter()
        .filter(|node| {
            let hi = node.range.end as usize;
            if tail_changed && hi >= n {
                return true;
            }
            let lo = (node.range.start as usize).saturating_sub(1);
            prefix[(hi + 1).min(n)] > prefix[lo]
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cloud(n_per_axis: usize) -> PointCloud {
        let mut cloud = PointCloud::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    cloud.push(Point3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        cloud
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(
            Octree::build(&PointCloud::new(), OctreeConfig::default()).unwrap_err(),
            OctreeError::EmptyCloud
        );
    }

    #[test]
    fn build_rejects_huge_depth() {
        let cloud = grid_cloud(2);
        let err = Octree::build(&cloud, OctreeConfig::new().max_depth(40)).unwrap_err();
        assert!(matches!(err, OctreeError::DepthTooLarge { .. }));
    }

    #[test]
    fn build_rejects_nan() {
        let mut cloud = grid_cloud(2);
        cloud.push(Point3::new(f32::NAN, 0.0, 0.0));
        assert!(matches!(
            Octree::build(&cloud, OctreeConfig::default()).unwrap_err(),
            OctreeError::InvalidGeometry(_)
        ));
    }

    #[test]
    fn build_refuses_a_root_that_overflows() {
        // A finite point at 3e38 overflows the margin's diagonal; points
        // 1e20 apart do too; a lone point past f32::MAX / 2 has a finite
        // root whose halving could overflow. None is built, and the cache
        // survives all three.
        let cloud = grid_cloud(3);
        let cfg = OctreeConfig::default();
        let mut scratch = OctreeScratch::new();
        let _ = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
        let mut far = grid_cloud(3);
        far.push(Point3::splat(3e38));
        let apart = PointCloud::from_points(vec![Point3::splat(-1e20), Point3::splat(1e20)]);
        let lone = PointCloud::from_points(vec![Point3::new(0.0, 2e38, 0.0)]);
        for frame in [&far, &apart, &lone] {
            assert_eq!(
                Octree::build_with_scratch(frame, cfg, &mut scratch).unwrap_err(),
                OctreeError::RootOverflow
            );
        }
        let tree = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
        assert!(tree.build_stats().reused, "cache survived the refusals");

        // Far but halvable: built, on the root `inflate` + `cubified` give.
        let wide = PointCloud::from_points(vec![Point3::splat(-1e18), Point3::new(1e18, 0.0, 0.0)]);
        let bounds = wide.bounds().unwrap();
        let margin = (bounds.diagonal() * 1e-6).max(f32::MIN_POSITIVE);
        assert_eq!(
            Octree::build(&wide, cfg).unwrap().root_bounds(),
            bounds.inflate(margin).cubified()
        );
    }

    #[test]
    fn nodes_partition_points() {
        let cloud = grid_cloud(4);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(5).leaf_capacity(1)).unwrap();
        // Root covers everything.
        assert_eq!(tree.node(tree.root()).point_count(), cloud.len());
        // Children of every internal node partition its range exactly.
        for node in tree.nodes() {
            if node.is_leaf() {
                continue;
            }
            let total: usize = node.children().map(|c| tree.node(c).point_count()).sum();
            assert_eq!(total, node.point_count());
            // Child ranges are consecutive and ordered.
            let mut cursor = node.point_range().start;
            for child in node.children() {
                let r = tree.node(child).point_range();
                assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            assert_eq!(cursor, node.point_range().end);
        }
    }

    #[test]
    fn leaf_for_contains_the_point() {
        let cloud = grid_cloud(5);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(6).leaf_capacity(2)).unwrap();
        for i in 0..cloud.len() {
            let p = cloud.point(i);
            let leaf = tree.leaf_for(p).expect("point inside root");
            let node = tree.node(leaf);
            let bounds = node.code().decode_bounds(&tree.root_bounds());
            assert!(bounds.contains(p), "leaf voxel must contain its point");
        }
        assert!(tree.leaf_for(Point3::splat(1e6)).is_none());
    }

    #[test]
    fn voxel_range_matches_nodes() {
        let cloud = grid_cloud(4);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(4).leaf_capacity(1)).unwrap();
        for node in tree.nodes() {
            assert_eq!(tree.voxel_range(node.code()), node.point_range());
        }
    }

    #[test]
    fn permutation_is_valid_and_points_sorted() {
        let cloud = grid_cloud(4);
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let mut perm = tree.permutation().to_vec();
        perm.sort_unstable();
        assert_eq!(perm, (0..cloud.len() as u32).collect::<Vec<_>>());
        // Codes must be non-decreasing after reorganization.
        assert!(tree.point_bits().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stats_record_single_pass() {
        let cloud = grid_cloud(4);
        let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
        let s = tree.build_stats();
        assert_eq!(s.points, 64);
        assert_eq!(s.point_reads, 64);
        assert_eq!(s.point_writes, 64);
        assert_eq!(s.code_computations, 64);
        assert!(s.nodes_created >= 1);
    }

    #[test]
    fn leaf_capacity_limits_leaf_sizes() {
        let cloud = grid_cloud(4);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(8).leaf_capacity(3)).unwrap();
        for node in tree.nodes() {
            if node.is_leaf() && node.level() < 8 {
                assert!(node.point_count() <= 3);
            }
        }
    }

    #[test]
    fn depth_cap_respected() {
        let cloud = grid_cloud(6);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(2).leaf_capacity(1)).unwrap();
        assert!(tree.depth() <= 2);
        assert!(tree.nodes().iter().all(|n| n.level() <= 2));
    }

    #[test]
    fn points_in_aabb_matches_brute_filter() {
        let cloud = grid_cloud(5);
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(5).leaf_capacity(2)).unwrap();
        let query = Aabb::new(Point3::new(0.5, 0.5, 0.5), Point3::new(3.2, 2.7, 4.0));
        let got = tree.points_in_aabb(&query);
        let expect: Vec<usize> = (0..tree.points().len())
            .filter(|&i| query.contains(tree.points().point(i)))
            .collect();
        assert_eq!(got, expect);
        // Empty query region.
        let nothing = Aabb::new(Point3::splat(100.0), Point3::splat(101.0));
        assert!(tree.points_in_aabb(&nothing).is_empty());
        // Whole-root query returns everything.
        let all = tree.points_in_aabb(&tree.root_bounds());
        assert_eq!(all.len(), cloud.len());
    }

    fn assert_trees_bit_identical(a: &Octree, b: &Octree) {
        assert_eq!(a.root_bounds(), b.root_bounds());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.root(), b.root());
        assert_eq!(a.point_bits(), b.point_bits());
        assert_eq!(a.permutation(), b.permutation());
        assert_eq!(a.points(), b.points());
        assert_eq!(a.depth(), b.depth());
    }

    #[test]
    fn scratch_identical_frame_reuses_and_matches_cold() {
        let cloud = grid_cloud(4);
        let cfg = OctreeConfig::new().max_depth(5).leaf_capacity(2);
        let mut scratch = OctreeScratch::new();

        let first = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
        assert!(!first.build_stats().reused, "no cache on the first frame");
        assert_trees_bit_identical(&first, &Octree::build(&cloud, cfg).unwrap());

        let second = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
        let stats = second.build_stats();
        assert!(stats.reused, "identical frame lands on the cached grid");
        assert_eq!(stats.dirty_points, 0, "no code moved");
        assert_trees_bit_identical(&second, &Octree::build(&cloud, cfg).unwrap());
    }

    #[test]
    fn scratch_drifted_frame_stays_bit_identical() {
        // Translate interior points while two anchor corners pin the AABB.
        let mut frame_a = PointCloud::new();
        frame_a.push(Point3::ORIGIN);
        frame_a.push(Point3::splat(10.0));
        for i in 0..200 {
            let t = i as f32;
            frame_a.push(Point3::new(
                1.0 + (t * 0.037) % 8.0,
                1.0 + (t * 0.091) % 8.0,
                1.0 + (t * 0.053) % 8.0,
            ));
        }
        let mut frame_b = PointCloud::new();
        frame_b.push(Point3::ORIGIN);
        frame_b.push(Point3::splat(10.0));
        for i in 0..200 {
            let t = i as f32;
            frame_b.push(Point3::new(
                1.0 + (t * 0.037 + 0.4) % 8.0,
                1.0 + (t * 0.091 + 0.2) % 8.0,
                1.0 + (t * 0.053 + 0.6) % 8.0,
            ));
        }
        let cfg = OctreeConfig::new().max_depth(6).leaf_capacity(2);
        let mut scratch = OctreeScratch::new();
        let a = Octree::build_with_scratch(&frame_a, cfg, &mut scratch).unwrap();
        scratch.recycle(a);
        let b = Octree::build_with_scratch(&frame_b, cfg, &mut scratch).unwrap();
        let stats = b.build_stats();
        assert!(stats.reused, "same AABB frame lands on the cached grid");
        assert!(stats.dirty_points > 0, "drift must dirty some codes");
        assert_trees_bit_identical(&b, &Octree::build(&frame_b, cfg).unwrap());
    }

    #[test]
    fn scratch_aabb_drift_falls_back_to_cold() {
        let cloud = grid_cloud(3);
        let cfg = OctreeConfig::default();
        let mut scratch = OctreeScratch::new();
        let _ = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();

        let mut grown = grid_cloud(3);
        grown.push(Point3::splat(50.0));
        let tree = Octree::build_with_scratch(&grown, cfg, &mut scratch).unwrap();
        assert!(!tree.build_stats().reused, "AABB growth must rebuild cold");
        assert_eq!(tree.build_stats().dirty_points, grown.len());
        assert_trees_bit_identical(&tree, &Octree::build(&grown, cfg).unwrap());
        // The miss refreshed the cache: the grown frame now hits.
        let again = Octree::build_with_scratch(&grown, cfg, &mut scratch).unwrap();
        assert!(again.build_stats().reused);
    }

    #[test]
    fn scratch_config_change_falls_back_to_cold() {
        let cloud = grid_cloud(3);
        let mut scratch = OctreeScratch::new();
        let _ = Octree::build_with_scratch(&cloud, OctreeConfig::default(), &mut scratch).unwrap();
        let cfg2 = OctreeConfig::new().max_depth(3).leaf_capacity(1);
        let tree = Octree::build_with_scratch(&cloud, cfg2, &mut scratch).unwrap();
        assert!(!tree.build_stats().reused);
        assert_trees_bit_identical(&tree, &Octree::build(&cloud, cfg2).unwrap());
    }

    #[test]
    fn scratch_point_count_changes_stay_identical() {
        // Same AABB, different point counts: the diff against the cached
        // frame must handle both shrink and growth.
        let cfg = OctreeConfig::new().max_depth(5).leaf_capacity(2);
        let mut scratch = OctreeScratch::new();
        let counts = [40usize, 64, 12, 1, 64];
        for &n in &counts {
            let mut cloud = PointCloud::new();
            cloud.push(Point3::ORIGIN);
            if n > 1 {
                cloud.push(Point3::splat(9.0));
            }
            for i in 2..n {
                let t = i as f32;
                cloud.push(Point3::new(t % 9.0, (t * 3.0) % 9.0, (t * 7.0) % 9.0));
            }
            let got = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
            assert_trees_bit_identical(&got, &Octree::build(&cloud, cfg).unwrap());
        }
    }

    #[test]
    fn previous_frame_narrows_and_widens_with_the_depth() {
        // `u32` codes up to depth 10, `u64` beyond: a stream whose depth
        // moves across 10 is priced against the right frame either way.
        let cloud = grid_cloud(4);
        let mut scratch = OctreeScratch::new();
        for depth in [10, 10, 12, 12, 10, 21, 21, 3] {
            let cfg = OctreeConfig::new().max_depth(depth).leaf_capacity(2);
            let repeat = scratch.prev.grid.is_some_and(|(_, c)| c == cfg);
            let tree = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
            assert_eq!(tree.build_stats().reused, repeat, "depth {depth}");
            if repeat {
                assert_eq!(tree.build_stats().dirty_points, 0, "depth {depth}");
                assert_eq!(tree.build_stats().nodes_dirty, 0, "depth {depth}");
            }
            assert_trees_bit_identical(&tree, &Octree::build(&cloud, cfg).unwrap());
            let narrow = matches!(scratch.prev.raw, FrameBits::Narrow(_));
            assert_eq!(narrow, depth <= 10, "depth {depth}");
            scratch.recycle(tree);
        }
    }

    #[test]
    fn scratch_errors_leave_cache_untouched() {
        let cloud = grid_cloud(3);
        let cfg = OctreeConfig::default();
        let mut scratch = OctreeScratch::new();
        let _ = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();

        assert_eq!(
            Octree::build_with_scratch(&PointCloud::new(), cfg, &mut scratch).unwrap_err(),
            OctreeError::EmptyCloud
        );
        let mut bad = grid_cloud(2);
        bad.push(Point3::new(f32::NAN, 0.0, 0.0));
        assert!(Octree::build_with_scratch(&bad, cfg, &mut scratch).is_err());

        let tree = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
        assert!(
            tree.build_stats().reused,
            "cache survived the failed frames"
        );
        assert_eq!(tree.build_stats().dirty_points, 0);
        assert_trees_bit_identical(&tree, &Octree::build(&cloud, cfg).unwrap());
    }

    #[test]
    fn scratch_buffer_roles_rotate_across_frame_sizes() {
        // The sort's buffers trade places once per pass and the permutation
        // leaves with the tree, so which allocation plays which role, and
        // how long its stale contents are, changes from frame to frame.
        let cfg = OctreeConfig::default();
        let mut scratch = OctreeScratch::new();
        let mut bad = grid_cloud(2);
        bad.push(Point3::new(f32::NAN, 0.0, 0.0));
        for (round, n) in [64usize, 150_000, 12, 1].into_iter().enumerate() {
            let cloud: PointCloud = (0..n)
                .map(|i| {
                    let t = i as f32;
                    Point3::new(
                        (t * 0.618).fract() * 9.0,
                        (t * 0.414).fract() * 9.0,
                        (t * 0.732).fract() * 9.0,
                    )
                })
                .collect();
            let expect = Octree::build(&cloud, cfg).unwrap();

            let cold = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
            assert!(!cold.build_stats().reused, "{n} points: a new root");
            assert_trees_bit_identical(&cold, &expect);
            // With and without handing the buffers back.
            if round % 2 == 0 {
                scratch.recycle(cold);
            }

            assert!(Octree::build_with_scratch(&bad, cfg, &mut scratch).is_err());

            let warm = Octree::build_with_scratch(&cloud, cfg, &mut scratch).unwrap();
            assert!(warm.build_stats().reused, "{n} points: the cached grid");
            assert_eq!(warm.build_stats().dirty_points, 0);
            assert_trees_bit_identical(&warm, &expect);
            scratch.recycle(warm);
        }
    }

    #[test]
    fn one_scratch_serves_streams_that_swap_their_previous_frames_in() {
        // Two streams whose root grids differ: one scratch per stream, and
        // one shared scratch that swaps each stream's previous frame in
        // around its build, record the same stats frame for frame.
        let cfg = OctreeConfig::new().max_depth(5).leaf_capacity(2);
        let stream = |extent: f32, shift: f32| -> PointCloud {
            let mut cloud = PointCloud::new();
            cloud.push(Point3::ORIGIN);
            cloud.push(Point3::splat(extent));
            for i in 0..90 {
                let t = i as f32;
                cloud.push(Point3::new(
                    (t * 0.37 + shift) % extent,
                    (t * 0.71 + shift) % extent,
                    (t * 0.13 + shift) % extent,
                ));
            }
            cloud
        };
        let mut own = [OctreeScratch::new(), OctreeScratch::new()];
        let mut prevs = [PreviousFrame::new(), PreviousFrame::new()];
        let mut shared = OctreeScratch::new();
        for frame in 0..4 {
            for (s, extent) in [9.0f32, 13.0].into_iter().enumerate() {
                let cloud = stream(extent, frame as f32 * 0.5);
                let expect = Octree::build_with_scratch(&cloud, cfg, &mut own[s]).unwrap();
                shared.swap_previous(&mut prevs[s]);
                let got = Octree::build_with_scratch(&cloud, cfg, &mut shared).unwrap();
                shared.swap_previous(&mut prevs[s]);
                assert_eq!(got.build_stats(), expect.build_stats(), "frame {frame}");
                assert_eq!(got.build_stats().reused, frame > 0);
                assert_trees_bit_identical(&got, &expect);
                shared.recycle(got);
            }
        }
        // Between frames the shared scratch holds no stream's frame, and an
        // empty previous frame prices the next build in full.
        let cloud = stream(9.0, 0.0);
        assert!(
            !Octree::build_with_scratch(&cloud, cfg, &mut shared)
                .unwrap()
                .build_stats()
                .reused
        );
        prevs[0] = PreviousFrame::new();
        shared.swap_previous(&mut prevs[0]);
        assert!(
            !Octree::build_with_scratch(&cloud, cfg, &mut shared)
                .unwrap()
                .build_stats()
                .reused
        );
    }

    #[test]
    fn build_refuses_more_points_than_a_u32_indexes() {
        // No test can allocate such a frame: this is the check
        // `build_with_scratch` runs before any other work.
        let max = u32::MAX as usize;
        assert_eq!(
            check_frame(max + 1, OctreeConfig::default()),
            Err(OctreeError::TooManyPoints {
                points: max + 1,
                max
            })
        );
        assert_eq!(check_frame(max, OctreeConfig::default()), Ok(()));
    }

    #[test]
    fn sort_skips_digits_every_key_shares() {
        // The first pass sizes the first word buffer and the second pass
        // the second, so their lengths say how many passes ran. Both word
        // widths: 30 key bits pack into a `u64`, 63 need a `u128`.
        fn check<W: SortWord>(key_bits: u32) {
            let sort = |raw: &[u64], key_bits| {
                let mut words: [Vec<W>; 2] = Default::default();
                let (mut perm, mut sorted) = (vec![7; 3], vec![7; 9]);
                sort_along_sfc(raw, key_bits, &mut words, &mut perm, &mut sorted);
                (sorted, perm, words.map(|w| w.len()))
            };
            let mask = (1u64 << key_bits) - 1;

            // All keys equal, and no key bits: no pass, the identity.
            for (raw, bits) in [
                (vec![0x1234_5678_9abc & mask; 5], key_bits),
                (vec![0; 5], 0),
            ] {
                let (sorted, perm, lens) = sort(&raw, bits);
                assert_eq!(sorted, raw);
                assert_eq!(perm, [0, 1, 2, 3, 4]);
                assert_eq!(
                    lens,
                    [0, 0],
                    "{key_bits}-bit keys, {bits} of them sorted on"
                );
            }

            // Keys that differ in one digit only, the others shared (and
            // not zero): one pass, ties in raw order.
            let digit_mask = (BUCKETS as u64 - 1) << DIGIT_BITS;
            let shared = 0x7fed_cba9_8765_0021 & mask & !digit_mask;
            let raw: Vec<u64> = [9u64, 3, 9, 0, 3]
                .into_iter()
                .map(|d| shared | d << DIGIT_BITS)
                .collect();
            let (sorted, perm, lens) = sort(&raw, key_bits);
            assert_eq!(perm, [3, 1, 4, 0, 2]);
            assert_eq!(
                sorted,
                perm.iter().map(|&i| raw[i as usize]).collect::<Vec<_>>()
            );
            assert_eq!(lens, [5, 0], "{key_bits} key bits, one digit differs");
        }
        check::<u64>(30);
        check::<u128>(63);
    }

    #[test]
    fn duplicate_points_share_leaf() {
        let mut cloud = PointCloud::new();
        for _ in 0..10 {
            cloud.push(Point3::splat(0.5));
        }
        let tree =
            Octree::build(&cloud, OctreeConfig::new().max_depth(4).leaf_capacity(1)).unwrap();
        // All duplicates collapse into one deep leaf of 10 points.
        let leaf = tree.leaf_for(Point3::splat(0.5)).unwrap();
        assert_eq!(tree.node(leaf).point_count(), 10);
    }
}

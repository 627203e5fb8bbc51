//! Morton codes ("m-codes") and the space-filling-curve order.
//!
//! The paper's octree labels every voxel with an m-code: 3 new bits per
//! subdivision level (2 in the quadtree illustration of Fig. 5), where the
//! first bit is the X half, the second the Y half and the third the Z half
//! of the parent voxel. The concatenated code of a voxel at level `L` is the
//! `3·L`-bit path from the root; sorting leaf codes lexicographically yields
//! the SFC traversal order used to linearize the frame in host memory.
//!
//! The Down-sampling Unit measures "distance" between two voxels as the
//! **Hamming distance of their m-codes** ([`MortonCode::hamming_distance`]) —
//! an XOR + popcount that the paper's Sampling Modules evaluate in one cycle
//! (§V-B, Fig. 7).
//!
//! Two encoders produce the same bits: [`MortonCode::encode`] walks one
//! point down the halvings of the root, and [`FrameEncoder`] tabulates
//! those halvings once per frame and looks every point up in them, on the
//! fastest [`EncodeBody`] the CPU supports.

use std::cmp::Ordering;
use std::fmt;

use crate::{Aabb, Octant, Point3};

/// Maximum supported octree depth (21 levels × 3 bits = 63 bits ≤ u64).
pub const MAX_LEVEL: u8 = 21;

/// A variable-level Morton code: the path of [`Octant`] choices from the
/// octree root down to a voxel.
///
/// `level == 0` is the root voxel (empty code). Codes at different levels
/// are *different voxels* even when one prefixes the other.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{MortonCode, Octant};
///
/// let root = MortonCode::root();
/// let v = root.child(Octant::new(0b110).unwrap());
/// assert_eq!(v.level(), 1);
/// assert_eq!(v.to_string(), "110");
/// assert_eq!(v.parent(), Some(root));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MortonCode {
    bits: u64,
    level: u8,
}

impl MortonCode {
    /// The root voxel's (empty) code.
    #[inline]
    pub const fn root() -> MortonCode {
        MortonCode { bits: 0, level: 0 }
    }

    /// Builds a code from raw bits and a level.
    ///
    /// # Panics
    ///
    /// Panics if `level > MAX_LEVEL` or if `bits` has set bits above
    /// `3 * level`.
    #[inline]
    pub fn from_bits(bits: u64, level: u8) -> MortonCode {
        assert!(
            level <= MAX_LEVEL,
            "level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        );
        assert!(
            bits >> (3 * level) == 0,
            "bits 0x{bits:x} wider than 3*{level}"
        );
        MortonCode { bits, level }
    }

    /// Raw code bits (the low `3 * level()` bits).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Depth of the voxel below the root.
    #[inline]
    pub fn level(self) -> u8 {
        self.level
    }

    /// The code of the child voxel in the given octant.
    ///
    /// # Panics
    ///
    /// Panics if the code is already at [`MAX_LEVEL`].
    #[inline]
    pub fn child(self, octant: Octant) -> MortonCode {
        assert!(self.level < MAX_LEVEL, "cannot descend below MAX_LEVEL");
        MortonCode {
            bits: (self.bits << 3) | u64::from(octant.index()),
            level: self.level + 1,
        }
    }

    /// The parent voxel's code, or `None` for the root.
    #[inline]
    pub fn parent(self) -> Option<MortonCode> {
        (self.level > 0).then(|| MortonCode {
            bits: self.bits >> 3,
            level: self.level - 1,
        })
    }

    /// The octant this voxel occupies inside its parent, or `None` for the
    /// root.
    #[inline]
    pub fn octant_in_parent(self) -> Option<Octant> {
        (self.level > 0).then(|| Octant::new((self.bits & 0b111) as u8).expect("3-bit value"))
    }

    /// The ancestor voxel at `level` (`ancestor_at(level()) == self`).
    ///
    /// # Panics
    ///
    /// Panics if `level > self.level()`.
    #[inline]
    pub fn ancestor_at(self, level: u8) -> MortonCode {
        assert!(
            level <= self.level,
            "ancestor level {level} below own level {}",
            self.level
        );
        MortonCode {
            bits: self.bits >> (3 * (self.level - level)),
            level,
        }
    }

    /// Hamming distance between two codes **at the same level**: the popcount
    /// of their XOR. This is the voxel-distance proxy evaluated by each
    /// Sampling Module (one XOR, Fig. 7(a)).
    ///
    /// # Panics
    ///
    /// Panics if the levels differ.
    #[inline]
    pub fn hamming_distance(self, other: MortonCode) -> u32 {
        assert_eq!(
            self.level, other.level,
            "Hamming distance requires equal levels"
        );
        (self.bits ^ other.bits).count_ones()
    }

    /// The code of the voxel at `level` containing point `p` inside `root`.
    ///
    /// Descends `level` subdivisions, picking the octant of `p` each time —
    /// the per-point walk of the Octree-build Unit (§V-A). The octant test
    /// is separable (`p.x >= c.x`, `p.y >= c.y`, `p.z >= c.z` with
    /// `c = (min + max) * 0.5`), so each axis is halved on its own and the
    /// three bit strings are interleaved; the arithmetic per axis is that of
    /// [`Aabb::octant_of`] + [`Aabb::octant_bounds`], hence so are the bits.
    /// A whole frame goes through [`FrameEncoder`], which returns the same
    /// codes.
    ///
    /// # Panics
    ///
    /// Panics if `level > MAX_LEVEL`, or if a voxel midpoint on the way down
    /// is not finite (the sum of two huge corners overflowed), where
    /// [`Aabb::octant_bounds`] refuses to build the child box.
    pub fn encode(p: Point3, root: &Aabb, level: u8) -> MortonCode {
        assert!(
            level <= MAX_LEVEL,
            "level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        );
        let (min, max) = (root.min(), root.max());
        MortonCode::interleave(
            descend_axis(p.x, min.x, max.x, level),
            descend_axis(p.y, min.y, max.y, level),
            descend_axis(p.z, min.z, max.z, level),
            level,
        )
    }

    /// The bounds of this voxel inside `root`.
    pub fn decode_bounds(self, root: &Aabb) -> Aabb {
        let mut voxel = *root;
        for lvl in 1..=self.level {
            let shift = 3 * (self.level - lvl);
            let oct = Octant::new(((self.bits >> shift) & 0b111) as u8).expect("3-bit value");
            voxel = voxel.octant_bounds(oct);
        }
        voxel
    }

    /// Integer grid coordinates `(x, y, z)` of this voxel at its own level
    /// (each in `0..2^level`), de-interleaved from the code bits with the
    /// standard parallel-bit (magic-mask) Morton decode — equivalent to
    /// the per-level loop it replaced, but constant-time; this runs once
    /// per scoreboard voxel per OIS pick and once per shell voxel in VEG,
    /// which made the bit-loop a measurable share of the serving floor.
    pub fn grid_coords(self) -> (u32, u32, u32) {
        (
            compact_every_third_bit(self.bits >> 2),
            compact_every_third_bit(self.bits >> 1),
            compact_every_third_bit(self.bits),
        )
    }

    /// Builds the code at `level` from integer grid coordinates by bit
    /// interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `level > MAX_LEVEL` or any coordinate is `>= 2^level`.
    pub fn from_grid_coords(x: u32, y: u32, z: u32, level: u8) -> MortonCode {
        assert!(
            level <= MAX_LEVEL,
            "level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        );
        let limit = 1u64 << level;
        assert!(
            u64::from(x) < limit && u64::from(y) < limit && u64::from(z) < limit,
            "grid coords ({x},{y},{z}) out of range for level {level}"
        );
        MortonCode::interleave(x, y, z, level)
    }

    /// Bit-interleaves per-axis cell indices already known to be
    /// `< 2^level`.
    #[inline]
    fn interleave(x: u32, y: u32, z: u32, level: u8) -> MortonCode {
        MortonCode {
            bits: interleave_bits(x, y, z),
            level,
        }
    }

    /// Chebyshev (max-axis) grid distance to `other` at the same level —
    /// the shell index used by VEG voxel expansion (§VI): shell 1 contains
    /// all voxels *touching* the seed voxel.
    ///
    /// # Panics
    ///
    /// Panics if the levels differ.
    pub fn chebyshev_distance(self, other: MortonCode) -> u32 {
        assert_eq!(
            self.level, other.level,
            "Chebyshev distance requires equal levels"
        );
        let (ax, ay, az) = self.grid_coords();
        let (bx, by, bz) = other.grid_coords();
        let d = |a: u32, b: u32| a.abs_diff(b);
        d(ax, bx).max(d(ay, by)).max(d(az, bz))
    }
}

/// The code bits of per-axis cell indices: x in the top bit of each triple,
/// then y, then z.
#[inline]
fn interleave_bits(x: u32, y: u32, z: u32) -> u64 {
    (spread_every_third_bit(x) << 2) | (spread_every_third_bit(y) << 1) | spread_every_third_bit(z)
}

/// One axis of the octant descent: halves `[lo, hi]` toward `v` `levels`
/// times and returns the high/low choices, first choice in the top bit.
/// A coordinate on a splitting plane goes high; a NaN compares low.
#[inline]
fn descend_axis(v: f32, mut lo: f32, mut hi: f32, levels: u8) -> u32 {
    let mut cell = 0u32;
    for _ in 0..levels {
        let mid = (lo + hi) * 0.5;
        // What `Aabb::new` asserts of every child box the walk builds; the
        // other corners are the parent's, and `lo <= mid <= hi` follows
        // from rounding being monotone.
        assert!(mid.is_finite(), "AABB corners must be finite");
        let high = u32::from(v >= mid);
        cell = cell << 1 | high;
        // `high` is a coin flip per level, so moving `mid` into `lo` or
        // `hi` is a bit select: as a branch it mispredicts half the time
        // and the walk runs 2-3x slower.
        let mask = high.wrapping_neg();
        lo = f32::from_bits((mid.to_bits() & mask) | (lo.to_bits() & !mask));
        hi = f32::from_bits((hi.to_bits() & mask) | (mid.to_bits() & !mask));
    }
    cell
}

/// Levels a [`FrameEncoder`] resolves by table lookup. Ten is the default
/// octree depth and keeps the table at `3 × 1025` `f32` (12 KiB,
/// L1-resident) whatever the requested level.
const TABLE_LEVELS: u8 = 10;

/// The body a [`FrameEncoder`] runs. Every body returns the bits of
/// [`MortonCode::encode`] for every point; they differ only in speed.
/// [`FrameEncoder::new`] takes the fastest the CPU supports, the way the
/// PCN crate's GEMM kernel is picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EncodeBody {
    /// One point at a time: a quantised guess into the boundary table,
    /// checked against the table, with a binary search when it is off.
    /// Runs on every CPU, and runs every frame whose table is not finite.
    Scalar,
    /// Sixteen points per step: the scalar body's guess and check in
    /// AVX-512F vectors, the interleave by BMI2 `pdep`; a lane whose guess
    /// fails the check takes the scalar lookup. Compiled on `x86_64`; only
    /// supported when CPUID reports AVX-512F and BMI2.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl EncodeBody {
    /// Every body compiled into this build, fastest last. Sweep this
    /// (filtered by [`EncodeBody::is_supported`]) in equivalence tests.
    pub fn all() -> &'static [EncodeBody] {
        &[
            EncodeBody::Scalar,
            #[cfg(target_arch = "x86_64")]
            EncodeBody::Avx512,
        ]
    }

    /// Whether the running CPU can execute this body.
    pub fn is_supported(self) -> bool {
        match self {
            EncodeBody::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            EncodeBody::Avx512 => avx512::is_supported(),
        }
    }

    /// The fastest body the running CPU supports.
    pub fn fastest_supported() -> EncodeBody {
        EncodeBody::all()
            .iter()
            .rev()
            .copied()
            .find(|body| body.is_supported())
            .unwrap_or(EncodeBody::Scalar)
    }
}

/// Encodes every point of a frame against one root, bit-identical to
/// calling [`MortonCode::encode`] per point.
///
/// The walk's midpoints depend on the root alone, not on the point, so
/// [`encode_frame`](FrameEncoder::encode_frame) computes them once per
/// frame by the walk's own recurrence `mid = (lo + hi) * 0.5`: per axis,
/// the sorted boundaries of the `2^t` cells of the first
/// `t = min(level, 10)` levels. The walk is a binary search of that
/// non-decreasing table, so a coordinate's cell is the number of interior
/// boundaries `<= v`; a quantised guess `(v - min) * cells / extent` lands
/// on it almost always and is checked against the exact entries, with a
/// binary search of them when it is off (rounding next to a boundary,
/// degenerate or denormal extents, points outside the root). Any guess
/// that passes the check is that count, so how the guess is computed
/// moves only speed. Levels past the table continue with the scalar walk
/// from the cell's two entries. Same recurrence, same comparisons,
/// therefore the same bits, from every [`EncodeBody`].
///
/// If any tabulated boundary is not finite the frame is walked from the
/// root point by point, on the scalar body, so a point whose path meets
/// the overflowed midpoint panics exactly as [`MortonCode::encode`] does
/// and the others get their codes.
///
/// The encoder holds only the table's storage, refilled on every call, so
/// one instance per stream avoids a per-frame allocation.
#[derive(Clone, Debug)]
pub struct FrameEncoder {
    /// The x, y and z boundary runs back to back, `cells + 1` entries each.
    bounds: Vec<f32>,
    body: EncodeBody,
}

impl Default for FrameEncoder {
    fn default() -> FrameEncoder {
        FrameEncoder::new()
    }
}

impl FrameEncoder {
    /// Creates an encoder on the fastest body the CPU supports, with no
    /// table storage yet.
    pub fn new() -> FrameEncoder {
        FrameEncoder::with_body(EncodeBody::fastest_supported())
    }

    /// Creates an encoder pinned to `body`.
    ///
    /// # Panics
    ///
    /// Panics if the running CPU does not support `body`.
    pub fn with_body(body: EncodeBody) -> FrameEncoder {
        assert!(body.is_supported(), "{body:?} encoder on a CPU without it");
        FrameEncoder {
            bounds: Vec::new(),
            body,
        }
    }

    /// Replaces the contents of `out` with the [bits](MortonCode::bits) of
    /// the code at `level` of every point of `points` inside `root`, in
    /// order. Every code of a frame is at `level`, so the bits alone order
    /// the frame along the SFC and `MortonCode::from_bits(bits, level)`
    /// restores the code.
    ///
    /// # Panics
    ///
    /// As [`MortonCode::encode`] would on the same inputs.
    ///
    /// # Examples
    ///
    /// ```
    /// use hgpcn_geometry::morton::FrameEncoder;
    /// use hgpcn_geometry::{Aabb, MortonCode, Point3};
    ///
    /// let root = Aabb::unit();
    /// let frame = [Point3::new(0.9, 0.2, 0.6), Point3::splat(0.5)];
    /// let mut bits = Vec::new();
    /// FrameEncoder::new().encode_frame(frame, &root, 12, &mut bits);
    /// assert_eq!(bits[0], MortonCode::encode(frame[0], &root, 12).bits());
    /// assert_eq!(bits[1], MortonCode::encode(frame[1], &root, 12).bits());
    /// ```
    pub fn encode_frame(
        &mut self,
        points: impl AsRef<[Point3]>,
        root: &Aabb,
        level: u8,
        out: &mut Vec<u64>,
    ) {
        assert!(
            level <= MAX_LEVEL,
            "level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
        );
        let points = points.as_ref();
        let mut table_levels = level.min(TABLE_LEVELS);
        let finite = self.tabulate(root, table_levels);
        if !finite {
            // A table of the root alone: every level is left to the walk.
            table_levels = 0;
            self.tabulate(root, 0);
        }
        let cells = 1usize << table_levels;
        let extent = root.extent();
        let n = cells as f32;
        let (xs, rest) = self.bounds.split_at(cells + 1);
        let (ys, zs) = rest.split_at(cells + 1);
        let table = Table {
            runs: [xs, ys, zs],
            scale: [n / extent.x, n / extent.y, n / extent.z],
            tail_levels: level - table_levels,
        };
        out.clear();
        match self.body {
            #[cfg(target_arch = "x86_64")]
            EncodeBody::Avx512 if finite => avx512::encode_frame(&table, points, out),
            _ => out.extend(points.iter().map(|&p| table.code(p))),
        }
    }

    /// Fills `bounds` with each axis's cell boundaries after `levels`
    /// halvings of `root`; `false` if any of them is not finite.
    fn tabulate(&mut self, root: &Aabb, levels: u8) -> bool {
        let cells = 1usize << levels;
        let (min, max) = (root.min(), root.max());
        self.bounds.clear();
        self.bounds.resize(3 * (cells + 1), 0.0);
        let ends = [(min.x, max.x), (min.y, max.y), (min.z, max.z)];
        for (run, (lo, hi)) in self.bounds.chunks_exact_mut(cells + 1).zip(ends) {
            run[0] = lo;
            run[cells] = hi;
            let mut stride = cells;
            while stride > 1 {
                let half = stride / 2;
                for i in (0..cells).step_by(stride) {
                    run[i + half] = (run[i] + run[i + stride]) * 0.5;
                }
                stride = half;
            }
        }
        self.bounds.iter().all(|b| b.is_finite())
    }
}

/// One frame's boundary table, as every [`EncodeBody`] reads it.
struct Table<'a> {
    /// Per axis, the `cells + 1` non-decreasing boundaries.
    runs: [&'a [f32]; 3],
    /// Per axis, `cells / extent`: the quantised guess's scale.
    scale: [f32; 3],
    /// Levels past the table, walked from a cell's two boundaries.
    tail_levels: u8,
}

impl Table<'_> {
    /// The code bits of `p`.
    #[inline]
    fn code(&self, p: Point3) -> u64 {
        interleave_bits(self.cell(0, p.x), self.cell(1, p.y), self.cell(2, p.z))
    }

    /// The cell of `v` along `axis`: the table cell (the count of interior
    /// boundaries of the axis's run that are `<= v`) extended by the tail
    /// levels.
    #[inline]
    fn cell(&self, axis: usize, v: f32) -> u32 {
        let run = self.runs[axis];
        let last = run.len() - 2;
        // The float-to-int cast saturates and sends NaN to 0, so any
        // `scale` (infinite for a zero extent) still yields an index to
        // check.
        let guess = (((v - run[0]) * self.scale[axis]) as i64).clamp(0, last as i64) as usize;
        let cell = if (guess == 0 || run[guess] <= v) && (guess == last || v < run[guess + 1]) {
            guess
        } else {
            run[1..=last].partition_point(|&b| b <= v)
        };
        self.descend(axis, v, cell)
    }

    /// Table cell `cell` of `v` along `axis`, extended by the tail levels'
    /// halvings of that cell.
    #[inline]
    fn descend(&self, axis: usize, v: f32, cell: usize) -> u32 {
        let run = self.runs[axis];
        (cell as u32) << self.tail_levels
            | descend_axis(v, run[cell], run[cell + 1], self.tail_levels)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512;

/// Gathers every third bit of `v` (positions 0, 3, 6, …) into a dense
/// low-order integer — the Morton de-interleave for one axis, done with
/// the classic magic-mask reduction instead of a per-bit loop. Inverse
/// of [`spread_every_third_bit`].
#[inline]
fn compact_every_third_bit(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x001f_ffff;
    x as u32
}

/// Spreads the low 21 bits of `v` so bit `i` lands at position `3 i` —
/// the Morton interleave for one axis. Inverse of
/// [`compact_every_third_bit`].
#[inline]
fn spread_every_third_bit(v: u32) -> u64 {
    let mut x = u64::from(v) & 0x001f_ffff;
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

impl PartialOrd for MortonCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MortonCode {
    /// SFC order: compares the shared-depth prefixes first, then lets the
    /// shallower (ancestor) code come first. Restricted to codes of a single
    /// level this is plain lexicographic order of the octant paths.
    fn cmp(&self, other: &Self) -> Ordering {
        let common = self.level.min(other.level);
        let a = self.bits >> (3 * (self.level - common));
        let b = other.bits >> (3 * (other.level - common));
        a.cmp(&b).then(self.level.cmp(&other.level))
    }
}

impl fmt::Debug for MortonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MortonCode({self})")
    }
}

impl fmt::Display for MortonCode {
    /// Renders the code as the concatenated 3-bit octant labels, e.g.
    /// `"110101"` for a level-2 voxel; the root renders as `"ε"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.level == 0 {
            return write!(f, "ε");
        }
        for lvl in 1..=self.level {
            let shift = 3 * (self.level - lvl);
            write!(f, "{:03b}", (self.bits >> shift) & 0b111)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_parent_round_trip() {
        let mut code = MortonCode::root();
        for oct in [3u8, 7, 0, 5] {
            code = code.child(Octant::new(oct).unwrap());
        }
        assert_eq!(code.level(), 4);
        assert_eq!(code.octant_in_parent().unwrap().index(), 5);
        let back = code
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        assert_eq!(back, MortonCode::root());
        assert!(MortonCode::root().parent().is_none());
    }

    #[test]
    fn encode_decode_bounds_contains_point() {
        let root = Aabb::unit();
        let p = Point3::new(0.3, 0.7, 0.1);
        for level in 0..8 {
            let code = MortonCode::encode(p, &root, level);
            assert!(code.decode_bounds(&root).contains(p), "level {level}");
        }
    }

    #[test]
    fn grid_coords_round_trip() {
        for level in 1..6u8 {
            let n = 1u32 << level;
            for (x, y, z) in [(0, 0, 0), (n - 1, n - 1, n - 1), (1 % n, n / 2, n - 1)] {
                let code = MortonCode::from_grid_coords(x, y, z, level);
                assert_eq!(code.grid_coords(), (x, y, z));
            }
        }
    }

    #[test]
    fn hamming_distance_is_xor_popcount() {
        let a = MortonCode::from_bits(0b000_000, 2);
        let b = MortonCode::from_bits(0b110_101, 2);
        assert_eq!(a.hamming_distance(b), 4);
        assert_eq!(a.hamming_distance(a), 0);
    }

    #[test]
    #[should_panic(expected = "equal levels")]
    fn hamming_distance_level_mismatch_panics() {
        let a = MortonCode::from_bits(0b000, 1);
        let b = MortonCode::from_bits(0b000_000, 2);
        let _ = a.hamming_distance(b);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn from_bits_checks_width_at_max_level() {
        // 3 * 21 = 63 is a legal shift: bit 63 is above a MAX_LEVEL code.
        let _ = MortonCode::from_bits(1 << 63, MAX_LEVEL);
    }

    #[test]
    fn chebyshev_shell_of_touching_voxels_is_one() {
        let level = 3;
        let seed = MortonCode::from_grid_coords(3, 3, 3, level);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let n = MortonCode::from_grid_coords(
                        (3 + dx) as u32,
                        (3 + dy) as u32,
                        (3 + dz) as u32,
                        level,
                    );
                    assert_eq!(seed.chebyshev_distance(n), 1);
                }
            }
        }
    }

    #[test]
    fn sfc_order_matches_octant_paths() {
        let root = MortonCode::root();
        let a = root
            .child(Octant::new(0).unwrap())
            .child(Octant::new(7).unwrap());
        let b = root
            .child(Octant::new(1).unwrap())
            .child(Octant::new(0).unwrap());
        assert!(a < b);
        // An ancestor precedes its descendants.
        let anc = root.child(Octant::new(1).unwrap());
        assert!(anc < b);
        assert!(a < anc);
    }

    #[test]
    fn ancestor_at_prefix() {
        let root = Aabb::unit();
        let code = MortonCode::encode(Point3::new(0.9, 0.2, 0.6), &root, 6);
        let anc = code.ancestor_at(2);
        assert_eq!(anc.level(), 2);
        assert_eq!(code.ancestor_at(6), code);
        assert!(anc
            .decode_bounds(&root)
            .contains(Point3::new(0.9, 0.2, 0.6)));
    }

    #[test]
    fn display_renders_bit_path() {
        let code = MortonCode::root()
            .child(Octant::new(0b110).unwrap())
            .child(Octant::new(0b011).unwrap());
        assert_eq!(code.to_string(), "110011");
        assert_eq!(MortonCode::root().to_string(), "ε");
    }

    #[test]
    fn the_fastest_supported_body_is_picked() {
        let body = EncodeBody::fastest_supported();
        assert!(body.is_supported());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            body == EncodeBody::Avx512,
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("bmi2")
        );
        assert_eq!(FrameEncoder::new().body, body);
    }

    #[test]
    fn encode_matches_manual_octants() {
        let root = Aabb::unit();
        // Point in the high-x/high-y/high-z corner: every level picks 0b111.
        let code = MortonCode::encode(Point3::splat(0.99), &root, 3);
        assert_eq!(code.bits(), 0b111_111_111);
    }
}

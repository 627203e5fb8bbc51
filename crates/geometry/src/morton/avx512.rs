//! The AVX-512 body of [`FrameEncoder`](super::FrameEncoder) (x86_64
//! only, selected by CPUID).
//!
//! Sixteen points per step. Three unaligned loads take the 48 coordinates
//! of sixteen `repr(C)` points, and two `vpermt2ps` per axis split them
//! into x, y and z vectors. Per axis, the scalar body's guess
//! `(v - run[0]) * scale` is truncated and clamped to a cell, the cell's
//! two boundaries are gathered from the table, and the exact check
//! `run[g] <= v < run[g + 1]` (either end waived at the outermost cells)
//! gives a lane mask. A guess that passes is the cell the scalar body
//! returns (see [`FrameEncoder`](super::FrameEncoder)), so the truncation
//! may differ from the scalar cast without moving a bit. When every lane
//! of every axis passes and the table covers every level, BMI2 `pdep`
//! interleaves the three cells; otherwise each lane finishes on the scalar
//! code, keeping the cells that passed and looking up the others. The
//! last `len % 16` points take the scalar body.
//!
//! Like the PCN crate's SIMD kernels, this module carries its own
//! `#![allow(unsafe_code)]` under the crate's `#![deny(unsafe_code)]`:
//! the `unsafe` is confined to the `target_feature` call gate and to
//! loads, gathers and stores at offsets the surrounding code has already
//! bounded, each with a `SAFETY:` note.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __mmask16, _mm512_add_epi32, _mm512_cmp_ps_mask, _mm512_cmpeq_epi32_mask, _mm512_cvttps_epi32,
    _mm512_i32gather_ps, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_max_epi32, _mm512_min_epi32,
    _mm512_mul_ps, _mm512_permutex2var_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_si512,
    _mm512_storeu_si512, _mm512_sub_ps, _pdep_u64, _CMP_LE_OQ, _CMP_LT_OQ,
};

use super::{interleave_bits, Table};
use crate::Point3;

/// Points per step.
const LANES: usize = 16;

/// Where each axis's cell bits go in a code: x in the top bit of every
/// triple, then y, then z (what `interleave_bits` computes).
const DEPOSIT: [u64; 3] = [
    0x4924_9249_2492_4924,
    0x2492_4924_9249_2492,
    0x1249_2492_4924_9249,
];

/// Whether the running CPU executes this body.
pub(super) fn is_supported() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("bmi2")
}

/// Dispatch wrapper: proves AVX-512F and BMI2 are available, then enters
/// the `target_feature` body. [`FrameEncoder::with_body`] has already
/// checked, but re-asserting keeps the unsafe call locally sound no matter
/// who calls.
///
/// Called on finite tables only: a frame whose table is not finite takes
/// the scalar walk, which panics where [`MortonCode::encode`] does.
///
/// [`FrameEncoder::with_body`]: super::FrameEncoder::with_body
/// [`MortonCode::encode`]: super::MortonCode::encode
pub(super) fn encode_frame(table: &Table<'_>, points: &[Point3], out: &mut Vec<u64>) {
    assert!(
        is_supported(),
        "AVX-512 Morton encoder on a CPU without AVX-512F and BMI2"
    );
    // Every table index the body gathers is clamped to `0..=last + 1`,
    // which must fit the `i32` lanes.
    assert!(table
        .runs
        .iter()
        .all(|run| run.len() >= 2 && run.len() <= i32::MAX as usize));
    // SAFETY: the assertions above establish both requirements of
    // `encode`; its memory accesses are bounded by the slices it gets.
    unsafe { encode(table, points, out) }
}

/// For lane `i`, the position of coordinate `axis` of point `i` among the
/// 48 floats of a step: `3 i + axis`. The first permute takes the lanes
/// whose position is below 32 from the first two loads; the second keeps
/// those and takes the others from the third load (bit 4 of an index picks
/// the second operand).
const fn split_indices(axis: usize) -> [[i32; LANES]; 2] {
    let mut idx = [[0; LANES]; 2];
    let mut i = 0;
    while i < LANES {
        let pos = 3 * i + axis;
        if pos < 32 {
            idx[0][i] = pos as i32;
            idx[1][i] = i as i32;
        } else {
            idx[1][i] = (pos - 32) as i32 | 16;
        }
        i += 1;
    }
    idx
}

const SPLIT: [[[i32; LANES]; 2]; 3] = [split_indices(0), split_indices(1), split_indices(2)];

/// The body: every point of `points`, 16 per step, appended to `out`.
///
/// # Safety
///
/// The CPU must support AVX-512F and BMI2 ([`is_supported`]), and every
/// run of `table` must hold at least two and at most `i32::MAX` floats.
#[target_feature(enable = "avx512f,bmi2")]
unsafe fn encode(table: &Table<'_>, points: &[Point3], out: &mut Vec<u64>) {
    out.reserve(points.len());
    let mut split = [[_mm512_setzero_si512(); 2]; 3];
    for (axis, idx) in SPLIT.iter().enumerate() {
        for (half, lanes) in idx.iter().enumerate() {
            // SAFETY: `lanes` is 16 `i32`s, one unaligned 512-bit load.
            split[axis][half] = _mm512_loadu_si512(lanes.as_ptr().cast());
        }
    }
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi32(1);
    // Per axis: the first boundary, the guess's scale and the last cell.
    let mut lo = [_mm512_set1_ps(0.0); 3];
    let mut scale = lo;
    let mut last = [zero; 3];
    for axis in 0..3 {
        let run = table.runs[axis];
        lo[axis] = _mm512_set1_ps(run[0]);
        scale[axis] = _mm512_set1_ps(table.scale[axis]);
        last[axis] = _mm512_set1_epi32((run.len() - 2) as i32);
    }

    let chunks = points.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut cells = [[0u32; LANES]; 3];
    let mut codes = [0u64; LANES];
    for chunk in chunks {
        let base = chunk.as_ptr().cast::<f32>();
        // SAFETY: `Point3` is `repr(C)` over three `f32`s, so the 16
        // points of `chunk` are 48 consecutive `f32`s starting at `base`;
        // each load reads 16 of them.
        let raw = [
            _mm512_loadu_ps(base),
            _mm512_loadu_ps(base.add(LANES)),
            _mm512_loadu_ps(base.add(2 * LANES)),
        ];
        let mut ok: [__mmask16; 3] = [0; 3];
        for axis in 0..3 {
            let [first, second] = split[axis];
            let v = _mm512_permutex2var_ps(
                _mm512_permutex2var_ps(raw[0], first, raw[1]),
                second,
                raw[2],
            );
            let run = table.runs[axis];
            let guess = _mm512_cvttps_epi32(_mm512_mul_ps(_mm512_sub_ps(v, lo[axis]), scale[axis]));
            // Out-of-range and NaN products truncate to `i32::MIN`, which
            // clamps to cell 0 like the scalar cast's 0.
            let guess = _mm512_min_epi32(_mm512_max_epi32(guess, zero), last[axis]);
            // SAFETY: every lane of `guess` is in `0..=last`, and `run`
            // holds `last + 2` floats, so both gathers stay inside it.
            let below = _mm512_i32gather_ps::<4>(guess, run.as_ptr().cast());
            let above = _mm512_i32gather_ps::<4>(_mm512_add_epi32(guess, one), run.as_ptr().cast());
            // Ordered compares: a NaN coordinate fails both, as `<=` and
            // `<` do in the scalar check.
            ok[axis] = (_mm512_cmpeq_epi32_mask(guess, zero)
                | _mm512_cmp_ps_mask::<_CMP_LE_OQ>(below, v))
                & (_mm512_cmpeq_epi32_mask(guess, last[axis])
                    | _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, above));
            // SAFETY: `cells[axis]` is 16 `u32`s, one unaligned 512-bit
            // store.
            _mm512_storeu_si512(cells[axis].as_mut_ptr().cast(), guess);
        }
        if ok == [!0; 3] && table.tail_levels == 0 {
            for (lane, code) in codes.iter_mut().enumerate() {
                *code = _pdep_u64(u64::from(cells[0][lane]), DEPOSIT[0])
                    | _pdep_u64(u64::from(cells[1][lane]), DEPOSIT[1])
                    | _pdep_u64(u64::from(cells[2][lane]), DEPOSIT[2]);
            }
        } else {
            for (lane, (code, p)) in codes.iter_mut().zip(chunk).enumerate() {
                let cell = |axis: usize, v: f32| {
                    if ok[axis] >> lane & 1 == 1 {
                        table.descend(axis, v, cells[axis][lane] as usize)
                    } else {
                        table.cell(axis, v)
                    }
                };
                *code = interleave_bits(cell(0, p.x), cell(1, p.y), cell(2, p.z));
            }
        }
        out.extend_from_slice(&codes);
    }
    out.extend(tail.iter().map(|&p| table.code(p)));
}

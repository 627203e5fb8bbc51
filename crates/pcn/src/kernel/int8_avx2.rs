//! The explicit-AVX2 int8 GEMM backend (`simd` feature, x86_64 only).
//!
//! Strategy: pairs of quantized inputs stream through `vpmaddwd`
//! (`_mm256_madd_epi16`), which multiplies eight adjacent i16 pairs and
//! adds each pair **exactly** into an i32 lane — with i8-range operands
//! (|v| ≤ 127) a pair sum is at most 2·127² = 32 258, nowhere near
//! overflowing the i32, so every step is exact integer arithmetic.
//! This is the `maddubs`-shaped dataflow commercial int8 kernels use,
//! but on widened i16 operands: `vpmaddubsw` itself *saturates* its
//! i16 pair sums (255·127 + 255·127 > i16::MAX), which would silently
//! break bit-equivalence with the scalar backend; `vpmaddwd` pays one
//! widening conversion per weight load to stay exact.
//!
//! Because integer addition modulo 2³² is associative and commutative,
//! the SIMD accumulation order does not have to mimic the scalar loop —
//! the accumulators land on identical bits regardless (the f32 kernels
//! never get this luxury). The only f32 arithmetic is the fused
//! requantize+ReLU store, computed with the same single-rounded
//! expression per element as the scalar backend
//! (`acc as f32 * scale[j] + bias[j]`, then `max(+0.0, ·)`), so the
//! final output is bit-identical too.
//!
//! Layout per 4-row × 16-column register tile: weight rows `i` and
//! `i+1` are widened to i16 and interleaved
//! (`[w_i[c], w_{i+1}[c], …]`), each activation pair is broadcast as a
//! packed `(x_i, x_{i+1})` i32, and one `vpmaddwd` per 8 columns
//! yields `x_i·w_i[c] + x_{i+1}·w_{i+1}[c]`. The interleave scrambles
//! column order across the two 128-bit halves; a pair of
//! `vperm2i128`s at store time puts the eight-column groups back in
//! row-major order. Column remainders (< 16) fall back to a scalar
//! loop identical to the reference backend — exact by integer
//! associativity. All-zero activation pairs are skipped (`0·w ≡ 0`,
//! so the ReLU-sparsity shortcut stays a pure speed choice).
//!
//! Like `avx2.rs` and `avx512.rs`, this module carries its own
//! sanctioned `#![allow(unsafe_code)]`; every intrinsic call sits
//! behind slice arithmetic that the surrounding loop bounds have
//! already checked, with a `SAFETY:` note at each site.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16,
    _mm256_loadu_ps, _mm256_madd_epi16, _mm256_max_ps, _mm256_mul_ps, _mm256_permute2x128_si256,
    _mm256_set1_epi32, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps,
    _mm256_unpackhi_epi16, _mm256_unpacklo_epi16, _mm_loadu_si128,
};

use super::QuantTask;

/// Dispatch wrapper: proves AVX2 is available, then enters the
/// `target_feature` kernel. The caller
/// ([`Int8Kernel::run`](super::Int8Kernel::run)) has already verified
/// detection, but re-asserting keeps the unsafe call locally sound no
/// matter who calls.
pub(super) fn run(task: &QuantTask<'_>, y: &mut [f32]) {
    assert!(
        is_x86_feature_detected!("avx2"),
        "AVX2 int8 kernel on a CPU without AVX2"
    );
    // SAFETY: the assertion above guarantees the CPU executes AVX2;
    // `gemm` has no other safety requirements beyond its slice
    // invariants, which `QuantTask` construction and the shape asserts
    // in `Int8Kernel::apply` establish.
    unsafe { gemm(task, y) }
}

/// Widest input row the stack packing scratch covers, in *pairs*
/// (512 pairs = 1024 inputs — the same budget as `avx2.rs`'s
/// `COMPACT_CAP`; the workspace's widest layer input is 768 + 13).
/// Wider rows fall back to one heap scratch per GEMM call.
const PACK_CAP: usize = 512;

/// Packs one row's quantized activations into `vpmaddwd` operands:
/// each i32 holds a `(x[2p], x[2p+1])` pair as sign-extended i16
/// halves, a trailing odd input (or an empty row) padded with zero.
/// Every slot of `out` is overwritten — the scratch is reused across
/// row blocks.
#[inline]
fn pack_row(xr: &[i8], out: &mut [i32]) {
    for (p, slot) in out.iter_mut().enumerate() {
        let i = 2 * p;
        let lo = if i < xr.len() {
            xr[i] as i16 as u16 as u32
        } else {
            0
        };
        let hi = if i + 1 < xr.len() {
            xr[i + 1] as i16 as u16 as u32
        } else {
            0
        };
        *slot = (lo | (hi << 16)) as i32;
    }
}

/// The AVX2 int8 matmul. Safety requirement: the caller must ensure the
/// CPU supports AVX2 (enforced by [`run`]). All memory accesses stay
/// inside the task's slices: `x` is `rows × ins` i8, `w` is
/// `ins × outs` i8, `scale`/`bias` are `outs` f32, `y` is
/// `rows × outs`, and every vector load/store below is guarded by an
/// explicit `rb + 4 <= rows` / `jt + 16 <= outs` loop bound.
#[target_feature(enable = "avx2")]
unsafe fn gemm(task: &QuantTask<'_>, y: &mut [f32]) {
    let &QuantTask { x, rows, ins, .. } = task;
    // Each 4-row block pre-packs its activation pairs once (so the
    // packing cost is `ins / 2` scalar ops per row instead of being
    // re-paid inside every 16-column tile sweep) into a reused
    // scratch: stack for every shape the workspace networks produce,
    // one heap allocation per GEMM call only beyond `PACK_CAP`.
    let pairs = ins.div_ceil(2).max(1);
    let use_stack = pairs <= PACK_CAP;
    let mut stack = [[0i32; PACK_CAP]; 4];
    let mut heap: Vec<i32> = if use_stack {
        Vec::new()
    } else {
        vec![0i32; 4 * pairs]
    };
    let mut rb = 0usize;
    while rb + 4 <= rows {
        let xps: [&[i32]; 4] = if use_stack {
            for (r, row_buf) in stack.iter_mut().enumerate() {
                pack_row(
                    &x[(rb + r) * ins..(rb + r + 1) * ins],
                    &mut row_buf[..pairs],
                );
            }
            [
                &stack[0][..pairs],
                &stack[1][..pairs],
                &stack[2][..pairs],
                &stack[3][..pairs],
            ]
        } else {
            for (r, row_buf) in heap.chunks_mut(pairs).enumerate() {
                pack_row(&x[(rb + r) * ins..(rb + r + 1) * ins], row_buf);
            }
            let mut it = heap.chunks(pairs);
            [
                it.next().expect("4 chunks"),
                it.next().expect("4 chunks"),
                it.next().expect("4 chunks"),
                it.next().expect("4 chunks"),
            ]
        };
        // SAFETY: rb + 4 <= rows bounds the row block, and each xps[r]
        // holds `pairs` packed entries for row rb + r.
        unsafe { rows_tile::<4>(task, xps, y, rb) };
        rb += 4;
    }
    for r in rb..rows {
        let row_buf: &mut [i32] = if use_stack {
            &mut stack[0][..pairs]
        } else {
            &mut heap[..pairs]
        };
        pack_row(&x[r * ins..(r + 1) * ins], row_buf);
        // SAFETY: r < rows, and the packed row holds `pairs` entries.
        unsafe { rows_tile::<1>(task, [&*row_buf], y, r) };
    }
}

/// `R` rows (`rb..rb + R`) through one 16-column tile sweep plus the
/// scalar column tail, streaming the pre-packed activation pairs. `R`
/// is 4 on the blocked path (weight widening and interleaving amortize
/// over four rows) and 1 on the row remainder.
///
/// Safety requirement (beyond AVX2): `rb + R <= rows` and each
/// `xps[r]` holds row `rb + r`'s packed pairs, length
/// `ins.div_ceil(2).max(1)`.
#[target_feature(enable = "avx2")]
unsafe fn rows_tile<const R: usize>(
    task: &QuantTask<'_>,
    xps: [&[i32]; R],
    y: &mut [f32],
    rb: usize,
) {
    let &QuantTask {
        x,
        ins,
        w,
        outs,
        scale,
        bias,
        relu,
        ..
    } = task;
    let real_pairs = ins / 2; // pairs with both weight rows in bounds
    let mut jt = 0usize;
    while jt + 16 <= outs {
        // Per row: `lo` accumulates columns {0..3, 8..11} of the tile,
        // `hi` columns {4..7, 12..15} (the unpack interleave's lane
        // order); the store permutes them back.
        let mut acc_lo = [_mm256_setzero_si256(); R];
        let mut acc_hi = [_mm256_setzero_si256(); R];
        // `p` walks R parallel packed-pair rows at once (one per
        // accumulator), so an iterator over a single slice cannot
        // replace the index.
        #[allow(clippy::needless_range_loop)]
        for p in 0..real_pairs {
            let i = 2 * p;
            // SAFETY: i + 1 < ins, so rows i and i+1 of `w` each span
            // `outs` entries and jt + 16 <= outs keeps both 16-byte
            // loads inside them.
            let (va, vb) = unsafe {
                (
                    _mm256_cvtepi8_epi16(
                        _mm_loadu_si128(w.as_ptr().add(i * outs + jt) as *const _),
                    ),
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        w.as_ptr().add((i + 1) * outs + jt) as *const _
                    )),
                )
            };
            let w_lo = _mm256_unpacklo_epi16(va, vb);
            let w_hi = _mm256_unpackhi_epi16(va, vb);
            for r in 0..R {
                let pv = xps[r][p];
                if pv == 0 {
                    continue; // both activations are quantized zeros
                }
                let xv = _mm256_set1_epi32(pv);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(w_lo, xv));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(w_hi, xv));
            }
        }
        if ins % 2 == 1 {
            // The odd final input: its pair slot carries a zero in the
            // high half, so one madd against [w_last | 0-interleave]
            // contributes exactly x_last · w_last.
            let i = ins - 1;
            // SAFETY: i < ins bounds row i of `w`; jt + 16 <= outs.
            let va = unsafe {
                _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(i * outs + jt) as *const _))
            };
            let vb = _mm256_setzero_si256();
            let w_lo = _mm256_unpacklo_epi16(va, vb);
            let w_hi = _mm256_unpackhi_epi16(va, vb);
            for r in 0..R {
                let pv = xps[r][real_pairs];
                if pv == 0 {
                    continue;
                }
                let xv = _mm256_set1_epi32(pv);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(w_lo, xv));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(w_hi, xv));
            }
        }
        for r in 0..R {
            // Un-interleave: [lo.low128 | hi.low128] = columns jt..jt+8,
            // [lo.high128 | hi.high128] = columns jt+8..jt+16.
            let first = _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20);
            let second = _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31);
            // SAFETY: row rb + r of y spans `outs` elements and
            // jt + 16 <= outs; scale/bias are `outs` long.
            unsafe {
                let base = (rb + r) * outs + jt;
                store8(first, scale, bias, relu, y, base, jt);
                store8(second, scale, bias, relu, y, base + 8, jt + 8);
            }
        }
        jt += 16;
    }
    // Column tail (< 16 remaining, e.g. the 13-class head): the scalar
    // backend's 8-wide register tier plus a per-column remainder —
    // exact by integer associativity, so bit-equality is free.
    for r in 0..R {
        let xr = &x[(rb + r) * ins..(rb + r + 1) * ins];
        let yr = &mut y[(rb + r) * outs..(rb + r + 1) * outs];
        let mut jc = jt;
        while jc + 8 <= outs {
            let mut acc = [0i32; 8];
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0 {
                    continue;
                }
                let xi = i32::from(xi);
                let wr = &w[i * outs + jc..i * outs + jc + 8];
                for (a, &wij) in acc.iter_mut().zip(wr) {
                    *a = a.wrapping_add(xi * i32::from(wij));
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                let v = a as f32 * scale[jc + l] + bias[jc + l];
                yr[jc + l] = if relu && v < 0.0 { 0.0 } else { v };
            }
            jc += 8;
        }
        for j in jc..outs {
            let mut acc = 0i32;
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0 {
                    continue;
                }
                acc = acc.wrapping_add(i32::from(xi) * i32::from(w[i * outs + j]));
            }
            let v = acc as f32 * scale[j] + bias[j];
            yr[j] = if relu && v < 0.0 { 0.0 } else { v };
        }
    }
}

/// Requantizes one 8-lane i32 accumulator group and stores it:
/// `cvt(acc) · scale + bias`, optional `max(+0.0, ·)` — the same
/// single-rounded expression per element as the scalar backend (zero
/// operand first in the max, preserving NaN payloads and `-0.0`
/// exactly like the scalar `if v < 0.0` clamp).
///
/// Safety requirement (beyond AVX2): `col + 8 <= scale.len()` and
/// `base + 8 <= y.len()`.
#[target_feature(enable = "avx2")]
unsafe fn store8(
    acc: __m256i,
    scale: &[f32],
    bias: &[f32],
    relu: bool,
    y: &mut [f32],
    base: usize,
    col: usize,
) {
    // SAFETY: caller guarantees lanes [col, col+8) are inside
    // scale/bias and [base, base+8) inside y.
    unsafe {
        let sv = _mm256_loadu_ps(scale.as_ptr().add(col));
        let bv = _mm256_loadu_ps(bias.as_ptr().add(col));
        let mut v: __m256 = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), sv), bv);
        if relu {
            v = _mm256_max_ps(_mm256_setzero_ps(), v);
        }
        _mm256_storeu_ps(y.as_mut_ptr().add(base), v);
    }
}

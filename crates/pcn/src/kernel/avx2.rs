//! The explicit-AVX2 backend (x86_64 only, selected by CPUID).
//!
//! Vectorizes **across output columns**: each 8-lane `__m256`
//! accumulator owns 8 output elements, seeded from the bias and updated
//! once per non-zero input with `add(acc, mul(splat(xi), w[i, j..j+8]))`.
//! Because lanes never interact and the input index still streams in
//! ascending order with the same zero-skip as the scalar backends, every
//! output element sees exactly the reference accumulation sequence —
//! results are bit-identical, not approximately equal. One deliberate
//! instruction choice preserves that: separate `vmulps` + `vaddps`,
//! never FMA — a fused multiply-add rounds once where scalar code rounds
//! twice, which would change low bits. ReLU is `max(+0.0, acc)` with the
//! **zero operand first** — x86 `maxps` returns the second operand on
//! NaN and on `±0.0` ties, so this ordering propagates NaN and preserves
//! `-0.0` exactly like the scalar `if a < 0.0 { 0.0 }` clamp.
//!
//! Two row strategies, picked per 4-row block by measured non-zero
//! density (both bit-identical, so the chooser only moves time):
//!
//! * **near-dense** blocks take a 4-row × 16-column register tile: one
//!   weight load feeds four rows, and the rarely-taken skip branches
//!   predict perfectly;
//! * **sparse** blocks (post-ReLU activations are ~half exact zeros in
//!   an unpredictable pattern, where a mispredicted skip branch costs
//!   more than it saves) first compact each row's non-zeros into
//!   index/value scratch with a **branchless** scan, then stream the
//!   survivors of **two rows in lockstep** through 32/16/8-column tiles
//!   with no branches in the MAC loop at all. The pairing doubles the
//!   independent add-latency chains in flight (a single row's four
//!   accumulators leave half the FP issue width idle waiting on
//!   `vaddps` latency); each row still owns its accumulators and sees
//!   its own non-zeros in ascending index order, so the accumulation
//!   sequence is untouched.
//!
//! Column remainders end in a scalar tail that is byte-for-byte the
//! reference loop.
//!
//! This module is one of the crate's sanctioned holes in its
//! `#![deny(unsafe_code)]`: all `unsafe` is confined to loads/stores at
//! offsets the surrounding slice arithmetic has already bounds-checked,
//! plus the `target_feature` call gate, and each site carries a
//! `SAFETY:` note.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
    _mm256_maskstore_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::LinearTask;

/// Widest input row the sparse-compaction scratch covers (the largest
/// layer input in the workspace's networks is 768 + 13); wider rows fall
/// back to the branchy path, which is correct for any width.
const COMPACT_CAP: usize = 1024;

/// Dispatch wrapper: proves AVX2 is available, then enters the
/// `target_feature` kernel.
///
/// The caller ([`LinearKernel::run`](super::LinearKernel::run)) has
/// already verified `is_x86_feature_detected!("avx2")`, but this wrapper
/// re-asserts it so the unsafe call below is locally sound no matter
/// who calls.
pub(super) fn run(task: &LinearTask<'_>, y: &mut [f32]) {
    assert!(
        is_x86_feature_detected!("avx2"),
        "AVX2 kernel on a CPU without AVX2"
    );
    // SAFETY: the assertion above guarantees the CPU executes AVX2;
    // `gemm` has no other safety requirements beyond its slice
    // invariants, which `LinearTask` construction and the shape asserts
    // in `LinearKernel::apply` establish.
    unsafe { gemm(task, y) }
}

/// The AVX2 matmul. Safety requirement: the caller must ensure the CPU
/// supports AVX2 (enforced by [`run`]). All memory accesses stay inside
/// the task's slices: `x` is `rows × ins`, `w` is `ins × outs`, `bias`
/// is `outs`, `y` is `rows × outs`, and every vector load/store below
/// is guarded by an explicit `rb + 4 <= rows` / `jt + width <= outs`
/// loop bound.
#[target_feature(enable = "avx2")]
unsafe fn gemm(task: &LinearTask<'_>, y: &mut [f32]) {
    let &LinearTask { x, rows, ins, .. } = task;
    let mut idx = [0u32; COMPACT_CAP];
    let mut val = [0.0f32; COMPACT_CAP];
    let mut idx2 = [0u32; COMPACT_CAP];
    let mut val2 = [0.0f32; COMPACT_CAP];
    let compactable = ins <= COMPACT_CAP;
    let mut rb = 0usize;
    while rb + 4 <= rows {
        let quad = &x[rb * ins..(rb + 4) * ins];
        let nnz = quad.iter().filter(|&&v| v != 0.0).count();
        if !compactable || nnz * 10 >= quad.len() * 9 {
            // SAFETY: rb + 4 <= rows bounds the row block.
            unsafe { rows4(task, y, rb) };
        } else {
            // SAFETY: rb + 4 <= rows bounds both row pairs, and
            // ins <= COMPACT_CAP.
            unsafe {
                rows2_compact(task, y, rb, &mut idx, &mut val, &mut idx2, &mut val2);
                rows2_compact(task, y, rb + 2, &mut idx, &mut val, &mut idx2, &mut val2);
            }
        }
        rb += 4;
    }
    // Row remainder.
    for r in rb..rows {
        if compactable {
            // SAFETY: r < rows and ins <= COMPACT_CAP.
            unsafe { row1_compact(task, y, r, &mut idx, &mut val) };
        } else {
            // SAFETY: r < rows.
            unsafe { rows4_tail_row(task, y, r) };
        }
    }
}

/// Four rows (`rb..rb + 4`) through 16-column tiles: 8 accumulators
/// (4 rows × 2 vectors) stay in registers across the whole input
/// stream, and every weight-tile load is reused by four rows. Chosen
/// for near-dense blocks, where the per-row zero-skip branches almost
/// never fire and predict perfectly.
#[target_feature(enable = "avx2")]
unsafe fn rows4(task: &LinearTask<'_>, y: &mut [f32], rb: usize) {
    let &LinearTask {
        x,
        ins,
        w,
        outs,
        bias,
        relu,
        ..
    } = task;
    let x0 = &x[rb * ins..(rb + 1) * ins];
    let x1 = &x[(rb + 1) * ins..(rb + 2) * ins];
    let x2 = &x[(rb + 2) * ins..(rb + 3) * ins];
    let x3 = &x[(rb + 3) * ins..(rb + 4) * ins];
    let mut jt = 0usize;
    while jt + 16 <= outs {
        // SAFETY: jt + 16 <= outs = bias.len() bounds both loads.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bias.as_ptr().add(jt)),
                _mm256_loadu_ps(bias.as_ptr().add(jt + 8)),
            )
        };
        let (mut a00, mut a01) = (b0, b1);
        let (mut a10, mut a11) = (b0, b1);
        let (mut a20, mut a21) = (b0, b1);
        let (mut a30, mut a31) = (b0, b1);
        for i in 0..ins {
            // SAFETY: i < ins, so row i of `w` spans [i*outs, (i+1)*outs)
            // and jt + 16 <= outs keeps both 8-lane loads inside it.
            let wp = unsafe { w.as_ptr().add(i * outs + jt) };
            let (w0, w1) = unsafe { (_mm256_loadu_ps(wp), _mm256_loadu_ps(wp.add(8))) };
            // Per-row zero-skip, exactly as in the scalar backends.
            let xi0 = x0[i];
            if xi0 != 0.0 {
                let xv = _mm256_set1_ps(xi0);
                a00 = _mm256_add_ps(a00, _mm256_mul_ps(xv, w0));
                a01 = _mm256_add_ps(a01, _mm256_mul_ps(xv, w1));
            }
            let xi1 = x1[i];
            if xi1 != 0.0 {
                let xv = _mm256_set1_ps(xi1);
                a10 = _mm256_add_ps(a10, _mm256_mul_ps(xv, w0));
                a11 = _mm256_add_ps(a11, _mm256_mul_ps(xv, w1));
            }
            let xi2 = x2[i];
            if xi2 != 0.0 {
                let xv = _mm256_set1_ps(xi2);
                a20 = _mm256_add_ps(a20, _mm256_mul_ps(xv, w0));
                a21 = _mm256_add_ps(a21, _mm256_mul_ps(xv, w1));
            }
            let xi3 = x3[i];
            if xi3 != 0.0 {
                let xv = _mm256_set1_ps(xi3);
                a30 = _mm256_add_ps(a30, _mm256_mul_ps(xv, w0));
                a31 = _mm256_add_ps(a31, _mm256_mul_ps(xv, w1));
            }
        }
        if relu {
            a00 = relu8(a00);
            a01 = relu8(a01);
            a10 = relu8(a10);
            a11 = relu8(a11);
            a20 = relu8(a20);
            a21 = relu8(a21);
            a30 = relu8(a30);
            a31 = relu8(a31);
        }
        // SAFETY: rows rb..rb+4 of y each span `outs` elements and
        // jt + 16 <= outs.
        unsafe {
            let yp = y.as_mut_ptr();
            _mm256_storeu_ps(yp.add(rb * outs + jt), a00);
            _mm256_storeu_ps(yp.add(rb * outs + jt + 8), a01);
            _mm256_storeu_ps(yp.add((rb + 1) * outs + jt), a10);
            _mm256_storeu_ps(yp.add((rb + 1) * outs + jt + 8), a11);
            _mm256_storeu_ps(yp.add((rb + 2) * outs + jt), a20);
            _mm256_storeu_ps(yp.add((rb + 2) * outs + jt + 8), a21);
            _mm256_storeu_ps(yp.add((rb + 3) * outs + jt), a30);
            _mm256_storeu_ps(yp.add((rb + 3) * outs + jt + 8), a31);
        }
        jt += 16;
    }
    while jt + 8 <= outs {
        // SAFETY: jt + 8 <= outs bounds the bias load.
        let b0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        let (mut a0, mut a1, mut a2, mut a3) = (b0, b0, b0, b0);
        for i in 0..ins {
            // SAFETY: as in the 16-wide tier, with width 8.
            let w0 = unsafe { _mm256_loadu_ps(w.as_ptr().add(i * outs + jt)) };
            let xi0 = x0[i];
            if xi0 != 0.0 {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(xi0), w0));
            }
            let xi1 = x1[i];
            if xi1 != 0.0 {
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_set1_ps(xi1), w0));
            }
            let xi2 = x2[i];
            if xi2 != 0.0 {
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_set1_ps(xi2), w0));
            }
            let xi3 = x3[i];
            if xi3 != 0.0 {
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_set1_ps(xi3), w0));
            }
        }
        if relu {
            a0 = relu8(a0);
            a1 = relu8(a1);
            a2 = relu8(a2);
            a3 = relu8(a3);
        }
        // SAFETY: jt + 8 <= outs inside each of the four rows.
        unsafe {
            let yp = y.as_mut_ptr();
            _mm256_storeu_ps(yp.add(rb * outs + jt), a0);
            _mm256_storeu_ps(yp.add((rb + 1) * outs + jt), a1);
            _mm256_storeu_ps(yp.add((rb + 2) * outs + jt), a2);
            _mm256_storeu_ps(yp.add((rb + 3) * outs + jt), a3);
        }
        jt += 8;
    }
    // Masked column tail (1–7 remaining columns) for all four rows.
    if jt < outs {
        for (r, xr) in [(rb, x0), (rb + 1, x1), (rb + 2, x2), (rb + 3, x3)] {
            // SAFETY: r < rows (row block bound) and jt < outs.
            unsafe {
                masked_tail(
                    xr,
                    w,
                    outs,
                    bias,
                    relu,
                    &mut y[r * outs..(r + 1) * outs],
                    jt,
                )
            };
        }
    }
}

/// Lane mask enabling the low `rem` (1–7) lanes of an 8-lane vector —
/// the sliding-window load over [`TAIL_MASKS`] that every masked column
/// tail shares. AVX masked loads read zeros in (and masked stores skip)
/// disabled lanes, which is what keeps sub-8 column tails both in
/// bounds and bit-identical to the scalar loop.
///
/// Safety requirement (beyond AVX2): `1 <= rem <= 7`.
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    debug_assert!((1..8).contains(&rem));
    // SAFETY: 1 <= rem <= 7, so 8 - rem is in 1..=7 and the load reads
    // 8 of the table's 16 entries.
    unsafe { _mm256_loadu_si256(TAIL_MASKS.as_ptr().add(8 - rem) as *const __m256i) }
}

/// The last `outs - jt` (1–7) columns of one row via [`tail_mask`]ed
/// loads/stores: inactive lanes load as zero and are never stored, so
/// active lanes see exactly the reference accumulation (branchy
/// zero-skip included — it skips whole vector steps here, same as the
/// scalar loop skips the row's contribution).
///
/// Safety requirement (beyond AVX2): `jt < outs` and `yr.len() == outs`.
#[target_feature(enable = "avx2")]
unsafe fn masked_tail(
    xr: &[f32],
    w: &[f32],
    outs: usize,
    bias: &[f32],
    relu: bool,
    yr: &mut [f32],
    jt: usize,
) {
    // SAFETY: jt < outs, so 1 <= outs - jt; callers enter only with
    // fewer than 8 columns left.
    let mask = unsafe { tail_mask(outs - jt) };
    // SAFETY: the mask enables exactly the lanes that remain inside
    // `bias` / each weight row / `yr` (all `outs` long).
    let mut a0 = unsafe { _mm256_maskload_ps(bias.as_ptr().add(jt), mask) };
    for (i, &xi) in xr.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let xv = _mm256_set1_ps(xi);
        // SAFETY: as above; masked lanes never touch memory past row
        // i's end.
        let w0 = unsafe { _mm256_maskload_ps(w.as_ptr().add(i * outs + jt), mask) };
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, w0));
    }
    if relu {
        a0 = relu8(a0);
    }
    // SAFETY: stores only the in-bounds lanes.
    unsafe { _mm256_maskstore_ps(yr.as_mut_ptr().add(jt), mask, a0) };
}

/// Two adjacent rows with sparse compaction, streamed in **lockstep**:
/// each row is compacted into its own index/value scratch (exactly as in
/// [`row1_compact`]), then every column tile walks both survivor lists
/// side by side — one entry of row `r0` and one of row `r0 + 1` per
/// iteration, with each row owning its own accumulator set. Interleaving
/// the two rows doubles the number of independent add-latency chains in
/// flight, which is what the one-row loop is bound by (4 accumulators ×
/// ~4-cycle `vaddps` latency leaves half the FP issue width idle). The
/// shorter list's leftovers drain through per-row remainder loops.
///
/// Bit-identity is untouched: row `r0`'s accumulators only ever see row
/// `r0`'s non-zeros in ascending index order, and likewise for row
/// `r0 + 1` — the interleave reorders instructions *between* rows, never
/// the accumulation sequence *within* one output element.
///
/// Safety requirement (beyond AVX2): `r0 + 2 <= rows` and
/// `ins <= COMPACT_CAP`.
#[target_feature(enable = "avx2")]
unsafe fn rows2_compact(
    task: &LinearTask<'_>,
    y: &mut [f32],
    r0: usize,
    idx0: &mut [u32; COMPACT_CAP],
    val0: &mut [f32; COMPACT_CAP],
    idx1: &mut [u32; COMPACT_CAP],
    val1: &mut [f32; COMPACT_CAP],
) {
    let &LinearTask {
        x,
        ins,
        w,
        outs,
        bias,
        relu,
        ..
    } = task;
    let x0 = &x[r0 * ins..(r0 + 1) * ins];
    let x1 = &x[(r0 + 1) * ins..(r0 + 2) * ins];
    debug_assert!(ins <= COMPACT_CAP);

    // Branchless compaction of both rows (NaN != 0.0, so NaN inputs are
    // kept, as in every backend).
    let mut len0 = 0usize;
    for (i, &xi) in x0.iter().enumerate() {
        idx0[len0] = i as u32;
        val0[len0] = xi;
        len0 += (xi != 0.0) as usize;
    }
    let mut len1 = 0usize;
    for (i, &xi) in x1.iter().enumerate() {
        idx1[len1] = i as u32;
        val1[len1] = xi;
        len1 += (xi != 0.0) as usize;
    }
    let (idx0, val0) = (&idx0[..len0], &val0[..len0]);
    let (idx1, val1) = (&idx1[..len1], &val1[..len1]);
    let both = len0.min(len1);

    let y0 = r0 * outs;
    let y1 = (r0 + 1) * outs;
    let mut jt = 0usize;
    while jt + 32 <= outs {
        // SAFETY: jt + 32 <= outs = bias.len(), so lanes [jt, jt+32)
        // are in bounds (both rows seed from the same bias).
        let (mut a0, mut a1, mut a2, mut a3) = unsafe {
            (
                _mm256_loadu_ps(bias.as_ptr().add(jt)),
                _mm256_loadu_ps(bias.as_ptr().add(jt + 8)),
                _mm256_loadu_ps(bias.as_ptr().add(jt + 16)),
                _mm256_loadu_ps(bias.as_ptr().add(jt + 24)),
            )
        };
        let (mut b0, mut b1, mut b2, mut b3) = (a0, a1, a2, a3);
        for t in 0..both {
            let xa = _mm256_set1_ps(val0[t]);
            let xb = _mm256_set1_ps(val1[t]);
            // SAFETY: both indices are < ins (they index x0 / x1), so
            // their weight rows span [i*outs, (i+1)*outs) and
            // jt + 32 <= outs keeps every 8-lane load inside them.
            let wa = unsafe { w.as_ptr().add(idx0[t] as usize * outs + jt) };
            let wb = unsafe { w.as_ptr().add(idx1[t] as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xa, _mm256_loadu_ps(wa)));
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(xb, _mm256_loadu_ps(wb)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(8))));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(16))));
                b2 = _mm256_add_ps(b2, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(24))));
                b3 = _mm256_add_ps(b3, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(24))));
            }
        }
        // Whichever list is longer drains alone (same order as always).
        for t in both..len0 {
            let xa = _mm256_set1_ps(val0[t]);
            // SAFETY: as in the lockstep loop.
            let wa = unsafe { w.as_ptr().add(idx0[t] as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xa, _mm256_loadu_ps(wa)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(24))));
            }
        }
        for t in both..len1 {
            let xb = _mm256_set1_ps(val1[t]);
            // SAFETY: as in the lockstep loop.
            let wb = unsafe { w.as_ptr().add(idx1[t] as usize * outs + jt) };
            unsafe {
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(xb, _mm256_loadu_ps(wb)));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(8))));
                b2 = _mm256_add_ps(b2, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(16))));
                b3 = _mm256_add_ps(b3, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(24))));
            }
        }
        if relu {
            a0 = relu8(a0);
            a1 = relu8(a1);
            a2 = relu8(a2);
            a3 = relu8(a3);
            b0 = relu8(b0);
            b1 = relu8(b1);
            b2 = relu8(b2);
            b3 = relu8(b3);
        }
        // SAFETY: rows r0 and r0 + 1 of y each span `outs` elements and
        // jt + 32 <= outs.
        unsafe {
            let yp = y.as_mut_ptr();
            _mm256_storeu_ps(yp.add(y0 + jt), a0);
            _mm256_storeu_ps(yp.add(y0 + jt + 8), a1);
            _mm256_storeu_ps(yp.add(y0 + jt + 16), a2);
            _mm256_storeu_ps(yp.add(y0 + jt + 24), a3);
            _mm256_storeu_ps(yp.add(y1 + jt), b0);
            _mm256_storeu_ps(yp.add(y1 + jt + 8), b1);
            _mm256_storeu_ps(yp.add(y1 + jt + 16), b2);
            _mm256_storeu_ps(yp.add(y1 + jt + 24), b3);
        }
        jt += 32;
    }
    while jt + 16 <= outs {
        // SAFETY: jt + 16 <= outs bounds both 8-lane loads.
        let (mut a0, mut a1) = unsafe {
            (
                _mm256_loadu_ps(bias.as_ptr().add(jt)),
                _mm256_loadu_ps(bias.as_ptr().add(jt + 8)),
            )
        };
        let (mut b0, mut b1) = (a0, a1);
        for t in 0..both {
            let xa = _mm256_set1_ps(val0[t]);
            let xb = _mm256_set1_ps(val1[t]);
            // SAFETY: as in the 32-wide tier, with width 16.
            let wa = unsafe { w.as_ptr().add(idx0[t] as usize * outs + jt) };
            let wb = unsafe { w.as_ptr().add(idx1[t] as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xa, _mm256_loadu_ps(wa)));
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(xb, _mm256_loadu_ps(wb)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(8))));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(8))));
            }
        }
        for t in both..len0 {
            let xa = _mm256_set1_ps(val0[t]);
            // SAFETY: as above.
            let wa = unsafe { w.as_ptr().add(idx0[t] as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xa, _mm256_loadu_ps(wa)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xa, _mm256_loadu_ps(wa.add(8))));
            }
        }
        for t in both..len1 {
            let xb = _mm256_set1_ps(val1[t]);
            // SAFETY: as above.
            let wb = unsafe { w.as_ptr().add(idx1[t] as usize * outs + jt) };
            unsafe {
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(xb, _mm256_loadu_ps(wb)));
                b1 = _mm256_add_ps(b1, _mm256_mul_ps(xb, _mm256_loadu_ps(wb.add(8))));
            }
        }
        if relu {
            a0 = relu8(a0);
            a1 = relu8(a1);
            b0 = relu8(b0);
            b1 = relu8(b1);
        }
        // SAFETY: jt + 16 <= outs inside both rows of y.
        unsafe {
            let yp = y.as_mut_ptr();
            _mm256_storeu_ps(yp.add(y0 + jt), a0);
            _mm256_storeu_ps(yp.add(y0 + jt + 8), a1);
            _mm256_storeu_ps(yp.add(y1 + jt), b0);
            _mm256_storeu_ps(yp.add(y1 + jt + 8), b1);
        }
        jt += 16;
    }
    while jt + 8 <= outs {
        // SAFETY: jt + 8 <= outs bounds the load.
        let mut a0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        let mut b0 = a0;
        for t in 0..both {
            // SAFETY: as above, width 8.
            unsafe {
                let wa = w.as_ptr().add(idx0[t] as usize * outs + jt);
                let wb = w.as_ptr().add(idx1[t] as usize * outs + jt);
                a0 = _mm256_add_ps(
                    a0,
                    _mm256_mul_ps(_mm256_set1_ps(val0[t]), _mm256_loadu_ps(wa)),
                );
                b0 = _mm256_add_ps(
                    b0,
                    _mm256_mul_ps(_mm256_set1_ps(val1[t]), _mm256_loadu_ps(wb)),
                );
            }
        }
        for t in both..len0 {
            // SAFETY: as above.
            unsafe {
                let wa = w.as_ptr().add(idx0[t] as usize * outs + jt);
                a0 = _mm256_add_ps(
                    a0,
                    _mm256_mul_ps(_mm256_set1_ps(val0[t]), _mm256_loadu_ps(wa)),
                );
            }
        }
        for t in both..len1 {
            // SAFETY: as above.
            unsafe {
                let wb = w.as_ptr().add(idx1[t] as usize * outs + jt);
                b0 = _mm256_add_ps(
                    b0,
                    _mm256_mul_ps(_mm256_set1_ps(val1[t]), _mm256_loadu_ps(wb)),
                );
            }
        }
        if relu {
            a0 = relu8(a0);
            b0 = relu8(b0);
        }
        // SAFETY: jt + 8 <= outs inside both rows of y.
        unsafe {
            let yp = y.as_mut_ptr();
            _mm256_storeu_ps(yp.add(y0 + jt), a0);
            _mm256_storeu_ps(yp.add(y1 + jt), b0);
        }
        jt += 8;
    }
    // Masked tail for the last 1–7 columns of both rows.
    if jt < outs {
        // SAFETY: jt < outs bounds `rem` to 1..=7.
        let mask = unsafe { tail_mask(outs - jt) };
        // SAFETY: the mask enables exactly the lanes that remain inside
        // `bias` / each weight row / each y row (all `outs` long).
        let mut a0 = unsafe { _mm256_maskload_ps(bias.as_ptr().add(jt), mask) };
        let mut b0 = a0;
        for t in 0..both {
            // SAFETY: masked lanes never touch memory past the row ends.
            unsafe {
                let wa = _mm256_maskload_ps(w.as_ptr().add(idx0[t] as usize * outs + jt), mask);
                let wb = _mm256_maskload_ps(w.as_ptr().add(idx1[t] as usize * outs + jt), mask);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(val0[t]), wa));
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(_mm256_set1_ps(val1[t]), wb));
            }
        }
        for t in both..len0 {
            // SAFETY: as above.
            unsafe {
                let wa = _mm256_maskload_ps(w.as_ptr().add(idx0[t] as usize * outs + jt), mask);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(val0[t]), wa));
            }
        }
        for t in both..len1 {
            // SAFETY: as above.
            unsafe {
                let wb = _mm256_maskload_ps(w.as_ptr().add(idx1[t] as usize * outs + jt), mask);
                b0 = _mm256_add_ps(b0, _mm256_mul_ps(_mm256_set1_ps(val1[t]), wb));
            }
        }
        if relu {
            a0 = relu8(a0);
            b0 = relu8(b0);
        }
        // SAFETY: stores only the in-bounds lanes of each row.
        unsafe {
            _mm256_maskstore_ps(y.as_mut_ptr().add(y0 + jt), mask, a0);
            _mm256_maskstore_ps(y.as_mut_ptr().add(y1 + jt), mask, b0);
        }
    }
}

/// One row with sparse compaction: a branchless scan packs the row's
/// non-zero `(index, value)` pairs into the caller's scratch (ascending
/// index, so the accumulation order is exactly the reference order),
/// then 32/16/8-column tiles stream only the survivors with **no
/// branches** in the MAC loop — the win on ~half-zero post-ReLU rows,
/// where skip branches mispredict constantly.
///
/// Safety requirement (beyond AVX2): `r < rows` and `ins <= COMPACT_CAP`.
#[target_feature(enable = "avx2")]
unsafe fn row1_compact(
    task: &LinearTask<'_>,
    y: &mut [f32],
    r: usize,
    idx: &mut [u32; COMPACT_CAP],
    val: &mut [f32; COMPACT_CAP],
) {
    let &LinearTask {
        x,
        ins,
        w,
        outs,
        bias,
        relu,
        ..
    } = task;
    let xr = &x[r * ins..(r + 1) * ins];
    let yr = &mut y[r * outs..(r + 1) * outs];
    debug_assert!(ins <= COMPACT_CAP);

    // Branchless compaction: the write is unconditional, the cursor
    // only advances past kept entries (NaN != 0.0, so NaN inputs are
    // kept, as in every backend).
    let mut len = 0usize;
    for (i, &xi) in xr.iter().enumerate() {
        idx[len] = i as u32;
        val[len] = xi;
        len += (xi != 0.0) as usize;
    }
    let (idx, val) = (&idx[..len], &val[..len]);

    let mut jt = 0usize;
    while jt + 32 <= outs {
        // SAFETY: jt + 32 <= outs = bias.len(), so lanes [jt, jt+32)
        // are in bounds.
        let mut a0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        let mut a1 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt + 8)) };
        let mut a2 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt + 16)) };
        let mut a3 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt + 24)) };
        for (&i, &xi) in idx.iter().zip(val) {
            let xv = _mm256_set1_ps(xi);
            // SAFETY: i < ins (it indexes xr), so row i of `w` spans
            // [i*outs, (i+1)*outs); jt + 32 <= outs keeps all four
            // 8-lane loads inside it.
            let wp = unsafe { w.as_ptr().add(i as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, _mm256_loadu_ps(wp)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xv, _mm256_loadu_ps(wp.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(xv, _mm256_loadu_ps(wp.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(xv, _mm256_loadu_ps(wp.add(24))));
            }
        }
        if relu {
            a0 = relu8(a0);
            a1 = relu8(a1);
            a2 = relu8(a2);
            a3 = relu8(a3);
        }
        // SAFETY: yr is `outs` long and jt + 32 <= outs.
        unsafe {
            let yp = yr.as_mut_ptr().add(jt);
            _mm256_storeu_ps(yp, a0);
            _mm256_storeu_ps(yp.add(8), a1);
            _mm256_storeu_ps(yp.add(16), a2);
            _mm256_storeu_ps(yp.add(24), a3);
        }
        jt += 32;
    }
    while jt + 16 <= outs {
        // SAFETY: jt + 16 <= outs bounds both 8-lane loads.
        let mut a0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        let mut a1 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt + 8)) };
        for (&i, &xi) in idx.iter().zip(val) {
            let xv = _mm256_set1_ps(xi);
            // SAFETY: as in the 32-wide tier, with width 16.
            let wp = unsafe { w.as_ptr().add(i as usize * outs + jt) };
            unsafe {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, _mm256_loadu_ps(wp)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xv, _mm256_loadu_ps(wp.add(8))));
            }
        }
        if relu {
            a0 = relu8(a0);
            a1 = relu8(a1);
        }
        // SAFETY: jt + 16 <= outs = yr.len().
        unsafe {
            let yp = yr.as_mut_ptr().add(jt);
            _mm256_storeu_ps(yp, a0);
            _mm256_storeu_ps(yp.add(8), a1);
        }
        jt += 16;
    }
    while jt + 8 <= outs {
        // SAFETY: jt + 8 <= outs bounds the load.
        let mut a0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        for (&i, &xi) in idx.iter().zip(val) {
            let xv = _mm256_set1_ps(xi);
            // SAFETY: as above, width 8.
            unsafe {
                let wp = w.as_ptr().add(i as usize * outs + jt);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, _mm256_loadu_ps(wp)));
            }
        }
        if relu {
            a0 = relu8(a0);
        }
        // SAFETY: jt + 8 <= outs = yr.len().
        unsafe { _mm256_storeu_ps(yr.as_mut_ptr().add(jt), a0) };
        jt += 8;
    }
    // Masked tail for the last 1–7 columns (narrow heads — the 13-class
    // segmentation output — live here), streaming the compact list so
    // the tail stays as branch-free as the main tiles.
    if jt < outs {
        // SAFETY: jt < outs bounds `rem` to 1..=7.
        let mask = unsafe { tail_mask(outs - jt) };
        // SAFETY: the mask enables exactly the lanes that remain inside
        // `bias` / each weight row / `yr` (all `outs` long).
        let mut a0 = unsafe { _mm256_maskload_ps(bias.as_ptr().add(jt), mask) };
        for (&i, &xi) in idx.iter().zip(val) {
            let xv = _mm256_set1_ps(xi);
            // SAFETY: as above; masked lanes never touch memory past
            // row i's end.
            let w0 = unsafe { _mm256_maskload_ps(w.as_ptr().add(i as usize * outs + jt), mask) };
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, w0));
        }
        if relu {
            a0 = relu8(a0);
        }
        // SAFETY: stores only the in-bounds lanes.
        unsafe { _mm256_maskstore_ps(yr.as_mut_ptr().add(jt), mask, a0) };
    }
}

/// Sliding-window lane masks for the column tail: loading 8 entries at
/// offset `8 - rem` yields `rem` enabled (all-ones) lanes followed by
/// disabled ones.
const TAIL_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One remainder row for inputs wider than [`COMPACT_CAP`]: 32-column
/// tiles with the branchy zero-skip and a reference scalar tail.
#[target_feature(enable = "avx2")]
unsafe fn rows4_tail_row(task: &LinearTask<'_>, y: &mut [f32], r: usize) {
    let &LinearTask {
        x,
        ins,
        w,
        outs,
        bias,
        relu,
        ..
    } = task;
    let xr = &x[r * ins..(r + 1) * ins];
    let yr = &mut y[r * outs..(r + 1) * outs];
    let mut jt = 0usize;
    while jt + 8 <= outs {
        // SAFETY: jt + 8 <= outs bounds the load.
        let mut a0 = unsafe { _mm256_loadu_ps(bias.as_ptr().add(jt)) };
        for (i, &xi) in xr.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let xv = _mm256_set1_ps(xi);
            // SAFETY: row i of `w` spans [i*outs, (i+1)*outs) and
            // jt + 8 <= outs.
            unsafe {
                let wp = w.as_ptr().add(i * outs + jt);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xv, _mm256_loadu_ps(wp)));
            }
        }
        if relu {
            a0 = relu8(a0);
        }
        // SAFETY: jt + 8 <= outs = yr.len().
        unsafe { _mm256_storeu_ps(yr.as_mut_ptr().add(jt), a0) };
        jt += 8;
    }
    if jt < outs {
        // SAFETY: jt < outs and yr.len() == outs.
        unsafe { masked_tail(xr, w, outs, bias, relu, yr, jt) };
    }
}

/// `max(+0.0, lane)` — operand order matters: `vmaxps` returns the
/// **second** operand when either is NaN or the lanes compare equal
/// (`±0.0`), so putting zero first propagates NaN payloads and keeps
/// `-0.0`, exactly matching the scalar `if a < 0.0 { a = 0.0 }`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn relu8(a: __m256) -> __m256 {
    _mm256_max_ps(_mm256_setzero_ps(), a)
}

//! The explicit-AVX-512F backend (x86_64 only, selected by CPUID).
//!
//! The AVX2 backend's schedule (`avx2.rs`) on 16-lane `__m512` vectors:
//! each accumulator owns 16 output columns, is seeded from the bias, and
//! takes `add(acc, mul(splat(xi), w[i, j..j+16]))` once per non-zero
//! input in ascending input order — separate `vmulps` + `vaddps`, never
//! FMA — and the fused ReLU is `max(+0.0, acc)` with the zero first.
//! Every output element therefore sees exactly the reference
//! accumulation sequence, so results are bit-identical to every other
//! backend; `avx2.rs` explains why each of those choices matters.
//!
//! Rows go four at a time, and the same density rule as AVX2 picks one
//! of two schedules per block (both bit-identical, so the rule only
//! moves time):
//!
//! * a **near-dense** block takes a 4-row register tile in which one
//!   weight load feeds four rows, behind a per-row zero-skip branch that
//!   almost never fires;
//! * a **sparse** block (post-ReLU rows are about half exact zeros, in
//!   a pattern a branch cannot predict) first compacts each row's
//!   non-zeros into index/value lists with a branchless scan, then walks
//!   the four lists in **lockstep**: step `t` adds entry `t` of every
//!   row, each row into its own accumulators, so four independent add
//!   chains are in flight and the MAC loop has no branches. Once the
//!   shortest list is spent, an exhausted row's add runs under an
//!   all-zero `__mmask16`, which leaves its accumulator exactly as it
//!   was.
//!
//! The 1–3 leftover rows run one at a time through the same code.
//!
//! Columns go in 64-wide tiles: four vectors, so a four-row tile holds
//! 16 accumulators of the 32 `zmm` registers. The last 1–63 columns take
//! one narrower tile whose last vector is loaded and stored under a
//! `__mmask16` lane mask (masked-off lanes touch no memory), so there is
//! neither a scalar tail nor a mask table.
//!
//! Like `avx2.rs`, this module carries its own `#![allow(unsafe_code)]`
//! under the crate's `#![deny(unsafe_code)]`: the `unsafe` is confined
//! to the `target_feature` call gate and to loads and stores at offsets
//! the surrounding loop bounds have already checked, each with a
//! `SAFETY:` note.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __mmask16, _mm512_add_ps, _mm512_mask_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
    _mm512_max_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
};

use super::LinearTask;

/// Widest input row the compaction lists cover (the largest layer input
/// in the workspace's networks is 768 + 13); a block of wider rows takes
/// the dense schedule, which is correct for any width.
const COMPACT_CAP: usize = 1024;

/// Rows per block.
const BLOCK: usize = 4;

/// Lanes per vector.
const LANES: usize = 16;

/// Vectors per full column tile (64 columns).
const TILE: usize = 4;

/// Dispatch wrapper: proves AVX-512F is available, then enters the
/// `target_feature` kernel. The caller
/// ([`LinearKernel::run`](super::LinearKernel::run)) has already checked
/// detection, but re-asserting keeps the unsafe call locally sound no
/// matter who calls.
pub(super) fn run(task: &LinearTask<'_>, y: &mut [f32]) {
    assert!(
        is_x86_feature_detected!("avx512f"),
        "AVX-512F kernel on a CPU without AVX-512F"
    );
    // SAFETY: the assertion above guarantees the CPU executes AVX-512F;
    // the slice invariants `gemm` relies on are established by
    // `LinearTask` construction and checked below.
    unsafe { gemm(task, y) }
}

/// One block's compacted rows: row `r`'s non-zero inputs as
/// `(idx[t][r], val[t][r])` pairs in ascending index order, `len[r]` of
/// them. Entry-major, so one lockstep step reads one contiguous entry.
struct Lists {
    idx: [[u32; BLOCK]; COMPACT_CAP],
    val: [[f32; BLOCK]; COMPACT_CAP],
    len: [usize; BLOCK],
}

/// The AVX-512F matmul: picks a schedule per 4-row block, then one per
/// leftover row.
///
/// # Safety
///
/// The CPU must support AVX-512F (enforced by [`run`]).
#[target_feature(enable = "avx512f")]
unsafe fn gemm(task: &LinearTask<'_>, y: &mut [f32]) {
    let &LinearTask {
        x,
        rows,
        ins,
        w,
        outs,
        bias,
        ..
    } = task;
    // Every offset below rests on these.
    assert!(x.len() == rows * ins && w.len() == ins * outs);
    assert!(bias.len() == outs && y.len() == rows * outs);
    let compactable = ins <= COMPACT_CAP;
    let mut lists = Lists {
        idx: [[0; BLOCK]; COMPACT_CAP],
        val: [[0.0; BLOCK]; COMPACT_CAP],
        len: [0; BLOCK],
    };
    let mut rb = 0usize;
    while rb + BLOCK <= rows {
        let quad = &x[rb * ins..(rb + BLOCK) * ins];
        let nnz = quad.iter().filter(|&&v| v != 0.0).count();
        if !compactable || nnz * 10 >= quad.len() * 9 {
            // SAFETY: rb + BLOCK <= rows.
            unsafe { block::<BLOCK, false>(task, y, rb, &lists) };
        } else {
            compact::<BLOCK>(task, rb, &mut lists);
            // SAFETY: rb + BLOCK <= rows, and `lists` holds these rows.
            unsafe { block::<BLOCK, true>(task, y, rb, &lists) };
        }
        rb += BLOCK;
    }
    for r in rb..rows {
        if compactable {
            compact::<1>(task, r, &mut lists);
            // SAFETY: r < rows, and `lists` holds this row.
            unsafe { block::<1, true>(task, y, r, &lists) };
        } else {
            // SAFETY: r < rows.
            unsafe { block::<1, false>(task, y, r, &lists) };
        }
    }
}

/// Packs the non-zero inputs of rows `r0..r0 + R` into `lists` with a
/// branchless scan: the write is unconditional, the cursor only
/// advances past kept entries (NaN != 0.0, so NaN inputs are kept, as
/// in every backend). Entries past a row's length, up to the longest
/// row's, are pointed at input 0 so a masked-off lockstep step still
/// loads from inside the weights. Rows wider than [`COMPACT_CAP`] panic.
fn compact<const R: usize>(task: &LinearTask<'_>, r0: usize, lists: &mut Lists) {
    let &LinearTask { x, ins, .. } = task;
    for r in 0..R {
        let xr = &x[(r0 + r) * ins..(r0 + r + 1) * ins];
        let mut len = 0usize;
        for (i, &xi) in xr.iter().enumerate() {
            lists.idx[len][r] = i as u32;
            lists.val[len][r] = xi;
            len += (xi != 0.0) as usize;
        }
        lists.len[r] = len;
    }
    let longest = lists.len[..R].iter().copied().max().unwrap_or(0);
    for r in 0..R {
        for entry in &mut lists.idx[lists.len[r]..longest] {
            entry[r] = 0;
        }
    }
}

/// Rows `r0..r0 + R` through every column tile: full 64-column tiles,
/// then one narrower tile for the last 1–63 columns, its last vector
/// under a lane mask. `SPARSE` walks `lists` (filled by [`compact`]);
/// the dense schedule reads the rows of `x` directly.
///
/// # Safety
///
/// AVX-512F; `r0 + R <= rows`; with `SPARSE`, `lists` holds these rows.
#[target_feature(enable = "avx512f")]
unsafe fn block<const R: usize, const SPARSE: bool>(
    task: &LinearTask<'_>,
    y: &mut [f32],
    r0: usize,
    lists: &Lists,
) {
    let outs = task.outs;
    let mut jt = 0usize;
    while jt + TILE * LANES <= outs {
        // SAFETY: the caller's row and list conditions hold, and the
        // full tile's 64 columns end at or before `outs`.
        unsafe { tile::<R, TILE, SPARSE>(task, y, r0, lists, jt, !0) };
        jt += TILE * LANES;
    }
    if jt == outs {
        return;
    }
    let rem = outs - jt;
    let vectors = rem.div_ceil(LANES);
    let tail = lane_mask(rem - (vectors - 1) * LANES);
    // SAFETY: as above; `vectors - 1` full vectors end before `outs`,
    // and `tail` enables only the last vector's columns below `outs`.
    unsafe {
        match vectors {
            1 => tile::<R, 1, SPARSE>(task, y, r0, lists, jt, tail),
            2 => tile::<R, 2, SPARSE>(task, y, r0, lists, jt, tail),
            3 => tile::<R, 3, SPARSE>(task, y, r0, lists, jt, tail),
            _ => tile::<R, 4, SPARSE>(task, y, r0, lists, jt, tail),
        }
    }
}

/// The mask enabling the low `n` (1–16) lanes of a vector.
fn lane_mask(n: usize) -> __mmask16 {
    debug_assert!((1..=LANES).contains(&n));
    ((1u32 << n) - 1) as __mmask16
}

/// One `R`-row × `V`-vector register tile at column `jt`: seed from the
/// bias, accumulate every input in ascending order, apply the ReLU,
/// store. Vector `V - 1` is loaded and stored under `tail`.
///
/// # Safety
///
/// AVX-512F; `r0 + R <= rows`; `jt + (V - 1) * 16 < outs`, and `tail`
/// enables no lane at or past `outs`; with `SPARSE`, `lists` holds rows
/// `r0..r0 + R` of this task, padded as [`compact`] pads them.
#[target_feature(enable = "avx512f")]
unsafe fn tile<const R: usize, const V: usize, const SPARSE: bool>(
    task: &LinearTask<'_>,
    y: &mut [f32],
    r0: usize,
    lists: &Lists,
    jt: usize,
    tail: __mmask16,
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
    let mut mask = [!0 as __mmask16; V];
    mask[V - 1] = tail;
    let mut seed = [_mm512_setzero_ps(); V];
    for v in 0..V {
        // SAFETY: lanes [jt + 16v, jt + 16v + 16) under mask[v] lie
        // inside `bias` (`outs` long).
        seed[v] = unsafe { _mm512_maskz_loadu_ps(mask[v], bias.as_ptr().add(jt + v * LANES)) };
    }
    let mut acc = [seed; R];

    if SPARSE {
        let len: [usize; R] = std::array::from_fn(|r| lists.len[r]);
        let longest = len.iter().copied().max().unwrap_or(0);
        let entries = lists.idx[..longest].iter().zip(&lists.val[..longest]);
        for (t, (idx, val)) in entries.enumerate() {
            for r in 0..R {
                // A row whose list is spent adds nothing: its add runs
                // under an all-zero mask.
                let live = ((t < len[r]) as __mmask16).wrapping_neg();
                let xv = _mm512_set1_ps(val[r]);
                // SAFETY: every index in the lists (padding included) is
                // an input < ins, so its weight row spans
                // [i*outs, (i+1)*outs), and the masked lanes stay inside it.
                let wp = unsafe { w.as_ptr().add(idx[r] as usize * outs + jt) };
                for v in 0..V {
                    let wv = unsafe { _mm512_maskz_loadu_ps(mask[v], wp.add(v * LANES)) };
                    let prod = _mm512_mul_ps(xv, wv);
                    acc[r][v] = _mm512_mask_add_ps(acc[r][v], live, acc[r][v], prod);
                }
            }
        }
    } else {
        let xs: [&[f32]; R] = std::array::from_fn(|r| &x[(r0 + r) * ins..(r0 + r + 1) * ins]);
        // `i` indexes the weights and all R rows at once.
        #[allow(clippy::needless_range_loop)]
        for i in 0..ins {
            let mut wv = [_mm512_setzero_ps(); V];
            for v in 0..V {
                // SAFETY: i < ins, so row i of `w` spans
                // [i*outs, (i+1)*outs), and the masked lanes stay inside it.
                wv[v] = unsafe {
                    _mm512_maskz_loadu_ps(mask[v], w.as_ptr().add(i * outs + jt + v * LANES))
                };
            }
            for r in 0..R {
                // Per-row zero-skip, exactly as in the scalar backends.
                let xi = xs[r][i];
                if xi != 0.0 {
                    let xv = _mm512_set1_ps(xi);
                    for v in 0..V {
                        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(xv, wv[v]));
                    }
                }
            }
        }
    }

    let yr = &mut y[r0 * outs..(r0 + R) * outs];
    for (r, acc) in acc.iter().enumerate() {
        for v in 0..V {
            // `max(+0.0, a)` with the zero first: `vmaxps` returns the
            // second operand on NaN and on ±0.0 ties, so NaN propagates
            // and -0.0 survives, as in the scalar `if a < 0.0` clamp.
            let a = if relu {
                _mm512_max_ps(_mm512_setzero_ps(), acc[v])
            } else {
                acc[v]
            };
            // SAFETY: row r of `yr` spans [r*outs, (r+1)*outs), and the
            // masked lanes stay inside it.
            unsafe {
                _mm512_mask_storeu_ps(yr.as_mut_ptr().add(r * outs + jt + v * LANES), mask[v], a)
            };
        }
    }
}

//! The two scalar backends: the reference loop and the cache-blocked
//! register-tiled loop. Both are safe code; both define (and must keep)
//! the accumulation order every other backend reproduces bit-for-bit.

use super::LinearTask;

/// The reference schedule: for each row, seed the output with the bias,
/// then stream inputs outermost, scattering `xi · w[i, ·]` into the
/// output row. Zero inputs are skipped entirely (the ReLU-sparsity
/// shortcut); each output element therefore accumulates contributions
/// in ascending input order — the order every backend must match.
///
/// The loop body is deliberately the seed's original `Matrix::linear`
/// implementation, kept **byte-for-byte** (indexed scatter and all):
/// this backend is the immutable semantic anchor every backend-parity
/// suite compares against, and `tests/anchor.rs` pins the logits it
/// defines by bits, so its shape must not drift between PRs. It is never
/// auto-selected — [`super::fastest_supported`] always prefers
/// [`blocked`] — so its speed costs nothing in production.
pub(super) fn reference(task: &LinearTask<'_>, y: &mut [f32]) {
    let &LinearTask {
        x,
        rows,
        ins,
        w,
        outs,
        bias,
        relu,
    } = task;
    for r in 0..rows {
        let xr = &x[r * ins..(r + 1) * ins];
        let yr = &mut y[r * outs..(r + 1) * outs];
        yr.copy_from_slice(bias);
        for (i, &xi) in xr.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let wrow = &w[i * outs..(i + 1) * outs];
            for (j, &wij) in wrow.iter().enumerate() {
                yr[j] += xi * wij;
            }
        }
        if relu {
            for o in yr.iter_mut() {
                if *o < 0.0 {
                    *o = 0.0;
                }
            }
        }
    }
}

/// The cache-blocked schedule: 32 output columns accumulate in
/// registers while the input index streams innermost, so each output
/// tile is written to memory exactly once and the weight matrix is read
/// straight through. An 8-wide tier catches narrow heads (e.g. the
/// 13-class segmentation output), then a scalar tail. Per output
/// element the accumulation order is identical to [`reference`].
pub(super) fn blocked(task: &LinearTask<'_>, y: &mut [f32]) {
    const TILE: usize = 32;
    let &LinearTask {
        x,
        rows,
        ins,
        w,
        outs,
        bias,
        relu,
    } = task;
    for r in 0..rows {
        let xr = &x[r * ins..(r + 1) * ins];
        let mut jt = 0usize;
        // Full tiles: the accumulator array stays in vector registers
        // across the whole input stream.
        while jt + TILE <= outs {
            let mut acc = [0.0f32; TILE];
            acc.copy_from_slice(&bias[jt..jt + TILE]);
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let wr = &w[i * outs + jt..i * outs + jt + TILE];
                for l in 0..TILE {
                    acc[l] += xi * wr[l];
                }
            }
            if relu {
                for a in &mut acc {
                    if *a < 0.0 {
                        *a = 0.0;
                    }
                }
            }
            y[r * outs + jt..r * outs + jt + TILE].copy_from_slice(&acc);
            jt += TILE;
        }
        // Remainder columns: an 8-wide tier, then scalar.
        while jt + 8 <= outs {
            let mut acc = [0.0f32; 8];
            acc.copy_from_slice(&bias[jt..jt + 8]);
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let wr = &w[i * outs + jt..i * outs + jt + 8];
                for l in 0..8 {
                    acc[l] += xi * wr[l];
                }
            }
            if relu {
                for a in &mut acc {
                    if *a < 0.0 {
                        *a = 0.0;
                    }
                }
            }
            y[r * outs + jt..r * outs + jt + 8].copy_from_slice(&acc);
            jt += 8;
        }
        for j in jt..outs {
            let mut a = bias[j];
            for (i, &xi) in xr.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                a += xi * w[i * outs + j];
            }
            y[r * outs + j] = if relu && a < 0.0 { 0.0 } else { a };
        }
    }
}

//! Kernel-backend equivalence: every compiled, supported matmul backend
//! must be **bit-identical** to [`LinearKernel::Reference`] — same
//! logits down to the last ulp, same NaN propagation, same signed
//! zeros — across ragged shapes (tail columns that are not a multiple
//! of any vector width, empty row/column/inner dimensions) and
//! adversarial inputs (exact zeros for the skip path, `-0.0`, NaN and
//! ±∞ activations).
//!
//! Weights and biases are kept finite: the zero-skip contract
//! (`xi == 0` contributes nothing) is only distinguishable from a
//! multiply-accumulate when a *weight* is non-finite, and network
//! weights are finite by construction. Activations, on the other hand,
//! take fully arbitrary values — garbage inputs must flow through every
//! backend identically.

use proptest::prelude::*;

use hgpcn_pcn::{LinearKernel, Matrix};

/// Bit-level equality with NaN normalization: non-NaN values must agree
/// down to the sign of zero, NaN must meet NaN. (A NaN's *payload* is
/// outside the contract — when two NaNs merge in an add, the surviving
/// payload depends on operand order, which the compiler may legally
/// swap even between two builds of the reference loop itself.)
fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{}: row count", what);
    prop_assert_eq!(a.cols(), b.cols(), "{}: col count", what);
    for r in 0..a.rows() {
        for (c, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            prop_assert!(same, "{}: ({}, {}): {:?} vs {:?}", what, r, c, x, y);
        }
    }
    Ok(())
}

/// Activations with exact zeros, negative zeros, NaNs and infinities
/// mixed into ordinary finite values.
fn arb_activations(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..=9, -8.0f32..8.0), len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, v)| match kind {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => f32::NAN,
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                _ => v,
            })
            .collect()
    })
}

/// Finite weights/biases with exact zeros sprinkled in.
fn arb_finite(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..=7, -4.0f32..4.0), len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, v)| match kind {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect()
    })
}

fn backends_under_test() -> Vec<LinearKernel> {
    LinearKernel::all()
        .iter()
        .copied()
        .filter(|k| *k != LinearKernel::Reference && k.is_supported())
        .collect()
}

proptest! {
    /// Ragged shapes: rows not a multiple of the 4-row block, columns
    /// spanning every tile tier (32/16/8) plus sub-8 tails, including
    /// empty rows, zero-width inputs and zero-width outputs.
    #[test]
    fn backends_are_bit_identical_across_ragged_shapes(
        rows in 0usize..9,
        ins in 0usize..7,
        outs_pick in 0usize..12,
        relu_pick in 0u8..2,
        seed in 0u32..1000,
    ) {
        // Column widths that straddle every tier boundary.
        const OUTS: [usize; 12] = [0, 1, 3, 7, 8, 9, 13, 16, 23, 32, 40, 67];
        let outs = OUTS[outs_pick];
        let relu = relu_pick == 1;
        let phase = seed as f32 * 0.137;
        let x = Matrix::from_vec(
            rows,
            ins,
            (0..rows * ins)
                .map(|i| {
                    let v = ((i as f32 * 0.71 + phase).sin() * 5.0) - 1.0;
                    if i % 3 == 0 { 0.0 } else { v }
                })
                .collect(),
        );
        let w = Matrix::from_vec(
            ins,
            outs,
            (0..ins * outs).map(|i| ((i as f32 * 0.37 - phase).cos() * 2.0) - 0.5).collect(),
        );
        let bias: Vec<f32> = (0..outs).map(|j| j as f32 * 0.1 - 0.4).collect();

        let want = LinearKernel::Reference.apply(&x, &w, &bias, relu);
        for k in backends_under_test() {
            let got = k.apply(&x, &w, &bias, relu);
            assert_bits_equal(&got, &want, k.name())?;
        }
    }

    /// Adversarial values: NaN / ±∞ / ±0.0 activations must propagate
    /// (or be skipped) identically on every backend, with and without
    /// the fused ReLU.
    #[test]
    fn backends_agree_on_nan_inf_and_signed_zero(
        x_data in arb_activations(6 * 21),
        w_data in arb_finite(21 * 13),
        bias in arb_finite(13),
        relu_pick in 0u8..2,
    ) {
        let relu = relu_pick == 1;
        let x = Matrix::from_vec(6, 21, x_data);
        let w = Matrix::from_vec(21, 13, w_data);
        let want = LinearKernel::Reference.apply(&x, &w, &bias, relu);
        for k in backends_under_test() {
            let got = k.apply(&x, &w, &bias, relu);
            assert_bits_equal(&got, &want, k.name())?;
        }
    }

    /// A stacked batch is just more rows: any row count (including 0)
    /// of fully adversarial activations at a width that is not a
    /// multiple of any vector lane is bit-identical across backends.
    #[test]
    fn stacked_rows_are_bit_identical_across_backends(
        rows in 0usize..13,
        x_data in arb_activations(12 * 35),
    ) {
        let ins = 35usize;
        let x = Matrix::from_vec(rows, ins, x_data[..rows * ins].to_vec());
        let w = Matrix::from_vec(
            ins,
            13,
            (0..ins * 13).map(|i| ((i as f32) * 0.21).sin()).collect(),
        );
        let bias: Vec<f32> = (0..13).map(|j| j as f32 * 0.05 - 0.2).collect();
        let want = LinearKernel::Reference.apply(&x, &w, &bias, true);
        for k in backends_under_test() {
            assert_bits_equal(&k.apply(&x, &w, &bias, true), &want, k.name())?;
        }
    }
}

/// `apply` and `apply_into` agree, and `apply_into` reuses a dirty
/// buffer correctly (every element is overwritten).
#[test]
fn apply_into_overwrites_dirty_buffers() {
    let x = Matrix::from_vec(5, 9, (0..45).map(|i| (i as f32 * 0.3).sin()).collect());
    let w = Matrix::from_vec(9, 17, (0..153).map(|i| (i as f32 * 0.7).cos()).collect());
    let bias: Vec<f32> = (0..17).map(|j| j as f32 - 8.0).collect();
    for k in LinearKernel::all().iter().filter(|k| k.is_supported()) {
        let want = k.apply(&x, &w, &bias, true);
        // Poison the scratch with a larger, then a smaller prior shape.
        let mut scratch = Matrix::from_vec(11, 23, vec![f32::NAN; 11 * 23]);
        k.apply_into(&x, &w, &bias, true, &mut scratch);
        assert_eq!(scratch, want, "{} after shrinking reuse", k.name());
        let mut scratch = Matrix::zeros(1, 1);
        k.apply_into(&x, &w, &bias, true, &mut scratch);
        assert_eq!(scratch, want, "{} after growing reuse", k.name());
    }
}

use std::fmt;

use crate::kernel;

/// A dense row-major `f32` matrix — the minimal tensor the forward pass
/// needs (activations are `points × features`).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(c < self.cols, "column {c} out of range");
        self.data[r * self.cols + c]
    }

    /// Row-major view of the whole buffer, for the kernel backends.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major view of the whole buffer, for the kernel
    /// backends.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Re-shapes this matrix to `rows × cols`, reusing the existing
    /// allocation when it is large enough. Contents after the call are
    /// unspecified (a mix of zeros and stale values) — callers must
    /// overwrite every element, which the kernel backends do.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self × weights + bias`, applied row-wise: `weights` is
    /// `cols × out`, `bias` has length `out`.
    ///
    /// Dispatches to the [`kernel::fastest_supported`] backend; every
    /// backend is bit-identical to [`LinearKernel::Reference`]
    /// (ascending input index, zero inputs skipped), so results do not
    /// depend on which backend serves the call.
    ///
    /// [`LinearKernel::Reference`]: crate::LinearKernel::Reference
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear(&self, weights: &Matrix, bias: &[f32]) -> Matrix {
        kernel::fastest_supported().apply(self, weights, bias, false)
    }

    /// `self × weights + bias` with an optional fused ReLU — the batched
    /// path's tile primitive, dispatched to the
    /// [`kernel::fastest_supported`] backend exactly like [`Matrix::linear`].
    ///
    /// Accumulation order per output element is identical to
    /// [`Matrix::linear`] on every backend, so the result is
    /// **bit-identical** to `linear` followed by [`Matrix::relu`]; only
    /// the memory-access schedule and instruction selection differ.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear_fused(&self, weights: &Matrix, bias: &[f32], relu: bool) -> Matrix {
        kernel::fastest_supported().apply(self, weights, bias, relu)
    }

    /// In-place ReLU.
    pub fn relu(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Column-wise max over all rows (the PointNet max-pool). Returns a
    /// `1 × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows.
    pub fn max_pool(&self) -> Matrix {
        assert!(self.rows > 0, "max_pool needs at least one row");
        let mut out = self.row(0).to_vec();
        for r in 1..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                if v > *o {
                    *o = v;
                }
            }
        }
        Matrix::from_vec(1, self.cols, out)
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_hand_computation() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]); // identity
        let y = x.linear(&w, &[10.0, 20.0]);
        assert_eq!(y.row(0), &[11.0, 22.0]);
        assert_eq!(y.row(1), &[13.0, 24.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        m.relu();
        assert_eq!(m.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn max_pool_takes_columnwise_max() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 5.0, 4.0, 2.0, 3.0, 3.0]);
        let p = m.max_pool();
        assert_eq!(p.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn hcat_joins_rows() {
        let g = Matrix::from_vec(2, 1, vec![30.0, 10.0]);
        let h = g.hcat(&Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        assert_eq!(h.row(0), &[30.0, 1.0]);
        assert_eq!(h.row(1), &[10.0, 2.0]);
    }

    #[test]
    fn linear_fused_is_bit_identical_to_linear_plus_relu() {
        // Pseudo-random-ish but deterministic inputs with negatives and
        // exact zeros, exercising the zero-skip and the row-block tail.
        let rows = 13; // not a multiple of the block size
        let (ins, outs) = (7, 9);
        let x = Matrix::from_vec(
            rows,
            ins,
            (0..rows * ins)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        ((i as f32 * 0.37).sin() * 3.0) - 1.0
                    }
                })
                .collect(),
        );
        let w = Matrix::from_vec(
            ins,
            outs,
            (0..ins * outs)
                .map(|i| ((i as f32 * 0.73).cos() * 2.0) - 0.5)
                .collect(),
        );
        let bias: Vec<f32> = (0..outs).map(|i| i as f32 * 0.1 - 0.3).collect();

        let plain = x.linear(&w, &bias);
        let fused_no_relu = x.linear_fused(&w, &bias, false);
        assert_eq!(plain, fused_no_relu);

        let mut plain_relu = plain.clone();
        plain_relu.relu();
        assert_eq!(plain_relu, x.linear_fused(&w, &bias, true));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn linear_shape_mismatch_panics() {
        let x = Matrix::zeros(1, 2);
        let w = Matrix::zeros(3, 2);
        let _ = x.linear(&w, &[0.0, 0.0]);
    }
}

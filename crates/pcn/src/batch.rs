//! The SoA tile layer: one dense activation buffer shared by many
//! point-groups, so a whole micro-batch of clouds flows through each MLP
//! layer with a **single weight traversal**.
//!
//! A [`Batch`] stacks all groups of all clouds of a stage into one
//! row-major buffer (structure-of-arrays over rows) with a segment table
//! remembering which rows belong to which group, instead of one small
//! `k × features` matrix per gathered group — for PointNet++(s) that
//! would be hundreds of tiny matmuls per stage. The forward pass
//! (every `PointNet::infer*` call; a lone frame is a batch of one) runs
//! each MLP over the stacked rows, and the per-group max-pools read back
//! through the segment table.
//!
//! Because every operation is row-independent (linear, bias, ReLU) or
//! segment-local (max-pool), each cloud's result is **bit-identical** at
//! every batch width and to a group-at-a-time, layer-at-a-time pass —
//! `network.rs`'s test oracle and `tests/batch_props.rs` assert this for
//! whole networks.

use std::ops::Range;

use crate::{kernel, LinearKernel, Matrix};

/// A segmented stack of activation rows: the unit the batched forward
/// pass moves through MLP layers.
///
/// # Examples
///
/// ```
/// use hgpcn_pcn::{Batch, Matrix};
///
/// // Two segments (3 and 2 rows) of 4-wide activations.
/// let mut batch = Batch::zeros(&[3, 2], 4);
/// batch.segment_row_mut(0, 0)[0] = 1.0;
/// batch.segment_row_mut(1, 1)[3] = -2.0;
/// let w = Matrix::from_vec(4, 2, vec![1.0; 8]);
/// let out = batch.linear_fused(&w, &[0.0, 0.0], true);
/// assert_eq!(out.segment_count(), 2);
/// let pooled = out.max_pool_segments();
/// assert_eq!(pooled.rows(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    data: Matrix,
    segments: Vec<Range<usize>>,
}

impl Batch {
    /// A zero-filled batch with one segment per entry of `segment_rows`.
    pub fn zeros(segment_rows: &[usize], cols: usize) -> Batch {
        let total: usize = segment_rows.iter().sum();
        let mut segments = Vec::with_capacity(segment_rows.len());
        let mut start = 0usize;
        for &r in segment_rows {
            segments.push(start..start + r);
            start += r;
        }
        Batch {
            data: Matrix::zeros(total, cols),
            segments,
        }
    }

    /// Number of segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total stacked rows across all segments.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Activation width.
    #[inline]
    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// The segment row-ranges, in stacking order.
    #[inline]
    pub fn segments(&self) -> &[Range<usize>] {
        &self.segments
    }

    /// The stacked row-major activation buffer — the chunked MLP loop
    /// slices row ranges straight out of it.
    #[inline]
    pub(crate) fn data(&self) -> &Matrix {
        &self.data
    }

    /// Mutable access to the stacked buffer (rows are written in place
    /// by the chunked MLP loop's final layer).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut Matrix {
        &mut self.data
    }

    /// Rows of segment `seg` (immutable view of the stacked buffer).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_rows(&self, seg: usize) -> usize {
        self.segments[seg].len()
    }

    /// Mutable borrow of row `row` within segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range segment or row.
    #[inline]
    pub fn segment_row_mut(&mut self, seg: usize, row: usize) -> &mut [f32] {
        let range = &self.segments[seg];
        assert!(row < range.len(), "row {row} out of segment range");
        self.data.row_mut(range.start + row)
    }

    /// Borrow of row `row` within segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range segment or row.
    #[inline]
    pub fn segment_row(&self, seg: usize, row: usize) -> &[f32] {
        let range = &self.segments[seg];
        assert!(row < range.len(), "row {row} out of segment range");
        self.data.row(range.start + row)
    }

    /// One weight traversal for the whole batch:
    /// `self × weights + bias` (optionally fused ReLU) over every stacked
    /// row, keeping the segment table. Dispatches to the
    /// [`kernel::fastest_supported`] backend.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear_fused(&self, weights: &Matrix, bias: &[f32], relu: bool) -> Batch {
        self.linear_fused_with(kernel::fastest_supported(), weights, bias, relu)
    }

    /// [`Batch::linear_fused`] on an explicitly chosen backend — the
    /// batched tile primitive the kernel dispatch is wired through
    /// (results are bit-identical across backends; only speed differs).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if `kernel` is unsupported on the
    /// running CPU.
    pub fn linear_fused_with(
        &self,
        kernel: LinearKernel,
        weights: &Matrix,
        bias: &[f32],
        relu: bool,
    ) -> Batch {
        Batch {
            data: kernel.apply(&self.data, weights, bias, relu),
            segments: self.segments.clone(),
        }
    }

    /// [`Batch::linear_fused_with`] writing into a caller-owned batch
    /// whose buffers are reused across calls — the calibration pass
    /// ping-pongs two of these instead of allocating per layer.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if `kernel` is unsupported on the
    /// running CPU.
    pub fn linear_fused_into(
        &self,
        kernel: LinearKernel,
        weights: &Matrix,
        bias: &[f32],
        relu: bool,
        out: &mut Batch,
    ) {
        kernel.apply_into(&self.data, weights, bias, relu, &mut out.data);
        out.segments.clone_from(&self.segments);
    }

    /// The int8 sibling of [`Batch::linear_fused_into`]: quantizes the
    /// stacked rows with `layer`'s calibrated activation scale, runs
    /// the i8 GEMM on `kernel`, and writes the requantized (+ optional
    /// ReLU) f32 rows into `out`, keeping the segment table. `xq` is
    /// the caller's quantization scratch, reused across layers.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if `kernel` is unsupported on the
    /// running CPU.
    pub(crate) fn quant_forward_into(
        &self,
        kernel: crate::kernel::Int8Kernel,
        layer: &crate::quant::QuantLayer,
        relu: bool,
        xq: &mut Vec<i8>,
        out: &mut Batch,
    ) {
        layer.forward_into(kernel, &self.data, relu, &mut out.data, xq);
        out.segments.clone_from(&self.segments);
    }

    /// Per-segment column-wise max (the PointNet max-pool applied to each
    /// group independently). Returns a `segment_count × cols` matrix whose
    /// row `s` pools segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if any segment is empty.
    pub fn max_pool_segments(&self) -> Matrix {
        let mut out = Matrix::zeros(self.segments.len(), self.cols());
        for (s, range) in self.segments.iter().enumerate() {
            assert!(!range.is_empty(), "segment {s} has no rows to pool");
            let dst = out.row_mut(s);
            dst.copy_from_slice(self.data.row(range.start));
            for r in range.start + 1..range.end {
                for (o, &v) in dst.iter_mut().zip(self.data.row(r)) {
                    if v > *o {
                        *o = v;
                    }
                }
            }
        }
        out
    }

    /// Re-shapes this batch to the given segment layout, reusing the
    /// underlying allocations when they are large enough. Contents are
    /// unspecified afterwards — callers must overwrite every row (the
    /// batched forward pass fills every segment row it lays out).
    pub(crate) fn reshape_for_overwrite(&mut self, segment_rows: &[usize], cols: usize) {
        let total: usize = segment_rows.iter().sum();
        self.segments.clear();
        let mut start = 0usize;
        for &r in segment_rows {
            self.segments.push(start..start + r);
            start += r;
        }
        self.data.reshape_for_overwrite(total, cols);
    }

    /// Copies segment `seg` out as a standalone matrix (used to hand each
    /// cloud its own logits/features after a batched traversal).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_matrix(&self, seg: usize) -> Matrix {
        let range = self.segments[seg].clone();
        let mut out = Matrix::zeros(range.len(), self.cols());
        for (r, src) in range.clone().enumerate() {
            out.row_mut(r).copy_from_slice(self.data.row(src));
        }
        out
    }

    /// Stacks standalone matrices (all of the same width) into one batch,
    /// one segment per input matrix.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn from_matrices(parts: &[Matrix]) -> Batch {
        let cols = parts.first().map_or(0, Matrix::cols);
        let rows: Vec<usize> = parts.iter().map(Matrix::rows).collect();
        let mut batch = Batch::zeros(&rows, cols);
        for (s, m) in parts.iter().enumerate() {
            assert_eq!(m.cols(), cols, "segment widths must match");
            for r in 0..m.rows() {
                batch.segment_row_mut(s, r).copy_from_slice(m.row(r));
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_lays_out_contiguous_segments() {
        let b = Batch::zeros(&[2, 0, 3], 4);
        assert_eq!(b.segment_count(), 3);
        assert_eq!(b.rows(), 5);
        assert_eq!(b.segments()[0], 0..2);
        assert_eq!(b.segments()[1], 2..2);
        assert_eq!(b.segments()[2], 2..5);
        assert_eq!(b.segment_rows(2), 3);
    }

    #[test]
    fn segmented_linear_matches_per_segment_linear() {
        let mut b = Batch::zeros(&[3, 2], 3);
        for s in 0..2 {
            for r in 0..b.segment_rows(s) {
                for (c, v) in b.segment_row_mut(s, r).iter_mut().enumerate() {
                    *v = (s * 10 + r * 3 + c) as f32 * 0.5 - 2.0;
                }
            }
        }
        let w = Matrix::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, -0.25, 0.0]);
        let bias = [0.1, -0.2];
        let batched = b.linear_fused(&w, &bias, true);

        for s in 0..2 {
            let part = b.segment_matrix(s);
            let mut serial = part.linear(&w, &bias);
            serial.relu();
            assert_eq!(batched.segment_matrix(s), serial, "segment {s}");
        }
    }

    #[test]
    fn segment_max_pool_matches_matrix_max_pool() {
        let m0 = Matrix::from_vec(2, 2, vec![1.0, 5.0, 4.0, 2.0]);
        let m1 = Matrix::from_vec(3, 2, vec![0.0, -1.0, 7.0, -2.0, 3.0, 9.0]);
        let b = Batch::from_matrices(&[m0.clone(), m1.clone()]);
        let pooled = b.max_pool_segments();
        assert_eq!(pooled.row(0), m0.max_pool().row(0));
        assert_eq!(pooled.row(1), m1.max_pool().row(0));
    }

    #[test]
    #[should_panic(expected = "no rows to pool")]
    fn pooling_an_empty_segment_panics() {
        let b = Batch::zeros(&[1, 0], 2);
        let _ = b.max_pool_segments();
    }
}

//! The preproc-stage kernel registry: every pipeline stage with
//! interchangeable, bit-identical backends, gathered behind one
//! [`StageBackends`] selection.
//!
//! PR 3 proved the dispatch-seam pattern on one primitive — the GEMM
//! behind [`crate::kernel::LinearKernel`]. This module generalizes it to
//! the rest of the frame pipeline, microkernel-style: mechanism (the
//! stage loops) lives in each stage's crate, policy (which loop to run)
//! is one [`StageBackends`] value threaded through every engine call:
//!
//! * **sampling** — [`SamplingKernel`] (OIS scoreboard scans,
//!   `hgpcn_sampling::stage`);
//! * **gather** — [`GatherKernel`] (top-K neighbor selection,
//!   `hgpcn_gather::stage`);
//! * **interpolate** — [`InterpolateKernel`] (FP-stage 3-NN feature
//!   interpolation, this module).
//!
//! Every stage has a portable scalar **anchor** (the original loop, kept
//! byte-for-byte), and every optimized backend is **bit-identical** to
//! its anchor — same outputs, same modeled operation counts — so a
//! selection can change host speed only, never results or committed
//! latency quantiles. The served selection is a constant,
//! [`StageBackends::active`] (each stage's `Default`); tests and the
//! benchmark's replay pass another one to the `*_with` / `*_using`
//! entry points. See `ARCHITECTURE.md` for the full seam table.

use std::cmp::Ordering;

use hgpcn_geometry::Point3;
use hgpcn_memsim::OpCounts;

pub use hgpcn_gather::stage::GatherKernel;
pub use hgpcn_sampling::stage::SamplingKernel;

use crate::Matrix;

/// The feature-propagation interpolation backend. One variant: the
/// split-pass SoA alternative measured 1.009× and was pruned; the enum
/// and its `interpolate=` identity key stay because the JSON-RPC stats
/// objects, `/metrics` and `benchmark/` read them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InterpolateKernel {
    /// Per fine point, one fused loop over the coarse points that
    /// computes each squared distance and immediately insertion-sorts
    /// it into the running top-3.
    #[default]
    Scalar,
}

impl InterpolateKernel {
    /// Stable lower-case name, as reported in `RuntimeReport`.
    pub fn name(&self) -> &'static str {
        match self {
            InterpolateKernel::Scalar => "scalar",
        }
    }

    /// Inverse-distance 3-NN interpolation of `coarse` features onto the
    /// `fine` coordinates (PointNet++'s FP rule), tallying the search
    /// cost into `counts`. This is the loop every segmentation forward
    /// pass runs `fine × coarse` times per FP layer.
    ///
    /// A NaN distance compares `Equal` under `partial_cmp`, so it never
    /// displaces a finite candidate.
    ///
    /// ```
    /// use hgpcn_geometry::Point3;
    /// use hgpcn_memsim::OpCounts;
    /// use hgpcn_pcn::stage::InterpolateKernel;
    /// use hgpcn_pcn::Matrix;
    ///
    /// let fine = vec![Point3::ORIGIN, Point3::splat(0.9)];
    /// let coarse = vec![Point3::ORIGIN, Point3::splat(1.0), Point3::new(4.0, 0.0, 0.0)];
    /// let feats = Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]);
    ///
    /// let mut counts = OpCounts::default();
    /// let out = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut counts);
    /// assert!((out.row(0)[0] - 10.0).abs() < 1e-3); // a coincident coarse point dominates
    /// assert_eq!(counts.distance_computations, 6); // fine × coarse
    /// ```
    pub fn apply(
        &self,
        fine: &[Point3],
        coarse: &[Point3],
        coarse_feats: &Matrix,
        counts: &mut OpCounts,
    ) -> Matrix {
        let dim = coarse_feats.cols();
        let mut out = Matrix::zeros(fine.len(), dim);
        for (r, &p) in fine.iter().enumerate() {
            // Distances to every coarse point; keep the best three. A new
            // candidate starts at the back and slides left past strictly
            // greater entries — exactly where a stable sort of the appended
            // list would place it (NaN distances compare `Equal` and thus
            // never displace anything, as before).
            let mut best = [(0.0f32, 0usize); 3];
            let mut blen = 0usize;
            for (ci, &c) in coarse.iter().enumerate() {
                counts.distance_computations += 1;
                counts.comparisons += 1;
                let d = p.distance_sq(c);
                if blen < 3 {
                    best[blen] = (d, ci);
                    blen += 1;
                } else if best[2].0.partial_cmp(&d) == Some(Ordering::Greater) {
                    // Would displace the current third-best; the old
                    // third-best is what truncate(3) used to drop.
                    best[2] = (d, ci);
                } else {
                    continue;
                }
                let mut j = blen - 1;
                while j > 0 && best[j - 1].0.partial_cmp(&best[j].0) == Some(Ordering::Greater) {
                    best.swap(j - 1, j);
                    j -= 1;
                }
            }
            counts.mem_reads += coarse.len() as u64;
            counts.bytes_read += coarse.len() as u64 * 12;
            accumulate_row(&best, blen, coarse_feats, out.row_mut(r));
        }
        out
    }
}

/// The weight/accumulate tail: inverse-distance weights over the
/// selected candidates in their selection order, one multiply-add chain
/// per feature column.
fn accumulate_row(best: &[(f32, usize); 3], blen: usize, coarse_feats: &Matrix, row: &mut [f32]) {
    let mut wsum = 0.0f32;
    let mut weights = [(0.0f32, 0usize); 3];
    for (wslot, &(d, ci)) in weights[..blen].iter_mut().zip(&best[..blen]) {
        *wslot = (1.0 / (d + 1e-8), ci);
    }
    for &(w, _) in &weights[..blen] {
        wsum += w;
    }
    for &(w, ci) in &weights[..blen] {
        let f = coarse_feats.row(ci);
        let scale = w / wsum;
        for (o, &v) in row.iter_mut().zip(f) {
            *o += scale * v;
        }
    }
}

/// One backend selection per pipeline stage — the unit every engine
/// call threads through, reported in `RuntimeReport::stage_backends`.
///
/// ```
/// use hgpcn_pcn::stage::StageBackends;
///
/// // The served selection is each stage's optimized backend.
/// let active = StageBackends::active();
/// assert_eq!(active.sampling.name(), "batched");
/// assert_eq!(active.gather.name(), "blocked");
/// assert_eq!(active.interpolate.name(), "scalar");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StageBackends {
    /// OIS scoreboard-scan backend.
    pub sampling: SamplingKernel,
    /// Neighbor top-K selection backend.
    pub gather: GatherKernel,
    /// FP-stage interpolation backend.
    pub interpolate: InterpolateKernel,
}

impl StageBackends {
    /// The selection every engine serves: each stage's `Default`
    /// backend (the same value as `StageBackends::default()`).
    pub fn active() -> StageBackends {
        StageBackends::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_bundles_all_three_stages() {
        let active = StageBackends::active();
        assert_eq!(active, StageBackends::default());
        assert_eq!(active.sampling, SamplingKernel::Batched);
        assert_eq!(active.gather, GatherKernel::Blocked);
        assert_eq!(active.interpolate, InterpolateKernel::Scalar);
    }
}

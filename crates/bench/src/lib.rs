//! The experiment harness: one regenerator per table and figure of the
//! paper's evaluation (§III and §VII).
//!
//! Each function in [`figures`] computes the data behind one figure and
//! returns it as a plain struct, so the `repro` binary can print it and
//! the integration tests can assert the paper's *shape claims* (who wins,
//! by roughly what factor, where crossovers fall) without parsing text.
//!
//! Large-frame FPS costs use the closed-form operation counts
//! ([`hgpcn_sampling::fps::analytic_counts`]), which are property-tested
//! against the instrumented sampler; every OIS/VEG number comes from
//! actually executing the algorithms on generated frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

/// Deterministic dense `rows × cols` matrix with **no exact zeros**, so
/// every matmul backend executes every MAC (the zero-skip never fires)
/// and elements/s reads directly as MAC/s. Shared by the
/// `kernel_matmul` and `quant_gemm` benches so both measure the
/// identical workload.
///
/// The element index is mixed in f64 and cast last: past i ≈ 2^24 an
/// f32 index loses integer precision, so consecutive elements would
/// repeat and the "dense" matrix would degenerate (the same ulp
/// collapse the cloud generators guard against).
pub fn dense_matrix(rows: usize, cols: usize, phase: f32) -> hgpcn_pcn::Matrix {
    hgpcn_pcn::Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = (((i as f64 * 0.7311 + phase as f64).sin() * 1.7) - 0.31) as f32;
                if v == 0.0 {
                    0.125
                } else {
                    v
                }
            })
            .collect(),
    )
}

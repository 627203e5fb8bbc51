//! Pluggable matmul kernel backends selected by CPUID.
//!
//! Every dense layer in the workspace funnels through a single
//! primitive: `y = x · w + bias`, applied row-wise with an optional
//! fused ReLU, where a **zero input is skipped** rather than multiplied
//! (the ReLU-sparsity shortcut the cost models count). This module owns
//! that primitive and offers several implementations — a
//! [`LinearKernel`] — behind one contract:
//!
//! > Every backend accumulates each output element in exactly the same
//! > order as [`LinearKernel::Reference`] (ascending input index,
//! > zero inputs skipped, multiply-then-add with no FMA contraction), so
//! > all backends produce **bit-identical** results — logits, not
//! > "close enough". Only the memory-access schedule and the instruction
//! > selection differ. (One carve-out: when several NaNs merge into one
//! > accumulator, the result is NaN on every backend but its *payload*
//! > is unspecified — the surviving payload depends on operand order,
//! > which the compiler may legally commute even between two builds of
//! > the reference loop.)
//!
//! That contract is what lets the whole test suite stay anchored on one
//! reference path while ISA-specific backends slot in underneath — in
//! the spirit of a microkernel decomposition, mechanism (the MAC loops)
//! is separated from policy (which loop to run), and the policy is a
//! function of the CPU alone: [`fastest_supported`] picks AVX-512 when
//! runtime detection (`is_x86_feature_detected!`) reports AVX-512F, else
//! AVX2 when it reports AVX2; otherwise it picks the blocked scalar
//! kernel. Tests and yardsticks pin a backend programmatically with
//! [`PointNet::with_kernel`](crate::PointNet::with_kernel).
//!
//! The AVX2 and AVX-512 backends are compiled into every `x86_64` build
//! and are the crate's only unsafe code; other targets have neither.

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "x86_64")]
mod avx512;

use crate::Matrix;

/// One dense-layer task: `y = x · w + bias` (+ optional ReLU) over
/// row-major slices. `x` is `rows × ins`, `w` is `ins × outs`, `bias`
/// has length `outs`; the output buffer is `rows × outs`.
#[derive(Clone, Copy)]
pub(crate) struct LinearTask<'a> {
    /// Row-major input activations, `rows × ins`.
    pub x: &'a [f32],
    /// Number of activation rows.
    pub rows: usize,
    /// Input features per row.
    pub ins: usize,
    /// Row-major weights, `ins × outs`.
    pub w: &'a [f32],
    /// Output features per row.
    pub outs: usize,
    /// Per-output bias, length `outs`.
    pub bias: &'a [f32],
    /// Whether to fuse `max(0, ·)` into the store.
    pub relu: bool,
}

/// A matmul backend. All variants are bit-identical in results; they
/// differ only in speed. See the [module docs](self) for the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LinearKernel {
    /// The original scalar loop: streams inputs outermost and
    /// accumulates directly into the output row. The semantic anchor
    /// every other backend must match bit-for-bit.
    Reference,
    /// Cache-blocked scalar: 32/8-wide register tiles of output columns
    /// accumulate across the whole input stream, so each output tile is
    /// written to memory exactly once (PR 2's `linear_fused` schedule).
    Blocked,
    /// Explicit AVX2 `std::arch` intrinsics: 8-lane vectors across
    /// output columns in 32/16/8-column tiles, scalar tail. Uses
    /// separate multiply and add (no FMA) to keep scalar rounding.
    /// Compiled on `x86_64`; only *selected* when the CPU reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Explicit AVX-512F `std::arch` intrinsics: the AVX2 schedule on
    /// 16-lane vectors in 64-column tiles, with masked column tails.
    /// Compiled on `x86_64`; only *selected* when the CPU reports
    /// AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl LinearKernel {
    /// Stable lower-case name, as reported in `RuntimeReport`.
    pub fn name(&self) -> &'static str {
        match self {
            LinearKernel::Reference => "reference",
            LinearKernel::Blocked => "blocked",
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this backend. Scalar
    /// backends always can; AVX2 and AVX-512 require runtime feature
    /// detection to succeed on an `x86_64` host.
    pub fn is_supported(&self) -> bool {
        match self {
            LinearKernel::Reference | LinearKernel::Blocked => true,
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx2 => avx2_detected(),
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx512 => avx512_detected(),
        }
    }

    /// Every backend compiled into this build, fastest-last. Sweep this
    /// (filtered by [`LinearKernel::is_supported`]) in equivalence tests
    /// and benches.
    pub fn all() -> &'static [LinearKernel] {
        &[
            LinearKernel::Reference,
            LinearKernel::Blocked,
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx2,
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx512,
        ]
    }

    /// Runs this backend: `x · weights + bias`, row-wise, with an
    /// optional fused ReLU — the primitive behind
    /// [`Matrix::linear`] / [`Matrix::linear_fused`], callable on a
    /// *specific* backend for equivalence tests and benches.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, and when invoked on a backend the
    /// running CPU does not support (see [`LinearKernel::is_supported`]).
    pub fn apply(&self, x: &Matrix, weights: &Matrix, bias: &[f32], relu: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.apply_into(x, weights, bias, relu, &mut out);
        out
    }

    /// [`LinearKernel::apply`] writing into a caller-owned matrix, which
    /// is reshaped (reusing its allocation when capacity suffices) and
    /// fully overwritten — the hot batched path ping-pongs two such
    /// buffers through an MLP instead of allocating one output per
    /// layer.
    ///
    /// # Panics
    ///
    /// As [`LinearKernel::apply`].
    pub fn apply_into(
        &self,
        x: &Matrix,
        weights: &Matrix,
        bias: &[f32],
        relu: bool,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), weights.rows(), "inner dimensions must agree");
        assert_eq!(bias.len(), weights.cols(), "bias width must match output");
        out.reshape_for_overwrite(x.rows(), weights.cols());
        let task = LinearTask {
            x: x.as_slice(),
            rows: x.rows(),
            ins: x.cols(),
            w: weights.as_slice(),
            outs: weights.cols(),
            bias,
            relu,
        };
        self.run(&task, out.as_mut_slice());
    }

    /// Backend dispatch over validated slices.
    pub(crate) fn run(&self, task: &LinearTask<'_>, y: &mut [f32]) {
        debug_assert_eq!(task.x.len(), task.rows * task.ins);
        debug_assert_eq!(task.w.len(), task.ins * task.outs);
        debug_assert_eq!(task.bias.len(), task.outs);
        debug_assert_eq!(y.len(), task.rows * task.outs);
        match self {
            LinearKernel::Reference => scalar::reference(task, y),
            LinearKernel::Blocked => scalar::blocked(task, y),
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx2 => {
                assert!(
                    avx2_detected(),
                    "the AVX2 kernel was invoked on a CPU without AVX2; \
                     use kernel::fastest_supported() for checked dispatch"
                );
                avx2::run(task, y);
            }
            #[cfg(target_arch = "x86_64")]
            LinearKernel::Avx512 => {
                assert!(
                    avx512_detected(),
                    "the AVX-512 kernel was invoked on a CPU without AVX-512F; \
                     use kernel::fastest_supported() for checked dispatch"
                );
                avx512::run(task, y);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// The fastest backend the running CPU supports: AVX-512 when it
/// reports AVX-512F, else AVX2 when it reports AVX2; otherwise (or off
/// `x86_64`) the blocked scalar kernel. This is the backend every
/// [`Matrix::linear`] / [`Matrix::linear_fused`] call and every freshly
/// constructed [`PointNet`](crate::PointNet) dispatches to (the
/// detection result is cached by `std`, so calling it per GEMM is one
/// relaxed load).
pub fn fastest_supported() -> LinearKernel {
    #[cfg(target_arch = "x86_64")]
    for k in [LinearKernel::Avx512, LinearKernel::Avx2] {
        if k.is_supported() {
            return k;
        }
    }
    LinearKernel::Blocked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Matrix, Vec<f32>) {
        let x = Matrix::from_vec(
            3,
            5,
            (0..15)
                .map(|i| {
                    if i % 4 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.61).sin() * 2.0 - 0.4
                    }
                })
                .collect(),
        );
        let w = Matrix::from_vec(
            5,
            7,
            (0..35).map(|i| (i as f32 * 0.37).cos() * 1.5).collect(),
        );
        let bias = (0..7).map(|i| i as f32 * 0.2 - 0.7).collect();
        (x, w, bias)
    }

    #[test]
    fn every_supported_backend_matches_reference() {
        let (x, w, bias) = toy();
        for relu in [false, true] {
            let want = LinearKernel::Reference.apply(&x, &w, &bias, relu);
            for k in LinearKernel::all() {
                if !k.is_supported() {
                    continue;
                }
                assert_eq!(
                    k.apply(&x, &w, &bias, relu),
                    want,
                    "{} relu={relu}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn fastest_supported_is_runnable() {
        assert!(fastest_supported().is_supported());
    }

    /// A dispatch that silently falls back to a scalar backend only
    /// shows as a missing speed-up on a wall clock; here it is a failed
    /// equality.
    #[test]
    fn dispatch_selects_the_fastest_supported_backend() {
        #[cfg(target_arch = "x86_64")]
        let want = if is_x86_feature_detected!("avx512f") {
            LinearKernel::Avx512
        } else if is_x86_feature_detected!("avx2") {
            LinearKernel::Avx2
        } else {
            LinearKernel::Blocked
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = LinearKernel::Blocked;
        assert_eq!(fastest_supported(), want);
        let net = crate::PointNet::new(crate::PointNetConfig::classification(), 1);
        assert_eq!(net.kernel(), want);
    }
}

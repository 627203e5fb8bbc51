//! Pluggable matmul kernel backends selected by build features and CPUID.
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
//! function of the build and the CPU alone: [`fastest_supported`] picks
//! AVX2 when the `simd` feature is compiled in and runtime detection
//! (`is_x86_feature_detected!`) succeeds, the blocked scalar kernel
//! otherwise. Tests and yardsticks pin a backend programmatically with
//! [`PointNet::with_kernel`](crate::PointNet::with_kernel).
//!
//! The AVX2 backend only exists under the `simd` cargo feature; without
//! it the crate compiles with no unsafe code at all.
//!
//! The quantized inference path plugs in through the same seam: an
//! [`Int8Kernel`] owns the i32-accumulating i8 GEMM primitive behind
//! the [`crate::quant`] module (scalar always, AVX2 `vpmaddwd` under
//! `simd`), and [`Int8Kernel::for_linear`] derives its selection from
//! the **same** decision — one `with_kernel` pin steers both precisions.

mod int8;
mod scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod int8_avx2;

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
    /// Only compiled under the `simd` cargo feature; only *selected*
    /// when the CPU reports AVX2.
    #[cfg(feature = "simd")]
    Avx2,
}

impl LinearKernel {
    /// Stable lower-case name, as reported in `RuntimeReport`.
    pub fn name(&self) -> &'static str {
        match self {
            LinearKernel::Reference => "reference",
            LinearKernel::Blocked => "blocked",
            #[cfg(feature = "simd")]
            LinearKernel::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this backend. Scalar
    /// backends always can; AVX2 requires runtime feature detection to
    /// succeed on an `x86_64` host.
    pub fn is_supported(&self) -> bool {
        match self {
            LinearKernel::Reference | LinearKernel::Blocked => true,
            #[cfg(feature = "simd")]
            LinearKernel::Avx2 => avx2_detected(),
        }
    }

    /// Every backend compiled into this build, fastest-last. Sweep this
    /// (filtered by [`LinearKernel::is_supported`]) in equivalence tests
    /// and benches.
    pub fn all() -> &'static [LinearKernel] {
        &[
            LinearKernel::Reference,
            LinearKernel::Blocked,
            #[cfg(feature = "simd")]
            LinearKernel::Avx2,
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
            #[cfg(feature = "simd")]
            LinearKernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    assert!(
                        avx2_detected(),
                        "the AVX2 kernel was invoked on a CPU without AVX2; \
                         use kernel::fastest_supported() for checked dispatch"
                    );
                    avx2::run(task, y);
                }
                #[cfg(not(target_arch = "x86_64"))]
                panic!("the AVX2 kernel is only available on x86_64 hosts");
            }
        }
    }
}

/// One quantized dense-layer task: `y = dequant(xq · wq) + bias`
/// (+ optional ReLU) over row-major slices. `x` is `rows × ins` i8
/// (per-tensor symmetric activations), `w` is `ins × outs` i8
/// (per-channel symmetric weights), `scale` holds the per-output-channel
/// requantization multiplier (`a_scale · w_scale[j]`), `bias` is the
/// f32 bias; the output buffer is `rows × outs` f32.
#[derive(Clone, Copy)]
pub(crate) struct QuantTask<'a> {
    /// Row-major quantized activations, `rows × ins`.
    pub x: &'a [i8],
    /// Number of activation rows.
    pub rows: usize,
    /// Input features per row.
    pub ins: usize,
    /// Row-major quantized weights, `ins × outs`.
    pub w: &'a [i8],
    /// Output features per row.
    pub outs: usize,
    /// Per-output requantization scale, length `outs`.
    pub scale: &'a [f32],
    /// Per-output f32 bias, length `outs`.
    pub bias: &'a [f32],
    /// Whether to fuse `max(0, ·)` into the requantizing store.
    pub relu: bool,
}

/// An int8 GEMM backend: i32-accumulating i8×i8 multiply-accumulate
/// with a fused f32 requantize+ReLU store. Like [`LinearKernel`], all
/// variants are bit-identical in results (integer accumulation is
/// exact, and the requantize store is one identical single-rounded f32
/// expression per element); they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Int8Kernel {
    /// The scalar reference loop — always available, the semantic
    /// anchor of the quantized path.
    Scalar,
    /// Explicit AVX2 `vpmaddwd` tiles (see `kernel/int8_avx2.rs`).
    /// Only compiled under the `simd` cargo feature; only *selected*
    /// when the CPU reports AVX2.
    #[cfg(feature = "simd")]
    Avx2,
}

impl Int8Kernel {
    /// Stable lower-case name (`int8-scalar` / `int8-avx2`).
    pub fn name(&self) -> &'static str {
        match self {
            Int8Kernel::Scalar => "int8-scalar",
            #[cfg(feature = "simd")]
            Int8Kernel::Avx2 => "int8-avx2",
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(&self) -> bool {
        match self {
            Int8Kernel::Scalar => true,
            #[cfg(feature = "simd")]
            Int8Kernel::Avx2 => avx2_detected(),
        }
    }

    /// Every backend compiled into this build, fastest-last (the sweep
    /// order for equivalence tests and benches, filtered by
    /// [`Int8Kernel::is_supported`]).
    pub fn all() -> &'static [Int8Kernel] {
        &[
            Int8Kernel::Scalar,
            #[cfg(feature = "simd")]
            Int8Kernel::Avx2,
        ]
    }

    /// The int8 backend riding on a given f32 backend selection — the
    /// single [`PointNet::with_kernel`] pin steers both precisions: a
    /// scalar f32 backend (`reference`, `blocked`) selects the scalar
    /// int8 backend, AVX2 selects AVX2.
    ///
    /// [`PointNet::with_kernel`]: crate::PointNet::with_kernel
    pub fn for_linear(kernel: LinearKernel) -> Int8Kernel {
        match kernel {
            LinearKernel::Reference | LinearKernel::Blocked => Int8Kernel::Scalar,
            #[cfg(feature = "simd")]
            LinearKernel::Avx2 => Int8Kernel::Avx2,
        }
    }

    /// Backend dispatch over validated slices.
    pub(crate) fn run(&self, task: &QuantTask<'_>, y: &mut [f32]) {
        debug_assert_eq!(task.x.len(), task.rows * task.ins);
        debug_assert_eq!(task.w.len(), task.ins * task.outs);
        debug_assert_eq!(task.scale.len(), task.outs);
        debug_assert_eq!(task.bias.len(), task.outs);
        debug_assert_eq!(y.len(), task.rows * task.outs);
        match self {
            Int8Kernel::Scalar => int8::scalar(task, y),
            #[cfg(feature = "simd")]
            Int8Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    assert!(
                        avx2_detected(),
                        "the AVX2 int8 kernel was invoked on a CPU without AVX2; \
                         use Int8Kernel::for_linear(kernel::fastest_supported()) \
                         for checked dispatch"
                    );
                    int8_avx2::run(task, y);
                }
                #[cfg(not(target_arch = "x86_64"))]
                panic!("the AVX2 int8 kernel is only available on x86_64 hosts");
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(all(feature = "simd", not(target_arch = "x86_64")))]
fn avx2_detected() -> bool {
    false
}

/// The fastest backend the build *and* the running CPU support:
/// AVX2 when the `simd` feature is compiled in and detection succeeds,
/// otherwise the blocked scalar kernel. This is the backend every
/// [`Matrix::linear`] / [`Matrix::linear_fused`] call and every freshly
/// constructed [`PointNet`](crate::PointNet) dispatches to (the
/// detection result is cached by `std`, so calling it per GEMM is one
/// relaxed load).
pub fn fastest_supported() -> LinearKernel {
    #[cfg(feature = "simd")]
    if LinearKernel::Avx2.is_supported() {
        return LinearKernel::Avx2;
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
    fn dispatch_selects_the_fastest_compiled_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let want = if is_x86_feature_detected!("avx2") {
            LinearKernel::Avx2
        } else {
            LinearKernel::Blocked
        };
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        let want = LinearKernel::Blocked;
        assert_eq!(fastest_supported(), want);
        let net = crate::PointNet::new(crate::PointNetConfig::classification(), 1);
        assert_eq!(net.kernel(), want);
    }

    #[test]
    fn int8_backends_are_bit_identical() {
        let ins = 19usize;
        let outs = 21usize; // one 16-tile plus a 5-column scalar tail
        let rows = 6usize; // one 4-row block plus a 2-row remainder
        let x: Vec<i8> = (0..rows * ins)
            .map(|i| match i % 7 {
                0 | 1 => 0,
                2 => -127,
                3 => 127,
                _ => ((i * 37) % 251) as i8,
            })
            .collect();
        let w: Vec<i8> = (0..ins * outs)
            .map(|i| ((i * 73) % 255) as u8 as i8)
            .collect();
        let scale: Vec<f32> = (0..outs).map(|j| 0.01 + j as f32 * 0.003).collect();
        let bias: Vec<f32> = (0..outs).map(|j| j as f32 * 0.2 - 1.7).collect();
        for relu in [false, true] {
            let task = QuantTask {
                x: &x,
                rows,
                ins,
                w: &w,
                outs,
                scale: &scale,
                bias: &bias,
                relu,
            };
            let mut want = vec![0.0f32; rows * outs];
            Int8Kernel::Scalar.run(&task, &mut want);
            for k in Int8Kernel::all() {
                if !k.is_supported() {
                    continue;
                }
                let mut got = vec![0.0f32; rows * outs];
                k.run(&task, &mut got);
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} relu={relu}", k.name());
            }
        }
    }

    #[test]
    fn int8_backend_rides_the_linear_selection() {
        assert_eq!(
            Int8Kernel::for_linear(LinearKernel::Reference),
            Int8Kernel::Scalar
        );
        assert_eq!(
            Int8Kernel::for_linear(LinearKernel::Blocked),
            Int8Kernel::Scalar
        );
        #[cfg(feature = "simd")]
        assert_eq!(Int8Kernel::for_linear(LinearKernel::Avx2), Int8Kernel::Avx2);
        assert!(Int8Kernel::for_linear(fastest_supported()).is_supported());
    }
}

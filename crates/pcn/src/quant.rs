//! Post-training int8 quantization: calibration, quantized layers, and
//! the precision selector of a forward pass. An accuracy study: the
//! serving runtime runs [`Precision::F32`] only.
//!
//! The modeled hardware (the paper's commercial-DLA-style 16×16
//! systolic array, §VI) executes **fixed-point** MACs, yet the seed's
//! forward pass ran exclusively in f32 — the modeled machine and the
//! executed arithmetic disagreed in precision. This module closes that
//! gap with the standard post-training-quantization recipe:
//!
//! * **weights** are quantized **per output channel, symmetric**:
//!   column `j` of a layer gets scale `w_scale[j] = max_i |w[i,j]| / 127`
//!   and `wq[i,j] = round(w[i,j] / w_scale[j])` saturated to `±127`;
//! * **activations** are quantized **per tensor, symmetric**, with the
//!   scale coming from a [`Calibrator`] that observes each layer's
//!   input range (max |x|) over representative sample clouds;
//! * each dense layer then runs an i32-accumulating i8 GEMM
//!   ([`crate::kernel::Int8Kernel`]) whose store fuses the requantization
//!   (`acc · a_scale · w_scale[j] + bias[j]`) with the ReLU, producing
//!   f32 activations for the next layer to re-quantize.
//!
//! # Determinism and backend equivalence
//!
//! Everything here is deterministic and machine-independent: the
//! quantization rules are elementwise f32 expressions, the GEMM is
//! exact integer arithmetic, and the requantize store is one
//! single-rounded f32 expression per element — so int8 logits are
//! **bit-identical** across backends (scalar vs AVX2), across batch
//! widths, and across machines. The accuracy-parity CI
//! gate (`quant_parity`) leans on exactly this: its agreement numbers
//! are facts about the model, not about the host.
//!
//! # Workflow
//!
//! ```
//! use hgpcn_geometry::{Point3, PointCloud};
//! use hgpcn_pcn::{
//!     BruteKnnGatherer, Calibrator, CenterPolicy, PointNet, PointNetConfig, Precision,
//! };
//!
//! let net = PointNet::new(PointNetConfig::classification(), 7);
//! let cloud: PointCloud = (0..1024)
//!     .map(|i| Point3::new((i % 32) as f32, ((i / 32) % 32) as f32, (i % 7) as f32))
//!     .collect();
//!
//! // 1. Observe activation ranges over sample clouds.
//! let mut calibrator = Calibrator::new();
//! let mut gatherer = BruteKnnGatherer::new();
//! calibrator.observe(&net, &cloud, &mut gatherer, CenterPolicy::FirstN)?;
//!
//! // 2. Freeze the quantized weights + scales into the network.
//! let net = net.with_int8(&calibrator.finish()?)?;
//!
//! // 3. Serve either precision from the same network.
//! let mut gatherer = BruteKnnGatherer::new();
//! let int8 = net.infer_with_precision(
//!     &cloud, &mut gatherer, CenterPolicy::FirstN, Precision::Int8,
//! )?;
//! assert_eq!(int8.logits.cols(), 40);
//! # Ok::<(), hgpcn_pcn::PcnError>(())
//! ```

use crate::kernel::{Int8Kernel, QuantTask};
use crate::{Matrix, PcnError};

/// The symmetric quantized range: values map to `[-127, 127]`
/// (`-128` is never produced, keeping the scheme symmetric).
pub const QMAX: f32 = 127.0;

/// Numeric precision of a forward pass, chosen per call on
/// [`PointNet`](crate::PointNet) or `hgpcn_system::InferenceEngine`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full f32 arithmetic — the bit-exact reference tier.
    #[default]
    F32,
    /// Post-training-quantized int8 GEMMs with f32 requantization —
    /// the study tier, never served. Requires the network to carry calibrated
    /// quantized weights ([`PointNet::with_int8`](crate::PointNet::with_int8)).
    Int8,
}

impl Precision {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// The symmetric scale mapping `[-amax, amax]` onto the i8 range.
/// Degenerate ranges (zero, NaN or infinite `amax` — an all-zero
/// activation tensor, or garbage that never survives a real forward
/// pass) fall back to a scale of 1.
pub fn symmetric_scale(amax: f32) -> f32 {
    if amax > 0.0 && amax.is_finite() {
        amax / QMAX
    } else {
        1.0
    }
}

/// Quantizes one value: `round(v · inv_scale)` saturated to `±127`.
/// Rounding is half-away-from-zero (`f32::round`); saturation means
/// values beyond the calibrated range clip instead of wrapping.
/// Non-finite inputs follow Rust's saturating float→int cast: `±∞`
/// clips to `±127`, NaN quantizes to 0.
#[inline]
pub fn quantize_value(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-QMAX, QMAX) as i8
}

/// The inverse map: `q · scale`. Exact in f32 (both operands are
/// small), so round-tripping a value through
/// [`quantize_value`]/[`dequantize_value`] lands within half a
/// quantization step of the original for in-range inputs — the bound
/// the round-trip proptests pin down.
#[inline]
pub fn dequantize_value(q: i8, scale: f32) -> f32 {
    f32::from(q) * scale
}

/// One dense layer frozen to int8: per-channel symmetric weights, the
/// calibrated per-tensor activation scale, and the precomputed
/// requantization multipliers the GEMM store uses.
#[derive(Clone, Debug)]
pub struct QuantLayer {
    wq: Vec<i8>,
    ins: usize,
    outs: usize,
    w_scale: Vec<f32>,
    a_scale: f32,
    a_inv_scale: f32,
    /// `a_scale · w_scale[j]` — what one i32 accumulator count is worth.
    out_scale: Vec<f32>,
    bias: Vec<f32>,
}

impl QuantLayer {
    /// Quantizes one f32 layer (`ins × outs` weights + bias) against a
    /// calibrated input range `a_amax` (the max |x| the calibrator saw
    /// entering this layer).
    ///
    /// # Panics
    ///
    /// Panics if `bias` does not match the weight width.
    pub fn quantize(w: &Matrix, bias: &[f32], a_amax: f32) -> QuantLayer {
        let (ins, outs) = (w.rows(), w.cols());
        assert_eq!(bias.len(), outs, "bias width must match output");
        // Per-channel amax over the column.
        let mut col_amax = vec![0.0f32; outs];
        for i in 0..ins {
            for (a, &v) in col_amax.iter_mut().zip(w.row(i)) {
                if v.abs() > *a {
                    *a = v.abs();
                }
            }
        }
        let w_scale: Vec<f32> = col_amax.iter().map(|&a| symmetric_scale(a)).collect();
        let mut wq = vec![0i8; ins * outs];
        for i in 0..ins {
            for (j, &v) in w.row(i).iter().enumerate() {
                wq[i * outs + j] = quantize_value(v, 1.0 / w_scale[j]);
            }
        }
        let a_scale = symmetric_scale(a_amax);
        let out_scale: Vec<f32> = w_scale.iter().map(|&ws| a_scale * ws).collect();
        QuantLayer {
            wq,
            ins,
            outs,
            w_scale,
            a_scale,
            a_inv_scale: 1.0 / a_scale,
            out_scale,
            bias: bias.to_vec(),
        }
    }

    /// Input features per row.
    pub fn ins(&self) -> usize {
        self.ins
    }

    /// Output features per row.
    pub fn outs(&self) -> usize {
        self.outs
    }

    /// The calibrated per-tensor activation scale.
    pub fn a_scale(&self) -> f32 {
        self.a_scale
    }

    /// The per-output-channel weight scales.
    pub fn w_scale(&self) -> &[f32] {
        &self.w_scale
    }

    /// The quantized weight of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn wq(&self, i: usize, j: usize) -> i8 {
        assert!(i < self.ins && j < self.outs, "weight index out of range");
        self.wq[i * self.outs + j]
    }

    /// Runs the layer on a chosen int8 backend: quantizes `x` with the
    /// calibrated activation scale, executes the i8 GEMM, and writes
    /// requantized (+ optional ReLU) f32 into `out` (reshaped, its
    /// allocation reused). `xq` is the caller's quantization scratch,
    /// grown once and reused across layers.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if `kernel` is unsupported on the
    /// running CPU.
    pub fn forward_into(
        &self,
        kernel: Int8Kernel,
        x: &Matrix,
        relu: bool,
        out: &mut Matrix,
        xq: &mut Vec<i8>,
    ) {
        assert_eq!(x.cols(), self.ins, "inner dimensions must agree");
        let rows = x.rows();
        xq.clear();
        xq.extend(
            x.as_slice()
                .iter()
                .map(|&v| quantize_value(v, self.a_inv_scale)),
        );
        out.reshape_for_overwrite(rows, self.outs);
        let task = QuantTask {
            x: xq,
            rows,
            ins: self.ins,
            w: &self.wq,
            outs: self.outs,
            scale: &self.out_scale,
            bias: &self.bias,
            relu,
        };
        kernel.run(&task, out.as_mut_slice());
    }

    /// [`QuantLayer::forward_into`] allocating its own output and
    /// scratch — the convenience entry benches and tests use.
    ///
    /// # Panics
    ///
    /// As [`QuantLayer::forward_into`].
    pub fn forward_with(&self, kernel: Int8Kernel, x: &Matrix, relu: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let mut xq = Vec::new();
        self.forward_into(kernel, x, relu, &mut out, &mut xq);
        out
    }
}

/// Which of a network's MLP groups a dense layer belongs to — the
/// index shared by the f32 weights, the quantized layers and the
/// calibration slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MlpGroup {
    /// Set-abstraction / global-abstraction stage `i`'s shared MLP.
    Stage(usize),
    /// Feature-propagation MLP `i`.
    Fp(usize),
    /// The classification / segmentation head.
    Head,
}

/// Per-layer activation-range observations, shaped exactly like the
/// network's weight structure (stage MLPs, FP MLPs, head).
#[derive(Clone, Debug, Default)]
pub(crate) struct AmaxStats {
    pub(crate) stages: Vec<Vec<f32>>,
    pub(crate) fps: Vec<Vec<f32>>,
    pub(crate) head: Vec<f32>,
}

impl AmaxStats {
    /// Folds one layer input into an amax slot, ignoring non-finite
    /// values (they carry no range information).
    pub(crate) fn record(slot: &mut f32, x: &Matrix) {
        for &v in x.as_slice() {
            if v.is_finite() && v.abs() > *slot {
                *slot = v.abs();
            }
        }
    }

    /// The amax slot of layer `layer` in group `group`.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not exist (structure mismatch).
    pub(crate) fn group_slot(&mut self, group: MlpGroup, layer: usize) -> &mut f32 {
        match group {
            MlpGroup::Stage(i) => &mut self.stages[i][layer],
            MlpGroup::Fp(i) => &mut self.fps[i][layer],
            MlpGroup::Head => &mut self.head[layer],
        }
    }

    /// Whether two observations cover the same layer structure.
    pub(crate) fn same_shape(&self, other: &AmaxStats) -> bool {
        let dims = |s: &AmaxStats| {
            (
                s.stages.iter().map(Vec::len).collect::<Vec<_>>(),
                s.fps.iter().map(Vec::len).collect::<Vec<_>>(),
                s.head.len(),
            )
        };
        dims(self) == dims(other)
    }
}

/// Frozen calibration: one activation amax per dense layer, produced by
/// [`Calibrator::finish`] and consumed by
/// [`PointNet::with_int8`](crate::PointNet::with_int8).
#[derive(Clone, Debug)]
pub struct Calibration {
    pub(crate) stats: AmaxStats,
    clouds: usize,
}

impl Calibration {
    /// How many sample clouds the ranges were observed over.
    pub fn observed_clouds(&self) -> usize {
        self.clouds
    }
}

/// Observes activation ranges over sample clouds — the
/// post-training-quantization calibration pass.
///
/// Feed it representative clouds via [`Calibrator::observe`] (each call
/// is one full-precision forward pass with range hooks on every dense
/// layer input), then [`Calibrator::finish`] freezes the ranges into a
/// [`Calibration`]. See the [module docs](self) for the whole workflow.
#[derive(Debug, Default)]
pub struct Calibrator {
    stats: Option<AmaxStats>,
    clouds: usize,
}

impl Calibrator {
    /// An empty calibrator; layer slots materialize on the first
    /// [`Calibrator::observe`] call, shaped from the observed network.
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    /// Runs one observed f32 forward pass of `net` over `cloud`,
    /// folding every dense layer's input range into the running
    /// per-layer amax.
    ///
    /// All observe calls must use the same network architecture (the
    /// per-layer slots are shaped on first use).
    ///
    /// # Errors
    ///
    /// Propagates inference failures ([`PcnError::InputTooSmall`],
    /// [`PcnError::Gather`]).
    ///
    /// # Panics
    ///
    /// Panics if `net`'s layer structure differs from the first
    /// observed network's.
    pub fn observe(
        &mut self,
        net: &crate::PointNet,
        cloud: &hgpcn_geometry::PointCloud,
        gatherer: &mut dyn crate::Gatherer,
        policy: crate::CenterPolicy,
    ) -> Result<(), PcnError> {
        let slots = net.amax_slots();
        let stats = self.stats.get_or_insert_with(|| slots.clone());
        assert!(
            stats.same_shape(&slots),
            "calibrator observed networks with different layer structures"
        );
        net.observe_ranges(cloud, gatherer, policy, stats)?;
        self.clouds += 1;
        Ok(())
    }

    /// How many clouds have been observed so far.
    pub fn observed_clouds(&self) -> usize {
        self.clouds
    }

    /// Freezes the observed ranges.
    ///
    /// # Errors
    ///
    /// [`PcnError::EmptyCalibration`] if no cloud was ever observed —
    /// quantizing against unobserved (all-zero) ranges would silently
    /// produce garbage scales.
    pub fn finish(self) -> Result<Calibration, PcnError> {
        match (self.stats, self.clouds) {
            (Some(stats), clouds) if clouds > 0 => Ok(Calibration { stats, clouds }),
            _ => Err(PcnError::EmptyCalibration),
        }
    }
}

/// All of a network's layers frozen to int8, mirroring the f32 weight
/// structure.
#[derive(Clone, Debug)]
pub(crate) struct QuantizedModel {
    pub(crate) stages: Vec<Vec<QuantLayer>>,
    pub(crate) fps: Vec<Vec<QuantLayer>>,
    pub(crate) head: Vec<QuantLayer>,
}

type LayerWeights = (Matrix, Vec<f32>);

fn quantize_group(weights: &[LayerWeights], amax: &[f32]) -> Result<Vec<QuantLayer>, PcnError> {
    if weights.len() != amax.len() {
        return Err(PcnError::CalibrationMismatch {
            got: amax.len(),
            expected: weights.len(),
        });
    }
    Ok(weights
        .iter()
        .zip(amax)
        .map(|((w, b), &a)| QuantLayer::quantize(w, b, a))
        .collect())
}

impl QuantizedModel {
    /// Quantizes every layer of a network against its calibration.
    ///
    /// # Errors
    ///
    /// [`PcnError::CalibrationMismatch`] when the calibration's layer
    /// structure does not match the network's.
    pub(crate) fn build(
        stage_weights: &[Vec<LayerWeights>],
        fp_weights: &[Vec<LayerWeights>],
        head_weights: &[LayerWeights],
        cal: &Calibration,
    ) -> Result<QuantizedModel, PcnError> {
        let s = &cal.stats;
        if s.stages.len() != stage_weights.len() || s.fps.len() != fp_weights.len() {
            return Err(PcnError::CalibrationMismatch {
                got: s.stages.len(),
                expected: stage_weights.len(),
            });
        }
        let stages = stage_weights
            .iter()
            .zip(&s.stages)
            .map(|(w, a)| quantize_group(w, a))
            .collect::<Result<_, _>>()?;
        let fps = fp_weights
            .iter()
            .zip(&s.fps)
            .map(|(w, a)| quantize_group(w, a))
            .collect::<Result<_, _>>()?;
        let head = quantize_group(head_weights, &s.head)?;
        Ok(QuantizedModel { stages, fps, head })
    }

    /// The quantized layers of one MLP group.
    pub(crate) fn group(&self, group: MlpGroup) -> &[QuantLayer] {
        match group {
            MlpGroup::Stage(i) => &self.stages[i],
            MlpGroup::Fp(i) => &self.fps[i],
            MlpGroup::Head => &self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_handles_degenerate_ranges() {
        assert_eq!(symmetric_scale(0.0), 1.0);
        assert_eq!(symmetric_scale(-3.0), 1.0);
        assert_eq!(symmetric_scale(f32::NAN), 1.0);
        assert_eq!(symmetric_scale(f32::INFINITY), 1.0);
        assert_eq!(symmetric_scale(127.0), 1.0);
        assert!((symmetric_scale(12.7) - 0.1).abs() < 1e-7);
    }

    #[test]
    fn quantize_saturates_and_round_trips() {
        let scale = symmetric_scale(2.0);
        let inv = 1.0 / scale;
        assert_eq!(quantize_value(2.0, inv), 127);
        assert_eq!(quantize_value(-2.0, inv), -127);
        assert_eq!(quantize_value(1000.0, inv), 127, "saturates, never wraps");
        assert_eq!(quantize_value(-1000.0, inv), -127);
        assert_eq!(quantize_value(f32::INFINITY, inv), 127);
        assert_eq!(quantize_value(f32::NEG_INFINITY, inv), -127);
        assert_eq!(quantize_value(f32::NAN, inv), 0);
        for v in [-1.99, -0.3, 0.0, 0.017, 1.5, 2.0] {
            let rt = dequantize_value(quantize_value(v, inv), scale);
            assert!(
                (rt - v).abs() <= scale * 0.5 + f32::EPSILON,
                "round-trip of {v} drifted to {rt}"
            );
        }
    }

    #[test]
    fn per_channel_weight_scales_are_independent() {
        // Column 0 spans ±4, column 1 spans ±0.5: per-channel scales
        // keep the small column's resolution.
        let w = Matrix::from_vec(2, 2, vec![4.0, 0.5, -2.0, -0.25]);
        let layer = QuantLayer::quantize(&w, &[0.0, 0.0], 1.0);
        assert_eq!(layer.wq(0, 0), 127);
        assert_eq!(layer.wq(0, 1), 127);
        assert_eq!(layer.wq(1, 0), -64);
        assert_eq!(layer.wq(1, 1), -64);
        assert!((layer.w_scale()[0] - 4.0 / 127.0).abs() < 1e-9);
        assert!((layer.w_scale()[1] - 0.5 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn forward_matches_hand_quantized_reference() {
        // amax 1.27 -> a_scale 0.01: x = [0.5, -0.25] -> q = [50, -25].
        let w = Matrix::from_vec(2, 1, vec![1.27, -1.27]);
        let layer = QuantLayer::quantize(&w, &[0.1], 1.27);
        let x = Matrix::from_vec(1, 2, vec![0.5, -0.25]);
        let y = layer.forward_with(Int8Kernel::Scalar, &x, false);
        // acc = 50·127 + (-25)·(-127) = 9525, requantized by the exact
        // a_scale·w_scale product the layer precomputes.
        let s = 1.27f32 / 127.0;
        let want = 9525.0f32 * (s * s) + 0.1;
        assert_eq!(y.get(0, 0).to_bits(), want.to_bits());
        // The fused ReLU clamps a negative requantized value.
        let yneg = layer.forward_with(
            Int8Kernel::Scalar,
            &Matrix::from_vec(1, 2, vec![-0.5, 0.25]),
            true,
        );
        assert_eq!(yneg.get(0, 0), 0.0);
    }

    #[test]
    fn calibrator_refuses_to_finish_empty() {
        assert!(matches!(
            Calibrator::new().finish(),
            Err(PcnError::EmptyCalibration)
        ));
    }
}

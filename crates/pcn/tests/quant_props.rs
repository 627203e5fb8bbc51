//! Property tests for the post-training-quantization subsystem:
//!
//! * quantize→dequantize round-trips stay within half a quantization
//!   step for in-range values, and saturate (never wrap) at the i8
//!   extremes;
//! * every compiled, supported int8 GEMM backend is **bit-identical**
//!   to the scalar anchor across ragged shapes and adversarial
//!   activations — the same obligation `kernel_props.rs` places on the
//!   f32 backends. The f32 carve-out for merged NaN payloads does not
//!   apply here: non-finite activations quantize to ±127/0 before the
//!   GEMM, integer accumulation is exact, and the requantize store is
//!   one single-rounded f32 expression per element, so equality is
//!   plain `to_bits` with no exceptions;
//! * a quantized network's int8 forward pass is bit-identical between
//!   a batch of N and N batches of one, mirroring `batch_props.rs`.

use proptest::prelude::*;

use hgpcn_pcn::quant::{dequantize_value, quantize_value, symmetric_scale};
use hgpcn_pcn::{
    BruteKnnGatherer, Calibrator, CenterPolicy, Gatherer, Int8Kernel, Matrix, PcnError, PointNet,
    PointNetConfig, Precision, QuantLayer,
};

fn backends_under_test() -> Vec<Int8Kernel> {
    Int8Kernel::all()
        .iter()
        .copied()
        .filter(|k| *k != Int8Kernel::Scalar && k.is_supported())
        .collect()
}

/// Bit-level equality — no NaN carve-out: the int8 path cannot produce
/// NaN from finite scales/biases, and non-finite inputs are saturated
/// away before the GEMM.
fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{}: row count", what);
    prop_assert_eq!(a.cols(), b.cols(), "{}: col count", what);
    for r in 0..a.rows() {
        for (c, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "{}: ({}, {}): {:?} vs {:?}",
                what,
                r,
                c,
                x,
                y
            );
        }
    }
    Ok(())
}

/// Activations mixing ordinary values with exact zeros, negative
/// zeros, NaNs, infinities and values far outside the calibrated
/// range (the saturation path).
fn arb_activations(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..=9, -6.0f32..6.0), len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, v)| match kind {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => f32::NAN,
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                6 => v * 1e6, // far beyond any calibrated amax
                _ => v,
            })
            .collect()
    })
}

proptest! {
    /// In-range values round-trip through quantize→dequantize within
    /// half a quantization step.
    #[test]
    fn round_trip_error_is_bounded_by_half_a_step(
        amax in 0.01f32..100.0,
        unit in -1.0f32..1.0,
    ) {
        let v = unit * amax;
        let scale = symmetric_scale(amax);
        let inv = 1.0 / scale;
        let q = quantize_value(v, inv);
        let rt = dequantize_value(q, scale);
        // Half a step, plus slack for the f32 rounding of v·inv itself.
        let bound = scale * 0.5 * (1.0 + 1e-5) + amax * 1e-6;
        prop_assert!(
            (rt - v).abs() <= bound,
            "round-trip of {v} (amax {amax}, scale {scale}) drifted to {rt}"
        );
    }

    /// Saturation at the i8 extremes: out-of-range and non-finite
    /// values clip to the symmetric limits (never wrap past ±127, and
    /// -128 is never produced); NaN quantizes to 0.
    #[test]
    fn quantization_saturates_at_i8_extremes(
        amax in 0.01f32..100.0,
        mag in 1.0f32..1e30,
    ) {
        let inv = 1.0 / symmetric_scale(amax);
        prop_assert_eq!(quantize_value(amax * mag.max(1.0 + 1e-3), inv), 127);
        prop_assert_eq!(quantize_value(-amax * mag.max(1.0 + 1e-3), inv), -127);
        prop_assert_eq!(quantize_value(f32::INFINITY, inv), 127);
        prop_assert_eq!(quantize_value(f32::NEG_INFINITY, inv), -127);
        prop_assert_eq!(quantize_value(f32::NAN, inv), 0);
        // The full representable sweep stays inside [-127, 127].
        for q in i8::MIN..=i8::MAX {
            let back = quantize_value(dequantize_value(q, symmetric_scale(amax)), inv);
            prop_assert!((-127..=127).contains(&(back as i32)));
        }
    }

    /// Ragged shapes: rows not a multiple of the 4-row block, columns
    /// spanning the 16-wide tile tier plus scalar tails, including
    /// empty rows, zero-width inputs and zero-width outputs — every
    /// supported int8 backend matches the scalar anchor bit-for-bit.
    #[test]
    fn int8_backends_are_bit_identical_across_ragged_shapes(
        rows in 0usize..10,
        ins in 0usize..40,
        outs_pick in 0usize..10,
        relu_pick in 0u8..2,
        seed in 0u32..1000,
    ) {
        const OUTS: [usize; 10] = [0, 1, 3, 7, 13, 16, 17, 31, 32, 45];
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
        let layer = QuantLayer::quantize(&w, &bias, 4.2);

        let want = layer.forward_with(Int8Kernel::Scalar, &x, relu);
        for k in backends_under_test() {
            let got = layer.forward_with(k, &x, relu);
            assert_bits_equal(&got, &want, k.name())?;
        }
    }

    /// Adversarial activations (NaN / ±∞ / ±0.0 / huge saturating
    /// values) quantize identically on the shared path and flow through
    /// every backend to bit-identical outputs.
    #[test]
    fn int8_backends_agree_on_adversarial_activations(
        x_data in arb_activations(6 * 21),
        relu_pick in 0u8..2,
    ) {
        let relu = relu_pick == 1;
        let x = Matrix::from_vec(6, 21, x_data);
        let w = Matrix::from_vec(
            21,
            19,
            (0..21 * 19).map(|i| ((i as f32) * 0.21).sin()).collect(),
        );
        let bias: Vec<f32> = (0..19).map(|j| j as f32 * 0.05 - 0.2).collect();
        let layer = QuantLayer::quantize(&w, &bias, 2.5);
        let want = layer.forward_with(Int8Kernel::Scalar, &x, relu);
        for k in backends_under_test() {
            let got = layer.forward_with(k, &x, relu);
            assert_bits_equal(&got, &want, k.name())?;
        }
    }
}

fn cloud(n: usize, salt: usize) -> hgpcn_geometry::PointCloud {
    use hgpcn_geometry::Point3;
    (0..n)
        .map(|i| {
            let f = (i + salt * 131) as f32;
            Point3::new(
                (f * 0.618).fract() * 2.0,
                (f * 0.414).fract() * 2.0,
                (f * 0.732).fract() * 2.0,
            )
        })
        .collect()
}

fn quantized_net() -> PointNet {
    let net = PointNet::new(PointNetConfig::classification(), 11);
    let mut calibrator = Calibrator::new();
    for c in 0..4 {
        let mut g = BruteKnnGatherer::new();
        calibrator
            .observe(&net, &cloud(1024, c), &mut g, CenterPolicy::FirstN)
            .expect("calibration pass");
    }
    net.with_int8(&calibrator.finish().expect("observed"))
        .expect("matching calibration")
}

/// The int8 tier is bit-identical between a batch of N and N batches
/// of one, exactly like the f32 tier.
#[test]
fn int8_batch_of_n_matches_batches_of_one_bitwise() {
    let net = quantized_net();
    let clouds = [cloud(1024, 10), cloud(1100, 11), cloud(1050, 12)];
    let refs: Vec<&hgpcn_geometry::PointCloud> = clouds.iter().collect();
    let policies = vec![CenterPolicy::FirstN; clouds.len()];
    let mut gs: Vec<BruteKnnGatherer> =
        (0..clouds.len()).map(|_| BruteKnnGatherer::new()).collect();
    let mut grefs: Vec<&mut dyn Gatherer> = gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
    let batched = net
        .infer_batch_with_precision(&refs, &mut grefs, &policies, Precision::Int8)
        .expect("batched int8 pass");
    for (c, b) in clouds.iter().zip(&batched) {
        let mut g = BruteKnnGatherer::new();
        let single = net
            .infer_with_precision(c, &mut g, CenterPolicy::FirstN, Precision::Int8)
            .expect("int8 batch of one");
        assert_eq!(single.logits, b.logits);
        assert_eq!(single.macs, b.macs);
        assert_eq!(single.precision, Precision::Int8);
        assert_eq!(b.precision, Precision::Int8);
    }
}

/// Int8 logits track the f32 reference closely on in-distribution
/// clouds (argmax agreement; exactness is neither expected nor
/// asserted), and MAC accounting is identical across tiers.
#[test]
fn int8_tracks_f32_closely() {
    let net = quantized_net();
    let input = cloud(1024, 42);
    let mut g32 = BruteKnnGatherer::new();
    let f = net
        .infer_with_precision(&input, &mut g32, CenterPolicy::FirstN, Precision::F32)
        .expect("f32 pass");
    let mut g8 = BruteKnnGatherer::new();
    let q = net
        .infer_with_precision(&input, &mut g8, CenterPolicy::FirstN, Precision::Int8)
        .expect("int8 pass");
    assert_eq!(f.macs, q.macs, "MAC accounting is precision-independent");
    assert_eq!(
        f.gather_counts, q.gather_counts,
        "data structuring is precision-independent"
    );
    assert_eq!(f.predicted_class(0), q.predicted_class(0));
    let max_dev = f
        .logits
        .row(0)
        .iter()
        .zip(q.logits.row(0))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_dev < 0.05, "int8 logits drifted {max_dev} from f32");
}

/// Int8 on an unquantized network is a typed error, not a panic.
#[test]
fn int8_without_calibration_is_rejected() {
    let net = PointNet::new(PointNetConfig::classification(), 11);
    let mut g = BruteKnnGatherer::new();
    assert!(matches!(
        net.infer_with_precision(
            &cloud(1024, 0),
            &mut g,
            CenterPolicy::FirstN,
            Precision::Int8
        ),
        Err(PcnError::NotQuantized)
    ));
}

/// A calibration from a structurally different network is rejected.
#[test]
fn mismatched_calibration_is_rejected() {
    let class_net = PointNet::new(PointNetConfig::classification(), 11);
    let mut calibrator = Calibrator::new();
    let mut g = BruteKnnGatherer::new();
    calibrator
        .observe(&class_net, &cloud(1024, 0), &mut g, CenterPolicy::FirstN)
        .expect("calibration pass");
    let calibration = calibrator.finish().expect("observed");
    let seg_net = PointNet::new(PointNetConfig::semantic_segmentation(512), 11);
    assert!(matches!(
        seg_net.with_int8(&calibration),
        Err(PcnError::CalibrationMismatch { .. })
    ));
}

//! The output check: what the runtime returned, recomputed serially.
//!
//! A frame's result is a pure function of `(input, base seed, stream,
//! frame index)` — and, for its modeled pre-processing cost, of whether
//! the stream's previous frame primed the warm path. The check recomputes
//! that function through the engines' serial entry points and compares
//! bit for bit.

use hgpcn_geometry::PointCloud;
use hgpcn_memsim::Latency;
use hgpcn_pcn::{Matrix, PointNet, Precision, StageBackends};
use hgpcn_runtime::frame_seed;
use hgpcn_system::{E2ePipeline, StreamPreprocContext};

use crate::workload::Workload;

/// What the program under test returned for one frame, as far as the
/// surface it was driven through exposes it.
#[derive(Clone, Debug)]
pub enum Returned {
    /// In process: the full logits and both modeled phase latencies.
    Full {
        logits: Matrix,
        macs: u64,
        pre: Latency,
        inf: Latency,
    },
    /// Over HTTP: the wire's `output` and `timing` blocks. The modeled
    /// phase latencies come back as differences of virtual-clock stamps,
    /// so they carry the rounding of that clock (`clock_s` is its value).
    Wire {
        predicted_class: usize,
        macs: u64,
        pre_s: f64,
        inf_s: f64,
        clock_s: f64,
    },
}

/// One retained result.
#[derive(Clone, Debug)]
pub struct Kept {
    pub stream: usize,
    pub index: usize,
    /// Whether the runtime reports the warm path for this frame (the
    /// wire does not say; `serve_http` inputs never repeat an AABB).
    pub reused: bool,
    pub returned: Returned,
}

/// The serial recomputation of one frame.
pub struct Recomputed {
    pub logits: Matrix,
    pub predicted_class: usize,
    pub macs: u64,
    pub pre: Latency,
    pub inf: Latency,
    pub reused: bool,
}

/// Recomputes frame `index` of `stream`. A frame the runtime priced warm
/// is recomputed warm: the stream's previous frame primes a fresh
/// context first, which is all the warm cache ever depends on.
pub fn recompute(
    w: &Workload,
    pipeline: &E2ePipeline,
    net: &PointNet,
    stages: StageBackends,
    stream: usize,
    index: usize,
    warm: bool,
) -> Recomputed {
    let target = w.kind.target_points();
    let seed = frame_seed(w.base_seed, stream, index);
    let cloud: &PointCloud = w.frame(stream, index);
    let pre = if warm && index > 0 {
        let mut ctx = StreamPreprocContext::new();
        let prev_seed = frame_seed(w.base_seed, stream, index - 1);
        let primer = pipeline
            .preproc
            .run_with_context(
                w.frame(stream, index - 1),
                target,
                prev_seed,
                stages.sampling,
                &mut ctx,
            )
            .expect("primer frame preprocesses");
        ctx.recycle(primer);
        pipeline
            .preproc
            .run_with_context(cloud, target, seed, stages.sampling, &mut ctx)
    } else {
        pipeline
            .preproc
            .run_using(cloud, target, seed, stages.sampling)
    }
    .expect("generated frame preprocesses");
    let inf = pipeline
        .inference
        .run_with_precision_using(&pre.sampled, net, seed, Precision::F32, stages)
        .expect("generated frame infers");
    Recomputed {
        predicted_class: inf.output.predicted_class(0),
        macs: inf.output.macs,
        pre: pre.total_latency(),
        inf: inf.total_latency(),
        reused: pre.reused,
        logits: inf.output.logits,
    }
}

/// Bit-for-bit equality of two logit matrices (`-0.0 != 0.0`, and a NaN
/// equals only the same NaN).
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Why `kept` differs from its recomputation, or `None` if it does not.
pub fn mismatch(kept: &Kept, truth: &Recomputed) -> Option<String> {
    let at = format!("stream {} frame {}", kept.stream, kept.index);
    if kept.reused != truth.reused {
        return Some(format!(
            "{at}: runtime says warm={}, serial says {}",
            kept.reused, truth.reused
        ));
    }
    match &kept.returned {
        Returned::Full {
            logits,
            macs,
            pre,
            inf,
        } => {
            if !same_bits(logits, &truth.logits) {
                return Some(format!("{at}: logits differ"));
            }
            if *macs != truth.macs {
                return Some(format!("{at}: macs {macs} != {}", truth.macs));
            }
            let same = |a: Latency, b: Latency| a.ns().to_bits() == b.ns().to_bits();
            if !same(*pre, truth.pre) || !same(*inf, truth.inf) {
                return Some(format!(
                    "{at}: modeled ({}, {}) ns != ({}, {}) ns",
                    pre.ns(),
                    inf.ns(),
                    truth.pre.ns(),
                    truth.inf.ns()
                ));
            }
        }
        Returned::Wire {
            predicted_class,
            macs,
            pre_s,
            inf_s,
            clock_s,
        } => {
            if *predicted_class != truth.predicted_class {
                return Some(format!(
                    "{at}: class {predicted_class} != {}",
                    truth.predicted_class
                ));
            }
            if *macs != truth.macs {
                return Some(format!("{at}: macs {macs} != {}", truth.macs));
            }
            // Each stamp is an f64 second count; a difference of two is
            // exact to a few ulps of the later one.
            let tol = 8.0 * f64::EPSILON * clock_s.max(1.0);
            if (pre_s - truth.pre.secs()).abs() > tol || (inf_s - truth.inf.secs()).abs() > tol {
                return Some(format!(
                    "{at}: modeled ({pre_s}, {inf_s}) s != ({}, {}) s",
                    truth.pre.secs(),
                    truth.inf.secs()
                ));
            }
        }
    }
    None
}

fn mix(mut h: u64, v: u64) -> u64 {
    // SplitMix64 finalizer over a running FNV-style combine.
    h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

fn frame_hash(k: &Kept) -> u64 {
    let mut h = mix(0xE2E_BE7C, k.stream as u64);
    h = mix(h, k.index as u64);
    match &k.returned {
        Returned::Full {
            logits,
            macs,
            pre,
            inf,
        } => {
            h = mix(h, *macs);
            h = mix(h, pre.ns().to_bits());
            h = mix(h, inf.ns().to_bits());
            for r in 0..logits.rows() {
                for v in logits.row(r) {
                    h = mix(h, u64::from(v.to_bits()));
                }
            }
        }
        Returned::Wire {
            predicted_class,
            macs,
            pre_s,
            inf_s,
            ..
        } => {
            h = mix(h, *predicted_class as u64);
            h = mix(h, *macs);
            h = mix(h, pre_s.to_bits());
            h = mix(h, inf_s.to_bits());
        }
    }
    h
}

/// Digest of a set of results. Each frame hashes on its own (keyed by
/// stream and frame index) and the hashes are summed, so the order in
/// which streams happened to complete does not matter.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a Kept>) -> u64 {
    results
        .into_iter()
        .fold(0u64, |acc, k| acc.wrapping_add(frame_hash(k)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kept(stream: usize, index: usize, v: f32) -> Kept {
        Kept {
            stream,
            index,
            reused: false,
            returned: Returned::Full {
                logits: Matrix::from_vec(1, 2, vec![v, -v]),
                macs: 10,
                pre: Latency::from_ns(1.5),
                inf: Latency::from_ns(2.5),
            },
        }
    }

    #[test]
    fn digest_ignores_completion_order_across_streams() {
        let a = [
            kept(0, 0, 1.0),
            kept(1, 0, 2.0),
            kept(0, 1, 3.0),
            kept(1, 1, 4.0),
        ];
        let b = [a[1].clone(), a[3].clone(), a[0].clone(), a[2].clone()];
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_sees_values_and_which_frame_they_belong_to() {
        let base = [kept(0, 0, 1.0), kept(1, 0, 2.0)];
        assert_ne!(digest(&base), digest(&[kept(0, 0, 1.0), kept(1, 0, 2.5)]));
        // Same two payloads attached to swapped streams: not the same run.
        assert_ne!(digest(&base), digest(&[kept(1, 0, 1.0), kept(0, 0, 2.0)]));
        assert_ne!(digest(&base), digest(&base[..1]));
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        let z = Matrix::from_vec(1, 1, vec![0.0]);
        let nz = Matrix::from_vec(1, 1, vec![-0.0]);
        assert!(same_bits(&z, &z));
        assert!(!same_bits(&z, &nz));
        let nan = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(same_bits(&nan, &nan));
    }

    #[test]
    fn mismatch_reports_each_field() {
        let truth = Recomputed {
            logits: Matrix::from_vec(1, 2, vec![1.0, -1.0]),
            predicted_class: 0,
            macs: 10,
            pre: Latency::from_ns(1.5),
            inf: Latency::from_ns(2.5),
            reused: false,
        };
        assert_eq!(mismatch(&kept(0, 0, 1.0), &truth), None);
        assert!(mismatch(&kept(0, 0, 2.0), &truth)
            .unwrap()
            .contains("logits"));
        let mut warm = kept(0, 0, 1.0);
        warm.reused = true;
        assert!(mismatch(&warm, &truth).unwrap().contains("warm"));
        let wire = |pre_s: f64| Kept {
            stream: 0,
            index: 0,
            reused: false,
            returned: Returned::Wire {
                predicted_class: 0,
                macs: 10,
                pre_s,
                inf_s: 2.5e-9,
                clock_s: 20.0,
            },
        };
        assert_eq!(mismatch(&wire(1.5e-9 + 1e-15), &truth), None);
        assert!(mismatch(&wire(1.6e-9), &truth).unwrap().contains("modeled"));
    }
}

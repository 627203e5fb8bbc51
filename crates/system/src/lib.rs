//! The HgPCN system (§IV): both engines, the platforms it is compared
//! against, and the end-to-end pipeline.
//!
//! HgPCN is a CPU+FPGA shared-memory design:
//!
//! * the **Pre-processing Engine** ([`PreprocessingEngine`]) runs the
//!   Octree-build Unit on the CPU (single-pass octree construction + SFC
//!   host-memory reorganization) and OIS down-sampling in the FPGA
//!   Down-sampling Unit;
//! * the **Inference Engine** ([`InferenceEngine`]) pairs the VEG-based
//!   Data Structuring Unit with a 16×16 systolic Feature Computation Unit
//!   and executes a real PointNet++ forward pass.
//!
//! [`baselines`] provides the comparison platforms of §VII: FPS/RS/
//! RS+reinforce pre-processing on CPU and GPU profiles (Fig. 12), and the
//! inference-phase accelerator models — Jetson-class GPU, PointACC-like
//! (full-cloud bitonic Mapping Unit) and Mesorasi-like (GPU data
//! structuring + delayed-aggregation feature computation) — for Fig. 14.
//!
//! [`E2ePipeline`] chains the two engines for the system-level §VII-E
//! real-time experiment ([`realtime`]), and [`ablation`] quantifies the
//! paper's §VIII future-work variants (approximate OIS, semi-approximate
//! VEG).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod baselines;
mod error;
mod inference;
mod preproc;
pub mod realtime;
mod report;
pub mod reuse;
mod veg_gatherer;

pub use error::SystemError;
pub use inference::{InferenceEngine, InferenceReport};
pub use preproc::{build_counts, warm_build_counts, PreprocessOutput, PreprocessingEngine};
pub use report::{E2eReport, PhaseReport};
pub use reuse::{PreprocReuse, PreviousFrame, StreamPreprocContext};
pub use veg_gatherer::VegGatherer;

/// End-to-end pipeline: Pre-processing Engine then Inference Engine.
#[derive(Clone, Debug)]
pub struct E2ePipeline {
    /// The pre-processing engine (CPU octree build + FPGA down-sampling).
    pub preproc: PreprocessingEngine,
    /// The inference engine (DSU + FCU).
    pub inference: InferenceEngine,
}

impl E2ePipeline {
    /// A prototype pipeline matching the paper's configuration.
    pub fn prototype() -> E2ePipeline {
        E2ePipeline {
            preproc: PreprocessingEngine::prototype(),
            inference: InferenceEngine::prototype(),
        }
    }

    /// Processes one raw frame end to end: down-sample to `target` points,
    /// then run `net` on the result.
    ///
    /// # Errors
    ///
    /// Propagates failures from either engine as [`SystemError`].
    pub fn process_frame(
        &self,
        frame: &hgpcn_geometry::PointCloud,
        target: usize,
        net: &hgpcn_pcn::PointNet,
        seed: u64,
    ) -> Result<E2eReport, SystemError> {
        let pre = self.preproc.run(frame, target, seed)?;
        let inf = self.inference.run(&pre.sampled, net, seed)?;
        Ok(E2eReport {
            preprocess: PhaseReport {
                latency: pre.total_latency(),
                counts: pre.total_counts(),
            },
            inference: PhaseReport {
                latency: inf.total_latency(),
                counts: inf.total_counts(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::{Point3, PointCloud};
    use hgpcn_pcn::{PointNet, PointNetConfig};

    #[test]
    fn e2e_prototype_processes_a_frame() {
        let frame: PointCloud = (0..4000)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect();
        let pipeline = E2ePipeline::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let report = pipeline.process_frame(&frame, 1024, &net, 7).unwrap();
        assert!(report.preprocess.latency.ns() > 0.0);
        assert!(report.inference.latency.ns() > 0.0);
        assert!(report.total().ns() > report.inference.latency.ns());
    }
}

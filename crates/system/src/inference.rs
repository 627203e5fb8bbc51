use hgpcn_dla::{LayerRun, SystolicArray};
use hgpcn_gather::dsu::{DataStructuringUnit, StageCycles};
use hgpcn_gather::veg::VegConfig;
use hgpcn_geometry::PointCloud;
use hgpcn_memsim::{Latency, OpCounts};
use hgpcn_pcn::{CenterPolicy, Gatherer, InferenceOutput, PointNet, Precision, StageBackends};

use crate::{SystemError, VegGatherer};

/// The Inference Engine (§VI): the VEG-based Data Structuring Unit feeding
/// a systolic-array Feature Computation Unit.
#[derive(Clone, Debug)]
pub struct InferenceEngine {
    /// The DSU hardware configuration.
    pub dsu: DataStructuringUnit,
    /// The FCU (shared with the accelerator baselines).
    pub array: SystolicArray,
    /// VEG behaviour.
    pub veg: VegConfig,
}

/// Modeled outcome of one inference on the engine.
#[derive(Debug)]
pub struct InferenceReport {
    /// The network output (logits) and executed MACs.
    pub output: InferenceOutput,
    /// Data-structuring latency (DSU pipeline).
    pub ds_latency: Latency,
    /// Feature-computation latency (systolic array).
    pub fc_latency: Latency,
    /// Data-structuring operations.
    pub ds_counts: OpCounts,
    /// Feature-computation operations.
    pub fc_counts: OpCounts,
    /// Aggregate DSU stage cycles (the Fig. 16 breakdown).
    pub stage_cycles: StageCycles,
    /// Number of neighbor gathers performed (central points across all
    /// hierarchy levels).
    pub gathers: usize,
    /// Final-shell candidates sorted across all gathers (the Fig. 15
    /// workload numerator; a traditional sorter processes the whole pool).
    pub candidates_sorted: u64,
    /// Points gathered for free from inner shells across all gathers.
    pub gathered_free: u64,
}

impl InferenceReport {
    /// Total inference latency: data structuring then feature computation.
    pub fn total_latency(&self) -> Latency {
        self.ds_latency + self.fc_latency
    }

    /// Total operations of the phase.
    pub fn total_counts(&self) -> OpCounts {
        self.ds_counts + self.fc_counts
    }
}

impl InferenceEngine {
    /// The paper's prototype: 8-walker DSU and a 16×16 array at 200 MHz.
    pub fn prototype() -> InferenceEngine {
        InferenceEngine {
            dsu: DataStructuringUnit::prototype(),
            array: SystolicArray::paper_16x16(),
            veg: VegConfig::default(),
        }
    }

    /// Runs `net` over the down-sampled `input`, gathering with VEG and
    /// pricing data structuring on the DSU pipeline and feature
    /// computation on the systolic array. Centers are picked randomly
    /// (seeded), matching the paper's Mesorasi-fair methodology (§VII-D).
    ///
    /// # Errors
    ///
    /// Propagates inference failures as [`SystemError::Pcn`].
    pub fn run(
        &self,
        input: &PointCloud,
        net: &PointNet,
        seed: u64,
    ) -> Result<InferenceReport, SystemError> {
        self.run_with_precision_using(input, net, seed, Precision::F32, net.stage_backends())
    }

    /// [`InferenceEngine::run`] at a chosen arithmetic precision (the
    /// serving runtime always passes [`Precision::F32`]; int8 is the
    /// accuracy study's tier) and with an explicit stage-backend selection:
    /// the gather backend is pinned into the frame's VEG gatherer and the
    /// interpolate backend into the forward pass, overriding the
    /// network-pinned choice. The DLA-style cost models are
    /// precision-independent (the systolic array executes the same MAC
    /// schedule either way), so modeled latencies and op counts are
    /// identical across tiers; only the logits (and host speed) change.
    /// Bit-identity across backends makes `stages` a host-speed knob only.
    ///
    /// # Errors
    ///
    /// As [`InferenceEngine::run`], plus
    /// [`hgpcn_pcn::PcnError::NotQuantized`] (as [`SystemError::Pcn`])
    /// when int8 is requested on an unquantized network.
    pub fn run_with_precision_using(
        &self,
        input: &PointCloud,
        net: &PointNet,
        seed: u64,
        precision: Precision,
        stages: StageBackends,
    ) -> Result<InferenceReport, SystemError> {
        let mut gatherer = VegGatherer::new(self.veg).with_kernel(stages.gather);
        let output = net.infer_with_precision_using(
            input,
            &mut gatherer,
            CenterPolicy::Random { seed },
            precision,
            stages,
        )?;
        Ok(self.price(&gatherer, output, net))
    }

    /// Runs `net` over a micro-batch of down-sampled frames in one SoA
    /// pass ([`PointNet::infer_batch`]): every MLP layer traverses its
    /// weights once for the whole batch. Each frame keeps its own VEG
    /// gatherer seeded by its own `seeds[i]`, so per-frame outputs,
    /// gather costs and modeled latencies are **bit-identical** to
    /// per-frame [`InferenceEngine::run_with_precision_using`] calls —
    /// batching changes host throughput, never results. The whole
    /// micro-batch runs at one tier.
    ///
    /// # Errors
    ///
    /// Propagates the first frame's failure as [`SystemError::Pcn`] —
    /// including [`hgpcn_pcn::PcnError::NotQuantized`] when int8 is
    /// requested on an unquantized network.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `seeds` have different lengths.
    pub fn run_batch_with_precision_using(
        &self,
        inputs: &[&PointCloud],
        net: &PointNet,
        seeds: &[u64],
        precision: Precision,
        stages: StageBackends,
    ) -> Result<Vec<InferenceReport>, SystemError> {
        assert_eq!(inputs.len(), seeds.len(), "one seed per frame");
        let mut gatherers: Vec<VegGatherer> = inputs
            .iter()
            .map(|_| VegGatherer::new(self.veg).with_kernel(stages.gather))
            .collect();
        let outputs = {
            let mut grefs: Vec<&mut dyn Gatherer> = gatherers
                .iter_mut()
                .map(|g| g as &mut dyn Gatherer)
                .collect();
            let policies: Vec<CenterPolicy> = seeds
                .iter()
                .map(|&seed| CenterPolicy::Random { seed })
                .collect();
            net.infer_batch_with_precision_using(inputs, &mut grefs, &policies, precision, stages)?
        };
        Ok(outputs
            .into_iter()
            .zip(&gatherers)
            .map(|(output, gatherer)| self.price(gatherer, output, net))
            .collect())
    }

    /// Prices one frame's data structuring on the DSU pipeline and its
    /// feature computation on the systolic array.
    fn price(
        &self,
        gatherer: &VegGatherer,
        output: hgpcn_pcn::InferenceOutput,
        net: &PointNet,
    ) -> InferenceReport {
        // DSU pipeline: steady-state drain at each gather's bottleneck
        // stage, plus one pipeline fill.
        let mut agg = StageCycles::default();
        let mut drain = 0u64;
        let mut fill = 0u64;
        let mut candidates_sorted = 0u64;
        let mut gathered_free = 0u64;
        for r in gatherer.results() {
            let c = self.dsu.stage_cycles(r, r.neighbors.len());
            if fill == 0 {
                fill = c.total();
            }
            drain += c.bottleneck();
            agg = agg + c;
            candidates_sorted += r.stats.candidates_sorted as u64;
            gathered_free += r.stats.gathered_free as u64;
        }
        let gathers = gatherer.results().len();
        let ds_latency = Latency::from_ns((drain + fill) as f64 * self.dsu.cycle_ns());
        let ds_counts = Gatherer::counts(gatherer);

        // FCU: price the configured workload on the systolic array.
        let mut fc = LayerRun::default();
        for w in net.config().workload() {
            let run = self.array.mlp(&w.mlp, w.points);
            fc.cycles += run.cycles;
            fc.counts += run.counts;
        }
        let fc_latency = self.array.latency(&fc);

        InferenceReport {
            output,
            ds_latency,
            fc_latency,
            ds_counts,
            fc_counts: fc.counts,
            stage_cycles: agg,
            gathers,
            candidates_sorted,
            gathered_free,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_dla::MlpSpec;
    use hgpcn_geometry::Point3;
    use hgpcn_pcn::{BruteKnnGatherer, Calibrator, PcnError, PointNetConfig, Stage, TaskKind};

    fn input(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect()
    }

    #[test]
    fn runs_classification_and_prices_both_steps() {
        let engine = InferenceEngine::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let report = engine.run(&input(1024), &net, 5).unwrap();
        assert_eq!(report.output.logits.cols(), 40);
        assert!(report.ds_latency.ns() > 0.0);
        assert!(report.fc_latency.ns() > 0.0);
        assert!(report.stage_cycles.total() > 0);
        assert!(report.total_latency() > report.fc_latency);
    }

    #[test]
    fn fc_dominates_small_inputs() {
        // The paper's 1.3x-vs-PointACC floor exists because small tasks are
        // FCU-bound; our engine must reproduce that balance.
        let engine = InferenceEngine::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let report = engine.run(&input(1024), &net, 5).unwrap();
        assert!(report.fc_latency > report.ds_latency);
    }

    fn run_batch(
        net: &PointNet,
        frames: &[&PointCloud],
        seeds: &[u64],
        precision: Precision,
    ) -> Result<Vec<InferenceReport>, SystemError> {
        InferenceEngine::prototype().run_batch_with_precision_using(
            frames,
            net,
            seeds,
            precision,
            net.stage_backends(),
        )
    }

    /// Everything the cost models produce — what precision, batching and
    /// batch-mates may never move.
    fn assert_same_modeled(a: &InferenceReport, b: &InferenceReport) {
        assert_eq!(a.output.macs, b.output.macs);
        assert_eq!(a.ds_latency, b.ds_latency);
        assert_eq!(a.fc_latency, b.fc_latency);
        assert_eq!(a.ds_counts, b.ds_counts);
        assert_eq!(a.fc_counts, b.fc_counts);
        assert_eq!(a.stage_cycles, b.stage_cycles);
        assert_eq!(a.candidates_sorted, b.candidates_sorted);
    }

    #[test]
    fn run_batch_is_bit_identical_to_per_frame_runs() {
        let engine = InferenceEngine::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let frames = [input(1024), input(1100), input(1050)];
        let seeds = [5u64, 6, 7];
        let refs: Vec<&PointCloud> = frames.iter().collect();
        let batched = run_batch(&net, &refs, &seeds, Precision::F32).unwrap();
        assert_eq!(batched.len(), 3);
        for ((frame, &seed), b) in frames.iter().zip(&seeds).zip(&batched) {
            let serial = engine.run(frame, &net, seed).unwrap();
            assert_eq!(b.output.logits, serial.output.logits);
            assert_same_modeled(b, &serial);
        }

        // One starved frame fails the whole call. The runtime attributes
        // it by re-running each frame as a batch of one, so a healthy
        // frame alone must equal its slot in the all-healthy batch.
        let starved = input(64);
        assert!(matches!(
            run_batch(&net, &[refs[0], &starved, refs[2]], &seeds, Precision::F32),
            Err(SystemError::Pcn(_))
        ));
        for i in [0, 2] {
            let alone = run_batch(&net, &[refs[i]], &[seeds[i]], Precision::F32).unwrap();
            assert_eq!(alone[0].output.logits, batched[i].output.logits);
            assert_same_modeled(&alone[0], &batched[i]);
        }
    }

    #[test]
    fn precision_changes_logits_only() {
        // A classification net small enough to run int8 in a debug build.
        let unquantized = PointNet::new(
            PointNetConfig {
                name: "tiny".to_owned(),
                task: TaskKind::Classification { classes: 4 },
                input_size: 128,
                stages: vec![
                    Stage::SetAbstraction {
                        npoint: 64,
                        k: 8,
                        mlp: MlpSpec::new(3, &[16, 32]),
                    },
                    Stage::GlobalAbstraction {
                        mlp: MlpSpec::new(3 + 32, &[64]),
                    },
                ],
                fp_mlps: Vec::new(),
                head: MlpSpec::new(64, &[32, 4]),
            },
            1,
        );
        let engine = InferenceEngine::prototype();
        let frames = [input(128), input(160)];
        let refs: Vec<&PointCloud> = frames.iter().collect();
        let seeds = [5u64, 6];
        assert!(matches!(
            run_batch(&unquantized, &refs, &seeds, Precision::Int8),
            Err(SystemError::Pcn(PcnError::NotQuantized))
        ));

        let mut calibrator = Calibrator::new();
        calibrator
            .observe(
                &unquantized,
                &frames[0],
                &mut BruteKnnGatherer::new(),
                CenterPolicy::FirstN,
            )
            .unwrap();
        let net = unquantized
            .with_int8(&calibrator.finish().unwrap())
            .unwrap();
        let int8 = run_batch(&net, &refs, &seeds, Precision::Int8).unwrap();
        let f32_ = run_batch(&net, &refs, &seeds, Precision::F32).unwrap();
        for (((frame, &seed), q), f) in frames.iter().zip(&seeds).zip(&int8).zip(&f32_) {
            // The cost models are precision-independent.
            assert_eq!(q.output.precision, Precision::Int8);
            assert_same_modeled(q, f);
            // And the int8 batch is bit-identical to int8 per-frame runs.
            let serial = engine
                .run_with_precision_using(frame, &net, seed, Precision::Int8, net.stage_backends())
                .unwrap();
            assert_eq!(q.output.logits, serial.output.logits);
            assert_same_modeled(q, &serial);
        }
    }

    #[test]
    fn propagates_small_input_error() {
        let engine = InferenceEngine::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        assert!(matches!(
            engine.run(&input(64), &net, 5),
            Err(SystemError::Pcn(_))
        ));
    }
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgpcn_dla::MlpSpec;
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::OpCounts;

use crate::kernel::Int8Kernel;
use crate::quant::{AmaxStats, Calibration, MlpGroup, QuantizedModel};
use crate::stage::StageBackends;
use crate::{
    kernel, Batch, Gatherer, LinearKernel, Matrix, PcnError, PointNetConfig, Precision, Stage,
    TaskKind,
};

/// How set-abstraction centers are chosen.
///
/// The paper's inference comparison picks centers randomly for every
/// platform "to ensure a fair comparison" with Mesorasi (§VII-D);
/// [`CenterPolicy::FirstN`] is a deterministic alternative for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CenterPolicy {
    /// Uniform random centers, seeded.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// The first `npoint` points, in order.
    FirstN,
}

/// The result of one inference.
#[derive(Clone, Debug)]
pub struct InferenceOutput {
    /// Class logits: `1 × classes` for classification, `n × classes` for
    /// segmentation.
    pub logits: Matrix,
    /// Operations spent in data structuring (neighbor gathering and FP
    /// interpolation searches).
    pub gather_counts: OpCounts,
    /// Multiply-accumulates actually executed in feature computation.
    pub macs: u64,
    /// The arithmetic precision the dense layers ran at.
    pub precision: Precision,
}

impl InferenceOutput {
    /// Softmax probabilities of row `r` of the logits (numerically
    /// stabilized).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn probabilities(&self, r: usize) -> Vec<f32> {
        let row = self.logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Argmax class of row `r` of the logits.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn predicted_class(&self, r: usize) -> usize {
        let row = self.logits.row(r);
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("logits are non-empty")
    }
}

type LayerWeights = (Matrix, Vec<f32>);

/// A PointNet++ network with materialized (seeded-random) weights.
///
/// The network consumes coordinates only (the standard xyz-only PointNet++
/// configuration); any features carried by the input cloud are ignored.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::{Point3, PointCloud};
/// use hgpcn_pcn::{BruteKnnGatherer, CenterPolicy, PointNet, PointNetConfig};
///
/// let net = PointNet::new(PointNetConfig::classification(), 7);
/// let cloud: PointCloud = (0..1024)
///     .map(|i| Point3::new((i % 32) as f32, ((i / 32) % 32) as f32, (i % 7) as f32))
///     .collect();
/// let mut gatherer = BruteKnnGatherer::new();
/// let out = net.infer(&cloud, &mut gatherer, CenterPolicy::FirstN)?;
/// assert_eq!(out.logits.cols(), 40);
/// # Ok::<(), hgpcn_pcn::PcnError>(())
/// ```
#[derive(Debug)]
pub struct PointNet {
    config: PointNetConfig,
    stage_weights: Vec<Vec<LayerWeights>>,
    fp_weights: Vec<Vec<LayerWeights>>,
    head_weights: Vec<LayerWeights>,
    kernel: LinearKernel,
    stages: StageBackends,
    quant: Option<QuantizedModel>,
}

/// How one forward pass executes its dense layers.
enum PassMode<'a> {
    /// Full-precision f32 (the bit-exact reference tier).
    F32,
    /// Calibrated int8 GEMMs with fused f32 requantize+ReLU.
    Int8(&'a QuantizedModel),
    /// f32, additionally folding every layer input's range into the
    /// calibration observations.
    Observe(&'a mut AmaxStats),
}

fn init_mlp(rng: &mut StdRng, spec: &MlpSpec) -> Vec<LayerWeights> {
    spec.layers()
        .iter()
        .map(|l| {
            let bound = (6.0 / (l.in_features + l.out_features) as f32).sqrt();
            let data: Vec<f32> = (0..l.in_features * l.out_features)
                .map(|_| rng.gen_range(-bound..bound))
                .collect();
            let w = Matrix::from_vec(l.in_features, l.out_features, data);
            let b = vec![0.0; l.out_features];
            (w, b)
        })
        .collect()
}

impl PointNet {
    /// Materializes a network for `config` with weights seeded from `seed`.
    pub fn new(config: PointNetConfig, seed: u64) -> PointNet {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let stage_weights = config
            .stages
            .iter()
            .map(|s| init_mlp(&mut rng, s.mlp()))
            .collect();
        let fp_weights = config
            .fp_mlps
            .iter()
            .map(|m| init_mlp(&mut rng, m))
            .collect();
        let head_weights = init_mlp(&mut rng, &config.head);
        PointNet {
            config,
            stage_weights,
            fp_weights,
            head_weights,
            kernel: kernel::fastest_supported(),
            stages: StageBackends::active(),
            quant: None,
        }
    }

    /// Pins this network to a specific matmul backend instead of the
    /// [`kernel::fastest_supported`] choice. All backends are
    /// bit-identical, so this changes host speed only — it exists so a
    /// harness can run e.g. a reference-kernel yardstick and a SIMD
    /// candidate side by side in one process.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is not supported on the running CPU (see
    /// [`LinearKernel::is_supported`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: LinearKernel) -> PointNet {
        assert!(
            kernel.is_supported(),
            "kernel backend {:?} is not supported on this CPU",
            kernel
        );
        self.kernel = kernel;
        self
    }

    /// The matmul backend this network dispatches to.
    pub fn kernel(&self) -> LinearKernel {
        self.kernel
    }

    /// Pins this network to a specific set of preproc-stage backends
    /// instead of the default [`StageBackends::active`] selection.
    /// Every stage backend is bit-identical to its scalar anchor, so —
    /// exactly like [`PointNet::with_kernel`] — this moves host speed
    /// only, never results; a harness uses it to run an all-anchor
    /// yardstick and an optimized candidate side by side in one process.
    ///
    /// This pins the network-resident stage (FP interpolation) and sets
    /// the default for the per-call `_using` entry points; the sampling
    /// and gather backends take effect where those stages run (the
    /// preprocessing and inference engines thread them there).
    #[must_use]
    pub fn with_stage_backends(mut self, stages: StageBackends) -> PointNet {
        self.stages = stages;
        self
    }

    /// The preproc-stage backends this network dispatches to by
    /// default.
    pub fn stage_backends(&self) -> StageBackends {
        self.stages
    }

    /// The network's configuration.
    pub fn config(&self) -> &PointNetConfig {
        &self.config
    }

    /// Freezes calibrated int8 weights into the network, enabling
    /// [`Precision::Int8`] forward passes alongside the f32 tier (the
    /// f32 weights stay untouched; precision is chosen per call).
    ///
    /// # Errors
    ///
    /// [`PcnError::CalibrationMismatch`] when `calibration` was
    /// observed on a network with a different layer structure.
    pub fn with_int8(mut self, calibration: &Calibration) -> Result<PointNet, PcnError> {
        self.quant = Some(QuantizedModel::build(
            &self.stage_weights,
            &self.fp_weights,
            &self.head_weights,
            calibration,
        )?);
        Ok(self)
    }

    /// Whether the network carries calibrated int8 weights (i.e.
    /// whether [`Precision::Int8`] passes can run).
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Empty calibration slots shaped like this network's layers.
    pub(crate) fn amax_slots(&self) -> AmaxStats {
        AmaxStats {
            stages: self
                .stage_weights
                .iter()
                .map(|g| vec![0.0; g.len()])
                .collect(),
            fps: self.fp_weights.iter().map(|g| vec![0.0; g.len()]).collect(),
            head: vec![0.0; self.head_weights.len()],
        }
    }

    fn group_weights(&self, group: MlpGroup) -> &[LayerWeights] {
        match group {
            MlpGroup::Stage(i) => &self.stage_weights[i],
            MlpGroup::Fp(i) => &self.fp_weights[i],
            MlpGroup::Head => &self.head_weights,
        }
    }

    fn select_centers(policy: CenterPolicy, n: usize, npoint: usize, stage: usize) -> Vec<usize> {
        match policy {
            CenterPolicy::FirstN => (0..npoint).collect(),
            CenterPolicy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (stage as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                );
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..npoint {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(npoint);
                idx
            }
        }
    }

    /// Runs one f32 inference over `cloud` using `gatherer` for the
    /// data structuring step — a batch of one through
    /// [`PointNet::infer_batch`]'s forward pass, the one the serving
    /// runtime runs.
    ///
    /// # Errors
    ///
    /// * [`PcnError::InputTooSmall`] if a stage needs more points than the
    ///   previous level provides;
    /// * [`PcnError::Gather`] if neighbor gathering fails.
    pub fn infer(
        &self,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
    ) -> Result<InferenceOutput, PcnError> {
        self.infer_with_precision(cloud, gatherer, policy, Precision::F32)
    }

    /// [`PointNet::infer`] at a chosen arithmetic precision, again a
    /// batch of one. [`Precision::F32`] is the bit-exact reference tier
    /// and the only one the serving runtime runs; [`Precision::Int8`]
    /// (the accuracy study's tier) runs every dense layer as a
    /// calibrated i8 GEMM (requires [`PointNet::with_int8`]). Data
    /// structuring (gathering, interpolation searches) is identical in
    /// both tiers, so gather counts never depend on precision.
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer`], plus [`PcnError::NotQuantized`] when
    /// int8 is requested on an unquantized network.
    pub fn infer_with_precision(
        &self,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
        precision: Precision,
    ) -> Result<InferenceOutput, PcnError> {
        self.infer_with_precision_using(cloud, gatherer, policy, precision, self.stages)
    }

    /// [`PointNet::infer_with_precision`] with an explicit per-call
    /// stage-backend selection, overriding the network's pinned
    /// [`PointNet::stage_backends`]. Only the network-resident stage
    /// (FP interpolation) dispatches here — callers running sampling or
    /// gathering (the engines in the system crate) consume the other
    /// two fields. Bit-identity across backends makes this a pure
    /// host-speed knob.
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer_with_precision`].
    pub fn infer_with_precision_using(
        &self,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
        precision: Precision,
        stages: StageBackends,
    ) -> Result<InferenceOutput, PcnError> {
        let mut outs = self.infer_batch_with_precision_using(
            &[cloud],
            &mut [gatherer],
            &[policy],
            precision,
            stages,
        )?;
        Ok(outs.pop().expect("one output per cloud"))
    }

    /// One f32 forward pass with range hooks on every dense-layer
    /// input — the calibration observation primitive behind
    /// [`crate::Calibrator::observe`].
    pub(crate) fn observe_ranges(
        &self,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
        stats: &mut AmaxStats,
    ) -> Result<(), PcnError> {
        self.forward(
            &[cloud],
            &mut [gatherer],
            &[policy],
            Precision::F32,
            PassMode::Observe(stats),
            self.stages,
        )?;
        Ok(())
    }

    /// Runs one inference over **each** cloud of a micro-batch, pushing all
    /// clouds through every MLP layer with a single weight traversal.
    ///
    /// Per stage, the gathered groups of *all* clouds are stacked into one
    /// SoA [`Batch`] and the stage MLP runs once over the stacked rows via
    /// the row-blocked fused kernel ([`Matrix::linear_fused`]); max-pools
    /// and feature propagation stay segment-local. Every per-row and
    /// per-segment operation is order-preserving, so each cloud's
    /// [`InferenceOutput`] — logits, gather counts and executed MACs — is
    /// **bit-identical** to running that cloud alone as a batch of one
    /// ([`PointNet::infer`]) with the same gatherer and policy.
    ///
    /// `gatherers[i]` and `policies[i]` serve `clouds[i]`; per-cloud
    /// gatherers keep cost attribution and seeding independent, which is
    /// what lets a serving runtime batch frames without perturbing
    /// deterministic per-frame results.
    ///
    /// ```no_run
    /// use hgpcn_geometry::PointCloud;
    /// use hgpcn_pcn::{BruteKnnGatherer, CenterPolicy, Gatherer, PointNet, PointNetConfig};
    ///
    /// # fn demo(clouds: &[PointCloud]) -> Result<(), hgpcn_pcn::PcnError> {
    /// let net = PointNet::new(PointNetConfig::classification(), 7);
    /// let refs: Vec<&PointCloud> = clouds.iter().collect();
    /// let mut gs: Vec<BruteKnnGatherer> =
    ///     (0..clouds.len()).map(|_| BruteKnnGatherer::new()).collect();
    /// let mut grefs: Vec<&mut dyn Gatherer> =
    ///     gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
    /// let policies = vec![CenterPolicy::FirstN; clouds.len()];
    /// let outs = net.infer_batch(&refs, &mut grefs, &policies)?;
    /// assert_eq!(outs.len(), clouds.len());
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// Same contract as [`PointNet::infer`], failing on the first cloud
    /// (in batch order) that a stage rejects.
    ///
    /// # Panics
    ///
    /// Panics if `clouds`, `gatherers` and `policies` have different
    /// lengths.
    pub fn infer_batch(
        &self,
        clouds: &[&PointCloud],
        gatherers: &mut [&mut dyn Gatherer],
        policies: &[CenterPolicy],
    ) -> Result<Vec<InferenceOutput>, PcnError> {
        self.infer_batch_with_precision(clouds, gatherers, policies, Precision::F32)
    }

    /// [`PointNet::infer_batch`] at a chosen arithmetic precision. The
    /// whole micro-batch runs at one precision; int8 results are
    /// **bit-identical** to batches of one
    /// ([`PointNet::infer_with_precision`]), exactly as in the f32
    /// tier — quantization is element-wise and the i8 GEMM accumulates
    /// exact integers, so stacking rows changes nothing.
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer_batch`], plus [`PcnError::NotQuantized`]
    /// when int8 is requested on an unquantized network.
    ///
    /// # Panics
    ///
    /// Panics if `clouds`, `gatherers` and `policies` have different
    /// lengths.
    pub fn infer_batch_with_precision(
        &self,
        clouds: &[&PointCloud],
        gatherers: &mut [&mut dyn Gatherer],
        policies: &[CenterPolicy],
        precision: Precision,
    ) -> Result<Vec<InferenceOutput>, PcnError> {
        self.infer_batch_with_precision_using(clouds, gatherers, policies, precision, self.stages)
    }

    /// [`PointNet::infer_batch_with_precision`] with an explicit
    /// per-call stage-backend selection — the body behind every public
    /// forward pass; [`PointNet::infer_with_precision_using`] is this
    /// with one cloud.
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer_batch_with_precision`].
    ///
    /// # Panics
    ///
    /// Panics if `clouds`, `gatherers` and `policies` have different
    /// lengths.
    pub fn infer_batch_with_precision_using(
        &self,
        clouds: &[&PointCloud],
        gatherers: &mut [&mut dyn Gatherer],
        policies: &[CenterPolicy],
        precision: Precision,
        stages: StageBackends,
    ) -> Result<Vec<InferenceOutput>, PcnError> {
        assert_eq!(clouds.len(), gatherers.len(), "one gatherer per cloud");
        assert_eq!(clouds.len(), policies.len(), "one policy per cloud");
        let mode = match precision {
            Precision::F32 => PassMode::F32,
            Precision::Int8 => PassMode::Int8(self.quant.as_ref().ok_or(PcnError::NotQuantized)?),
        };
        self.forward(clouds, gatherers, policies, precision, mode, stages)
    }

    /// The forward pass: `mode` decides how the dense layers run, and
    /// `precision` is what the outputs report.
    fn forward(
        &self,
        clouds: &[&PointCloud],
        gatherers: &mut [&mut dyn Gatherer],
        policies: &[CenterPolicy],
        precision: Precision,
        mut mode: PassMode<'_>,
        stages: StageBackends,
    ) -> Result<Vec<InferenceOutput>, PcnError> {
        let mut xq: Vec<i8> = Vec::new();
        let b = clouds.len();
        if b == 0 {
            return Ok(Vec::new());
        }

        let mut macs = vec![0u64; b];
        let mut interp_counts = vec![OpCounts::default(); b];
        let all_clouds: Vec<usize> = (0..b).collect();

        // Recycled batch buffers: `pool` carries each stage's stacked
        // input and takes the consumed MLP output back; `scratch`
        // ping-pongs inside the layer loop. Both grow to the largest
        // stage once and are then reused — the batched path performs no
        // per-layer output allocations.
        let mut pool = Batch::zeros(&[], 0);
        let mut scratch = Batch::zeros(&[], 0);

        // Per-cloud encoder levels (coords, features); level 0 is the
        // raw input.
        let mut level_points: Vec<Vec<Vec<Point3>>> =
            clouds.iter().map(|c| vec![c.points().to_vec()]).collect();
        let mut level_feats: Vec<Vec<Option<Matrix>>> = (0..b).map(|_| vec![None]).collect();

        for (si, stage) in self.config.stages.iter().enumerate() {
            // Feature width is config-determined, hence equal across the
            // batch at every level.
            let feat_dim = level_feats[0]
                .last()
                .expect("levels aligned")
                .as_ref()
                .map_or(0, Matrix::cols);
            match stage {
                Stage::SetAbstraction { npoint, k, .. } => {
                    // Gather every cloud's groups, then stack all groups
                    // of all clouds: one segment per (cloud, center).
                    let mut seg_rows: Vec<usize> = Vec::with_capacity(b * npoint);
                    let mut seg_cloud: Vec<usize> = Vec::with_capacity(b * npoint);
                    let mut all_centers: Vec<Vec<usize>> = Vec::with_capacity(b);
                    let mut all_groups: Vec<Vec<Vec<usize>>> = Vec::with_capacity(b);
                    for (bi, gatherer) in gatherers.iter_mut().enumerate() {
                        let cur_pts = level_points[bi].last().expect("levels aligned");
                        let n = cur_pts.len();
                        if *npoint > n {
                            return Err(PcnError::InputTooSmall {
                                points: n,
                                needed: *npoint,
                            });
                        }
                        let centers = Self::select_centers(policies[bi], n, *npoint, si);
                        let cur_cloud = PointCloud::from_points(cur_pts.clone());
                        // Coarse stages can ask for more neighbors than
                        // exist; clamp like the PointNet++ reference
                        // implementation.
                        let k_eff = (*k).min(n.saturating_sub(1)).max(1);
                        let groups = gatherer.gather(&cur_cloud, &centers, k_eff)?;
                        for g in &groups {
                            seg_rows.push(g.len());
                            seg_cloud.push(bi);
                        }
                        all_centers.push(centers);
                        all_groups.push(groups);
                    }

                    let mut batch = std::mem::replace(&mut pool, Batch::zeros(&[], 0));
                    batch.reshape_for_overwrite(&seg_rows, 3 + feat_dim);
                    let mut seg = 0usize;
                    for bi in 0..b {
                        let cur_pts = level_points[bi].last().expect("levels aligned");
                        let cur_feats = level_feats[bi].last().expect("levels aligned");
                        for (group, &c) in all_groups[bi].iter().zip(&all_centers[bi]) {
                            let center = cur_pts[c];
                            for (r, &ni) in group.iter().enumerate() {
                                let rel = cur_pts[ni] - center;
                                let row = batch.segment_row_mut(seg, r);
                                row[0] = rel.x;
                                row[1] = rel.y;
                                row[2] = rel.z;
                                if let Some(f) = cur_feats {
                                    row[3..].copy_from_slice(f.row(ni));
                                }
                            }
                            seg += 1;
                        }
                    }

                    let out = self.apply_mlp_batched(
                        MlpGroup::Stage(si),
                        batch,
                        &seg_cloud,
                        &mut macs,
                        true,
                        &mut scratch,
                        &mut mode,
                        &mut xq,
                    );
                    let pooled_all = out.max_pool_segments();
                    let out_dim = stage.mlp().output_width();
                    let mut seg = 0usize;
                    for (bi, centers) in all_centers.iter().enumerate() {
                        let mut pooled = Matrix::zeros(centers.len(), out_dim);
                        for gi in 0..centers.len() {
                            pooled.row_mut(gi).copy_from_slice(pooled_all.row(seg));
                            seg += 1;
                        }
                        let cur_pts = level_points[bi].last().expect("levels aligned");
                        let next: Vec<Point3> = centers.iter().map(|&c| cur_pts[c]).collect();
                        level_points[bi].push(next);
                        level_feats[bi].push(Some(pooled));
                    }
                    pool = out;
                }
                Stage::GlobalAbstraction { .. } => {
                    let seg_rows: Vec<usize> = level_points
                        .iter()
                        .map(|lp| lp.last().expect("levels aligned").len())
                        .collect();
                    let mut batch = std::mem::replace(&mut pool, Batch::zeros(&[], 0));
                    batch.reshape_for_overwrite(&seg_rows, 3 + feat_dim);
                    let mut centroids = Vec::with_capacity(b);
                    for bi in 0..b {
                        let cur_pts = level_points[bi].last().expect("levels aligned");
                        let n = cur_pts.len();
                        let centroid =
                            cur_pts.iter().fold(Point3::ORIGIN, |a, &p| a + p) / n.max(1) as f32;
                        let cur_feats = level_feats[bi].last().expect("levels aligned");
                        for (r, &p) in cur_pts.iter().enumerate() {
                            let rel = p - centroid;
                            let row = batch.segment_row_mut(bi, r);
                            row[0] = rel.x;
                            row[1] = rel.y;
                            row[2] = rel.z;
                            if let Some(f) = cur_feats {
                                row[3..].copy_from_slice(f.row(r));
                            }
                        }
                        centroids.push(centroid);
                    }
                    let out = self.apply_mlp_batched(
                        MlpGroup::Stage(si),
                        batch,
                        &all_clouds,
                        &mut macs,
                        true,
                        &mut scratch,
                        &mut mode,
                        &mut xq,
                    );
                    let pooled = out.max_pool_segments();
                    for (bi, &centroid) in centroids.iter().enumerate() {
                        level_points[bi].push(vec![centroid]);
                        level_feats[bi].push(Some(Matrix::from_vec(
                            1,
                            pooled.cols(),
                            pooled.row(bi).to_vec(),
                        )));
                    }
                    pool = out;
                }
            }
        }

        let logits: Vec<Matrix> = match self.config.task {
            TaskKind::Classification { .. } => {
                let parts: Vec<Matrix> = level_feats
                    .iter()
                    .map(|lf| lf.last().expect("global level").clone().expect("features"))
                    .collect();
                let out = self.apply_mlp_batched(
                    MlpGroup::Head,
                    Batch::from_matrices(&parts),
                    &all_clouds,
                    &mut macs,
                    false,
                    &mut scratch,
                    &mut mode,
                    &mut xq,
                );
                (0..b).map(|bi| out.segment_matrix(bi)).collect()
            }
            TaskKind::Segmentation { .. } => {
                let top = self.config.stages.len();
                let mut carried: Vec<Matrix> = level_feats
                    .iter()
                    .map(|lf| lf[top].clone().expect("coarsest features"))
                    .collect();
                for j in 0..self.fp_weights.len() {
                    let coarse = top - j;
                    let fine = coarse - 1;
                    let interps: Vec<Matrix> = (0..b)
                        .map(|bi| {
                            stages.interpolate.apply(
                                &level_points[bi][fine],
                                &level_points[bi][coarse],
                                &carried[bi],
                                &mut interp_counts[bi],
                            )
                        })
                        .collect();
                    // Stack `[interpolated | skip]` straight into the
                    // recycled batch — the per-cloud `hcat` and the
                    // re-stacking copy it used to feed are gone, but the
                    // stacked rows are byte-identical.
                    let interp_dim = interps[0].cols();
                    let skip_dim = level_feats[0][fine].as_ref().map_or(0, Matrix::cols);
                    let seg_rows: Vec<usize> = interps.iter().map(Matrix::rows).collect();
                    let mut batch = std::mem::replace(&mut pool, Batch::zeros(&[], 0));
                    batch.reshape_for_overwrite(&seg_rows, interp_dim + skip_dim);
                    for (bi, interp) in interps.iter().enumerate() {
                        for r in 0..interp.rows() {
                            let row = batch.segment_row_mut(bi, r);
                            row[..interp_dim].copy_from_slice(interp.row(r));
                            if let Some(skip) = &level_feats[bi][fine] {
                                row[interp_dim..].copy_from_slice(skip.row(r));
                            }
                        }
                    }
                    let out = self.apply_mlp_batched(
                        MlpGroup::Fp(j),
                        batch,
                        &all_clouds,
                        &mut macs,
                        true,
                        &mut scratch,
                        &mut mode,
                        &mut xq,
                    );
                    // The next FP stage's interpolate reads per-cloud
                    // coarse features, so unstack — except after the
                    // last stage, where the head consumes the batch
                    // as-is and the round-trip copy would be pure waste.
                    if j + 1 < self.fp_weights.len() {
                        carried = (0..b).map(|bi| out.segment_matrix(bi)).collect();
                    }
                    pool = out;
                }
                let out = self.apply_mlp_batched(
                    MlpGroup::Head,
                    std::mem::replace(&mut pool, Batch::zeros(&[], 0)),
                    &all_clouds,
                    &mut macs,
                    false,
                    &mut scratch,
                    &mut mode,
                    &mut xq,
                );
                (0..b).map(|bi| out.segment_matrix(bi)).collect()
            }
        };

        Ok(logits
            .into_iter()
            .enumerate()
            .map(|(bi, logits)| InferenceOutput {
                logits,
                gather_counts: gatherers[bi].counts() + interp_counts[bi],
                macs: macs[bi],
                precision,
            })
            .collect())
    }

    /// One fused pass of an MLP group over the whole batch: a single
    /// weight traversal per layer, with executed MACs attributed to each
    /// cloud through the segment-to-cloud map. `mode` decides how the
    /// layers run; the stacked-rows structure and MAC accounting are the
    /// same in every mode. `PassMode::Int8` runs each layer as the
    /// quantized GEMM and `PassMode::Observe` folds each layer's input
    /// into its amax slot; both go layer at a time over the whole batch,
    /// because each needs a layer's whole input in hand.
    ///
    /// The f32 path streams **row chunks through the whole layer stack**
    /// instead of whole layers through the whole batch: layer 0 reads
    /// its chunk straight out of `x`, the last layer writes straight
    /// into the result buffer, and the intermediate activations ping-
    /// pong between two chunk-sized buffers that stay cache-resident.
    /// The big stages stack multi-megabyte activation buffers, so the
    /// layer-at-a-time schedule paid a DRAM round-trip per layer;
    /// chunking touches main memory once for the input and once for the
    /// output. Every linear layer is row-independent, so the traversal
    /// order is a pure scheduling choice — outputs are bit-identical.
    // One parameter per pass ingredient; bundling them would only move
    // the argument list into a single-use struct.
    #[allow(clippy::too_many_arguments)]
    fn apply_mlp_batched(
        &self,
        group: MlpGroup,
        mut x: Batch,
        seg_cloud: &[usize],
        macs: &mut [u64],
        relu_last: bool,
        scratch: &mut Batch,
        mode: &mut PassMode<'_>,
        xq: &mut Vec<i8>,
    ) -> Batch {
        let weights = self.group_weights(group);
        let mut cloud_rows = vec![0usize; macs.len()];
        for (range, &c) in x.segments().iter().zip(seg_cloud) {
            cloud_rows[c] += range.len();
        }
        let n_layers = weights.len();
        let mut in_cols = x.cols();
        for (w, _) in weights {
            for (m, &r) in macs.iter_mut().zip(&cloud_rows) {
                *m += (r * in_cols * w.cols()) as u64;
            }
            in_cols = w.cols();
        }
        if n_layers == 0 {
            return x;
        }

        match mode {
            PassMode::F32 => {}
            PassMode::Int8(model) => {
                // Quantized path: layer-at-a-time over the whole batch,
                // ping-ponging the caller's scratch (the i8 GEMM quantizes
                // each full layer input through `xq`).
                for (i, _) in weights.iter().enumerate() {
                    let relu = relu_last || i + 1 < n_layers;
                    x.quant_forward_into(
                        Int8Kernel::for_linear(self.kernel),
                        &model.group(group)[i],
                        relu,
                        xq,
                        scratch,
                    );
                    std::mem::swap(&mut x, scratch);
                }
                return x;
            }
            PassMode::Observe(stats) => {
                // Calibration: the f32 layers over the whole batch, each
                // layer's input folded into its amax slot first.
                for (i, (w, bias)) in weights.iter().enumerate() {
                    AmaxStats::record(stats.group_slot(group, i), x.data());
                    let relu = relu_last || i + 1 < n_layers;
                    x.linear_fused_into(self.kernel, w, bias, relu, scratch);
                    std::mem::swap(&mut x, scratch);
                }
                return x;
            }
        }

        let total_rows = x.rows();
        let seg_rows: Vec<usize> = x.segments().iter().map(std::ops::Range::len).collect();
        let final_cols = weights.last().map_or(0, |(w, _)| w.cols());
        scratch.reshape_for_overwrite(&seg_rows, final_cols);

        // Chunk rows so one chunk's widest adjacent input+output pair
        // fits comfortably in cache alongside the (small) weights.
        const CHUNK_BUDGET_FLOATS: usize = 96 * 1024; // ~384 KiB in flight
        let mut width_pair_max = 0usize;
        let mut inter_cols_max = 0usize;
        {
            let mut ic = x.cols();
            for (li, (w, _)) in weights.iter().enumerate() {
                width_pair_max = width_pair_max.max(ic + w.cols());
                if li + 1 < n_layers {
                    inter_cols_max = inter_cols_max.max(w.cols());
                }
                ic = w.cols();
            }
        }
        let chunk = (CHUNK_BUDGET_FLOATS / width_pair_max.max(1)).max(64);
        let mut buf_a = vec![0.0f32; chunk.min(total_rows.max(1)) * inter_cols_max];
        let mut buf_b = vec![0.0f32; chunk.min(total_rows.max(1)) * inter_cols_max];

        let x_slice = x.data().as_slice();
        let x_cols = x.cols();
        let out_slice = scratch.data_mut().as_mut_slice();
        let run = |src: &[f32],
                   dst: &mut [f32],
                   n: usize,
                   ins: usize,
                   w: &Matrix,
                   bias: &[f32],
                   relu: bool| {
            let task = crate::kernel::LinearTask {
                x: src,
                rows: n,
                ins,
                w: w.as_slice(),
                outs: w.cols(),
                bias,
                relu,
            };
            self.kernel.run(&task, dst);
        };
        let mut r0 = 0usize;
        while r0 < total_rows {
            let n = chunk.min(total_rows - r0);
            // Which ping-pong buffer holds the current intermediate.
            let mut cur_in_a = false;
            let mut ins = x_cols;
            for (i, (w, bias)) in weights.iter().enumerate() {
                let outs = w.cols();
                debug_assert_eq!(ins, w.rows(), "layer widths must chain");
                let relu = relu_last || i + 1 < n_layers;
                let first = i == 0;
                let last = i + 1 == n_layers;
                match (first, last) {
                    (true, true) => run(
                        &x_slice[r0 * ins..(r0 + n) * ins],
                        &mut out_slice[r0 * outs..(r0 + n) * outs],
                        n,
                        ins,
                        w,
                        bias,
                        relu,
                    ),
                    (true, false) => {
                        run(
                            &x_slice[r0 * ins..(r0 + n) * ins],
                            &mut buf_a[..n * outs],
                            n,
                            ins,
                            w,
                            bias,
                            relu,
                        );
                        cur_in_a = true;
                    }
                    (false, true) => {
                        let src = if cur_in_a {
                            &buf_a[..n * ins]
                        } else {
                            &buf_b[..n * ins]
                        };
                        run(
                            src,
                            &mut out_slice[r0 * outs..(r0 + n) * outs],
                            n,
                            ins,
                            w,
                            bias,
                            relu,
                        );
                    }
                    (false, false) => {
                        let (src, dst) = if cur_in_a {
                            (&buf_a[..n * ins], &mut buf_b[..n * outs])
                        } else {
                            (&buf_b[..n * ins], &mut buf_a[..n * outs])
                        };
                        run(src, dst, n, ins, w, bias, relu);
                        cur_in_a = !cur_in_a;
                    }
                }
                ins = outs;
            }
            r0 += n;
        }
        std::mem::swap(&mut x, scratch);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteKnnGatherer, InterpolateKernel};

    /// The forward pass the batched body replaced, kept as the oracle:
    /// one cloud, one small matrix per gathered group, a fresh `Matrix`
    /// per layer and a separate ReLU pass. f32 only. With `stats` set,
    /// every layer's input is folded into its amax slot.
    fn oracle(
        net: &PointNet,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
        mut stats: Option<&mut AmaxStats>,
    ) -> InferenceOutput {
        let mut macs = 0u64;
        let mut interp_counts = OpCounts::default();
        let mut mlp = |group: MlpGroup, mut x: Matrix, relu_last: bool| {
            let weights = net.group_weights(group);
            for (i, (w, b)) in weights.iter().enumerate() {
                if let Some(stats) = stats.as_deref_mut() {
                    AmaxStats::record(stats.group_slot(group, i), &x);
                }
                macs += (x.rows() * x.cols() * w.cols()) as u64;
                x = net.kernel.apply(&x, w, b, false);
                if relu_last || i + 1 < weights.len() {
                    x.relu();
                }
            }
            x
        };

        let mut level_points: Vec<Vec<Point3>> = vec![cloud.points().to_vec()];
        let mut level_feats: Vec<Option<Matrix>> = vec![None];
        for (si, stage) in net.config.stages.iter().enumerate() {
            let pts = level_points.last().expect("input level").clone();
            let feats = level_feats.last().expect("levels aligned").clone();
            let n = pts.len();
            let feat_dim = feats.as_ref().map_or(0, Matrix::cols);
            // Relative coordinates of `members` around `center`, then the
            // members' features.
            let rows = |members: &[usize], center: Point3| {
                let mut x = Matrix::zeros(members.len(), 3 + feat_dim);
                for (r, &m) in members.iter().enumerate() {
                    let rel = pts[m] - center;
                    let row = x.row_mut(r);
                    row[..3].copy_from_slice(&[rel.x, rel.y, rel.z]);
                    if let Some(f) = &feats {
                        row[3..].copy_from_slice(f.row(m));
                    }
                }
                x
            };
            match stage {
                Stage::SetAbstraction { npoint, k, .. } => {
                    let centers = PointNet::select_centers(policy, n, *npoint, si);
                    let k_eff = (*k).min(n.saturating_sub(1)).max(1);
                    let groups = gatherer
                        .gather(&PointCloud::from_points(pts.clone()), &centers, k_eff)
                        .expect("oracle gather");
                    let mut pooled = Matrix::zeros(*npoint, stage.mlp().output_width());
                    for (gi, (&c, group)) in centers.iter().zip(&groups).enumerate() {
                        let out = mlp(MlpGroup::Stage(si), rows(group, pts[c]), true);
                        pooled.row_mut(gi).copy_from_slice(out.max_pool().row(0));
                    }
                    level_points.push(centers.iter().map(|&c| pts[c]).collect());
                    level_feats.push(Some(pooled));
                }
                Stage::GlobalAbstraction { .. } => {
                    let centroid = pts.iter().fold(Point3::ORIGIN, |a, &p| a + p) / n as f32;
                    let all: Vec<usize> = (0..n).collect();
                    let out = mlp(MlpGroup::Stage(si), rows(&all, centroid), true);
                    level_points.push(vec![centroid]);
                    level_feats.push(Some(out.max_pool()));
                }
            }
        }

        let top = level_points.len() - 1;
        let mut carried = level_feats[top].clone().expect("coarsest features");
        for j in 0..net.fp_weights.len() {
            let (coarse, fine) = (top - j, top - j - 1);
            let interpolated = InterpolateKernel::Scalar.apply(
                &level_points[fine],
                &level_points[coarse],
                &carried,
                &mut interp_counts,
            );
            let x = match &level_feats[fine] {
                Some(skip) => interpolated.hcat(skip),
                None => interpolated,
            };
            carried = mlp(MlpGroup::Fp(j), x, true);
        }
        let logits = mlp(MlpGroup::Head, carried, false);
        InferenceOutput {
            logits,
            gather_counts: gatherer.counts() + interp_counts,
            macs,
            precision: Precision::F32,
        }
    }

    /// A classification net small enough for a debug build. Every group
    /// has a middle layer, and every stack ends on a partial row chunk:
    /// SA1 stacks 128 × 12 = 1 536 rows per cloud in 1 024-row chunks,
    /// SA2 384 rows in 512-row chunks, the global stage 32 rows and the
    /// head one row per cloud in chunks of ≥ 64.
    fn small_classification() -> PointNet {
        PointNet::new(
            PointNetConfig {
                name: "small".to_owned(),
                task: TaskKind::Classification { classes: 10 },
                input_size: 256,
                stages: vec![
                    Stage::SetAbstraction {
                        npoint: 128,
                        k: 12,
                        mlp: MlpSpec::new(3, &[32, 32, 64]),
                    },
                    Stage::SetAbstraction {
                        npoint: 32,
                        k: 12,
                        mlp: MlpSpec::new(3 + 64, &[64, 64, 128]),
                    },
                    Stage::GlobalAbstraction {
                        mlp: MlpSpec::new(3 + 128, &[128, 256]),
                    },
                ],
                fp_mlps: Vec::new(),
                head: MlpSpec::new(256, &[64, 32, 10]),
            },
            3,
        )
    }

    /// The two oracle nets with cloud sizes for them. The segmentation
    /// net's last FP stage and head stack one row per point in 384-row
    /// chunks, so 600 and 640 points end on a partial second chunk.
    fn oracle_cases() -> [(PointNet, [usize; 3]); 2] {
        [
            (small_classification(), [256, 300, 270]),
            (
                PointNet::new(PointNetConfig::semantic_segmentation(512), 4),
                [640, 600, 700],
            ),
        ]
    }

    fn assert_same_output(got: &InferenceOutput, want: &InferenceOutput, what: &str) {
        assert_eq!(got.logits.rows(), want.logits.rows(), "{what}: rows");
        for r in 0..got.logits.rows() {
            let bits = |m: &Matrix| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.logits), bits(&want.logits), "{what}: row {r}");
        }
        assert_eq!(got.macs, want.macs, "{what}: macs");
        assert_eq!(got.gather_counts, want.gather_counts, "{what}: gathers");
    }

    #[test]
    fn a_batch_of_one_matches_the_oracle_bitwise() {
        for (net, sizes) in oracle_cases() {
            let c = cloud(sizes[0]);
            let policy = CenterPolicy::Random { seed: 9 };
            let want = oracle(&net, &c, &mut BruteKnnGatherer::new(), policy, None);
            let got = net.infer(&c, &mut BruteKnnGatherer::new(), policy).unwrap();
            assert_same_output(&got, &want, &net.config.name);
        }
    }

    #[test]
    fn every_cloud_of_a_batch_matches_the_oracle_bitwise() {
        for (net, sizes) in oracle_cases() {
            for width in [2, 3] {
                let clouds: Vec<PointCloud> = sizes[..width].iter().map(|&n| cloud(n)).collect();
                let refs: Vec<&PointCloud> = clouds.iter().collect();
                let policies: Vec<CenterPolicy> = (0..width as u64)
                    .map(|seed| CenterPolicy::Random { seed })
                    .collect();
                let mut gs: Vec<BruteKnnGatherer> =
                    (0..width).map(|_| BruteKnnGatherer::new()).collect();
                let mut grefs: Vec<&mut dyn Gatherer> =
                    gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
                let outs = net.infer_batch(&refs, &mut grefs, &policies).unwrap();
                for (bi, (c, &p)) in clouds.iter().zip(&policies).enumerate() {
                    let want = oracle(&net, c, &mut BruteKnnGatherer::new(), p, None);
                    let what = format!("{} B={width} cloud {bi}", net.config.name);
                    assert_same_output(&outs[bi], &want, &what);
                }
            }
        }
    }

    #[test]
    fn calibration_fills_the_oracles_amax_slots() {
        for (net, sizes) in oracle_cases() {
            let c = cloud(sizes[1]);
            let mut calibrator = crate::Calibrator::new();
            calibrator
                .observe(&net, &c, &mut BruteKnnGatherer::new(), CenterPolicy::FirstN)
                .unwrap();
            let got = calibrator.finish().unwrap().stats;
            let mut want = net.amax_slots();
            oracle(
                &net,
                &c,
                &mut BruteKnnGatherer::new(),
                CenterPolicy::FirstN,
                Some(&mut want),
            );
            let name = &net.config.name;
            assert_eq!(got.stages, want.stages, "{name}: stage slots");
            assert_eq!(got.fps, want.fps, "{name}: fp slots");
            assert_eq!(got.head, want.head, "{name}: head slots");
            let every_slot = want.stages.iter().chain(&want.fps).flatten();
            assert!(every_slot.chain(&want.head).all(|&a| a > 0.0), "{name}");
        }
    }

    fn cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract() * 2.0,
                    (f * 0.414).fract() * 2.0,
                    (f * 0.732).fract() * 2.0,
                )
            })
            .collect()
    }

    #[test]
    fn classification_produces_40_logits() {
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let mut g = BruteKnnGatherer::new();
        let out = net
            .infer(&cloud(1024), &mut g, CenterPolicy::FirstN)
            .unwrap();
        assert_eq!(out.logits.rows(), 1);
        assert_eq!(out.logits.cols(), 40);
        assert!(out.macs > 0);
        assert!(out.gather_counts.distance_computations > 0);
        let class = out.predicted_class(0);
        assert!(class < 40);
    }

    #[test]
    fn segmentation_labels_every_point() {
        let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 2);
        let mut g = BruteKnnGatherer::new();
        let out = net
            .infer(&cloud(512), &mut g, CenterPolicy::FirstN)
            .unwrap();
        assert_eq!(out.logits.rows(), 512);
        assert_eq!(out.logits.cols(), 13);
    }

    #[test]
    fn deterministic_given_seed_and_policy() {
        let net = PointNet::new(PointNetConfig::classification(), 5);
        let c = cloud(1024);
        let mut g1 = BruteKnnGatherer::new();
        let mut g2 = BruteKnnGatherer::new();
        let a = net
            .infer(&c, &mut g1, CenterPolicy::Random { seed: 3 })
            .unwrap();
        let b = net
            .infer(&c, &mut g2, CenterPolicy::Random { seed: 3 })
            .unwrap();
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn different_weights_change_logits() {
        let c = cloud(1024);
        let mut g1 = BruteKnnGatherer::new();
        let mut g2 = BruteKnnGatherer::new();
        let a = PointNet::new(PointNetConfig::classification(), 1)
            .infer(&c, &mut g1, CenterPolicy::FirstN)
            .unwrap();
        let b = PointNet::new(PointNetConfig::classification(), 2)
            .infer(&c, &mut g2, CenterPolicy::FirstN)
            .unwrap();
        assert_ne!(a.logits, b.logits);
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let net = PointNet::new(PointNetConfig::classification(), 3);
        let mut g = BruteKnnGatherer::new();
        let out = net
            .infer(&cloud(1024), &mut g, CenterPolicy::FirstN)
            .unwrap();
        let p = out.probabilities(0);
        assert_eq!(p.len(), 40);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Argmax of probabilities equals argmax of logits.
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmax, out.predicted_class(0));
    }

    #[test]
    fn too_small_input_is_rejected() {
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let mut g = BruteKnnGatherer::new();
        assert!(matches!(
            net.infer(&cloud(100), &mut g, CenterPolicy::FirstN),
            Err(PcnError::InputTooSmall { .. })
        ));
    }

    #[test]
    fn macs_match_config_estimate_for_classification() {
        // The executed MAC count must equal the workload model's estimate
        // (same layer dims, same batch sizes).
        let cfg = PointNetConfig::classification();
        let net = PointNet::new(cfg.clone(), 1);
        let mut g = BruteKnnGatherer::new();
        let out = net
            .infer(&cloud(1024), &mut g, CenterPolicy::FirstN)
            .unwrap();
        assert_eq!(out.macs, cfg.total_macs());
    }

    #[test]
    fn interpolation_is_exact_on_coincident_points() {
        let coarse = vec![Point3::ORIGIN, Point3::splat(1.0)];
        let feats = Matrix::from_vec(2, 1, vec![10.0, 20.0]);
        let mut counts = OpCounts::default();
        let out =
            crate::InterpolateKernel::Scalar.apply(&[Point3::ORIGIN], &coarse, &feats, &mut counts);
        // A fine point sitting on a coarse point takes (almost) all its
        // weight from it.
        assert!((out.get(0, 0) - 10.0).abs() < 1e-3);
        assert!(counts.distance_computations > 0);
    }
}

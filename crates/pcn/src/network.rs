use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgpcn_dla::MlpSpec;
use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_memsim::OpCounts;

use crate::stage::StageBackends;
use crate::{kernel, Gatherer, LinearKernel, Matrix, PcnError, PointNetConfig, Stage, TaskKind};

/// The arithmetic precision of a forward pass. f32 is the only one.
///
/// A one-variant vestige: the benchmark's replay and verify harnesses
/// still name `Precision::F32` through
/// [`PointNet::infer_with_precision_using`],
/// `InferenceEngine::run_with_precision_using` and
/// `InferenceEngine::run_batch_with_precision_using`, so those three
/// signatures keep their parameter lists. The next `[benchmark]` change
/// drops `Precision` and the `*_with_precision*` names together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 arithmetic.
    F32,
}

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
#[derive(Clone, Debug)]
pub struct PointNet {
    config: PointNetConfig,
    stage_weights: Vec<Vec<LayerWeights>>,
    fp_weights: Vec<Vec<LayerWeights>>,
    head_weights: Vec<LayerWeights>,
    kernel: LinearKernel,
    stages: StageBackends,
}

/// Which of a network's MLP groups a dense layer belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MlpGroup {
    /// Set-abstraction / global-abstraction stage `i`'s shared MLP.
    Stage(usize),
    /// Feature-propagation MLP `i`.
    Fp(usize),
    /// The classification / segmentation head.
    Head,
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

    /// Runs one inference over `cloud` using `gatherer` for the data
    /// structuring step — a batch of one through
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
        self.infer_with_precision_using(cloud, gatherer, policy, Precision::F32, self.stages)
    }

    /// [`PointNet::infer`] with an explicit per-call stage-backend
    /// selection, overriding the network's pinned
    /// [`PointNet::stage_backends`]. Only the network-resident stage
    /// (FP interpolation) dispatches here — callers running sampling or
    /// gathering (the engines in the system crate) consume the other
    /// two fields. Bit-identity across backends makes this a pure
    /// host-speed knob. `precision` is always [`Precision::F32`] (see
    /// [`Precision`]).
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer`].
    pub fn infer_with_precision_using(
        &self,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
        precision: Precision,
        stages: StageBackends,
    ) -> Result<InferenceOutput, PcnError> {
        let Precision::F32 = precision;
        let mut outs = self.infer_batch_using(&[cloud], &mut [gatherer], &[policy], stages)?;
        Ok(outs.pop().expect("one output per cloud"))
    }

    /// Runs one inference over **each** cloud of a micro-batch, pushing all
    /// clouds through every MLP with one pass over the weights per row
    /// chunk.
    ///
    /// Per stage, the gathered groups of *all* clouds form one segment
    /// table, and row chunks of it stream through the stage MLP's whole
    /// layer stack in two cache-sized buffers: each chunk fills its own
    /// input rows from the gathered indices, and its last layer's rows
    /// fold straight into each cloud's pooled features — the way the
    /// paper's Feature Computation Unit pools groups on chip. No stage
    /// ever holds its full grouped input or output. Every per-row and
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
        self.infer_batch_using(clouds, gatherers, policies, self.stages)
    }

    /// [`PointNet::infer_batch`] with an explicit per-call stage-backend
    /// selection — the body behind every public forward pass;
    /// [`PointNet::infer_with_precision_using`] is this with one cloud.
    ///
    /// # Errors
    ///
    /// As [`PointNet::infer_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `clouds`, `gatherers` and `policies` have different
    /// lengths.
    pub fn infer_batch_using(
        &self,
        clouds: &[&PointCloud],
        gatherers: &mut [&mut dyn Gatherer],
        policies: &[CenterPolicy],
        stages: StageBackends,
    ) -> Result<Vec<InferenceOutput>, PcnError> {
        assert_eq!(clouds.len(), gatherers.len(), "one gatherer per cloud");
        assert_eq!(clouds.len(), policies.len(), "one policy per cloud");
        let b = clouds.len();
        if b == 0 {
            return Ok(Vec::new());
        }
        let mut pass = Pass {
            bufs: [Vec::new(), Vec::new()],
            macs: vec![0; b],
        };
        let mut interp_counts = vec![OpCounts::default(); b];

        // Per-cloud encoder levels; level 0 is the raw input's
        // coordinates.
        let mut levels: Vec<Vec<Level>> = clouds
            .iter()
            .map(|c| {
                vec![Level {
                    cloud: PointCloud::from_points(c.points().to_vec()),
                    feats: None,
                }]
            })
            .collect();

        for (si, stage) in self.config.stages.iter().enumerate() {
            // Feature width is config-determined, hence equal across the
            // batch at every level.
            let cols = 3 + last(&levels[0]).feats.as_ref().map_or(0, Matrix::cols);
            let group = MlpGroup::Stage(si);
            match stage {
                Stage::SetAbstraction { npoint, k, .. } => {
                    let npoint = *npoint;
                    let mut centers = Vec::with_capacity(b);
                    let mut groups = Vec::with_capacity(b);
                    for (bi, gatherer) in gatherers.iter_mut().enumerate() {
                        let cur = &last(&levels[bi]).cloud;
                        let n = cur.len();
                        if npoint > n {
                            return Err(PcnError::InputTooSmall {
                                points: n,
                                needed: npoint,
                            });
                        }
                        let c = Self::select_centers(policies[bi], n, npoint, si);
                        // Coarse stages can ask for more neighbors than
                        // exist; clamp like the PointNet++ reference
                        // implementation.
                        let k_eff = (*k).min(n.saturating_sub(1)).max(1);
                        groups.push(gatherer.gather(cur, &c, k_eff)?);
                        centers.push(c);
                    }
                    // One segment per (cloud, center): cloud `s / npoint`'s
                    // group around its center `s % npoint`.
                    let seg_rows: Vec<usize> = groups.iter().flatten().map(Vec::len).collect();
                    let fill = |s: usize, rows: Range<usize>, dst: &mut [f32]| {
                        let (bi, gi) = (s / npoint, s % npoint);
                        let level = last(&levels[bi]);
                        let pts = level.cloud.points();
                        let members = groups[bi][gi][rows].iter().copied();
                        fill_grouped(
                            pts,
                            level.feats.as_ref(),
                            pts[centers[bi][gi]],
                            members,
                            dst,
                        );
                    };
                    let input = Input {
                        seg_rows: &seg_rows,
                        cols,
                        fill: &fill,
                    };
                    let pooled = self.run_mlp(group, &input, Sink::Pool, &mut pass);
                    for ((level, c), feats) in levels.iter_mut().zip(&centers).zip(pooled) {
                        let cur = &last(level).cloud;
                        let next: PointCloud = c.iter().map(|&i| cur.point(i)).collect();
                        level.push(Level {
                            cloud: next,
                            feats: Some(feats),
                        });
                    }
                }
                Stage::GlobalAbstraction { .. } => {
                    // One segment per cloud: all its points around their
                    // centroid.
                    let centroids: Vec<Point3> = levels
                        .iter()
                        .map(|l| {
                            let pts = last(l).cloud.points();
                            pts.iter().fold(Point3::ORIGIN, |a, &p| a + p) / pts.len().max(1) as f32
                        })
                        .collect();
                    let seg_rows: Vec<usize> = levels.iter().map(|l| last(l).cloud.len()).collect();
                    let fill = |bi: usize, rows: Range<usize>, dst: &mut [f32]| {
                        let level = last(&levels[bi]);
                        let pts = level.cloud.points();
                        fill_grouped(pts, level.feats.as_ref(), centroids[bi], rows, dst);
                    };
                    let input = Input {
                        seg_rows: &seg_rows,
                        cols,
                        fill: &fill,
                    };
                    let pooled = self.run_mlp(group, &input, Sink::Pool, &mut pass);
                    for ((level, &centroid), feats) in levels.iter_mut().zip(&centroids).zip(pooled)
                    {
                        level.push(Level {
                            cloud: PointCloud::from_points(vec![centroid]),
                            feats: Some(feats),
                        });
                    }
                }
            }
        }

        let top = self.config.stages.len();
        let mut head_in: Vec<Matrix> = levels
            .iter_mut()
            .map(|l| l[top].feats.take().expect("coarsest features"))
            .collect();
        if let TaskKind::Segmentation { .. } = self.config.task {
            for j in 0..self.fp_weights.len() {
                let coarse = top - j;
                let fine = coarse - 1;
                let interps: Vec<Matrix> = (0..b)
                    .map(|bi| {
                        stages.interpolate.apply(
                            levels[bi][fine].cloud.points(),
                            levels[bi][coarse].cloud.points(),
                            &head_in[bi],
                            &mut interp_counts[bi],
                        )
                    })
                    .collect();
                // Each row is `[interpolated | skip]`.
                let interp_dim = interps[0].cols();
                let skip_dim = levels[0][fine].feats.as_ref().map_or(0, Matrix::cols);
                let seg_rows: Vec<usize> = interps.iter().map(Matrix::rows).collect();
                let fill = |bi: usize, rows: Range<usize>, dst: &mut [f32]| {
                    let skip = levels[bi][fine].feats.as_ref();
                    for (r, row) in rows.zip(dst.chunks_exact_mut(interp_dim + skip_dim)) {
                        row[..interp_dim].copy_from_slice(interps[bi].row(r));
                        if let Some(skip) = skip {
                            row[interp_dim..].copy_from_slice(skip.row(r));
                        }
                    }
                };
                let input = Input {
                    seg_rows: &seg_rows,
                    cols: interp_dim + skip_dim,
                    fill: &fill,
                };
                head_in = self.run_mlp(MlpGroup::Fp(j), &input, Sink::Rows, &mut pass);
            }
        }

        let cols = head_in[0].cols();
        let seg_rows: Vec<usize> = head_in.iter().map(Matrix::rows).collect();
        let fill = |bi: usize, rows: Range<usize>, dst: &mut [f32]| {
            dst.copy_from_slice(&head_in[bi].as_slice()[rows.start * cols..rows.end * cols]);
        };
        let input = Input {
            seg_rows: &seg_rows,
            cols,
            fill: &fill,
        };
        let logits = self.run_mlp(MlpGroup::Head, &input, Sink::Rows, &mut pass);

        Ok(logits
            .into_iter()
            .enumerate()
            .map(|(bi, logits)| InferenceOutput {
                logits,
                gather_counts: gatherers[bi].counts() + interp_counts[bi],
                macs: pass.macs[bi],
            })
            .collect())
    }

    /// One pass of an MLP group over one stage's rows for the whole
    /// batch, returning one matrix per cloud.
    ///
    /// Row chunks stream through the **whole layer stack**: `input.fill`
    /// writes a chunk's input rows into one of `pass`'s two chunk
    /// buffers, the layers ping-pong between them, and `sink` takes the
    /// last layer's rows. Neither the stage's full input nor its full
    /// output is ever built. A chunk is sized so its widest adjacent
    /// input/output pair stays cache-resident with the (small) weights,
    /// and its ends fall wherever they fall: a segment may start, end or
    /// continue in any chunk, so the pooling fold carries across chunk
    /// boundaries.
    ///
    /// Every layer is row-independent, and the pool has one order: a
    /// segment's first row is copied, then `v > o` is applied over its
    /// later rows in row order, carried across chunk ends. So the
    /// chunking is a pure scheduling choice: outputs are bit-identical
    /// to one layer at a time over all rows. Executed MACs are
    /// attributed per cloud from the segment table.
    fn run_mlp(
        &self,
        group: MlpGroup,
        input: &Input<'_>,
        sink: Sink,
        pass: &mut Pass,
    ) -> Vec<Matrix> {
        let Pass { bufs: [a, b], macs } = pass;
        let weights = self.group_weights(group);
        let relu_last = group != MlpGroup::Head;
        let seg_rows = input.seg_rows;
        let per_cloud = seg_rows.len() / macs.len();
        debug_assert_eq!(per_cloud * macs.len(), seg_rows.len());

        let mut cloud_rows = vec![0usize; macs.len()];
        for (s, &r) in seg_rows.iter().enumerate() {
            cloud_rows[s / per_cloud] += r;
        }
        // Chunk rows so one chunk's widest adjacent input+output pair
        // fits comfortably in cache alongside the weights.
        const CHUNK_BUDGET_FLOATS: usize = 96 * 1024; // ~384 KiB in flight
        let (mut ins, mut widest, mut widest_pair) = (input.cols, input.cols, 0);
        for (w, _) in weights {
            // The kernels' slice bounds rest on this.
            assert_eq!(ins, w.rows(), "layer widths must chain");
            for (m, &r) in macs.iter_mut().zip(&cloud_rows) {
                *m += (r * ins * w.cols()) as u64;
            }
            widest = widest.max(w.cols());
            widest_pair = widest_pair.max(ins + w.cols());
            ins = w.cols();
        }
        let out_cols = ins;
        let total_rows: usize = seg_rows.iter().sum();
        let chunk = (CHUNK_BUDGET_FLOATS / widest_pair.max(1))
            .max(64)
            .min(total_rows.max(1));
        for buf in [&mut *a, &mut *b] {
            if buf.len() < chunk * widest {
                buf.resize(chunk * widest, 0.0);
            }
        }

        let mut out: Vec<Matrix> = match sink {
            Sink::Pool => vec![Matrix::zeros(per_cloud, out_cols); macs.len()],
            Sink::Rows => {
                debug_assert_eq!(per_cloud, 1, "one segment per cloud");
                seg_rows
                    .iter()
                    .map(|&r| Matrix::zeros(r, out_cols))
                    .collect()
            }
        };
        let mut cursor = (0usize, 0usize);
        let mut r0 = 0usize;
        while r0 < total_rows {
            let n = chunk.min(total_rows - r0);
            let start = cursor;
            for_each_run(seg_rows, &mut cursor, n, |s, rows, at| {
                let len = rows.len();
                (input.fill)(s, rows, &mut a[at * input.cols..(at + len) * input.cols]);
            });
            let mut ins = input.cols;
            for (i, (w, bias)) in weights.iter().enumerate() {
                let outs = w.cols();
                let relu = relu_last || i + 1 < weights.len();
                let task = kernel::LinearTask {
                    x: &a[..n * ins],
                    rows: n,
                    ins,
                    w: w.as_slice(),
                    outs,
                    bias,
                    relu,
                };
                self.kernel.run(&task, &mut b[..n * outs]);
                std::mem::swap(a, b);
                ins = outs;
            }
            let mut cursor = start;
            for_each_run(seg_rows, &mut cursor, n, |s, rows, at| {
                let src = &a[at * out_cols..(at + rows.len()) * out_cols];
                match sink {
                    Sink::Pool => {
                        let dst = out[s / per_cloud].row_mut(s % per_cloud);
                        let mut src_rows = src.chunks_exact(out_cols);
                        if rows.start == 0 {
                            if let Some(first) = src_rows.next() {
                                dst.copy_from_slice(first);
                            }
                        }
                        for row in src_rows {
                            pool_fold(dst, row);
                        }
                    }
                    Sink::Rows => out[s].as_mut_slice()[rows.start * out_cols..rows.end * out_cols]
                        .copy_from_slice(src),
                }
            });
            r0 += n;
        }
        out
    }
}

/// One encoder level of one cloud: its points and, above the input,
/// their pooled features.
struct Level {
    cloud: PointCloud,
    feats: Option<Matrix>,
}

/// The forward pass's running state: the two chunk buffers the dense
/// layers ping-pong (grown to the largest stage once, then reused), and
/// executed MACs per cloud.
struct Pass {
    bufs: [Vec<f32>; 2],
    macs: Vec<u64>,
}

/// `fill(s, rows, dst)` writes rows `rows` of segment `s` (row-major)
/// into `dst`.
type FillRows<'a> = dyn Fn(usize, Range<usize>, &mut [f32]) + 'a;

/// One MLP pass's input rows, described rather than stacked: `cols`
/// wide, cloud-major segments with the same count for every cloud, and
/// the fill that writes any run of them.
struct Input<'a> {
    seg_rows: &'a [usize],
    cols: usize,
    fill: &'a FillRows<'a>,
}

/// Where an MLP pass's last-layer rows go.
#[derive(Clone, Copy)]
enum Sink {
    /// Max-pool each segment into one row: segment `s` becomes row
    /// `s % per_cloud` of its cloud's matrix (the abstraction stages).
    Pool,
    /// Keep every row: segment `s` is cloud `s`'s whole matrix (the FP
    /// stages and the head).
    Rows,
}

/// Folds one row into a segment's running max: `o` becomes `v` where
/// `v > o`. Written as a select rather than a branchy store, so it
/// lowers to `maxps(v, o)` (exactly `v > o ? v : o`): the same value as
/// [`Matrix::max_pool`]'s branch for NaN and for `±0.0` ties, without a
/// branch per element.
fn pool_fold(dst: &mut [f32], row: &[f32]) {
    for (o, &v) in dst.iter_mut().zip(row) {
        *o = if v > *o { v } else { *o };
    }
}

/// A cloud's coarsest level so far.
fn last(levels: &[Level]) -> &Level {
    levels.last().expect("input level")
}

/// Writes one row per member into `dst` — the member's coordinates
/// relative to `center`, then its features: an abstraction stage's input
/// rows, for one group's run of members.
fn fill_grouped(
    points: &[Point3],
    feats: Option<&Matrix>,
    center: Point3,
    members: impl Iterator<Item = usize>,
    dst: &mut [f32],
) {
    let cols = 3 + feats.map_or(0, Matrix::cols);
    for (row, m) in dst.chunks_exact_mut(cols).zip(members) {
        let rel = points[m] - center;
        row[0] = rel.x;
        row[1] = rel.y;
        row[2] = rel.z;
        if let Some(f) = feats {
            row[3..].copy_from_slice(f.row(m));
        }
    }
}

/// Splits the `n` rows after `cursor` (segment, row within it) into
/// per-segment runs in row order, calling `f(segment, rows within the
/// segment, offset of the run's first row among the `n`)`, and advances
/// `cursor` past them.
fn for_each_run(
    seg_rows: &[usize],
    cursor: &mut (usize, usize),
    n: usize,
    mut f: impl FnMut(usize, Range<usize>, usize),
) {
    let mut done = 0;
    while done < n {
        let (s, off) = *cursor;
        let take = (seg_rows[s] - off).min(n - done);
        f(s, off..off + take, done);
        done += take;
        *cursor = if off + take == seg_rows[s] {
            (s + 1, 0)
        } else {
            (s, off + take)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteKnnGatherer, InterpolateKernel};

    /// The forward pass the batched body replaced, kept as the oracle:
    /// one cloud, one small matrix per gathered group, a fresh `Matrix`
    /// per layer and a separate ReLU pass.
    fn oracle(
        net: &PointNet,
        cloud: &PointCloud,
        gatherer: &mut dyn Gatherer,
        policy: CenterPolicy,
    ) -> InferenceOutput {
        let mut macs = 0u64;
        let mut interp_counts = OpCounts::default();
        let mut mlp = |group: MlpGroup, mut x: Matrix, relu_last: bool| {
            let weights = net.group_weights(group);
            for (i, (w, b)) in weights.iter().enumerate() {
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
            let want = oracle(&net, &c, &mut BruteKnnGatherer::new(), policy);
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
                    let want = oracle(&net, c, &mut BruteKnnGatherer::new(), p);
                    let what = format!("{} B={width} cloud {bi}", net.config.name);
                    assert_same_output(&outs[bi], &want, &what);
                }
            }
        }
    }

    /// The branch-free fold keeps `Matrix::max_pool`'s value, to the
    /// bit, wherever a select and a branch could part: NaN first and
    /// later, `-0.0` then `+0.0` and the reverse, and `±∞`. Each column
    /// is one case, read top to bottom.
    #[test]
    fn pool_fold_matches_max_pool_bitwise() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let rows = [
            [nan, 1.0, -0.0, 0.0, -inf, inf, -inf, nan, 2.0],
            [1.0, nan, 0.0, -0.0, inf, -inf, -inf, -inf, nan],
            [2.0, 0.5, 0.0, -0.0, 3.0, 0.0, -inf, inf, 3.0],
        ];
        let m = Matrix::from_vec(rows.len(), rows[0].len(), rows.concat());
        let mut got = rows[0].to_vec();
        for row in &rows[1..] {
            pool_fold(&mut got, row);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(m.max_pool().row(0)));
    }

    proptest::proptest! {
        /// Random group sizes, center counts, global-MLP widths, batch
        /// widths and cloud sizes put row-chunk ends at arbitrary offsets
        /// inside SA groups, and make a cloud's global segment span up to
        /// four chunks, so the pooling fold must carry across chunk
        /// boundaries; every cloud still matches the oracle bit for bit.
        #[test]
        fn streamed_pools_match_the_oracle(
            k in 1usize..=70,
            npoint in 8usize..=256,
            w1 in 4usize..=16,
            w2 in 64usize..=1536,
            extra in proptest::collection::vec(0usize..=120, 1..4),
            seed in 0u64..1000,
        ) {
            let net = PointNet::new(
                PointNetConfig {
                    name: "streamed".to_owned(),
                    task: TaskKind::Classification { classes: 10 },
                    input_size: npoint,
                    stages: vec![
                        Stage::SetAbstraction {
                            npoint,
                            k,
                            mlp: MlpSpec::new(3, &[8, 16]),
                        },
                        Stage::GlobalAbstraction {
                            mlp: MlpSpec::new(3 + 16, &[w1, w2]),
                        },
                    ],
                    fp_mlps: Vec::new(),
                    head: MlpSpec::new(w2, &[10]),
                },
                seed,
            );
            let clouds: Vec<PointCloud> = extra.iter().map(|&e| cloud(npoint + e)).collect();
            let refs: Vec<&PointCloud> = clouds.iter().collect();
            let policies: Vec<CenterPolicy> = (0..clouds.len() as u64)
                .map(|i| CenterPolicy::Random { seed: seed ^ i })
                .collect();
            let mut gs: Vec<BruteKnnGatherer> =
                clouds.iter().map(|_| BruteKnnGatherer::new()).collect();
            let mut grefs: Vec<&mut dyn Gatherer> =
                gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
            let outs = net.infer_batch(&refs, &mut grefs, &policies).unwrap();
            for (bi, (c, &p)) in clouds.iter().zip(&policies).enumerate() {
                let want = oracle(&net, c, &mut BruteKnnGatherer::new(), p);
                let what = format!("k={k} npoint={npoint} w=({w1},{w2}) cloud {bi}");
                assert_same_output(&outs[bi], &want, &what);
            }
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

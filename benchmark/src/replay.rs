//! The traced run: the first frames of a workload replayed serially on
//! one thread, through the layers' public functions, with a span around
//! each call.
//!
//! Every frame is run twice — once decomposed into traced calls, once
//! through the engines' own entry points with no wrapper in the way — so
//! the two can be compared: bit-for-bit on what they compute, and by wall
//! time for the cost of tracing. `stream_warm` keeps one set of scratch
//! buffers per stream, as the runtime does, so warm frames are warm.

use std::time::Instant;

use hgpcn_dla::LayerRun;
use hgpcn_gather::dsu::StageCycles;
use hgpcn_gather::VegIndex;
use hgpcn_geometry::PointCloud;
use hgpcn_memsim::{HostMemory, Latency, OpCounts};
use hgpcn_octree::{Octree, OctreeConfig, OctreeScratch, OctreeTable};
use hgpcn_pcn::{CenterPolicy, Gatherer, PcnError, PointNet, Precision, StageBackends};
use hgpcn_runtime::frame_seed;
use hgpcn_sampling::ois::{self, OisScratch};
use hgpcn_system::{
    build_counts, warm_build_counts, E2ePipeline, InferenceEngine, StreamPreprocContext,
    VegGatherer,
};

use crate::report::Metrics;
use crate::stats::median_of;
use crate::trace::{self, Span, Tracer};
use crate::verify::{same_bits, Recomputed};
use crate::workload::{Workload, REPLAY_FRAMES};

const SA_SPANS: [&str; 4] = ["gather.sa1", "gather.sa2", "gather.sa3", "gather.sa4"];

/// Times each set-abstraction level's gather from outside the `gather`
/// crate: one span per [`Gatherer::gather`] call.
struct TimingGatherer<'a> {
    inner: &'a mut VegGatherer,
    tracer: &'a mut Tracer,
    level: usize,
    queries: usize,
}

impl Gatherer for TimingGatherer<'_> {
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError> {
        let id = self
            .tracer
            .begin(SA_SPANS[self.level.min(SA_SPANS.len() - 1)]);
        let out = self.inner.gather(cloud, centers, k);
        self.tracer.end(id);
        self.level += 1;
        self.queries += centers.len();
        out
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
}

/// Records the cloud each level is gathered over, so its index build can
/// be timed standalone afterwards.
struct CapturingGatherer {
    inner: VegGatherer,
    levels: Vec<PointCloud>,
}

impl Gatherer for CapturingGatherer {
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError> {
        self.levels.push(cloud.clone());
        self.inner.gather(cloud, centers, k)
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
}

/// One stream's buffers for the traced pass: the pieces of a
/// `StreamPreprocContext`, held apart so each call can be timed.
struct TracedStream {
    octree: OctreeScratch,
    ois: OisScratch,
    mem: HostMemory,
}

/// What the traced pass learned about one frame beyond its spans.
struct Facts {
    points: usize,
    nodes: usize,
    reused: bool,
    dirty_points: usize,
    mem_reads: u64,
    queries: usize,
    build: Latency,
    transfer: Latency,
    sample: Latency,
    ds: Latency,
    fc: Latency,
    output: hgpcn_pcn::InferenceOutput,
    sampled: PointCloud,
}

/// Prices data structuring and feature computation exactly as
/// `InferenceEngine` does, from its public parts.
fn price(engine: &InferenceEngine, veg: &VegGatherer, net: &PointNet) -> (Latency, Latency) {
    let mut agg = StageCycles::default();
    let (mut drain, mut fill) = (0u64, 0u64);
    let (mut sorted, mut free) = (0u64, 0u64);
    for r in veg.results() {
        let c = engine.dsu.stage_cycles(r, r.neighbors.len());
        if fill == 0 {
            fill = c.total();
        }
        drain += c.bottleneck();
        agg = agg + c;
        sorted += r.stats.candidates_sorted as u64;
        free += r.stats.gathered_free as u64;
    }
    std::hint::black_box((agg, sorted, free, Gatherer::counts(veg)));
    let ds = Latency::from_ns((drain + fill) as f64 * engine.dsu.cycle_ns());
    let mut fc = LayerRun::default();
    for w in net.config().workload() {
        let run = engine.array.mlp(&w.mlp, w.points);
        fc.cycles += run.cycles;
        fc.counts += run.counts;
    }
    (ds, engine.array.latency(&fc))
}

#[allow(clippy::too_many_arguments)]
fn traced_frame(
    tracer: &mut Tracer,
    pipeline: &E2ePipeline,
    net: &PointNet,
    stages: StageBackends,
    st: &mut TracedStream,
    cloud: &PointCloud,
    target: usize,
    seed: u64,
) -> Facts {
    let pre = &pipeline.preproc;
    let id_frame = tracer.begin("frame");

    // The sequence of `PreprocessingEngine::run_with_context`.
    let id_pre = tracer.begin("system.preproc");
    let octree = tracer
        .span("octree.build", || {
            Octree::build_with_scratch(cloud, pre.octree_config, &mut st.octree)
        })
        .expect("generated frame builds");
    let stats = octree.build_stats();
    let b_counts = if stats.reused {
        warm_build_counts(&stats)
    } else {
        build_counts(&stats, octree.depth())
    };
    let build = pre.cpu.latency(&b_counts);
    let table = tracer.span("octree.table", || OctreeTable::from_octree(&octree));
    let mut transfer_bytes = table.size_bits() as u64 / 8;
    if stats.reused && stats.nodes_created > 0 {
        transfer_bytes = transfer_bytes * stats.nodes_dirty as u64 / stats.nodes_created as u64;
    }
    let transfer = pre.unit.device_profile().transfer(transfer_bytes);
    tracer.span("memsim.hostmem_load", || {
        st.mem.reload_cloud(octree.points())
    });
    let picked = tracer
        .span("sampling.ois", || {
            ois::sample_with_scratch(
                &octree,
                &table,
                &mut st.mem,
                target,
                seed,
                stages.sampling,
                &mut st.ois,
            )
        })
        .expect("generated frame samples");
    let sample = pre.unit.latency(&picked.counts);
    let sampled = tracer.span("geometry.gather_points", || {
        octree.points().gather(&picked.indices)
    });
    drop(table);
    st.octree.recycle(octree);
    tracer.end(id_pre);

    // The sequence of `InferenceEngine::run_with_precision_using`.
    let id_inf = tracer.begin("system.infer");
    let mut veg = VegGatherer::new(pipeline.inference.veg).with_kernel(stages.gather);
    let id_pcn = tracer.begin("pcn.infer");
    let mut timing = TimingGatherer {
        inner: &mut veg,
        tracer,
        level: 0,
        queries: 0,
    };
    let output = net
        .infer_with_precision_using(
            &sampled,
            &mut timing,
            CenterPolicy::Random { seed },
            Precision::F32,
            stages,
        )
        .expect("generated frame infers");
    let queries = timing.queries;
    tracer.end(id_pcn);
    let (ds, fc) = price(&pipeline.inference, &veg, net);
    drop(veg);
    tracer.end(id_inf);

    tracer.end(id_frame);
    Facts {
        points: stats.points,
        nodes: stats.nodes_created,
        reused: stats.reused,
        dirty_points: stats.dirty_points,
        mem_reads: picked.counts.mem_reads,
        queries,
        build,
        transfer,
        sample,
        ds,
        fc,
        output,
        sampled,
    }
}

/// The same frame through the engines' own entry points, as a preproc
/// worker and an inference worker run it. Returns the result and the
/// wall milliseconds.
fn untraced_frame(
    pipeline: &E2ePipeline,
    net: &PointNet,
    stages: StageBackends,
    ctx: &mut StreamPreprocContext,
    cloud: &PointCloud,
    target: usize,
    seed: u64,
) -> (Recomputed, f64) {
    let t = Instant::now();
    let mut pre = pipeline
        .preproc
        .run_with_context(cloud, target, seed, stages.sampling, ctx)
        .expect("generated frame preprocesses");
    let pre_latency = pre.total_latency();
    let reused = pre.reused;
    let sampled = std::mem::replace(&mut pre.sampled, PointCloud::new());
    ctx.recycle(pre);
    let inf = pipeline
        .inference
        .run_with_precision_using(&sampled, net, seed, Precision::F32, stages)
        .expect("generated frame infers");
    let inf_latency = inf.total_latency();
    drop(sampled);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (
        Recomputed {
            predicted_class: inf.output.predicted_class(0),
            macs: inf.output.macs,
            pre: pre_latency,
            inf: inf_latency,
            reused,
            logits: inf.output.logits,
        },
        ms,
    )
}

pub struct ReplayOutcome {
    /// Every replay-sourced per-layer metric.
    pub layer: Metrics,
    pub spans: Vec<Span>,
    /// The untraced pass's result for the `g`-th submission, `g` from 0.
    pub results: Vec<Recomputed>,
    pub violations: Vec<String>,
}

/// Replays the first [`REPLAY_FRAMES`] submissions of `w`.
pub fn run(w: &Workload, net: &PointNet, stages: StageBackends) -> ReplayOutcome {
    let pipeline = E2ePipeline::prototype();
    let target = w.kind.target_points();
    let mut traced_streams: Vec<TracedStream> = (0..w.streams())
        .map(|_| TracedStream {
            octree: OctreeScratch::new(),
            ois: OisScratch::new(),
            mem: HostMemory::from_points(Vec::new()),
        })
        .collect();
    let mut contexts: Vec<StreamPreprocContext> = (0..w.streams())
        .map(|_| StreamPreprocContext::new())
        .collect();

    let mut tracer = Tracer::new();
    let mut facts = Vec::with_capacity(REPLAY_FRAMES);
    let mut results = Vec::with_capacity(REPLAY_FRAMES);
    let mut untraced_ms = Vec::with_capacity(REPLAY_FRAMES);
    let mut violations = Vec::new();
    for g in 0..REPLAY_FRAMES {
        let (stream, index) = w.nth(g);
        let cloud = w.frame(stream, index);
        let seed = frame_seed(w.base_seed, stream, index);
        tracer.set_frame(g);
        // Alternate which pass goes first, so neither always gets the
        // input cloud warm in cache.
        let mut traced = None;
        let mut plain = None;
        for pass in 0..2 {
            if (pass + g) % 2 == 0 {
                traced = Some(traced_frame(
                    &mut tracer,
                    &pipeline,
                    net,
                    stages,
                    &mut traced_streams[stream],
                    cloud,
                    target,
                    seed,
                ));
            } else {
                plain = Some(untraced_frame(
                    &pipeline,
                    net,
                    stages,
                    &mut contexts[stream],
                    cloud,
                    target,
                    seed,
                ));
            }
        }
        let (f, (r, ms)) = (traced.expect("ran"), plain.expect("ran"));

        // The decomposition must compute what the engines compute, and
        // the five modeled parts must sum exactly to the frame's total.
        let bits = |l: Latency| l.ns().to_bits();
        let at = format!("replay stream {stream} frame {index}");
        if !same_bits(&f.output.logits, &r.logits) || f.output.macs != r.macs {
            violations.push(format!("{at}: traced and untraced outputs differ"));
        }
        if f.reused != r.reused {
            violations.push(format!(
                "{at}: traced warm={} untraced warm={}",
                f.reused, r.reused
            ));
        }
        let pre = f.build + f.transfer + f.sample;
        let inf = f.ds + f.fc;
        if bits(pre) != bits(r.pre)
            || bits(inf) != bits(r.inf)
            || bits(pre + inf) != bits(r.pre + r.inf)
        {
            violations.push(format!(
                "{at}: modeled parts {} + {} + {} + {} + {} ns do not sum to the frame's {} ns",
                f.build.ns(),
                f.transfer.ns(),
                f.sample.ns(),
                f.ds.ns(),
                f.fc.ns(),
                (r.pre + r.inf).ns()
            ));
        }
        facts.push(f);
        results.push(r);
        untraced_ms.push(ms);
    }

    let spans = tracer.spans().to_vec();
    let mut layer = metrics(&spans, &facts, &untraced_ms, target);
    extras(w, &pipeline, net, stages, &facts, &spans, &mut layer);
    if layer.get("trace.unattributed_share").unwrap_or(1.0) > 0.03 {
        violations.push("trace.unattributed_share > 0.03: the replay does not telescope".into());
    }
    if layer.get("trace.overhead_share").unwrap_or(1.0) > 0.05 {
        violations.push("trace.overhead_share > 0.05".into());
    }
    ReplayOutcome {
        layer,
        spans,
        results,
        violations,
    }
}

fn metrics(spans: &[Span], facts: &[Facts], untraced_ms: &[f64], target: usize) -> Metrics {
    let durs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let by_dur = trace::per_frame_ms(spans, &durs);
    let by_self = trace::per_frame_ms(spans, &trace::self_times_ns(spans));
    let empty = Vec::new();
    let dur = |name: &str| by_dur.get(name).unwrap_or(&empty);
    let own = |name: &str| by_self.get(name).unwrap_or(&empty);
    let med = |v: &[f64]| median_of(v);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let n = Some(facts.len());
    let fmed = |f: &dyn Fn(&Facts) -> f64| median_of(&facts.iter().map(f).collect::<Vec<_>>());
    let fsum = |f: &dyn Fn(&Facts) -> f64| facts.iter().map(f).sum::<f64>();

    let mut m = Metrics::default();
    m.set_n("octree.build_ms", med(dur("octree.build")), n);
    m.set_n(
        "octree.build_ns_per_point",
        sum(dur("octree.build")) * 1e6 / fsum(&|f| f.points as f64),
        n,
    );
    m.set_n("octree.table_ms", med(dur("octree.table")), n);
    m.set_n("octree.nodes_per_frame", fmed(&|f| f.nodes as f64), n);
    let warm: Vec<&Facts> = facts.iter().filter(|f| f.reused).collect();
    m.set_n(
        "octree.warm_share",
        warm.len() as f64 / facts.len() as f64,
        n,
    );
    let dirty = warm.iter().fold(0.0, |a, f| a + f.dirty_points as f64);
    let warm_points = warm.iter().fold(0.0, |a, f| a + f.points as f64);
    m.set_n(
        "octree.dirty_point_share",
        dirty / f64::max(warm_points, 1.0),
        Some(warm.len()),
    );
    m.set_n("octree.build_modeled_ms", fmed(&|f| f.build.ms()), n);
    m.set_n("memsim.hostmem_load_ms", med(dur("memsim.hostmem_load")), n);
    m.set_n("memsim.transfer_modeled_ms", fmed(&|f| f.transfer.ms()), n);
    m.set_n("sampling.ois_ms", med(dur("sampling.ois")), n);
    m.set_n(
        "sampling.ois_us_per_sample",
        sum(dur("sampling.ois")) * 1e3 / (facts.len() * target) as f64,
        n,
    );
    m.set_n(
        "sampling.mem_reads_per_frame",
        fmed(&|f| f.mem_reads as f64),
        n,
    );
    m.set_n("sampling.modeled_ms", fmed(&|f| f.sample.ms()), n);
    m.set_n(
        "geometry.gather_points_ms",
        med(dur("geometry.gather_points")),
        n,
    );
    m.set_n("system.preproc_ms", med(dur("system.preproc")), n);
    m.set_n("system.preproc_self_ms", med(own("system.preproc")), n);
    m.set_n("system.infer_ms", med(dur("system.infer")), n);
    m.set_n("system.price_ms", med(own("system.infer")), n);
    let (pre_ms, inf_ms) = (sum(dur("system.preproc")), sum(dur("system.infer")));
    m.set_n("system.preproc_share", pre_ms / (pre_ms + inf_ms), n);

    // Per frame, the time of all its gathers; a network with fewer than
    // four set-abstraction levels leaves the deeper ones at zero.
    let mut sa_ms = vec![0.0; facts.len()];
    for (level, span) in SA_SPANS.iter().enumerate() {
        let per_frame = dur(span);
        for (total, v) in sa_ms.iter_mut().zip(per_frame) {
            *total += v;
        }
        m.set_n(
            &format!("gather.sa{}_ms", level + 1),
            med(per_frame),
            Some(per_frame.len()),
        );
    }
    let queries = fsum(&|f| f.queries as f64);
    m.set_n("gather.sa_ms", med(&sa_ms), n);
    m.set_n(
        "gather.us_per_query",
        sum(&sa_ms) * 1e3 / queries.max(1.0),
        n,
    );
    m.set_n("gather.queries_per_frame", fmed(&|f| f.queries as f64), n);
    m.set_n("gather.ds_modeled_ms", fmed(&|f| f.ds.ms()), n);
    m.set_n("pcn.infer_ms", med(dur("pcn.infer")), n);
    m.set_n("pcn.mlp_ms", med(own("pcn.infer")), n);
    m.set_n("pcn.macs_per_frame", fmed(&|f| f.output.macs as f64), n);
    m.set_n(
        "pcn.gmacs_per_s",
        fsum(&|f| f.output.macs as f64) / (sum(own("pcn.infer")) * 1e6),
        n,
    );
    m.set_n("dla.fc_modeled_ms", fmed(&|f| f.fc.ms()), n);

    // Each frame's two passes run back to back, so a slow spell of the
    // host hits both; the median of the per-frame differences ignores the
    // few pairs a spell splits.
    let overhead: Vec<f64> = dur("frame")
        .iter()
        .zip(untraced_ms)
        .map(|(traced, plain)| (traced - plain) / plain)
        .collect();
    m.set_n("trace.serial_frame_ms", med(dur("frame")), n);
    m.set_n("trace.untraced_serial_frame_ms", med(untraced_ms), n);
    m.set_n("trace.overhead_share", med(&overhead), n);
    m.set_n(
        "trace.unattributed_share",
        sum(own("frame")) / sum(dur("frame")),
        n,
    );
    m
}

/// The measurements that need a pass of their own: standalone index
/// builds and the batch-of-8 forward pass.
fn extras(
    w: &Workload,
    pipeline: &E2ePipeline,
    net: &PointNet,
    stages: StageBackends,
    facts: &[Facts],
    spans: &[Span],
    m: &mut Metrics,
) {
    // `VegIndex::build` per level, outside any forward pass.
    let mut index_ms = Vec::new();
    for (g, f) in facts.iter().enumerate().take(4) {
        let (stream, index) = w.nth(g);
        let seed = frame_seed(w.base_seed, stream, index);
        let mut capture = CapturingGatherer {
            inner: VegGatherer::new(pipeline.inference.veg).with_kernel(stages.gather),
            levels: Vec::new(),
        };
        net.infer_with_precision_using(
            &f.sampled,
            &mut capture,
            CenterPolicy::Random { seed },
            Precision::F32,
            stages,
        )
        .expect("replayed frame infers");
        let t = Instant::now();
        for level in &capture.levels {
            std::hint::black_box(
                VegIndex::build(level, pipeline.inference.veg, OctreeConfig::default())
                    .expect("level cloud indexes"),
            );
        }
        index_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.set_n(
        "gather.index_build_ms",
        median_of(&index_ms),
        Some(index_ms.len()),
    );

    // Eight frames in one SoA pass against the same eight one at a time
    // (their `system.infer` spans).
    let batch: Vec<&PointCloud> = facts.iter().take(8).map(|f| &f.sampled).collect();
    let seeds: Vec<u64> = (0..batch.len())
        .map(|g| {
            let (stream, index) = w.nth(g);
            frame_seed(w.base_seed, stream, index)
        })
        .collect();
    let per_frame: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                pipeline
                    .inference
                    .run_batch_with_precision_using(&batch, net, &seeds, Precision::F32, stages)
                    .expect("replayed batch infers"),
            );
            t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64
        })
        .collect();
    let one_at_a_time: f64 = spans
        .iter()
        .filter(|s| s.name == "system.infer" && s.frame < batch.len())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum::<f64>()
        / batch.len() as f64;
    let batched = median_of(&per_frame);
    m.set_n("pcn.batch8_ms_per_frame", batched, Some(per_frame.len()));
    m.set_n(
        "pcn.batch8_speedup",
        one_at_a_time / batched,
        Some(batch.len()),
    );
}

//! Scale-out contract of [`ShardedRuntime`]: placement is deterministic,
//! sharding is bit-invisible to each stream, and the aggregated report
//! telescopes from the per-shard reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    FrameRecord, FrameResult, FrameStatus, PlacementPolicy, RuntimeConfig, RuntimeReport,
    ServingRuntime, ShardedRuntime, StreamProfile,
};

const TARGET: usize = 512;
const SHARDS: usize = 3;
const STREAMS: usize = 12;
const FRAMES: usize = 2;

/// One worker per stage keeps each replica's virtual timeline a pure
/// function of its submission order — the precondition for comparing a
/// shard bit-for-bit against an independent runtime fed the same
/// partition.
fn config() -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .queue_capacity(64)
        .target_points(TARGET)
        .seed(0x5EED)
}

fn net() -> Arc<PointNet> {
    Arc::new(PointNet::new(
        PointNetConfig::semantic_segmentation(TARGET),
        11,
    ))
}

/// Deliberately prefix-sharing names: the ring hash's avalanche
/// finalizer must spread them anyway (raw FNV-1a would cluster them
/// onto one arc and defeat the spread check below).
fn stream_name(s: usize) -> String {
    format!("cam-{s}")
}

/// Deterministic per-(stream, frame) cloud, keyed by the stream *name*
/// so the sharded run and the independent replicas feed byte-identical
/// inputs.
fn frame_cloud(s: usize, frame: usize) -> PointCloud {
    cloud(s * 104_729 + frame * 7919, TARGET + 173)
}

/// A low-discrepancy cloud of `points` points starting at sequence index
/// `offset`. Computed in f64 — an f32 `fract()` at large indices would
/// collapse onto quantized coordinates.
fn cloud(offset: usize, points: usize) -> PointCloud {
    (0..points)
        .map(|p| {
            let f = (offset + p) as f64;
            Point3::new(
                ((f * 0.618_033_988_749).fract() * 2.0) as f32,
                ((f * 0.414_213_562_373).fract() * 2.0) as f32,
                ((f * 0.732_050_807_568).fract() * 2.0) as f32,
            )
        })
        .collect()
}

/// Logits + the frame's virtual-clock journey, keyed by
/// `(stream name, frame_index)` — everything that must be identical
/// between a sharded stream and the same stream on a lone runtime.
type FrameFacts = BTreeMap<(String, usize), (Vec<f32>, [u64; 5])>;

fn virtual_bits(r: &FrameRecord) -> [u64; 5] {
    [
        r.virtual_arrival_s.to_bits(),
        r.virtual_preproc_start_s.to_bits(),
        r.virtual_preproc_done_s.to_bits(),
        r.virtual_infer_start_s.to_bits(),
        r.virtual_done_s.to_bits(),
    ]
}

/// Collects per-frame facts from a finished report: logits come from
/// the `wait` results (passed in), timestamps from the records.
fn frame_facts(report: &RuntimeReport, logits: &BTreeMap<(usize, usize), Vec<f32>>) -> FrameFacts {
    let names: BTreeMap<usize, &str> = report
        .streams
        .iter()
        .map(|s| (s.stream_id, s.name.as_str()))
        .collect();
    report
        .records
        .iter()
        .map(|r| {
            let name = names[&r.stream_id].to_owned();
            let bits = virtual_bits(r);
            let l = logits[&(r.stream_id, r.frame_index)].clone();
            ((name, r.frame_index), (l, bits))
        })
        .collect()
}

fn flat_logits(result: &FrameResult) -> Vec<f32> {
    let m = &result.output.logits;
    (0..m.rows())
        .flat_map(|r| m.row(r).iter().copied())
        .collect()
}

/// The sharded fleet run under `ConsistentHash`: open all streams,
/// submit round-robin, wait everything. Returns (per-frame facts,
/// per-shard reports, aggregate report, per-stream shard assignment by
/// name).
#[allow(clippy::type_complexity)]
fn run_sharded() -> (
    FrameFacts,
    Vec<RuntimeReport>,
    RuntimeReport,
    BTreeMap<String, usize>,
) {
    let runtime = ShardedRuntime::start(config(), SHARDS, PlacementPolicy::ConsistentHash, net())
        .expect("valid config");
    let ids: Vec<usize> = (0..STREAMS)
        .map(|s| {
            runtime
                .open_stream(StreamProfile::new(stream_name(s)).nominal_fps(10.0))
                .expect("stream opens")
        })
        .collect();
    let shard_of: BTreeMap<String, usize> = ids
        .iter()
        .enumerate()
        .map(|(s, &id)| (stream_name(s), runtime.shard_of(id).expect("open stream")))
        .collect();

    let mut logits = BTreeMap::new();
    for frame in 0..FRAMES {
        for (s, &id) in ids.iter().enumerate() {
            let ticket = runtime
                .submit(id, frame as f64 * 0.1, frame_cloud(s, frame))
                .expect("admitted");
            match runtime.wait(ticket).expect("resolves") {
                FrameStatus::Done(result) => {
                    logits.insert((id, ticket.frame_index), flat_logits(&result));
                }
                other => panic!("frame did not complete: {other:?}"),
            }
        }
    }

    let shard_reports: Vec<_> = (0..runtime.shard_count())
        .map(|k| runtime.shard_stats(k).expect("shard exists"))
        .collect();
    let aggregate = runtime.shutdown().expect("clean shutdown");
    (
        frame_facts(&aggregate, &logits),
        shard_reports,
        aggregate,
        shard_of,
    )
}

/// The control run: one *independent* single-replica runtime per shard,
/// fed exactly that shard's streams in the sharded run's open order and
/// its frames in the sharded run's submission order.
fn run_partition(assignment: &BTreeMap<String, usize>) -> FrameFacts {
    let mut facts = FrameFacts::new();
    for shard in 0..SHARDS {
        // Open order on the replica == global open order filtered to
        // this shard — the same dense local ids the sharded runtime
        // assigned, so per-frame seeds (functions of the *local* id)
        // match.
        let members: Vec<usize> = (0..STREAMS)
            .filter(|&s| assignment[&stream_name(s)] == shard)
            .collect();
        let runtime = ServingRuntime::start(config(), net()).expect("valid config");
        let handles: Vec<_> = members
            .iter()
            .map(|&s| {
                runtime
                    .open_stream(StreamProfile::new(stream_name(s)).nominal_fps(10.0))
                    .expect("stream opens")
            })
            .collect();
        let mut logits = BTreeMap::new();
        for frame in 0..FRAMES {
            for (&s, handle) in members.iter().zip(&handles) {
                let ticket = runtime
                    .submit(handle.id(), frame as f64 * 0.1, frame_cloud(s, frame))
                    .expect("admitted");
                match runtime.wait(ticket).expect("resolves") {
                    FrameStatus::Done(result) => {
                        logits.insert((handle.id(), ticket.frame_index), flat_logits(&result));
                    }
                    other => panic!("frame did not complete: {other:?}"),
                }
            }
        }
        let report = runtime.shutdown().expect("clean shutdown");
        facts.extend(frame_facts(&report, &logits));
    }
    facts
}

/// Tentpole acceptance: a K-shard fleet is bit-identical — logits *and*
/// virtual-clock timestamps — to K independent runtimes serving the
/// same partition.
#[test]
fn consistent_hash_sharding_is_bit_exact_per_stream() {
    let (sharded, _, aggregate, assignment) = run_sharded();
    assert_eq!(aggregate.total_frames, STREAMS * FRAMES);
    // The fleet must actually be spread out for the test to mean much.
    let used: std::collections::BTreeSet<usize> = assignment.values().copied().collect();
    assert!(used.len() > 1, "hash ring put every stream on one shard");

    let lone = run_partition(&assignment);
    assert_eq!(sharded.len(), lone.len());
    for (key, (s_logits, s_bits)) in &sharded {
        let (l_logits, l_bits) = &lone[key];
        assert_eq!(s_logits, l_logits, "logits differ for {key:?}");
        assert_eq!(
            s_bits, l_bits,
            "virtual timestamps differ for {key:?} — sharding leaked into the timeline"
        );
    }
}

/// The aggregated report telescopes from the per-shard reports: frame
/// counts sum, stream sets concatenate, the makespan is the max, and
/// worker counts sum.
#[test]
fn aggregate_report_telescopes_from_shard_reports() {
    let (_, shards, aggregate, _) = run_sharded();

    let frames: usize = shards.iter().map(|r| r.total_frames).sum();
    assert_eq!(aggregate.total_frames, frames);
    let dropped: usize = shards.iter().map(|r| r.total_dropped).sum();
    assert_eq!(aggregate.total_dropped, dropped);
    let streams: usize = shards.iter().map(|r| r.streams.len()).sum();
    assert_eq!(aggregate.streams.len(), streams);
    assert_eq!(aggregate.streams.len(), STREAMS);
    assert_eq!(aggregate.records.len(), aggregate.total_frames);

    // Every stream's frame 0 arrives at virtual t = 0, so every
    // non-empty shard's span is anchored at 0 and the global span
    // (earliest arrival → latest completion across all shards) is
    // exactly the longest shard span.
    let max_makespan = shards
        .iter()
        .map(|r| r.virtual_makespan_s)
        .fold(0.0f64, f64::max);
    assert!(
        (aggregate.virtual_makespan_s - max_makespan).abs() < 1e-12,
        "aggregate makespan {} != max shard makespan {max_makespan}",
        aggregate.virtual_makespan_s
    );

    assert_eq!(
        aggregate.preproc_workers,
        shards.iter().map(|r| r.preproc_workers).sum::<usize>()
    );
    assert_eq!(
        aggregate.inference_workers,
        shards.iter().map(|r| r.inference_workers).sum::<usize>()
    );

    // Every stream completed its frames, each on its recorded shard.
    for stream in &aggregate.streams {
        assert_eq!(stream.completed, FRAMES, "stream {}", stream.name);
        assert!(stream.shard < SHARDS);
        let on_shard = &shards[stream.shard];
        assert!(
            on_shard.streams.iter().any(|s| s.name == stream.name),
            "stream {} not in its shard {}'s report",
            stream.name,
            stream.shard
        );
    }

    // Per-stream latency summaries survive aggregation untouched: the
    // aggregate's view of a stream equals the shard's own view.
    for stream in &aggregate.streams {
        let shard_view = shards[stream.shard]
            .streams
            .iter()
            .find(|s| s.name == stream.name)
            .expect("present, asserted above");
        assert_eq!(
            stream.sojourn, shard_view.sojourn,
            "stream {} sojourn quantiles changed in aggregation",
            stream.name
        );
        assert_eq!(stream.completed, shard_view.completed);
    }
}

/// `LeastLoaded` balances *streams*, never frames: placement reads the
/// live queue depths only at `open_stream`, pins the stream there for
/// its lifetime, and every subsequent frame follows it — even frames
/// submitted while other shards sit idle. `shard_of` must answer the
/// same home before, during, and after the traffic.
#[test]
fn least_loaded_never_splits_a_stream() {
    const BURST: usize = 3;
    let runtime = ShardedRuntime::start(config(), SHARDS, PlacementPolicy::LeastLoaded, net())
        .expect("valid config");

    // Open each stream while the previous streams' bursts are still in
    // flight, so placement sees genuinely unequal queue depths (an idle
    // fleet would tie-break every open onto shard 0). No assertion on
    // the resulting spread — depths race the workers; the invariant
    // under test is pinning, which must hold for ANY placement.
    let mut ids = Vec::new();
    let mut tickets = Vec::new();
    for s in 0..STREAMS {
        let id = runtime
            .open_stream(StreamProfile::new(stream_name(s)).nominal_fps(10.0))
            .expect("stream opens");
        ids.push(id);
        for frame in 0..BURST {
            tickets.push(
                runtime
                    .submit(id, frame as f64 * 0.1, frame_cloud(s, frame))
                    .expect("admitted"),
            );
        }
    }
    let assignment: Vec<usize> = ids
        .iter()
        .map(|&id| runtime.shard_of(id).expect("open stream"))
        .collect();

    // One more frame per stream after every queue has had time to move:
    // routing must still follow the original placement.
    for (s, &id) in ids.iter().enumerate() {
        tickets.push(
            runtime
                .submit(id, BURST as f64 * 0.1, frame_cloud(s, BURST))
                .expect("admitted"),
        );
    }
    for ticket in tickets {
        match runtime.wait(ticket).expect("resolves") {
            FrameStatus::Done(_) => {}
            other => panic!("frame did not complete: {other:?}"),
        }
    }

    for (s, &id) in ids.iter().enumerate() {
        assert_eq!(
            runtime.shard_of(id).expect("still open"),
            assignment[s],
            "stream {s} moved shards mid-life"
        );
    }

    let shards: Vec<RuntimeReport> = (0..runtime.shard_count())
        .map(|k| runtime.shard_stats(k).expect("shard exists"))
        .collect();
    let aggregate = runtime.shutdown().expect("clean shutdown");
    assert_eq!(aggregate.total_frames, STREAMS * (BURST + 1));

    for (s, &home) in assignment.iter().enumerate() {
        let name = stream_name(s);
        // All of the stream's frames appear in exactly one shard's
        // report — the one `shard_of` promised.
        let homes: Vec<usize> = (0..SHARDS)
            .filter(|&k| shards[k].streams.iter().any(|st| st.name == name))
            .collect();
        assert_eq!(homes, vec![home], "stream {name} split across shards");
        let view = shards[home]
            .streams
            .iter()
            .find(|st| st.name == name)
            .expect("just located");
        assert_eq!(view.completed, BURST + 1, "stream {name} lost frames");
    }
}

/// SplitMix64 mapped onto `[0, 1)`: the offered trace's seeded uniform
/// source.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// Nearest-rank percentile of ascending `sorted` samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// An open-loop sharded fleet under offered load: Poisson arrivals
/// (exponential gaps at `RATE` aggregate fps) over more streams than
/// shards, each event on a uniformly drawn stream with a Pareto(1.8)
/// frame size — the heavy-tailed lidar size distribution. With one
/// worker per stage every shard's virtual timeline is a function of its
/// submission order alone, so the sojourn quantiles, the aggregated
/// modeled fps and the makespan are pinned to the bit: any drift is a
/// scheduling or cost-model change, never host noise.
#[test]
fn offered_load_quantiles_are_pinned_to_the_bit() {
    const STREAMS: usize = 8;
    const EVENTS: usize = 32;
    const RATE: f64 = 480.0;
    const ALPHA: f64 = 1.8;
    let runtime = ShardedRuntime::start(
        config().max_batch(4),
        SHARDS,
        PlacementPolicy::ConsistentHash,
        net(),
    )
    .expect("valid config");
    let ids: Vec<usize> = (0..STREAMS)
        .map(|s| {
            runtime
                .open_stream(StreamProfile::new(stream_name(s)).nominal_fps(10.0))
                .expect("stream opens")
        })
        .collect();

    let mut rng = 0x10AD_u64;
    let mut clock = 0.0f64;
    let tickets: Vec<_> = (0..EVENTS)
        .map(|e| {
            clock += -(1.0 - uniform(&mut rng)).ln() / RATE;
            let size = TARGET as f64 * 1.25 * (1.0 - uniform(&mut rng)).powf(-1.0 / ALPHA);
            let points = (size as usize).min(4 * TARGET);
            let stream = (uniform(&mut rng) * STREAMS as f64) as usize;
            runtime
                .submit(ids[stream], clock, cloud(e * 7919, points))
                .expect("lossless backpressure admits every frame")
        })
        .collect();
    for ticket in tickets {
        match runtime.wait(ticket).expect("resolves") {
            FrameStatus::Done(_) => {}
            other => panic!("frame did not complete: {other:?}"),
        }
    }
    let report = runtime.shutdown().expect("clean shutdown");
    assert_eq!(report.total_frames, EVENTS);

    let mut sojourns_s: Vec<f64> = report
        .records
        .iter()
        .map(|r| r.virtual_done_s - r.virtual_arrival_s)
        .collect();
    sojourns_s.sort_by(f64::total_cmp);
    let got = [
        percentile(&sojourns_s, 0.50),
        percentile(&sojourns_s, 0.99),
        report.modeled_pipelined_fps,
        report.virtual_makespan_s,
    ];
    // p50 and p99 sojourn (s), modeled pipelined fps, makespan (s).
    let want = [
        0.0031998789300007047,
        0.011613366137482845,
        468.88253927769017,
        0.0682473696915559,
    ];
    assert_eq!(
        got.map(f64::to_bits),
        want.map(f64::to_bits),
        "{got:?} != {want:?}"
    );
}

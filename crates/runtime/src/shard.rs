//! Scale-out serving: N runtime replicas behind one placement policy.
//!
//! A single [`ServingRuntime`] is one scheduler over two worker pools —
//! the paper's pipelined serving model, but a single box. This module
//! multiplies it: a [`ShardedRuntime`] boots N independent replicas
//! ("shards"), pins every stream to exactly one shard at open time via
//! a [`PlacementPolicy`], and presents the whole fleet through the same
//! [`StreamService`] interface as one runtime. The weights are **not**
//! cloned per replica: every shard serves the same `Arc<PointNet>`.
//!
//! Because a stream lives entirely on one shard, and per-frame seeds
//! depend only on the *shard-local* stream id and frame index, a shard
//! behaves bit-identically to an independent [`ServingRuntime`] fed the
//! same streams in the same order — sharding changes capacity, never
//! results (proved in `runtime/tests/shard.rs`).
//!
//! Reports keep both views: [`ShardedRuntime::shard_stats`] is one
//! replica's report with stream ids translated to service-wide ids, and
//! [`ShardedRuntime::stats`] aggregates across shards (frame counts
//! summed, records merged on the shared virtual-clock origin).
//! [`ShardedRuntime::metrics`] renders per-shard series under an
//! `hgpcn_shard` label plus aggregate series, with the aggregate
//! latency histograms folded from the per-shard ones via
//! [`LogHistogram::merge`].

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hgpcn_geometry::PointCloud;
use hgpcn_pcn::PointNet;
use hgpcn_system::E2ePipeline;
use hgpcn_telemetry::Registry;

use crate::config::RuntimeConfig;
use crate::metrics::{BatchingStats, QueueStats, RunSummary, RuntimeReport, StreamReport};
use crate::service::StreamService;
use crate::session::{FrameStatus, FrameTicket, ServingRuntime};
use crate::stream::StreamProfile;
use crate::RuntimeError;

/// How a [`ShardedRuntime`] picks the shard that will own a new stream.
///
/// Placement runs **once per stream**, at
/// [`open_stream`](ShardedRuntime::open_stream); every frame of the
/// stream then goes to that shard, so per-stream FIFO order and
/// per-frame determinism are preserved no matter the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Hash the stream *name* onto a consistent-hash ring (FNV-1a over
    /// the name with a 64-bit avalanche finalizer, ~40 virtual nodes
    /// per shard). Placement is a pure function of the name and the
    /// shard count: the same fleet opened on another day — or on
    /// another host — lands identically, and growing the ring by one
    /// shard moves only ~1/N of the names.
    ConsistentHash,
    /// Place on the shard with the fewest frames currently queued
    /// between stages ([`ServingRuntime::queue_depth`]; ties break to
    /// the lowest shard index). Adapts to imbalance but depends on live
    /// load, so placement varies run to run.
    LeastLoaded,
}

/// Virtual nodes per shard on the consistent-hash ring — enough to keep
/// the expected name imbalance under ~20% for small shard counts.
const VNODES_PER_SHARD: usize = 40;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Final avalanche pass (splitmix64's mixer) over the raw FNV-1a hash.
/// FNV's last step per byte is one xor + multiply, so short names that
/// share a prefix and differ only in trailing bytes (`cam-0` … `cam-9`,
/// the natural way to name a fleet) come out with strongly correlated
/// high bits and cluster onto a single ring arc — without this mixer a
/// whole fleet can land on one shard.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Position of `bytes` on the consistent-hash ring.
fn ring_hash(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// N [`ServingRuntime`] replicas behind one [`StreamService`] front.
///
/// All shards share **one** copy of the network weights (`Arc<PointNet>`
/// — the reason [`ServingRuntime::start`] takes
/// `impl Into<Arc<PointNet>>`). Stream ids handed out by this type are
/// *service-wide*: dense, in open order, independent of which shard
/// owns the stream. Tickets, reports and errors all speak service-wide
/// ids; the shard-local ids only exist inside the replicas.
///
/// ```
/// use hgpcn_runtime::{
///     FrameStatus, PlacementPolicy, RuntimeConfig, ShardedRuntime, StreamProfile,
///     StreamService,
/// };
/// use hgpcn_pcn::{PointNet, PointNetConfig};
/// use hgpcn_geometry::Point3;
/// use std::sync::Arc;
///
/// let net = Arc::new(PointNet::new(PointNetConfig::classification(), 7));
/// // classification() samples 512 centers in its first set-abstraction
/// // stage, so the post-downsampling cloud must keep >= 512 points.
/// let rt = ShardedRuntime::start(
///     RuntimeConfig::default().target_points(512),
///     2,
///     PlacementPolicy::ConsistentHash,
///     Arc::clone(&net), // one weight copy serves both shards
/// )?;
/// let id = rt.open_stream(StreamProfile::new("lidar-a"))?;
/// let cloud = (0..600)
///     .map(|i| {
///         let f = i as f32;
///         Point3::new((f * 0.618).fract(), (f * 0.414).fract(), (f * 0.732).fract())
///     })
///     .collect();
/// let ticket = rt.submit(id, 0.0, cloud)?;
/// match rt.wait(ticket)? {
///     FrameStatus::Done(result) => assert!(result.output.logits.rows() > 0),
///     other => panic!("expected completion, got {other:?}"),
/// }
/// let report = rt.shutdown()?;
/// assert_eq!(report.total_frames, 1);
/// # Ok::<(), hgpcn_runtime::RuntimeError>(())
/// ```
pub struct ShardedRuntime {
    shards: Vec<ServingRuntime>,
    policy: PlacementPolicy,
    /// `(ring position, shard)` sorted by position; built once at start.
    ring: Vec<(u64, usize)>,
    /// Service-wide stream id → `(shard, shard-local stream id)`, in
    /// open order. Lock order: `placements` before any shard-internal
    /// lock (open/stats paths), never the reverse.
    placements: Mutex<Vec<(usize, usize)>>,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl ShardedRuntime {
    /// Boots `shards` independent replicas of `config`, all serving the
    /// same shared network.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if `shards == 0` or `config`
    /// fails [`RuntimeConfig::validate`].
    pub fn start(
        config: RuntimeConfig,
        shards: usize,
        policy: PlacementPolicy,
        net: impl Into<Arc<PointNet>>,
    ) -> Result<ShardedRuntime, RuntimeError> {
        if shards == 0 {
            return Err(RuntimeError::InvalidConfig(
                "a sharded runtime needs at least one shard".into(),
            ));
        }
        let net: Arc<PointNet> = net.into();
        let mut replicas = Vec::with_capacity(shards);
        for _ in 0..shards {
            replicas.push(ServingRuntime::start_replica(
                config.clone(),
                E2ePipeline::prototype(),
                Arc::clone(&net),
                shards,
            )?);
        }
        let mut ring = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                ring.push((ring_hash(format!("{shard}/{vnode}").as_bytes()), shard));
            }
        }
        ring.sort_unstable();
        Ok(ShardedRuntime {
            shards: replicas,
            policy,
            ring,
            placements: Mutex::new(Vec::new()),
        })
    }

    /// Number of replicas behind this runtime.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The placement policy streams are opened under.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The shard that owns `stream_id`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] for an unopened id.
    pub fn shard_of(&self, stream_id: usize) -> Result<usize, RuntimeError> {
        self.route(stream_id).map(|(shard, _)| shard)
    }

    fn place(&self, name: &str) -> usize {
        match self.policy {
            PlacementPolicy::ConsistentHash => {
                let h = ring_hash(name.as_bytes());
                let idx = self.ring.partition_point(|&(pos, _)| pos < h);
                self.ring[idx % self.ring.len()].1
            }
            PlacementPolicy::LeastLoaded => (0..self.shards.len())
                .min_by_key(|&k| self.shards[k].queue_depth())
                .expect("at least one shard"),
        }
    }

    /// Opens a stream on the shard the policy picks and returns its
    /// service-wide id.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, like
    /// [`ServingRuntime::open_stream`].
    pub fn open_stream(&self, profile: StreamProfile) -> Result<usize, RuntimeError> {
        let shard = self.place(&profile.name);
        // Held across the replica call so concurrent opens observe
        // dense, open-ordered service-wide ids.
        let mut placements = self.placements.lock().expect("placement table poisoned");
        let local = self.shards[shard].open_stream(profile)?.id();
        placements.push((shard, local));
        Ok(placements.len() - 1)
    }

    fn route(&self, stream_id: usize) -> Result<(usize, usize), RuntimeError> {
        self.placements
            .lock()
            .expect("placement table poisoned")
            .get(stream_id)
            .copied()
            .ok_or(RuntimeError::UnknownStream { stream_id })
    }

    /// Shard-local stream id → service-wide id, for `shard`.
    fn local_to_global(&self, shard: usize) -> Vec<usize> {
        let placements = self.placements.lock().expect("placement table poisoned");
        local_map(&placements, shard)
    }

    /// Rewrites shard-local stream ids inside an error back into
    /// service-wide ids before it crosses this type's boundary.
    fn globalize_error(&self, shard: usize, err: RuntimeError) -> RuntimeError {
        let map = self.local_to_global(shard);
        let g = |local: usize| map.get(local).copied().unwrap_or(local);
        match err {
            RuntimeError::Frame {
                stream_id,
                frame_index,
                source,
            } => RuntimeError::Frame {
                stream_id: g(stream_id),
                frame_index,
                source,
            },
            RuntimeError::Dropped {
                stream_id,
                frame_index,
            } => RuntimeError::Dropped {
                stream_id: g(stream_id),
                frame_index,
            },
            RuntimeError::UnknownStream { stream_id } => RuntimeError::UnknownStream {
                stream_id: g(stream_id),
            },
            RuntimeError::UnknownTicket {
                stream_id,
                frame_index,
            } => RuntimeError::UnknownTicket {
                stream_id: g(stream_id),
                frame_index,
            },
            other => other,
        }
    }

    fn globalize_status(&self, shard: usize, global_id: usize, status: FrameStatus) -> FrameStatus {
        match status {
            FrameStatus::Done(mut result) => {
                result.record.stream_id = global_id;
                FrameStatus::Done(result)
            }
            FrameStatus::Failed(err) => FrameStatus::Failed(self.globalize_error(shard, err)),
            FrameStatus::Pending => FrameStatus::Pending,
        }
    }

    /// Submits one frame to the shard owning `stream_id`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] for an unopened id and
    /// [`RuntimeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(
        &self,
        stream_id: usize,
        sensor_ts_s: f64,
        cloud: PointCloud,
    ) -> Result<FrameTicket, RuntimeError> {
        let (shard, local) = self.route(stream_id)?;
        let ticket = self.shards[shard]
            .submit(local, sensor_ts_s, cloud)
            .map_err(|e| self.globalize_error(shard, e))?;
        Ok(FrameTicket {
            stream_id,
            frame_index: ticket.frame_index,
        })
    }

    /// Polls a ticket without blocking; see [`ServingRuntime::poll`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] / [`RuntimeError::UnknownTicket`].
    pub fn poll(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        let (shard, local) = self.route(ticket.stream_id)?;
        self.shards[shard]
            .poll(FrameTicket {
                stream_id: local,
                frame_index: ticket.frame_index,
            })
            .map(|status| self.globalize_status(shard, ticket.stream_id, status))
            .map_err(|e| self.globalize_error(shard, e))
    }

    /// Blocks until `ticket` resolves; see [`ServingRuntime::wait`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] / [`RuntimeError::UnknownTicket`].
    pub fn wait(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        let (shard, local) = self.route(ticket.stream_id)?;
        self.shards[shard]
            .wait(FrameTicket {
                stream_id: local,
                frame_index: ticket.frame_index,
            })
            .map(|status| self.globalize_status(shard, ticket.stream_id, status))
            .map_err(|e| self.globalize_error(shard, e))
    }

    /// Frames currently queued between stages, summed across shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(ServingRuntime::queue_depth).sum()
    }

    /// Consistent snapshots of every shard's report, already translated
    /// to service-wide stream ids. The placement lock is held across
    /// the collection so a concurrent `open_stream` cannot leave a
    /// shard report mentioning a stream the translation table misses.
    fn globalized_reports(&self) -> Vec<RuntimeReport> {
        let placements = self.placements.lock().expect("placement table poisoned");
        self.shards
            .iter()
            .enumerate()
            .map(|(k, s)| globalize_report(s.stats(), k, &local_map(&placements, k)))
            .collect()
    }

    /// One shard's live report, with stream ids and `shard` fields in
    /// service-wide terms.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownShard`] for `shard >= shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> Result<RuntimeReport, RuntimeError> {
        if shard >= self.shards.len() {
            return Err(RuntimeError::UnknownShard { shard });
        }
        let map = self.local_to_global(shard);
        Ok(globalize_report(self.shards[shard].stats(), shard, &map))
    }

    /// A live aggregate report across every shard: frame counts summed,
    /// records merged (all shards share the virtual-clock origin, so
    /// the merged timeline is coherent), stage breakdown and queue-depth
    /// series recomputed over the merged records.
    pub fn stats(&self) -> RuntimeReport {
        aggregate_reports(self.globalized_reports())
    }

    /// One stream's slice of [`ShardedRuntime::stats`] (its `shard`
    /// field names the owning replica).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] for an unopened id.
    pub fn stream_stats(&self, stream_id: usize) -> Result<StreamReport, RuntimeError> {
        let (shard, _) = self.route(stream_id)?;
        self.shard_stats(shard)?
            .streams
            .into_iter()
            .find(|s| s.stream_id == stream_id)
            .ok_or(RuntimeError::UnknownStream { stream_id })
    }

    /// A metrics registry with three layers: per-shard series labeled
    /// `hgpcn_shard="<k>"`, aggregate scalar series (no shard label)
    /// from the cross-shard report, and aggregate latency/depth
    /// histograms folded from the per-shard series via
    /// [`LogHistogram::merge`](hgpcn_telemetry::LogHistogram::merge) —
    /// the merge is exact (identical bucket layouts), so the aggregate
    /// histograms equal re-recording every shard's samples.
    pub fn metrics(&self) -> Registry {
        let reports = self.globalized_reports();
        let mut reg = Registry::new();
        for (k, report) in reports.iter().enumerate() {
            let shard = k.to_string();
            report.build_metrics_into(&mut reg, &[("hgpcn_shard", shard.as_str())]);
        }
        let shard_count = reports.len();
        aggregate_reports(reports).build_scalar_metrics_into(&mut reg, &[]);
        // The histogram families build_histogram_metrics_into emits,
        // folded shard-by-shard instead of re-recorded.
        type Family = (
            &'static str,
            &'static str,
            &'static [(&'static str, &'static str)],
        );
        const HISTOGRAM_FAMILIES: &[Family] = &[
            (
                "hgpcn_stage_service_seconds",
                "Modeled per-stage service time",
                &[("stage", "preproc")],
            ),
            (
                "hgpcn_stage_service_seconds",
                "Modeled per-stage service time",
                &[("stage", "infer")],
            ),
            (
                "hgpcn_queue_wait_seconds",
                "Modeled time queued between stages",
                &[("queue", "ingress")],
            ),
            (
                "hgpcn_queue_wait_seconds",
                "Modeled time queued between stages",
                &[("queue", "stage")],
            ),
            (
                "hgpcn_sojourn_seconds",
                "Modeled end-to-end frame sojourn",
                &[],
            ),
            (
                "hgpcn_queue_depth",
                "Modeled queue occupancy after each change",
                &[("queue", "ingress")],
            ),
            (
                "hgpcn_queue_depth",
                "Modeled queue occupancy after each change",
                &[("queue", "stage")],
            ),
        ];
        for &(name, help, labels) in HISTOGRAM_FAMILIES {
            for k in 0..shard_count {
                let shard = k.to_string();
                let mut labeled: Vec<(&str, &str)> = labels.to_vec();
                labeled.push(("hgpcn_shard", shard.as_str()));
                let from_shard = reg.histogram(name, &labeled).cloned();
                if let Some(h) = from_shard {
                    reg.histogram_merge(name, help, labels, &h);
                }
            }
        }
        reg
    }

    /// Gracefully shuts down every shard in index order, draining their
    /// backlogs, and returns the aggregate final report.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's failure; never fails today, like
    /// [`ServingRuntime::shutdown`].
    pub fn shutdown(self) -> Result<RuntimeReport, RuntimeError> {
        let ShardedRuntime {
            shards, placements, ..
        } = self;
        let placements = placements.into_inner().expect("placement table poisoned");
        let mut reports = Vec::with_capacity(shards.len());
        for (k, shard) in shards.into_iter().enumerate() {
            let report = shard.shutdown()?;
            reports.push(globalize_report(report, k, &local_map(&placements, k)));
        }
        Ok(aggregate_reports(reports))
    }
}

impl StreamService for ShardedRuntime {
    fn open_stream(&self, profile: StreamProfile) -> Result<usize, RuntimeError> {
        ShardedRuntime::open_stream(self, profile)
    }

    fn submit(
        &self,
        stream_id: usize,
        sensor_ts_s: f64,
        cloud: PointCloud,
    ) -> Result<FrameTicket, RuntimeError> {
        ShardedRuntime::submit(self, stream_id, sensor_ts_s, cloud)
    }

    fn poll(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        ShardedRuntime::poll(self, ticket)
    }

    fn wait(&self, ticket: FrameTicket) -> Result<FrameStatus, RuntimeError> {
        ShardedRuntime::wait(self, ticket)
    }

    fn stats(&self) -> RuntimeReport {
        ShardedRuntime::stats(self)
    }

    fn stream_stats(&self, stream_id: usize) -> Result<StreamReport, RuntimeError> {
        ShardedRuntime::stream_stats(self, stream_id)
    }

    fn shard_count(&self) -> usize {
        ShardedRuntime::shard_count(self)
    }

    fn shard_of(&self, stream_id: usize) -> Result<usize, RuntimeError> {
        ShardedRuntime::shard_of(self, stream_id)
    }

    fn shard_stats(&self, shard: usize) -> Result<RuntimeReport, RuntimeError> {
        ShardedRuntime::shard_stats(self, shard)
    }

    fn metrics(&self) -> Registry {
        ShardedRuntime::metrics(self)
    }

    fn shutdown(self) -> Result<RuntimeReport, RuntimeError> {
        ShardedRuntime::shutdown(self)
    }
}

/// Shard-local stream id → service-wide id for one shard: locals are
/// assigned densely in open order, so position `l` of the filtered
/// placement list is local id `l`.
fn local_map(placements: &[(usize, usize)], shard: usize) -> Vec<usize> {
    placements
        .iter()
        .enumerate()
        .filter(|&(_, &(s, _))| s == shard)
        .map(|(global, _)| global)
        .collect()
}

/// Rewrites one shard's report into service-wide stream ids and stamps
/// the owning shard, re-sorting streams and records on the new ids.
fn globalize_report(mut report: RuntimeReport, shard: usize, map: &[usize]) -> RuntimeReport {
    let g = |local: usize| map.get(local).copied().unwrap_or(local);
    for s in &mut report.streams {
        s.stream_id = g(s.stream_id);
        s.shard = shard;
    }
    report.streams.sort_by_key(|s| s.stream_id);
    for r in &mut report.records {
        r.stream_id = g(r.stream_id);
    }
    report.records.sort_by_key(|r| (r.stream_id, r.frame_index));
    report
}

/// Folds already-globalized per-shard reports into one aggregate. Every
/// shard's virtual clock starts at zero, so min-arrival/max-completion
/// over the merged records is a coherent fleet makespan, and
/// throughput/utilization follow from it with the summed worker pools.
fn aggregate_reports(reports: Vec<RuntimeReport>) -> RuntimeReport {
    assert!(!reports.is_empty(), "a sharded runtime has >= 1 shard");

    let mut streams: Vec<StreamReport> = Vec::new();
    let mut records = Vec::new();
    for report in &reports {
        streams.extend(report.streams.iter().cloned());
        records.extend(report.records.iter().cloned());
    }
    streams.sort_by_key(|s| s.stream_id);
    records.sort_by_key(|r| (r.stream_id, r.frame_index));

    let preproc_workers: usize = reports.iter().map(|r| r.preproc_workers).sum();
    let inference_workers: usize = reports.iter().map(|r| r.inference_workers).sum();

    let queue = |pick: fn(&RuntimeReport) -> QueueStats| QueueStats {
        high_water: reports
            .iter()
            .map(|r| pick(r).high_water)
            .max()
            .unwrap_or(0),
        dropped: reports.iter().map(|r| pick(r).dropped).sum(),
    };

    let batched_frames: f64 = reports
        .iter()
        .map(|r| r.batching.mean_batch_size * r.batching.batches as f64)
        .sum();
    let batches: usize = reports.iter().map(|r| r.batching.batches).sum();
    let batching = BatchingStats {
        max_batch: reports[0].batching.max_batch,
        batches,
        largest_batch: reports
            .iter()
            .map(|r| r.batching.largest_batch)
            .max()
            .unwrap_or(0),
        mean_batch_size: if batches == 0 {
            1.0
        } else {
            batched_frames / batches as f64
        },
        coalesced_frames: reports.iter().map(|r| r.batching.coalesced_frames).sum(),
    };

    let run = RunSummary::from_records(&records, preproc_workers, inference_workers);

    RuntimeReport {
        total_frames: records.len(),
        total_dropped: streams.iter().map(|s| s.dropped).sum(),
        streams,
        preproc_workers,
        inference_workers,
        ingress_queue: queue(|r| r.ingress_queue),
        stage_queue: queue(|r| r.stage_queue),
        virtual_makespan_s: run.virtual_makespan_s,
        modeled_pipelined_fps: run.modeled_pipelined_fps,
        wall_elapsed: reports
            .iter()
            .map(|r| r.wall_elapsed)
            .max()
            .unwrap_or(Duration::ZERO),
        kernel_backend: reports[0].kernel_backend,
        // Shards share one config and one network, so their resolved
        // stage backends are identical; take the first shard's. Same
        // for the preprocessing reuse policy; its hit/miss tallies sum.
        stage_backends: reports[0].stage_backends,
        preproc_reuse: reports[0].preproc_reuse,
        preproc_reuse_hits: reports.iter().map(|r| r.preproc_reuse_hits).sum(),
        preproc_reuse_misses: reports.iter().map(|r| r.preproc_reuse_misses).sum(),
        batching,
        breakdown: run.breakdown,
        utilization: run.utilization,
        ingress_depth: run.ingress_depth,
        stage_depth: run.stage_depth,
        telemetry: None,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_hash_is_a_pure_function_of_name_and_shard_count() {
        let ring = |shards: usize| {
            let mut ring = Vec::new();
            for shard in 0..shards {
                for vnode in 0..VNODES_PER_SHARD {
                    ring.push((ring_hash(format!("{shard}/{vnode}").as_bytes()), shard));
                }
            }
            ring.sort_unstable();
            ring
        };
        let lookup = |ring: &[(u64, usize)], name: &str| {
            let h = ring_hash(name.as_bytes());
            let idx = ring.partition_point(|&(pos, _)| pos < h);
            ring[idx % ring.len()].1
        };
        let r4 = ring(4);
        for name in ["lidar-0", "lidar-1", "cam-front", "radar-x"] {
            assert_eq!(lookup(&r4, name), lookup(&ring(4), name));
        }
        // With 4 shards and many names, every shard owns some names.
        let mut owners = std::collections::HashSet::new();
        for i in 0..256 {
            owners.insert(lookup(&r4, &format!("stream-{i}")));
        }
        assert_eq!(owners.len(), 4, "ring must spread names over all shards");
    }

    #[test]
    fn local_map_translates_in_open_order() {
        // Opens: g0→shard1, g1→shard0, g2→shard1, g3→shard0.
        let placements = vec![(1, 0), (0, 0), (1, 1), (0, 1)];
        assert_eq!(local_map(&placements, 0), vec![1, 3]);
        assert_eq!(local_map(&placements, 1), vec![0, 2]);
    }
}

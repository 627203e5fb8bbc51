use hgpcn_geometry::PointCloud;
use hgpcn_memsim::{DeviceProfile, Latency, OpCounts};
use hgpcn_octree::{BuildStats, Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::hw::DownsamplingUnit;
use hgpcn_sampling::{ois, SamplingKernel};

use crate::{StreamPreprocContext, SystemError};

/// The Pre-processing Engine (§V): Octree-build Unit on the CPU plus the
/// Down-sampling Unit on the FPGA.
#[derive(Clone, Debug)]
pub struct PreprocessingEngine {
    /// Octree construction parameters.
    pub octree_config: OctreeConfig,
    /// The FPGA Down-sampling Unit configuration.
    pub unit: DownsamplingUnit,
    /// The host CPU profile (prices the Octree-build Unit).
    pub cpu: DeviceProfile,
}

/// Everything the Pre-processing Engine produces for one frame.
#[derive(Debug)]
pub struct PreprocessOutput {
    /// The octree over the frame (reused by the Inference Engine's VEG).
    pub octree: Octree,
    /// The Octree-Table resident in FPGA BRAM.
    pub table: OctreeTable,
    /// The down-sampled frame (the PCN input).
    pub sampled: PointCloud,
    /// SFC addresses of the sampled points (the Sampled-Point-Table).
    pub sampled_sfc: Vec<usize>,
    /// Operations of the CPU build + reorganization pass.
    pub build_counts: OpCounts,
    /// Operations of the FPGA down-sampling pass.
    pub sample_counts: OpCounts,
    /// Modeled latency of the CPU build.
    pub build_latency: Latency,
    /// Modeled latency of the MMIO Octree-Table transfer.
    pub transfer_latency: Latency,
    /// Modeled latency of the FPGA down-sampling.
    pub sample_latency: Latency,
    /// `true` when the frame landed on the cached root grid of a
    /// stream-scoped context ([`PreprocessingEngine::run_with_context`]);
    /// always `false` on the stateless entry points. The host build and
    /// its results are the same either way — this flag records which cost
    /// model priced `build_counts`/`build_latency`.
    pub reused: bool,
}

impl PreprocessOutput {
    /// Total pre-processing latency (build → transfer → sample).
    pub fn total_latency(&self) -> Latency {
        self.build_latency + self.transfer_latency + self.sample_latency
    }

    /// Total operations of the phase.
    pub fn total_counts(&self) -> OpCounts {
        self.build_counts + self.sample_counts
    }

    /// Fraction of the phase spent building the octree — the Fig. 11
    /// overhead metric (0.25–0.8 in the paper when everything is on CPU).
    pub fn build_fraction(&self) -> f64 {
        self.build_latency.ns() / self.total_latency().ns()
    }
}

/// Converts the octree builder's tally into the common operation currency,
/// priced as the paper's **single-pass** construction (§V-A): one point
/// read and one reorganized write per point, a bit-interleaved m-code
/// computation (two arithmetic ops per point), one amortized
/// bucket-insertion step per point, and one table write per node created.
///
/// [`BuildStats`] records what the host implementation did, which has the
/// same shape — one table-lookup encode per point and a radix sort that
/// compares nothing; this function prices the construction the way the
/// paper's Octree-build Unit performs it.
pub fn build_counts(stats: &BuildStats, _depth: u8) -> OpCounts {
    OpCounts {
        mem_reads: stats.point_reads as u64,
        mem_writes: stats.point_writes as u64,
        bytes_read: stats.point_reads as u64 * 12,
        bytes_written: stats.point_writes as u64 * 12,
        // Encode + bucket arithmetic per point (cache-friendly appends,
        // not pointer chases), plus one table write per node.
        comparisons: stats.code_computations as u64 * 3,
        table_lookups: stats.nodes_created as u64,
        ..OpCounts::default()
    }
}

/// Prices a temporal-coherence **warm** rebuild as a §V-A delta pass.
///
/// The unit still streams the whole frame once — `n` point reads and one
/// fused encode-and-diff op per point against the cached previous codes —
/// but only the `dirty_points` whose m-code moved pay the cold per-point
/// work (bucket arithmetic, 3 ops) and get rewritten in the reorganized
/// layout; unchanged runs stay in place. Table writes are incremental:
/// only the `nodes_dirty` rows whose content changed are re-emitted,
/// while clean rows persist from the previous frame (the Octree-Table is
/// BRAM-resident across a stream's frames). On an identical frame this
/// is `n` compute ops, zero point writes and zero table writes versus
/// the cold pass's `3n`, `n` and one write per node — the Fig. 11
/// octree-build share priced down by temporal coherence.
///
/// Like [`build_counts`], this prices what the paper's hardware would do;
/// the host encodes and sorts the whole frame whether or not it is priced
/// warm, and [`BuildStats`] keeps that too (`code_computations`,
/// `point_writes`).
pub fn warm_build_counts(stats: &BuildStats) -> OpCounts {
    let n = stats.points as u64;
    let dirty = stats.dirty_points as u64;
    OpCounts {
        mem_reads: n,
        mem_writes: dirty,
        bytes_read: n * 12,
        bytes_written: dirty * 12,
        comparisons: n + dirty * 3,
        table_lookups: stats.nodes_dirty as u64,
        ..OpCounts::default()
    }
}

impl PreprocessingEngine {
    /// The paper's prototype: depth-10 octrees at hardware-table
    /// granularity (leaves of up to 24 points — the Octree-Table for a
    /// 10^6-point frame then costs ~10 Mb of BRAM, matching §VII-C),
    /// 8 Sampling Modules at 200 MHz, Xeon W-2255 host.
    pub fn prototype() -> PreprocessingEngine {
        PreprocessingEngine {
            octree_config: OctreeConfig::new().max_depth(10).leaf_capacity(24),
            unit: DownsamplingUnit::prototype(),
            cpu: DeviceProfile::xeon_w2255(),
        }
    }

    /// Runs the engine on one raw frame, down-sampling it to `target`
    /// points with OIS in the FPGA Down-sampling Unit.
    ///
    /// # Errors
    ///
    /// Propagates octree and sampling failures.
    pub fn run(
        &self,
        frame: &PointCloud,
        target: usize,
        seed: u64,
    ) -> Result<PreprocessOutput, SystemError> {
        self.run_using(frame, target, seed, SamplingKernel::default())
    }

    /// [`PreprocessingEngine::run`] with an explicit scoreboard-scan
    /// backend instead of the default. All backends pick bit-identical
    /// samples with identical modeled counts, so this is a host-speed
    /// knob only — the runtime uses it to honor a per-run
    /// `StageBackends` selection.
    ///
    /// # Errors
    ///
    /// As [`PreprocessingEngine::run`].
    pub fn run_using(
        &self,
        frame: &PointCloud,
        target: usize,
        seed: u64,
        sampling: SamplingKernel,
    ) -> Result<PreprocessOutput, SystemError> {
        // Stateless = one frame through a throwaway context: a fresh
        // context is always cold, so this is the anchor pricing.
        let mut ctx = StreamPreprocContext::new();
        self.run_frame(frame, target, seed, None, sampling, &mut ctx)
    }

    /// Runs OIS entirely in software on the host CPU (the "OIS-on-CPU"
    /// configuration of Figs. 10–12).
    ///
    /// # Errors
    ///
    /// Propagates octree and sampling failures.
    pub fn run_on_cpu(
        &self,
        frame: &PointCloud,
        target: usize,
        seed: u64,
    ) -> Result<PreprocessOutput, SystemError> {
        let mut ctx = StreamPreprocContext::new();
        self.run_frame(
            frame,
            target,
            seed,
            Some(self.cpu),
            SamplingKernel::default(),
            &mut ctx,
        )
    }

    /// Runs the engine on one frame of a stream through that stream's
    /// [`StreamPreprocContext`]: the octree build and OIS run through the
    /// context's recycled buffers (arena, code arrays, scoreboard,
    /// host-memory image), the frame is diffed against the cached previous
    /// one, and the context's hit/miss tally advances.
    ///
    /// Outputs are **bit-identical** to [`PreprocessingEngine::run_using`]
    /// on the same frame; when the frame's root AABB matches the cached
    /// grid, `build_counts`/`build_latency` are priced by
    /// [`warm_build_counts`] (the §V-A delta pass) and
    /// [`PreprocessOutput::reused`] is set. A frame whose AABB drifted is
    /// priced as a full build and re-primes the cache.
    ///
    /// Call [`StreamPreprocContext::recycle`] with the output once done
    /// to also reclaim the octree buffers for the next frame.
    ///
    /// # Errors
    ///
    /// As [`PreprocessingEngine::run`]. A failed frame never advances the
    /// hit/miss tally; the cache keeps whatever the last successful build
    /// left (which is always safe — the cache feeds pricing, not
    /// results).
    pub fn run_with_context(
        &self,
        frame: &PointCloud,
        target: usize,
        seed: u64,
        sampling: SamplingKernel,
        ctx: &mut StreamPreprocContext,
    ) -> Result<PreprocessOutput, SystemError> {
        self.run_frame(frame, target, seed, None, sampling, ctx)
    }

    /// The one body that prices a pre-processing frame. `sample_device`
    /// is `Some` only for the OIS-on-CPU configuration: sampling is then
    /// priced on that device and nothing crosses the MMIO link.
    fn run_frame(
        &self,
        frame: &PointCloud,
        target: usize,
        seed: u64,
        sample_device: Option<DeviceProfile>,
        sampling: SamplingKernel,
        ctx: &mut StreamPreprocContext,
    ) -> Result<PreprocessOutput, SystemError> {
        // CPU: octree build through the context's scratch, priced as the
        // delta pass on a grid hit.
        let octree = Octree::build_with_scratch(frame, self.octree_config, &mut ctx.octree)?;
        let stats = octree.build_stats();
        let b_counts = if stats.reused {
            warm_build_counts(&stats)
        } else {
            build_counts(&stats, octree.depth())
        };
        let build_latency = self.cpu.latency(&b_counts);

        // MMIO: ship the Octree-Table to the FPGA (skipped on-CPU). On a
        // grid hit only the dirty rows cross the link — the table is
        // BRAM-resident across a stream's frames, so clean rows from the
        // previous frame stay put.
        let table = OctreeTable::from_octree(&octree);
        let transfer_latency = if sample_device.is_some() {
            Latency::ZERO
        } else {
            let mut transfer_bytes = table.size_bits() as u64 / 8;
            if stats.reused && stats.nodes_created > 0 {
                transfer_bytes =
                    transfer_bytes * stats.nodes_dirty as u64 / stats.nodes_created as u64;
            }
            self.unit.device_profile().transfer(transfer_bytes)
        };

        // Down-sampling via OIS, through the context's buffers.
        ctx.mem.reload_cloud(octree.points());
        let result = ois::sample_with_scratch(
            &octree,
            &table,
            &mut ctx.mem,
            target,
            seed,
            sampling,
            &mut ctx.ois,
        )?;
        let sample_latency = match sample_device {
            Some(dev) => dev.latency(&result.counts),
            None => self.unit.latency(&result.counts),
        };

        let sampled = octree.points().gather(&result.indices);
        if stats.reused {
            ctx.hits += 1;
        } else {
            ctx.misses += 1;
        }
        Ok(PreprocessOutput {
            table,
            sampled,
            sampled_sfc: result.indices,
            build_counts: b_counts,
            sample_counts: result.counts,
            build_latency,
            transfer_latency,
            sample_latency,
            reused: stats.reused,
            octree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;

    fn frame(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract() * 8.0,
                    (f * 0.414).fract() * 8.0,
                    (f * 0.732).fract() * 8.0,
                )
            })
            .collect()
    }

    #[test]
    fn produces_target_sized_sample() {
        let engine = PreprocessingEngine::prototype();
        let out = engine.run(&frame(5000), 512, 3).unwrap();
        assert_eq!(out.sampled.len(), 512);
        assert_eq!(out.sampled_sfc.len(), 512);
        assert!(out.total_latency().ns() > 0.0);
    }

    #[test]
    fn hardware_sampling_beats_cpu_sampling() {
        // The Fig. 12 claim: the FPGA Down-sampling Unit accelerates the
        // sampling step over its CPU implementation.
        let engine = PreprocessingEngine::prototype();
        let hw = engine.run(&frame(20_000), 1024, 3).unwrap();
        let sw = engine.run_on_cpu(&frame(20_000), 1024, 3).unwrap();
        assert_eq!(hw.sampled_sfc, sw.sampled_sfc, "same algorithm, same picks");
        assert!(hw.sample_latency < sw.sample_latency);
    }

    #[test]
    fn build_dominates_ois_on_cpu() {
        // Fig. 11: octree build is 0.25-0.8 of the software OIS latency.
        let engine = PreprocessingEngine::prototype();
        let out = engine.run_on_cpu(&frame(50_000), 1024, 3).unwrap();
        let frac = out.build_fraction();
        assert!(frac > 0.25, "build fraction {frac} too low");
    }

    #[test]
    fn sampling_reads_exactly_target_points() {
        let engine = PreprocessingEngine::prototype();
        let out = engine.run(&frame(8000), 256, 1).unwrap();
        assert_eq!(out.sample_counts.mem_reads, 256);
    }

    fn drifted_frame(n: usize, shift: f32) -> PointCloud {
        let mut cloud = PointCloud::new();
        cloud.push(hgpcn_geometry::Point3::ORIGIN);
        cloud.push(hgpcn_geometry::Point3::splat(8.0));
        for i in 0..n {
            let f = i as f32;
            cloud.push(Point3::new(
                ((f * 0.618 + shift) % 1.0).abs() * 7.0 + 0.5,
                ((f * 0.414 + shift * 0.3) % 1.0).abs() * 7.0 + 0.5,
                ((f * 0.732 + shift * 1.7) % 1.0).abs() * 7.0 + 0.5,
            ))
        }
        cloud
    }

    #[test]
    fn context_outputs_are_bit_identical_to_stateless() {
        let engine = PreprocessingEngine::prototype();
        let mut ctx = StreamPreprocContext::new();
        let kernel = hgpcn_sampling::SamplingKernel::Batched;
        for (i, shift) in [0.0f32, 0.1, 0.2, 0.2].iter().enumerate() {
            let cloud = drifted_frame(3000, *shift);
            let seed = 7 + i as u64;
            let stateless = engine.run_using(&cloud, 128, seed, kernel).unwrap();
            let ctxed = engine
                .run_with_context(&cloud, 128, seed, kernel, &mut ctx)
                .unwrap();
            assert_eq!(stateless.sampled_sfc, ctxed.sampled_sfc, "frame {i}");
            assert_eq!(stateless.sampled, ctxed.sampled, "frame {i}");
            assert_eq!(stateless.sample_counts, ctxed.sample_counts, "frame {i}");
            assert_eq!(
                stateless.octree.permutation(),
                ctxed.octree.permutation(),
                "frame {i}"
            );
            assert_eq!(ctxed.reused, i > 0, "frame {i}: anchored AABB is stable");
            assert!(!stateless.reused);
            ctx.recycle(ctxed);
        }
        assert_eq!(ctx.hits(), 3);
        assert_eq!(ctx.misses(), 1);
    }

    #[test]
    fn warm_frames_are_priced_as_a_delta_pass() {
        let engine = PreprocessingEngine::prototype();
        let mut ctx = StreamPreprocContext::new();
        let kernel = hgpcn_sampling::SamplingKernel::Batched;
        let cloud = drifted_frame(5000, 0.0);
        let cold = engine
            .run_with_context(&cloud, 256, 3, kernel, &mut ctx)
            .unwrap();
        assert!(!cold.reused);
        ctx.recycle(cold);
        let warm = engine
            .run_with_context(&cloud, 256, 3, kernel, &mut ctx)
            .unwrap();
        assert!(warm.reused);
        let stateless = engine.run_using(&cloud, 256, 3, kernel).unwrap();
        // Identical frame: zero dirty points, so the delta pass reads the
        // frame once, writes nothing, and spends a third of the cold
        // compute ops.
        assert_eq!(warm.build_counts.mem_writes, 0);
        assert_eq!(
            warm.build_counts.comparisons * 3,
            stateless.build_counts.comparisons
        );
        assert!(warm.build_latency < stateless.build_latency);
        assert!(warm.total_latency() < stateless.total_latency());
        // The octree build stats record what actually ran.
        assert!(warm.octree.build_stats().reused);
        assert_eq!(warm.octree.build_stats().dirty_points, 0);
    }

    #[test]
    fn context_falls_back_cold_on_aabb_drift() {
        let engine = PreprocessingEngine::prototype();
        let mut ctx = StreamPreprocContext::new();
        let kernel = hgpcn_sampling::SamplingKernel::Scalar;
        let a = drifted_frame(2000, 0.0);
        let mut b = drifted_frame(2000, 0.0);
        b.push(Point3::splat(100.0)); // grow the AABB
        let _ = engine
            .run_with_context(&a, 64, 1, kernel, &mut ctx)
            .unwrap();
        let out = engine
            .run_with_context(&b, 64, 1, kernel, &mut ctx)
            .unwrap();
        assert!(!out.reused, "AABB drift must rebuild cold");
        let stateless = engine.run_using(&b, 64, 1, kernel).unwrap();
        assert_eq!(out.sampled_sfc, stateless.sampled_sfc);
        assert_eq!(out.build_counts, stateless.build_counts);
        assert_eq!(ctx.hits(), 0);
        assert_eq!(ctx.misses(), 2);
    }

    #[test]
    fn propagates_octree_errors() {
        let engine = PreprocessingEngine::prototype();
        assert!(matches!(
            engine.run(&PointCloud::new(), 10, 0),
            Err(SystemError::Octree(_))
        ));
    }
}

//! Sensor stream sources feeding the runtime.
//!
//! A [`FrameSource`] yields timestamped point clouds; [`StreamSpec`]
//! names it and is what a batch run admits frames from. Two sources
//! ship in-tree: [`KittiSource`], backed by the LiDAR simulator in
//! `hgpcn-datasets`, and [`SyntheticSource`], an arithmetic generator
//! cheap enough for tests and examples.

use hgpcn_datasets::kitti::{KittiConfig, KittiStream};
use hgpcn_geometry::{Point3, PointCloud};

/// One frame traveling through the runtime.
#[derive(Clone, Debug)]
pub struct TimedFrame {
    /// Index of the owning stream in the submitted stream list.
    pub stream_id: usize,
    /// Per-stream frame sequence number, starting at zero.
    pub frame_index: usize,
    /// Sensor timestamp in seconds since stream start.
    pub sensor_ts_s: f64,
    /// The captured point cloud.
    pub cloud: PointCloud,
}

/// A producer of timestamped frames.
pub trait FrameSource: Send {
    /// The next frame, or `None` when the stream ends.
    fn next_frame(&mut self) -> Option<(f64, PointCloud)>;

    /// The sensor's nominal generation rate in frames per second.
    fn nominal_fps(&self) -> f64;
}

/// A named stream a batch run serves.
pub struct StreamSpec {
    /// Human-readable stream name (used in reports).
    pub name: String,
    /// The frame producer.
    pub source: Box<dyn FrameSource>,
}

impl std::fmt::Debug for StreamSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl StreamSpec {
    /// A named stream over `source`.
    pub fn new(name: impl Into<String>, source: impl FrameSource + 'static) -> StreamSpec {
        StreamSpec {
            name: name.into(),
            source: Box::new(source),
        }
    }

    /// This spec's serving-session profile: the source-independent
    /// metadata (name, nominal rate) a
    /// [`ServingRuntime`](crate::ServingRuntime) needs to open the
    /// equivalent stream — what [`Runtime::run`](crate::Runtime::run)
    /// opens each stream with.
    pub fn profile(&self) -> StreamProfile {
        StreamProfile {
            name: self.name.clone(),
            nominal_fps: self.source.nominal_fps(),
        }
    }
}

/// Metadata for opening a stream on a live
/// [`ServingRuntime`](crate::ServingRuntime).
///
/// A serving session has no [`FrameSource`] — clients push frames — so
/// this is a [`StreamSpec`] minus the source: the name reports carry
/// and the sensor's nominal rate (report metadata only; the runtime
/// never paces clients).
#[derive(Clone, Debug)]
pub struct StreamProfile {
    /// Human-readable stream name (used in reports).
    pub name: String,
    /// The sensor's nominal generation rate in frames per second,
    /// reported as [`StreamReport::sensor_fps`](crate::StreamReport::sensor_fps).
    /// `0.0` (the default) means unspecified.
    pub nominal_fps: f64,
}

impl StreamProfile {
    /// A profile with an unspecified sensor rate.
    pub fn new(name: impl Into<String>) -> StreamProfile {
        StreamProfile {
            name: name.into(),
            nominal_fps: 0.0,
        }
    }

    /// Sets the nominal sensor rate in frames per second.
    pub fn nominal_fps(mut self, fps: f64) -> StreamProfile {
        self.nominal_fps = fps;
        self
    }
}

/// A [`FrameSource`] over the KITTI-like LiDAR simulator, bounded to a
/// frame count.
#[derive(Debug)]
pub struct KittiSource {
    stream: KittiStream,
    remaining: usize,
    fps: f64,
}

impl KittiSource {
    /// Streams `frames` frames from a simulated drive.
    pub fn new(config: KittiConfig, seed: u64, frames: usize) -> KittiSource {
        let fps = config.spin_hz;
        KittiSource {
            stream: KittiStream::new(config, seed),
            remaining: frames,
            fps,
        }
    }
}

impl FrameSource for KittiSource {
    fn next_frame(&mut self) -> Option<(f64, PointCloud)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.stream.next().map(|f| (f.timestamp_s, f.cloud))
    }

    fn nominal_fps(&self) -> f64 {
        self.fps
    }
}

/// A deterministic arithmetic frame generator: `points` quasi-random
/// points in the unit cube per frame, at a fixed rate. Frames differ per
/// index (the generator folds the frame number into the low-discrepancy
/// sequence) but are exactly reproducible — ideal for determinism tests
/// and examples where the LiDAR simulator would dominate runtime.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    points: usize,
    fps: f64,
    remaining: usize,
    index: usize,
    salt: u64,
}

impl SyntheticSource {
    /// `frames` frames of `points` points at `fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics unless `points >= 1` and `fps > 0`.
    pub fn new(points: usize, fps: f64, frames: usize, salt: u64) -> SyntheticSource {
        assert!(points >= 1, "frames need at least one point");
        assert!(fps > 0.0, "sensor rate must be positive");
        SyntheticSource {
            points,
            fps,
            remaining: frames,
            index: 0,
            salt,
        }
    }

    /// The cloud of frame `index`, independent of iteration state.
    pub fn frame_cloud(&self, index: usize) -> PointCloud {
        // A well-mixed 20-bit offset per (salt, frame): small enough to
        // stay inside f32's exact-integer range when added to the point
        // index, so the golden-ratio fractions below keep full precision.
        let base = (self.salt ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            >> 44;
        (0..self.points)
            .map(|i| {
                let f = (i as u64 + base) as f32;
                Point3::new(
                    (f * 0.618_034).fract(),
                    (f * 0.414_214).fract(),
                    (f * 0.732_051).fract(),
                )
            })
            .collect()
    }
}

impl FrameSource for SyntheticSource {
    fn next_frame(&mut self) -> Option<(f64, PointCloud)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let index = self.index;
        self.index += 1;
        let ts = index as f64 / self.fps;
        Some((ts, self.frame_cloud(index)))
    }

    fn nominal_fps(&self) -> f64 {
        self.fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_bounded() {
        let mut a = SyntheticSource::new(100, 10.0, 3, 7);
        let mut b = SyntheticSource::new(100, 10.0, 3, 7);
        for _ in 0..3 {
            let (ta, ca) = a.next_frame().unwrap();
            let (tb, cb) = b.next_frame().unwrap();
            assert_eq!(ta, tb);
            assert_eq!(ca, cb);
        }
        assert!(a.next_frame().is_none());
    }

    #[test]
    fn synthetic_salts_differ() {
        let mut a = SyntheticSource::new(50, 10.0, 1, 1);
        let mut b = SyntheticSource::new(50, 10.0, 1, 2);
        assert_ne!(a.next_frame().unwrap().1, b.next_frame().unwrap().1);
    }

    #[test]
    fn synthetic_timestamps_follow_rate() {
        let mut s = SyntheticSource::new(10, 20.0, 4, 0);
        let ts: Vec<f64> = std::iter::from_fn(|| s.next_frame().map(|(t, _)| t)).collect();
        assert_eq!(ts.len(), 4);
        for (i, t) in ts.iter().enumerate() {
            assert!((t - i as f64 * 0.05).abs() < 1e-12, "ts[{i}] = {t}");
        }
    }

    #[test]
    fn kitti_source_bounded() {
        let cfg = KittiConfig {
            beams: 8,
            azimuth_steps: 60,
            ..KittiConfig::standard()
        };
        let mut src = KittiSource::new(cfg, 3, 2);
        assert!(src.next_frame().is_some());
        assert!(src.next_frame().is_some());
        assert!(src.next_frame().is_none());
        assert_eq!(src.nominal_fps(), 10.0);
    }
}

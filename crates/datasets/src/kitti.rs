//! KITTI-like outdoor LiDAR frames from a simulated rotating scanner.
//!
//! The generator ray-casts a spinning multi-beam LiDAR into a street scene
//! (ground plane, buildings, parked and moving cars). Frames therefore
//! inherit the properties the paper leans on: they are **large**, their
//! point count **varies between frames** (different objects, different
//! reflectivity dropout), and each frame carries a **generation timestamp**
//! so the §VII-E real-time experiment can compare processing rate against
//! the sensor rate (KITTI's Velodyne spins at 10 Hz, i.e. under the paper's
//! 16 FPS bound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgpcn_geometry::{Aabb, Point3, PointCloud};

/// Scanner configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KittiConfig {
    /// Number of vertical beams (Velodyne HDL-64E: 64).
    pub beams: usize,
    /// Azimuth steps per revolution.
    pub azimuth_steps: usize,
    /// Maximum range in meters.
    pub max_range: f32,
    /// Probability that a return is dropped (low reflectivity).
    pub dropout: f64,
    /// Sensor revolutions per second (KITTI: 10 Hz).
    pub spin_hz: f64,
}

impl KittiConfig {
    /// A medium-resolution scanner (~60 k returns/frame): fast enough for
    /// tests and the executed experiments.
    pub fn standard() -> KittiConfig {
        KittiConfig {
            beams: 64,
            azimuth_steps: 1200,
            max_range: 80.0,
            dropout: 0.08,
            spin_hz: 10.0,
        }
    }
}

impl Default for KittiConfig {
    fn default() -> Self {
        KittiConfig::standard()
    }
}

/// One timestamped LiDAR frame.
#[derive(Clone, Debug)]
pub struct KittiFrame {
    /// Frame index in the stream.
    pub index: usize,
    /// Sensor timestamp in seconds since stream start.
    pub timestamp_s: f64,
    /// The captured point cloud (sensor frame: x forward, y left, z up).
    pub cloud: PointCloud,
}

/// A street scene: ground plane plus boxes for buildings and cars.
#[derive(Clone, Debug)]
struct Scene {
    boxes: Vec<Aabb>,
    car_velocities: Vec<Point3>, // zero for static boxes
}

impl Scene {
    fn generate(rng: &mut StdRng) -> Scene {
        let mut boxes = Vec::new();
        let mut vels = Vec::new();
        // Buildings lining both sides of the road.
        for side in [-1.0f32, 1.0] {
            let mut x = -60.0f32;
            while x < 60.0 {
                let w: f32 = rng.gen_range(8.0..18.0);
                let d: f32 = rng.gen_range(6.0..14.0);
                let h: f32 = rng.gen_range(4.0..15.0);
                let y0 = side * rng.gen_range(9.0..14.0);
                let (ymin, ymax) = if side < 0.0 {
                    (y0 - d, y0)
                } else {
                    (y0, y0 + d)
                };
                boxes.push(Aabb::new(
                    Point3::new(x, ymin, 0.0),
                    Point3::new(x + w, ymax, h),
                ));
                vels.push(Point3::ORIGIN);
                x += w + rng.gen_range(2.0..8.0);
            }
        }
        // Cars on the road: a varying number per scene.
        let cars = rng.gen_range(4..14);
        for _ in 0..cars {
            let cx: f32 = rng.gen_range(-50.0..50.0);
            let lane: f32 = rng.gen_range(-6.0..6.0);
            let l: f32 = rng.gen_range(3.8..5.2);
            let w: f32 = rng.gen_range(1.6..2.0);
            let h: f32 = rng.gen_range(1.3..1.8);
            boxes.push(Aabb::new(
                Point3::new(cx, lane - w / 2.0, 0.0),
                Point3::new(cx + l, lane + w / 2.0, h),
            ));
            let speed: f32 = if rng.gen_bool(0.5) {
                rng.gen_range(5.0..15.0)
            } else {
                0.0
            };
            vels.push(Point3::new(
                speed * if lane > 0.0 { -1.0 } else { 1.0 },
                0.0,
                0.0,
            ));
        }
        Scene {
            boxes,
            car_velocities: vels,
        }
    }

    fn advanced(&self, dt: f32) -> Scene {
        let boxes = self
            .boxes
            .iter()
            .zip(&self.car_velocities)
            .map(|(b, v)| Aabb::new(b.min() + *v * dt, b.max() + *v * dt))
            .collect();
        Scene {
            boxes,
            car_velocities: self.car_velocities.clone(),
        }
    }
}

/// Slab-method ray/AABB intersection; returns the entry distance if the ray
/// hits within `(1e-3, t_max)`.
fn ray_box(origin: Point3, dir: Point3, b: &Aabb, t_max: f32) -> Option<f32> {
    let mut t0 = 1e-3f32;
    let mut t1 = t_max;
    for axis in 0..3 {
        let d = dir[axis];
        let (lo, hi) = (b.min()[axis], b.max()[axis]);
        if d.abs() < 1e-9 {
            if origin[axis] < lo || origin[axis] > hi {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d;
        let (mut ta, mut tb) = ((lo - origin[axis]) * inv, (hi - origin[axis]) * inv);
        if ta > tb {
            std::mem::swap(&mut ta, &mut tb);
        }
        t0 = t0.max(ta);
        t1 = t1.min(tb);
        if t0 > t1 {
            return None;
        }
    }
    Some(t0)
}

fn cast_frame(scene: &Scene, config: &KittiConfig, rng: &mut StdRng) -> PointCloud {
    let sensor = Point3::new(0.0, 0.0, 1.73); // HDL-64E mounting height
    let mut cloud = PointCloud::new();
    // Velodyne HDL-64E vertical field of view: +2° .. -24.8°.
    let (fov_top, fov_bottom) = (2.0f32.to_radians(), (-24.8f32).to_radians());
    for a in 0..config.azimuth_steps {
        let azimuth = a as f32 / config.azimuth_steps as f32 * std::f32::consts::TAU;
        let (sin_a, cos_a) = azimuth.sin_cos();
        for b in 0..config.beams {
            let pitch =
                fov_top + (fov_bottom - fov_top) * (b as f32 / (config.beams - 1).max(1) as f32);
            let (sin_p, cos_p) = pitch.sin_cos();
            let dir = Point3::new(cos_p * cos_a, cos_p * sin_a, sin_p);
            // Closest hit among ground plane and scene boxes.
            let mut t_hit = f32::INFINITY;
            if dir.z < -1e-6 {
                let t_ground = (0.0 - sensor.z) / dir.z;
                if t_ground > 1e-3 && t_ground < config.max_range {
                    t_hit = t_ground;
                }
            }
            for bx in &scene.boxes {
                if let Some(t) = ray_box(sensor, dir, bx, t_hit.min(config.max_range)) {
                    t_hit = t_hit.min(t);
                }
            }
            if t_hit.is_finite() && t_hit <= config.max_range && !rng.gen_bool(config.dropout) {
                let hit = sensor + dir * t_hit;
                // Small range noise (±2 cm).
                let noise: f32 = rng.gen_range(-0.02..0.02);
                cloud.push(hit + dir * noise);
            }
        }
    }
    cloud
}

/// Generates one frame (convenience wrapper over a one-frame stream).
pub fn generate_frame(config: KittiConfig, seed: u64) -> PointCloud {
    let mut stream = KittiStream::new(config, seed);
    stream.next().expect("stream is infinite").cloud
}

/// An infinite stream of timestamped frames from a drive through a scene.
///
/// # Examples
///
/// ```
/// use hgpcn_datasets::kitti::{KittiConfig, KittiStream};
///
/// let mut cfg = KittiConfig::standard();
/// cfg.beams = 8;
/// cfg.azimuth_steps = 60;
/// let frames: Vec<_> = KittiStream::new(cfg, 1).take(3).collect();
/// assert!(frames[1].timestamp_s > frames[0].timestamp_s);
/// assert_ne!(frames[0].cloud.len(), 0);
/// ```
#[derive(Debug)]
pub struct KittiStream {
    config: KittiConfig,
    rng: StdRng,
    scene: Scene,
    index: usize,
    time_s: f64,
}

impl KittiStream {
    /// Creates a stream with a freshly generated scene.
    pub fn new(config: KittiConfig, seed: u64) -> KittiStream {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        let scene = Scene::generate(&mut rng);
        KittiStream {
            config,
            rng,
            scene,
            index: 0,
            time_s: 0.0,
        }
    }

    /// The nominal sensor frame interval in seconds.
    pub fn frame_interval_s(&self) -> f64 {
        1.0 / self.config.spin_hz
    }
}

impl Iterator for KittiStream {
    type Item = KittiFrame;

    fn next(&mut self) -> Option<KittiFrame> {
        let cloud = cast_frame(&self.scene, &self.config, &mut self.rng);
        let frame = KittiFrame {
            index: self.index,
            timestamp_s: self.time_s,
            cloud,
        };
        // Advance the world and the clock (±3% spin jitter).
        let dt = self.frame_interval_s() * (1.0 + self.rng.gen_range(-0.03..0.03));
        self.scene = self.scene.advanced(dt as f32);
        self.time_s += dt;
        self.index += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KittiConfig {
        KittiConfig {
            beams: 16,
            azimuth_steps: 180,
            max_range: 80.0,
            dropout: 0.05,
            spin_hz: 10.0,
        }
    }

    #[test]
    fn frames_are_nonempty_and_finite() {
        let f = generate_frame(tiny(), 3);
        assert!(f.len() > 500, "expected many returns, got {}", f.len());
        assert!(f.validate_finite().is_ok());
    }

    #[test]
    fn frame_sizes_vary_across_stream() {
        let sizes: Vec<usize> = KittiStream::new(tiny(), 5)
            .take(5)
            .map(|f| f.cloud.len())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "frame sizes should vary: {sizes:?}");
    }

    #[test]
    fn timestamps_advance_at_about_sensor_rate() {
        let frames: Vec<_> = KittiStream::new(tiny(), 9).take(10).collect();
        for w in frames.windows(2) {
            let dt = w[1].timestamp_s - w[0].timestamp_s;
            assert!(dt > 0.09 && dt < 0.11, "dt {dt} outside 10 Hz ± 3%");
        }
    }

    #[test]
    fn returns_are_within_range() {
        let sensor = Point3::new(0.0, 0.0, 1.73);
        let f = generate_frame(tiny(), 11);
        for p in f.iter() {
            assert!(p.distance(sensor) <= 80.5);
            assert!(p.z >= -0.2, "no returns below ground, got {p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_frame(tiny(), 21);
        let b = generate_frame(tiny(), 21);
        assert_eq!(a, b);
    }

    #[test]
    fn ray_box_hits_and_misses() {
        let b = Aabb::new(Point3::new(5.0, -1.0, 0.0), Point3::new(7.0, 1.0, 2.0));
        let hit = ray_box(
            Point3::new(0.0, 0.0, 1.0),
            Point3::new(1.0, 0.0, 0.0),
            &b,
            100.0,
        );
        assert!((hit.unwrap() - 5.0).abs() < 1e-5);
        let miss = ray_box(
            Point3::new(0.0, 5.0, 1.0),
            Point3::new(1.0, 0.0, 0.0),
            &b,
            100.0,
        );
        assert!(miss.is_none());
    }
}

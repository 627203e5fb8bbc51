//! A drifting scene: rigid objects translating through a fixed world box.
//!
//! This is the frame generator the stream-scoped preprocessing contexts
//! are measured against. Consecutive frames of one LiDAR stream overlap
//! heavily — objects move, the world does not — so the scene keeps its
//! root AABB **bit-stable** across frames (a static shell of boundary
//! returns pins it) while every object's points translate between
//! frames. That is exactly the shape the §V-A temporal-coherence delta
//! pricing rewards: same root grid, small dirty set.
//!
//! Unlike [`kitti::FrameStream`](crate::kitti), frames here are a pure
//! function of `(scene, frame index)`: any frame can be generated in any
//! order, repeatedly, bit-identically — which is what determinism tests
//! and open-loop load harnesses need. This generator is the first step
//! toward the scenario engine (parked in ROADMAP): dynamic scenes as a
//! first-class, reproducible test axis.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgpcn_geometry::{Aabb, Point3, PointCloud};

use crate::shapes;

/// Shape of a [`DriftingScene`]: world size, population, and motion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftingSceneConfig {
    /// Side length of the cubic world `[0, extent)^3`. The scene's AABB
    /// is exactly this cube, every frame.
    pub extent: f32,
    /// Number of moving objects.
    pub objects: usize,
    /// Surface points sampled per object (fixed in the object's local
    /// frame, so an object is rigid across frames).
    pub points_per_object: usize,
    /// Static world-shell points (floor returns plus the box corners)
    /// present identically in every frame. At least 8 (the corners).
    pub shell_points: usize,
    /// Virtual seconds between consecutive frames (object displacement
    /// per frame is `velocity * frame_dt`).
    pub frame_dt: f32,
}

impl Default for DriftingSceneConfig {
    fn default() -> DriftingSceneConfig {
        DriftingSceneConfig {
            extent: 24.0,
            objects: 6,
            points_per_object: 600,
            shell_points: 512,
            frame_dt: 1.0 / 10.0,
        }
    }
}

/// One rigid object: a fixed local point set, a home position, and a
/// velocity. Its world position at frame `k` bounces elastically inside
/// the margin box, so the object never touches the world boundary (the
/// shell alone decides the AABB).
#[derive(Clone, Debug)]
struct DriftingObject {
    local: Vec<Point3>,
    /// Center clearance: local points satisfy `|p| <= reach`.
    reach: f32,
    home: Point3,
    velocity: Point3,
}

/// A deterministic dynamic scene: rigid objects translating through a
/// fixed world box whose root AABB stays bit-stable across frames (a
/// static shell of boundary returns pins it) — the temporally coherent
/// shape the stream-scoped preprocessing contexts are measured against.
/// Every frame is a pure function of `(scene, frame index)`.
///
/// ```
/// use hgpcn_datasets::{DriftingScene, DriftingSceneConfig};
///
/// let scene = DriftingScene::new(DriftingSceneConfig::default(), 7);
/// let (a, b) = (scene.frame(0), scene.frame(1));
/// assert_eq!(a.len(), b.len());
/// assert_eq!(a.bounds(), b.bounds()); // AABB stable ...
/// assert_ne!(a.points(), b.points()); // ... while objects move
/// ```
#[derive(Clone, Debug)]
pub struct DriftingScene {
    config: DriftingSceneConfig,
    shell: Vec<Point3>,
    objects: Vec<DriftingObject>,
}

impl DriftingScene {
    /// Generates a scene: a static shell plus `config.objects` rigid
    /// objects with seeded shapes, homes, and velocities.
    pub fn new(config: DriftingSceneConfig, seed: u64) -> DriftingScene {
        let e = config.extent.max(1.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD81F_7ED6_5CE1_05B3);

        // The static shell: the 8 world corners (pinning the AABB
        // exactly) plus floor returns strictly inside the box.
        let mut shell = Vec::with_capacity(config.shell_points.max(8));
        for corner in 0..8u8 {
            shell.push(Point3::new(
                if corner & 1 == 0 { 0.0 } else { e },
                if corner & 2 == 0 { 0.0 } else { e },
                if corner & 4 == 0 { 0.0 } else { e },
            ));
        }
        if config.shell_points > 8 {
            let floor = shapes::sample_plane(
                &mut rng,
                Point3::new(e * 0.01, e * 0.01, 0.0),
                Point3::new(e * 0.98, 0.0, 0.0),
                Point3::new(0.0, e * 0.98, 0.0),
                config.shell_points - 8,
            );
            shell.extend(floor);
        }

        let objects = (0..config.objects)
            .map(|_| {
                let radius: f32 = rng.gen_range(e * 0.03..e * 0.08);
                let n = config.points_per_object.max(1);
                // Alternate solid primitives so octree occupancy varies.
                let local = if rng.gen_bool(0.5) {
                    shapes::sample_sphere(&mut rng, Point3::ORIGIN, radius, n)
                } else {
                    shapes::sample_box(
                        &mut rng,
                        Point3::splat(-radius * 0.8),
                        Point3::splat(radius * 0.8),
                        n,
                    )
                };
                let mut local = local;
                shapes::jitter(&mut rng, &mut local, radius * 0.01);
                // Post-jitter clearance, measured not assumed.
                let reach = local.iter().map(|p| p.norm()).fold(radius, f32::max) + e * 1e-3;
                let room = e - 2.0 * reach;
                let home = Point3::new(
                    reach + rng.gen_range(0.0..room.max(1e-3)),
                    reach + rng.gen_range(0.0..room.max(1e-3)),
                    reach + rng.gen_range(0.0..room.max(1e-3)),
                );
                let velocity = Point3::new(
                    rng.gen_range(-e * 0.2..e * 0.2),
                    rng.gen_range(-e * 0.2..e * 0.2),
                    rng.gen_range(-e * 0.05..e * 0.05),
                );
                DriftingObject {
                    local,
                    reach,
                    home,
                    velocity,
                }
            })
            .collect();

        DriftingScene {
            config: DriftingSceneConfig {
                extent: e,
                ..config
            },
            shell,
            objects,
        }
    }

    /// The scene's world box — the AABB of **every** frame.
    pub fn bounds(&self) -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(self.config.extent))
    }

    /// Points per frame (shell plus all object surfaces).
    pub fn frame_points(&self) -> usize {
        self.shell.len() + self.objects.iter().map(|o| o.local.len()).sum::<usize>()
    }

    /// Generates frame `index`: the static shell followed by every
    /// object translated to its bounce position at `index * frame_dt`.
    /// A pure function of `(self, index)` — bit-identical on repeat,
    /// frames generable in any order.
    pub fn frame(&self, index: usize) -> PointCloud {
        let t = index as f64 * self.config.frame_dt as f64;
        let mut points = Vec::with_capacity(self.frame_points());
        points.extend_from_slice(&self.shell);
        for obj in &self.objects {
            let center = Point3::new(
                bounce(
                    obj.home.x as f64 + obj.velocity.x as f64 * t,
                    obj.reach as f64,
                    (self.config.extent - obj.reach) as f64,
                ),
                bounce(
                    obj.home.y as f64 + obj.velocity.y as f64 * t,
                    obj.reach as f64,
                    (self.config.extent - obj.reach) as f64,
                ),
                bounce(
                    obj.home.z as f64 + obj.velocity.z as f64 * t,
                    obj.reach as f64,
                    (self.config.extent - obj.reach) as f64,
                ),
            );
            points.extend(obj.local.iter().map(|&p| center + p));
        }
        PointCloud::from_points(points)
    }
}

/// Elastic reflection of `x` into `[lo, hi]` (triangle wave). Computed
/// in f64 and cast last, so deep frame indices keep full precision (the
/// same ulp discipline as the low-discrepancy cloud generators).
fn bounce(x: f64, lo: f64, hi: f64) -> f32 {
    let span = hi - lo;
    if span <= 0.0 {
        return lo as f32;
    }
    let t = (x - lo).rem_euclid(2.0 * span);
    (lo + if t < span { t } else { 2.0 * span - t }) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene() -> DriftingScene {
        DriftingScene::new(DriftingSceneConfig::default(), 11)
    }

    #[test]
    fn frames_are_deterministic_and_order_free() {
        let s = scene();
        let again = DriftingScene::new(DriftingSceneConfig::default(), 11);
        assert_eq!(s.frame(5).points(), again.frame(5).points());
        let a = s.frame(3);
        let _ = s.frame(0);
        assert_eq!(a.points(), s.frame(3).points(), "order-free generation");
    }

    #[test]
    fn aabb_is_bit_stable_while_objects_move() {
        let s = scene();
        let first = s.frame(0);
        let world = s.bounds();
        assert_eq!(first.bounds().unwrap(), world);
        for k in 1..30 {
            let f = s.frame(k);
            assert_eq!(f.bounds().unwrap(), world, "frame {k} AABB drifted");
            assert_eq!(f.len(), first.len());
            assert_ne!(
                f.points(),
                first.points(),
                "frame {k}: objects must have moved"
            );
        }
    }

    #[test]
    fn shell_is_static_and_objects_stay_inside() {
        let s = scene();
        let shell_len = s.shell.len();
        let a = s.frame(2);
        let b = s.frame(9);
        assert_eq!(&a.points()[..shell_len], &b.points()[..shell_len]);
        let e = s.config.extent;
        for p in &a.points()[shell_len..] {
            assert!(p.x > 0.0 && p.x < e, "{p}");
            assert!(p.y > 0.0 && p.y < e, "{p}");
            assert!(p.z > 0.0 && p.z < e, "{p}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DriftingScene::new(DriftingSceneConfig::default(), 1);
        let b = DriftingScene::new(DriftingSceneConfig::default(), 2);
        assert_ne!(a.frame(0).points(), b.frame(0).points());
    }
}

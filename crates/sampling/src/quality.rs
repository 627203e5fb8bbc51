//! Sampling-quality metrics.
//!
//! The paper's claim (§VII-C) is that OIS matches FPS's information
//! retention while random sampling "has the highest information loss".
//! The standard proxy for down-sampling quality is the **coverage radius**
//! (fill distance): the largest distance from any original point to its
//! nearest sampled point. Lower is better; FPS greedily minimizes it.

use hgpcn_geometry::{Point3, PointCloud};

/// Coverage radius of `sample_indices` over `cloud`: the maximum, over all
/// original points, of the distance to the nearest sampled point.
///
/// # Panics
///
/// Panics if `sample_indices` is empty or contains an out-of-range index.
pub fn coverage_radius(cloud: &PointCloud, sample_indices: &[usize]) -> f32 {
    assert!(
        !sample_indices.is_empty(),
        "coverage radius needs at least one sample"
    );
    let samples: Vec<Point3> = sample_indices.iter().map(|&i| cloud.point(i)).collect();
    cloud
        .iter()
        .map(|p| {
            samples
                .iter()
                .map(|s| p.distance_sq(*s))
                .fold(f32::INFINITY, f32::min)
        })
        .fold(0.0f32, f32::max)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> PointCloud {
        (0..n).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect()
    }

    #[test]
    fn full_sample_has_zero_radius() {
        let cloud = line(10);
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(coverage_radius(&cloud, &all), 0.0);
    }

    #[test]
    fn endpoints_cover_a_line_at_half_length() {
        let cloud = line(11); // 0..10
        let r = coverage_radius(&cloud, &[0, 10]);
        assert_eq!(r, 5.0);
    }

    #[test]
    fn spread_beats_clustered() {
        let cloud = line(100);
        let spread = vec![0, 33, 66, 99];
        let clustered = vec![0, 1, 2, 3];
        assert!(coverage_radius(&cloud, &spread) < coverage_radius(&cloud, &clustered));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        let _ = coverage_radius(&line(3), &[]);
    }
}

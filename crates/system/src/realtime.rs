//! The system-level real-time experiment (§VII-E).
//!
//! The paper's criterion: end-to-end processing of each frame must keep up
//! with the sensor's data-generation rate. This module consumes a stream
//! of timestamped frames (e.g. [`hgpcn_datasets::kitti::KittiStream`] in
//! the `repro` regenerator), processes each through a pipeline, and
//! compares achieved throughput against the measured generation rate.
//!
//! [`hgpcn_datasets::kitti::KittiStream`]: https://docs.rs/hgpcn-datasets

use hgpcn_geometry::PointCloud;
use hgpcn_memsim::Latency;
use hgpcn_pcn::PointNet;

use crate::{E2ePipeline, SystemError};

/// Outcome of a streaming run.
#[derive(Clone, Debug, PartialEq)]
pub struct RealtimeReport {
    /// Frames processed.
    pub frames: usize,
    /// Mean end-to-end latency per frame.
    pub mean_latency: Latency,
    /// Worst frame latency (tail latency matters on the edge, §VII-C).
    pub max_latency: Latency,
    /// Throughput if frames are processed strictly serially.
    pub serial_fps: f64,
    /// Throughput with the two engine phases pipelined across frames.
    pub pipelined_fps: f64,
    /// The sensor's measured generation rate (from the frame timestamps).
    pub sensor_fps: f64,
}

impl RealtimeReport {
    /// The paper's real-time criterion: can the pipeline keep up with the
    /// sensor?
    pub fn meets_realtime(&self) -> bool {
        self.pipelined_fps >= self.sensor_fps
    }
}

/// Processes `frames` (with sensor timestamps in seconds) through
/// `pipeline`, down-sampling each to `target` points and running `net`.
///
/// # Errors
///
/// Propagates the first frame failure.
///
/// # Panics
///
/// Panics if fewer than two frames are supplied (no rate is measurable).
pub fn run_stream(
    pipeline: &E2ePipeline,
    net: &PointNet,
    frames: &[(f64, PointCloud)],
    target: usize,
    seed: u64,
) -> Result<RealtimeReport, SystemError> {
    assert!(
        frames.len() >= 2,
        "need at least two frames to measure the sensor rate"
    );
    let mut total = Latency::ZERO;
    let mut worst = Latency::ZERO;
    let mut worst_phase = Latency::ZERO;
    for (i, (_, frame)) in frames.iter().enumerate() {
        let report = pipeline.process_frame(frame, target, net, seed ^ i as u64)?;
        let t = report.total();
        total += t;
        worst = worst.max(t);
        worst_phase = worst_phase.max(report.preprocess.latency.max(report.inference.latency));
    }
    let n = frames.len();
    let span_s = frames[n - 1].0 - frames[0].0;
    let sensor_fps = (n - 1) as f64 / span_s;
    let mean = total / n as f64;
    Ok(RealtimeReport {
        frames: n,
        mean_latency: mean,
        max_latency: worst,
        serial_fps: mean.fps(),
        pipelined_fps: Latency::from_ns(worst_phase.ns().max(1.0)).fps(),
        sensor_fps,
    })
}

/// Outcome of a bounded-queue streaming simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueReport {
    /// Frames offered by the sensor.
    pub offered: usize,
    /// Frames dropped because the queue was full on arrival.
    pub dropped: usize,
    /// Median sojourn time (queueing + service) of processed frames.
    pub p50_sojourn: Latency,
    /// 95th-percentile sojourn time.
    pub p95_sojourn: Latency,
    /// Worst sojourn time.
    pub max_sojourn: Latency,
}

impl QueueReport {
    /// Fraction of offered frames that were processed.
    pub fn delivery_ratio(&self) -> f64 {
        1.0 - self.dropped as f64 / self.offered.max(1) as f64
    }
}

/// Simulates a single-server FIFO frame queue: frames arrive at the sensor
/// timestamps, each takes its modeled service latency, and at most
/// `capacity` frames may be waiting (excluding the one in service) — a
/// late frame is dropped, the standard edge-service policy.
///
/// The paper's real-time criterion (§VII-E) is the zero-drop steady state
/// of this model; the queue view additionally exposes the tail-latency
/// behaviour §VII-C argues OIS improves ("more consistent latency ...
/// better tail latency for edge computing").
///
/// # Panics
///
/// Panics if `arrivals` and `service` lengths differ or are empty.
pub fn simulate_queue(arrivals: &[f64], service: &[Latency], capacity: usize) -> QueueReport {
    assert_eq!(
        arrivals.len(),
        service.len(),
        "one service time per arrival"
    );
    assert!(!arrivals.is_empty(), "need at least one frame");
    let mut sojourns: Vec<f64> = Vec::new();
    let mut dropped = 0usize;
    // Completion times of frames admitted but not yet finished.
    let mut backlog: Vec<f64> = Vec::new(); // completion times, sorted ascending
    let mut server_free_at = f64::NEG_INFINITY;
    for (&t, &svc) in arrivals.iter().zip(service) {
        backlog.retain(|&done| done > t);
        if backlog.len() > capacity {
            dropped += 1;
            continue;
        }
        let start = server_free_at.max(t);
        let done = start + svc.secs();
        server_free_at = done;
        backlog.push(done);
        sojourns.push(done - t);
    }
    sojourns.sort_by(|a, b| a.partial_cmp(b).expect("finite sojourns"));
    let pick = |q: f64| -> Latency {
        if sojourns.is_empty() {
            return Latency::ZERO;
        }
        let idx = ((sojourns.len() - 1) as f64 * q).round() as usize;
        Latency::from_secs(sojourns[idx])
    };
    QueueReport {
        offered: arrivals.len(),
        dropped,
        p50_sojourn: pick(0.5),
        p95_sojourn: pick(0.95),
        max_sojourn: pick(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgpcn_geometry::Point3;
    use hgpcn_pcn::{PointNet, PointNetConfig};

    fn frame(n: usize, seed: u64) -> PointCloud {
        (0..n)
            .map(|i| {
                let f = (i as u64 ^ seed) as f32;
                Point3::new(
                    (f * 0.618).fract(),
                    (f * 0.414).fract(),
                    (f * 0.732).fract(),
                )
            })
            .collect()
    }

    #[test]
    fn stream_reports_rates() {
        let pipeline = E2ePipeline::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let frames: Vec<(f64, PointCloud)> = (0..3)
            .map(|i| (i as f64 * 0.1, frame(3000, i as u64)))
            .collect();
        let report = run_stream(&pipeline, &net, &frames, 1024, 5).unwrap();
        assert_eq!(report.frames, 3);
        assert!((report.sensor_fps - 10.0).abs() < 1e-9);
        assert!(report.pipelined_fps >= report.serial_fps);
        assert!(report.mean_latency.ns() > 0.0);
        assert!(report.max_latency >= report.mean_latency);
    }

    #[test]
    fn queue_keeps_up_when_service_is_fast() {
        let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let service = vec![Latency::from_ms(50.0); 20];
        let report = simulate_queue(&arrivals, &service, 2);
        assert_eq!(report.dropped, 0);
        assert!((report.p50_sojourn.ms() - 50.0).abs() < 1e-6);
        assert!((report.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_drops_when_overloaded() {
        let arrivals: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let service = vec![Latency::from_ms(250.0); 50]; // 2.5x too slow
        let report = simulate_queue(&arrivals, &service, 1);
        assert!(report.dropped > 10, "dropped {}", report.dropped);
        assert!(report.max_sojourn > Latency::from_ms(250.0));
        assert!(report.delivery_ratio() < 1.0);
    }

    #[test]
    fn queue_percentiles_ordered() {
        let arrivals: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let service: Vec<Latency> = (0..30)
            .map(|i| Latency::from_ms(40.0 + (i % 7) as f64 * 30.0))
            .collect();
        let report = simulate_queue(&arrivals, &service, 4);
        assert!(report.p50_sojourn <= report.p95_sojourn);
        assert!(report.p95_sojourn <= report.max_sojourn);
    }

    #[test]
    #[should_panic(expected = "at least two frames")]
    fn single_frame_panics() {
        let pipeline = E2ePipeline::prototype();
        let net = PointNet::new(PointNetConfig::classification(), 1);
        let frames = vec![(0.0, frame(2000, 1))];
        let _ = run_stream(&pipeline, &net, &frames, 1024, 5);
    }
}

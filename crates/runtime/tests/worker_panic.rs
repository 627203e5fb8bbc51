//! A worker panic ends the session instead of stranding its clients: a
//! ticket still pending resolves to `ShuttingDown`, the dead session
//! refuses new streams and says it is not live, `shutdown` re-raises the
//! panic, and a batch run panics out rather than hanging.
//!
//! The pipeline is broken on purpose: a systolic array with zero PE rows
//! divides by zero when it prices the first layer, so the inference
//! worker panics on the first frame. Each case runs on a helper thread
//! under a deadline, so a regression fails the test instead of hanging
//! the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{
    Runtime, RuntimeConfig, RuntimeError, ServingRuntime, StreamProfile, StreamSpec,
    SyntheticSource,
};
use hgpcn_system::E2ePipeline;

const TARGET: usize = 512;
const DEADLINE: Duration = Duration::from_secs(30);

fn broken_pipeline() -> E2ePipeline {
    let mut pipeline = E2ePipeline::prototype();
    pipeline.inference.array.rows = 0;
    pipeline
}

fn net() -> PointNet {
    PointNet::new(PointNetConfig::semantic_segmentation(TARGET), 1)
}

fn source() -> SyntheticSource {
    SyntheticSource::new(1500, 10.0, 3, 1)
}

#[test]
fn wait_fails_instead_of_hanging_after_a_worker_panic() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let config = RuntimeConfig::default().target_points(TARGET);
        let serving = ServingRuntime::start_with_pipeline(config, broken_pipeline(), net())
            .expect("valid config");
        let stream = serving.open_stream(StreamProfile::new("s")).unwrap();
        let ticket = stream.submit(0.0, source().frame_cloud(0)).unwrap();
        let waited = serving.wait(ticket);
        let polled = serving.poll(ticket);
        let opened = serving
            .open_stream(StreamProfile::new("late"))
            .map(|s| s.id());
        let live = serving.is_live();
        let shutdown = catch_unwind(AssertUnwindSafe(|| serving.shutdown()));
        let _ = tx.send((waited, polled, opened, live, shutdown.is_err()));
    });
    let (waited, polled, opened, live, shutdown_panicked) = rx
        .recv_timeout(DEADLINE)
        .expect("wait must return once a worker has panicked");
    assert!(
        matches!(waited, Err(RuntimeError::ShuttingDown)),
        "wait resolved {waited:?}"
    );
    assert!(
        matches!(polled, Err(RuntimeError::ShuttingDown)),
        "poll resolved {polled:?}"
    );
    assert_eq!(
        opened,
        Err(RuntimeError::ShuttingDown),
        "a dead session opens no stream"
    );
    assert!(!live, "a dead session is not live");
    assert!(shutdown_panicked, "shutdown re-raises the worker's panic");
}

#[test]
fn batch_run_propagates_a_worker_panic() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let runtime = Runtime::new(RuntimeConfig::default().target_points(TARGET)).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            runtime.run_with_pipeline(
                &broken_pipeline(),
                vec![StreamSpec::new("s", source())],
                &net(),
            )
        }));
        let _ = tx.send(outcome.is_err());
    });
    let panicked = rx
        .recv_timeout(DEADLINE)
        .expect("the run must end once a worker has panicked");
    assert!(panicked, "the worker's panic propagates out of the run");
}

//! Two ways a frame can go wrong over the wire, and what each one ends.
//!
//! * A frame the octree build refuses fails alone: a finite point at 3e38
//!   overflows the build's root-box arithmetic, the build returns a typed
//!   error, the frame comes back `failed`, and the stream's next frame
//!   comes back `done`.
//! * A session a worker panic has ended says so: `/health` answers 503 and
//!   `open_stream` is refused with `shutting_down`, instead of handing out
//!   streams no worker will serve. The panic comes from a broken pipeline:
//!   a systolic array with zero PE rows divides by zero when it prices the
//!   first layer, so the inference worker panics on the first frame.

use hgpcn_runtime::{RuntimeConfig, ServingRuntime, SyntheticSource};
use hgpcn_serve::{default_net, App};
use hgpcn_system::E2ePipeline;
use minihttp::http::{Request, Response};
use minihttp::json::{self, Json};

fn request(app: &App, method: &str, path: &str, body: &str) -> (u16, String) {
    let resp: Response = app.handle(&Request {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    (resp.status, String::from_utf8(resp.body).unwrap())
}

fn rpc(app: &App, method: &str, params: Json) -> Json {
    let body = Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", Json::from(1usize)),
        ("method", Json::str(method)),
        ("params", params),
    ]);
    let (status, text) = request(app, "POST", "/rpc", &body.to_string());
    assert_eq!(status, 200, "{text}");
    json::parse(&text).unwrap()
}

/// A 1 400-point frame of stream 0, as JSON points.
fn frame_points(frame: usize) -> Vec<Json> {
    SyntheticSource::new(1400, 10.0, 1, 1)
        .frame_cloud(frame)
        .points()
        .iter()
        .map(|p| Json::Arr([p.x, p.y, p.z].map(|c| Json::Num(f64::from(c))).to_vec()))
        .collect()
}

/// Submits `points` to stream 0 and waits for the frame's result.
fn submit_and_wait(app: &App, frame_index: usize, points: Vec<Json>) -> Json {
    let params = [
        ("stream_id", Json::from(0usize)),
        ("points", Json::Arr(points)),
    ];
    let submitted = rpc(app, "submit_cloud", Json::obj(params));
    assert!(submitted.path("result").is_some(), "{submitted}");
    let params = [
        ("stream_id", Json::from(0usize)),
        ("frame_index", Json::from(frame_index)),
        ("wait", Json::from(true)),
    ];
    rpc(app, "poll_result", Json::obj(params))
}

fn open_stream(app: &App) {
    let opened = rpc(app, "open_stream", Json::obj([("name", Json::str("s"))]));
    assert_eq!(opened.num("result.stream_id"), Some(0.0), "{opened}");
}

#[test]
fn a_frame_the_build_refuses_fails_alone() {
    let app = App::new(RuntimeConfig::default().target_points(512), default_net(1)).unwrap();
    open_stream(&app);

    let mut points = frame_points(0);
    points[0] = Json::Arr(vec![Json::Num(3e38); 3]);
    let refused = submit_and_wait(&app, 0, points);
    assert_eq!(refused.str_at("result.status"), Some("failed"), "{refused}");

    let next = submit_and_wait(&app, 1, frame_points(1));
    assert_eq!(next.str_at("result.status"), Some("done"), "{next}");
    assert!(app.runtime().is_live());
    assert_eq!(
        request(&app, "GET", "/health", ""),
        (200, "{\"status\":\"ok\"}".to_string())
    );
}

#[test]
fn a_dead_session_fails_health_and_refuses_streams() {
    let mut pipeline = E2ePipeline::prototype();
    pipeline.inference.array.rows = 0;
    let config = RuntimeConfig::default().target_points(512);
    let runtime = ServingRuntime::start_with_pipeline(config, pipeline, default_net(1)).unwrap();
    let app = App::from_runtime(runtime);
    assert_eq!(
        request(&app, "GET", "/health", ""),
        (200, "{\"status\":\"ok\"}".to_string())
    );
    open_stream(&app);

    let polled = submit_and_wait(&app, 0, frame_points(0));
    assert_eq!(polled.num("error.code"), Some(-32007.0), "{polled}");

    assert!(!app.runtime().is_live());
    assert_eq!(
        request(&app, "GET", "/health", ""),
        (503, "{\"status\":\"shutting_down\"}".to_string())
    );
    let refused = rpc(&app, "open_stream", Json::obj([("name", Json::str("t"))]));
    assert_eq!(refused.num("error.code"), Some(-32007.0), "{refused}");
}

//! A session a worker panic has ended says so: `/health` answers 503 and
//! `open_stream` is refused with `shutting_down`, instead of handing out
//! streams no worker will serve.
//!
//! The panic comes from the wire: a finite point at 3e38 overflows the
//! octree build's root-box arithmetic, and the pre-processing worker
//! panics on it.

use hgpcn_runtime::{RuntimeConfig, SyntheticSource};
use hgpcn_serve::{default_net, App};
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

#[test]
fn a_dead_session_fails_health_and_refuses_streams() {
    let app = App::new(RuntimeConfig::default().target_points(512), default_net(1)).unwrap();
    assert_eq!(
        request(&app, "GET", "/health", ""),
        (200, "{\"status\":\"ok\"}".to_string())
    );
    let opened = rpc(&app, "open_stream", Json::obj([("name", Json::str("s"))]));
    assert_eq!(opened.num("result.stream_id"), Some(0.0), "{opened}");

    let mut points: Vec<Json> = SyntheticSource::new(1400, 10.0, 1, 1)
        .frame_cloud(0)
        .points()
        .iter()
        .map(|p| Json::Arr([p.x, p.y, p.z].map(|c| Json::Num(f64::from(c))).to_vec()))
        .collect();
    points[0] = Json::Arr(vec![Json::Num(3e38); 3]);
    let params = [
        ("stream_id", Json::from(0usize)),
        ("points", Json::Arr(points)),
    ];
    let submitted = rpc(&app, "submit_cloud", Json::obj(params));
    assert!(submitted.path("result").is_some(), "{submitted}");
    let params = [
        ("stream_id", Json::from(0usize)),
        ("frame_index", Json::from(0usize)),
        ("wait", Json::from(true)),
    ];
    let polled = rpc(&app, "poll_result", Json::obj(params));
    assert_eq!(polled.num("error.code"), Some(-32007.0), "{polled}");

    assert!(!app.runtime().is_live());
    assert_eq!(
        request(&app, "GET", "/health", ""),
        (503, "{\"status\":\"shutting_down\"}".to_string())
    );
    let refused = rpc(&app, "open_stream", Json::obj([("name", Json::str("t"))]));
    assert_eq!(refused.num("error.code"), Some(-32007.0), "{refused}");
}

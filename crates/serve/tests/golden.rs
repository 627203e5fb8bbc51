//! Golden request/response fixtures for every endpoint, driven through
//! the in-process router ([`App::handle`]) — byte-exact where the
//! response is deterministic (the JSON serializer renders object keys
//! in sorted order), structural where it carries wall-clock timing.

use hgpcn_runtime::{RuntimeConfig, SyntheticSource};
use hgpcn_serve::{config_text, default_net, App};
use minihttp::http::{Request, Response};
use minihttp::json::{self, Json};

const TARGET: usize = 512;
const SEED: u64 = 11;

fn config() -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .target_points(TARGET)
        .seed(SEED)
}

fn app() -> App {
    App::new(config(), default_net(SEED)).unwrap()
}

/// The backend name `stream_stats` should report on this host.
fn fastest_gemm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        return "avx512";
    } else if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "blocked"
}

fn get(app: &App, path: &str) -> Response {
    app.handle(&Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: String::new(),
        headers: Vec::new(),
        body: Vec::new(),
    })
}

fn post_rpc(app: &App, body: &str) -> Response {
    app.handle(&Request {
        method: "POST".to_string(),
        path: "/rpc".to_string(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    })
}

fn body_text(resp: &Response) -> String {
    String::from_utf8(resp.body.clone()).unwrap()
}

fn cloud_json(points: usize) -> String {
    let cloud = SyntheticSource::new(points, 10.0, 1, 1).frame_cloud(0);
    let triples: Vec<Json> = cloud
        .points()
        .iter()
        .map(|p| {
            Json::Arr(vec![
                Json::Num(f64::from(p.x)),
                Json::Num(f64::from(p.y)),
                Json::Num(f64::from(p.z)),
            ])
        })
        .collect();
    Json::Arr(triples).to_string()
}

#[test]
fn health_is_golden_and_routes_are_strict() {
    let app = app();
    let health = get(&app, "/health");
    assert_eq!(health.status, 200);
    assert_eq!(body_text(&health), "{\"status\":\"ok\"}");

    assert_eq!(get(&app, "/nope").status, 404);
    // Known path, wrong method: 405, not 404.
    assert_eq!(get(&app, "/rpc").status, 405);
}

#[test]
fn metrics_serves_prometheus_text() {
    let app = app();
    let resp = get(&app, "/metrics");
    assert_eq!(resp.status, 200);
    assert!(resp.content_type.starts_with("text/plain"));
    let text = body_text(&resp);
    // Fresh session, no streams yet: aggregate gauges are still there
    // (per-stream counters appear once a stream serves; asserted in
    // `full_serving_flow_over_the_wire_format`).
    assert!(
        text.contains("# TYPE hgpcn_modeled_fps gauge"),
        "metrics output missing typed gauge:\n{text}"
    );
}

#[test]
fn transport_errors_are_golden_400s() {
    let app = app();
    // Unparseable body: -32700 with the parser's position.
    let resp = post_rpc(&app, "{");
    assert_eq!(resp.status, 400);
    assert_eq!(
        body_text(&resp),
        "{\"error\":{\"code\":-32700,\"message\":\"JSON parse error at byte 1: \
         unexpected character\"},\"id\":null,\"jsonrpc\":\"2.0\"}"
    );

    // Batch arrays are not supported: -32600.
    let resp = post_rpc(&app, "[]");
    assert_eq!(resp.status, 400);
    assert_eq!(
        body_text(&resp),
        "{\"error\":{\"code\":-32600,\"message\":\"request must be a single \
         JSON-RPC object\"},\"id\":null,\"jsonrpc\":\"2.0\"}"
    );

    // Wrong protocol version: -32600, echoing the id.
    let resp = post_rpc(&app, r#"{"jsonrpc":"1.0","id":9,"method":"x"}"#);
    assert_eq!(resp.status, 400);
    assert_eq!(
        body_text(&resp),
        "{\"error\":{\"code\":-32600,\"message\":\"jsonrpc must be the string \
         \\\"2.0\\\"\"},\"id\":9,\"jsonrpc\":\"2.0\"}"
    );
}

#[test]
fn method_level_errors_are_200_with_error_objects() {
    let app = app();
    let resp = post_rpc(&app, r#"{"jsonrpc":"2.0","id":1,"method":"no_such"}"#);
    assert_eq!(resp.status, 200);
    assert_eq!(
        body_text(&resp),
        "{\"error\":{\"code\":-32601,\"message\":\"unknown method \
         \\\"no_such\\\"\"},\"id\":1,\"jsonrpc\":\"2.0\"}"
    );
    // A process serves one runtime: the retired sharding method is
    // unknown like any other.
    let resp = post_rpc(&app, r#"{"jsonrpc":"2.0","id":6,"method":"shard_stats"}"#);
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.num("error.code"), Some(-32601.0));

    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":2,"method":"open_stream","params":[1]}"#,
    );
    assert_eq!(resp.status, 200);
    assert_eq!(
        body_text(&resp),
        "{\"error\":{\"code\":-32602,\"message\":\"params must be an \
         object\"},\"id\":2,\"jsonrpc\":\"2.0\"}"
    );
}

#[test]
fn runtime_errors_carry_the_stable_code_contract() {
    let app = app();
    // Submitting to a stream that was never opened: the runtime's
    // `unknown_stream` code (-32005), with the snake_case form in data.
    let resp = post_rpc(
        &app,
        &format!(
            r#"{{"jsonrpc":"2.0","id":3,"method":"submit_cloud",
               "params":{{"stream_id":7,"points":{}}}}}"#,
            cloud_json(TARGET + 8)
        ),
    );
    assert_eq!(resp.status, 200);
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.num("error.code"), Some(-32005.0));
    assert_eq!(doc.str_at("error.data.code"), Some("unknown_stream"));

    // Polling a ticket that was never issued: unknown_ticket (-32006).
    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":4,"method":"poll_result",
           "params":{"stream_id":0,"frame_index":0}}"#,
    );
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.num("error.code"), Some(-32006.0));
    assert_eq!(doc.str_at("error.data.code"), Some("unknown_ticket"));
}

#[test]
fn full_serving_flow_over_the_wire_format() {
    let app = app();
    // open_stream is fully deterministic: golden body.
    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":1,"method":"open_stream",
           "params":{"name":"lidar","nominal_fps":10}}"#,
    );
    assert_eq!(resp.status, 200);
    assert_eq!(
        body_text(&resp),
        "{\"id\":1,\"jsonrpc\":\"2.0\",\"result\":{\"stream_id\":0}}"
    );

    // submit_cloud: deterministic ticket, golden body.
    let resp = post_rpc(
        &app,
        &format!(
            r#"{{"jsonrpc":"2.0","id":2,"method":"submit_cloud",
               "params":{{"stream_id":0,"sensor_ts_s":0,"points":{}}}}}"#,
            cloud_json(1000)
        ),
    );
    assert_eq!(
        body_text(&resp),
        "{\"id\":2,\"jsonrpc\":\"2.0\",\"result\":{\"frame_index\":0,\"stream_id\":0}}"
    );

    // poll_result carries wall-clock timing, so assert structurally.
    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":3,"method":"poll_result",
           "params":{"stream_id":0,"frame_index":0,"wait":true}}"#,
    );
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.str_at("result.status"), Some("done"));
    assert!(doc.path("result.output.precision").is_none());
    assert_eq!(doc.num("result.output.classes"), Some(40.0));
    let class = doc.usize_at("result.output.predicted_class").unwrap();
    assert!(class < 40);
    assert!(doc.num("result.timing.virtual_done_s").unwrap() > 0.0);
    assert!(
        doc.num("result.timing.virtual_done_s").unwrap()
            >= doc.num("result.timing.virtual_arrival_s").unwrap()
    );

    // Per-stream stats reflect the one served frame.
    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":4,"method":"stream_stats",
           "params":{"stream_id":0}}"#,
    );
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.str_at("result.name"), Some("lidar"));
    assert_eq!(doc.num("result.offered"), Some(1.0));
    assert_eq!(doc.num("result.completed"), Some(1.0));
    assert!(doc.num("result.service_ms.p50").unwrap() > 0.0);
    assert!(doc.str_at("result.preproc_reuse").is_some());
    assert!(doc.num("result.preproc_reuse_hits").is_some());
    assert!(doc.num("result.preproc_reuse_misses").is_some());

    // Aggregate stats (no stream_id) list every stream.
    let resp = post_rpc(&app, r#"{"jsonrpc":"2.0","id":5,"method":"stream_stats"}"#);
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.num("result.total_frames"), Some(1.0));
    assert_eq!(doc.arr("result.streams").map(<[Json]>::len), Some(1));
    assert!(doc.path("result.precision").is_none());
    // The served GEMM is the fastest one this CPU runs, worked out here
    // from CPUID rather than from the crate's own dispatch.
    assert_eq!(doc.str_at("result.kernel_backend"), Some(fastest_gemm()));
    // The preprocessing state policy is surfaced, never hidden: the
    // resolved policy name plus the warm/cold tally for this run.
    let policy = doc.str_at("result.preproc_reuse.policy").unwrap();
    assert!(policy == "on" || policy == "off", "policy {policy:?}");
    let hits = doc.num("result.preproc_reuse.hits").unwrap();
    let misses = doc.num("result.preproc_reuse.misses").unwrap();
    assert_eq!(hits + misses, 1.0, "one preprocessed frame");
    assert!(doc.num("result.preproc_reuse.warm_ratio").is_some());

    // With a frame served, /metrics now carries the frame counters.
    let metrics = body_text(&get(&app, "/metrics"));
    assert!(metrics.contains("# TYPE hgpcn_frames_completed_total counter"));
    assert!(metrics.contains("hgpcn_frames_completed_total{stream=\"lidar\"} 1"));
}

#[test]
fn failed_frames_resolve_as_results_not_rpc_errors() {
    let app = app();
    post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":1,"method":"open_stream","params":{"name":"s"}}"#,
    );
    // A 4-point cloud cannot be sampled up to 512: the frame fails, the
    // poll succeeds, the server stays up.
    let resp = post_rpc(
        &app,
        &format!(
            r#"{{"jsonrpc":"2.0","id":2,"method":"submit_cloud",
               "params":{{"stream_id":0,"points":{}}}}}"#,
            cloud_json(4)
        ),
    );
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert!(doc.path("result").is_some(), "submission itself succeeds");

    let resp = post_rpc(
        &app,
        r#"{"jsonrpc":"2.0","id":3,"method":"poll_result",
           "params":{"stream_id":0,"frame_index":0,"wait":true}}"#,
    );
    assert_eq!(resp.status, 200);
    let doc = json::parse(&body_text(&resp)).unwrap();
    assert_eq!(doc.str_at("result.status"), Some("failed"));
    assert_eq!(doc.num("result.error.code"), Some(-32003.0));
    assert_eq!(doc.str_at("result.error.data.code"), Some("frame_failed"));
    assert!(doc.str_at("result.error.data.stage").is_some());

    // And the session still serves: health stays green.
    assert_eq!(get(&app, "/health").status, 200);
}

#[test]
fn config_subcommand_output_is_deterministic_and_parseable() {
    let a = config_text("127.0.0.1:7870");
    assert_eq!(a, config_text("127.0.0.1:7870"), "must be reproducible");
    for method in ["open_stream", "submit_cloud", "poll_result", "stream_stats"] {
        assert!(a.contains(method), "examples must cover {method}");
    }
    // Every curl example body must be valid JSON our own parser accepts.
    for line in a.lines().filter(|l| l.contains("/rpc -d '")) {
        let body = line.split("-d '").nth(1).unwrap().trim_end_matches('\'');
        let doc = json::parse(body).unwrap_or_else(|e| panic!("bad example {body}: {e}"));
        assert_eq!(doc.str_at("jsonrpc"), Some("2.0"));
    }
}

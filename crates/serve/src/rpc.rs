//! JSON-RPC 2.0 dispatch for `POST /rpc`.
//!
//! Methods: `open_stream`, `submit_cloud`, `poll_result`,
//! `stream_stats`, each over one [`ServingRuntime`]. Error objects carry
//! the runtime's stable
//! [`ErrorCode`](hgpcn_runtime::ErrorCode) contract: `error.code` is
//! [`ErrorCode::json_rpc`](hgpcn_runtime::ErrorCode::json_rpc),
//! `error.data.code` is
//! [`ErrorCode::as_str`](hgpcn_runtime::ErrorCode::as_str), and frame
//! failures add `error.data.stage` ([`RuntimeError::frame_stage`]).

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_runtime::{
    FrameResult, FrameStatus, LatencySummary, RuntimeError, RuntimeReport, ServingRuntime,
    StageBackendNames, StreamProfile, StreamReport,
};
use minihttp::http::Response;
use minihttp::json::{self, CloudError, Json};

/// Maximum points accepted in one `submit_cloud` frame. Guards the
/// preproc stage against a single hostile frame monopolising memory;
/// real spins are ~1e5 points, so this is ample headroom. The parser
/// decodes `params.points` straight into [`Point3`]s and stores at most
/// this many, so an oversize cloud is counted and refused, never built.
pub const MAX_CLOUD_POINTS: usize = 1 << 18;

/// JSON-RPC 2.0 standard error codes (the runtime-specific codes live
/// in [`hgpcn_runtime::ErrorCode`]).
const PARSE_ERROR: i64 = -32700;
const INVALID_REQUEST: i64 = -32600;
const METHOD_NOT_FOUND: i64 = -32601;
const INVALID_PARAMS: i64 = -32602;

fn envelope(id: Json, key: &str, value: Json) -> Response {
    let body = Json::obj([("jsonrpc", Json::str("2.0")), ("id", id), (key, value)]);
    Response::json(body.to_string())
}

fn ok(id: Json, result: Json) -> Response {
    envelope(id, "result", result)
}

fn error_body(id: Json, code: i64, message: String, data: Option<Json>) -> Json {
    let mut err = vec![
        ("code".to_string(), Json::Num(code as f64)),
        ("message".to_string(), Json::Str(message)),
    ];
    if let Some(data) = data {
        err.push(("data".to_string(), data));
    }
    Json::obj([
        ("jsonrpc".to_string(), Json::str("2.0")),
        ("id".to_string(), id),
        ("error".to_string(), Json::obj(err)),
    ])
}

/// A method-level failure: HTTP 200, JSON-RPC error object.
fn fail(id: Json, code: i64, message: impl Into<String>) -> Response {
    Response::json(error_body(id, code, message.into(), None).to_string())
}

/// A transport-level failure (unparseable / invalid envelope): the
/// request never reached a method, so the HTTP status is 400.
fn reject(id: Json, code: i64, message: impl Into<String>) -> Response {
    Response::json_status(400, error_body(id, code, message.into(), None).to_string())
}

/// Maps a [`RuntimeError`] onto its stable wire form.
fn runtime_fail(id: Json, err: &RuntimeError) -> Response {
    Response::json(runtime_error_json(id, err).to_string())
}

fn runtime_error_json(id: Json, err: &RuntimeError) -> Json {
    error_body(
        id,
        err.code().json_rpc(),
        err.to_string(),
        Some(error_data(err)),
    )
}

/// The `error.data` payload: the snake_case code, plus the failing
/// engine stage for frame errors.
fn error_data(err: &RuntimeError) -> Json {
    let mut data = vec![("code".to_string(), Json::str(err.code().as_str()))];
    if let Some(stage) = err.frame_stage() {
        data.push(("stage".to_string(), Json::str(stage)));
    }
    Json::obj(data)
}

/// Handles one `POST /rpc` body end to end.
pub fn handle(runtime: &ServingRuntime, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return reject(Json::Null, PARSE_ERROR, "body is not UTF-8"),
    };
    let (doc, points) = match json::parse_request::<Point3>(text, MAX_CLOUD_POINTS) {
        Ok(parsed) => parsed,
        Err(e) => return reject(Json::Null, PARSE_ERROR, e.to_string()),
    };
    let Json::Obj(_) = doc else {
        // Batch arrays are deliberately unsupported: one request, one
        // response keeps the server and its error attribution simple.
        return reject(
            Json::Null,
            INVALID_REQUEST,
            "request must be a single JSON-RPC object",
        );
    };
    let id = match doc.path("id") {
        None | Some(Json::Null) => Json::Null,
        Some(v @ (Json::Num(_) | Json::Str(_))) => v.clone(),
        Some(_) => {
            return reject(
                Json::Null,
                INVALID_REQUEST,
                "id must be a number, string, or null",
            )
        }
    };
    if doc.str_at("jsonrpc") != Some("2.0") {
        return reject(id, INVALID_REQUEST, "jsonrpc must be the string \"2.0\"");
    }
    let Some(method) = doc.str_at("method") else {
        return reject(id, INVALID_REQUEST, "method must be a string");
    };
    let no_params = Json::Obj(Default::default());
    let params = match doc.path("params") {
        None => &no_params,
        Some(p @ Json::Obj(_)) => p,
        Some(_) => return fail(id, INVALID_PARAMS, "params must be an object"),
    };
    match method {
        "open_stream" => open_stream(runtime, id, params),
        "submit_cloud" => submit_cloud(runtime, id, params, points),
        "poll_result" => poll_result(runtime, id, params),
        "stream_stats" => stream_stats(runtime, id, params),
        other => fail(id, METHOD_NOT_FOUND, format!("unknown method {other:?}")),
    }
}

fn open_stream(runtime: &ServingRuntime, id: Json, params: &Json) -> Response {
    let Some(name) = params.str_at("name") else {
        return fail(id, INVALID_PARAMS, "name must be a string");
    };
    let mut profile = StreamProfile::new(name);
    match params.path("nominal_fps") {
        None => {}
        Some(Json::Num(fps)) if fps.is_finite() && *fps >= 0.0 => {
            profile = profile.nominal_fps(*fps);
        }
        Some(_) => {
            return fail(
                id,
                INVALID_PARAMS,
                "nominal_fps must be a non-negative number",
            );
        }
    }
    // One arithmetic tier is served. A client naming any other must be
    // refused, not silently given f32.
    match params.path("precision") {
        None => {}
        Some(Json::Str(s)) if s == "f32" => {}
        Some(_) => {
            return fail(id, INVALID_PARAMS, "precision must be \"f32\" or absent");
        }
    }
    match runtime.open_stream(profile) {
        Ok(stream) => ok(id, Json::obj([("stream_id", Json::from(stream.id()))])),
        Err(err) => runtime_fail(id, &err),
    }
}

/// `points` is `params.points` as the parser decoded it: the cloud, or
/// the reason it is not one.
fn submit_cloud(
    runtime: &ServingRuntime,
    id: Json,
    params: &Json,
    points: Result<Vec<Point3>, CloudError>,
) -> Response {
    let Some(stream_id) = params.usize_at("stream_id") else {
        return fail(
            id,
            INVALID_PARAMS,
            "stream_id must be a non-negative integer",
        );
    };
    let sensor_ts_s = match params.path("sensor_ts_s") {
        None => 0.0,
        Some(Json::Num(ts)) if ts.is_finite() && *ts >= 0.0 => *ts,
        Some(_) => {
            return fail(
                id,
                INVALID_PARAMS,
                "sensor_ts_s must be a non-negative number",
            );
        }
    };
    let cloud = match points {
        Ok(cloud) => cloud,
        Err(err) => return fail(id, INVALID_PARAMS, cloud_error_message(&err)),
    };
    match runtime.submit(stream_id, sensor_ts_s, PointCloud::from_points(cloud)) {
        Ok(ticket) => ok(
            id,
            Json::obj([
                ("stream_id", Json::from(ticket.stream_id)),
                ("frame_index", Json::from(ticket.frame_index)),
            ]),
        ),
        Err(err) => runtime_fail(id, &err),
    }
}

fn cloud_error_message(err: &CloudError) -> String {
    match err {
        CloudError::NotArray => "points must be an array of [x, y, z] triples".to_string(),
        CloudError::Empty => "points must not be empty".to_string(),
        CloudError::TooMany(n) => {
            format!("cloud has {n} points; the server accepts at most {MAX_CLOUD_POINTS}")
        }
        CloudError::PointNotArray(i) => format!("points[{i}] is not an array"),
        CloudError::NotTriple(i) => format!("points[{i}] must be exactly [x, y, z] numbers"),
        CloudError::NonFinite(i) => format!("points[{i}] has a non-finite coordinate"),
    }
}

fn poll_result(runtime: &ServingRuntime, id: Json, params: &Json) -> Response {
    let (Some(stream_id), Some(frame_index)) =
        (params.usize_at("stream_id"), params.usize_at("frame_index"))
    else {
        return fail(
            id,
            INVALID_PARAMS,
            "stream_id and frame_index must be non-negative integers",
        );
    };
    let wait = match params.path("wait") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return fail(id, INVALID_PARAMS, "wait must be a boolean"),
    };
    let ticket = hgpcn_runtime::FrameTicket {
        stream_id,
        frame_index,
    };
    let status = if wait {
        runtime.wait(ticket)
    } else {
        runtime.poll(ticket)
    };
    match status {
        Ok(FrameStatus::Pending) => ok(id, Json::obj([("status", Json::str("pending"))])),
        Ok(FrameStatus::Done(result)) => ok(id, done_json(&result)),
        Ok(FrameStatus::Failed(err)) => {
            // The poll itself succeeded; the *frame* failed. That is a
            // result (the server keeps serving), not an RPC error.
            ok(
                id,
                Json::obj([
                    ("status", Json::str("failed")),
                    (
                        "error",
                        Json::obj([
                            ("code", Json::Num(err.code().json_rpc() as f64)),
                            ("message", Json::str(err.to_string())),
                            ("data", error_data(&err)),
                        ]),
                    ),
                ]),
            )
        }
        Err(err) => runtime_fail(id, &err),
    }
}

fn done_json(result: &FrameResult) -> Json {
    let out = &result.output;
    let rec = &result.record;
    Json::obj([
        ("status", Json::str("done")),
        ("stream_id", Json::from(rec.stream_id)),
        ("frame_index", Json::from(rec.frame_index)),
        (
            "output",
            Json::obj([
                ("predicted_class", Json::from(out.predicted_class(0))),
                ("rows", Json::from(out.logits.rows())),
                ("classes", Json::from(out.logits.cols())),
                ("macs", Json::Num(out.macs as f64)),
            ]),
        ),
        (
            "timing",
            Json::obj([
                ("virtual_arrival_s", Json::from(rec.virtual_arrival_s)),
                (
                    "virtual_preproc_start_s",
                    Json::from(rec.virtual_preproc_start_s),
                ),
                (
                    "virtual_preproc_done_s",
                    Json::from(rec.virtual_preproc_done_s),
                ),
                (
                    "virtual_infer_start_s",
                    Json::from(rec.virtual_infer_start_s),
                ),
                ("virtual_done_s", Json::from(rec.virtual_done_s)),
                ("wall_done_s", Json::from(rec.wall_done.as_secs_f64())),
            ]),
        ),
    ])
}

fn stream_stats(runtime: &ServingRuntime, id: Json, params: &Json) -> Response {
    match params.path("stream_id") {
        Some(_) => {
            let Some(stream_id) = params.usize_at("stream_id") else {
                return fail(
                    id,
                    INVALID_PARAMS,
                    "stream_id must be a non-negative integer",
                );
            };
            match runtime.stream_stats(stream_id) {
                Ok(report) => ok(id, stream_json(&report)),
                Err(err) => runtime_fail(id, &err),
            }
        }
        None => {
            let report = runtime.stats();
            let streams: Vec<Json> = report.streams.iter().map(stream_json).collect();
            ok(
                id,
                Json::obj([
                    ("total_frames", Json::from(report.total_frames)),
                    ("total_dropped", Json::from(report.total_dropped)),
                    ("virtual_makespan_s", Json::from(report.virtual_makespan_s)),
                    (
                        "modeled_pipelined_fps",
                        Json::from(report.modeled_pipelined_fps),
                    ),
                    ("wall_fps", Json::from(report.wall_fps())),
                    ("kernel_backend", Json::str(report.kernel_backend)),
                    (
                        "stage_backends",
                        stage_backends_json(&report.stage_backends),
                    ),
                    ("preproc_reuse", preproc_reuse_json(&report)),
                    ("streams", Json::Arr(streams)),
                ]),
            )
        }
    }
}

/// The previous-frame reuse tally the aggregate view exposes: warm
/// hits, cold misses and the warm ratio (`hits / (hits + misses)`).
/// Warm and cold frames are bit-identical, but a ratio pinned near 0.0
/// is the silent-fallback diagnostic (the AABB drifts every frame, so
/// reuse never engages). `policy` is always `on`; it stays on the wire
/// only because `benchmark/` checks it (ROADMAP item 5).
fn preproc_reuse_json(report: &RuntimeReport) -> Json {
    Json::obj([
        ("policy", Json::str(report.preproc_reuse)),
        ("hits", Json::Num(report.preproc_reuse_hits as f64)),
        ("misses", Json::Num(report.preproc_reuse_misses as f64)),
        ("warm_ratio", Json::from(report.preproc_warm_ratio())),
    ])
}

/// The `{stage: backend}` map the aggregate view exposes — the JSON face
/// of [`StageBackendNames`] (host-speed provenance; every backend is
/// bit-identical to its anchor).
fn stage_backends_json(stages: &StageBackendNames) -> Json {
    Json::obj(
        stages
            .as_pairs()
            .map(|(stage, backend)| (stage, Json::str(backend))),
    )
}

fn latency_ms_json(summary: &LatencySummary) -> Json {
    Json::obj([
        ("p50", Json::from(summary.p50.ms())),
        ("p95", Json::from(summary.p95.ms())),
        ("p99", Json::from(summary.p99.ms())),
        ("max", Json::from(summary.max.ms())),
        ("mean", Json::from(summary.mean.ms())),
    ])
}

fn stream_json(s: &StreamReport) -> Json {
    Json::obj([
        ("stream_id", Json::from(s.stream_id)),
        ("name", Json::str(s.name.clone())),
        ("offered", Json::from(s.offered)),
        ("completed", Json::from(s.completed)),
        ("dropped", Json::from(s.dropped)),
        ("sensor_fps", Json::from(s.sensor_fps)),
        ("preproc_reuse", Json::str(s.preproc_reuse)),
        ("preproc_reuse_hits", Json::Num(s.preproc_reuse_hits as f64)),
        (
            "preproc_reuse_misses",
            Json::Num(s.preproc_reuse_misses as f64),
        ),
        ("achieved_fps", Json::from(s.achieved_fps)),
        ("service_ms", latency_ms_json(&s.service)),
        ("sojourn_ms", latency_ms_json(&s.sojourn)),
    ])
}

//! `hgpcn-serve` — the HTTP/JSON-RPC serving front end over the
//! session-oriented runtime.
//!
//! The runtime crate's [`ServingRuntime`] is transport-agnostic; this
//! crate is one front end over it (the microkernel seam: one core API,
//! multiple front ends — the batch `Runtime::run` driver is another).
//! It speaks JSON-RPC 2.0 over HTTP/1.1, std-only, via the in-tree
//! [`minihttp`] compat layer:
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /rpc` | JSON-RPC 2.0: `open_stream`, `submit_cloud`, `poll_result`, `stream_stats` |
//! | `GET /health` | liveness probe: `{"status":"ok"}`, or 503 `{"status":"shutting_down"}` once a worker panic has ended the session |
//! | `GET /metrics` | Prometheus text format, from the live stats snapshot |
//!
//! A process serves one [`ServingRuntime`] ([`App::new`]); more
//! throughput comes from more workers in that runtime, or more processes.
//!
//! Error contract: transport problems (unparseable JSON, invalid
//! envelope) are HTTP 4xx carrying the standard JSON-RPC error codes
//! (`-32700`, `-32600`); method-level failures are HTTP 200 with a
//! JSON-RPC error object whose code is the stable
//! [`RuntimeError::code`](hgpcn_runtime::RuntimeError::code) mapping.
//! A *frame* failure is not an RPC failure: `poll_result` resolves with
//! `{"status": "failed", "error": {...}}` and the server keeps serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rpc;
pub mod smoke;

use std::sync::Arc;

use hgpcn_pcn::{PointNet, PointNetConfig};
use hgpcn_runtime::{RuntimeConfig, RuntimeError, ServingRuntime};
use minihttp::http::{Limits, Request, Response, Server, ServerHandle};
use minihttp::json::Json;

/// The served application: a live serving runtime plus the HTTP router.
#[derive(Debug)]
pub struct App {
    runtime: Arc<ServingRuntime>,
}

impl App {
    /// Boots a serving session over `net` with `config`.
    ///
    /// The network is `impl Into<Arc<PointNet>>` like
    /// [`ServingRuntime::start`]: by-value call sites compile unchanged,
    /// and callers who still need the net (e.g. for calibration) can
    /// pass an `Arc` clone instead of cloning the weights.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `config` fails
    /// validation — callers turn this into a clean startup failure, not
    /// a worker panic.
    pub fn new(config: RuntimeConfig, net: impl Into<Arc<PointNet>>) -> Result<App, RuntimeError> {
        Ok(App::from_runtime(ServingRuntime::start(config, net)?))
    }

    /// Serves an already started runtime, e.g. one over a custom pipeline
    /// ([`ServingRuntime::start_with_pipeline`]).
    pub fn from_runtime(runtime: ServingRuntime) -> App {
        App {
            runtime: Arc::new(runtime),
        }
    }

    /// The live serving runtime.
    pub fn runtime(&self) -> &ServingRuntime {
        &self.runtime
    }

    /// Routes one HTTP request. Pure function of the request and the
    /// session state — the tests drive it in-process, the server binary
    /// drives it from sockets; both see identical responses.
    pub fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") if self.runtime.is_live() => Response::json("{\"status\":\"ok\"}"),
            ("GET", "/health") => Response::json_status(503, "{\"status\":\"shutting_down\"}"),
            ("GET", "/metrics") => {
                let text = self.runtime.stats().build_metrics().prometheus_text();
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body: text.into_bytes(),
                }
            }
            ("POST", "/rpc") => rpc::handle(self.runtime.as_ref(), &req.body),
            (_, "/rpc") | (_, "/health") | (_, "/metrics") => {
                Response::text(405, "method not allowed\n")
            }
            _ => Response::text(404, "not found\n"),
        }
    }

    /// Binds `addr` and serves until the handle is stopped.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(self, addr: &str) -> std::io::Result<ServerHandle> {
        let app = Arc::new(self);
        Server::bind(addr, Limits::default(), move |req: &Request| {
            app.handle(req)
        })
    }
}

/// The default network the binary serves: the paper's 40-class
/// classification PointNet++, seeded deterministically.
pub fn default_net(seed: u64) -> PointNet {
    PointNet::new(PointNetConfig::classification(), seed)
}

/// Ready-to-paste client JSON for every RPC method — the output of the
/// `config` subcommand. Deterministic, so docs and golden tests can
/// quote it verbatim.
pub fn config_text(addr: &str) -> String {
    let tiny_cloud: Vec<Json> = (0..4)
        .map(|i| {
            let f = i as f64;
            Json::Arr(vec![
                Json::Num((f * 0.618_034).fract()),
                Json::Num((f * 0.414_214).fract()),
                Json::Num((f * 0.732_051).fract()),
            ])
        })
        .collect();
    let envelope = |id: usize, method: &str, params: Json| {
        Json::obj([
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::from(id)),
            ("method", Json::str(method)),
            ("params", params),
        ])
        .to_string()
    };
    let open = envelope(
        1,
        "open_stream",
        Json::obj([
            ("name", Json::str("lidar-a")),
            ("nominal_fps", Json::from(10.0)),
        ]),
    );
    let submit = envelope(
        2,
        "submit_cloud",
        Json::obj([
            ("stream_id", Json::from(0usize)),
            ("sensor_ts_s", Json::from(0.0)),
            ("points", Json::Arr(tiny_cloud)),
        ]),
    );
    let poll = envelope(
        3,
        "poll_result",
        Json::obj([
            ("stream_id", Json::from(0usize)),
            ("frame_index", Json::from(0usize)),
            ("wait", Json::from(true)),
        ]),
    );
    let stats = envelope(
        4,
        "stream_stats",
        Json::obj([("stream_id", Json::from(0usize))]),
    );
    format!(
        "# hgpcn-serve client examples (server at http://{addr})\n\
         #\n\
         # NOTE: the example cloud has 4 points for brevity; a real frame\n\
         # must carry at least the server's --target-points points.\n\
         \n\
         # 1. open a stream\n\
         curl -s http://{addr}/rpc -d '{open}'\n\
         \n\
         # 2. submit a frame (returns the ticket {{stream_id, frame_index}})\n\
         curl -s http://{addr}/rpc -d '{submit}'\n\
         \n\
         # 3. poll the ticket (wait=true blocks until the frame resolves)\n\
         curl -s http://{addr}/rpc -d '{poll}'\n\
         \n\
         # 4. per-stream serving stats\n\
         curl -s http://{addr}/rpc -d '{stats}'\n\
         \n\
         # liveness + Prometheus metrics\n\
         curl -s http://{addr}/health\n\
         curl -s http://{addr}/metrics\n"
    )
}

//! Hostile-input properties for the RPC surface: arbitrary bytes,
//! truncated bodies, corrupted envelopes and oversized clouds must all
//! produce well-formed JSON-RPC error responses — never a panic, a
//! hang, or an unparseable reply.

use std::sync::OnceLock;

use hgpcn_runtime::RuntimeConfig;
use hgpcn_serve::rpc::{self, MAX_CLOUD_POINTS};
use hgpcn_serve::{default_net, App};
use minihttp::json::{self, Json};
use proptest::prelude::*;

/// One shared serving session for every property case: booting worker
/// pools per case would dominate the run, and the properties only
/// exercise the parse/dispatch layer (no frame ever gets admitted).
fn app() -> &'static App {
    static APP: OnceLock<App> = OnceLock::new();
    APP.get_or_init(|| {
        let config = RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .target_points(512)
            .seed(1);
        App::new(config, default_net(1)).unwrap()
    })
}

/// Dispatches a raw body and asserts the universal response invariants:
/// a 200 or 400 status, a parseable JSON body, a `"2.0"` envelope, and
/// exactly one of `result`/`error`. Returns the parsed body.
fn well_formed(body: &[u8]) -> Result<(u16, Json), TestCaseError> {
    let resp = rpc::handle(app().runtime(), body);
    prop_assert!(
        resp.status == 200 || resp.status == 400,
        "unexpected status {}",
        resp.status
    );
    let text = String::from_utf8(resp.body.clone());
    prop_assert!(text.is_ok(), "response body is not UTF-8");
    let doc = json::parse(&text.unwrap());
    prop_assert!(doc.is_ok(), "response body is not JSON: {doc:?}");
    let doc = doc.unwrap();
    prop_assert_eq!(doc.str_at("jsonrpc"), Some("2.0"));
    prop_assert!(
        doc.path("result").is_some() ^ doc.path("error").is_some(),
        "response must carry exactly one of result/error: {}",
        doc
    );
    Ok((resp.status, doc))
}

/// A syntactically valid submit_cloud request to mutilate.
fn valid_submit_body() -> String {
    r#"{"jsonrpc":"2.0","id":42,"method":"submit_cloud","params":{"stream_id":0,"sensor_ts_s":1.5,"points":[[0.1,0.2,0.3],[0.4,0.5,0.6]]}}"#
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte garbage (including invalid UTF-8) never crashes
    /// the dispatcher and always yields a well-formed reply.
    #[test]
    fn random_bytes_yield_wellformed_errors(
        body in prop::collection::vec(0u8..=255, 0..512),
    ) {
        well_formed(&body)?;
    }

    /// Every proper prefix of a valid request is invalid JSON, so it
    /// must be a 400 carrying the standard parse-error code.
    #[test]
    fn truncated_bodies_are_parse_errors(cut in 0usize..137) {
        let full = valid_submit_body();
        prop_assume!(cut < full.len());
        let (status, doc) = well_formed(&full.as_bytes()[..cut])?;
        prop_assert_eq!(status, 400);
        prop_assert_eq!(doc.num("error.code"), Some(-32700.0));
    }

    /// Corrupted envelopes (wrong version, missing/non-string method,
    /// structured id) are invalid requests, and the error is
    /// distinguishable from a parse error.
    #[test]
    fn bad_envelopes_are_invalid_requests(variant in 0usize..5) {
        let body = match variant {
            0 => r#"{"id":1,"method":"stream_stats"}"#,                  // no version
            1 => r#"{"jsonrpc":2,"id":1,"method":"stream_stats"}"#,      // numeric version
            2 => r#"{"jsonrpc":"2.1","id":1,"method":"stream_stats"}"#,  // wrong version
            3 => r#"{"jsonrpc":"2.0","id":1}"#,                          // no method
            _ => r#"{"jsonrpc":"2.0","id":{},"method":"stream_stats"}"#, // object id
        };
        let (status, doc) = well_formed(body.as_bytes())?;
        prop_assert_eq!(status, 400);
        prop_assert_eq!(doc.num("error.code"), Some(-32600.0));
    }

    /// Structurally broken params (wrong types, malformed points) are
    /// invalid-params errors, never admitted frames.
    #[test]
    fn broken_params_are_invalid_params(variant in 0usize..7) {
        let params = match variant {
            0 => r#"{"points":[[0,0,0]]}"#,                          // no stream_id
            1 => r#"{"stream_id":-1,"points":[[0,0,0]]}"#,           // negative id
            2 => r#"{"stream_id":0,"points":[[0,0]]}"#,              // 2-tuple point
            3 => r#"{"stream_id":0,"points":[[0,0,0,0]]}"#,          // 4-tuple point
            4 => r#"{"stream_id":0,"points":[0]}"#,                  // scalar point
            5 => r#"{"stream_id":0,"points":[[1e39,0,0]]}"#,         // overflows f32
            _ => r#"{"stream_id":0,"points":[]}"#,                   // empty cloud
        };
        let body = format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"submit_cloud","params":{params}}}"#
        );
        let (status, doc) = well_formed(body.as_bytes())?;
        prop_assert_eq!(status, 200, "method-level failure");
        prop_assert_eq!(doc.num("error.code"), Some(-32602.0));
    }
}

/// A cloud one point over the cap is refused with invalid-params before
/// any geometry is built. (Plain test: the ~6 MB body is too expensive
/// to generate hundreds of times.)
#[test]
fn oversized_clouds_are_refused() {
    let mut body = String::with_capacity(MAX_CLOUD_POINTS * 9 + 128);
    body.push_str(
        r#"{"jsonrpc":"2.0","id":1,"method":"submit_cloud","params":{"stream_id":0,"points":["#,
    );
    for i in 0..=MAX_CLOUD_POINTS {
        if i > 0 {
            body.push(',');
        }
        body.push_str("[0,0,0]");
    }
    body.push_str("]}}");
    let resp = rpc::handle(app().runtime(), body.as_bytes());
    assert_eq!(resp.status, 200);
    let doc = json::parse(&String::from_utf8(resp.body).unwrap()).unwrap();
    assert_eq!(doc.num("error.code"), Some(-32602.0));
    let message = doc.str_at("error.message").unwrap();
    assert!(message.contains("at most"), "unhelpful message: {message}");
}

/// One arithmetic tier is served: `open_stream` accepts `"precision"`
/// only as `"f32"` or absent, and refuses anything else rather than
/// silently serving f32 to a client that asked for another tier.
#[test]
fn open_stream_refuses_any_precision_but_f32() {
    let open = |extra: &str| {
        let body = format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"open_stream","params":{{"name":"s"{extra}}}}}"#
        );
        let resp = rpc::handle(app().runtime(), body.as_bytes());
        assert_eq!(resp.status, 200, "method-level outcome");
        json::parse(&String::from_utf8(resp.body).unwrap()).unwrap()
    };
    for refused in [r#","precision":"int8""#, r#","precision":7"#] {
        let doc = open(refused);
        assert_eq!(doc.num("error.code"), Some(-32602.0), "{refused}");
        let message = doc.str_at("error.message").unwrap();
        assert!(
            message.contains("precision"),
            "unhelpful message: {message}"
        );
    }
    for accepted in [r#","precision":"f32""#, ""] {
        let doc = open(accepted);
        assert!(doc.usize_at("result.stream_id").is_some(), "{accepted:?}");
    }
}

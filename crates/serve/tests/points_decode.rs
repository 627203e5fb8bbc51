//! The `points` decoder against its oracle. `json::parse_request` reads
//! `params.points` straight into `Point3`s; the oracle is the whole-tree
//! `json::parse` plus the walk `submit_cloud` once made over the tree.
//! On every body, well-formed or mutated, the two must agree: the same
//! `f32` bits per coordinate, the same structural error, the same parse
//! error at the same byte. And `rpc::handle` must answer every body with
//! the code and message the walk implies.

use std::sync::OnceLock;

use hgpcn_geometry::Point3;
use hgpcn_runtime::RuntimeConfig;
use hgpcn_serve::rpc::{self, MAX_CLOUD_POINTS};
use hgpcn_serve::{default_net, App};
use minihttp::json::{self, CloudError, Json, ParseError};
use proptest::prelude::*;

/// A stream id no test opens: a cloud that passes the wire checks is
/// refused by the runtime as `unknown_stream`, so no frame is admitted.
const STREAM: usize = 999_999;

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

/// `params.points` with every coordinate as its bits.
type Decoded = Result<Result<Vec<[u32; 3]>, CloudError>, ParseError>;

fn bits(p: Point3) -> [u32; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

fn decoder(text: &str, max_points: usize) -> Decoded {
    let (_, points) = json::parse_request::<Point3>(text, max_points)?;
    Ok(points.map(|cloud| cloud.into_iter().map(bits).collect()))
}

fn oracle(text: &str, max_points: usize) -> Decoded {
    let doc = json::parse(text)?;
    Ok(doc
        .path("params.points")
        .map_or(Err(CloudError::NotArray), |p| walk(p, max_points)))
}

/// The tree walk: each coordinate is the parsed `f64` narrowed to `f32`,
/// and must be finite *as an `f32`*.
fn walk(points: &Json, max_points: usize) -> Result<Vec<[u32; 3]>, CloudError> {
    let Json::Arr(points) = points else {
        return Err(CloudError::NotArray);
    };
    if points.is_empty() {
        return Err(CloudError::Empty);
    }
    if points.len() > max_points {
        return Err(CloudError::TooMany(points.len()));
    }
    let mut cloud = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let Json::Arr(coords) = p else {
            return Err(CloudError::PointNotArray(i));
        };
        let [Json::Num(x), Json::Num(y), Json::Num(z)] = coords.as_slice() else {
            return Err(CloudError::NotTriple(i));
        };
        let p = Point3::new(*x as f32, *y as f32, *z as f32);
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            return Err(CloudError::NonFinite(i));
        }
        cloud.push(bits(p));
    }
    Ok(cloud)
}

/// The wire's −32602 message for each structural error.
fn message(err: &CloudError) -> String {
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

/// `(HTTP status, error.code, error.message or error.data.code)`.
type Answer = (u16, Option<f64>, Option<String>);

/// What `rpc::handle` must answer, by the oracle.
fn expected(text: &str) -> Answer {
    let wire = |err: &CloudError| (200, Some(-32602.0), Some(message(err)));
    match oracle(text, MAX_CLOUD_POINTS) {
        Err(e) => (400, Some(-32700.0), Some(e.to_string())),
        Ok(Err(err)) => wire(&err),
        Ok(Ok(_)) => (200, Some(-32005.0), Some("unknown_stream".to_string())),
    }
}

fn answer(text: &str) -> Answer {
    let resp = rpc::handle(app().runtime(), text.as_bytes());
    let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let detail = doc
        .str_at("error.data.code")
        .or_else(|| doc.str_at("error.message"))
        .map(str::to_owned);
    (resp.status, doc.num("error.code"), detail)
}

/// Every comparison on one body: the decoder against the oracle at the
/// wire's cap and, when `params.points` is an array, one under, at and
/// one over its length; its tree against the oracle's minus
/// `params.points`; and the wire's answer.
fn check(text: &str) -> Result<(), TestCaseError> {
    let mut caps = vec![MAX_CLOUD_POINTS];
    if let Some(n) = json::parse(text)
        .ok()
        .and_then(|doc| doc.arr("params.points").map(<[Json]>::len))
    {
        caps.extend([n.saturating_sub(1), n, n + 1]);
    }
    for max in caps {
        prop_assert_eq!(
            decoder(text, max),
            oracle(text, max),
            "cap {} on {}",
            max,
            text
        );
    }
    if let Ok(mut tree) = json::parse(text) {
        if let Json::Obj(doc) = &mut tree {
            if let Some(Json::Obj(params)) = doc.get_mut("params") {
                params.remove("points");
            }
        }
        let (doc, _) = json::parse_request::<Point3>(text, MAX_CLOUD_POINTS).unwrap();
        prop_assert_eq!(doc, tree);
    }
    prop_assert_eq!(answer(text), expected(text), "on {}", text);
    Ok(())
}

fn ws() -> impl Strategy<Value = &'static str> {
    (0usize..6).prop_map(|k| ["", "", " ", "\n", "\t ", " \r\n "][k])
}

/// A decimal just above the midpoint between two adjacent `f32`s in
/// [1, 2^24), written exactly and then one unit in the 31st decimal
/// place more. Read as `f64` it *is* the midpoint, which narrowing
/// rounds to the even neighbour; read straight as `f32` it rounds up.
/// So for half of these only the `f64` step gives the walk's bits.
fn above_midpoint(bits: u32) -> String {
    let lo = f32::from_bits(0x3f80_0000 + bits % 0x0c00_0000);
    let hi = f32::from_bits(lo.to_bits() + 1);
    let mid = (f64::from(lo) + f64::from(hi)) / 2.0;
    let sign = if bits >> 31 == 1 { "-" } else { "" };
    // At most 24 fractional bits, so `{:.30}` prints `mid` exactly.
    format!("{sign}{mid:.30}1")
}

/// One coordinate, written the way some client might write it.
fn coord() -> impl Strategy<Value = String> {
    (0u8..8, 0u32..=u32::MAX, 17usize..26).prop_map(|(kind, bits, digits)| {
        let raw = f32::from_bits(bits);
        let x = if raw.is_finite() {
            raw
        } else {
            f32::from_bits(bits & 0xff7f_ffff)
        };
        match kind {
            0 => format!("{x}"),
            1 => format!("{x:e}"),
            2 => format!("{:.*e}", digits, f64::from(x)),
            3 if bits % 2 == 0 => format!("{}", bits as i32),
            3 => format!("{}", u64::from(bits).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            4 => ["-0", "-0.0", "-0e0", "0"][bits as usize % 4].to_string(),
            // Subnormal (or zero) f32s, and f64s too small for any f32.
            5 if bits % 2 == 0 => format!("{:e}", f32::from_bits(bits & 0x807f_ffff)),
            5 => format!("{:e}", f64::from(bits) * 1e-60),
            6 => above_midpoint(bits),
            // At and just under f32::MAX, and one in 64 just past the
            // point where narrowing rounds to infinity (MAX + 2^103).
            _ => format!(
                "{:e}",
                f64::from(f32::MAX) + (f64::from(bits % 64) - 57.0) * 2e30
            ),
        }
    })
}

fn point() -> impl Strategy<Value = String> {
    let token = || (ws(), coord(), ws()).prop_map(|(a, c, b)| format!("{a}{c}{b}"));
    (ws(), token(), token(), token(), ws())
        .prop_map(|(a, x, y, z, b)| format!("{a}[{x},{y},{z}]{b}"))
}

/// A `submit_cloud` body split around its `points` text, which is the
/// only part the mutations edit.
fn request() -> impl Strategy<Value = (String, String, String)> {
    (prop::collection::vec(point(), 0..40), prop::bool::ANY).prop_map(|(points, first)| {
        let head = r#"{"jsonrpc":"2.0","id":7,"method":"submit_cloud","params":{"#;
        let stream = format!(r#""stream_id":{STREAM}"#);
        let (open, close) = if first {
            (format!(r#"{head}"points":"#), format!(",{stream}}}}}"))
        } else {
            (format!(r#"{head}{stream},"points":"#), "}}".to_string())
        };
        (open, format!("[{}]", points.join(",")), close)
    })
}

/// Bytes an edit inserts or writes: structure, number and literal
/// characters, whitespace, and a few that are never valid here.
const ALPHABET: &[u8] = b"[],{}:\"0123456789-+.eEtfnx \n";

/// One edit of the points text: `(kind, position, byte)`, where kind
/// 0 deletes, 1 inserts and 2 overwrites.
fn edit() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..3, 0usize..4096, 0..ALPHABET.len())
}

proptest! {
    /// Well-formed clouds of every spelling decode bit-for-bit as the
    /// walk narrows them, and the wire answers as the walk implies.
    #[test]
    fn decoder_matches_the_walk_bit_for_bit(body in request()) {
        let (open, points, close) = body;
        check(&format!("{open}{points}{close}"))?;
    }

    /// Mutated clouds fail where, and as, the walk fails: the same
    /// structural error or the same parse error at the same byte.
    #[test]
    fn mutated_clouds_fail_like_the_walk(
        body in request(),
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        let (open, points, close) = body;
        let mut points = points.into_bytes();
        for (kind, at, byte) in edits {
            let byte = ALPHABET[byte];
            match kind {
                0 if !points.is_empty() => {
                    points.remove(at % points.len());
                }
                1 => points.insert(at % (points.len() + 1), byte),
                _ if !points.is_empty() => {
                    let at = at % points.len();
                    points[at] = byte;
                }
                _ => points.push(byte),
            }
        }
        let points = String::from_utf8(points).unwrap();
        check(&format!("{open}{points}{close}"))?;
    }
}

//! JSON tree, strict parser, deterministic serializer.
//!
//! Shared by the serving front end and the repository tools
//! (`trace_check`), with the hardening a network-facing
//! layer needs: a nesting-depth cap (a `[[[[…` bomb fails with
//! [`ParseError`] instead of overflowing the stack), strict number validation, and a serializer (`Display`) whose
//! output is deterministic — objects are `BTreeMap`s, so two equal
//! trees render byte-identically.
//!
//! [`parse_request`] is the same parser with one difference, for a
//! JSON-RPC request that carries a point cloud: `params.points` is
//! decoded into `[x, y, z]` points as it is read, capped, instead of
//! becoming a tree of three-element arrays.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth [`parse`] accepts. Deep enough for any sane
/// payload, shallow enough that the recursive parser cannot be driven
/// to stack overflow by hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps traversal and render order
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a dotted path like `"result.status"`.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            match cur {
                Json::Obj(map) => cur = map.get(key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The number at `path`, if present.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.path(path)? {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number at `path` as a `usize`, if present, non-negative and
    /// integral.
    pub fn usize_at(&self, path: &str) -> Option<usize> {
        let v = self.num(path)?;
        (v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64).then_some(v as usize)
    }

    /// The string at `path`, if present.
    pub fn str_at(&self, path: &str) -> Option<&str> {
        match self.path(path)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean at `path`, if present.
    pub fn bool_at(&self, path: &str) -> Option<bool> {
        match self.path(path)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array at `path`, if present.
    pub fn arr(&self, path: &str) -> Option<&[Json]> {
        match self.path(path)? {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_fmt(format_args!("{c}"))?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact, deterministic rendering (no whitespace; object keys in
    /// `BTreeMap` order). Non-finite numbers render as `null` — JSON
    /// has no representation for them, and a serving layer must never
    /// emit unparseable output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Why a parse failed (byte offset + reason).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Static reason.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Why a request's `params.points` is not a cloud ([`parse_request`]).
///
/// The first failure wins, in the order a walk over the parsed tree
/// finds it: the array itself (not an array, empty, too long), then
/// each point in turn.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CloudError {
    /// `params.points` is absent or not an array.
    NotArray,
    /// `points` is `[]`.
    Empty,
    /// `points` has this many elements, more than the cap.
    TooMany(usize),
    /// `points[i]` is not an array.
    PointNotArray(usize),
    /// `points[i]` is not exactly three numbers.
    NotTriple(usize),
    /// `points[i]` has a coordinate that is not finite as an `f32`.
    NonFinite(usize),
}

/// One element of `points`: a point, or the [`CloudError`] variant to
/// report at its index.
type PointResult = Result<[f32; 3], fn(usize) -> CloudError>;

struct Parser<'a, P> {
    text: &'a str,
    pos: usize,
    /// The cap on stored points when parsing a request; `None` in plain
    /// [`parse`], which decodes nothing.
    max_points: Option<usize>,
    /// Set while the value of the top-level `params` member is parsed.
    in_params: bool,
    /// What became of `params.points`.
    points: Result<Vec<P>, CloudError>,
}

impl<'a, P: From<[f32; 3]>> Parser<'a, P> {
    fn new(text: &'a str, max_points: Option<usize>) -> Self {
        Parser {
            text,
            pos: 0,
            max_points,
            in_params: false,
            points: Err(CloudError::NotArray),
        }
    }

    fn document(&mut self) -> Result<Json, ParseError> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError {
            pos: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number().map(Json::Num),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            match self.max_points {
                // Only the params object is an object at depth 1 while
                // `in_params` is set.
                Some(max) if depth == 1 && self.in_params && key == "points" => {
                    self.points = self.cloud(depth + 1, max)?;
                }
                _ => {
                    // The last `params` member is the one the tree keeps.
                    let params = depth == 0 && key == "params";
                    if params {
                        self.in_params = true;
                        self.points = Err(CloudError::NotArray);
                    }
                    let value = self.value(depth + 1)?;
                    if params {
                        self.in_params = false;
                    }
                    map.insert(key, value);
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// `params.points`, parsed with [`Parser::array`]'s grammar (so a
    /// syntax error is the one [`parse`] reports, at the same byte) but
    /// decoded straight into points: no [`Json`] is built for a triple.
    /// At most `max` points are stored; the rest are only counted and
    /// syntax-checked, as is everything after the first bad point.
    fn cloud(
        &mut self,
        depth: usize,
        max: usize,
    ) -> Result<Result<Vec<P>, CloudError>, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err(CloudError::NotArray));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Err(CloudError::Empty));
        }
        let mut cloud = Vec::new();
        let mut first_err = None;
        let mut count = 0;
        loop {
            match self.point(depth + 1)? {
                Ok(p) if first_err.is_none() && count < max => cloud.push(P::from(p)),
                Err(e) if first_err.is_none() => first_err = Some(e(count)),
                _ => {}
            }
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        Ok(if count > max {
            Err(CloudError::TooMany(count))
        } else {
            first_err.map_or(Ok(cloud), Err)
        })
    }

    /// One element of `points`, parsed as [`Parser::value`] would parse
    /// it and read as `[x, y, z]`: each coordinate is the `f64` the
    /// number scanner returns, narrowed to `f32`.
    fn point(&mut self, depth: usize) -> Result<PointResult, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err(CloudError::PointNotArray));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Err(CloudError::NotTriple));
        }
        let mut xyz = [0.0f64; 3];
        let mut len = 0;
        let mut numbers = true;
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some(b'{' | b'[' | b'"' | b't' | b'f' | b'n') => {
                    self.value(depth + 1)?;
                    numbers = false;
                }
                _ => {
                    let v = self.number()?;
                    if let Some(slot) = xyz.get_mut(len) {
                        *slot = v;
                    }
                }
            }
            len += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        if !numbers || len != 3 {
            return Ok(Err(CloudError::NotTriple));
        }
        // A finite f64 can still overflow f32: check what is stored.
        let p = xyz.map(|v| v as f32);
        Ok(if p.iter().all(|c| c.is_finite()) {
            Ok(p)
        } else {
            Err(CloudError::NonFinite)
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the raw byte run (UTF-8 passes through intact).
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        self.text
                            .get(start..self.pos)
                            .ok_or_else(|| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    /// The one number scanner: [`Parser::value`] wraps what it returns
    /// in a [`Json::Num`], [`Parser::point`] stores it as a coordinate.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        self.text
            .get(start..self.pos)
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses `text` as one complete JSON document.
///
/// # Errors
///
/// [`ParseError`] on any syntax violation, trailing data, non-finite
/// numbers, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    Parser::<[f32; 3]>::new(text, None).document()
}

/// Parses a JSON-RPC request like [`parse`], except that `params.points`
/// is decoded straight into points while the text is read: no [`Json`]
/// is built for it, and at most `max_points` points are stored.
///
/// Returns the tree without `params.points`, and the points or the first
/// [`CloudError`] (`NotArray` when `params` is not an object or has no
/// `points`). Each coordinate is the `f64` that [`parse`] reads,
/// narrowed to `f32`.
///
/// # Errors
///
/// The [`ParseError`] that [`parse`] returns on the same text.
pub fn parse_request<P: From<[f32; 3]>>(
    text: &str,
    max_points: usize,
) -> Result<(Json, Result<Vec<P>, CloudError>), ParseError> {
    let mut p = Parser::new(text, Some(max_points));
    let doc = p.document()?;
    Ok((doc, p.points))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let j =
            parse(r#"{"a": {"b": 1.5, "c": [1, 2]}, "d": -3e2, "s": "x\ny", "t": true}"#).unwrap();
        assert_eq!(j.num("a.b"), Some(1.5));
        assert_eq!(j.num("d"), Some(-300.0));
        assert_eq!(j.str_at("s"), Some("x\ny"));
        assert_eq!(j.path("s"), Some(&Json::Str("x\ny".to_owned())));
        assert_eq!(j.bool_at("t"), Some(true));
        assert_eq!(j.arr("a.c").map(<[Json]>::len), Some(2));
        assert_eq!(j.usize_at("a.b"), None, "1.5 is not integral");
        assert_eq!(j.num("a.missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
        assert!(parse("").is_err());
        assert!(parse("+-").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers are rejected");
    }

    #[test]
    fn parses_the_bench_schema() {
        let j = parse(
            r#"{
  "bench": "runtime_batching",
  "schema_version": 1,
  "serial": {"frames": 32, "wall_fps": 24.0, "p95_service_ms": 3.17, "kernel_backend": "reference"},
  "batched": {"frames": 32, "wall_fps": 35.0, "p95_service_ms": 3.17, "kernel_backend": "avx2"},
  "kernel_backend": "avx2",
  "kernel_gmacs": 21.7,
  "kernel_gmacs_vs_reference": 2.6,
  "speedup": 1.45
}"#,
        )
        .unwrap();
        assert_eq!(j.num("speedup"), Some(1.45));
        assert_eq!(j.num("batched.p95_service_ms"), Some(3.17));
        assert_eq!(j.num("kernel_gmacs"), Some(21.7));
        assert_eq!(j.str_at("kernel_backend"), Some("avx2"));
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_crash() {
        let bomb = "[".repeat(100_000);
        assert_eq!(parse(&bomb).unwrap_err().what, "nesting too deep");
    }

    #[test]
    fn roundtrips_deterministically() {
        let j = Json::obj([
            ("b", Json::from(2.5)),
            ("a", Json::from("he\"llo\n")),
            (
                "c",
                Json::Arr(vec![Json::Null, Json::from(true), Json::from(3usize)]),
            ),
        ]);
        let text = j.to_string();
        assert_eq!(text, r#"{"a":"he\"llo\n","b":2.5,"c":[null,true,3]}"#);
        assert_eq!(parse(&text).unwrap(), j);
        assert_eq!(parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn nonfinite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    type Decoded = Result<Vec<[f32; 3]>, CloudError>;

    fn request(text: &str, max_points: usize) -> (Json, Decoded) {
        parse_request(text, max_points).unwrap()
    }

    #[test]
    fn request_points_leave_the_tree_as_points() {
        let (doc, points) = request(
            r#"{"method":"m","params":{"stream_id":3,"points":[[1, 2.5,-3e1],[ 0,0 ,0 ]]}}"#,
            8,
        );
        assert_eq!(points, Ok(vec![[1.0, 2.5, -30.0], [0.0; 3]]));
        assert_eq!(doc.usize_at("params.stream_id"), Some(3));
        assert_eq!(doc.path("params.points"), None);
        assert_eq!(doc.str_at("method"), Some("m"));
    }

    #[test]
    fn only_params_points_is_decoded() {
        for text in [
            r#"{"points":[[1,2,3]]}"#,
            r#"{"params":{"inner":{"points":[[1,2,3]]}}}"#,
            r#"{"params":[{"points":[[1,2,3]]}]}"#,
            r#"[{"params":{"points":[[1,2,3]]}}]"#,
        ] {
            let (doc, points) = request(text, 8);
            assert_eq!(points, Err(CloudError::NotArray), "{text}");
            assert_eq!(doc, parse(text).unwrap(), "{text}");
        }
        // The last `params` member is the one the tree keeps.
        let (doc, points) = request(r#"{"params":{"points":[[1,2,3]]},"params":5}"#, 8);
        assert_eq!(
            (doc.num("params"), points),
            (Some(5.0), Err(CloudError::NotArray))
        );
    }

    #[test]
    fn structural_errors_come_in_walk_order() {
        let points =
            |body: &str, max| request(&format!(r#"{{"params":{{"points":{body}}}}}"#), max).1;
        assert_eq!(points("7", 8), Err(CloudError::NotArray));
        assert_eq!(points("[ ]", 8), Err(CloudError::Empty));
        assert_eq!(points("[[1,2,3],0]", 8), Err(CloudError::PointNotArray(1)));
        assert_eq!(points("[[1,2,3],[1,2]]", 8), Err(CloudError::NotTriple(1)));
        assert_eq!(points(r#"[[1,2,"3"]]"#, 8), Err(CloudError::NotTriple(0)));
        assert_eq!(points("[[1,2,3,4]]", 8), Err(CloudError::NotTriple(0)));
        assert_eq!(points("[[1e39,0,0]]", 8), Err(CloudError::NonFinite(0)));
        // The count is checked before any point, and counted past the cap.
        assert_eq!(
            points("[[1,2],[1,2,3],[1,2,3]]", 2),
            Err(CloudError::TooMany(3))
        );
        assert_eq!(points("[[1,2,3],[1,2,3]]", 2).unwrap().len(), 2);
    }

    #[test]
    fn request_syntax_errors_are_parses() {
        for text in [
            r#"{"params":{"points":[[1,2,3]"#,
            r#"{"params":{"points":[[1,2,3],]}}"#,
            r#"{"params":{"points":[[1,2,]]}}"#,
            r#"{"params":{"points":[[1 2 3]]}}"#,
            r#"{"params":{"points":[[1,2,1e999]]}}"#,
            r#"{"params":{"points":[[1,2],[x]]}}"#,
            r#"{"params":{"points":[[1,2,3]]}} x"#,
        ] {
            assert_eq!(
                parse_request::<[f32; 3]>(text, 8).unwrap_err(),
                parse(text).unwrap_err(),
                "{text}"
            );
        }
    }
}

//! A bounded, thread-per-connection HTTP/1.1 server and a blocking
//! client, both std-only.
//!
//! Scope: exactly what a loopback JSON-RPC front end needs. `GET`/`POST`
//! with `Content-Length` bodies, keep-alive, explicit size limits and
//! graceful stop. Not supported (answered with a clean 4xx/5xx, never a
//! hang): chunked transfer encoding, upgrades, TLS, pipelining beyond
//! serial keep-alive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Size limits a [`Server`] enforces per request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` (413 beyond).
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout; a stalled peer is dropped
    /// instead of pinning its thread forever.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 16 * 1024,
            // Generous enough for large point clouds as JSON, small
            // enough to bound one connection's memory.
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string (after `?`), empty if absent.
    pub query: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A JSON response with an explicit status.
    pub fn json_status(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response with an explicit status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            _ => "",
        }
    }
}

/// What went wrong reading one request off a connection.
enum ReadOutcome {
    Ok(Request),
    /// Peer closed cleanly between requests — end the keep-alive loop.
    Closed,
    /// Protocol violation; respond with this and close.
    Reject(Response),
}

fn read_request(reader: &mut BufReader<TcpStream>, limits: &Limits) -> ReadOutcome {
    // --- Head: request line + headers, bounded. ---
    let mut head = Vec::new();
    loop {
        let mut line = Vec::new();
        // read_until returns 0 only at EOF.
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => {
                return if head.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Reject(Response::text(400, "truncated request head\n"))
                };
            }
            Ok(_) => {}
            Err(_) => {
                return if head.is_empty() {
                    ReadOutcome::Closed // read timeout between requests
                } else {
                    ReadOutcome::Reject(Response::text(408, "timed out reading request\n"))
                };
            }
        }
        if head.len() + line.len() > limits.max_head_bytes {
            return ReadOutcome::Reject(Response::text(431, "request head too large\n"));
        }
        let blank = line == b"\r\n" || line == b"\n";
        head.extend_from_slice(&line);
        if blank && head.len() > line.len() {
            break; // end of headers
        }
        if blank {
            // Leading blank line(s) before the request line are
            // tolerated (RFC 9112 §2.2); reset and keep reading.
            head.clear();
        }
    }

    let head = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => return ReadOutcome::Reject(Response::text(400, "non-UTF-8 request head\n")),
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return ReadOutcome::Reject(Response::text(400, "malformed request line\n")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ReadOutcome::Reject(Response::text(400, "unsupported HTTP version\n"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => return ReadOutcome::Reject(Response::text(400, "malformed header line\n")),
        }
    }

    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        body: Vec::new(),
    };

    // --- Body: Content-Length only. ---
    if request.header("transfer-encoding").is_some() {
        return ReadOutcome::Reject(Response::text(501, "chunked bodies not supported\n"));
    }
    let content_length = match request.header("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ReadOutcome::Reject(Response::text(400, "bad content-length\n")),
        },
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return ReadOutcome::Reject(Response::text(413, "request body too large\n"));
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        // EOF or timeout mid-body: the declared length never arrived.
        return ReadOutcome::Reject(Response::text(400, "truncated request body\n"));
    }
    request.body = body;
    ReadOutcome::Ok(request)
}

/// Sends one HTTP message, head and body in one write. As two, Nagle's
/// algorithm holds the body until the peer acknowledges the head, and a
/// peer waiting for the body delays that acknowledgement: ~40 ms per
/// keep-alive exchange, in steps that depend on the peer's delayed-ACK
/// state.
fn write_message(stream: &mut impl Write, head: String, body: &[u8]) -> std::io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

fn write_response(
    stream: &mut impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    write_message(stream, head, &response.body)
}

fn serve_connection<H>(stream: TcpStream, handler: &H, limits: &Limits, stopping: &AtomicBool)
where
    H: Fn(&Request) -> Response,
{
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        match read_request(&mut reader, limits) {
            ReadOutcome::Ok(request) => {
                let response = handler(&request);
                let close = stopping.load(Ordering::Acquire)
                    || request
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if write_response(&mut stream, &response, close).is_err() || close {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Reject(response) => {
                let _ = write_response(&mut stream, &response, true);
                return;
            }
        }
    }
}

/// A running HTTP server; dropping it (or calling
/// [`ServerHandle::stop`]) shuts the listener down.
pub struct ServerHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. In-flight
    /// connection threads finish their current response and close
    /// (keep-alive is not honoured once stopping).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stopping.store(true, Ordering::Release);
        // Unblock accept() with a wake-up connection; the loop checks
        // the flag before serving it.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// serves every request through `handler`, one thread per
    /// connection.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<H>(
        addr: impl ToSocketAddrs,
        limits: Limits,
        handler: H,
    ) -> std::io::Result<ServerHandle>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let accept_stopping = Arc::clone(&stopping);
        let handler = Arc::new(handler);
        let accept_thread = thread::Builder::new()
            .name("minihttp-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = Arc::clone(&handler);
                    let stopping = Arc::clone(&accept_stopping);
                    let _ = thread::Builder::new()
                        .name("minihttp-conn".to_string())
                        .spawn(move || {
                            serve_connection(stream, handler.as_ref(), &limits, &stopping);
                        });
                }
            })
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            stopping,
            accept_thread: Some(accept_thread),
        })
    }
}

/// A parsed client-side response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Performs one blocking HTTP/1.1 request (`connection: close`) and
/// reads the full response — the std-only client the tests and the load
/// smoke are built on.
///
/// # Errors
///
/// Propagates socket errors; malformed responses surface as
/// `InvalidData`.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    write_request(&mut stream, method, path, body)?;
    let _ = stream.shutdown(Shutdown::Write);
    read_client_response(stream)
}

fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    );
    write_message(stream, head, body)
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn read_client_response(stream: TcpStream) -> std::io::Result<ClientResponse> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("truncated response head"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| invalid("bad header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = Some(value.parse().map_err(|_| invalid("bad content-length"))?);
        }
        headers.push((name, value));
    }
    let body = match content_length {
        Some(n) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> ServerHandle {
        Server::bind("127.0.0.1:0", Limits::default(), |req: &Request| {
            Response::json(format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{}}}",
                req.method,
                req.path,
                req.body.len()
            ))
        })
        .expect("bind loopback")
    }

    #[test]
    fn round_trip_get_and_post() {
        let server = echo_server();
        let get = request(server.addr(), "GET", "/health", b"").unwrap();
        assert_eq!(get.status, 200);
        assert!(get.body_text().contains("\"method\":\"GET\""));
        let post = request(server.addr(), "POST", "/rpc", b"hello").unwrap();
        assert!(post.body_text().contains("\"len\":5"));
        server.stop();
    }

    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        write_request(&mut sink, "POST", "/rpc", b"{\"id\":1}").unwrap();
        assert_eq!(sink.writes, 1, "head and body must share a segment");
        let text = String::from_utf8(sink.bytes).unwrap();
        assert!(text.starts_with("POST /rpc HTTP/1.1\r\n"));
        assert!(text.ends_with("content-length: 8\r\nconnection: close\r\n\r\n{\"id\":1}"));
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        write_response(
            &mut sink,
            &Response::json("{\"ok\":true}".to_string()),
            false,
        )
        .unwrap();
        assert_eq!(sink.writes, 1, "head and body must share a segment");
        let text = String::from_utf8(sink.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 "));
        assert!(text.ends_with("connection: keep-alive\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn truncated_body_is_a_400_not_a_hang() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /rpc HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly-a-little")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let resp = read_client_response(stream).unwrap();
        assert_eq!(resp.status, 400);
        server.stop();
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let server = Server::bind(
            "127.0.0.1:0",
            Limits {
                max_body_bytes: 64,
                ..Limits::default()
            },
            |_req: &Request| Response::json("{}"),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /rpc HTTP/1.1\r\ncontent-length: 65\r\n\r\n")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let resp = read_client_response(stream).unwrap();
        assert_eq!(resp.status, 413);
        server.stop();
    }

    #[test]
    fn garbage_request_line_is_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let resp = read_client_response(stream).unwrap();
        assert_eq!(resp.status, 400);
        server.stop();
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for i in 0..3 {
            stream
                .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            // Read one full response off the shared connection.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("200"), "request {i}: got {line:?}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
        }
        server.stop();
    }
}

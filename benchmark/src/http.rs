//! The open-loop workload: pre-encoded JSON-RPC frames sent on a seeded
//! schedule to an `hgpcn-serve` child process over loopback.
//!
//! Two connections, two threads: one submits at the due times, one
//! collects results with `poll_result{wait:true}`. The child is always
//! killed and reaped — on success, on error, on panic, and by the
//! watchdog — and a dead server fails the run instead of hanging it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hgpcn_geometry::{Point3, PointCloud};
use minihttp::json::{self, Json};

use crate::load::{p, FrameSample, Identity, LoadOutcome, Plan, MODELED_FRAMES};
use crate::procfs::{self, Who};
use crate::report::Metrics;
use crate::schedule;
use crate::stats::{self, ms_since};
use crate::verify::{Kept, Returned};
use crate::workload::{self, Workload};

const IO_TIMEOUT: Duration = Duration::from_secs(20);
const BOOT_DEADLINE: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// The child server.
// ---------------------------------------------------------------------

/// The one live server child, reachable from the watchdog as well as
/// from [`Server`]'s destructor.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// Kills and reaps the server child if one is running. Idempotent.
pub fn kill_server() {
    let child = CHILD.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Where `run.sh` leaves the server binary: next to this one.
pub fn default_server_binary() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent().unwrap_or(Path::new(".")).join("hgpcn-serve")
}

/// A running `hgpcn-serve`; dropping it kills and reaps the process.
struct Server {
    addr: String,
    pid: u32,
    boot_ms: f64,
}

impl Drop for Server {
    fn drop(&mut self) {
        kill_server();
    }
}

impl Server {
    /// Spawns the server on a free loopback port (it binds port 0 and
    /// prints what it got) and waits, with a deadline, until `/health`
    /// answers. The child inherits this process's environment, which
    /// `main` has already scrubbed of every `HGPCN_*` variable.
    fn spawn(binary: &Path, w: &Workload) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--preproc", &workload::PREPROC_WORKERS.to_string()])
            .args(["--infer", &workload::INFERENCE_WORKERS.to_string()])
            .args(["--queue", &workload::QUEUE_CAPACITY.to_string()])
            .args(["--max-batch", &w.kind.max_batch().to_string()])
            .args(["--target-points", &w.kind.target_points().to_string()])
            .args(["--seed", &w.base_seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot start {}: {e} (build it with benchmark/run.sh)",
                    binary.display()
                )
            })?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let previous = CHILD.lock().expect("child registry").replace(child);
        assert!(previous.is_none(), "one server at a time");
        // From here on an early return drops `server`, which kills the child.
        let mut server = Server {
            addr: String::new(),
            pid,
            boot_ms: 0.0,
        };

        // The first line names the bound address; the rest is drained so
        // the child can never block on a full pipe.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next().and_then(Result::ok));
            lines.for_each(drop);
        });
        let banner = rx
            .recv_timeout(BOOT_DEADLINE)
            .ok()
            .flatten()
            .ok_or("server printed no listening banner before the deadline")?;
        server.addr = banner
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':') && banner.contains("listening"))
            .ok_or(format!("unexpected server banner {banner:?}"))?
            .trim()
            .to_string();
        loop {
            if let Ok(mut conn) = Conn::connect(&server.addr) {
                if matches!(conn.request("GET", "/health", &[]), Ok((200, _))) {
                    break;
                }
            }
            if t0.elapsed() > BOOT_DEADLINE {
                return Err("server did not answer /health before the deadline".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.boot_ms = ms_since(t0);
        Ok(server)
    }

    /// Appends "and the server is gone" to an error when that is why.
    fn explain(&self, err: String) -> String {
        let mut guard = CHILD.lock().expect("child registry");
        match guard.as_mut().map(Child::try_wait) {
            Some(Ok(Some(status))) => format!("{err}; hgpcn-serve died mid-run ({status})"),
            _ => err,
        }
    }
}

// ---------------------------------------------------------------------
// A keep-alive HTTP/1.1 client connection.
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// One request whose body is the concatenation of `parts`; returns
    /// the status and the body. The connection stays open.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        parts: &[&[u8]],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {len}\r\nconnection: keep-alive\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        for part in parts {
            self.stream.write_all(part)?;
        }
        self.stream.flush()?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed by server"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// One JSON-RPC call; `params` is the raw JSON of the params object,
    /// possibly in several pieces. Returns the `result` member.
    fn rpc(&mut self, id: usize, method: &str, params: &[&[u8]]) -> Result<Json, String> {
        let open = format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{method}\",\"params\":");
        let mut parts: Vec<&[u8]> = vec![open.as_bytes()];
        parts.extend_from_slice(params);
        parts.push(b"}");
        let (status, body) = self
            .request("POST", "/rpc", &parts)
            .map_err(|e| format!("{method}: transport error: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(format!("{method}: HTTP {status}: {text}"));
        }
        let doc = json::parse(&text).map_err(|e| format!("{method}: bad response: {e}"))?;
        if let Some(err) = doc.path("error") {
            return Err(format!("{method}: rpc error {err}"));
        }
        doc.path("result")
            .cloned()
            .ok_or(format!("{method}: response has no result"))
    }
}

// ---------------------------------------------------------------------
// Bodies.
// ---------------------------------------------------------------------

/// The `points` array of every distinct frame, encoded once.
pub struct EncodedPool {
    texts: Vec<String>,
    pub encode_ms: Vec<f64>,
    /// `minihttp::json::parse` wall time on each text, milliseconds.
    pub parse_ms: Vec<f64>,
}

impl EncodedPool {
    pub fn bytes(&self) -> usize {
        self.texts.iter().map(String::len).sum()
    }
}

fn encode_points(cloud: &PointCloud) -> String {
    use std::fmt::Write as _;
    // `{}` on an f32 prints the shortest decimal that reads back as the
    // same f32: what a careful client would send.
    let mut text = String::with_capacity(cloud.len() * 32);
    text.push('[');
    for (i, p) in cloud.points().iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        let _ = write!(text, "[{},{},{}]", p.x, p.y, p.z);
    }
    text.push(']');
    text
}

/// The cloud the server builds from a `points` text: JSON numbers are
/// f64, narrowed to f32 — the same code path as `submit_cloud`.
fn decode_points(doc: &Json) -> PointCloud {
    let Json::Arr(points) = doc else {
        panic!("points text is an array")
    };
    let points = points
        .iter()
        .map(|p| match p {
            Json::Arr(c) => match c.as_slice() {
                [Json::Num(x), Json::Num(y), Json::Num(z)] => {
                    Point3::new(*x as f32, *y as f32, *z as f32)
                }
                _ => panic!("point is not [x, y, z]"),
            },
            _ => panic!("point is not an array"),
        })
        .collect();
    PointCloud::from_points(points)
}

/// Encodes every distinct frame and replaces the workload's clouds by
/// what the server will decode from those exact bytes, so the output
/// check recomputes on the server's input, not on a near copy of it.
pub fn encode_pool(w: &mut Workload) -> EncodedPool {
    let mut pool = EncodedPool {
        texts: Vec::new(),
        encode_ms: Vec::new(),
        parse_ms: Vec::new(),
    };
    for cloud in w.shared_pool_mut() {
        let t = Instant::now();
        let text = encode_points(cloud);
        pool.encode_ms.push(ms_since(t));
        let t = Instant::now();
        let doc = json::parse(&text).expect("own encoding parses");
        pool.parse_ms.push(ms_since(t));
        *cloud = decode_points(&doc);
        pool.texts.push(text);
    }
    pool
}

/// The wire's `done` result, reduced to what the checks need.
fn wire_result(result: &Json, stream: usize, index: usize) -> Result<(Kept, f64), String> {
    let at = format!("stream {stream} frame {index}");
    if result.str_at("status") != Some("done") {
        return Err(format!("{at}: {result}"));
    }
    let num = |path: &str| {
        result
            .num(path)
            .ok_or(format!("{at}: no {path} in {result}"))
    };
    let pre_s = num("timing.virtual_preproc_done_s")? - num("timing.virtual_preproc_start_s")?;
    let inf_s = num("timing.virtual_done_s")? - num("timing.virtual_infer_start_s")?;
    let kept = Kept {
        stream,
        index,
        // The wire does not say; these inputs never repeat an AABB.
        reused: false,
        returned: Returned::Wire {
            predicted_class: num("output.predicted_class")? as usize,
            macs: num("output.macs")? as u64,
            pre_s,
            inf_s,
            clock_s: num("timing.virtual_done_s")?,
        },
    };
    Ok((kept, (pre_s + inf_s) * 1e3))
}

// ---------------------------------------------------------------------
// Set-up, the open loop, and the probes around it.
// ---------------------------------------------------------------------

/// Two open connections, the streams, and frame 0 of stream 0 served.
struct Session {
    submit: Conn,
    wait: Conn,
    ids: Vec<usize>,
    open_rtt_ms: Vec<f64>,
    first: Kept,
    first_modeled_ms: f64,
    first_frame_ms: f64,
}

/// The head of a `submit_cloud` params object; the points text and a
/// closing brace follow it on the wire.
fn submit_open(sid: usize, ts_s: f64) -> String {
    format!("{{\"stream_id\":{sid},\"sensor_ts_s\":{ts_s},\"points\":")
}

fn wait_params(sid: usize, index: usize) -> String {
    format!("{{\"stream_id\":{sid},\"frame_index\":{index},\"wait\":true}}")
}

fn open_session(server: &Server, w: &Workload, pool: &EncodedPool) -> Result<Session, String> {
    let mut submit = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let wait = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    let mut open_rtt_ms = Vec::new();
    for s in 0..w.streams() {
        let params = format!("{{\"name\":\"{}-{s}\",\"nominal_fps\":10}}", w.name());
        let t = Instant::now();
        let result = submit.rpc(s, "open_stream", &[params.as_bytes()])?;
        open_rtt_ms.push(ms_since(t));
        ids.push(
            result
                .usize_at("stream_id")
                .ok_or("open_stream: no stream_id")?,
        );
    }
    let t_submit = Instant::now();
    let text = pool.texts[w.shared_slot(0, 0)].as_bytes();
    submit.rpc(
        0,
        "submit_cloud",
        &[submit_open(ids[0], 0.0).as_bytes(), text, b"}"],
    )?;
    let result = submit.rpc(0, "poll_result", &[wait_params(ids[0], 0).as_bytes()])?;
    let (first, first_modeled_ms) = wire_result(&result, 0, 0)?;
    Ok(Session {
        first_frame_ms: ms_since(t_submit),
        submit,
        wait,
        ids,
        open_rtt_ms,
        first,
        first_modeled_ms,
    })
}

/// Spawn → healthy → streams open → first frame's result returned.
fn set_up(
    binary: &Path,
    w: &Workload,
    pool: &EncodedPool,
) -> Result<(f64, Server, Session), String> {
    let t0 = Instant::now();
    let server = Server::spawn(binary, w)?;
    match open_session(&server, w, pool) {
        Ok(session) => Ok((t0.elapsed().as_secs_f64(), server, session)),
        Err(e) => Err(server.explain(e)),
    }
}

struct Sent {
    g: usize,
    due_s: f64,
    lag_ms: f64,
    rtt_ms: f64,
    bytes: usize,
}

struct Received {
    g: usize,
    due_s: f64,
    recv_s: f64,
    /// Server CPU seconds at that moment.
    cpu_s: f64,
    rtt_ms: f64,
    result: Result<(Kept, f64), String>,
}

fn scrape(addr: &str) -> Result<(f64, String), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (status, body) = conn
        .request("GET", "/metrics", &[])
        .map_err(|e| format!("/metrics: {e}"))?;
    let ms = ms_since(t);
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    Ok((ms, String::from_utf8_lossy(&body).into_owned()))
}

/// Value of an unlabelled series in Prometheus text, or 0 if absent.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            (series == name).then(|| value.parse().ok())?
        })
        .unwrap_or(0.0)
}

fn timed_rpc(conn: &mut Conn, method: &str, params: &str) -> Result<(f64, Json), String> {
    let t = Instant::now();
    let result = conn.rpc(0, method, &[params.as_bytes()])?;
    Ok((ms_since(t), result))
}

/// Runs the open-loop workload end to end.
pub fn run(
    w: &Workload,
    pool: &EncodedPool,
    plan: &Plan,
    binary: &Path,
) -> Result<LoadOutcome, String> {
    let mut setup_s = Vec::new();
    let mut boot_ms = Vec::new();
    let mut booted = None;
    for _ in 0..plan.setups.max(1) {
        drop(booted.take()); // kills the previous set-up's server
        let (secs, server, session) = set_up(binary, w, pool)?;
        setup_s.push(secs);
        boot_ms.push(server.boot_ms);
        booted = Some((server, session));
    }
    let (server, session) = booted.expect("at least one set-up");
    let Session {
        mut submit,
        mut wait,
        ids,
        open_rtt_ms,
        first,
        first_modeled_ms,
        first_frame_ms,
    } = session;
    let fail = |e: String| server.explain(e);

    let (stats_first_ms, _) = timed_rpc(&mut submit, "stream_stats", "{}").map_err(fail)?;
    let (scrape_first_ms, _) = scrape(&server.addr).map_err(fail)?;

    // The schedule: frame g (g >= 1; frame 0 went through set-up) is due
    // at dues[g - 1] seconds after `origin`.
    let total_s = plan.warmup_s + plan.measure_s;
    let n = (workload::HTTP_RATE_FPS * total_s).ceil() as usize;
    let dues = schedule::due_times(
        w.base_seed,
        workload::HTTP_RATE_FPS,
        workload::HTTP_JITTER,
        n,
    );
    let (tx, rx) = mpsc::channel::<(usize, f64)>();
    let origin = Instant::now() + Duration::from_millis(50);
    let since_origin = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();

    let (sent, received, cpu) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<Vec<Sent>, String> {
            let mut sent = Vec::with_capacity(n);
            let mut prev_reply_s = 0.0;
            for (k, &due_s) in dues.iter().enumerate() {
                let g = k + 1;
                let (stream, index) = w.nth(g);
                let open = submit_open(ids[stream], due_s);
                let text = pool.texts[w.shared_slot(stream, index)].as_bytes();
                let due = origin + Duration::from_secs_f64(due_s);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let t_send = Instant::now();
                let ticket = submit.rpc(g, "submit_cloud", &[open.as_bytes(), text, b"}"])?;
                if ticket.usize_at("frame_index") != Some(index) {
                    return Err(format!(
                        "stream {stream}: expected frame {index}, got {ticket}"
                    ));
                }
                let lag_ms = schedule::lag_s(due_s, prev_reply_s, since_origin(t_send)) * 1e3;
                prev_reply_s = since_origin(Instant::now());
                sent.push(Sent {
                    g,
                    due_s,
                    lag_ms,
                    rtt_ms: ms_since(t_send),
                    bytes: open.len() + text.len() + 1,
                });
                if tx.send((g, due_s)).is_err() {
                    break; // the collector gave up; it carries the reason
                }
            }
            drop(tx);
            Ok(sent)
        });
        let collector = scope.spawn(|| -> Result<Vec<Received>, String> {
            // Owned here, so an early error hangs up on the sender.
            let rx = rx;
            let mut received = Vec::with_capacity(n);
            for (g, due_s) in rx.iter() {
                let (stream, index) = w.nth(g);
                let t = Instant::now();
                let result = wait.rpc(
                    g,
                    "poll_result",
                    &[wait_params(ids[stream], index).as_bytes()],
                )?;
                received.push(Received {
                    g,
                    due_s,
                    recv_s: since_origin(Instant::now()),
                    cpu_s: procfs::cpu_seconds(Who::Pid(server.pid)).unwrap_or(0.0),
                    rtt_ms: ms_since(t),
                    result: wire_result(&result, stream, index),
                });
            }
            Ok(received)
        });
        // This thread only brackets the measured phase with CPU readings:
        // the server's at its start, this process's across it.
        let cpu = |who| procfs::cpu_seconds(who).unwrap_or(0.0);
        let sleep_until = |s: f64| {
            let at = origin + Duration::from_secs_f64(s);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        };
        sleep_until(plan.warmup_s);
        let (server_cpu0, client_cpu0) = (cpu(Who::Pid(server.pid)), cpu(Who::Me));
        sleep_until(total_s);
        let client_cpu_s = cpu(Who::Me) - client_cpu0;
        (
            sender.join().expect("sender thread"),
            collector.join().expect("collector thread"),
            (server_cpu0, client_cpu_s),
        )
    });
    let (server_cpu0, client_cpu_s) = cpu;
    let sent = sent.map_err(fail)?;
    let received = received.map_err(fail)?;

    // After the run: the cheap endpoints, the identity, the last scrape.
    let mut health_ms = Vec::new();
    let mut stream_stats_ms = Vec::new();
    for _ in 0..11 {
        let t = Instant::now();
        let ok = submit
            .request("GET", "/health", &[])
            .map_err(|e| fail(e.to_string()))?;
        health_ms.push(ms_since(t));
        if ok.0 != 200 {
            return Err(fail(format!("/health: HTTP {}", ok.0)));
        }
        let params = format!("{{\"stream_id\":{}}}", ids[0]);
        stream_stats_ms.push(
            timed_rpc(&mut submit, "stream_stats", &params)
                .map_err(fail)?
                .0,
        );
    }
    let (stats_last_ms, stats) = timed_rpc(&mut submit, "stream_stats", "{}").map_err(fail)?;
    let (scrape_last_ms, prom) = scrape(&server.addr).map_err(fail)?;
    let server_rss = procfs::rss_mib(Who::Pid(server.pid)).unwrap_or(0.0);
    let server_peak = procfs::peak_rss_mib(Who::Pid(server.pid)).unwrap_or(0.0);
    let t = Instant::now();
    drop((submit, wait));
    drop(server);
    let shutdown_ms = ms_since(t);

    // Fold the two threads' logs into samples of the measured phase.
    let in_phase = |due_s: f64| due_s >= plan.warmup_s && due_s < total_s;
    let mut samples = Vec::new();
    let mut kept = Vec::new();
    let mut failed = sent.len() - received.len(); // never finished
    let mut errors = 0usize;
    if plan.keeps(0) {
        kept.push(first);
    }
    let mut modeled_all = vec![first_modeled_ms];
    for (s, r) in sent.iter().zip(&received) {
        assert_eq!(s.g, r.g, "results are collected in submission order");
        match &r.result {
            Ok((k, modeled_ms)) => {
                if r.g < MODELED_FRAMES {
                    modeled_all.push(*modeled_ms);
                }
                if in_phase(r.due_s) {
                    samples.push(FrameSample {
                        done_s: r.recv_s - plan.warmup_s,
                        cpu_s: r.cpu_s - server_cpu0,
                        latency_ms: schedule::latency_s(r.due_s, r.recv_s) * 1e3,
                        modeled_ms: *modeled_ms,
                        submit_ms: s.rtt_ms,
                        ..FrameSample::default()
                    });
                }
                if plan.keeps(r.g) {
                    kept.push(k.clone());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
                errors += 1;
            }
        }
    }

    let phase = |f: fn(&Sent) -> f64| -> Vec<f64> {
        sent.iter().filter(|s| in_phase(s.due_s)).map(f).collect()
    };
    let lag_p95 = p(&phase(|s| s.lag_ms), 0.95);
    let gap_ms = 1e3 / workload::HTTP_RATE_FPS;
    let mut violations = Vec::new();
    if lag_p95 > 0.2 * gap_ms {
        violations.push(format!(
            "generator ran late: client.gen_lag_ms_p95 {lag_p95:.2} ms > 20% of the {gap_ms:.1} ms gap"
        ));
    }
    let identity = Identity {
        kernel_backend: stats.str_at("kernel_backend").unwrap_or("?").to_string(),
        stage_backends: ["sampling", "gather", "interpolate"]
            .map(|s| {
                format!(
                    "{s}={}",
                    stats.str_at(&format!("stage_backends.{s}")).unwrap_or("?")
                )
            })
            .join(" "),
        preproc_reuse: stats
            .str_at("preproc_reuse.policy")
            .unwrap_or("?")
            .to_string(),
    };
    if identity.preproc_reuse != "on" {
        violations.push(format!(
            "server preproc_reuse resolved to {:?}, not \"on\"",
            identity.preproc_reuse
        ));
    }

    let n_phase = Some(samples.len());
    let submit_rtt = phase(|s| s.rtt_ms);
    let wait_rtt: Vec<f64> = received
        .iter()
        .filter(|r| in_phase(r.due_s))
        .map(|r| r.rtt_ms)
        .collect();
    let mut m = Metrics::default();
    m.set_n("runtime.submit_ms_p50", p(&submit_rtt, 0.5), n_phase);
    m.set_n("runtime.submit_ms_p95", p(&submit_rtt, 0.95), n_phase);
    // `runtime.wall_*`, the busy shares and the largest batch are not
    // visible from outside the server process.
    m.set(
        "runtime.mean_batch_size",
        prom_value(&prom, "hgpcn_mean_batch_size"),
    );
    m.set(
        "runtime.batches",
        prom_value(&prom, "hgpcn_micro_batches_total"),
    );
    m.set(
        "runtime.reuse_hit_share",
        stats.num("preproc_reuse.warm_ratio").unwrap_or(0.0),
    );
    m.set("runtime.dropped", stats.num("total_dropped").unwrap_or(0.0));
    m.set("runtime.failed", failed as f64);
    m.set("runtime.first_frame_ms", first_frame_ms);
    m.set("runtime.stats_ms_first", stats_first_ms);
    m.set("runtime.stats_ms_last", stats_last_ms);
    m.set(
        "runtime.stats_growth",
        stats_last_ms / stats_first_ms.max(1e-9),
    );
    m.set("runtime.shutdown_ms", shutdown_ms);
    m.set_n(
        "serve.boot_ms",
        stats::median_of(&boot_ms),
        Some(boot_ms.len()),
    );
    m.set_n(
        "serve.health_rtt_ms_p50",
        stats::median_of(&health_ms),
        Some(health_ms.len()),
    );
    m.set_n(
        "serve.open_stream_rtt_ms_p50",
        stats::median_of(&open_rtt_ms),
        Some(open_rtt_ms.len()),
    );
    m.set_n("serve.submit_rtt_ms_p50", p(&submit_rtt, 0.5), n_phase);
    m.set_n("serve.submit_rtt_ms_p95", p(&submit_rtt, 0.95), n_phase);
    m.set_n("serve.wait_rtt_ms_p50", p(&wait_rtt, 0.5), n_phase);
    m.set_n(
        "serve.stream_stats_rtt_ms_p50",
        stats::median_of(&stream_stats_ms),
        Some(stream_stats_ms.len()),
    );
    m.set("serve.metrics_scrape_ms_first", scrape_first_ms);
    m.set("serve.metrics_scrape_ms_last", scrape_last_ms);
    m.set(
        "serve.metrics_scrape_growth",
        scrape_last_ms / scrape_first_ms.max(1e-9),
    );
    m.set("serve.metrics_bytes_last", prom.len() as f64);
    m.set_n(
        "serve.request_bytes_per_frame",
        phase(|s| s.bytes as f64).iter().sum::<f64>() / samples.len().max(1) as f64,
        n_phase,
    );
    m.set("serve.http_errors", errors as f64);
    m.set_n(
        "serve.server_cpu_ms_per_frame",
        samples.last().map_or(0.0, |s| s.cpu_s) * 1e3 / samples.len().max(1) as f64,
        n_phase,
    );
    m.set("serve.server_rss_mb_end", server_rss);
    m.set_n("client.gen_lag_ms_p95", lag_p95, n_phase);
    m.set("client.cpu_share", client_cpu_s / plan.measure_s);
    m.set_n(
        "client.encode_ms_per_body",
        stats::median_of(&pool.encode_ms),
        Some(pool.encode_ms.len()),
    );

    Ok(LoadOutcome {
        setup_s,
        samples,
        modeled_ms: modeled_all,
        peak_rss_mib: server_peak,
        attempted: sent.len() + 1,
        failed,
        kept,
        layer: m,
        identity,
        violations,
    })
}

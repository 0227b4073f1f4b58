//! [`ObsdServer`]: a tiny std-only HTTP/1.1 server over a
//! [`LiveRegistry`].
//!
//! Endpoints (all `GET`, all `Connection: close`):
//!
//! - `/metrics` — Prometheus text exposition v0.0.4 of the registry
//!   ([`crate::prometheus::render`]);
//! - `/healthz` — JSON liveness: `{"status":"ok","phase":...,"done":...,
//!   "uptime_ms":...}`; the status flips to `"degraded"` once a critical
//!   watchdog alert fires (see [`ObsdServer::set_alerts`]);
//! - `/events` — NDJSON stream: the connection subscribes to the
//!   registry's event tap and receives every event from subscription
//!   onward, one JSON object per line, until the run is marked done (or
//!   the server stops);
//! - `/alerts` — JSON snapshot of every watchdog alert fired so far
//!   (`{"schema_version":...,"kind":"alerts","count":...,"critical":...,
//!   "alerts":[...]}`); serving the request also runs the sink's
//!   wall-clock stall poll, so a *hung* run surfaces here even though it
//!   emits nothing;
//! - `/alerts/stream` — NDJSON: one line per fired alert, replaying those
//!   already fired and then following new ones until the run is done.
//!
//! The implementation is deliberately minimal — request line parsing only,
//! one thread per connection, no keep-alive, no chunked encoding — because
//! its clients are `curl`, Prometheus scrapers, and the CI smoke job, all
//! of which speak exactly this much HTTP.

use crate::prometheus;
use gossip_telemetry::{AlertSink, LiveRegistry, Value, SCHEMA_VERSION};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Liveness state shared between the serving run and `/healthz`.
pub struct Health {
    started: Instant,
    done: AtomicBool,
    degraded: AtomicBool,
    phase: Mutex<String>,
}

impl Health {
    fn new() -> Health {
        Health {
            started: Instant::now(),
            done: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            phase: Mutex::new("starting".to_string()),
        }
    }

    /// Names the stage the run is in (`planning`, `executing`, `complete`,
    /// ...); surfaced verbatim in `/healthz`.
    pub fn set_phase(&self, phase: &str) {
        *self.phase.lock().unwrap_or_else(|e| e.into_inner()) = phase.to_string();
    }

    /// Marks the run finished: `/events` connections drain and close.
    pub fn set_done(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// Whether the run was marked finished.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Marks the run degraded: `/healthz` reports `"degraded"` from now
    /// on. Sticky (a degraded run does not recover its status) — flipped
    /// when a critical watchdog alert fires.
    pub fn set_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Whether the run was marked degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> String {
        let phase = self.phase.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let status = if self.is_degraded() { "degraded" } else { "ok" };
        serde_json::to_string(&Value::Object(vec![
            ("status".to_string(), Value::String(status.to_string())),
            ("phase".to_string(), Value::String(phase)),
            ("done".to_string(), Value::Bool(self.is_done())),
            (
                "uptime_ms".to_string(),
                Value::from_u64(self.started.elapsed().as_millis() as u64),
            ),
        ]))
        .unwrap_or_else(|_| String::from("{\"status\":\"ok\"}"))
    }
}

type Subscribers = Arc<Mutex<Vec<mpsc::Sender<String>>>>;
type SharedSink = Arc<Mutex<Option<Arc<AlertSink>>>>;

/// The running server; dropping (or [`ObsdServer::stop`]) shuts it down.
pub struct ObsdServer {
    addr: SocketAddr,
    registry: Arc<LiveRegistry>,
    health: Arc<Health>,
    shutdown: Arc<AtomicBool>,
    alerts: SharedSink,
    accept_handle: Option<JoinHandle<()>>,
}

impl ObsdServer {
    /// Binds `listen` (e.g. `127.0.0.1:9464`; port `0` picks a free one),
    /// installs the event tap on `registry`, and starts the accept loop.
    pub fn start(listen: &str, registry: Arc<LiveRegistry>) -> io::Result<ObsdServer> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let health = Arc::new(Health::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let subscribers: Subscribers = Arc::new(Mutex::new(Vec::new()));
        let alerts: SharedSink = Arc::new(Mutex::new(None));

        // Broadcast tap: each rendered event line fans out to every live
        // `/events` subscriber; dead subscribers drop out on send failure.
        let subs = Arc::clone(&subscribers);
        registry.set_event_tap(Arc::new(move |_seq, line| {
            let mut subs = subs.lock().unwrap_or_else(|e| e.into_inner());
            subs.retain(|tx| tx.send(line.to_string()).is_ok());
        }));

        let accept_handle = {
            let registry = Arc::clone(&registry);
            let health = Arc::clone(&health);
            let shutdown = Arc::clone(&shutdown);
            let subscribers = Arc::clone(&subscribers);
            let alerts = Arc::clone(&alerts);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let registry = Arc::clone(&registry);
                    let health = Arc::clone(&health);
                    let shutdown = Arc::clone(&shutdown);
                    let subscribers = Arc::clone(&subscribers);
                    let alerts = Arc::clone(&alerts);
                    std::thread::spawn(move || {
                        let _ = handle_connection(
                            stream,
                            &registry,
                            &health,
                            &shutdown,
                            &subscribers,
                            &alerts,
                        );
                    });
                }
            })
        };

        Ok(ObsdServer {
            addr,
            registry,
            health,
            shutdown,
            alerts,
            accept_handle: Some(accept_handle),
        })
    }

    /// Attaches a watchdog alert sink: `/alerts` and `/alerts/stream`
    /// serve it, and `/healthz` degrades once it carries a critical
    /// alert. May be called after the server is already serving (the CLI
    /// builds its `AlertEngine` only once planning is done).
    pub fn set_alerts(&self, sink: Arc<AlertSink>) {
        *self.alerts.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// The bound address (resolves the actual port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared liveness state, for the run driver to update.
    pub fn health(&self) -> Arc<Health> {
        Arc::clone(&self.health)
    }

    /// Stops accepting, detaches the event tap, and joins the accept loop.
    /// In-flight `/events` connections drain and close on their own.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        if self.accept_handle.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Relaxed);
        self.health.set_done();
        self.registry.clear_event_tap();
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ObsdServer {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// The sink, if one was attached — consulted per request so a sink set
/// mid-run is picked up. Also the degradation point: the wall-clock stall
/// poll runs and a critical alert flips `/healthz`, so watching happens
/// even when the run thread itself is wedged.
fn current_sink(alerts: &SharedSink, health: &Health) -> Option<Arc<AlertSink>> {
    let sink = alerts
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)?;
    sink.poll();
    if sink.has_critical() {
        health.set_degraded();
    }
    Some(sink)
}

/// Longest request line a connection may send, newline included.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
/// Longest header block a connection may send after its request line.
const MAX_HEADERS: u64 = 64 * 1024;
/// How long a connection may take to send its request line and headers.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// The read side of a connection under one deadline: each read waits
/// only for the time left, so trickled bytes cannot extend it. Past the
/// deadline the stream reads as ended, and `expired` is set.
struct Deadline {
    stream: TcpStream,
    at: Instant,
    expired: bool,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                read => return read,
            }
        }
        self.expired = true;
        Ok(0)
    }
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &LiveRegistry,
    health: &Health,
    shutdown: &AtomicBool,
    subscribers: &Subscribers,
    alerts: &SharedSink,
) -> io::Result<()> {
    // Both reads are bounded and share one deadline: past a bound or the
    // deadline the request is refused and the connection closed without
    // reading (or buffering) any more of it.
    let head = Deadline {
        stream: stream.try_clone()?,
        at: Instant::now() + HEAD_DEADLINE,
        expired: false,
    };
    let mut reader = BufReader::new(head).take(MAX_REQUEST_LINE);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    if reader.limit() == 0 && !request_line.ends_with('\n') {
        return write_response(
            &mut stream,
            "414 URI Too Long",
            "text/plain",
            "request line too long\n",
        );
    }
    // Drain the headers so well-behaved clients aren't RST mid-send.
    let mut reader = reader.into_inner().take(MAX_HEADERS);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            if reader.limit() == 0 {
                return write_response(
                    &mut stream,
                    "431 Request Header Fields Too Large",
                    "text/plain",
                    "headers too large\n",
                );
            }
            break;
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    if reader.get_ref().get_ref().expired {
        return write_response(
            &mut stream,
            "408 Request Timeout",
            "text/plain",
            "request head not received in time\n",
        );
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    if method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
    }
    match path {
        "/metrics" => {
            // Scraping also runs the sink's wall-clock stall poll, and
            // the sink (when attached) is the authoritative source for
            // `gossip_alerts_total` — a poll-fired alert shows up on the
            // very scrape that fired it, not at the next recorded event.
            let sink = current_sink(alerts, health);
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &prometheus::render_with_alerts(registry, sink.as_deref()),
            )
        }
        "/healthz" => {
            current_sink(alerts, health);
            write_response(&mut stream, "200 OK", "application/json", &health.to_json())
        }
        "/events" => stream_events(stream, health, shutdown, subscribers),
        "/alerts" => {
            let body = match current_sink(alerts, health) {
                Some(sink) => sink.to_value(),
                None => empty_alerts(),
            };
            write_response(
                &mut stream,
                "200 OK",
                "application/json",
                &serde_json::to_string(&body).unwrap_or_else(|_| String::from("{}")),
            )
        }
        "/alerts/stream" => stream_alerts(stream, health, shutdown, alerts),
        _ => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// The `/alerts` shape when no sink is attached: a valid, empty snapshot.
fn empty_alerts() -> Value {
    Value::Object(vec![
        (
            "schema_version".to_string(),
            Value::from_u64(SCHEMA_VERSION),
        ),
        ("kind".to_string(), Value::String("alerts".to_string())),
        ("count".to_string(), Value::from_u64(0)),
        ("critical".to_string(), Value::Bool(false)),
        ("alerts".to_string(), Value::Array(Vec::new())),
    ])
}

/// NDJSON follow of the alert sink: replays every alert already fired,
/// then polls for new ones until the run finishes. Alerts are rare, so a
/// 50 ms poll against the sink (there is no per-alert broadcast channel)
/// costs nothing and keeps the sink free of subscriber plumbing.
fn stream_alerts(
    mut stream: TcpStream,
    health: &Health,
    shutdown: &AtomicBool,
    alerts: &SharedSink,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut sent = 0usize;
    loop {
        // Observe the finish flag *before* draining, so alerts fired
        // before the run was marked done are always delivered.
        let finished = health.is_done() || shutdown.load(Ordering::Relaxed);
        if let Some(sink) = current_sink(alerts, health) {
            let all = sink.alerts();
            for alert in &all[sent.min(all.len())..] {
                let line =
                    serde_json::to_string(&alert.to_value()).unwrap_or_else(|_| String::from("{}"));
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
            }
            if all.len() > sent {
                sent = all.len();
                stream.flush()?;
            }
        }
        if finished {
            stream.flush()?;
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn stream_events(
    mut stream: TcpStream,
    health: &Health,
    shutdown: &AtomicBool,
    subscribers: &Subscribers,
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel::<String>();
    subscribers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(tx);
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                stream.flush()?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Once the run is done (or the server stops) there is
                // nothing more to wait for: drain whatever is queued and
                // close so clients see EOF, not a hang.
                if health.is_done() || shutdown.load(Ordering::Relaxed) {
                    while let Ok(line) = rx.try_recv() {
                        stream.write_all(line.as_bytes())?;
                        stream.write_all(b"\n")?;
                    }
                    stream.flush()?;
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::Recorder;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let registry = Arc::new(LiveRegistry::new());
        registry.counter("exec/deliveries", 3);
        registry.gauge("round_current", 2.0);
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("gossip_exec_deliveries 3\n"));
        assert!(metrics.contains("gossip_round_current 2\n"));

        let health = get(addr, "/healthz");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"done\":false"));
        server.health().set_phase("executing");
        assert!(get(addr, "/healthz").contains("\"phase\":\"executing\""));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        server.stop();
    }

    /// Whether `reply` is a response with `status`, or a cut-off start of
    /// one: the server closes without reading the rest of an oversized
    /// request, and the reset that follows may truncate or drop its reply.
    fn refused_with(reply: &str, status: &str) -> bool {
        let head = format!("HTTP/1.1 {status}");
        reply.starts_with(&head) || head.starts_with(reply)
    }

    /// Sends `head` and returns what came back before the server closed
    /// or reset the connection.
    fn send_raw(addr: SocketAddr, head: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        // The server may stop reading (and reset) mid-send.
        let _ = s.write_all(head);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn oversized_requests_are_refused_and_serving_continues() {
        let registry = Arc::new(LiveRegistry::new());
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();

        let long_line = vec![b'A'; 1 << 20];
        let reply = send_raw(addr, &long_line);
        assert!(refused_with(&reply, "414"), "{reply}");

        let mut long_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..2048 {
            long_headers.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "b".repeat(64)).as_bytes());
        }
        long_headers.extend_from_slice(b"\r\n");
        let reply = send_raw(addr, &long_headers);
        assert!(refused_with(&reply, "431"), "{reply}");

        // Requests just inside both bounds are still served.
        let mut fits = format!("GET /healthz?{} HTTP/1.1\r\n", "q".repeat(7 * 1024)).into_bytes();
        for i in 0..512 {
            fits.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "b".repeat(64)).as_bytes());
        }
        fits.extend_from_slice(b"\r\n");
        assert!(send_raw(addr, &fits).starts_with("HTTP/1.1 200 OK"));
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
        server.stop();
    }

    #[test]
    fn a_trickled_request_head_is_cut_off_at_its_deadline() {
        let registry = Arc::new(LiveRegistry::new());
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = client.try_clone().unwrap();
        let start = Instant::now();
        // One byte every 250 ms, never a newline: each byte would restart
        // a per-read timeout.
        let trickle = std::thread::spawn(move || {
            while start.elapsed() < Duration::from_secs(10) && writer.write_all(b"G").is_ok() {
                std::thread::sleep(Duration::from_millis(250));
            }
        });
        let mut reply = Vec::new();
        let _ = client.read_to_end(&mut reply);
        let waited = start.elapsed();
        client.shutdown(std::net::Shutdown::Both).ok();
        trickle.join().unwrap();
        assert!(waited < Duration::from_secs(7), "held for {waited:?}");
        let reply = String::from_utf8_lossy(&reply);
        assert!(refused_with(&reply, "408"), "{reply}");
        server.stop();
    }

    #[test]
    fn scrapes_observe_live_progress() {
        let registry = Arc::new(LiveRegistry::new());
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();
        registry.gauge("round_current", 1.0);
        assert!(get(addr, "/metrics").contains("gossip_round_current 1\n"));
        registry.gauge("round_current", 5.0);
        assert!(get(addr, "/metrics").contains("gossip_round_current 5\n"));
        server.stop();
    }

    #[test]
    fn alerts_endpoint_snapshots_and_degrades_healthz() {
        use gossip_telemetry::watch::{RuleSet, Severity, StallRule};
        let registry = Arc::new(LiveRegistry::new());
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();

        // No sink attached: a valid empty snapshot, healthy status.
        let body = get(addr, "/alerts");
        assert!(body.contains("\"kind\":\"alerts\""), "{body}");
        assert!(body.contains("\"count\":0"));
        assert!(get(addr, "/healthz").contains("\"status\":\"ok\""));

        // A sink whose stall budget is already blown: the request-side
        // poll fires the alert and flips health to degraded.
        let rules = RuleSet {
            stall: Some(StallRule {
                budget_ms: 1,
                severity: Severity::Critical,
            }),
            ..Default::default()
        };
        let sink = Arc::new(AlertSink::new(rules));
        server.set_alerts(Arc::clone(&sink));
        std::thread::sleep(Duration::from_millis(10));
        let body = get(addr, "/alerts");
        assert!(body.contains("\"rule\":\"stall\""), "{body}");
        assert!(body.contains("\"critical\":true"));
        assert!(get(addr, "/healthz").contains("\"status\":\"degraded\""));

        // The exposition reports the poll-fired alert straight from the
        // sink — no registry counter exists yet (nothing flowed through
        // an engine), but the scrape must not miss it.
        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("gossip_alerts_total{rule=\"stall\",severity=\"critical\"} 1\n"),
            "{metrics}"
        );

        // The NDJSON follow drains the fired alert and closes on done.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /alerts/stream HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        server.health().set_done();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        let payload = body.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = payload.lines().collect();
        assert_eq!(lines.len(), 1, "{payload}");
        let v: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["rule"].as_str(), Some("stall"));
        assert_eq!(v["severity"].as_str(), Some("critical"));
        server.stop();
    }

    #[test]
    fn events_stream_ndjson_until_done() {
        let registry = Arc::new(LiveRegistry::new());
        let server = ObsdServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.addr();
        let health = server.health();

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        // Give the subscription a beat to register before emitting.
        std::thread::sleep(Duration::from_millis(100));
        for t in 0..3u64 {
            registry.event("round_end", &[("round", Value::from_u64(t))]);
        }
        health.set_done();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        let payload = body.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = payload.lines().collect();
        assert_eq!(lines.len(), 3, "{payload}");
        let mut prev = None;
        for line in lines {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["event"].as_str(), Some("round_end"));
            let round = v["round"].as_u64().unwrap();
            assert!(prev.is_none_or(|p| round > p), "rounds must be monotone");
            prev = Some(round);
        }
        server.stop();
    }
}

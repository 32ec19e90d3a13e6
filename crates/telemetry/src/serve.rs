//! A std-only mini HTTP server: the `/metrics` + `/status` endpoint,
//! and the reusable listener the campaign service builds its API on.
//!
//! Long campaigns are batch jobs; their health should be observable from
//! the outside while they run, without adding an HTTP framework to a
//! zero-dependency workspace. [`HttpServer`] speaks just enough HTTP/1.1
//! for `curl`, Prometheus scrapes, the smoke tests and the
//! `fades-service` JSON API: it reads one request head (bounded), routes
//! it through a handler closure, writes one `Connection: close`
//! response. One background thread blocked in `accept`, so a request is
//! served the moment it arrives; no keep-alive, no chunking. Shutdown
//! sets a stop flag and then connects once to the listener itself,
//! which wakes the `accept` (an unspecified bind address such as
//! `0.0.0.0` is woken through loopback). The only sleep in the loop is
//! a short backoff after a failed `accept` (EMFILE and the like), so a
//! persistent error cannot spin the thread.
//!
//! The read path is hardened against slow and oversized clients — a
//! public listener must not let one bad connection park the serving
//! thread forever:
//!
//! * the request head (request line + headers) is read into a fixed
//!   byte budget ([`HEAD_BUDGET`]); overflowing it is a `400`;
//! * a connection that goes silent before completing its head or body
//!   is abandoned with a `408` once [`READ_DEADLINE`] passes (each
//!   individual `read` also carries a short timeout so the thread is
//!   never parked);
//! * request bodies are accepted only up to [`BODY_BUDGET`] declared
//!   bytes; anything larger is a `413` and the body is not read;
//! * a `Content-Length` that is not a plain decimal number, or several
//!   that disagree, is a `400`: the request is never served without the
//!   body its client sent.
//!
//! [`MetricsServer`] is the classic campaign endpoint on top of it,
//! activated by `FADES_METRICS_ADDR=<host:port>` (port `0` picks a free
//! port; the bound address is written to `FADES_METRICS_ADDR_FILE` when
//! that is set, which is how tests discover it).

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum bytes of request line + headers the server reads. Anything
/// larger is answered `400` without further reading.
pub const HEAD_BUDGET: usize = 8 * 1024;

/// Maximum declared `Content-Length` the server accepts. Larger bodies
/// are answered `413` without reading the body.
pub const BODY_BUDGET: usize = 256 * 1024;

/// How long a connection may take to deliver its head (and then its
/// body) before the server gives up with `408`.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Per-`read` socket timeout; keeps the serving thread from parking on
/// one silent peer while the overall [`READ_DEADLINE`] accumulates.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Pause after a failed `accept` before trying again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Timeout of each connection shutdown makes to wake the listener.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// One parsed request, as seen by an [`HttpServer`] handler.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path (`/campaigns/job-000001/results`).
    pub path: String,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: String,
}

/// The response a handler produces.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` JSON response (body should already be serialized).
    pub fn json(body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: "application/json".into(),
            body,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain".into(),
            body: body.into(),
        }
    }

    /// A JSON error document `{"error": msg}` with the given status.
    pub fn error(status: u16, msg: &str) -> HttpResponse {
        HttpResponse {
            status: status.max(400),
            content_type: "application/json".into(),
            body: format!(
                "{}\n",
                crate::json::JsonObject::new().str("error", msg).finish()
            ),
        }
    }
}

/// The handler signature [`HttpServer`] routes every request through.
pub type HttpHandler = dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync;

/// A running mini HTTP server. Dropping the handle signals the thread to
/// stop; [`shutdown`](HttpServer::shutdown) stops and joins it
/// deterministically.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` and serves requests through `handler` on a
    /// background thread named `name`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration errors.
    pub fn start(addr: &str, name: &str, handler: Arc<HttpHandler>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || serve_loop(&listener, &stop_flag, &handler))?;
        Ok(HttpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the listener actually bound (relevant with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the serving thread to exit and waits for it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            // One connection wakes the blocked `accept`; the loop checks
            // the flag after every accept. Retry only while connecting
            // itself fails and the thread is still alive.
            let wake = wake_addr(self.addr);
            while TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_err() && !t.is_finished() {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Where to connect to reach a listener bound to `addr`: the address
/// itself, or loopback when it is unspecified (`0.0.0.0`, `[::]`).
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool, handler: &Arc<HttpHandler>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // Serve inline: responses are small and clients are the
                // CLI / scrapers, so one thread is plenty and keeps
                // resources bounded. The hardened read path guarantees
                // one connection detains the thread for at most
                // ~2 × READ_DEADLINE.
                let _ = handle_connection(stream, handler);
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Outcome of the bounded request read: a parsed request, or the
/// rejection to answer with.
enum ReadOutcome {
    Request(HttpRequest),
    Reject(u16, &'static str),
}

/// Reads one request head (and body, when `Content-Length` is present)
/// within the byte budgets and the read deadline.
fn read_request(stream: &mut TcpStream) -> std::io::Result<ReadOutcome> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;

    let started = Instant::now();
    let mut buf = vec![0u8; HEAD_BUDGET];
    let mut len = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf[..len]) {
            break pos;
        }
        if len == buf.len() {
            // Budget exhausted without a complete head.
            return Ok(ReadOutcome::Reject(400, "request head too large"));
        }
        if started.elapsed() >= READ_DEADLINE {
            return Ok(ReadOutcome::Reject(408, "timed out reading request head"));
        }
        match stream.read(&mut buf[len..]) {
            Ok(0) => return Ok(ReadOutcome::Reject(400, "connection closed mid-request")),
            Ok(n) => len += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Per-read timeout: loop back and re-check the deadline.
            }
            Err(e) => return Err(e),
        }
    };

    let head = match parse_head(&buf[..head_end]) {
        Ok(head) => head,
        Err((status, msg)) => return Ok(ReadOutcome::Reject(status, msg)),
    };
    let content_length = head.content_length;

    // Body bytes already read past the head terminator, then the rest.
    let mut body = buf[head_end + 4..len].to_vec();
    let mut chunk = [0u8; 4096];
    while body.len() < content_length {
        if started.elapsed() >= READ_DEADLINE * 2 {
            return Ok(ReadOutcome::Reject(408, "timed out reading request body"));
        }
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Ok(ReadOutcome::Reject(400, "connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);

    Ok(ReadOutcome::Request(HttpRequest {
        method: head.method,
        path: head.path,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// What the server needs from a request head.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead {
    method: String,
    path: String,
    /// Declared body length; 0 when no `Content-Length` is present.
    content_length: usize,
}

/// Parses a request head (the bytes before the `\r\n\r\n`
/// terminator). A request whose body length is unclear is refused
/// rather than served without its body: a `Content-Length` that is not
/// a plain decimal number, or several that disagree, is a `400`; one
/// over [`BODY_BUDGET`] is a `413`.
fn parse_head(head: &[u8]) -> Result<RequestHead, (u16, &'static str)> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.lines();
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err((400, "malformed request line"));
    }

    let mut content_length = None;
    for (_, value) in lines
        .filter_map(|l| l.split_once(':'))
        .filter(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
    {
        let value = value.trim();
        // Digits only: `usize::from_str` would also take a leading `+`.
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err((400, "invalid Content-Length"));
        }
        // All digits, so a parse failure is an overflow.
        let n = value
            .parse::<usize>()
            .map_err(|_| (413, "request body too large"))?;
        if content_length.is_some_and(|c| c != n) {
            return Err((400, "conflicting Content-Length headers"));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > BODY_BUDGET {
        return Err((413, "request body too large"));
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn handle_connection(mut stream: TcpStream, handler: &Arc<HttpHandler>) -> std::io::Result<()> {
    let response = match read_request(&mut stream)? {
        ReadOutcome::Request(request) => handler(&request),
        ReadOutcome::Reject(status, msg) => {
            // Discard (a bounded amount of) whatever else the client
            // already sent: closing with unread bytes in the socket
            // makes the kernel reset the connection, which would destroy
            // the error response we are about to write.
            drain_briefly(&mut stream);
            HttpResponse::text(status, format!("{msg}\n"))
        }
    };
    write_response(&mut stream, &response)
}

/// Reads and discards pending input until the peer pauses, closes, or a
/// small byte/time budget runs out. Best-effort politeness before a
/// reject; never blocks for long.
fn drain_briefly(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let started = Instant::now();
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 1024 * 1024 && started.elapsed() < Duration::from_millis(500) {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
}

fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let status_text = match response.status {
        200 => "200 OK",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        408 => "408 Request Timeout",
        409 => "409 Conflict",
        413 => "413 Payload Too Large",
        503 => "503 Service Unavailable",
        other => return write_numeric_status(stream, other, response),
    };
    let head = format!(
        "HTTP/1.1 {status_text}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

fn write_numeric_status(
    stream: &mut TcpStream,
    status: u16,
    response: &HttpResponse,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} Status\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// The default observability router: `/metrics`, `/status`, `/`.
/// Exposed so composite servers (the campaign service) can serve the
/// same endpoints alongside their own routes.
pub fn metrics_router(request: &HttpRequest) -> HttpResponse {
    if request.method != "GET" {
        return HttpResponse::text(405, "GET only\n");
    }
    match request.path.as_str() {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4".into(),
            body: crate::snapshot::snapshot().to_prometheus(),
        },
        "/status" => {
            HttpResponse::json(format!("{}\n", crate::monitor::status_snapshot().to_json()))
        }
        "/" => HttpResponse::text(200, "fades-monitor: GET /metrics | GET /status\n"),
        _ => HttpResponse::text(404, "not found\n"),
    }
}

/// A running metrics server ([`HttpServer`] with the
/// [`metrics_router`]). Dropping the handle signals the thread to stop;
/// [`shutdown`](MetricsServer::shutdown) stops and joins it
/// deterministically.
#[derive(Debug)]
pub struct MetricsServer {
    server: HttpServer,
}

impl MetricsServer {
    /// Binds `addr` and starts serving `/metrics` and `/status` on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration errors.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let server = HttpServer::start(addr, "fades-metrics", Arc::new(metrics_router))?;
        Ok(MetricsServer { server })
    }

    /// Starts the server iff `FADES_METRICS_ADDR` is set non-empty.
    /// `None` when unset; `Some(Err)` when set but unusable (callers
    /// should surface that — a campaign asked for observability it is
    /// not getting). On success, writes the bound address to the path in
    /// `FADES_METRICS_ADDR_FILE` when that is set too.
    pub fn start_from_env() -> Option<std::io::Result<MetricsServer>> {
        let addr = match std::env::var("FADES_METRICS_ADDR") {
            Ok(v) if !v.is_empty() => v,
            _ => return None,
        };
        let server = match MetricsServer::start(&addr) {
            Ok(s) => s,
            Err(e) => return Some(Err(e)),
        };
        if let Ok(path) = std::env::var("FADES_METRICS_ADDR_FILE") {
            if !path.is_empty() {
                if let Err(e) = crate::registry::atomic_write(
                    std::path::Path::new(&path),
                    &format!("{}\n", server.addr()),
                ) {
                    eprintln!("warning: could not write metrics addr file {path}: {e}");
                }
            }
        }
        Some(Ok(server))
    }

    /// The address the listener actually bound (relevant with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Signals the serving thread to exit and waits for it.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A minimal test/tooling HTTP client: fetches `path` from `addr` and
/// returns `(status_code, body)`. Just enough for the smoke gates and
/// the service CLI to talk to their own endpoints without external
/// tools.
///
/// # Errors
///
/// Propagates connection and read errors; malformed responses surface as
/// `InvalidData`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", path, None)
}

/// Like [`http_get`], but issues a `POST` with `body` (sent with a
/// `Content-Length` header).
///
/// # Errors
///
/// Propagates connection and read errors; malformed responses surface as
/// `InvalidData`.
pub fn http_post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "POST", path, Some(body))
}

fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let body = body.unwrap_or("");
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header terminator")
    })?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_status_index_and_404() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr().to_string();

        let (code, body) = http_get(&addr, "/metrics").expect("GET /metrics");
        assert_eq!(code, 200);
        assert!(body.contains("fades_anomalies_total"));
        assert!(body.contains("# TYPE fades_sim_cycles_total counter"));

        let (code, body) = http_get(&addr, "/status").expect("GET /status");
        assert_eq!(code, 200);
        let v = crate::json::parse(body.trim()).expect("status is JSON");
        assert_eq!(v.get("type").and_then(|x| x.as_str()), Some("status"));
        assert!(v
            .get("experiments_done")
            .and_then(super::super::json::JsonValue::as_u64)
            .is_some());

        let (code, _) = http_get(&addr, "/").expect("GET /");
        assert_eq!(code, 200);
        let (code, _) = http_get(&addr, "/nope").expect("GET /nope");
        assert_eq!(code, 404);

        server.shutdown();
    }

    #[test]
    fn port_zero_binds_an_ephemeral_port() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
    }

    #[test]
    fn custom_handler_sees_method_path_and_body() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            "test-echo",
            Arc::new(|req: &HttpRequest| {
                HttpResponse::json(format!("{} {} [{}]", req.method, req.path, req.body))
            }),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let (code, body) = http_post(&addr, "/echo", "hello body").expect("POST");
        assert_eq!(code, 200);
        assert_eq!(body, "POST /echo [hello body]");
        let (code, body) = http_get(&addr, "/also").expect("GET");
        assert_eq!(code, 200);
        assert_eq!(body, "GET /also []");
        server.shutdown();
    }

    #[test]
    fn sequential_requests_do_not_wait_on_a_poll() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            "test-fast",
            Arc::new(|_: &HttpRequest| HttpResponse::text(200, "ok\n")),
        )
        .expect("bind");
        let addr = server.addr().to_string();
        let started = Instant::now();
        for _ in 0..200 {
            let (code, _) = http_get(&addr, "/").expect("GET");
            assert_eq!(code, 200);
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "200 sequential requests took {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_on_loopback_and_unspecified_binds() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = MetricsServer::start(bind).expect("bind");
            let (code, _) = http_get(&wake_addr(server.addr()).to_string(), "/").expect("GET");
            assert_eq!(code, 200);
            let started = Instant::now();
            server.shutdown();
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "shutdown of a server on {bind} took {elapsed:?}"
            );
        }
    }

    #[test]
    fn oversized_request_head_is_rejected_400() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A request line that alone overflows the head budget, never
        // sending the terminator.
        let huge = format!("GET /{} HTTP/1.1\r\n", "x".repeat(HEAD_BUDGET + 512));
        stream.write_all(huge.as_bytes()).expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "oversized head answered 400: {response}"
        );
        server.shutdown();
    }

    #[test]
    fn silent_connection_times_out_408() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Half a request line, then silence: the server must answer 408
        // after READ_DEADLINE instead of parking its thread forever.
        stream.write_all(b"GET /metr").expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(READ_DEADLINE * 4))
            .expect("timeout");
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "silent head answered 408: {response}"
        );
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_rejected_413_without_reading_it() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!(
                    "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    BODY_BUDGET + 1
                )
                .as_bytes(),
            )
            .expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 413"),
            "oversized body answered 413: {response}"
        );
        server.shutdown();
    }

    fn head(lines: &[&str]) -> Result<RequestHead, (u16, &'static str)> {
        parse_head(lines.join("\r\n").as_bytes())
    }

    #[test]
    fn head_parses_method_path_and_content_length() {
        let parsed = head(&[
            "POST /campaigns HTTP/1.1",
            "Host: x",
            "content-LENGTH:  12 ",
        ]);
        assert_eq!(
            parsed,
            Ok(RequestHead {
                method: "POST".to_string(),
                path: "/campaigns".to_string(),
                content_length: 12,
            })
        );
        assert_eq!(head(&["GET / HTTP/1.1"]).map(|h| h.content_length), Ok(0));
        // Repeating the same length is not a conflict.
        let repeated = head(&["POST / HTTP/1.1", "Content-Length: 5", "Content-Length: 5"]);
        assert_eq!(repeated.map(|h| h.content_length), Ok(5));
    }

    #[test]
    fn head_rejects_malformed_request_lines() {
        assert_eq!(head(&[""]), Err((400, "malformed request line")));
        assert_eq!(head(&["GET"]), Err((400, "malformed request line")));
    }

    #[test]
    fn head_rejects_invalid_content_length_400() {
        for bad in ["12x", "-1", "+5", "", "1 2", "0x10", "1e3", "½"] {
            assert_eq!(
                head(&["POST / HTTP/1.1", &format!("Content-Length: {bad}")]),
                Err((400, "invalid Content-Length")),
                "Content-Length: {bad}"
            );
        }
    }

    #[test]
    fn head_rejects_conflicting_content_lengths_400() {
        assert_eq!(
            head(&["POST / HTTP/1.1", "Content-Length: 5", "Content-Length: 6"]),
            Err((400, "conflicting Content-Length headers"))
        );
        // A valid length does not excuse an invalid duplicate.
        assert_eq!(
            head(&["POST / HTTP/1.1", "Content-Length: 5", "Content-Length: 5x"]),
            Err((400, "invalid Content-Length"))
        );
    }

    #[test]
    fn head_rejects_oversized_content_length_413() {
        let over = (BODY_BUDGET + 1).to_string();
        let overflow = "9".repeat(40);
        for len in [over.as_str(), overflow.as_str()] {
            assert_eq!(
                head(&["POST / HTTP/1.1", &format!("Content-Length: {len}")]),
                Err((413, "request body too large"))
            );
        }
        let at_budget = BODY_BUDGET.to_string();
        let ok = head(&["POST / HTTP/1.1", &format!("Content-Length: {at_budget}")]);
        assert_eq!(ok.map(|h| h.content_length), Ok(BODY_BUDGET));
    }

    #[test]
    fn invalid_content_length_is_rejected_400_not_served() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            "test-content-length",
            Arc::new(|_: &HttpRequest| HttpResponse::text(200, "served\n")),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 12x\r\n\r\nhello world!")
            .expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "invalid Content-Length answered 400: {response}"
        );
        server.shutdown();
    }

    proptest::proptest! {
        /// Arbitrary head bytes are parsed or refused, never a panic,
        /// and an accepted head's body length is within budget.
        #[test]
        fn parse_head_never_panics(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            cl in proptest::collection::vec(0u8..16, 0..24),
        ) {
            if let Ok(parsed) = parse_head(&bytes) {
                proptest::prop_assert!(parsed.content_length <= BODY_BUDGET);
            }
            // The same bytes behind a request line, with a header made
            // of digits and noise, reach the Content-Length path.
            let value: String = cl.iter().map(|&k| b"0123456789 +-x\t,"[k as usize] as char).collect();
            let mut framed = format!("POST / HTTP/1.1\r\nContent-Length:{value}\r\n").into_bytes();
            framed.extend_from_slice(&bytes);
            match parse_head(&framed) {
                Ok(parsed) => proptest::prop_assert!(parsed.content_length <= BODY_BUDGET),
                Err((status, _)) => proptest::prop_assert!(status == 400 || status == 413),
            }
        }
    }

    #[test]
    fn slow_body_times_out_408() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Complete head promising a body that never arrives.
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\nonly-part")
            .expect("write");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream
            .set_read_timeout(Some(READ_DEADLINE * 8))
            .expect("timeout");
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 408"),
            "stalled body answered 408: {response}"
        );
        server.shutdown();
    }
}

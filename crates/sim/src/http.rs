//! Minimal dependency-free HTTP/1.1 building blocks.
//!
//! Shared by the [`crate::MetricsServer`] scrape endpoint and the `divd`
//! campaign daemon.  The design goals are robustness against misbehaving
//! clients, not feature coverage:
//!
//! * **Overall read deadline** — a connection gets one budget
//!   ([`HttpLimits::read_deadline`]) to deliver its complete request.
//!   The per-read socket timeout shrinks as the deadline approaches, so a
//!   slowloris client trickling one byte per second cannot hold a worker
//!   beyond the budget (a plain per-read timeout would reset on every
//!   byte).
//! * **Bounded buffers** — the request head is capped at
//!   [`HttpLimits::max_head_bytes`] and the body at
//!   [`HttpLimits::max_body_bytes`]; oversized requests fail without
//!   unbounded allocation.  Responses are written under
//!   [`HttpLimits::write_timeout`], so a client that stops reading cannot
//!   wedge a worker either.
//! * **Accept loop isolation** — [`HttpServer`] hands every accepted
//!   connection to a short-lived worker thread (at most
//!   [`HttpLimits::max_connections`] concurrently; beyond that the
//!   connection gets an immediate `503`).  The accept loop itself never
//!   reads from or writes to a client socket, so no client can wedge it.
//! * **Blocking accept** — the loop sleeps in `accept()` until a client
//!   connects, so a request is picked up at once and an idle server makes
//!   no periodic wake-ups.  [`HttpServer::shutdown`] wakes the loop with
//!   a connection of its own.
//! * **Strict body framing** — the body length comes from one
//!   well-formed `Content-Length`; a malformed, listed or conflicting
//!   length, or any `Transfer-Encoding`, is a `400` rather than a guess.
//!
//! One request per connection; every response carries
//! `Connection: close`.  That keeps the state machine trivial and is a
//! fine trade for a lab daemon whose clients reconnect per call.

use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop backs off after an accept error (such as
/// `EMFILE`), which would otherwise repeat at once.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Connect timeout of the connection that wakes the accept loop for
/// shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Per-connection resource limits.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Total budget for reading one complete request (head + body).
    pub read_deadline: Duration,
    /// Socket write timeout while sending the response.
    pub write_timeout: Duration,
    /// Largest request head (request line + headers) accepted.
    pub max_head_bytes: usize,
    /// Largest request body accepted.
    pub max_body_bytes: usize,
    /// Most connections served concurrently; excess get `503`.
    pub max_connections: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            read_deadline: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            max_connections: 64,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, e.g. `GET`.
    pub method: String,
    /// Path without the query string, e.g. `/campaigns/3`.
    pub path: String,
    /// Query string after `?` (empty when absent).
    pub query: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// A writer-driven streaming body (see [`Body::Stream`]).
pub type StreamBody = Box<dyn FnOnce(&mut dyn io::Write) -> io::Result<()> + Send>;

/// A response body: fully buffered, or streamed close-delimited.
pub enum Body {
    /// The whole body up front; sent with `Content-Length`.
    Bytes(Vec<u8>),
    /// A writer-driven stream; sent without `Content-Length`, delimited
    /// by connection close (the response always carries
    /// `Connection: close`).  The callback runs on the connection worker
    /// under the write timeout and may flush incrementally.
    Stream(StreamBody),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Bytes(b) => write!(f, "Body::Bytes({} bytes)", b.len()),
            Body::Stream(_) => write!(f, "Body::Stream(..)"),
        }
    }
}

/// A response to send.
#[derive(Debug)]
pub struct Response {
    /// Numeric status, e.g. `200`.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            extra_headers: Vec::new(),
            body: Body::Bytes(body.into().into_bytes()),
        }
    }

    /// A response with an explicit content type.
    pub fn with_type(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            extra_headers: Vec::new(),
            body: Body::Bytes(body.into()),
        }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// A close-delimited streaming response.
    pub fn stream(
        status: u16,
        content_type: &str,
        write: impl FnOnce(&mut dyn io::Write) -> io::Result<()> + Send + 'static,
    ) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            extra_headers: Vec::new(),
            body: Body::Stream(Box::new(write)),
        }
    }
}

/// The canonical reason phrase for the statuses this workspace emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Reads one complete request under the limits.
///
/// # Errors
///
/// `TimedOut` when the deadline lapses, `InvalidData` on malformed or
/// oversized requests, `UnexpectedEof` when the client hangs up early,
/// plus any socket error.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> io::Result<Request> {
    let deadline = Instant::now() + limits.read_deadline;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];

    // Read until the blank line ending the head, under the deadline.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            if pos > limits.max_head_bytes {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head exceeds limit",
                ));
            }
            break pos;
        }
        if buf.len() >= limits.max_head_bytes + 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head exceeds limit",
            ));
        }
        let n = read_some(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request head completed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    // Body: whatever Content-Length says, bounded, under the same deadline.
    let content_length = body_length(&headers)?;
    if content_length > limits.max_body_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body exceeds limit",
        ));
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request body completed",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// The body length the request head declares: 0 without a
/// `Content-Length`, else its one value, which must be plain decimal
/// digits.  Repeats must agree.  `Transfer-Encoding` is not supported, so
/// any use of it is refused rather than read as an empty body.
fn body_length(headers: &[(String, String)]) -> io::Result<usize> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(bad("Transfer-Encoding is not supported".to_string()));
    }
    let mut length = None;
    for (_, value) in headers.iter().filter(|(k, _)| k == "content-length") {
        let parsed = Some(value)
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| bad(format!("malformed Content-Length {value:?}")))?;
        if length.is_some_and(|seen| seen != parsed) {
            return Err(bad("conflicting Content-Length headers".to_string()));
        }
        length = Some(parsed);
    }
    Ok(length.unwrap_or(0))
}

/// Position of the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One bounded read with the per-read timeout clamped to the remaining
/// deadline — the piece that makes trickling useless.
fn read_some(stream: &mut TcpStream, chunk: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "request read deadline exceeded",
        ));
    }
    stream.set_read_timeout(Some(remaining))?;
    match stream.read(chunk) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "request read deadline exceeded",
        )),
        Err(e) => Err(e),
    }
}

/// Writes `response` and closes out the exchange.
///
/// # Errors
///
/// Socket errors, including the write timeout when the client stops
/// reading.
pub fn write_response(
    stream: &mut TcpStream,
    response: Response,
    limits: &HttpLimits,
) -> io::Result<()> {
    stream.set_write_timeout(Some(limits.write_timeout))?;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    match response.body {
        Body::Bytes(bytes) => {
            head.push_str(&format!("Content-Length: {}\r\n\r\n", bytes.len()));
            stream.write_all(head.as_bytes())?;
            stream.write_all(&bytes)?;
            stream.flush()
        }
        Body::Stream(write) => {
            head.push_str("\r\n");
            stream.write_all(head.as_bytes())?;
            write(stream)?;
            stream.flush()
        }
    }
}

/// A threaded HTTP server around a request handler.
///
/// The accept loop blocks in `accept()` and hands each connection to its
/// own worker thread; [`HttpServer::shutdown`] (or drop) stops the loop
/// by setting a flag and connecting to the server's own address, over
/// loopback when it is bound to a wildcard address.  In-flight workers
/// finish on their own — every one of them is bounded by the read
/// deadline and write timeout, so none lingers.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    active: Arc<AtomicUsize>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (port `0` for ephemeral) and serves `handler` on a
    /// background accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind<H>(addr: &str, limits: HttpLimits, handler: H) -> io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let handler = Arc::new(handler);
        let loop_stop = Arc::clone(&stop);
        let loop_active = Arc::clone(&active);
        let handle = std::thread::Builder::new()
            .name("div-http".to_string())
            .spawn(move || accept_loop(listener, limits, handler, loop_stop, loop_active))?;
        Ok(HttpServer {
            addr: local,
            stop,
            handle: Some(handle),
            active,
        })
    }

    /// The address actually bound (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(SeqCst)
    }

    /// Stops the accept loop and joins it.  Returns promptly even on an
    /// idle server, since shutdown wakes the blocked `accept()` itself.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Sets the stop flag and wakes the blocked `accept()` with a
    /// connection of our own.  Should that connect fail while the loop
    /// still runs, the loop is left to exit at its next connection rather
    /// than hang the caller in `join`.
    fn stop_and_join(&mut self) {
        self.stop.store(true, SeqCst);
        let Some(handle) = self.handle.take() else {
            return;
        };
        let woken = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok();
        if woken || handle.is_finished() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Where a client reaches a server bound to `addr`: the address itself,
/// or loopback of the same family for a wildcard bind.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    match addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
        _ => addr,
    }
}

fn accept_loop<H>(
    listener: TcpListener,
    limits: HttpLimits,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    loop {
        match listener.accept() {
            // The stop flag is set before the wake-up connection arrives,
            // so whatever connection is accepted after it is dropped.
            Ok(_) if stop.load(SeqCst) => return,
            Ok((stream, _)) => {
                // Claim a slot before spawning; over the cap the client
                // gets a fast 503 from a throwaway thread so even that
                // write cannot stall the accept loop.
                let claimed = active.fetch_add(1, SeqCst) < limits.max_connections;
                let worker_active = Arc::clone(&active);
                let worker_handler = Arc::clone(&handler);
                let body = move || {
                    let mut stream = stream;
                    if claimed {
                        let _ = serve_connection(&mut stream, &limits, &*worker_handler);
                    } else {
                        let _ = write_response(
                            &mut stream,
                            Response::text(503, "server at connection capacity\n")
                                .header("Retry-After", "1"),
                            &limits,
                        );
                        // The request was never read; drain it so the
                        // close does not RST away the buffered 503.
                        drain_briefly(&mut stream);
                    }
                    worker_active.fetch_sub(1, SeqCst);
                };
                if std::thread::Builder::new()
                    .name("div-http-conn".to_string())
                    .spawn(body)
                    .is_err()
                {
                    // Spawn failure: the closure was consumed by the
                    // failed builder, so just release the slot.
                    active.fetch_sub(1, SeqCst);
                }
            }
            Err(_) if stop.load(SeqCst) => return,
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Serves one connection: read one request, answer it, close.
fn serve_connection<H>(stream: &mut TcpStream, limits: &HttpLimits, handler: &H) -> io::Result<()>
where
    H: Fn(&Request) -> Response,
{
    match read_request(stream, limits) {
        Ok(request) => write_response(stream, handler(&request), limits),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let result = write_response(
                stream,
                Response::text(400, format!("bad request: {e}\n")),
                limits,
            );
            // The rejected request was not fully read; drain what is
            // left so closing does not RST away the buffered 400.
            drain_briefly(stream);
            result
        }
        // Timeouts and hangups get no response — the client is gone or
        // hostile either way.
        Err(e) => Err(e),
    }
}

/// Half-closes the write side and discards pending input, bounded, so a
/// close with unread bytes cannot turn into a TCP reset that destroys
/// the response the client has not read yet.
fn drain_briefly(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    loop {
        match read_some(stream, &mut sink, deadline) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// A buffered response received by [`http_request`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Numeric status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Performs one HTTP request against `addr`, reading the response to
/// connection close (the servers in this workspace always close).
///
/// # Errors
///
/// Connection, socket or deadline errors, or a malformed status line.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match read_some(&mut stream, &mut chunk, deadline) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            // A reset after the response head arrived is close enough to
            // a close: the server answered and hung up while our own
            // unread bytes were still in flight.
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset && find_head_end(&raw).is_some() =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    parse_response(&raw)
}

/// Parses a full close-delimited response.
fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let head_end = find_head_end(raw).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "response head never completed")
    })?;
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_limits() -> HttpLimits {
        HttpLimits {
            read_deadline: Duration::from_millis(300),
            write_timeout: Duration::from_millis(500),
            max_head_bytes: 512,
            max_body_bytes: 1024,
            max_connections: 4,
        }
    }

    fn echo_server(limits: HttpLimits) -> HttpServer {
        HttpServer::bind("127.0.0.1:0", limits, |req| {
            Response::text(
                200,
                format!(
                    "{} {} q={} body={}\n",
                    req.method,
                    req.path,
                    req.query,
                    String::from_utf8_lossy(&req.body)
                ),
            )
        })
        .expect("bind")
    }

    #[test]
    fn round_trips_a_request_with_body_and_query() {
        let server = echo_server(tiny_limits());
        let resp = http_request(
            server.local_addr(),
            "POST",
            "/jobs?tag=x",
            &[("X-Client", "t")],
            b"payload",
            Duration::from_secs(2),
        )
        .expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "POST /jobs q=tag=x body=payload\n");
        server.shutdown();
    }

    #[test]
    fn half_open_connection_cannot_starve_other_clients() {
        let server = echo_server(tiny_limits());
        let addr = server.local_addr();
        // A slowloris client: connects, sends a partial request line,
        // then goes silent while holding the connection open.
        let mut half_open = TcpStream::connect(addr).expect("connect");
        half_open.write_all(b"GET /slow").expect("partial write");

        // A well-behaved client is served immediately despite it.
        let start = Instant::now();
        let resp = http_request(addr, "GET", "/ok", &[], b"", Duration::from_secs(2))
            .expect("healthy client served");
        assert_eq!(resp.status, 200);
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "healthy client waited {:?} behind a half-open connection",
            start.elapsed()
        );

        // And the half-open connection itself is shed at the deadline,
        // not held forever: the server closes it without a response.
        let mut rest = Vec::new();
        half_open
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let n = half_open.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "half-open connection got a response: {rest:?}");
        server.shutdown();
    }

    #[test]
    fn trickled_bytes_do_not_extend_the_deadline() {
        let server = echo_server(tiny_limits());
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let start = Instant::now();
        // Trickle a byte every 50ms; with a per-read timeout this would
        // live forever, with an overall deadline it dies at ~300ms.
        let mut closed_at = None;
        for _ in 0..40 {
            if stream.write_all(b"G").is_err() {
                closed_at = Some(start.elapsed());
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // Writes may succeed into the OS buffer even after the server
        // closes; the read side is the reliable signal.
        if closed_at.is_none() {
            let mut sink = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let _ = stream.read_to_end(&mut sink);
            closed_at = Some(start.elapsed());
        }
        let elapsed = closed_at.unwrap();
        assert!(
            elapsed < Duration::from_secs(2),
            "trickling client survived {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn oversized_head_is_rejected_as_bad_request() {
        let server = echo_server(tiny_limits());
        let resp = http_request(
            server.local_addr(),
            "GET",
            &format!("/{}", "x".repeat(600)),
            &[],
            b"",
            Duration::from_secs(2),
        )
        .expect("response");
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_rejected_as_bad_request() {
        let server = echo_server(tiny_limits());
        let resp = http_request(
            server.local_addr(),
            "POST",
            "/jobs",
            &[],
            &vec![b'x'; 2048],
            Duration::from_secs(2),
        )
        .expect("response");
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn connection_cap_returns_fast_503_with_retry_after() {
        let mut limits = tiny_limits();
        limits.max_connections = 1;
        limits.read_deadline = Duration::from_secs(2);
        let server = echo_server(limits);
        let addr = server.local_addr();
        // Occupy the only slot with a half-open connection.
        let mut hog = TcpStream::connect(addr).expect("connect");
        hog.write_all(b"GET /hog").expect("partial");
        // Wait until the worker has actually claimed the slot.
        let t0 = Instant::now();
        while server.active_connections() == 0 && t0.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = http_request(addr, "GET", "/x", &[], b"", Duration::from_secs(2))
            .expect("over-cap response");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        server.shutdown();
    }

    /// Sends `raw` as the whole request and parses the reply.
    fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> HttpResponse {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("write request");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read reply");
        parse_response(&reply).expect("well-formed reply")
    }

    /// `tiny_limits` with room for connection threads that have answered
    /// but not yet exited: a sequential client can outrun them, and a
    /// cap of 4 would then answer `503`.  The cap has its own test.
    fn sequential_limits() -> HttpLimits {
        HttpLimits {
            max_connections: 64,
            ..tiny_limits()
        }
    }

    #[test]
    fn bad_body_framing_is_rejected_naming_the_header() {
        let server = echo_server(sequential_limits());
        for (headers, needle) in [
            ("Content-Length: 12x\r\n", "Content-Length"),
            ("Content-Length: -1\r\n", "Content-Length"),
            ("Content-Length: 42, 5\r\n", "Content-Length"),
            ("Content-Length: \r\n", "Content-Length"),
            (
                "Content-Length: 99999999999999999999999\r\n",
                "Content-Length",
            ),
            (
                "Content-Length: 5\r\nContent-Length: 7\r\n",
                "conflicting Content-Length",
            ),
            ("Transfer-Encoding: chunked\r\n", "Transfer-Encoding"),
        ] {
            let raw = format!("POST /jobs HTTP/1.1\r\n{headers}\r\nabcde");
            let resp = raw_exchange(server.local_addr(), raw.as_bytes());
            assert_eq!(resp.status, 400, "{headers:?}: {}", resp.text());
            assert!(resp.text().contains(needle), "{headers:?}: {}", resp.text());
        }
        // Agreeing repeats are one length, not a conflict.
        let resp = raw_exchange(
            server.local_addr(),
            b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "POST /jobs q= body=abcd\n");
        server.shutdown();
    }

    #[test]
    fn sequential_requests_are_served_without_accept_delay() {
        let server = echo_server(sequential_limits());
        let start = Instant::now();
        for i in 0..20 {
            let resp = http_request(
                server.local_addr(),
                "GET",
                &format!("/r{i}"),
                &[],
                b"",
                Duration::from_secs(2),
            )
            .expect("request");
            assert_eq!(resp.status, 200);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "20 sequential requests took {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_of_an_idle_server_is_prompt() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = HttpServer::bind(bind, tiny_limits(), |_req| Response::text(200, "ok\n"))
                .expect("bind");
            let reach = wake_addr(server.local_addr());
            let start = Instant::now();
            server.shutdown();
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "shutdown of a server on {bind} took {elapsed:?}"
            );
            // The loop really exited: its listener is closed.
            assert!(TcpStream::connect(reach).is_err(), "{bind} still listening");
        }
    }

    #[test]
    fn streaming_bodies_arrive_in_order() {
        let server = HttpServer::bind("127.0.0.1:0", tiny_limits(), |_req| {
            Response::stream(200, "text/plain; charset=utf-8", |w| {
                for i in 0..5 {
                    writeln!(w, "line {i}")?;
                    w.flush()?;
                }
                Ok(())
            })
        })
        .expect("bind");
        let resp = http_request(
            server.local_addr(),
            "GET",
            "/stream",
            &[],
            b"",
            Duration::from_secs(2),
        )
        .expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "line 0\nline 1\nline 2\nline 3\nline 4\n");
        server.shutdown();
    }
}

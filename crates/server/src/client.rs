//! A pooled keep-alive HTTP/1.1 client.
//!
//! The router's proxy hop and `orex top` both talk to orex servers
//! over many small requests; paying a TCP connect per request would
//! dominate their latency. This client keeps finished
//! connections in a per-target idle pool and reuses them for later
//! requests, counting connects vs. requests so callers can assert a
//! reuse ratio. A reused connection that fails mid-request (the server
//! closed it while idle) is retried once on a fresh connection — new
//! connections are never retried, so a request is attempted at most
//! twice and only when the first attempt died on provably stale state.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Response cap so a misbehaving server can't balloon client memory.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// One idle pooled connection.
struct PooledConn {
    reader: BufReader<TcpStream>,
}

/// Keep-alive client for one target address; see the module docs.
pub struct HttpClient {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    idle: Mutex<VecDeque<PooledConn>>,
    max_idle: usize,
    requests: AtomicU64,
    connects: AtomicU64,
    reuses: AtomicU64,
}

impl HttpClient {
    /// A client for `addr` (`host:port`) with default timeouts (1s
    /// connect, 30s request) and up to 16 idle pooled connections.
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_timeouts(addr, Duration::from_secs(1), Duration::from_secs(30))
    }

    /// A client with explicit connect and request timeouts.
    pub fn with_timeouts(
        addr: impl Into<String>,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Self {
        Self {
            addr: addr.into(),
            connect_timeout,
            io_timeout,
            idle: Mutex::new(VecDeque::new()),
            max_idle: 16,
            requests: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// The target address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests attempted.
    pub fn requests(&self) -> u64 {
        // ORDERING: statistics counters, no synchronization role.
        self.requests.load(Ordering::Relaxed)
    }

    /// Fresh TCP connects performed.
    pub fn connects(&self) -> u64 {
        // ORDERING: statistics counter, no synchronization role.
        self.connects.load(Ordering::Relaxed)
    }

    /// Requests served on a reused pooled connection.
    pub fn reuses(&self) -> u64 {
        // ORDERING: statistics counter, no synchronization role.
        self.reuses.load(Ordering::Relaxed)
    }

    /// Fraction of requests that reused a pooled connection.
    pub fn reuse_ratio(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            return 0.0;
        }
        self.reuses() as f64 / requests as f64
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// Performs one request, preferring a pooled connection. See the
    /// module docs for the retry contract.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`HttpClient::request`] with extra request headers — how a
    /// traced hop injects `X-Orex-Trace` (both attempts of a
    /// stale-connection retry carry the same headers).
    pub fn request_with_headers(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        // ORDERING: statistics counters, no synchronization role.
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(conn) = self.pop_idle() {
            // On error the pooled connection was stale (server closed
            // it, or it died mid-exchange); state is gone, retry fresh.
            if let Ok(response) = self.attempt(conn, method, path, headers, body) {
                // ORDERING: statistics counter only.
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(response);
            }
        }
        let conn = self.connect()?;
        self.attempt(conn, method, path, headers, body)
    }

    /// Drops every idle pooled connection (e.g. after the target
    /// restarted on the same address).
    pub fn clear_idle(&self) {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn pop_idle(&self) -> Option<PooledConn> {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    fn park(&self, conn: PooledConn) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.max_idle {
            idle.push_back(conn);
        }
    }

    fn connect(&self) -> io::Result<PooledConn> {
        // ORDERING: statistics counter, no synchronization role.
        self.connects.fetch_add(1, Ordering::Relaxed);
        let mut last_err = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.io_timeout))?;
                    stream.set_write_timeout(Some(self.io_timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(PooledConn {
                        reader: BufReader::new(stream),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// One request/response exchange on `conn`; parks the connection
    /// for reuse when the server kept it open.
    fn attempt(
        &self,
        mut conn: PooledConn,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        use std::fmt::Write as _;
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        if let Some(body) = body {
            let _ = write!(
                head,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            );
        }
        head.push_str("\r\n");
        // One write, so the request is one segment and one wake-up of
        // the server's `read_request`.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.unwrap_or_default());
        let stream = conn.reader.get_mut();
        stream.write_all(&wire)?;
        stream.flush()?;
        let (response, keep_alive) = read_response(&mut conn.reader)?;
        if keep_alive {
            self.park(conn);
        }
        Ok(response)
    }
}

/// Reads one response off `reader`: status line, headers, and a body
/// framed by `Content-Length` (or by connection close when the server
/// omitted it). Returns the response and whether the connection is
/// reusable.
fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(ClientResponse, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an HTTP response",
        ));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let keep_alive = !headers
        .iter()
        .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));

    let body = match content_length {
        Some(len) if len > MAX_RESPONSE_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response body exceeds client limit",
            ));
        }
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            // Legacy framing: the body ends when the server closes.
            let mut body = Vec::new();
            reader
                .by_ref()
                .take(MAX_RESPONSE_BYTES as u64)
                .read_to_end(&mut body)?;
            return Ok((
                ClientResponse {
                    status,
                    headers,
                    body,
                },
                false,
            ));
        }
    };
    Ok((
        ClientResponse {
            status,
            headers,
            body,
        },
        keep_alive,
    ))
}

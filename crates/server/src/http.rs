//! Minimal HTTP/1.1 request parsing and response rendering.
//!
//! Exactly the subset the server needs: a request line, headers,
//! an optional `Content-Length` body, and `Connection: keep-alive` /
//! `close` response framing. Because every response declares its
//! `Content-Length`, a client may pipeline requests: the server reads
//! them in order off one shared [`BufReader`] and writes responses in
//! the same order. Every limit is explicit — header section size,
//! header count, body size — so a hostile peer can at worst waste one
//! connection thread's read timeout, never its memory.

use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the request line + header section, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, without query string processing.
    pub path: String,
    /// Lower-cased header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True for `HTTP/1.1` requests (keep-alive by default); false for
    /// `HTTP/1.0` (close by default).
    pub http11: bool,
}

impl Request {
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

    /// The request target split for routing: the non-empty path
    /// segments and the raw query string (`""` when there is none).
    pub fn target(&self) -> (Vec<&str>, &str) {
        let (path, query) = self.path.split_once('?').unwrap_or((&self.path, ""));
        (path.split('/').filter(|s| !s.is_empty()).collect(), query)
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 defaults to close unless the
    /// client sent `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed; maps onto a response status.
#[derive(Debug)]
pub enum ParseError {
    /// Peer closed the connection before sending a request line.
    ConnectionClosed,
    /// The read timed out before *any* byte of the next request line
    /// arrived — a quiet keep-alive connection, not a slow request. The
    /// stream is intact (nothing was consumed), so the caller may retry
    /// or park the connection.
    Idle,
    /// Malformed request line, header, or length field.
    Malformed(&'static str),
    /// Declared `Content-Length` exceeds the configured limit.
    BodyTooLarge(usize),
    /// I/O failure (including a timeout mid-request).
    Io(std::io::Error),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// True for the error kinds a socket read timeout surfaces as.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one request from `reader`, rejecting bodies above
/// `max_body_bytes`. The caller owns the `BufReader` so buffered bytes
/// of pipelined requests survive between calls. A read timeout before
/// the first byte of the request line reports [`ParseError::Idle`]
/// (connection reusable); any later timeout reports `Io` (connection
/// state unknown, caller should close).
pub fn read_request<S: Read>(
    reader: &mut BufReader<S>,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    let mut head_bytes = 0usize;

    let mut line = String::new();
    match reader.read_line(&mut line) {
        // `read_until` guarantees bytes read before an error are in the
        // buffer, so an empty line on timeout means nothing was consumed
        // and the connection is still cleanly reusable.
        Err(e) if is_timeout(&e) && line.is_empty() => return Err(ParseError::Idle),
        Err(e) => return Err(ParseError::Io(e)),
        Ok(0) => return Err(ParseError::ConnectionClosed),
        Ok(_) => {}
    }
    head_bytes += line.len();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    let http11 = version == "HTTP/1.1";
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("invalid method"));
    }

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ParseError::Malformed("connection closed mid-headers"));
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::Malformed("header section too large"));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header missing colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
        http11,
    })
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written after `Content-Type`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given content type and no extra headers.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "application/json", body.into().into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// Adds one extra response header. Values must not contain CR/LF —
    /// callers only pass values they format themselves.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error `{"error": message}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let payload = serde_json::json!({ "error": message });
        Self::json(status, serde_json::to_string(&payload).unwrap_or_default())
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the full response to `stream`. `keep_alive` selects the
    /// `Connection:` header; the `Content-Length` is always declared so
    /// a keep-alive peer knows where the body ends. Head and body leave
    /// in one `write_all`: written separately, the body is a second
    /// small segment that Nagle's algorithm holds until the peer's
    /// delayed ACK of the first — a fixed ~40 ms on every response.
    pub fn write_to<S: Write>(&self, stream: &mut S, keep_alive: bool) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
        assert!(r.http11);
        assert!(r.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length() {
        let r = parse("POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.body_str(), Some("hello"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = parse("GET / HTTP/1.1\r\nX-Thing: v\r\n\r\n").unwrap();
        assert_eq!(r.header("x-thing"), Some("v"));
        assert_eq!(r.header("X-THING"), Some("v"));
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive());
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive(), "HTTP/1.0 defaults to close");
        let r = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive());
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_reader() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let a = read_request(&mut reader, 1024).unwrap();
        let b = read_request(&mut reader, 1024).unwrap();
        let c = read_request(&mut reader, 1024).unwrap();
        assert_eq!(
            (a.path.as_str(), b.path.as_str(), c.path.as_str()),
            ("/a", "/b", "/c")
        );
        assert_eq!(b.body_str(), Some("hi"));
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(matches!(e, Err(ParseError::BodyTooLarge(9999))));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("NOT A REQUEST\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / FTP/9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn empty_stream_reports_closed() {
        assert!(matches!(parse(""), Err(ParseError::ConnectionClosed)));
    }

    #[test]
    fn response_renders_with_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok\n")
            .write_to(&mut out, false)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn response_renders_keep_alive() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out, true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
        assert!(!s.contains("Connection: close"), "{s}");
    }

    #[test]
    fn extra_headers_render_before_connection_close() {
        let mut out = Vec::new();
        Response::text(200, "ok")
            .with_header("X-Orex-Log-Cursor", "17")
            .write_to(&mut out, false)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("X-Orex-Log-Cursor: 17\r\n"), "{s}");
        let head = s.split("\r\n\r\n").next().unwrap();
        assert!(head.ends_with("Connection: close"), "{head}");
    }

    /// Counts `write` calls; accepts everything it is given.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
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
    fn response_leaves_in_one_write() {
        let mut out = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        Response::json(200, r#"{"results":[1,2,3]}"#)
            .with_header("X-Orex-Promoted", "7,9")
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        assert_eq!(out.writes, 1, "head and body must share one segment");
        let expected =
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 19\r\n\
                        X-Orex-Promoted: 7,9\r\nRetry-After: 1\r\nConnection: keep-alive\r\n\r\n\
                        {\"results\":[1,2,3]}";
        assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
    }

    #[test]
    fn error_response_is_json() {
        let r = Response::error(404, "no such session");
        assert_eq!(r.status, 404);
        let v = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("no such session")
        );
    }
}

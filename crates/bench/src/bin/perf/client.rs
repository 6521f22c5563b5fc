//! The benchmark's own minimal HTTP/1.1 client.
//!
//! Deliberately not `orex_server::HttpClient`: the instrument must not
//! change when the program's client does. One keep-alive connection
//! with `TCP_NODELAY`, one `write` per request, and timestamps at
//! write-done, first byte and last byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A hung server fails the run instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Renders one request. `body` selects `Content-Length` framing.
pub fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: orex\r\n");
    if let Some(body) = body {
        out.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    } else {
        out.push_str("\r\n");
    }
    out.into_bytes()
}

/// The framing of one response, once its head has fully arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    pub keep_alive: bool,
    /// Offset of the first body byte in the buffer.
    pub body_start: usize,
    /// Offset one past the last body byte.
    pub end: usize,
}

/// Parses the response at the front of `buf`. `Ok(None)` means more
/// bytes are needed; the caller reads on and calls again with the longer
/// buffer, so a response split across any number of reads parses the
/// same as one that arrived whole.
pub fn parse_response(buf: &[u8]) -> Result<Option<Head>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    let content_length = content_length.ok_or("response without content-length")?;
    let body_start = head_len + 4;
    let end = body_start + content_length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some(Head {
        status,
        keep_alive,
        body_start,
        end,
    }))
}

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Just before the request's `write`.
    pub start: Instant,
    pub write_done: Instant,
    pub first_byte: Instant,
    /// Last body byte read.
    pub end: Instant,
}

impl Reply {
    pub fn latency(&self) -> Duration {
        self.end - self.start
    }
}

/// One keep-alive connection to `addr`, reconnecting when the server
/// closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connects made (one, unless the server closed the connection).
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.connects += 1;
        Ok(stream)
    }

    /// Sends one pre-rendered request and reads its response. Connecting
    /// happens before the clock starts. Any I/O or framing error drops
    /// the connection, so the next call starts clean.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => self.connect()?,
        };
        let (reply, keep_alive) = exchange(&mut stream, &mut self.buf, request)?;
        if keep_alive {
            self.stream = Some(stream);
        }
        Ok(reply)
    }
}

/// One request out, one response in; also says whether the server
/// keeps the connection open.
fn exchange(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    request: &[u8],
) -> io::Result<(Reply, bool)> {
    buf.clear();
    let start = Instant::now();
    stream.write_all(request)?;
    let write_done = Instant::now();
    let mut first_byte = None;
    let mut chunk = [0u8; 16 * 1024];
    let head = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        match parse_response(buf) {
            Ok(Some(head)) => break head,
            Ok(None) => {}
            Err(why) => return Err(io::Error::new(io::ErrorKind::InvalidData, why)),
        }
    };
    let end = Instant::now();
    let reply = Reply {
        status: head.status,
        body: String::from_utf8_lossy(&buf[head.body_start..head.end]).into_owned(),
        start,
        write_done,
        first_byte: first_byte.unwrap_or(end),
        end,
    };
    Ok((reply, head.keep_alive))
}

/// Every number that follows `"key":` in a JSON body, as written. The
/// server's bodies are flat enough that this is all the benchmark needs
/// on its hot path; a JSON-escaped quote inside a string value can't
/// produce a false `"key":` match.
pub fn numbers_after<'a>(body: &'a str, key: &str) -> impl Iterator<Item = &'a str> + 'a {
    let needle = format!("\"{key}\":");
    let mut rest = body;
    std::iter::from_fn(move || {
        let at = rest.find(&needle)?;
        let tail = &rest[at + needle.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(tail.len());
        rest = &tail[len..];
        Some(&tail[..len])
    })
}

/// The first `"key":<unsigned>` of a body.
pub fn first_u64(body: &str, key: &str) -> Option<u64> {
    numbers_after(body, key).next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEEP_ALIVE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: keep-alive\r\n\r\n{\"cached\":true}";

    #[test]
    fn parses_keep_alive_response() {
        // Content-Length 13 of a 15-byte tail: the parser must stop at
        // the declared length and leave the rest in the buffer.
        let head = parse_response(KEEP_ALIVE).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert!(head.keep_alive);
        assert_eq!(&KEEP_ALIVE[head.body_start..head.end], b"{\"cached\":tru");
    }

    #[test]
    fn parses_connection_close() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let head = parse_response(raw).unwrap().unwrap();
        assert_eq!(head.status, 404);
        assert!(!head.keep_alive);
        assert_eq!(head.end, raw.len());
        // HTTP/1.0 without a Connection header closes by default.
        let old = b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n";
        assert!(!parse_response(old).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn split_reads_parse_like_whole_ones() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_response(&raw[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes"
            );
        }
        let head = parse_response(raw).unwrap().unwrap();
        assert_eq!(&raw[head.body_start..head.end], b"hello");
    }

    #[test]
    fn rejects_garbage_heads() {
        assert!(parse_response(b"SMTP ready\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n").is_err());
    }

    #[test]
    fn request_rendering_frames_the_body() {
        let post = String::from_utf8(request_bytes("POST", "/query", Some("{}"))).unwrap();
        assert!(post.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(post.ends_with("Content-Length: 2\r\n\r\n{}"));
        let get = String::from_utf8(request_bytes("GET", "/metrics", None)).unwrap();
        assert!(get.ends_with("Host: orex\r\n\r\n"));
    }

    #[test]
    fn number_scanner_reads_every_occurrence() {
        let body = r#"{"session":12,"cached":true,"results":[{"node":7,"score":0.5,"display":"a \"node\": b"},{"node":9,"score":1.25e-3}]}"#;
        assert_eq!(first_u64(body, "session"), Some(12));
        assert_eq!(numbers_after(body, "node").collect::<Vec<_>>(), ["7", "9"]);
        assert_eq!(
            numbers_after(body, "score").collect::<Vec<_>>(),
            ["0.5", "1.25e-3"]
        );
        assert_eq!(first_u64(body, "missing"), None);
    }
}

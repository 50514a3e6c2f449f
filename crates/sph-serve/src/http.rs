//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Hand-rolled on purpose: the workspace is dependency-free, and the API
//! surface is small enough (three routes, JSON bodies, `Connection: close`)
//! that a strict subset parser is simpler and safer than a general one.
//! Limits are hard: 16 KiB of headers, 1 MiB of body — anything larger is
//! a [`ServeError::MalformedRequest`], never an allocation hazard.
//!
//! The parser is generic over [`BufRead`]/[`Write`] so unit tests exercise
//! it on in-memory buffers without sockets.

use crate::error::ServeError;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Maximum bytes of request line + headers we will buffer.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body size.
const MAX_BODY: usize = 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// Read one HTTP request from a buffered blocking stream.
///
/// Accepts the subset we serve: a request line, optional headers (only
/// `Content-Length` is honoured), CRLF or bare-LF line endings, and an
/// optional body of exactly `Content-Length` bytes.
///
/// Head and body come from the same reader, so body bytes the buffer
/// fetched together with the head are not lost; wrap a socket in one
/// [`std::io::BufReader`] for the whole request.
pub(crate) fn read_request(stream: &mut impl BufRead) -> Result<Request, ServeError> {
    // Line by line until the blank line; `take` caps each line at what
    // is left of the head budget, so an endless line cannot grow `head`.
    let mut head = Vec::new();
    loop {
        let budget = (MAX_HEAD + 1 - head.len()) as u64;
        let n = stream
            .by_ref()
            .take(budget)
            .read_until(b'\n', &mut head)
            .map_err(|e| read_error("read", &e))?;
        if n == 0 {
            if head.is_empty() {
                return Err(ServeError::MalformedRequest("empty request".into()));
            }
            break;
        }
        if head.len() > MAX_HEAD {
            return Err(ServeError::MalformedRequest(format!("headers exceed {MAX_HEAD} bytes")));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }

    let head = String::from_utf8(head)
        .map_err(|_| ServeError::MalformedRequest("headers are not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line =
        lines.next().ok_or_else(|| ServeError::MalformedRequest("missing request line".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::MalformedRequest("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::MalformedRequest("missing path".into()))?
        .to_string();
    if !path.starts_with('/') {
        return Err(ServeError::MalformedRequest(format!("path {path:?} is not absolute")));
    }

    let mut content_length = 0usize;
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    ServeError::MalformedRequest(format!("bad Content-Length {value:?}"))
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ServeError::MalformedRequest(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }

    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|e| read_error("short body", &e))?;
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::MalformedRequest("body is not UTF-8".into()))?;

    Ok(Request { method, path, body })
}

/// A read cut off by the socket's read timeout is the client's silence
/// (408); any other failure is a malformed request (400).
fn read_error(what: &str, e: &std::io::Error) -> ServeError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ServeError::RequestTimeout,
        _ => ServeError::MalformedRequest(format!("{what}: {e}")),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response { status, body }
    }

    pub(crate) fn from_error(err: &ServeError) -> Response {
        Response { status: err.status(), body: err.to_body() }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serialise the response; every reply is JSON and closes the
    /// connection (the closed-loop clients reconnect per request).
    pub(crate) fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Read and write timeout of [`http_call`]'s socket: twice the server's
/// per-connection timeout, so a wedged server fails the call, not hangs it.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Blocking one-shot HTTP client: connect, send, read the full reply.
///
/// Shared by the integration tests and `sph_loadtest` so both speak the
/// exact wire format the server emits. Returns `(status, body)`, or an
/// error when the server sends or accepts nothing for 10 s.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ServeError> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Io(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ServeError::Io(format!("no address for {addr}")))?;
    let mut stream = TcpStream::connect(sock_addr)
        .map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(CALL_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CALL_TIMEOUT)))
        .map_err(|e| ServeError::Io(format!("set socket timeouts: {e}")))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| ServeError::Io(format!("send: {e}")))?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| ServeError::Io(format!("recv: {e}")))?;
    let text =
        String::from_utf8(raw).map_err(|_| ServeError::Io("response is not UTF-8".into()))?;
    parse_response(&text)
}

fn parse_response(text: &str) -> Result<(u16, String), ServeError> {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .or_else(|| text.split_once("\n\n"))
        .ok_or_else(|| ServeError::Io("response missing header terminator".into()))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ServeError::Io(format!("bad status line {status_line:?}")))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\":1}..";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\":1}..");
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(read_request(&mut &b""[..]).is_err());
        assert!(read_request(&mut &b"NOT-HTTP\r\n\r\n"[..]).is_err());
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let err = read_request(&mut &raw[..]).unwrap_err();
        assert_eq!(err.status(), 400);
        let mut big = Vec::from(&b"GET /x HTTP/1.1\r\n"[..]);
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD + 10));
        assert!(read_request(&mut &big[..]).is_err());
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    /// Counts the calls that reach the underlying stream.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn one_kib_post_costs_at_most_two_underlying_reads() {
        let body = "x".repeat(1024);
        let raw = format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 1024\r\n\r\n{body}");
        let mut counting = CountingReader { bytes: raw.as_bytes(), reads: 0 };
        let req = read_request(&mut std::io::BufReader::new(&mut counting)).unwrap();
        assert_eq!(req.body, body);
        assert!(counting.reads <= 2, "{} underlying reads for a 1 KiB POST", counting.reads);
    }

    /// Yields `bytes`, then fails the way a socket read timeout does.
    struct StallingReader<'a> {
        bytes: &'a [u8],
    }

    impl Read for StallingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_read_timeout_is_408_in_the_head_and_in_the_body() {
        let post = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        for bytes in [&b""[..], &b"GET /healthz HTTP/1.1\r\n"[..], &post[..]] {
            let mut stalling = std::io::BufReader::new(StallingReader { bytes });
            let err = read_request(&mut stalling).unwrap_err();
            assert_eq!(err.status(), 408, "{err}");
            let response = Response::from_error(&err);
            assert_eq!(response.reason(), "Request Timeout");
        }
    }

    #[test]
    fn response_round_trips_through_parser() {
        let resp = Response::json(202, "{\"id\":\"abc\"}".to_string());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let (status, body) = parse_response(std::str::from_utf8(&wire).unwrap()).unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, "{\"id\":\"abc\"}");
    }
}

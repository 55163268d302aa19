//! Hand-rolled HTTP/1.1 subset: exactly what `bbgnn-serve` needs.
//!
//! The workspace is dependency-free by design (DESIGN.md §0), so the wire
//! layer is written against `std::io` directly. Scope is deliberately
//! narrow — HTTP/1.1 keep-alive with `Content-Length` framing, JSON
//! bodies, and a server-sent-events (SSE) stream for job progress; no
//! chunked transfer, no TLS. The server's clients are `curl` and the CI
//! harness; both speak this subset natively.
//!
//! Request reading is bounded everywhere: the header block is capped at
//! [`MAX_HEAD`] bytes and the body at [`MAX_BODY`] bytes, so a hostile or
//! broken client cannot balloon server memory. Over-long bodies surface
//! as [`ReadError::TooLarge`], which the server maps to `413`. A client
//! that closes (or idles out) between keep-alive requests surfaces as
//! [`ReadError::Closed`], which ends the connection silently.

use std::io::{Read, Write};

/// Header-block cap (request line + headers, including the blank line).
pub const MAX_HEAD: usize = 16 * 1024;
/// Body cap — a [`JobSpec`](bbgnn_scenario::job::JobSpec) is well under a
/// kilobyte; anything near a megabyte is not a job submission.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request: method, path, body, and connection intent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Request body, decoded per `Content-Length`.
    pub body: String,
    /// The client asked to close after this response (`Connection: close`,
    /// or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The connection ended cleanly before a request line arrived — the
    /// normal end of a keep-alive connection (or an idle timeout). Not an
    /// error to report; just drop the connection.
    Closed,
    /// Syntactically broken request (maps to `400`).
    Malformed(String),
    /// Declared body exceeds [`MAX_BODY`] (maps to `413`).
    TooLarge,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::TooLarge => write!(f, "request body exceeds {MAX_BODY} bytes"),
        }
    }
}

fn malformed(m: impl Into<String>) -> ReadError {
    ReadError::Malformed(m.into())
}

/// Reads one request from `stream`.
///
/// Generic over `Read` so tests can drive it from a byte slice; the
/// server hands it a `TcpStream` with a read timeout installed. A close
/// or timeout *before any request bytes* is [`ReadError::Closed`] (the
/// connection is done); the same mid-header is `Malformed` (the
/// connection is broken).
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, ReadError> {
    // Byte-at-a-time until the blank line. The header block is tiny and
    // read once per request; simplicity beats a buffered scanner that
    // would over-read into the body (or the next pipelined request).
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(malformed("header block too large"));
        }
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            Ok(_) if head.is_empty() => return Err(ReadError::Closed),
            Ok(_) => return Err(malformed("connection closed mid-header")),
            Err(_) if head.is_empty() => return Err(ReadError::Closed),
            Err(e) => return Err(malformed(format!("read: {e}"))),
        }
    }
    let head = String::from_utf8(head).map_err(|_| malformed("header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported version {version:?}")));
    }
    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!("bad header line {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_ascii_lowercase());
        }
    }
    let close = match connection.as_deref() {
        Some(tokens) => tokens.split(',').any(|t| t.trim() == "close"),
        // HTTP/1.0 defaults to close; 1.1 defaults to keep-alive.
        None => version == "HTTP/1.0",
    };
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| malformed(format!("body read: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        close,
    })
}

/// The reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete JSON response and flushes. `keep_alive` selects
/// the `Connection` header; the caller closes the stream when it said
/// `close`. Head and body leave in a single write, so the response is
/// one segment rather than a head followed by a body that could wait on
/// the peer's ACK. Best-effort: a peer that hung up mid-write is its own
/// problem, not the server's.
pub fn write_response<W: Write>(stream: &mut W, status: u16, body: &str, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    );
    out.push_str(body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
}

/// Starts an SSE response: status line and headers only, no body framing
/// (the stream is terminated by connection close — SSE needs neither
/// `Content-Length` nor chunking for `curl -N` and `EventSource`).
/// Errors propagate so the caller can abandon a hung-up client.
pub fn write_sse_header<W: Write>(stream: &mut W) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one SSE event (`event:` + `data:` + blank line) and flushes.
/// `data` must be a single line — the server feeds it compact JSON.
/// Errors propagate so the caller can stop streaming to a gone client.
pub fn write_sse_event<W: Write>(stream: &mut W, event: &str, data: &str) -> std::io::Result<()> {
    debug_assert!(!data.contains('\n'), "SSE data must be single-line");
    stream.write_all(format!("event: {event}\ndata: {data}\n\n").as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut raw.as_bytes())
    }

    #[test]
    fn parses_a_post_with_body() {
        let r =
            req("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert_eq!(r.body, "{\"a\":1}");
        assert!(!r.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_bodyless_get_and_case_insensitive_length() {
        let r = req("GET /jobs/3 HTTP/1.1\r\ncontent-length: 0\r\n\r\n").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/jobs/3"));
        assert_eq!(r.body, "");
    }

    #[test]
    fn connection_intent_is_parsed() {
        let r = req("GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(r.close);
        let r = req("GET /health HTTP/1.1\r\nconnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(!r.close);
        let r = req("GET /health HTTP/1.0\r\n\r\n").unwrap();
        assert!(r.close, "HTTP/1.0 defaults to close");
        let r = req("GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!r.close);
    }

    #[test]
    fn clean_close_before_a_request_is_not_an_error() {
        assert_eq!(req(""), Err(ReadError::Closed));
        // Mid-header truncation is still loud.
        assert!(matches!(req("GET /x HT"), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn rejects_garbage_loudly() {
        assert!(matches!(
            req("nonsense\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            req("GET /x SPDY/3\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            req("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        // Truncated body: declared longer than the stream.
        assert!(matches!(
            req("POST /jobs HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn caps_oversized_bodies() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(req(&raw), Err(ReadError::TooLarge));
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "{\"error\":\"queue full\"}", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"queue full\"}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    /// Counts `write` calls; accepts every byte of each.
    #[derive(Default)]
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
        let mut out = CountingWriter::default();
        write_response(&mut out, 200, "{\"id\": 1}", true);
        assert_eq!(out.writes, 1, "head and body must share one write");
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.ends_with("\r\n\r\n{\"id\": 1}"), "{text}");
    }

    #[test]
    fn two_keepalive_requests_read_back_to_back() {
        let raw = "GET /health HTTP/1.1\r\n\r\nGET /jobs HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut stream = raw.as_bytes();
        let first = read_request(&mut stream).unwrap();
        assert_eq!(first.path, "/health");
        assert!(!first.close);
        let second = read_request(&mut stream).unwrap();
        assert_eq!(second.path, "/jobs");
        assert!(second.close);
        assert_eq!(read_request(&mut stream), Err(ReadError::Closed));
    }

    #[test]
    fn sse_framing_is_spec_shaped() {
        let mut out = Vec::new();
        write_sse_header(&mut out).unwrap();
        write_sse_event(&mut out, "progress", "{\"id\":1}").unwrap();
        write_sse_event(&mut out, "done", "{\"id\":1,\"state\":\"done\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: text/event-stream\r\n"));
        assert!(text.contains("\r\n\r\nevent: progress\ndata: {\"id\":1}\n\n"));
        assert!(text.ends_with("event: done\ndata: {\"id\":1,\"state\":\"done\"}\n\n"));
    }
}

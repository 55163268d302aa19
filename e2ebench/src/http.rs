//! A minimal HTTP/1.1 client for `bbgnn-serve`: keep-alive requests with
//! `Content-Length` bodies, and Server-Sent Event streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits on a socket read before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(90);

fn stream(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Reads a status line plus headers; returns `(status, headers)` with
/// lower-cased header names.
fn read_head(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        r.read_line(&mut line)?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One keep-alive connection; reconnects when the server closed it.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut reader = match self.reader.take() {
            Some(r) => r,
            None => BufReader::new(stream(self.addr)?),
        };
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        reader.get_mut().write_all(req.as_bytes())?;
        let (status, headers) = read_head(&mut reader)?;
        let len: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut buf = vec![0; len];
        reader.read_exact(&mut buf)?;
        if header(&headers, "connection") != Some("close") {
            self.reader = Some(reader);
        }
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// One Server-Sent Event with the time it arrived.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name (`queued`, `progress`, `done`, `cancelled`).
    pub name: String,
    /// The `data:` payload.
    pub data: String,
    /// Arrival time.
    pub at: Instant,
}

/// Follows `GET path` as an event stream until the server ends it; calls
/// `on_event` for every event. Returns the HTTP status.
pub fn follow(
    addr: SocketAddr,
    path: &str,
    mut on_event: impl FnMut(Event),
) -> std::io::Result<u16> {
    let mut s = stream(addr)?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut r = BufReader::new(s);
    let (status, headers) = read_head(&mut r)?;
    if status != 200 {
        let len: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut buf = vec![0; len];
        r.read_exact(&mut buf)?;
        return Ok(status);
    }
    let (mut name, mut data) = (String::new(), String::new());
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(status);
        }
        let l = line.trim_end_matches(['\r', '\n']);
        if let Some(v) = l.strip_prefix("event: ") {
            name = v.to_string();
        } else if let Some(v) = l.strip_prefix("data: ") {
            data = v.to_string();
        } else if l.is_empty() && !name.is_empty() {
            on_event(Event {
                name: std::mem::take(&mut name),
                data: std::mem::take(&mut data),
                at: Instant::now(),
            });
        }
    }
}

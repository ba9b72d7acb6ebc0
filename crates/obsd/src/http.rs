//! Minimal HTTP/1.1 request parsing and response writing over a
//! blocking [`TcpStream`].
//!
//! Deliberately tiny: one request per connection (`Connection: close`),
//! bounded head and body sizes, one deadline for the whole request, and
//! every malformed input is an `Err` the server maps to `400` — never a
//! panic (the listener must keep serving while the system it observes
//! degrades).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Maximum request-head bytes (request line + headers).
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum request-body bytes (`POST /api/v1/sql` payloads are small).
pub const MAX_BODY: usize = 64 * 1024;

/// A parsed request: method, percent-unescaped-as-is path, and body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// One `read`, with what is left until `deadline` as the socket timeout:
/// a peer that keeps every single read short of the timeout still has to
/// deliver its whole request in time.
fn read_before(
    stream: &mut TcpStream,
    deadline: Option<Instant>,
    chunk: &mut [u8],
) -> Result<usize, String> {
    if let Some(deadline) = deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("request timed out".into());
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| format!("read: {e}"))?;
    }
    stream.read(chunk).map_err(|e| format!("read: {e}"))
}

/// Read and parse one request. The stream's read timeout, as found, is
/// the budget for head and body together. Errors describe the
/// malformation (the server responds 400 with the text).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let budget = stream.read_timeout().map_err(|e| format!("read: {e}"))?;
    let deadline = budget.map(|b| Instant::now() + b);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut searched = 0;
    let head_end = loop {
        let found = find_head_end(&buf, searched);
        if found.unwrap_or(buf.len()) > MAX_HEAD {
            return Err("request head too large".into());
        }
        if let Some(pos) = found {
            break pos;
        }
        // A terminator may straddle this read and the next.
        searched = buf.len().saturating_sub(3);
        let n = read_before(stream, deadline, &mut chunk)?;
        if n == 0 {
            return Err("connection closed before request head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts
        .next()
        .ok_or("request line has no target")?
        .to_string();
    let version = parts.next().ok_or("request line has no version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}"));
    }
    if !path.starts_with('/') {
        return Err("target must be origin-form".into());
    }
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| "bad content-length".to_string())?;
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".into());
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, deadline, &mut chunk)?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

/// Offset of the first `\r\n\r\n` starting at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let at = buf[from..].windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + at)
}

/// Write a complete response and flush. Write errors are returned but
/// callers typically ignore them (the peer may already be gone).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

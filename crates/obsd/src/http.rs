//! Minimal HTTP/1.1 request parsing and response writing over a
//! blocking [`TcpStream`].
//!
//! Deliberately tiny: one request per connection (`Connection: close`),
//! bounded head and body sizes, one deadline for the whole request, and
//! every malformed input is an `Err` the server maps to `400` — never a
//! panic (the listener must keep serving while the system it observes
//! degrades).

use std::io::{self, IoSlice, Read, Write};
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

/// Write a complete response and flush: head and body leave together in
/// one vectored write, continued from wherever a short write stopped.
/// Write errors are returned but callers typically ignore them (the peer
/// may already be gone).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
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
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match stream.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Forwards at most [`CAP`] bytes per call to a stream, as a socket
    /// whose send buffer is full may, and records per call the bytes it
    /// was offered and the bytes that went.
    const CAP: usize = 3 << 20;

    struct Recording<'s> {
        inner: &'s mut TcpStream,
        calls: Vec<(usize, usize)>,
    }

    impl Write for Recording<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut room = CAP;
            let capped: Vec<IoSlice<'_>> = bufs
                .iter()
                .map_while(|b| {
                    let take = b.len().min(room);
                    room -= take;
                    (take > 0).then(|| IoSlice::new(&b[..take]))
                })
                .collect();
            let n = self.inner.write_vectored(&capped)?;
            let offered = bufs.iter().map(|b| b.len()).sum();
            self.calls.push((offered, n));
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_body_larger_than_the_send_buffer_leaves_with_its_head_and_arrives_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();
        // Far past the socket's send buffer and the writer's cap.
        let body: Vec<u8> = (0..16 << 20).map(|i: u32| (i % 251) as u8).collect();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            receiver.read_to_end(&mut got).map(|_| got)
        });
        let mut out = Recording {
            inner: &mut sender,
            calls: Vec::new(),
        };
        write_response(&mut out, 200, "text/plain", &body).unwrap();
        let calls = out.calls;
        drop(sender);
        let got = reader.join().unwrap().unwrap();

        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        );
        assert_eq!(&got[..head.len()], head.as_bytes());
        assert!(got[head.len()..] == body[..], "the body arrived changed");
        // The first call offered head and body at once; every later one
        // offered exactly what the calls before it had left.
        let total = head.len() + body.len();
        assert_eq!(calls[0].0, total, "{calls:?}");
        let mut sent = 0;
        for &(offered, n) in &calls {
            assert_eq!(offered, total - sent, "{calls:?}");
            sent += n;
        }
        assert_eq!(sent, total);
        assert!(calls.len() > 1, "{calls:?}");
    }
}

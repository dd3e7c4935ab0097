//! A blocking HTTP/1.1 client for the daemon.
//!
//! The daemon answers every request with `Connection: close`, so each
//! request opens its own connection; [`connections`] counts them.  The
//! daemon closes first, so the `TIME_WAIT` state stays on the server's
//! side of each connection and the client's ephemeral ports are free
//! again as soon as a request returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

static CONNECTIONS: AtomicU64 = AtomicU64::new(0);

/// Connections opened by this process so far.
pub fn connections() -> u64 {
    CONNECTIONS.load(Ordering::Relaxed)
}

/// A response: status code and body.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one request over a fresh connection and reads the response to
/// the end.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    CONNECTIONS.fetch_add(1, Ordering::Relaxed);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::with_capacity(64 * 1024);
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let status = text
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let split = text
        .find("\r\n\r\n")
        .ok_or_else(|| bad("no end of headers"))?;
    Ok(Response {
        status,
        body: text[split + 4..].to_string(),
    })
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, "")
}

/// Percent-encodes a node label for a path segment or query value
/// (syndicate labels hold `+`, which a query string reads as a space).
pub fn encode(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for b in label.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Reads a top-level unsigned integer field such as `"epoch"` from a
/// response body without parsing the whole document; the daemon writes
/// it before any nested object.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\""))?;
    let rest = body[at + key.len() + 2..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

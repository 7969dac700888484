//! The benchmark's keep-alive HTTP client. It finds where each response
//! frame ends with an incremental chunk walker, so the latency clock stops
//! at the frame's last byte without re-scanning the body, and then hands
//! the exact frame bytes to the strict parser of `mdw_serve::client`, whose
//! verdict (`complete_frame`, status) the output checks use.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mdw_serve::client::{parse_response, WireResponse};

use crate::json::Json;

/// Socket timeout: a stuck server fails the request instead of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A timed exchange: the strict parse of the frame, and the time from the
/// first request byte written to the last response byte read.
pub struct Exchange {
    pub response: WireResponse,
    pub latency: Duration,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request and reads exactly one response frame.
    pub fn exchange(&mut self, method: &str, target: &str) -> Result<Exchange, String> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: mdw\r\n");
        if method == "POST" {
            head.push_str("Content-Length: 0\r\n");
        }
        head.push_str("\r\n");
        let start = Instant::now();
        self.stream
            .write_all(head.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut walker = FrameWalker::default();
        let mut scratch = vec![0u8; 1 << 16];
        let end = loop {
            if let Some(end) = walker.advance(&self.buf)? {
                break end;
            }
            let got = self
                .stream
                .read(&mut scratch)
                .map_err(|e| format!("recv: {e}"))?;
            if got == 0 {
                return Err("server closed the connection mid-frame".to_string());
            }
            self.buf.extend_from_slice(&scratch[..got]);
        };
        let latency = start.elapsed();
        let frame: Vec<u8> = self.buf.drain(..end).collect();
        let response = parse_response(&frame).map_err(|e| e.to_string())?;
        Ok(Exchange { response, latency })
    }
}

/// Incremental frame-end detector over a growing buffer.
#[derive(Default)]
struct FrameWalker {
    /// Offset of the body once the head has been seen.
    body: Option<usize>,
    chunked: bool,
    content_length: usize,
    /// Next unread chunk-size line (chunked bodies).
    at: usize,
}

impl FrameWalker {
    /// `Some(len)` once `buf[..len]` holds one whole frame.
    fn advance(&mut self, buf: &[u8]) -> Result<Option<usize>, String> {
        if self.body.is_none() {
            let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-utf8 head")?;
            for line in head.split("\r\n").skip(1) {
                if let Some((name, value)) = line.split_once(':') {
                    let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
                    if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                        self.chunked = true;
                    } else if name == "content-length" {
                        self.content_length = value.parse().map_err(|_| "bad content-length")?;
                    }
                }
            }
            self.body = Some(head_end + 4);
            self.at = head_end + 4;
        }
        let body = self.body.expect("head parsed above");
        if !self.chunked {
            let end = body + self.content_length;
            return Ok((buf.len() >= end).then_some(end));
        }
        loop {
            let rest = &buf[self.at.min(buf.len())..];
            let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
                return Ok(None);
            };
            let size_text = std::str::from_utf8(&rest[..line_end]).map_err(|_| "bad chunk size")?;
            let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| "bad chunk size")?;
            let data = self.at + line_end + 2;
            if size == 0 {
                let end = data + 2;
                return Ok((buf.len() >= end).then_some(end));
            }
            if buf.len() < data + size + 2 {
                return Ok(None);
            }
            self.at = data + size + 2;
        }
    }
}

/// Percent-encodes a query-string value.
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len() * 3);
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Reads one counter from `GET /admin/stats`.
pub fn admin_counter(addr: SocketAddr, key: &str) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let ex = conn.exchange("GET", "/admin/stats")?;
    let doc = Json::parse(ex.response.body.trim())?;
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("admin stats lack {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_finds_frame_ends_incrementally() {
        let frame = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\nHTTP/1.1";
        let mut w = FrameWalker::default();
        let whole = frame.len() - b"HTTP/1.1".len();
        for cut in 0..whole {
            assert_eq!(w.advance(&frame[..cut]).unwrap(), None, "cut {cut}");
        }
        assert_eq!(w.advance(&frame[..]).unwrap(), Some(whole));
        let mut w = FrameWalker::default();
        assert_eq!(
            w.advance(b"HTTP/1.1 503 X\r\nContent-Length: 2\r\n\r\nok")
                .unwrap(),
            Some(39)
        );
    }

    #[test]
    fn encodes_reserved_bytes() {
        assert_eq!(encode("a b?{x}"), "a%20b%3F%7Bx%7D");
    }
}

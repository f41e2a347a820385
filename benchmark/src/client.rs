//! A keep-alive HTTP/1.1 client that times each request from its write to
//! the response head plus first body chunk, and to the last body byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest body the client accepts; a longer one is a failed request.
const MAX_BODY: usize = 64 << 20;

/// One response with its timings, measured from the start of the request
/// write.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub chunked: bool,
    /// The server asked to close the connection after this response.
    pub close: bool,
    /// Response head plus the first non-empty chunk (the head alone for a
    /// buffered body).
    pub ttfb: Duration,
    /// Last body byte.
    pub latency: Duration,
}

/// A client connection that reconnects when the server closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// A body buffer handed back with [`Client::recycle`], so the client's
    /// own allocations stay out of what the server's are measured against.
    spare: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Returns a reply's body buffer for the next response to reuse.
    pub fn recycle(&mut self, mut body: Vec<u8>) {
        body.clear();
        self.spare = body;
    }

    /// Sends one request and reads its response. Any I/O or framing error
    /// drops the connection; the next call reconnects.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let result = self.exchange(request);
        if !matches!(&result, Ok(reply) if !reply.close) {
            self.stream = None;
            self.buf.clear();
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let start = Instant::now();
        let mut conn = Conn {
            stream: self.stream.as_mut().expect("connected above"),
            buf: &mut self.buf,
        };
        conn.stream.write_all(request)?;
        let head_end = conn.fill_until(|b| find(b, b"\r\n\r\n"))?;
        let head = String::from_utf8(conn.buf[..head_end].to_vec()).map_err(|_| bad("head"))?;
        conn.buf.drain(..head_end + 4);
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .filter(|l| l.starts_with("HTTP/1."))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        for line in lines {
            let (name, value) = line.split_once(':').ok_or_else(|| bad("header"))?;
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|_| bad("content-length"))?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut ttfb = start.elapsed();
        let mut body = std::mem::take(&mut self.spare);
        if chunked {
            let mut first = true;
            loop {
                let line_end = conn.fill_until(|b| find(b, b"\r\n"))?;
                let size_text = std::str::from_utf8(&conn.buf[..line_end])
                    .map_err(|_| bad("chunk size"))?
                    .split(';')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                let size = usize::from_str_radix(&size_text, 16).map_err(|_| bad("chunk size"))?;
                conn.buf.drain(..line_end + 2);
                if size == 0 {
                    // Trailers, then the final empty line.
                    loop {
                        let end = conn.fill_until(|b| find(b, b"\r\n"))?;
                        conn.buf.drain(..end + 2);
                        if end == 0 {
                            break;
                        }
                    }
                    break;
                }
                if body.len() + size > MAX_BODY {
                    return Err(bad("body too large"));
                }
                conn.fill_to(size + 2)?;
                body.extend_from_slice(&conn.buf[..size]);
                conn.buf.drain(..size + 2);
                if first {
                    first = false;
                    ttfb = start.elapsed();
                }
            }
        } else {
            let length = length.ok_or_else(|| bad("no content-length"))?;
            if length > MAX_BODY {
                return Err(bad("body too large"));
            }
            conn.fill_to(length)?;
            body.extend(conn.buf.drain(..length));
        }
        Ok(Reply {
            status,
            body,
            chunked,
            close,
            ttfb,
            latency: start.elapsed(),
        })
    }
}

struct Conn<'a> {
    stream: &'a mut TcpStream,
    buf: &'a mut Vec<u8>,
}

impl Conn<'_> {
    fn read_more(&mut self) -> std::io::Result<()> {
        let mut tmp = [0u8; 64 * 1024];
        let n = self.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    fn fill_until(&mut self, found: impl Fn(&[u8]) -> Option<usize>) -> std::io::Result<usize> {
        loop {
            if let Some(at) = found(self.buf) {
                return Ok(at);
            }
            if self.buf.len() > 1 << 20 {
                return Err(bad("oversized head"));
            }
            self.read_more()?;
        }
    }

    fn fill_to(&mut self, len: usize) -> std::io::Result<()> {
        while self.buf.len() < len {
            self.read_more()?;
        }
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// An HTTP/1.1 request with a `Content-Length` body, as one buffer.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request on a fresh connection (scrapes and end-of-run checks).
pub fn one_shot(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<Reply> {
    Client::new(addr).send(&request_bytes(method, path, ""))
}

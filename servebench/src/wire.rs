//! A minimal keep-alive HTTP/1.1 client for loopback load: requests are
//! pre-encoded bytes, responses are parsed in place (status plus a
//! `Content-Length` body), so pipelined responses on one connection come
//! back in order and a hot loop allocates nothing per request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No answer within this long is an I/O failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent client connection.
pub struct Conn {
    stream: TcpStream,
    /// Receive buffer; `buf[start..end]` holds unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes the previous `recv` handed out, consumed on the next call.
    consumed: usize,
}

impl Conn {
    /// Connect with Nagle off (each request is one small write).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream, buf: vec![0; 64 * 1024], start: 0, end: 0, consumed: 0 })
    }

    /// Write one complete request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the next response: its status and body. The body borrows the
    /// connection's buffer until the next call.
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        loop {
            if let Some((status, start, end)) = self.next_buffered()? {
                return Ok((status, &self.buf[start..end]));
            }
            if self.start == self.end {
                (self.start, self.end) = (0, 0);
            } else if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    (self.start, self.end) = (0, self.end - self.start);
                } else {
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.end += n;
        }
    }

    /// The next response if it has already been read in full, without
    /// blocking; otherwise `None`.
    pub fn recv_buffered(&mut self) -> io::Result<Option<(u16, &[u8])>> {
        Ok(self.next_buffered()?.map(|(status, start, end)| (status, &self.buf[start..end])))
    }

    /// Consume the previous response and parse the next one from the
    /// buffer: `(status, body start, body end)` as offsets into `buf`.
    fn next_buffered(&mut self) -> io::Result<Option<(u16, usize, usize)>> {
        self.start += self.consumed;
        self.consumed = 0;
        let Some((status, body_start, body_end)) = parse_response(&self.buf[self.start..self.end])?
        else {
            return Ok(None);
        };
        self.consumed = body_end;
        Ok(Some((status, self.start + body_start, self.start + body_end)))
    }

    /// Send one request and read its response (body copied out).
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(request)?;
        let (status, body) = self.recv()?;
        Ok((status, body.to_vec()))
    }
}

/// Parse one complete response at the front of `buf`: `(status, body
/// start, body end)`, or `None` while it is incomplete.
fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let start = head_end + 4;
    Ok((buf.len() >= start + len).then_some((status, start, start + len)))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::parse_response;

    #[test]
    fn parses_pipelined_responses_in_order() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\n";
        let (status, start, end) = parse_response(two).unwrap().unwrap();
        assert_eq!((status, &two[start..end]), (200, &b"ok"[..]));
        let (status, start, end) = parse_response(&two[end..]).unwrap().unwrap();
        assert_eq!((status, start, end), (503, start, start));
        assert!(parse_response(&two[..20]).unwrap().is_none());
    }
}

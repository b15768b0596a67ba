//! A blocking HTTP/1.1 client over one keep-alive connection.
//!
//! The repository's own `bitwave_serve::client::Client` reads only
//! `Content-Length` bodies; `POST /v1/design` answers with a chunked NDJSON
//! stream and `connection: close`, so the benchmark carries this small
//! client that reads both and reconnects, inside the timed request, after
//! the server closes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response: status, the `X-Bitwave-Cache` header and the body (chunks
/// concatenated).
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// One keep-alive connection, re-opened after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut conn = Self {
            addr,
            reader: None,
            line: String::new(),
        };
        conn.reader()?;
        Ok(conn)
    }

    fn reader(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.reader = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        Ok(self.reader.as_mut().expect("connection just opened"))
    }

    /// Sends one request (head and body in one write) and reads the whole
    /// response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: e2ebench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.reader()?.get_mut().write_all(&message)?;
        let reply = self.read_reply();
        if !matches!(reply, Ok((_, true))) {
            self.reader = None;
        }
        reply.map(|(reply, _)| reply)
    }

    fn read_line(&mut self) -> io::Result<&str> {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        let read = self.reader()?.read_line(&mut line);
        self.line = line;
        if read? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    /// The reply and whether the connection stays open.
    fn read_reply(&mut self) -> io::Result<(Reply, bool)> {
        let status = self
            .read_line()?
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut cache = None;
        let mut length = 0usize;
        let mut chunked = false;
        let mut keep_alive = true;
        loop {
            let header = self.read_line()?;
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-bitwave-cache") {
                cache = Some(value.to_string());
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                let size_line = self.read_line()?;
                let size_hex = size_line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size_hex, 16)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
                if size == 0 {
                    // Trailers (none expected) end with an empty line.
                    while !self.read_line()?.is_empty() {}
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader()?.read_exact(&mut body[start..])?;
                self.read_line()?;
            }
        } else {
            body.resize(length, 0);
            self.reader()?.read_exact(&mut body)?;
        }
        Ok((
            Reply {
                status,
                cache,
                body,
            },
            keep_alive,
        ))
    }
}

//! A minimal keep-alive HTTP/1.1 client for the loopback workloads.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::inputs::http_request;

/// A parsed response: status, `X-Redeval-Cache` disposition, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The cache disposition header, when present.
    pub cache: Option<String>,
    /// The response body.
    pub body: Vec<u8>,
}

/// One persistent loopback connection.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Connection {
    /// Connects with Nagle off and a read timeout far above any
    /// benchmark request.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader })
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Socket errors and malformed responses.
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.stream
            .write_all(http_request(method, path, body).as_bytes())?;
        self.stream.flush()?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(malformed("connection closed before the status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("malformed status line"))?;
        let mut content_length = 0usize;
        let mut cache = None;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(malformed("connection closed inside the head"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| malformed("non-numeric content length"))?;
                } else if name.eq_ignore_ascii_case("x-redeval-cache") {
                    cache = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}

/// Polls `GET /healthz` on a fresh connection until it answers 200 (or
/// `attempts` tries fail), then closes the connection so it pins no
/// server worker.
///
/// # Errors
///
/// The last connection or request error.
pub fn wait_healthy(addr: SocketAddr, attempts: usize) -> io::Result<()> {
    let mut last = malformed("no attempt made");
    for _ in 0..attempts {
        match Connection::open(addr).and_then(|mut c| c.roundtrip("GET", "/healthz", "")) {
            Ok(reply) if reply.status == 200 => return Ok(()),
            Ok(_) => last = malformed("healthz answered non-200"),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(last)
}

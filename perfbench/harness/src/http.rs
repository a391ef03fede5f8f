//! A minimal keep-alive HTTP/1.1 client. The benchmark frames its own
//! requests so that a change to the service's framing code shows up on
//! the server side only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: String,
    /// Body of the last response.
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            out: Vec::with_capacity(1 << 16),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Send one request whose body is the concatenation of `parts`, and
    /// read the response into [`Conn::body`]. Returns the status code.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        parts: &[&[u8]],
    ) -> std::io::Result<u16> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {len}\r\n\r\n"
        )?;
        for p in parts {
            self.out.extend_from_slice(p);
        }
        self.writer.write_all(&self.out)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let n = content_length.ok_or_else(|| bad("response without Content-Length"))?;
        self.body.resize(n, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

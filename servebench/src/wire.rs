//! Raw-socket client side of the newline-delimited JSON protocol:
//! vectored sends of pre-encoded request pieces, line framing of the
//! replies, and byte comparisons against expected reply pieces. Nothing
//! here parses JSON.

use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One connection to the daemon with its own reply buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    start: usize,
    /// Bytes after `start` already searched for a newline.
    scanned: usize,
}

impl Conn {
    /// Connects with Nagle disabled (requests and replies are single
    /// lines; Nagle plus delayed ACKs would add a ~40 ms floor).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            scanned: 0,
        })
    }

    /// Writes the concatenation of `parts` (one request line, newline
    /// included) with as few syscalls as the kernel allows.
    pub fn send(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        let mut part = 0usize;
        let mut offset = 0usize;
        while part < parts.len() {
            let slices: Vec<IoSlice<'_>> = parts
                .iter()
                .skip(part)
                .enumerate()
                .map(|(i, p)| IoSlice::new(if i == 0 { &p[offset..] } else { p }))
                .collect();
            let mut written = match self.stream.write_vectored(&slices) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            while part < parts.len() {
                let left = parts[part].len() - offset;
                if written < left {
                    offset += written;
                    break;
                }
                written -= left;
                part += 1;
                offset = 0;
            }
        }
        Ok(())
    }

    /// Blocks until a complete reply line is buffered and returns it
    /// without its newline.
    pub fn read_line(&mut self) -> std::io::Result<&[u8]> {
        loop {
            if let Some(range) = self.take_line() {
                return Ok(&self.buf[range]);
            }
            self.read_some()?;
        }
    }

    /// The next buffered line's byte range, consumed from the buffer.
    fn take_line(&mut self) -> Option<std::ops::Range<usize>> {
        let from = self.start + self.scanned;
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                let range = self.start..from + i;
                self.start = from + i + 1;
                self.scanned = 0;
                Some(range)
            }
            None => {
                self.scanned = self.buf.len() - self.start;
                None
            }
        }
    }

    /// One `read` into the buffer (blocks until at least one byte).
    fn read_some(&mut self) -> std::io::Result<()> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        match read {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Whether `line` is exactly the concatenation of `parts`.
pub fn equals_concat(line: &[u8], parts: &[&[u8]]) -> bool {
    let mut rest = line;
    for part in parts {
        match rest.strip_prefix(*part) {
            Some(tail) => rest = tail,
            None => return false,
        }
    }
    rest.is_empty()
}

/// Prefix of every successful reply up to its id.
pub const OK_HEAD: &[u8] = b"{\"id\":";
/// Between a successful reply's id and its result payload.
pub const OK_MID: &[u8] = b",\"ok\":true,\"result\":";
/// Closes a successful reply.
pub const OK_END: &[u8] = b"}";

/// Whether `line` is the successful reply to request `id` carrying
/// exactly `payload`.
pub fn is_ok_reply(line: &[u8], id: &[u8], payload: &[u8]) -> bool {
    equals_concat(line, &[OK_HEAD, id, OK_MID, payload, OK_END])
}

/// Whether `line` is an error reply of the given wire `kind`; used to
/// count premise violations such as `unknown_snapshot`.
pub fn is_error_kind(line: &[u8], kind: &str) -> bool {
    let contains = |needle: &[u8]| line.windows(needle.len()).any(|w| w == needle);
    contains(b"\"ok\":false,") && contains(format!("\"kind\":\"{kind}\"").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_comparison_is_exact() {
        assert!(equals_concat(b"abcdef", &[b"ab", b"", b"cd", b"ef"]));
        assert!(!equals_concat(b"abcdefg", &[b"ab", b"cd", b"ef"]));
        assert!(!equals_concat(b"abcde", &[b"ab", b"cd", b"ef"]));
        assert!(is_ok_reply(
            b"{\"id\":12,\"ok\":true,\"result\":{\"x\":1}}",
            b"12",
            b"{\"x\":1}"
        ));
        assert!(!is_ok_reply(
            b"{\"id\":12,\"ok\":true,\"result\":{\"x\":2}}",
            b"12",
            b"{\"x\":1}"
        ));
    }

    #[test]
    fn error_kinds() {
        let line =
            b"{\"id\":3,\"ok\":false,\"error\":{\"kind\":\"unknown_snapshot\",\"message\":\"m\"}}";
        assert!(is_error_kind(line, "unknown_snapshot"));
        assert!(!is_error_kind(line, "overloaded"));
    }
}

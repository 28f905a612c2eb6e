//! Line framing shared by `coqld`, `coqld-router` and `coqlc`.
//!
//! The protocol is one request line in, one reply (a line or a terminated
//! block) out. Two rules keep a reply from stalling (see `DESIGN.md` §8):
//! every socket that carries it has `TCP_NODELAY` set, and every line goes
//! out in a single [`write_line`] call. Writing a line's text and its `\n`
//! separately lets Nagle's algorithm hold the `\n` until the peer ACKs the
//! text, and a peer that waits for the `\n` before answering delays that
//! ACK for its delayed-ACK timer (40 ms on Linux) on every exchange.

use std::io::{self, BufRead, ErrorKind, Write};
use std::time::{Duration, Instant};

/// What one bounded line read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (newline stripped, trailing `\r` trimmed).
    Line(String),
    /// The line exceeded the length cap; its bytes were discarded.
    TooLarge,
    /// Clean end of stream.
    Eof,
    /// The socket read timed out, or the per-line deadline passed, before
    /// a newline arrived.
    IdleTimeout,
}

/// Writes `text` and its terminating `\n` in one `write_all`, then flushes.
pub fn write_line<W: Write>(writer: &mut W, text: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(text.len() + 1);
    buf.extend_from_slice(text.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// Reads one `\n`-terminated line of at most `max` bytes. `per_line`, when
/// set, bounds the wall-clock time of the whole line, so a peer dribbling
/// one byte per socket-timeout interval still gets cut off. Oversized lines
/// are consumed and discarded up to their newline, so the connection
/// survives an `ERR TOOLARGE` reply. A final unterminated line is returned
/// as a line.
pub fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    per_line: Option<Duration>,
) -> io::Result<LineRead> {
    let deadline = per_line.map(|t| Instant::now() + t);
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(LineRead::IdleTimeout);
        }
        // Computed inside the fill_buf borrow; consumption happens after.
        enum Step {
            Eof,
            Consumed { n: usize, newline: bool },
        }
        let step = match reader.fill_buf() {
            Ok([]) => Step::Eof,
            Ok(buf) => match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        line.extend_from_slice(&buf[..pos]);
                    }
                    Step::Consumed { n: pos + 1, newline: true }
                }
                None => {
                    if !discarding {
                        line.extend_from_slice(buf);
                    }
                    Step::Consumed { n: buf.len(), newline: false }
                }
            },
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(LineRead::IdleTimeout);
            }
            Err(e) => return Err(e),
        };
        match step {
            Step::Eof => {
                return Ok(if discarding {
                    LineRead::TooLarge
                } else if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(finish_line(line))
                });
            }
            Step::Consumed { n, newline } => {
                reader.consume(n);
                if !discarding && line.len() > max {
                    discarding = true;
                    line.clear();
                }
                if newline {
                    return Ok(if discarding {
                        LineRead::TooLarge
                    } else {
                        LineRead::Line(finish_line(line))
                    });
                }
            }
        }
    }
}

fn finish_line(mut bytes: Vec<u8>) -> String {
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    /// Counts the `write` calls a writer receives.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_goes_out_in_one_write() {
        let mut w = CountingWriter { bytes: Vec::new(), writes: 0 };
        write_line(&mut w, "OK holds=true").unwrap();
        assert_eq!(w.bytes, b"OK holds=true\n");
        assert_eq!(w.writes, 1);
    }

    #[test]
    fn bounded_reads_split_lines_and_discard_oversized_ones() {
        let input = b"CHECK a\r\n0123456789abcdef\nlast";
        // A 4-byte buffer makes lines span several fill_buf calls.
        let mut r = BufReader::with_capacity(4, Cursor::new(&input[..]));
        assert_eq!(read_bounded_line(&mut r, 10, None).unwrap(), LineRead::Line("CHECK a".into()));
        assert_eq!(read_bounded_line(&mut r, 10, None).unwrap(), LineRead::TooLarge);
        assert_eq!(read_bounded_line(&mut r, 10, None).unwrap(), LineRead::Line("last".into()));
        assert_eq!(read_bounded_line(&mut r, 10, None).unwrap(), LineRead::Eof);
    }
}

//! A blocking client for the coqld line protocol and the parts of its
//! replies the benchmark reads: verdicts, `EXPLAIN` phases, certificates.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::gen::Family;

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set, so every stall measured is the
    /// server's, not this client's.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends one request line, writing it and its newline in one call.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads one reply: a single line, or (for an `OK` answer to a
    /// multi-line request) every line up to and including `END`.
    fn recv(&mut self, multiline: bool) -> io::Result<Vec<String>> {
        let first = self.read_line()?;
        let mut lines = vec![first];
        if multiline && lines[0].starts_with("OK") {
            while lines.last().map(String::as_str) != Some("END") {
                lines.push(self.read_line()?);
            }
        }
        Ok(lines)
    }

    /// Sends a request and reads its reply.
    pub fn call(&mut self, line: &str, multiline: bool) -> io::Result<Vec<String>> {
        self.send(line)?;
        self.recv(multiline)
    }

    /// `STATS` as a key → value map (non-numeric values are skipped).
    pub fn stats(&mut self) -> io::Result<HashMap<String, f64>> {
        self.send("STATS")?;
        let mut out = HashMap::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(out);
            }
            if let Some((k, v)) = line.split_once(' ') {
                if let Ok(v) = v.parse() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
}

/// A verdict as the server states it, or as the oracle decides it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `CHECK`/`UCHECK`: whether containment holds.
    Holds(bool),
    /// `EQUIV`: both directions and the combined verdict word.
    Equiv {
        /// `q1 ⊑ q2`.
        forward: bool,
        /// `q2 ⊑ q1`.
        backward: bool,
        /// `equivalent`, `not-equivalent` or `weakly-equivalent`.
        verdict: String,
    },
}

/// The `EXPLAIN` lines of one reply.
#[derive(Clone, Debug, Default)]
pub struct Explain {
    /// `parse, canonicalize, fingerprint, prepare, cache, kernel` µs.
    pub phases: [u64; 6],
    /// `explain.total_us`: the shard engine's whole decision.
    pub total_us: u64,
    /// Kernel threads engaged.
    pub threads_used: u64,
    /// `explain.router.route_us`, through a router only.
    pub route_us: Option<u64>,
    /// `explain.router.forward_us`, through a router only.
    pub forward_us: Option<u64>,
    /// `explain.router.attempts`, through a router only.
    pub attempts: Option<u64>,
}

/// The phase names of [`Explain::phases`], in order.
pub const PHASES: [&str; 6] =
    ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel"];

/// A successful reply.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The verdict.
    pub verdict: Verdict,
    /// Present when the request carried `EXPLAIN`.
    pub explain: Option<Box<Explain>>,
    /// The certificate block (`COCERT1` … `COCERTEND`) of a `CERT` reply.
    pub cert: Option<String>,
}

/// `key=value` lookup in a verdict line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn flag(line: &str, key: &str) -> Result<bool, String> {
    match field(line, key) {
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        _ => Err(format!("reply has no {key}=true|false: {line}")),
    }
}

/// Parses a reply to a request of `family`; `Err` carries the reason a
/// reply is not a usable answer (an `ERR` line or a malformed one).
pub fn parse_reply(family: Family, lines: &[String]) -> Result<Answer, String> {
    let first = lines.first().ok_or("empty reply")?;
    if !first.starts_with("OK ") {
        return Err(first.clone());
    }
    let verdict = match family {
        Family::Equiv => Verdict::Equiv {
            forward: flag(first, "forward")?,
            backward: flag(first, "backward")?,
            verdict: field(first, "verdict").ok_or("reply has no verdict=")?.to_string(),
        },
        _ => Verdict::Holds(flag(first, "holds")?),
    };
    let mut explain = None::<Box<Explain>>;
    let mut cert = None;
    let mut block: Option<Vec<&str>> = None;
    for line in &lines[1..] {
        if let Some(b) = block.as_mut() {
            b.push(line);
            if line == co_cert::WIRE_END {
                cert = Some(b.join("\n"));
                block = None;
            }
            continue;
        }
        if line.split_whitespace().next() == Some(co_cert::WIRE_MAGIC) {
            block = Some(vec![line]);
            continue;
        }
        let Some((key, value)) = line.split_once(' ') else { continue };
        let Some(key) = key.strip_prefix("explain.") else { continue };
        let Ok(value) = value.parse::<u64>() else { continue };
        let ex = explain.get_or_insert_with(Box::default);
        if let Some(i) = PHASES.iter().position(|p| key.strip_suffix("_us") == Some(p)) {
            ex.phases[i] = value;
        }
        match key {
            "total_us" => ex.total_us = value,
            "kernel.threads_used" => ex.threads_used = value,
            "router.route_us" => ex.route_us = Some(value),
            "router.forward_us" => ex.forward_us = Some(value),
            "router.attempts" => ex.attempts = Some(value),
            _ => {}
        }
    }
    Ok(Answer { verdict, explain, cert })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str) -> Vec<String> {
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn parses_verdicts_explain_and_certs() {
        let a = parse_reply(
            Family::CertCheck,
            &lines(
                "OK holds=true path=full cached=false fp1=1 fp2=2\nexplain.parse_us 7\n\
                 explain.total_us 90\nexplain.router.route_us 5\nCOCERT1 canonical verdict=holds \
                 path=full\nCOCERTEND\nEND",
            ),
        )
        .unwrap();
        assert_eq!(a.verdict, Verdict::Holds(true));
        let ex = a.explain.unwrap();
        assert_eq!((ex.phases[0], ex.total_us, ex.route_us), (7, 90, Some(5)));
        assert_eq!(a.cert.as_deref(), Some("COCERT1 canonical verdict=holds path=full\nCOCERTEND"));

        let e = parse_reply(
            Family::Equiv,
            &lines("OK verdict=not-equivalent forward=true backward=false cached=true"),
        )
        .unwrap();
        assert_eq!(
            e.verdict,
            Verdict::Equiv { forward: true, backward: false, verdict: "not-equivalent".into() }
        );
        assert!(parse_reply(Family::Check, &lines("ERR type error")).is_err());
    }
}

//! The coqld line protocol, in one place: the request grammar, the verb
//! table, the reply framing and one blocking client connection. `coqld`,
//! `coqld-router`, `coqlc` and the tests all read and write the protocol
//! through this module (see `DESIGN.md` §8).
//!
//! A request is one line: optional prefixes (`TIMEOUT <ms>`,
//! `BUDGET <steps>`, `EXPLAIN`, `CERT`; any order, any case), then a verb
//! from [`VERBS`] and its arguments. Blank and `#` lines get no reply.
//!
//! Two rules keep a reply from stalling: every socket that carries it has
//! `TCP_NODELAY` set, and every line goes out in a single [`write_line`]
//! call. Writing a line's text and its `\n` separately lets Nagle's
//! algorithm hold the `\n` until the peer ACKs the text, and a peer that
//! waits for the `\n` before answering delays that ACK for its
//! delayed-ACK timer (40 ms on Linux) on every exchange.

use std::fmt::Display;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The program that answers a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `coqld`.
    Shard,
    /// `coqld-router`.
    Router,
}

const BOTH: &[Side] = &[Side::Shard, Side::Router];
const SHARD: &[Side] = &[Side::Shard];
const ROUTER: &[Side] = &[Side::Router];

/// How a reply ends. Whatever the verb, an `ERR` reply is one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// One line.
    Line,
    /// A block closed by `END`.
    End,
    /// A block closed by `# EOF` (the Prometheus exposition).
    Eof,
    /// One line, unless the request carries `EXPLAIN` or `CERT`; then an
    /// `OK` reply is a block closed by `END`. [`Parsed::framing`] settles
    /// the "unless" for one request.
    EndIfAsked,
}

impl Framing {
    /// The framing of one request's reply: `EndIfAsked` stays only when
    /// the request `asked` for a body.
    fn resolve(self, asked: bool) -> Framing {
        match self {
            Framing::EndIfAsked if !asked => Framing::Line,
            other => other,
        }
    }

    /// The line that closes a reply whose first line is `first`, or `None`
    /// when `first` is the whole reply. Call it on a resolved framing.
    pub fn terminator(self, first: &str) -> Option<&'static str> {
        match self {
            _ if first.starts_with("ERR") => None,
            Framing::Line => None,
            Framing::End => Some("END"),
            Framing::Eof => Some("# EOF"),
            Framing::EndIfAsked => first.starts_with("OK").then_some("END"),
        }
    }
}

/// A protocol verb, as both front ends dispatch on it: each variant is the
/// verb of its name (`Quit` also answers `EXIT`).
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    Check,
    Equiv,
    UCheck,
    UEquiv,
    Agg,
    Nest,
    Fingerprint,
    Schema,
    Stats,
    Metrics,
    Shards,
    Handoff,
    SnapExport,
    SnapBegin,
    SnapData,
    SnapCommit,
    SnapAbort,
    Shutdown,
    Quit,
}

/// One row of the verb table.
#[derive(Debug)]
pub struct Verb {
    /// What the front ends dispatch on.
    pub cmd: Cmd,
    /// The verb as written on the wire (matched case-insensitively).
    pub name: &'static str,
    /// A decision: the only verbs that accept `EXPLAIN` and `CERT`.
    pub decision: bool,
    /// How the reply ends.
    pub framing: Framing,
    /// The sides that serve it; the other answers "unknown command".
    pub served: &'static [Side],
    /// The flag a server must be started with before it honors the verb.
    pub gate: Option<&'static str>,
    /// Listed in the unknown-command hint.
    pub listed: bool,
    /// The text of `ERR usage: …`.
    pub usage: &'static str,
}

#[allow(clippy::too_many_arguments)]
const fn verb(
    cmd: Cmd,
    name: &'static str,
    decision: bool,
    framing: Framing,
    served: &'static [Side],
    gate: Option<&'static str>,
    listed: bool,
    usage: &'static str,
) -> Verb {
    Verb { cmd, name, decision, framing, served, gate, listed, usage }
}

const HANDOFF_GATE: Option<&str> = Some("--allow-handoff");

/// Every verb of the protocol, in the order the unknown-command hint lists
/// them. A new verb is a row here.
#[rustfmt::skip]
pub const VERBS: &[Verb] = &[
    //   cmd               name           decision framing              served  gate                        listed usage
    verb(Cmd::Check,       "CHECK",       true,    Framing::EndIfAsked, BOTH,   None,                       true,  "CHECK <schema> <q1> ;; <q2>"),
    verb(Cmd::Equiv,       "EQUIV",       true,    Framing::EndIfAsked, BOTH,   None,                       true,  "EQUIV <schema> <q1> ;; <q2>"),
    verb(Cmd::UCheck,      "UCHECK",      true,    Framing::EndIfAsked, BOTH,   None,                       true,  "UCHECK <schema> <q1> [or <q>]* ;; <q2> [or <q>]*"),
    verb(Cmd::UEquiv,      "UEQUIV",      true,    Framing::EndIfAsked, BOTH,   None,                       true,  "UEQUIV <schema> <q1> [or <q>]* ;; <q2> [or <q>]*"),
    verb(Cmd::Agg,         "AGG",         false,   Framing::Line,       BOTH,   None,                       true,  "AGG <body> [| <fn>(<var>), ...] ;; <body> [| <fn>(<var>), ...]"),
    verb(Cmd::Nest,        "NEST",        false,   Framing::Line,       BOTH,   None,                       true,  "NEST <schema> <base> [; nest <A>,… as <G> | ; unnest <G>]* ;; <base> …"),
    verb(Cmd::Fingerprint, "FINGERPRINT", false,   Framing::Line,       BOTH,   None,                       true,  "FINGERPRINT <schema> <query>"),
    verb(Cmd::Schema,      "SCHEMA",      false,   Framing::Line,       BOTH,   None,                       true,  "SCHEMA <name> <decl>"),
    verb(Cmd::Stats,       "STATS",       false,   Framing::End,        BOTH,   None,                       true,  "STATS"),
    verb(Cmd::Metrics,     "METRICS",     false,   Framing::Eof,        BOTH,   None,                       true,  "METRICS"),
    verb(Cmd::Shards,      "SHARDS",      false,   Framing::End,        ROUTER, None,                       true,  "SHARDS"),
    verb(Cmd::Handoff,     "HANDOFF",     false,   Framing::Line,       ROUTER, None,                       true,  "HANDOFF <host:port>"),
    verb(Cmd::SnapExport,  "SNAPEXPORT",  false,   Framing::End,        SHARD,  HANDOFF_GATE,               true,  "SNAPEXPORT"),
    verb(Cmd::SnapBegin,   "SNAPBEGIN",   false,   Framing::Line,       SHARD,  HANDOFF_GATE,               false, "SNAPBEGIN <bytes>"),
    verb(Cmd::SnapData,    "SNAPDATA",    false,   Framing::Line,       SHARD,  HANDOFF_GATE,               false, "SNAPDATA <hex>"),
    verb(Cmd::SnapCommit,  "SNAPCOMMIT",  false,   Framing::Line,       SHARD,  HANDOFF_GATE,               false, "SNAPCOMMIT"),
    verb(Cmd::SnapAbort,   "SNAPABORT",   false,   Framing::Line,       SHARD,  HANDOFF_GATE,               false, "SNAPABORT"),
    verb(Cmd::Shutdown,    "SHUTDOWN",    false,   Framing::Line,       BOTH,   Some("--allow-shutdown"),   true,  "SHUTDOWN"),
    verb(Cmd::Quit,        "QUIT",        false,   Framing::Line,       BOTH,   None,                       true,  "QUIT"),
    verb(Cmd::Quit,        "EXIT",        false,   Framing::Line,       BOTH,   None,                       false, "EXIT"),
];

/// The usage text for a line that is all prefixes.
const LINE_USAGE: &str = "usage: [CERT] [EXPLAIN] [TIMEOUT <ms>] [BUDGET <steps>] <command ...>";

/// The table row of a verb, matched case-insensitively.
fn find(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.name.eq_ignore_ascii_case(name))
}

impl Verb {
    /// `usage: <this verb's usage>`.
    pub fn usage_error(&self) -> String {
        format!("usage: {}", self.usage)
    }

    /// Splits `<head> <tail>`; a missing tail is a usage error.
    pub fn split_head<'a>(&self, rest: &'a str) -> Result<(&'a str, &'a str), String> {
        match rest.split_once(char::is_whitespace) {
            Some((head, tail)) if !tail.trim().is_empty() => Ok((head, tail.trim())),
            _ => Err(self.usage_error()),
        }
    }

    /// Splits `<schema> <q1> ;; <q2>` into its trimmed parts; a missing
    /// part is a usage error.
    pub fn split_pair<'a>(&self, rest: &'a str) -> Result<(&'a str, &'a str, &'a str), String> {
        let (schema, queries) = self.split_head(rest)?;
        let (q1, q2) = queries.split_once(";;").ok_or_else(|| self.usage_error())?;
        let (q1, q2) = (q1.trim(), q2.trim());
        if q1.is_empty() || q2.is_empty() {
            return Err(self.usage_error());
        }
        Ok((schema, q1, q2))
    }
}

/// The refusal of a gated verb that `side` was not started to honor.
pub fn disabled(side: Side, verb: &Verb) -> String {
    let binary = if side == Side::Shard { "coqld" } else { "coqld-router" };
    let gate = verb.gate.unwrap_or_default();
    format!("{} is disabled (start {binary} with {gate})", verb.name)
}

/// The unknown-command error, with the hint listing the verbs `side`
/// serves.
fn unknown_command(side: Side, name: &str) -> String {
    let listed: Vec<&str> =
        VERBS.iter().filter(|v| v.listed && v.served.contains(&side)).map(|v| v.name).collect();
    format!("unknown command `{}` (try {})", name.to_ascii_uppercase(), listed.join(", "))
}

/// `<prefix> applies only to CHECK, EQUIV, UCHECK, and UEQUIV`.
fn applies_only(prefix: &str) -> String {
    let names: Vec<&str> = VERBS.iter().filter(|v| v.decision).map(|v| v.name).collect();
    let (last, init) = names.split_last().expect("the table has decision verbs");
    format!("{prefix} applies only to {}, and {last}", init.join(", "))
}

/// The prefixes a request line carries before its verb. A repeated prefix
/// overrides the earlier one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Prefixes {
    /// `TIMEOUT <ms>`, if given (`Some(0)` clears the server default).
    pub timeout_ms: Option<u64>,
    /// `BUDGET <steps>`, if given (`Some(0)` means unlimited).
    pub steps: Option<u64>,
    /// `EXPLAIN`: append the phase breakdown.
    pub explain: bool,
    /// `CERT`: append checkable certificates.
    pub cert: bool,
}

#[derive(Clone, Copy)]
enum Prefix {
    Timeout,
    Budget,
    Explain,
    Cert,
}

/// The prefix words: a new prefix is one row here and one arm in
/// [`Prefixes::scan`].
const PREFIXES: &[(&str, Prefix)] = &[
    ("TIMEOUT", Prefix::Timeout),
    ("BUDGET", Prefix::Budget),
    ("EXPLAIN", Prefix::Explain),
    ("CERT", Prefix::Cert),
];

impl Prefixes {
    /// Strips the leading prefixes off `line`; returns them and the
    /// command. A prefix number that does not parse is a usage error.
    fn scan(line: &str) -> Result<(Prefixes, &str), String> {
        let mut prefixes = Prefixes::default();
        let mut rest = line.trim_start();
        loop {
            let (head, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let Some(&(name, prefix)) = PREFIXES.iter().find(|(n, _)| n.eq_ignore_ascii_case(head))
            else {
                return Ok((prefixes, rest));
            };
            rest = tail.trim_start();
            let slot = match prefix {
                Prefix::Explain => {
                    prefixes.explain = true;
                    continue;
                }
                Prefix::Cert => {
                    prefixes.cert = true;
                    continue;
                }
                Prefix::Timeout => &mut prefixes.timeout_ms,
                Prefix::Budget => &mut prefixes.steps,
            };
            let (value, after) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let n = value
                .parse()
                .map_err(|_| format!("usage: {name} <n> <command ...> (got `{value}`)"))?;
            *slot = Some(n);
            rest = after.trim_start();
        }
    }

    /// The wall-clock limit: the request's `TIMEOUT` (0 = none), else
    /// `default`.
    pub fn timeout(&self, default: Option<Duration>) -> Option<Duration> {
        match self.timeout_ms {
            None => default,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
        }
    }

    /// The kernel step limit (`BUDGET 0` = none).
    pub fn step_limit(&self) -> Option<u64> {
        self.steps.filter(|&n| n != 0)
    }
}

/// One request line, parsed as one side serves it.
#[derive(Debug)]
pub struct Parsed<'a> {
    /// The prefixes before the verb.
    pub prefixes: Prefixes,
    /// The verb's table row.
    pub verb: &'static Verb,
    /// The line from the verb on.
    pub command: &'a str,
    /// The arguments after the verb, trimmed.
    pub rest: &'a str,
}

impl Parsed<'_> {
    /// How this request's reply ends.
    pub fn framing(&self) -> Framing {
        self.verb.framing.resolve(self.prefixes.explain || self.prefixes.cert)
    }
}

/// Parses one request line as `side` serves it. `Ok(None)` is a blank or
/// `#` line, which gets no reply; `Err` is the text of the `ERR` reply.
pub fn parse(side: Side, line: &str) -> Result<Option<Parsed<'_>>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (prefixes, command) = Prefixes::scan(line)?;
    if command.is_empty() {
        return Err(LINE_USAGE.to_string());
    }
    let (name, rest) = command.split_once(char::is_whitespace).unwrap_or((command, ""));
    let verb = find(name);
    let decision = verb.is_some_and(|v| v.decision);
    if prefixes.explain && !decision {
        return Err(applies_only("EXPLAIN"));
    }
    if prefixes.cert && !decision {
        return Err(applies_only("CERT"));
    }
    match verb {
        Some(verb) if verb.served.contains(&side) => {
            Ok(Some(Parsed { prefixes, verb, command, rest: rest.trim() }))
        }
        _ => Err(unknown_command(side, name)),
    }
}

/// How the reply to `line` ends, whichever side answers it; `None` when
/// no reply comes. A line neither side accepts gets a one-line `ERR`.
fn reply_framing(line: &str) -> Option<Framing> {
    match parse(Side::Shard, line).or_else(|_| parse(Side::Router, line)) {
        Ok(parsed) => parsed.map(|p| p.framing()),
        Err(_) => Some(Framing::Line),
    }
}

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
    Ok(match read_raw(reader, max, deadline, true)? {
        Raw::Line(bytes) | Raw::Unterminated(bytes) => LineRead::Line(finish_line(bytes)),
        Raw::TooLarge => LineRead::TooLarge,
        Raw::Eof => LineRead::Eof,
        Raw::IdleTimeout => LineRead::IdleTimeout,
    })
}

/// What [`read_raw`] found.
enum Raw {
    Line(Vec<u8>),
    /// The stream ended after these bytes, before a newline.
    Unterminated(Vec<u8>),
    TooLarge,
    Eof,
    IdleTimeout,
}

/// The one line reader. Past `max` bytes it either discards up to the
/// newline (`discard_oversized`, so a server's connection survives) or
/// stops at once (a client drops the connection).
fn read_raw<R: BufRead>(
    reader: &mut R,
    max: usize,
    deadline: Option<Instant>,
    discard_oversized: bool,
) -> io::Result<Raw> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Raw::IdleTimeout);
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
                return Ok(Raw::IdleTimeout);
            }
            Err(e) => return Err(e),
        };
        match step {
            Step::Eof => {
                return Ok(if discarding {
                    Raw::TooLarge
                } else if line.is_empty() {
                    Raw::Eof
                } else {
                    Raw::Unterminated(line)
                });
            }
            Step::Consumed { n, newline } => {
                reader.consume(n);
                if !discarding && line.len() > max {
                    if !discard_oversized {
                        return Ok(Raw::TooLarge);
                    }
                    discarding = true;
                    line.clear();
                }
                if newline {
                    return Ok(if discarding { Raw::TooLarge } else { Raw::Line(line) });
                }
            }
        }
    }
}

/// Strips a trailing `\r` and decodes the line. Valid UTF-8 (almost every
/// line) is taken over without a copy; invalid bytes become U+FFFD.
fn finish_line(mut bytes: Vec<u8>) -> String {
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Longest reply line a [`Conn`] accepts: far above any line a server
/// sends (`SNAPEXPORT` chunks its hex payload into 4096-character lines).
const MAX_REPLY_LINE_BYTES: usize = 1 << 20;

/// A blocking, line-oriented client connection to a coqld or
/// coqld-router: the router's shard pool and health probe, `coqlc` and
/// the tests all talk through it.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Dials `addr` with a bounded connect, sets `TCP_NODELAY` and installs
    /// `io_timeout` as the read and write timeout.
    pub fn connect<A: ToSocketAddrs + Display>(
        addr: A,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> io::Result<Conn> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::InvalidInput, format!("unresolvable `{addr}`"))
        })?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// [`Conn::connect`] with a 2 s connect and 30 s I/O timeouts.
    pub fn dial<A: ToSocketAddrs + Display>(addr: A) -> io::Result<Conn> {
        Conn::connect(addr, Duration::from_secs(2), Some(Duration::from_secs(30)))
    }

    /// Adjusts the read timeout (per-request deadlines on pooled
    /// connections).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Writes one protocol line (newline appended) in one write.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads one line of at most 1 MiB, newline and
    /// trailing `\r` stripped. EOF, also EOF *mid-line* (a peer that died
    /// while writing leaves `OK hol`, which must never pass for an
    /// answer), is `UnexpectedEof`; a longer line is `InvalidData`, read
    /// no further than the cap. Drop the connection after any error.
    pub fn read_line(&mut self) -> io::Result<String> {
        let fail = |kind, message: String| Err(io::Error::new(kind, message));
        match read_raw(&mut self.reader, MAX_REPLY_LINE_BYTES, None, false)? {
            Raw::Line(bytes) => Ok(finish_line(bytes)),
            Raw::Eof => fail(ErrorKind::UnexpectedEof, "connection closed".to_string()),
            Raw::Unterminated(bytes) => fail(
                ErrorKind::UnexpectedEof,
                format!("connection closed mid-line after {} byte(s)", bytes.len()),
            ),
            Raw::TooLarge => fail(
                ErrorKind::InvalidData,
                format!("reply line exceeds {MAX_REPLY_LINE_BYTES} bytes"),
            ),
            Raw::IdleTimeout => fail(ErrorKind::TimedOut, "no reply in time".to_string()),
        }
    }

    /// Reads one whole reply framed as `framing` (one request's, see
    /// [`Parsed::framing`]): its lines joined with `\n`, the terminator
    /// kept.
    pub fn read_reply(&mut self, framing: Framing) -> io::Result<String> {
        let mut reply = self.read_line()?;
        if let Some(end) = framing.terminator(&reply) {
            loop {
                let line = self.read_line()?;
                reply.push('\n');
                reply.push_str(&line);
                if line == end {
                    break;
                }
            }
        }
        Ok(reply)
    }

    /// Sends `line` and reads its whole reply, framed as the verb table
    /// says. A blank or `#` line gets no reply: the result is empty.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let framing = reply_framing(line);
        self.send_line(line)?;
        match framing {
            Some(framing) => self.read_reply(framing),
            None => Ok(String::new()),
        }
    }
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

    #[test]
    fn invalid_utf8_becomes_replacement_characters() {
        let input = b"OK \xff\xfe ok\nvalid \xc3\xa9\n";
        let mut r = BufReader::new(Cursor::new(&input[..]));
        assert_eq!(
            read_bounded_line(&mut r, 64, None).unwrap(),
            LineRead::Line("OK \u{FFFD}\u{FFFD} ok".into())
        );
        assert_eq!(read_bounded_line(&mut r, 64, None).unwrap(), LineRead::Line("valid é".into()));
    }

    #[test]
    fn client_reads_stop_at_the_cap_and_refuse_truncated_lines() {
        let mut r = BufReader::with_capacity(4, Cursor::new(&b"0123456789abcdef\n"[..]));
        assert!(matches!(read_raw(&mut r, 10, None, false).unwrap(), Raw::TooLarge));
        // Stopped within one buffer fill of the cap, not at the newline.
        assert!(r.into_inner().position() < 16);
        let mut r = BufReader::new(Cursor::new(&b"OK hol"[..]));
        assert!(
            matches!(read_raw(&mut r, 10, None, false).unwrap(), Raw::Unterminated(b) if b == b"OK hol")
        );
    }

    #[test]
    fn prefixes_scan_in_any_order_and_case() {
        let (p, rest) = Prefixes::scan("TIMEOUT 250 BUDGET 9 CHECK s a ;; b").unwrap();
        assert_eq!(p, Prefixes { timeout_ms: Some(250), steps: Some(9), ..Prefixes::default() });
        assert_eq!(p.timeout(None), Some(Duration::from_millis(250)));
        assert_eq!(p.step_limit(), Some(9));
        assert_eq!(rest, "CHECK s a ;; b");
        let (p, rest) = Prefixes::scan("cert Explain TIMEOUT 0 CHECK s a ;; b").unwrap();
        assert!(p.explain && p.cert);
        // 0 clears the server default.
        assert_eq!(p.timeout(Some(Duration::from_secs(1))), None);
        assert_eq!(rest, "CHECK s a ;; b");
        let (p, rest) = Prefixes::scan("CERT TIMEOUT 250 EXPLAIN CHECK s a ;; b").unwrap();
        assert_eq!((p.timeout_ms, p.explain, p.cert), (Some(250), true, true));
        assert_eq!(rest, "CHECK s a ;; b");
        let (p, rest) = Prefixes::scan("STATS").unwrap();
        assert_eq!(p.timeout(Some(Duration::from_secs(1))), Some(Duration::from_secs(1)));
        assert_eq!(rest, "STATS");
        // The last of a repeated prefix wins; BUDGET 0 is no limit.
        let (p, _) = Prefixes::scan("BUDGET 5 budget 0 TIMEOUT 7 timeout 9 CHECK").unwrap();
        assert_eq!((p.step_limit(), p.timeout_ms), (None, Some(9)));
        assert_eq!(
            Prefixes::scan("TIMEOUT nope CHECK").unwrap_err(),
            "usage: TIMEOUT <n> <command ...> (got `nope`)"
        );
        assert_eq!(
            Prefixes::scan("budget -1 CHECK").unwrap_err(),
            "usage: BUDGET <n> <command ...> (got `-1`)"
        );
        assert_eq!(
            Prefixes::scan("TIMEOUT").unwrap_err(),
            "usage: TIMEOUT <n> <command ...> (got ``)"
        );
    }

    #[test]
    fn parse_applies_the_table() {
        let p = parse(Side::Shard, "  explain check s a ;; b ").unwrap().unwrap();
        assert_eq!((p.verb.cmd, p.command, p.rest), (Cmd::Check, "check s a ;; b", "s a ;; b"));
        assert!(parse(Side::Shard, "   ").unwrap().is_none());
        assert!(parse(Side::Router, "# note").unwrap().is_none());
        assert_eq!(parse(Side::Shard, "TIMEOUT 5").unwrap_err(), LINE_USAGE);
        assert_eq!(
            parse(Side::Router, "EXPLAIN STATS").unwrap_err(),
            "EXPLAIN applies only to CHECK, EQUIV, UCHECK, and UEQUIV"
        );
        assert_eq!(
            parse(Side::Shard, "CERT bogus").unwrap_err(),
            "CERT applies only to CHECK, EQUIV, UCHECK, and UEQUIV"
        );
        assert_eq!(
            parse(Side::Shard, "shards").unwrap_err(),
            "unknown command `SHARDS` (try CHECK, EQUIV, UCHECK, UEQUIV, AGG, NEST, FINGERPRINT, \
             SCHEMA, STATS, METRICS, SNAPEXPORT, SHUTDOWN, QUIT)"
        );
        assert_eq!(
            parse(Side::Router, "SnapExport").unwrap_err(),
            "unknown command `SNAPEXPORT` (try CHECK, EQUIV, UCHECK, UEQUIV, AGG, NEST, \
             FINGERPRINT, SCHEMA, STATS, METRICS, SHARDS, HANDOFF, SHUTDOWN, QUIT)"
        );
        assert_eq!(parse(Side::Router, "exit").unwrap().unwrap().verb.cmd, Cmd::Quit);
        let shutdown = find("shutdown").unwrap();
        assert_eq!(
            disabled(Side::Router, shutdown),
            "SHUTDOWN is disabled (start coqld-router with --allow-shutdown)"
        );
        assert_eq!(
            disabled(Side::Shard, find("SNAPDATA").unwrap()),
            "SNAPDATA is disabled (start coqld with --allow-handoff)"
        );
    }

    #[test]
    fn pair_and_head_splits_use_the_verb_usage() {
        let check = find("CHECK").unwrap();
        assert_eq!(check.split_pair("s a ;; b").unwrap(), ("s", "a", "b"));
        for bad in ["", "s", "s a", "s a ;;", "s ;; b", "s a ;;   "] {
            assert_eq!(check.split_pair(bad).unwrap_err(), "usage: CHECK <schema> <q1> ;; <q2>");
        }
        let union = find("UEQUIV").unwrap();
        assert_eq!(
            union.split_pair("s a").unwrap_err(),
            "usage: UEQUIV <schema> <q1> [or <q>]* ;; <q2> [or <q>]*"
        );
        let fp = find("FINGERPRINT").unwrap();
        assert_eq!(
            fp.split_head("s  select x from x in R ").unwrap(),
            ("s", "select x from x in R")
        );
        assert_eq!(fp.split_head("s").unwrap_err(), "usage: FINGERPRINT <schema> <query>");
    }

    #[test]
    fn reply_framing_follows_the_table() {
        let end = |line: &str, first: &str| reply_framing(line).unwrap().terminator(first);
        assert_eq!(end("STATS", "uptime_seconds 1"), Some("END"));
        assert_eq!(end("METRICS", "# HELP x y"), Some("# EOF"));
        assert_eq!(end("SHARDS", "127.0.0.1:1 up=true"), Some("END"));
        assert_eq!(end("SNAPEXPORT", "OK bytes=0"), Some("END"));
        assert_eq!(end("CHECK app a ;; b", "OK true"), None);
        assert_eq!(end("EXPLAIN CHECK app a ;; b", "OK true"), Some("END"));
        assert_eq!(end("TIMEOUT 50 EXPLAIN EQUIV app a ;; b", "OK true"), Some("END"));
        assert_eq!(end("CERT CHECK app a ;; b", "OK true"), Some("END"));
        assert_eq!(end("CERT TIMEOUT 9 EQUIV app a ;; b", "OK true"), Some("END"));
        assert_eq!(end("UCHECK app a or b ;; c", "OK holds=true"), None);
        assert_eq!(end("cert ucheck app a or b ;; c", "OK holds=true"), Some("END"));
        assert_eq!(end("EXPLAIN UEQUIV app a ;; b or c", "OK true"), Some("END"));
        assert_eq!(end("AGG q(X) :- R(X). ;; q(X) :- R(X).", "OK forward=true"), None);
        assert_eq!(end("NEST app R ;; R", "OK equivalent=true"), None);
        // ERR replies are single-line even under EXPLAIN/CERT or for
        // block verbs; so is a garbled first line of a decision.
        assert_eq!(end("EXPLAIN CHECK app a ;; b", "ERR DEADLINE"), None);
        assert_eq!(end("CERT CHECK app a ;; b", "ERR CERTUNAVAILABLE x"), None);
        assert_eq!(end("SNAPEXPORT", "ERR SNAPEXPORT is disabled"), None);
        assert_eq!(end("CERT CHECK app a ;; b", "\u{1a}garbled"), None);
        assert_eq!(end("TIMEOUT x STATS", "ERR usage"), None);
        assert_eq!(end("BOGUS", "ERR unknown command"), None);
        assert_eq!(reply_framing("  # comment"), None);
        assert_eq!(reply_framing(""), None);
    }
}

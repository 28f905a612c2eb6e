//! `coqld`'s TCP front end: a line-oriented request/response protocol.
//!
//! One request per line, one reply per line or terminated block, UTF-8,
//! newline-terminated — usable from `nc`. The verbs, their usage and
//! their reply framing are the table in [`crate::wire`]; this module
//! executes the verbs a shard serves.
//!
//! The `SNAP*` verbs implement warm shard handoff (a router ships one
//! shard's cache to a joining shard) and are gated behind
//! [`ServerConfig::allow_handoff`]. A pushed snapshot is verified with
//! the same all-or-nothing header/version/CRC gating as a warm start:
//! any mismatch answers `ERR SNAPREJECTED …` and leaves the resident
//! cache untouched — a half-loaded cache can never exist.
//!
//! A *union query* is `expr (or expr)*`: `UCHECK` decides `∪Pⱼ ⊑ ∪Qᵢ`
//! by the Sagiv–Yannakakis reduction (every left disjunct contained in
//! some right disjunct), `UEQUIV` decides both directions. Both compose
//! with `CERT`/`EXPLAIN`/`TIMEOUT`/`BUDGET`; a `CERT` reply carries one
//! `COUNION1 … COUNIONEND` block per direction, embedding one `COCERT1`
//! block per witness (or per-branch counterexample blocks when refuted).
//! `AGG` decides uninterpreted aggregate-query containment (§7): each
//! side is `<datalog body> | <fn>(<var>), …`, e.g.
//! `AGG q(X) :- R(X,Y). | count(Y) ;; q(X) :- R(X,Z). | count(Z)`.
//! `NEST` decides nest/unnest sequence equivalence over a registered
//! flat schema: each side is `<base> [; nest <A>,<B> as <G> | ; unnest <G>]*`.
//!
//! `CHECK`/`EQUIV` accept budget prefixes: `TIMEOUT <ms>` caps the
//! request's wall-clock time and `BUDGET <steps>` caps the kernel steps
//! of each disjunct-pair decision (`0` clears the server default). An
//! expired budget answers `ERR DEADLINE …` without memoizing the verdict
//! (a union keeps the pair verdicts it finished). An `EXPLAIN` prefix
//! (combinable with the budget prefixes) answers the usual verdict line
//! followed by `explain.*` phase timings and kernel step counts,
//! terminated by `END`.
//!
//! A `CERT` prefix (combinable with `EXPLAIN` and the budget prefixes)
//! demands a proof-carrying verdict: the reply is the usual verdict
//! line, any `explain.*` lines, then one `COCERT1 … COCERTEND` block per
//! containment direction (one for `CHECK`, forward then backward for
//! `EQUIV`), terminated by `END`. The certificate is checkable by
//! `co-cert` (or `coqlc cert`) without trusting this server. A cached
//! certificate is re-checked server-side before being served; one that
//! fails re-check is discarded and the verdict recomputed (counted in
//! `persist.cert_rejected`). When a verdict stands but no certificate
//! can be constructed the reply is `ERR CERTUNAVAILABLE …`.
//!
//! Replies start `OK` or `ERR`. Degradation is graceful by design:
//!
//! * connections beyond [`ServerConfig::max_connections`] are shed
//!   immediately with `ERR OVERLOADED` instead of queueing unboundedly;
//! * request lines longer than [`ServerConfig::max_line_bytes`] answer
//!   `ERR TOOLARGE` (the oversized line is discarded, the connection
//!   survives);
//! * a connection that idles — or dribbles bytes without finishing a
//!   line — past [`ServerConfig::read_timeout`] is closed (slow-loris
//!   defense), as is one that won't accept writes within
//!   [`ServerConfig::write_timeout`];
//! * a panic anywhere in a handler is contained: the connection gets
//!   `ERR INTERNAL` (or is closed), counters tick, the server keeps
//!   serving;
//! * [`Shutdown::trigger`] stops the accept loop, lets in-flight
//!   connections finish up to [`ServerConfig::drain_timeout`], then
//!   returns cleanly.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use co_cq::{RelSchema, Schema};
use co_object::{interrupt, par};

use co_trace::{kernel, Span};

use crate::deadline::RequestBudget;
use crate::engine::{Decision, Engine, Explain, Op, Request};
use crate::faults;
use crate::fingerprint::FINGERPRINT_VERSION;
use crate::snapshot::{from_hex, to_hex, FORMAT_VERSION};
use crate::stats::{path_label, LatencyHistogram, ServerStats};
use crate::sync;
use crate::wire::{self, read_bounded_line, write_line, Cmd, LineRead, Side, Verb};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently-served connections; excess connections are
    /// shed with `ERR OVERLOADED` rather than queued.
    pub max_connections: usize,
    /// Absolute time a client gets to deliver one complete request line;
    /// dribbling bytes does not reset it. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Time a single reply write may block before the connection is
    /// declared dead. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line; longer lines answer `ERR TOOLARGE`.
    pub max_line_bytes: usize,
    /// Default wall-clock budget for `CHECK`/`EQUIV` when the request
    /// carries no `TIMEOUT` prefix. `None` means unlimited.
    pub default_timeout: Option<Duration>,
    /// How long a drain ([`Shutdown::trigger`]) waits for in-flight
    /// connections before returning anyway.
    pub drain_timeout: Duration,
    /// Whether the `SHUTDOWN` verb is honored (off by default: any client
    /// could stop the server).
    pub allow_shutdown: bool,
    /// Whether the `SNAPEXPORT`/`SNAPBEGIN`/`SNAPDATA`/`SNAPCOMMIT`/
    /// `SNAPABORT` warm-handoff verbs are honored (off by default: they
    /// let any client read the cache or push entries into it).
    pub allow_handoff: bool,
    /// Where to persist the memo cache. `None` disables persistence;
    /// with a path set, a background snapshotter publishes the cache
    /// every [`ServerConfig::snapshot_interval`] and once more after the
    /// drain completes, so a restart with the same path warm-starts.
    pub cache_path: Option<PathBuf>,
    /// How often the background snapshotter publishes the cache (only
    /// meaningful with [`ServerConfig::cache_path`] set).
    pub snapshot_interval: Duration,
    /// Requests whose end-to-end handling takes at least this long are
    /// written to stderr as one-line structured records (and counted in
    /// [`ServerStats::slow_requests`]). `None` disables the slow log.
    pub slow_log: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: 64 * 1024,
            default_timeout: None,
            drain_timeout: Duration::from_secs(5),
            allow_shutdown: false,
            allow_handoff: false,
            cache_path: None,
            snapshot_interval: Duration::from_secs(30),
            slow_log: None,
        }
    }
}

/// A counting gate bounding live connection threads (std-only semaphore).
struct Gate {
    state: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

/// RAII slot in the [`Gate`]: released on drop, so a handler that panics
/// or returns early can never leak its connection slot.
struct GateGuard {
    gate: Arc<Gate>,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate { state: Mutex::new(0), freed: Condvar::new(), max: max.max(1) }
    }

    /// Claims a slot if one is free; `None` means shed the connection.
    fn try_acquire(self: &Arc<Self>) -> Option<GateGuard> {
        let mut live = sync::lock(&self.state);
        if *live >= self.max {
            return None;
        }
        *live += 1;
        Some(GateGuard { gate: Arc::clone(self) })
    }

    /// Waits until no slot is held or `deadline` passes; true when idle.
    fn wait_idle(&self, deadline: Instant) -> bool {
        let mut live = sync::lock(&self.state);
        while *live > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            live = sync::wait_timeout(&self.freed, live, remaining);
        }
        true
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        *sync::lock(&self.gate.state) -= 1;
        self.gate.freed.notify_all();
    }
}

#[derive(Default)]
struct ShutdownState {
    stop: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
}

/// Handle for stopping a [`serve_with_shutdown`] loop from another thread
/// (or from the `SHUTDOWN` verb). Cheap to clone.
#[derive(Clone, Default)]
pub struct Shutdown {
    inner: Arc<ShutdownState>,
}

impl Shutdown {
    /// A fresh, untriggered handle.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Requests shutdown: the accept loop stops taking connections,
    /// in-flight connections drain, and `serve_with_shutdown` returns.
    /// Idempotent.
    pub fn trigger(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake a blocked accept() with a throwaway connection; best-effort
        // (if it fails, the next real connection unblocks the loop).
        if let Some(addr) = *sync::lock(&self.inner.addr) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    fn set_addr(&self, addr: Option<SocketAddr>) {
        *sync::lock(&self.inner.addr) = addr;
    }

    /// Records the listener address [`Shutdown::trigger`] should poke to
    /// wake a blocked `accept`. For servers built on this handle outside
    /// this module (the router's accept loop reuses it).
    pub fn set_wake_addr(&self, addr: Option<SocketAddr>) {
        self.set_addr(addr);
    }
}

/// Everything a connection handler needs, shared across all of them.
struct ServerCtx {
    engine: Arc<Engine>,
    config: ServerConfig,
    stats: ServerStats,
    shutdown: Shutdown,
}

/// Runs the accept loop until the listener errors. Equivalent to
/// [`serve_with_shutdown`] with a handle nobody triggers.
pub fn serve(
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
) -> std::io::Result<()> {
    serve_with_shutdown(listener, engine, config, Shutdown::new())
}

/// Runs the accept loop until `shutdown` is triggered (or the listener
/// errors). On shutdown it stops accepting, closes the listener, waits up
/// to [`ServerConfig::drain_timeout`] for in-flight connections, and
/// returns `Ok(())`.
pub fn serve_with_shutdown(
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: Shutdown,
) -> std::io::Result<()> {
    shutdown.set_addr(listener.local_addr().ok());
    let gate = Arc::new(Gate::new(config.max_connections));
    let ctx = Arc::new(ServerCtx { engine, config, stats: ServerStats::default(), shutdown });
    let snapshotter = ctx.config.cache_path.clone().map(|path| {
        let engine = Arc::clone(&ctx.engine);
        let shutdown = ctx.shutdown.clone();
        let interval = ctx.config.snapshot_interval;
        thread::spawn(move || run_snapshotter(&engine, &path, interval, &shutdown))
    });
    loop {
        if ctx.shutdown.is_triggered() {
            break;
        }
        let (stream, _peer) = listener.accept()?;
        ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
        if ctx.shutdown.is_triggered() {
            // Likely the wake-up connection from Shutdown::trigger.
            break;
        }
        match gate.try_acquire() {
            None => {
                ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
                shed(stream);
            }
            Some(guard) => {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || {
                    let _slot = guard;
                    if catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &ctx))).is_err() {
                        ctx.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    }
    // Stop accepting before draining so new clients get connection-refused
    // instead of a socket that will never be read.
    drop(listener);
    gate.wait_idle(Instant::now() + ctx.config.drain_timeout);
    if let Some(handle) = snapshotter {
        let _ = handle.join();
        // Final flush after the drain, so verdicts computed by the last
        // in-flight connections make it into the snapshot.
        if let Some(path) = &ctx.config.cache_path {
            let _ = ctx.engine.snapshot_to(path);
        }
    }
    Ok(())
}

/// Periodically publishes the memo cache to `path` until shutdown. Sleeps
/// in short ticks so a drain is never stuck behind a long interval. Write
/// failures tick [`crate::stats::EngineStats::snapshot_failures`] (inside
/// [`Engine::snapshot_to`]) and leave the previous snapshot current.
fn run_snapshotter(
    engine: &Engine,
    path: &std::path::Path,
    interval: Duration,
    shutdown: &Shutdown,
) {
    let interval = interval.max(Duration::from_millis(1));
    let tick = interval.min(Duration::from_millis(50));
    let mut next = Instant::now() + interval;
    while !shutdown.is_triggered() {
        thread::sleep(tick);
        if shutdown.is_triggered() {
            break;
        }
        if Instant::now() >= next {
            let _ = engine.snapshot_to(path);
            next = Instant::now() + interval;
        }
    }
    // The final flush happens in serve_with_shutdown after the drain.
}

/// Best-effort overload reply on a connection we refuse to serve.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(b"ERR OVERLOADED connection limit reached, retry later\n");
}

/// Per-connection protocol state: the snapshot-staging buffer used by the
/// `SNAPBEGIN`/`SNAPDATA`/`SNAPCOMMIT` handoff sequence. Dropped with the
/// connection, so an abandoned push can never leak into another client's
/// session.
#[derive(Default)]
struct ConnState {
    staging: Option<Staging>,
}

/// An in-progress snapshot push: `SNAPBEGIN` declared `expected` bytes,
/// `SNAPDATA` lines accumulate into `buf` until `SNAPCOMMIT` verifies.
struct Staging {
    expected: usize,
    buf: Vec<u8>,
}

/// Upper bound on a pushed snapshot (64 MiB ≈ 860k records): large enough
/// for any real cache, small enough that a hostile `SNAPBEGIN` cannot
/// reserve unbounded memory.
const MAX_STAGED_BYTES: usize = 64 * 1024 * 1024;

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) -> std::io::Result<()> {
    // Replies are one write each (see `wire`); without NODELAY, Nagle
    // could still hold a reply until the client ACKs the previous one.
    stream.set_nodelay(true)?;
    // The socket timeout bounds each read() syscall; read_bounded_line
    // layers an absolute per-line deadline of the same duration on top.
    stream.set_read_timeout(ctx.config.read_timeout)?;
    stream.set_write_timeout(ctx.config.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut conn = ConnState::default();
    loop {
        if ctx.shutdown.is_triggered() {
            break;
        }
        let line = match read_bounded_line(
            &mut reader,
            ctx.config.max_line_bytes,
            ctx.config.read_timeout,
        )? {
            LineRead::Eof => break,
            LineRead::IdleTimeout => {
                ctx.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                break;
            }
            LineRead::TooLarge => {
                ctx.stats.oversized.fetch_add(1, Ordering::Relaxed);
                let reply =
                    format!("ERR TOOLARGE line exceeds {} bytes", ctx.config.max_line_bytes);
                if write_reply(&mut writer, &reply).is_err() {
                    break;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        // One panicking request must not take the connection down with it.
        let request_span = Span::start();
        let reply = catch_unwind(AssertUnwindSafe(|| handle_line(&line, ctx, &mut conn)))
            .unwrap_or_else(|_| {
                ctx.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                Reply::Line("ERR INTERNAL request handler panicked".to_string())
            });
        slow_log(ctx, &line, &reply, request_span.elapsed());
        match reply {
            Reply::None => {}
            Reply::Line(text) => {
                if write_reply(&mut writer, &text).is_err() {
                    break;
                }
            }
            Reply::Quit => {
                let _ = write_reply(&mut writer, "OK bye");
                break;
            }
            Reply::Shutdown => {
                let _ = write_reply(&mut writer, "OK draining");
                ctx.shutdown.trigger();
                break;
            }
        }
    }
    Ok(())
}

/// Writes a one-line structured record to stderr for requests that took at
/// least [`ServerConfig::slow_log`] end to end (and counts them). The
/// format is stable space-separated `key=value` pairs, grep-friendly.
fn slow_log(ctx: &ServerCtx, line: &str, reply: &Reply, elapsed: Duration) {
    let Some(threshold) = ctx.config.slow_log else { return };
    if elapsed < threshold {
        return;
    }
    ctx.stats.slow_requests.fetch_add(1, Ordering::Relaxed);
    let cmd = line.split_whitespace().next().unwrap_or("-");
    let status = match reply {
        Reply::Line(text) if text.starts_with("ERR") => "err",
        Reply::Line(_) => "ok",
        Reply::None => "none",
        Reply::Quit => "quit",
        Reply::Shutdown => "shutdown",
    };
    eprintln!(
        "coqld: slow-request elapsed_ms={} cmd={} status={} line_bytes={}",
        elapsed.as_millis(),
        cmd,
        status,
        line.len()
    );
}

fn write_reply(writer: &mut TcpStream, text: &str) -> io::Result<()> {
    match faults::reply_fault() {
        faults::ReplyFault::None => {}
        faults::ReplyFault::Stall(ms) => {
            // Delay, then answer normally: the reply is correct but slow
            // (a hedge should win the race against it).
            std::thread::sleep(Duration::from_millis(ms));
        }
        faults::ReplyFault::Garble => {
            // Corrupt every payload byte but keep the line framing, so
            // the peer reads a complete line of garbage — its reply
            // validation, not its framing, must catch it.
            let mut garbled: Vec<u8> =
                text.bytes().map(|b| if b == b'\n' { b } else { b ^ 0x55 }).collect();
            garbled.push(b'\n');
            writer.write_all(&garbled)?;
            return writer.flush();
        }
        faults::ReplyFault::DropMidReply => {
            // Write half the reply, then sever the connection without the
            // terminating newline: the peer sees a truncated line ending
            // in EOF and must treat it as a failure, not an answer.
            writer.write_all(&text.as_bytes()[..text.len() / 2])?;
            writer.flush()?;
            let _ = writer.shutdown(std::net::Shutdown::Both);
            return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "fault-inject: drop"));
        }
    }
    let pad = faults::reply_padding();
    if pad > 0 {
        return write_line(writer, &format!("{text}{}", "#".repeat(pad)));
    }
    write_line(writer, text)
}

enum Reply {
    None,
    Line(String),
    Quit,
    Shutdown,
}

fn handle_line(line: &str, ctx: &ServerCtx, conn: &mut ConnState) -> Reply {
    let request = match wire::parse(Side::Shard, line) {
        Ok(Some(request)) => request,
        Ok(None) => return Reply::None,
        Err(message) => return Reply::Line(format!("ERR {message}")),
    };
    let (prefixes, verb, rest) = (request.prefixes, request.verb, request.rest);
    let budget = RequestBudget {
        timeout: prefixes.timeout(ctx.config.default_timeout),
        steps: prefixes.step_limit(),
    };
    let engine = &ctx.engine;
    let decide = |op| {
        let (schema, q1, q2) = verb.split_pair(rest)?;
        let request = Request::new(op, schema, q1, q2).with_budget(budget).with_cert(prefixes.cert);
        run(engine, &request, prefixes.explain)
    };
    let result = match verb.cmd {
        Cmd::Check => decide(Op::Check),
        Cmd::Equiv => decide(Op::Equiv),
        Cmd::UCheck => decide(Op::UCheck),
        Cmd::UEquiv => decide(Op::UEquiv),
        Cmd::Agg => handle_agg(verb, rest, &budget),
        Cmd::Nest => handle_nest(verb, rest, engine, &budget),
        Cmd::Fingerprint => verb
            .split_head(rest)
            .and_then(|(schema, query)| engine.fingerprint(schema, query))
            .map(|fp| format!("OK fp={fp}")),
        Cmd::Schema => verb.split_head(rest).and_then(|(name, decl)| {
            parse_schema_decl(decl).map(|schema| {
                let relations = schema.len();
                let fp = engine.register_schema(name, schema);
                format!("OK schema={name} fp={fp} relations={relations}")
            })
        }),
        Cmd::Stats => Ok(render_stats(ctx)),
        Cmd::Metrics => Ok(render_metrics(ctx)),
        Cmd::SnapExport | Cmd::SnapBegin | Cmd::SnapData | Cmd::SnapCommit | Cmd::SnapAbort => {
            if ctx.config.allow_handoff {
                handle_snap(verb, rest, ctx, conn)
            } else {
                Err(wire::disabled(Side::Shard, verb))
            }
        }
        Cmd::Shutdown => {
            if ctx.config.allow_shutdown {
                return Reply::Shutdown;
            }
            Err(wire::disabled(Side::Shard, verb))
        }
        Cmd::Quit => return Reply::Quit,
        Cmd::Shards | Cmd::Handoff => unreachable!("wire::parse admits only shard verbs"),
    };
    match result {
        Ok(text) => Reply::Line(text),
        // Keep the reply line-oriented whatever the error contains.
        Err(message) => Reply::Line(format!("ERR {}", message.replace('\n', " "))),
    }
}

/// The `SNAP*` warm-handoff verbs (already gated on
/// [`ServerConfig::allow_handoff`] by the caller).
///
/// * `SNAPEXPORT` — serialize the cache and answer
///   `OK bytes=<n> entries=<k> format=<v> fpver=<v>`, the payload as hex
///   lines, then `END`;
/// * `SNAPBEGIN <bytes>` — start staging a pushed snapshot of exactly
///   that many bytes (capped at [`MAX_STAGED_BYTES`]);
/// * `SNAPDATA <hex>` — append staged bytes;
/// * `SNAPCOMMIT` — verify the staged payload (length, header, versions,
///   CRCs — all-or-nothing) and preload it; any mismatch answers
///   `ERR SNAPREJECTED …`, ticks the quarantine counter, and leaves the
///   cache untouched;
/// * `SNAPABORT` — discard the staged payload.
fn handle_snap(
    verb: &Verb,
    rest: &str,
    ctx: &ServerCtx,
    conn: &mut ConnState,
) -> Result<String, String> {
    match verb.cmd {
        Cmd::SnapExport => {
            let (bytes, entries) = ctx.engine.export_snapshot_bytes();
            let mut out = format!(
                "OK bytes={} entries={entries} format={FORMAT_VERSION} fpver={FINGERPRINT_VERSION}",
                bytes.len()
            );
            // 4096 hex chars (2 KiB of payload) per line keeps every line
            // far under any sane client line cap.
            let hex = to_hex(&bytes);
            for chunk in hex.as_bytes().chunks(4096) {
                out.push('\n');
                // Chunks of an ASCII string are valid UTF-8.
                out.push_str(std::str::from_utf8(chunk).expect("hex is ASCII"));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        Cmd::SnapBegin => {
            let expected: usize =
                rest.parse().map_err(|_| format!("{} (got `{rest}`)", verb.usage_error()))?;
            if expected > MAX_STAGED_BYTES {
                return Err(format!(
                    "SNAPREJECTED declared size {expected} exceeds the {MAX_STAGED_BYTES}-byte cap"
                ));
            }
            conn.staging = Some(Staging { expected, buf: Vec::new() });
            Ok(format!("OK staging={expected}"))
        }
        Cmd::SnapData => {
            if conn.staging.is_none() {
                return Err("SNAPDATA without SNAPBEGIN (nothing staged)".to_string());
            }
            let bytes = match from_hex(rest.trim()) {
                Ok(bytes) => bytes,
                Err(e) => {
                    conn.staging = None;
                    return Err(format!("SNAPREJECTED bad hex payload: {e}"));
                }
            };
            let staging = conn.staging.as_mut().expect("checked above");
            if staging.buf.len() + bytes.len() > staging.expected {
                conn.staging = None;
                return Err("SNAPREJECTED more data than SNAPBEGIN declared".to_string());
            }
            staging.buf.extend_from_slice(&bytes);
            Ok(format!("OK received={} expected={}", staging.buf.len(), staging.expected))
        }
        Cmd::SnapCommit => {
            let staging =
                conn.staging.take().ok_or("SNAPCOMMIT without SNAPBEGIN (nothing staged)")?;
            if staging.buf.len() != staging.expected {
                return Err(format!(
                    "SNAPREJECTED staged {} bytes but SNAPBEGIN declared {}",
                    staging.buf.len(),
                    staging.expected
                ));
            }
            match ctx.engine.import_snapshot_bytes(&staging.buf) {
                Ok((kept, total)) => Ok(format!("OK imported={kept} entries={total}")),
                Err(reason) => Err(format!("SNAPREJECTED {reason}")),
            }
        }
        Cmd::SnapAbort => {
            conn.staging = None;
            Ok("OK aborted".to_string())
        }
        _ => unreachable!("the caller dispatches only SNAP verbs"),
    }
}

fn run(engine: &Engine, request: &Request, explain: bool) -> Result<String, String> {
    if !explain && !request.cert {
        return render_decision(&engine.decide(request)?);
    }
    let (decision, ex) = if explain {
        engine.decide_explained(request)?
    } else {
        (engine.decide(request)?, Explain::default())
    };
    // A timed-out decision renders as a single ERR line even under
    // EXPLAIN/CERT; phase attribution of an abandoned request would
    // mislead, and there is no verdict to certify.
    let verdict = render_decision(&decision)?;
    let mut out = String::new();
    out.push_str(&verdict);
    out.push('\n');
    if explain {
        render_explain(&mut out, &ex);
    }
    if request.cert {
        for wire in decision_certs(&decision)? {
            // `to_wire` ends with "COCERTEND\n"; the block is
            // self-delimiting, so emit it verbatim minus the final newline
            // (the joiner below restores line structure).
            out.push_str(wire.trim_end());
            out.push('\n');
        }
    }
    out.push_str("END");
    Ok(out)
}

/// Appends the `EXPLAIN` body: `explain.*` phase timings and kernel step
/// counts (the caller emits the verdict line and the `END` terminator).
fn render_explain(out: &mut String, ex: &Explain) {
    for (name, us) in ex.phases() {
        out.push_str(&format!("explain.{name}_us {us}\n"));
    }
    out.push_str(&format!("explain.total_us {}\n", ex.total_us));
    for (name, value) in ex.kernel_steps.iter() {
        out.push_str(&format!("explain.kernel.{name} {value}\n"));
    }
    out.push_str(&format!("explain.kernel.threads_used {}\n", ex.threads_used));
}

/// The certificate blocks a `CERT` reply carries: one for `CHECK`,
/// forward then backward for `EQUIV`. The engine attaches certificates to
/// every non-timed-out decision of a `cert` request, so a missing one here
/// is a bug — surfaced as `CERTUNAVAILABLE` rather than a bare verdict the
/// client would mistake for a certified one.
fn decision_certs(decision: &Decision) -> Result<Vec<&str>, String> {
    let missing = || "CERTUNAVAILABLE verdict carried no certificate (server bug)".to_string();
    match decision {
        Decision::Containment { cert, .. } => Ok(vec![cert.as_deref().ok_or_else(missing)?]),
        Decision::Equivalence { cert_forward, cert_backward, .. } => Ok(vec![
            cert_forward.as_deref().ok_or_else(missing)?,
            cert_backward.as_deref().ok_or_else(missing)?,
        ]),
        Decision::Union { cert, .. } => Ok(vec![cert.as_deref().ok_or_else(missing)?]),
        Decision::UnionEquivalence { cert_forward, cert_backward, .. } => Ok(vec![
            cert_forward.as_deref().ok_or_else(missing)?,
            cert_backward.as_deref().ok_or_else(missing)?,
        ]),
        Decision::TimedOut { .. } => Err(missing()),
    }
}

fn render_decision(decision: &Decision) -> Result<String, String> {
    match decision {
        Decision::Containment { analysis, cached, fp1, fp2, .. } => Ok(format!(
            "OK holds={} path={} cached={} fp1={fp1} fp2={fp2}",
            analysis.holds, analysis.path, cached
        )),
        Decision::Equivalence { forward, backward, verdict, cached, fp1, fp2, .. } => {
            let verdict = match verdict {
                co_core::Equivalence::Equivalent => "equivalent",
                co_core::Equivalence::NotEquivalent => "not-equivalent",
                co_core::Equivalence::WeaklyEquivalentOnly => "weakly-equivalent",
            };
            Ok(format!(
                "OK verdict={verdict} forward={forward} backward={backward} \
                 cached={cached} fp1={fp1} fp2={fp2}"
            ))
        }
        Decision::Union { analysis, cached, fp1, fp2, disjuncts, .. } => {
            let (left, right) = disjuncts;
            let detail = if analysis.holds {
                let witnesses: Vec<String> =
                    analysis.witnesses.iter().map(|w| w.to_string()).collect();
                format!("witnesses={}", witnesses.join(","))
            } else {
                format!("refuted={}", analysis.refuted.map(i64::from).unwrap_or(-1))
            };
            Ok(format!(
                "OK holds={} {detail} left={left} right={right} pairs={} \
                 cached={cached} fp1={fp1} fp2={fp2}",
                analysis.holds, analysis.pairs_decided
            ))
        }
        Decision::UnionEquivalence { forward, backward, cached, fp1, fp2, .. } => Ok(format!(
            "OK equivalent={} forward={forward} backward={backward} \
             cached={cached} fp1={fp1} fp2={fp2}",
            *forward && *backward
        )),
        Decision::TimedOut { fp1, fp2, elapsed } => Err(format!(
            "DEADLINE exceeded after {}ms fp1={fp1} fp2={fp2} \
             (verdict not cached; retry with a larger TIMEOUT/BUDGET)",
            elapsed.as_millis()
        )),
    }
}

/// Cap on aggregate-query body atoms and nest/unnest sequence steps: a
/// request past it answers `ERR TOODEEP` instead of occupying a worker
/// (the same role the parse depth cap plays for `CHECK`).
const MAX_STRUCTURE_STEPS: usize = 64;

/// Parses one `AGG` side: `<datalog body> | <fn>(<var>)[, <fn>(<var>)]*`
/// (the `| aggs` part optional — a bare body is a pure group-by query).
fn parse_agg_side(text: &str) -> Result<co_agg::AggQuery, String> {
    let (body, aggs_text) = match text.split_once('|') {
        Some((body, aggs)) => (body.trim(), aggs.trim()),
        None => (text.trim(), ""),
    };
    let mut aggs: Vec<(&str, &str)> = Vec::new();
    for part in aggs_text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let open = part.find('(').ok_or_else(|| format!("bad aggregate `{part}`"))?;
        let close = part.rfind(')').ok_or_else(|| format!("bad aggregate `{part}`"))?;
        if close <= open {
            return Err(format!("bad aggregate `{part}`"));
        }
        aggs.push((part[..open].trim(), part[open + 1..close].trim()));
    }
    let q = co_agg::AggQuery::parse(body, &aggs).map_err(|e| e.to_string())?;
    if q.body.len() > MAX_STRUCTURE_STEPS {
        return Err(format!(
            "TOODEEP aggregate body has {} atoms (cap {MAX_STRUCTURE_STEPS})",
            q.body.len()
        ));
    }
    Ok(q)
}

/// The `AGG` verb: uninterpreted aggregate-query containment, both
/// directions (§7's reduction through `co-agg`). Runs under the request
/// budget; an expired budget answers `ERR DEADLINE` instead of a verdict
/// the interrupted search could have corrupted.
fn handle_agg(verb: &Verb, rest: &str, budget: &RequestBudget) -> Result<String, String> {
    let deadline = budget.start();
    let (left, right) = rest.split_once(";;").ok_or_else(|| verb.usage_error())?;
    if left.trim().is_empty() || right.trim().is_empty() {
        return Err(verb.usage_error());
    }
    let q1 = parse_agg_side(left)?;
    let q2 = parse_agg_side(right)?;
    let outcome = {
        let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
        catch_unwind(AssertUnwindSafe(|| {
            let forward = co_agg::agg_contained_in(&q1, &q2);
            let backward = co_agg::agg_contained_in(&q2, &q1);
            // An expired budget is sticky: this probe fails iff the
            // searches above were cut short, making the verdict unsound.
            let expired = interrupt::probe().is_err();
            (forward, backward, expired)
        }))
    };
    match outcome {
        Ok((_, _, true)) => Err("DEADLINE exceeded inside the aggregate decision \
             (retry with a larger TIMEOUT/BUDGET)"
            .to_string()),
        Ok((forward, backward, false)) => Ok(format!(
            "OK forward={forward} backward={backward} equivalent={}",
            forward && backward
        )),
        Err(_) => Err("INTERNAL aggregate decision panicked".to_string()),
    }
}

/// Parses one `NEST` side: `<base> [; nest <A>[,<B>]* as <G> | ; unnest <G>]*`.
fn parse_nest_side(text: &str) -> Result<co_algebra::nestseq::NuSeq, String> {
    let mut parts = text.split(';').map(str::trim);
    let base = parts.next().unwrap_or("");
    if base.is_empty() || base.contains(char::is_whitespace) {
        return Err(format!("bad nest/unnest base `{base}` (one relation name)"));
    }
    let mut ops = Vec::new();
    for step in parts {
        if step.is_empty() {
            return Err("empty nest/unnest step".to_string());
        }
        let (kind, spec) = step.split_once(char::is_whitespace).unwrap_or((step, ""));
        match kind.to_ascii_lowercase().as_str() {
            "nest" => {
                let (attrs, field) = spec
                    .rsplit_once(" as ")
                    .map(|(a, f)| (a.trim(), f.trim()))
                    .ok_or_else(|| format!("bad step `{step}` (nest <A>[,<B>]* as <G>)"))?;
                let attrs: Vec<&str> =
                    attrs.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
                if attrs.is_empty() || field.is_empty() {
                    return Err(format!("bad step `{step}` (nest <A>[,<B>]* as <G>)"));
                }
                ops.push(co_algebra::nestseq::NuOp::nest(&attrs, field));
            }
            "unnest" => {
                let field = spec.trim();
                if field.is_empty() || field.contains(char::is_whitespace) {
                    return Err(format!("bad step `{step}` (unnest <G>)"));
                }
                ops.push(co_algebra::nestseq::NuOp::unnest(field));
            }
            other => return Err(format!("bad step `{other}` (nest … | unnest …)")),
        }
    }
    if ops.len() > MAX_STRUCTURE_STEPS {
        return Err(format!(
            "TOODEEP sequence has {} steps (cap {MAX_STRUCTURE_STEPS})",
            ops.len()
        ));
    }
    Ok(co_algebra::nestseq::NuSeq::new(base, ops))
}

/// The `NEST` verb: equivalence of two nest/unnest sequences over a
/// registered flat schema, decided through `co-algebra::nestseq` (§6).
fn handle_nest(
    verb: &Verb,
    rest: &str,
    engine: &Engine,
    budget: &RequestBudget,
) -> Result<String, String> {
    let deadline = budget.start();
    let (schema_name, seqs) = verb.split_head(rest)?;
    let schema = engine.flat_schema(schema_name)?;
    let (left, right) = seqs.split_once(";;").ok_or_else(|| verb.usage_error())?;
    let s1 = parse_nest_side(left.trim())?;
    let s2 = parse_nest_side(right.trim())?;
    let outcome = {
        let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
        catch_unwind(AssertUnwindSafe(|| {
            let verdict = co_algebra::nestseq::equivalent_sequences(&s1, &s2, &schema);
            let expired = interrupt::probe().is_err();
            (verdict, expired)
        }))
    };
    match outcome {
        Ok((_, true)) => Err("DEADLINE exceeded inside the sequence decision \
             (retry with a larger TIMEOUT/BUDGET)"
            .to_string()),
        Ok((verdict, false)) => {
            let equivalent = verdict.map_err(|e| e.to_string())?;
            Ok(format!("OK equivalent={equivalent} ops1={} ops2={}", s1.ops.len(), s2.ops.len()))
        }
        Err(_) => Err("INTERNAL sequence decision panicked".to_string()),
    }
}

/// The `STATS` payload: `<key> <value>` lines terminated by `END`.
fn render_stats(ctx: &ServerCtx) -> String {
    let engine = &ctx.engine;
    let cache = engine.cache_stats();
    let stats = engine.stats();
    let coalesced = stats.coalesced.load(Ordering::Relaxed);
    let lookups = cache.hits + cache.misses;
    let effective =
        if lookups == 0 { 0.0 } else { (cache.hits + coalesced) as f64 / lookups as f64 };
    let mut out = String::new();
    let mut put = |k: &str, v: String| {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v);
        out.push('\n');
    };
    put("uptime_seconds", engine.uptime_seconds().to_string());
    put("build.format_version", FORMAT_VERSION.to_string());
    put("build.fingerprint_version", FINGERPRINT_VERSION.to_string());
    put("decisions", stats.decisions.load(Ordering::Relaxed).to_string());
    put("computed", stats.computed.load(Ordering::Relaxed).to_string());
    put("coalesced", coalesced.to_string());
    put("inflight", stats.in_flight.load(Ordering::Relaxed).to_string());
    put("timeouts", stats.timeouts.load(Ordering::Relaxed).to_string());
    put("panics", stats.panics.load(Ordering::Relaxed).to_string());
    put("schemas", engine.schema_count().to_string());
    put("prepared", engine.prepared_count().to_string());
    put("engine.kernel_threads", par::effective_threads().to_string());
    put("server.accepted", ctx.stats.accepted.load(Ordering::Relaxed).to_string());
    put("server.shed", ctx.stats.shed.load(Ordering::Relaxed).to_string());
    put("server.oversized", ctx.stats.oversized.load(Ordering::Relaxed).to_string());
    put("server.idle_closed", ctx.stats.idle_closed.load(Ordering::Relaxed).to_string());
    put("server.conn_panics", ctx.stats.conn_panics.load(Ordering::Relaxed).to_string());
    put("server.slow_requests", ctx.stats.slow_requests.load(Ordering::Relaxed).to_string());
    put("cache.hits", cache.hits.to_string());
    put("cache.misses", cache.misses.to_string());
    put("cache.evictions", cache.evictions.to_string());
    put("cache.entries", cache.entries.to_string());
    put("cache.capacity", cache.capacity.to_string());
    put("cache.shards", cache.shards.to_string());
    put("cache.hit_rate", format!("{:.4}", cache.hit_rate()));
    put("cache.effective_hit_rate", format!("{effective:.4}"));
    put("unions.decisions", stats.union_decisions.load(Ordering::Relaxed).to_string());
    put("unions.hits", stats.union_hits.load(Ordering::Relaxed).to_string());
    put("persist.recovered_entries", stats.recovered_entries.load(Ordering::Relaxed).to_string());
    put("persist.snapshots_written", stats.snapshots_written.load(Ordering::Relaxed).to_string());
    put("persist.snapshot_failures", stats.snapshot_failures.load(Ordering::Relaxed).to_string());
    put("persist.quarantined", stats.quarantined.load(Ordering::Relaxed).to_string());
    put("persist.cert_rejected", stats.cert_rejected.load(Ordering::Relaxed).to_string());
    let age = engine.snapshot_age_ms().map(|ms| ms.to_string());
    put("persist.snapshot_age_ms", age.unwrap_or_else(|| "-1".to_string()));
    for (i, hist) in stats.path_latency.iter().enumerate() {
        let label = path_label(i);
        put(&format!("path.{label}.count"), hist.count().to_string());
        put(&format!("path.{label}.mean_us"), hist.mean_us().to_string());
        put(&format!("path.{label}.p50_us"), hist.quantile_us(0.5).to_string());
        put(&format!("path.{label}.p99_us"), hist.quantile_us(0.99).to_string());
    }
    out.push_str("END");
    out
}

/// Appends one Prometheus counter family (`# HELP`/`# TYPE` + sample).
fn put_counter(out: &mut String, name: &str, help: &str, value: u64) {
    debug_assert!(co_trace::is_valid_metric_name(name), "{name}");
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
}

/// Appends one Prometheus gauge family with an integer value.
fn put_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    debug_assert!(co_trace::is_valid_metric_name(name), "{name}");
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
}

/// Appends one Prometheus gauge family with a float value (ratios).
fn put_gauge_f(out: &mut String, name: &str, help: &str, value: f64) {
    debug_assert!(co_trace::is_valid_metric_name(name), "{name}");
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value:.4}\n"));
}

/// Appends one labeled summary series (quantiles + `_sum`/`_count`) for a
/// latency histogram; the family's `# HELP`/`# TYPE` are emitted by the
/// caller once.
fn put_summary_series(out: &mut String, name: &str, label: &str, hist: &LatencyHistogram) {
    for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        out.push_str(&format!(
            "{name}{{path=\"{label}\",quantile=\"{tag}\"}} {}\n",
            hist.quantile_us(q)
        ));
    }
    out.push_str(&format!("{name}_sum{{path=\"{label}\"}} {}\n", hist.sum_us()));
    out.push_str(&format!("{name}_count{{path=\"{label}\"}} {}\n", hist.count()));
}

/// The `METRICS` payload: Prometheus text exposition of every `STATS`
/// counter plus the process-wide kernel step totals, terminated by
/// `# EOF` (which doubles as the line-protocol end marker).
fn render_metrics(ctx: &ServerCtx) -> String {
    let engine = &ctx.engine;
    let cache = engine.cache_stats();
    let stats = engine.stats();
    let coalesced = stats.coalesced.load(Ordering::Relaxed);
    let lookups = cache.hits + cache.misses;
    let effective =
        if lookups == 0 { 0.0 } else { (cache.hits + coalesced) as f64 / lookups as f64 };
    let out = &mut String::new();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);

    put_gauge(
        out,
        "coqld_uptime_seconds",
        "Seconds since this engine started (a decrease between scrapes means a restart)",
        engine.uptime_seconds() as i64,
    );
    out.push_str(
        "# HELP coqld_build_info Snapshot/fingerprint format versions of this build\n\
         # TYPE coqld_build_info gauge\n",
    );
    out.push_str(&format!(
        "coqld_build_info{{format_version=\"{FORMAT_VERSION}\",\
         fingerprint_version=\"{FINGERPRINT_VERSION}\"}} 1\n"
    ));
    put_counter(
        out,
        "coqld_decisions_total",
        "Containment decisions answered",
        load(&stats.decisions),
    );
    put_counter(
        out,
        "coqld_computed_total",
        "Decisions computed (cache misses)",
        load(&stats.computed),
    );
    put_counter(
        out,
        "coqld_coalesced_total",
        "Requests coalesced onto an in-flight twin",
        coalesced,
    );
    put_counter(
        out,
        "coqld_timeouts_total",
        "Requests abandoned at their deadline or step budget",
        load(&stats.timeouts),
    );
    put_counter(
        out,
        "coqld_panics_total",
        "Decision computations contained by panic isolation",
        load(&stats.panics),
    );
    put_gauge(
        out,
        "coqld_inflight",
        "Decisions currently being computed",
        load(&stats.in_flight) as i64,
    );
    put_gauge(out, "coqld_schemas", "Registered schemas", engine.schema_count() as i64);
    put_gauge(
        out,
        "coqld_prepared_queries",
        "Distinct prepared queries shared",
        engine.prepared_count() as i64,
    );
    put_gauge(
        out,
        "coqld_kernel_threads",
        "Threads each decision kernel may use (auto resolved once per process)",
        par::effective_threads() as i64,
    );

    put_counter(
        out,
        "coqld_server_accepted_total",
        "Connections accepted",
        load(&ctx.stats.accepted),
    );
    put_counter(
        out,
        "coqld_server_shed_total",
        "Connections shed at the connection cap",
        load(&ctx.stats.shed),
    );
    put_counter(
        out,
        "coqld_server_oversized_total",
        "Requests rejected for exceeding the line cap",
        load(&ctx.stats.oversized),
    );
    put_counter(
        out,
        "coqld_server_idle_closed_total",
        "Connections closed for idling past the read timeout",
        load(&ctx.stats.idle_closed),
    );
    put_counter(
        out,
        "coqld_server_conn_panics_total",
        "Connection handlers contained by panic isolation",
        load(&ctx.stats.conn_panics),
    );
    put_counter(
        out,
        "coqld_server_slow_requests_total",
        "Requests logged as slow",
        load(&ctx.stats.slow_requests),
    );

    put_counter(out, "coqld_cache_hits_total", "Memo-cache hits", cache.hits);
    put_counter(out, "coqld_cache_misses_total", "Memo-cache misses", cache.misses);
    put_counter(out, "coqld_cache_evictions_total", "Memo-cache LRU evictions", cache.evictions);
    put_gauge(out, "coqld_cache_entries", "Live memo-cache entries", cache.entries as i64);
    put_gauge(out, "coqld_cache_capacity", "Memo-cache capacity", cache.capacity as i64);
    put_gauge(out, "coqld_cache_shards", "Memo-cache shards", cache.shards as i64);
    put_gauge_f(out, "coqld_cache_hit_rate", "Memo-cache hit rate", cache.hit_rate());
    put_gauge_f(
        out,
        "coqld_cache_effective_hit_rate",
        "Hit rate counting coalesced requests",
        effective,
    );

    put_counter(
        out,
        "coqld_union_decisions_total",
        "Union (UCHECK/UEQUIV) decisions answered",
        load(&stats.union_decisions),
    );
    put_counter(
        out,
        "coqld_union_hits_total",
        "Union requests answered entirely from memoized pair verdicts",
        load(&stats.union_hits),
    );

    put_counter(
        out,
        "coqld_persist_recovered_entries_total",
        "Verdicts recovered at warm start",
        load(&stats.recovered_entries),
    );
    put_counter(
        out,
        "coqld_persist_snapshots_written_total",
        "Cache snapshots published",
        load(&stats.snapshots_written),
    );
    put_counter(
        out,
        "coqld_persist_snapshot_failures_total",
        "Cache snapshot writes that failed",
        load(&stats.snapshot_failures),
    );
    put_counter(
        out,
        "coqld_persist_quarantined_total",
        "Snapshots rejected at load and moved aside",
        load(&stats.quarantined),
    );
    put_counter(
        out,
        "coqld_persist_cert_rejected_total",
        "Cached certificates rejected by the co-cert re-check",
        load(&stats.cert_rejected),
    );
    let age = engine.snapshot_age_ms().map(|ms| ms as i64).unwrap_or(-1);
    put_gauge(
        out,
        "coqld_persist_snapshot_age_ms",
        "Milliseconds since the last snapshot (-1 before the first)",
        age,
    );

    out.push_str("# HELP coqld_path_latency_us Latency of computed decisions by decision path\n");
    out.push_str("# TYPE coqld_path_latency_us summary\n");
    for (i, hist) in stats.path_latency.iter().enumerate() {
        put_summary_series(out, "coqld_path_latency_us", path_label(i), hist);
    }

    for (name, value) in kernel::global_totals().iter() {
        let family = format!("coqld_kernel_{name}_total");
        put_counter(out, &family, "Kernel steps across all requests", value);
    }

    out.push_str("# EOF");
    std::mem::take(out)
}

/// Parses a one-line (or multi-line) schema declaration: relation schemas
/// `R(A, B)` separated by `;` or newlines, `#` comments allowed.
pub fn parse_schema_decl(text: &str) -> Result<Schema, String> {
    let mut schema = Schema::new();
    for part in text.split(['\n', ';']) {
        let part = part.split('#').next().unwrap_or("").trim();
        if part.is_empty() {
            continue;
        }
        let open = part.find('(').ok_or_else(|| format!("bad relation decl `{part}`"))?;
        let close = part.rfind(')').ok_or_else(|| format!("bad relation decl `{part}`"))?;
        if close < open {
            return Err(format!("bad relation decl `{part}`"));
        }
        let name = part[..open].trim();
        let attrs: Vec<&str> =
            part[open + 1..close].split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
        if name.is_empty() || attrs.is_empty() {
            return Err(format!("bad relation decl `{part}`"));
        }
        let mut seen = attrs.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != attrs.len() {
            return Err(format!("duplicate attribute in relation `{name}`"));
        }
        schema.add(RelSchema::new(name, &attrs));
    }
    if schema.is_empty() {
        return Err("schema declares no relations".to_string());
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn ctx() -> ServerCtx {
        let engine = Engine::new(EngineConfig {
            cache_shards: 2,
            cache_per_shard: 32,
            workers: 2,
            ..EngineConfig::default()
        });
        ServerCtx {
            engine: Arc::new(engine),
            config: ServerConfig::default(),
            stats: ServerStats::default(),
            shutdown: Shutdown::new(),
        }
    }

    fn line(ctx: &ServerCtx, input: &str) -> String {
        match handle_line(input, ctx, &mut ConnState::default()) {
            Reply::Line(text) => text,
            Reply::Quit => "QUIT".to_string(),
            Reply::Shutdown => "SHUTDOWN".to_string(),
            Reply::None => String::new(),
        }
    }

    #[test]
    fn protocol_round_trip() {
        let c = ctx();
        let reply = line(&c, "SCHEMA s R(A,B); S(C)");
        assert!(reply.starts_with("OK schema=s fp="), "{reply}");
        let reply =
            line(&c, "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R");
        assert!(reply.contains("holds=true"), "{reply}");
        assert!(reply.contains("path=flat/classical"), "{reply}");
        let reply = line(&c, "EQUIV s select [a: x.A] from x in R ;; select [a: y.A] from y in R");
        assert!(reply.contains("verdict=equivalent"), "{reply}");
        let reply = line(&c, "FINGERPRINT s select x.B from x in R");
        assert!(reply.starts_with("OK fp="), "{reply}");
        let stats = line(&c, "STATS");
        assert!(stats.contains("decisions 2"), "{stats}");
        // The EQUIV pair is α-equivalent, so its two directions share one
        // cache key: the backward check hits the forward check's entry.
        assert!(stats.contains("cache.hits 1"), "{stats}");
        assert!(stats.contains("timeouts 0"), "{stats}");
        assert!(stats.contains("server.accepted 0"), "{stats}");
        assert!(stats.ends_with("END"), "{stats}");
    }

    #[test]
    fn non_set_queries_are_refused_by_normalization() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        let reply = line(&c, "CHECK s 1 ;; select x.B from x in R");
        assert_eq!(
            reply,
            "ERR normalization error: query must be set-typed, normal form was Atom(Const(1))"
        );
        let reply = line(&c, "UCHECK s select x.B from x in R ;; [a: 1]");
        assert_eq!(
            reply,
            "ERR normalization error: query must be set-typed, \
             normal form was Record([(a, Atom(Const(1)))])"
        );
    }

    #[test]
    fn errors_are_single_lines() {
        let c = ctx();
        for bad in [
            "CHECK",
            "CHECK s onlyonequery",
            "CHECK missing select x from x in R ;; select x from x in R",
            "SCHEMA s",
            "SCHEMA s R(A, A)",
            "BOGUS things",
            "TIMEOUT notanumber CHECK s {1} ;; {1}",
            "TIMEOUT 50",
        ] {
            let reply = line(&c, bad);
            assert!(reply.starts_with("ERR "), "`{bad}` → {reply}");
            assert!(!reply.contains('\n'), "`{bad}` reply must be one line");
        }
        assert!(matches!(handle_line("QUIT", &c, &mut ConnState::default()), Reply::Quit));
        assert!(matches!(handle_line("  # comment", &c, &mut ConnState::default()), Reply::None));
    }

    #[test]
    fn budget_prefixes_apply() {
        // A 1-step budget trips before any verdict: ERR DEADLINE, and the
        // non-verdict is not memoized (the retry computes the real one).
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        let q = "BUDGET 1 CHECK s select x.B from x in R ;; select x.B from x in R";
        let reply = line(&c, q);
        assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
        let reply = line(&c, "CHECK s select x.B from x in R ;; select x.B from x in R");
        assert!(reply.contains("holds=true"), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
    }

    #[test]
    fn explain_prefix_reports_phases() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        let reply = line(
            &c,
            "EXPLAIN CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R",
        );
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        for phase in ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel", "total"]
        {
            assert!(reply.contains(&format!("explain.{phase}_us ")), "missing {phase}: {reply}");
        }
        assert!(reply.contains("explain.kernel.hom_probes "), "{reply}");
        assert!(reply.contains("explain.kernel.threads_used "), "{reply}");
        // EXPLAIN is meaningless for non-decision verbs.
        let reply = line(&c, "EXPLAIN STATS");
        assert!(reply.starts_with("ERR EXPLAIN"), "{reply}");
    }

    #[test]
    fn cert_prefix_attaches_checkable_certificates() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B); S(C)");
        let q = "CERT CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";
        let reply = line(&c, q);
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let cert = co_cert::Cert::parse(body).unwrap();
        assert!(cert.holds);
        // A refuted verdict carries a counterexample certificate.
        let reply = line(&c, "CERT CHECK s select x.B from x in R ;; select y.C from y in S");
        assert!(reply.starts_with("OK holds=false"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let cert = co_cert::Cert::parse(body).unwrap();
        assert!(!cert.holds);
        // EQUIV emits the forward block, then the backward block.
        let reply =
            line(&c, "CERT EQUIV s select [a: x.A] from x in R ;; select [a: y.A] from y in R");
        assert!(reply.contains("verdict=equivalent"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let (fwd, rest) = co_cert::Cert::parse_prefix(body).unwrap();
        let (bwd, rest) = co_cert::Cert::parse_prefix(rest).unwrap();
        assert!(rest.trim().is_empty(), "{rest}");
        assert!(fwd.holds && bwd.holds);
        // A repeat CHECK hits the cache; the cached certificate passes the
        // server-side re-check and is served again.
        let reply = line(&c, q);
        assert!(reply.contains("cached=true"), "{reply}");
        assert!(reply.contains("COCERT1"), "{reply}");
        let stats = line(&c, "STATS");
        assert!(stats.contains("persist.cert_rejected 0"), "{stats}");
        // CERT composes with EXPLAIN: explain.* lines, then the block.
        let reply = line(&c, format!("EXPLAIN {q}").as_str());
        assert!(reply.contains("explain.total_us "), "{reply}");
        assert!(reply.contains("COCERT1"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        // CERT is meaningless for non-decision verbs.
        let reply = line(&c, "CERT STATS");
        assert!(reply.starts_with("ERR CERT applies only"), "{reply}");
    }

    #[test]
    fn poisoned_import_certificate_is_dropped_and_recomputed() {
        let mut open = ctx();
        open.config.allow_handoff = true;
        line(&open, "SCHEMA s R(A,B)");
        let q = "CERT CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";
        assert!(line(&open, q).starts_with("OK holds=true"));
        // Forge a snapshot whose cached verdict contradicts the
        // certificate it carries (as a buggy or hostile writer would).
        let (bytes, entries) = open.engine.export_snapshot_bytes();
        assert_eq!(entries, 1);
        let mut entries = crate::snapshot::decode_snapshot(&bytes).unwrap();
        assert!(entries[0].1.cert.is_some(), "CERT CHECK must cache its certificate");
        entries[0].1.analysis.holds = !entries[0].1.analysis.holds;
        let forged = crate::snapshot::encode_snapshot(&entries);
        // Push it into a fresh shard: the CRC-valid payload is accepted,
        // but the screening drops the contradictory entry whole.
        let mut fresh = ctx();
        fresh.config.allow_handoff = true;
        line(&fresh, "SCHEMA s R(A,B)");
        let mut conn = ConnState::default();
        handle_line(&format!("SNAPBEGIN {}", forged.len()), &fresh, &mut conn);
        handle_line(&format!("SNAPDATA {}", to_hex(&forged)), &fresh, &mut conn);
        let Reply::Line(commit) = handle_line("SNAPCOMMIT", &fresh, &mut conn) else {
            panic!("expected line")
        };
        assert_eq!(commit, "OK imported=0 entries=1", "{commit}");
        let stats = line(&fresh, "STATS");
        assert!(stats.contains("persist.cert_rejected 1"), "{stats}");
        // The poisoned verdict was never cached: the next CERT request
        // recomputes and serves a certificate that checks out.
        let reply = line(&fresh, q);
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        assert!(co_cert::Cert::parse(body).unwrap().holds);
    }

    #[test]
    fn metrics_exposition_covers_stats_and_parses() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        line(&c, "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R");
        let text = line(&c, "METRICS");
        assert!(text.ends_with("# EOF"), "{text}");
        for family in [
            "coqld_decisions_total",
            "coqld_computed_total",
            "coqld_inflight",
            "coqld_cache_hits_total",
            "coqld_persist_snapshots_written_total",
            "coqld_path_latency_us",
            "coqld_kernel_hom_probes_total",
            "coqld_server_slow_requests_total",
            "coqld_kernel_threads",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing {family}");
        }
        // The resolved kernel thread count, never the `0` of auto mode,
        // and the same in both expositions.
        let threads = par::effective_threads();
        assert!(threads >= 1);
        assert!(text.contains(&format!("\ncoqld_kernel_threads {threads}\n")), "{text}");
        let stats = line(&c, "STATS");
        assert!(stats.contains(&format!("\nengine.kernel_threads {threads}\n")), "{stats}");
        // Every sample line has a valid name and a numeric value.
        for l in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) = l.rsplit_once(' ').expect("name value");
            let name = series.split('{').next().unwrap();
            assert!(co_trace::is_valid_metric_name(name), "{l}");
            assert!(value.parse::<f64>().is_ok(), "{l}");
        }
    }

    #[test]
    fn shutdown_verb_is_gated() {
        let c = ctx();
        let reply = line(&c, "SHUTDOWN");
        assert!(reply.starts_with("ERR "), "{reply}");
        let mut open = ctx();
        open.config.allow_shutdown = true;
        assert!(matches!(
            handle_line("SHUTDOWN", &open, &mut ConnState::default()),
            Reply::Shutdown
        ));
    }

    #[test]
    fn snap_verbs_are_gated_and_stage_per_connection() {
        let c = ctx();
        for verb in ["SNAPEXPORT", "SNAPBEGIN 10", "SNAPDATA 00", "SNAPCOMMIT", "SNAPABORT"] {
            let reply = line(&c, verb);
            assert!(reply.contains("--allow-handoff"), "`{verb}` → {reply}");
        }
        let mut open = ctx();
        open.config.allow_handoff = true;
        line(&open, "SCHEMA s R(A,B)");
        line(&open, "CHECK s select x.B from x in R ;; select x.B from x in R");
        // Export, then push the same payload back through one connection's
        // staged SNAPBEGIN/SNAPDATA/SNAPCOMMIT sequence.
        let export = line(&open, "SNAPEXPORT");
        assert!(export.starts_with("OK bytes="), "{export}");
        assert!(export.ends_with("END"), "{export}");
        let mut lines = export.lines();
        let head = lines.next().unwrap();
        let declared: usize = head
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("bytes="))
            .unwrap()
            .parse()
            .unwrap();
        let hex: String = lines.take_while(|l| *l != "END").collect();
        assert_eq!(hex.len(), declared * 2);
        let mut conn = ConnState::default();
        let begin = handle_line(&format!("SNAPBEGIN {declared}"), &open, &mut conn);
        assert!(matches!(begin, Reply::Line(ref t) if t.starts_with("OK staging=")));
        let data = handle_line(&format!("SNAPDATA {hex}"), &open, &mut conn);
        assert!(matches!(data, Reply::Line(ref t) if t.starts_with("OK received=")));
        let commit = handle_line("SNAPCOMMIT", &open, &mut conn);
        let Reply::Line(commit) = commit else { panic!("expected line") };
        assert!(commit.starts_with("OK imported="), "{commit}");
        // Committing without staging is an error; a fresh connection
        // shares nothing with the one that staged.
        let commit = line(&open, "SNAPCOMMIT");
        assert!(commit.starts_with("ERR "), "{commit}");
    }

    #[test]
    fn schema_decl_variants() {
        assert_eq!(parse_schema_decl("R(A,B); S(C)").unwrap().len(), 2);
        assert_eq!(parse_schema_decl("R(A, B)\nS(C)  # trailing\n").unwrap().len(), 2);
        assert!(parse_schema_decl("").is_err());
        assert!(parse_schema_decl("R").is_err());
        assert!(parse_schema_decl("R()").is_err());
    }
}

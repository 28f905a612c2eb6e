//! `coqld` — the COQL containment-decision server.
//!
//! Serves `CHECK`/`EQUIV`/`UCHECK`/`UEQUIV`/`AGG`/`NEST`/`FINGERPRINT`/
//! `SCHEMA`/`STATS` over a line-oriented TCP protocol (see
//! `co-service::server`), memoizing verdicts by canonical fingerprint so
//! duplicate-heavy workloads are answered from cache.
//!
//! ```text
//! coqld --listen 127.0.0.1:7878 --schema app=schema.txt
//! printf 'CHECK app select x.B from x in R ;; select x.B from x in R\nSTATS\nQUIT\n' \
//!   | nc 127.0.0.1 7878
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use co_service::{parse_schema_decl, serve, Engine, EngineConfig, ServerConfig, WarmStart};

const HELP: &str = "\
coqld — serve COQL containment/equivalence decisions over TCP

usage: coqld [options]

options:
  --listen <addr:port>     bind address (default 127.0.0.1:7878; port 0 picks
                           a free port, printed on startup)
  --schema <name>=<file>   pre-register a schema from a file (repeatable);
                           clients can also register with the SCHEMA command
  --shards <n>             memo-cache shards, rounded to a power of two
                           (default 16)
  --capacity <n>           LRU capacity per shard (default 4096)
  --workers <n>            batch-engine worker threads (default: cores)
  --kernel-threads <n>     intra-request kernel threads for one hard
                           decision (0 = auto: half the machine, capped at
                           8 so the connection pool keeps cores, resolved
                           once at the first decision; default 0)
  --max-connections <n>    concurrent connection cap; excess connections are
                           shed with ERR OVERLOADED (default 64)
  --default-timeout-ms <n> default per-request deadline for CHECK/EQUIV;
                           0 = unlimited (default 0)
  --read-timeout-ms <n>    close connections that don't deliver a complete
                           request line within n ms; 0 = never (default 30000)
  --write-timeout-ms <n>   close connections that won't accept a reply within
                           n ms; 0 = never (default 10000)
  --max-line-bytes <n>     longest accepted request line; longer lines answer
                           ERR TOOLARGE (default 65536)
  --drain-ms <n>           how long a shutdown waits for in-flight connections
                           (default 5000)
  --max-parse-depth <n>    deepest query nesting accepted by the parser;
                           deeper input answers ERR TOODEEP (default 128,
                           minimum 1)
  --cache-path <file>      persist the memo cache to <file> and warm-start
                           from it on boot; corrupt or version-incompatible
                           snapshots are moved to <file>.corrupt and the
                           server starts cold (default: no persistence)
  --snapshot-interval-ms <n>
                           how often the background snapshotter publishes the
                           cache when --cache-path is set (default 30000,
                           minimum 1); a final snapshot is always written
                           after a clean drain
  --allow-shutdown         honor the SHUTDOWN verb (off by default)
  --allow-handoff          honor the SNAPEXPORT/SNAPBEGIN/SNAPDATA/
                           SNAPCOMMIT/SNAPABORT warm-handoff verbs, used by
                           coqld-router to ship the cache to a joining
                           shard (off by default)
  --slow-log-ms <n>        log requests that take at least n ms end to end as
                           one-line records on stderr; 0 = off (default 0)
  -h, --help               this help

protocol (one request per line; replies start OK/ERR; STATS ends with END):
  SCHEMA <name> <decl>          e.g. SCHEMA app R(A,B); S(C)
  CHECK <schema> <q1> ;; <q2>   decide q1 \u{2291} q2
  EQUIV <schema> <q1> ;; <q2>   decide equivalence
  UCHECK <schema> <u1> ;; <u2>  decide union containment; each side is
                                `<q> [or <q>]*` (Sagiv–Yannakakis per
                                disjunct, short-circuiting, memoized under
                                an order-invariant union fingerprint)
  UEQUIV <schema> <u1> ;; <u2>  decide union equivalence (both directions)
  AGG <b1> [| <fns>] ;; <b2> [| <fns>]
                                decide aggregate-query containment; each
                                side is a datalog body with optional
                                aggregate terms, e.g.
                                `q(X) :- R(X, Y). | count(Y)`
  NEST <schema> <s1> ;; <s2>    decide nest/unnest sequence equivalence;
                                each side is `<base> [; nest <A>[,<B>] as
                                <G> | ; unnest <G>]*`
  FINGERPRINT <schema> <q>      canonical cache-key fingerprint
  STATS                         counters + per-path latency quantiles
  METRICS                       Prometheus text exposition, ends with # EOF
  SNAPEXPORT                    hex-dump the cache as a COQLSNP1 snapshot
  SNAPBEGIN/SNAPDATA/SNAPCOMMIT stage + verify + preload a pushed snapshot
                                (all SNAP* verbs need --allow-handoff)
  SHUTDOWN                      drain and stop (needs --allow-shutdown)
  QUIT

  The decision verbs (CHECK/EQUIV/UCHECK/UEQUIV, plus AGG/NEST for the
  budget prefixes) accept prefixes, e.g. `TIMEOUT 50 CHECK app ...` caps
  the request at 50 ms and `BUDGET 1000 CHECK app ...` caps kernel steps
  (0 clears the server default). An expired budget answers `ERR DEADLINE`
  without caching anything. An `EXPLAIN` prefix answers the verdict plus
  `explain.*` phase timings (parse/canonicalize/fingerprint/prepare/cache/
  kernel µs) and kernel step counts, terminated by END. A `CERT` prefix
  answers the verdict plus one COCERT1..COCERTEND proof block per
  direction (COUNION1..COUNIONEND union certificates for UCHECK/UEQUIV),
  terminated by END; check it independently with `coqlc cert --addr` or
  the co-cert crate (cached certificates are re-verified server-side
  first, and an uncertifiable verdict answers `ERR CERTUNAVAILABLE`).
  Other failure replies are `ERR TOOLARGE`, `ERR TOODEEP` (query nested
  past --max-parse-depth, or more than 64 AGG atoms / NEST steps; a union
  of more than 64 disjuncts is a plain syntax error), `ERR OVERLOADED`,
  and `ERR INTERNAL` (the server survives all of them).

exit codes:
  0  clean shutdown (SHUTDOWN verb after --allow-shutdown, drained)
  1  bad command line
  2  startup failure (bind error, unreadable or invalid schema file)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err((message, code)) => {
            eprintln!("coqld: {message}");
            ExitCode::from(code)
        }
    }
}

fn run(args: &[String]) -> Result<(), (String, u8)> {
    let mut listen = "127.0.0.1:7878".to_string();
    let mut schemas: Vec<(String, String)> = Vec::new();
    let mut config = EngineConfig::default();
    let mut server = ServerConfig::default();

    let usage = |message: String| (format!("{message} (see --help)"), 1u8);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| usage(format!("{name} needs a value")));
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{HELP}");
                return Ok(());
            }
            "--listen" => listen = value("--listen")?,
            "--schema" => {
                let spec = value("--schema")?;
                let (name, path) = spec.split_once('=').ok_or_else(|| {
                    usage(format!("--schema expects <name>=<file>, got `{spec}`"))
                })?;
                schemas.push((name.to_string(), path.to_string()));
            }
            "--shards" => config.cache_shards = parse_num(&value("--shards")?, "--shards")?,
            "--capacity" => {
                config.cache_per_shard = parse_num(&value("--capacity")?, "--capacity")?
            }
            "--workers" => config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--kernel-threads" => {
                config.kernel_threads = parse_num(&value("--kernel-threads")?, "--kernel-threads")?
            }
            "--max-connections" => {
                server.max_connections =
                    parse_num(&value("--max-connections")?, "--max-connections")?
            }
            "--default-timeout-ms" => {
                server.default_timeout =
                    parse_ms(&value("--default-timeout-ms")?, "--default-timeout-ms")?
            }
            "--read-timeout-ms" => {
                server.read_timeout = parse_ms(&value("--read-timeout-ms")?, "--read-timeout-ms")?
            }
            "--write-timeout-ms" => {
                server.write_timeout =
                    parse_ms(&value("--write-timeout-ms")?, "--write-timeout-ms")?
            }
            "--max-line-bytes" => {
                server.max_line_bytes = parse_num(&value("--max-line-bytes")?, "--max-line-bytes")?
            }
            "--drain-ms" => {
                server.drain_timeout =
                    Duration::from_millis(parse_num(&value("--drain-ms")?, "--drain-ms")? as u64)
            }
            "--max-parse-depth" => {
                config.max_parse_depth =
                    parse_num(&value("--max-parse-depth")?, "--max-parse-depth")?.max(1)
            }
            "--cache-path" => server.cache_path = Some(value("--cache-path")?.into()),
            "--snapshot-interval-ms" => {
                let ms = parse_num(&value("--snapshot-interval-ms")?, "--snapshot-interval-ms")?;
                server.snapshot_interval = Duration::from_millis(ms.max(1) as u64)
            }
            "--allow-shutdown" => server.allow_shutdown = true,
            "--allow-handoff" => server.allow_handoff = true,
            "--slow-log-ms" => {
                server.slow_log = parse_ms(&value("--slow-log-ms")?, "--slow-log-ms")?
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }

    #[cfg(feature = "fault-inject")]
    co_service::faults::init_from_env();

    let engine = Arc::new(Engine::new(config));
    if let Some(path) = &server.cache_path {
        match engine.warm_start(path) {
            WarmStart::Cold => println!("coqld: no snapshot at {}, starting cold", path.display()),
            WarmStart::Recovered(n) => {
                println!("coqld: warm start, {n} verdicts recovered from {}", path.display())
            }
            WarmStart::Quarantined { reason } => {
                eprintln!(
                    "coqld: snapshot {} quarantined ({reason}); starting cold",
                    path.display()
                )
            }
        }
    }
    for (name, path) in &schemas {
        let text = std::fs::read_to_string(path)
            .map_err(|e| (format!("cannot read schema `{path}`: {e}"), 2))?;
        let schema = parse_schema_decl(&text).map_err(|e| (format!("schema `{path}`: {e}"), 2))?;
        let fp = engine.register_schema(name, schema);
        println!("coqld: schema {name} registered (fp={fp})");
    }

    let listener =
        TcpListener::bind(&listen).map_err(|e| (format!("cannot bind `{listen}`: {e}"), 2))?;
    let addr = listener.local_addr().map_err(|e| (e.to_string(), 2))?;
    println!("coqld: listening on {addr}");
    serve(listener, engine, server).map_err(|e| (format!("accept loop failed: {e}"), 2))?;
    println!("coqld: drained, bye");
    Ok(())
}

fn parse_num(text: &str, flag: &str) -> Result<usize, (String, u8)> {
    text.parse::<usize>()
        .map_err(|_| (format!("{flag} expects a number, got `{text}` (see --help)"), 1))
}

/// Parses a millisecond flag where `0` means "no limit".
fn parse_ms(text: &str, flag: &str) -> Result<Option<Duration>, (String, u8)> {
    let ms = parse_num(text, flag)? as u64;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

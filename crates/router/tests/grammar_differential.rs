//! The grammar differential: one `coqld` and a one-shard router in front
//! of it must classify every request line the same way.
//!
//! A seeded generator writes lines over the whole verb table of
//! `co_service::wire` — every verb in mixed case, stacked and repeated
//! prefixes, bad prefix numbers, missing schemas, missing `;;`, empty
//! sides, unknown schemas, parse errors and unknown verbs. Each line goes
//! to the shard, then to the router (which forwards to the same shard, so
//! the second ask of a decision hits the memo). For verbs both sides serve:
//! * every `ERR` reply is byte-identical, except the millisecond count in
//!   `ERR DEADLINE … after <n>ms`;
//! * every `OK` first line is identical once `cached=` is dropped;
//! * multi-line bodies have the same line keys in the same order and
//!   identical certificate blocks (`explain.*` values are timings, and the
//!   router's own `explain.router.*` lines are skipped).
//!
//! `STATS`, `METRICS` and `SCHEMA` describe the side that answers, so only
//! their framing and status must agree (the router's `SCHEMA` reply adds
//! its broadcast count). A verb one side does not serve must get that
//! side's unknown-command error, and a gated verb the table's gate error.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_router::{serve_router_with_shutdown, Router, RouterConfig};
use co_service::wire::{self, Cmd, Conn, Side, VERBS};
use co_service::{serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 2] = [11, 29];
const LINES_PER_SEED: usize = 1_100;
const SCHEMA: &str = "SCHEMA app R(A, B); S(C)";

fn start_shard() -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
    let addr = listener.local_addr().unwrap();
    // One kernel thread keeps BUDGET expiry deterministic between asks.
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 4096,
        kernel_threads: 1,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            serve_with_shutdown(listener, engine, ServerConfig::default(), shutdown)
                .expect("serve shard");
        })
    };
    (addr, shutdown, handle)
}

fn start_router(shard: SocketAddr) -> (SocketAddr, Arc<Router>, Shutdown, thread::JoinHandle<()>) {
    let config = RouterConfig {
        probe_interval: Duration::from_millis(200),
        connect_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    let router = Router::new(&[shard.to_string()], config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let shutdown = router.shutdown_handle();
    let handle = {
        let router = Arc::clone(&router);
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            serve_router_with_shutdown(listener, router, shutdown).expect("serve router");
        })
    };
    (addr, router, shutdown, handle)
}

const QUERIES: &[&str] = &[
    "select x.B from x in R where x.A = 1",
    "select y.B from y in R",
    "select [a: x.A] from x in R",
    "select [a: z.A] from z in R where z.B = 2",
    "select x.C from x in S",
    "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R",
    "select [a: x.A, g: (select y.B from y in R where y.A = x.A and y.B = 3)] from x in R",
    "{}",
];

const BROKEN: &[&str] = &[
    "select from",
    "select x.B from x in",
    "select x.Z from x in R",
    "select x.B from x in T",
    "1",
    "((((",
];

const AGG_SIDES: &[&str] = &[
    "q(X) :- R(X,Y). | count(Y)",
    "q(X) :- R(X,Z). | count(Z)",
    "q(X) :- R(X,Y), R(X,W). | sum(Y)",
    "q(X) :- R(X,Y).",
    "q(X) :- R(X,Y). | count(",
    "q(X) :- .",
];

const NEST_SIDES: &[&str] =
    &["R", "R; nest B as G", "R; nest B as G; unnest G", "R; unnest G", "R S", "R;", "R; fold B"];

/// `word` with each letter's case flipped at random.
fn mixed_case(rng: &mut StdRng, word: &str) -> String {
    word.chars()
        .map(|c| if rng.gen_bool(0.5) { c.to_ascii_lowercase() } else { c.to_ascii_uppercase() })
        .collect()
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

fn query(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.1) {
        return pick(rng, BROKEN).to_string();
    }
    pick(rng, QUERIES).to_string()
}

fn union(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..=3);
    (0..n).map(|_| query(rng)).collect::<Vec<_>>().join(" or ")
}

fn prefixes(rng: &mut StdRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..=3) {
        let prefix = match rng.gen_range(0..10) {
            0 | 1 => "EXPLAIN".to_string(),
            2 | 3 => "CERT".to_string(),
            4 => format!("TIMEOUT {}", pick(rng, &["0", "30000"])),
            5 => format!("BUDGET {}", pick(rng, &["0", "1", "1000000"])),
            6 => format!("TIMEOUT {}", pick(rng, &["abc", "-5", "1.5", ""])),
            7 => format!("BUDGET {}", pick(rng, &["x", "-1", "99999999999999999999"])),
            _ => continue,
        };
        let (word, arg) = prefix.split_once(' ').unwrap_or((&prefix, ""));
        out.push_str(&mixed_case(rng, word));
        if !arg.is_empty() {
            out.push(' ');
            out.push_str(arg);
        }
        out.push(' ');
    }
    out
}

/// The arguments after a verb: mostly well-formed, sometimes missing a
/// schema, the `;;`, a side, or naming an unknown schema.
fn arguments(rng: &mut StdRng, cmd: Cmd) -> String {
    let schema = pick(rng, &["app", "app", "app", "app", "nope"]);
    let side = |rng: &mut StdRng| match cmd {
        Cmd::UCheck | Cmd::UEquiv => union(rng),
        Cmd::Agg => pick(rng, AGG_SIDES).to_string(),
        Cmd::Nest => pick(rng, NEST_SIDES).to_string(),
        _ => query(rng),
    };
    let (q1, q2) = (side(rng), side(rng));
    let with_schema =
        |body: String| if cmd == Cmd::Agg { body } else { format!("{schema} {body}") };
    match rng.gen_range(0..12) {
        0 => String::new(),
        1 => schema.to_string(),
        2 => with_schema(q1),
        3 => with_schema(format!("{q1} ;;")),
        4 => with_schema(format!(";; {q2}")),
        5 => format!("{q1} ;; {q2}"),
        _ => with_schema(format!("{q1} ;; {q2}")),
    }
}

fn line(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.03) {
        return prefixes(rng).trim_end().to_string();
    }
    if rng.gen_bool(0.04) {
        let verb = pick(rng, &["BOGUS", "CHEK", "checkk", "UCHECKS", "SNAP", "?"]);
        return format!("{}{verb} app x ;; y", prefixes(rng));
    }
    let verb = &VERBS[rng.gen_range(0..VERBS.len())];
    let name = mixed_case(rng, verb.name);
    let args = match verb.cmd {
        Cmd::Check | Cmd::Equiv | Cmd::UCheck | Cmd::UEquiv | Cmd::Agg | Cmd::Nest => {
            arguments(rng, verb.cmd)
        }
        Cmd::Fingerprint => match rng.gen_range(0..4) {
            0 => "app".to_string(),
            1 => format!("nope {}", query(rng)),
            _ => format!("app {}", query(rng)),
        },
        Cmd::Schema => {
            pick(rng, &["t1 R(A, B)", "t2 R(A, A)", "t3", "", "t4 Q(X); P(Y, Z)"]).to_string()
        }
        Cmd::Handoff => pick(rng, &["", "127.0.0.1:1"]).to_string(),
        Cmd::SnapBegin => pick(rng, &["12", "x", ""]).to_string(),
        Cmd::SnapData => pick(rng, &["00ff", "zz"]).to_string(),
        _ => String::new(),
    };
    // Decision verbs get prefixes most often; anything may get them.
    let prefixes = if verb.decision || rng.gen_bool(0.2) { prefixes(rng) } else { String::new() };
    format!("{prefixes}{name} {args}").trim_end().to_string()
}

/// `ERR DEADLINE … after <n>ms …` with the count blanked.
fn blank_deadline_ms(reply: &str) -> String {
    if !reply.starts_with("ERR DEADLINE") {
        return reply.to_string();
    }
    reply
        .split(' ')
        .map(|w| match w.strip_suffix("ms") {
            Some(n) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => "<n>ms",
            _ => w,
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn without_cached(first: &str) -> String {
    first.split(' ').filter(|w| !w.starts_with("cached=")).collect::<Vec<_>>().join(" ")
}

/// The comparable shape of a multi-line body: each line's key, except
/// certificate lines, which must match whole; the router's own
/// `explain.router.*` lines are dropped.
fn body_shape(lines: &[&str]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.starts_with("explain.router."))
        .map(|l| match l.split_once(' ') {
            Some((key, _)) if key.starts_with("explain.") => key.to_string(),
            _ => l.to_string(),
        })
        .collect()
}

/// Why the two replies to `line` disagree, if they do.
fn mismatch(line: &str, shard: &str, router: &str) -> Option<String> {
    let sides = [(Side::Shard, shard), (Side::Router, router)];
    // A line a side refuses — bad prefixes, a verb it does not serve —
    // gets exactly the refusal the table spells out for that side.
    let mut refused = false;
    for (side, reply) in sides {
        if let Err(message) = wire::parse(side, line) {
            refused = true;
            if reply != format!("ERR {message}") {
                return Some(format!("{side:?} must answer `ERR {message}`"));
            }
        }
    }
    let Some(parsed) = wire::parse(Side::Shard, line).ok().flatten() else {
        // Refused above, or a blank line that gets no reply from either side.
        return (!refused && (!shard.is_empty() || !router.is_empty()))
            .then(|| "a silent line was answered".to_string());
    };
    let (verb, framing) = (parsed.verb, parsed.framing());
    if refused {
        // Served by one side only: the serving side answers as usual, and
        // a gated verb with the gate's refusal (these servers open none).
        let expected = format!("ERR {}", wire::disabled(Side::Shard, verb));
        return (verb.gate.is_some() && shard != expected).then(|| format!("want `{expected}`"));
    }
    if verb.gate.is_some() {
        return sides.iter().find_map(|&(side, reply)| {
            let expected = format!("ERR {}", wire::disabled(side, verb));
            (reply != expected).then(|| format!("{side:?} must answer `{expected}`"))
        });
    }
    if shard.starts_with("ERR") || router.starts_with("ERR") {
        let (s, r) = (blank_deadline_ms(shard), blank_deadline_ms(router));
        return (s != r).then(|| "ERR replies differ".to_string());
    }
    let s_lines: Vec<&str> = shard.lines().collect();
    let r_lines: Vec<&str> = router.lines().collect();
    for (side, lines) in [(Side::Shard, &s_lines), (Side::Router, &r_lines)] {
        let end = framing.terminator(lines[0]);
        if end.is_some() != (lines.len() > 1) || end.is_some_and(|e| lines.last() != Some(&e)) {
            return Some(format!("the {side:?} reply is not framed as {framing:?}"));
        }
    }
    match verb.cmd {
        // Each side describes itself.
        Cmd::Stats | Cmd::Metrics => None,
        Cmd::Schema => {
            let router = r_lines[0].rsplit_once(" shards=").map_or(r_lines[0], |(head, _)| head);
            (s_lines[0] != router).then(|| "SCHEMA replies differ".to_string())
        }
        _ => {
            if without_cached(s_lines[0]) != without_cached(r_lines[0]) {
                return Some("OK lines differ".to_string());
            }
            (body_shape(&s_lines[1..]) != body_shape(&r_lines[1..]))
                .then(|| "multi-line bodies differ".to_string())
        }
    }
}

#[test]
fn shard_and_router_classify_every_line_alike() {
    let (shard_addr, shard_stop, shard_handle) = start_shard();
    let (router_addr, router, router_stop, router_handle) = start_router(shard_addr);
    let dial = |addr| Conn::dial(addr).expect("connect");
    let (mut shard, mut routed) = (dial(shard_addr), dial(router_addr));
    assert!(routed.request(SCHEMA).unwrap().starts_with("OK"));

    let mut sent = 0;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..LINES_PER_SEED {
            let line = line(&mut rng);
            let s = shard
                .request(&line)
                .unwrap_or_else(|e| panic!("seed {seed} line {i} `{line}`: shard: {e}"));
            let r = routed
                .request(&line)
                .unwrap_or_else(|e| panic!("seed {seed} line {i} `{line}`: router: {e}"));
            if let Some(why) = mismatch(&line, &s, &r) {
                panic!(
                    "seed {seed} line {i}: {why}\n  line:   {line}\n  shard:  {s}\n  router: {r}"
                );
            }
            if s == "OK bye" {
                (shard, routed) = (dial(shard_addr), dial(router_addr));
            }
            sent += 1;
        }
    }
    assert!(sent >= 2_000);

    drop((shard, routed)); // hang up first, so the drains end at once
    router_stop.trigger();
    router_handle.join().unwrap();
    drop(router);
    shard_stop.trigger();
    shard_handle.join().unwrap();
}

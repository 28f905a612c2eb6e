//! End-to-end protocol tests for the PR-10 verbs: `UCHECK`/`UEQUIV`
//! (union containment with certificates) and `AGG`/`NEST` (aggregate and
//! nest/unnest decisions), all over a real TCP serving loop.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use co_service::wire::Conn;
use co_service::{serve, Engine, EngineConfig, ServerConfig};

fn start_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        workers: 2,
        ..EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ =
            serve(listener, engine, ServerConfig { max_connections: 8, ..ServerConfig::default() });
    });
    addr
}

/// The lines of one whole reply, terminator included.
fn lines(client: &mut Conn, request: &str) -> Vec<String> {
    client.request(request).unwrap().lines().map(String::from).collect()
}

#[test]
fn ucheck_and_uequiv_decide_unions_over_tcp() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");
    assert!(client.request("SCHEMA app R(A, B); S(C)").unwrap().starts_with("OK"));

    // Both disjuncts of the left union are contained in the right query.
    let reply = client
        .request(
            "UCHECK app select x.B from x in R where x.A = 1 or \
         select x.B from x in R where x.A = 2 ;; select y.B from y in R",
        )
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("witnesses=0,0"), "{reply}");
    assert!(reply.contains("left=2 right=1"), "{reply}");
    assert!(reply.contains("cached=false"), "{reply}");

    // The permuted, α-renamed union decides the same disjunct pairs, all
    // memoized: a cache hit.
    let reply = client
        .request(
            "UCHECK app select w.B from w in R where w.A = 2 or \
         select z.B from z in R where 1 = z.A ;; select v.B from v in R",
        )
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("cached=true"), "{reply}");

    // The reverse direction is refuted at the uncovered disjunct.
    let reply = client
        .request(
            "UCHECK app select y.B from y in R ;; \
         select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
        )
        .unwrap();
    assert!(reply.starts_with("OK holds=false"), "{reply}");
    assert!(reply.contains("refuted=0"), "{reply}");

    // `(σ R) ∪ R ≡ R` both ways.
    let reply = client
        .request(
            "UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
         select y.B from y in R",
        )
        .unwrap();
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");
    assert!(reply.contains("forward=true backward=true"), "{reply}");

    let stats = lines(&mut client, "STATS");
    assert!(stats.iter().any(|l| l.starts_with("unions.decisions ")), "{stats:?}");
    assert!(stats.iter().any(|l| l == "unions.hits 1"), "{stats:?}");

    let metrics = lines(&mut client, "METRICS");
    assert!(metrics.iter().any(|l| l.starts_with("coqld_union_decisions_total ")), "{metrics:?}");
}

#[test]
fn cert_ucheck_attaches_checkable_union_certificates() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");
    assert!(client.request("SCHEMA app R(A, B); S(C)").unwrap().starts_with("OK"));

    let request = "CERT UCHECK app select x.B from x in R where x.A = 1 or \
                   select x.B from x in R where x.A = 2 ;; select y.B from y in R";
    let reply = lines(&mut client, request);
    assert!(reply[0].starts_with("OK holds=true"), "{reply:?}");
    assert_eq!(reply.last().map(String::as_str), Some("END"));
    let body = reply[1..reply.len() - 1].join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse COUNION1 block");
    assert!(cert.holds);
    assert_eq!(cert.left, 2);
    assert_eq!(cert.witnesses.len(), 2);

    // A refuted union carries per-branch counterexample blocks.
    let reply = lines(
        &mut client,
        "CERT UCHECK app select y.B from y in R ;; \
         select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
    );
    assert!(reply[0].starts_with("OK holds=false"), "{reply:?}");
    let body = reply[1..reply.len() - 1].join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse refuted COUNION1 block");
    assert!(!cert.holds);
    assert_eq!(cert.branches.len(), 2);

    // The memoized certificate passes the server-side re-check and is
    // served again on the cached path.
    let reply = lines(&mut client, request);
    assert!(reply[0].contains("cached=true"), "{reply:?}");
    assert!(reply.iter().any(|l| l == "COUNION1 verdict=holds left=2 right=1"), "{reply:?}");
    let stats = lines(&mut client, "STATS");
    assert!(stats.iter().any(|l| l == "persist.cert_rejected 0"), "{stats:?}");

    // CERT UEQUIV emits the forward block, then the backward block.
    let reply = lines(
        &mut client,
        "CERT UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
         select y.B from y in R",
    );
    assert!(reply[0].starts_with("OK equivalent=true"), "{reply:?}");
    let body = reply[1..reply.len() - 1].join("\n");
    let (fwd, rest) = co_cert::UnionCert::parse_prefix(&body).expect("forward block");
    let (bwd, rest) = co_cert::UnionCert::parse_prefix(rest).expect("backward block");
    assert!(rest.trim().is_empty(), "{rest}");
    assert!(fwd.holds && bwd.holds);
}

/// Checks a `COUNION1` reply body against unions prepared locally in the
/// request's own disjunct order.
fn check_union_block(body: &str, left: &str, right: &str, holds: bool) {
    let schema = co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    let prepare = |text: &str| {
        co_core::prepare_union(&co_lang::parse_union_coql(text).unwrap(), &schema).unwrap()
    };
    let (l, r) = (prepare(left), prepare(right));
    let ltrees: Vec<_> = l.disjuncts.iter().map(|p| &p.tree).collect();
    let rtrees: Vec<_> = r.disjuncts.iter().map(|p| &p.tree).collect();
    let expect =
        |j: usize, i: usize| co_core::cert_path(co_core::expected_union_path(&l, &r, j, i));
    co_cert::UnionCert::parse(body)
        .and_then(|cert| cert.check_against(&ltrees, &rtrees, holds, &expect))
        .unwrap_or_else(|e| panic!("`{left}` ⊑ `{right}`: {e}"));
}

#[test]
fn permuted_cert_ucheck_blocks_follow_the_request_order() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");
    assert!(client.request("SCHEMA app R(A, B); S(C)").unwrap().starts_with("OK"));

    let a = "select x.B from x in R where x.A = 1";
    let b = "select x.B from x in R where x.B = 2";
    let three = "select y.B from y in R where y.A = 1 or select y.B from y in R where y.B = 2 \
                 or select y.B from y in R where y.A = 3";
    for (left, witnesses, cached) in [
        (format!("{a} or {b}"), "witnesses=0,1", "cached=false"),
        (format!("{b} or {a}"), "witnesses=1,0", "cached=true"),
    ] {
        let reply = lines(&mut client, &format!("CERT UCHECK app {left} ;; {three}"));
        assert!(reply[0].starts_with("OK holds=true"), "{reply:?}");
        assert!(reply[0].contains(witnesses), "{left}: {}", reply[0]);
        assert!(reply[0].contains(cached), "{left}: {}", reply[0]);
        check_union_block(&reply[1..reply.len() - 1].join("\n"), &left, three, true);
    }

    // A fresh right side decides cold, in the permuted order first.
    let one = "select y.B from y in R where y.A = 1";
    for (left, refuted) in
        [(format!("{b} or {a}"), "refuted=0"), (format!("{a} or {b}"), "refuted=1")]
    {
        let reply = lines(&mut client, &format!("CERT UCHECK app {left} ;; {one}"));
        assert!(reply[0].starts_with("OK holds=false"), "{reply:?}");
        assert!(reply[0].contains(refuted), "{left}: {}", reply[0]);
        check_union_block(&reply[1..reply.len() - 1].join("\n"), &left, one, false);
    }
    let stats = lines(&mut client, "STATS");
    assert!(stats.iter().any(|l| l == "persist.cert_rejected 0"), "{stats:?}");
}

#[test]
fn union_budget_and_depth_failures_are_structured() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");
    assert!(client.request("SCHEMA app R(A, B)").unwrap().starts_with("OK"));

    // A 1-step budget trips inside the disjunct kernels: ERR DEADLINE,
    // nothing memoized — the retry computes fresh.
    let union = "select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
                 select y.B from y in R";
    let reply = client.request(&format!("BUDGET 1 UCHECK app {union}")).unwrap();
    assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
    let reply = client.request(&format!("UCHECK app {union}")).unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("cached=false"), "{reply}");

    // Hostile nesting inside a disjunct is a structured TOODEEP error.
    let hostile = format!("select x.B from x in R or {}", "{".repeat(10_000));
    let reply = client.request(&format!("UCHECK app {hostile} ;; select y.B from y in R")).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");

    // Too many disjuncts is a syntax error, not a hang.
    let many = vec!["select x.B from x in R"; 65].join(" or ");
    let reply = client.request(&format!("UCHECK app {many} ;; select y.B from y in R")).unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("disjuncts"), "{reply}");
}

#[test]
fn agg_decides_aggregate_containment_over_tcp() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");

    // α-renamed count queries are equivalent.
    let reply =
        client.request("AGG q(X) :- R(X, Y). | count(Y) ;; q(X) :- R(X, Z). | count(Z)").unwrap();
    assert!(reply.starts_with("OK forward=true backward=true equivalent=true"), "{reply}");

    // A restricted body loses backward containment.
    let reply = client
        .request("AGG q(X) :- R(X, Y), S(X). | count(Y) ;; q(X) :- R(X, Y). | count(Y)")
        .unwrap();
    assert!(reply.starts_with("OK"), "{reply}");
    assert!(reply.contains("equivalent=false"), "{reply}");

    // Different aggregate functions never match.
    let reply =
        client.request("AGG q(X) :- R(X, Y). | count(Y) ;; q(X) :- R(X, Y). | sum(Y)").unwrap();
    assert!(reply.contains("equivalent=false"), "{reply}");

    // Malformed requests answer a single ERR line.
    for bad in ["AGG", "AGG only one side", "AGG q(X :- R. ;; q(X) :- R(X)."] {
        let reply = client.request(bad).unwrap();
        assert!(reply.starts_with("ERR"), "`{bad}` → {reply}");
    }

    // An oversized body is a structured TOODEEP error, not a worker hog.
    let atoms: Vec<String> = (0..65).map(|i| format!("R(X, Y{i})")).collect();
    let big =
        format!("AGG q(X) :- {}. | count(Y0) ;; q(X) :- R(X, Y). | count(Y)", atoms.join(", "));
    let reply = client.request(&big).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
}

#[test]
fn nest_decides_sequence_equivalence_over_tcp() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");
    assert!(client.request("SCHEMA app R(A, B)").unwrap().starts_with("OK"));

    // unnest ∘ nest is the identity: ν then μ restores the base relation.
    let reply = client.request("NEST app R ; nest B as G ; unnest G ;; R").unwrap();
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");
    assert!(reply.contains("ops1=2 ops2=0"), "{reply}");

    // A bare nest changes the type: not equivalent to the base.
    let reply = client.request("NEST app R ; nest B as G ;; R").unwrap();
    assert!(reply.starts_with("OK equivalent=false"), "{reply}");

    // Unknown schemas and malformed steps answer single ERR lines.
    let reply = client.request("NEST nope R ;; R").unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    for bad in
        ["NEST app", "NEST app R ;; ", "NEST app R ; pivot B ;; R", "NEST app R ; nest as G ;; R"]
    {
        let reply = client.request(bad).unwrap();
        assert!(reply.starts_with("ERR"), "`{bad}` → {reply}");
        assert!(!reply.contains('\n'), "`{bad}` reply must be one line");
    }

    // An overlong sequence is a structured TOODEEP error.
    let mut steps = String::from("R");
    for i in 0..33 {
        steps.push_str(&format!(" ; nest B as G{i} ; unnest G{i}"));
    }
    let reply = client.request(&format!("NEST app {steps} ;; R")).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");

    // EXPLAIN/CERT do not apply to the structural verbs.
    let reply = client.request("EXPLAIN NEST app R ;; R").unwrap();
    assert!(reply.starts_with("ERR EXPLAIN"), "{reply}");
    let reply = client.request("CERT AGG q(X) :- R(X, Y). ;; q(X) :- R(X, Y).").unwrap();
    assert!(reply.starts_with("ERR CERT"), "{reply}");
}

//! Starting the programs under test: one `coqld`, or three `coqld` shards
//! behind `coqld-router`, each a separate process on loopback.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::gen::{SCHEMA_DECL, SCHEMA_NAME};
use crate::wire::Conn;

/// A probe CHECK that touches both relations, so a shard that registered
/// only part of the schema fails it.
pub const PROBE: &str = "CHECK app select [a: x.A, g: (select y.C from y in S where y.C = x.A)] \
                         from x in R ;; select [a: z.A, g: (select w.C from w in S where w.C = z.A)] \
                         from z in R";

/// One spawned server process; killed and reaped on drop.
struct Proc {
    child: Child,
    // Held open so the child never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `bin` and waits for its `<announce><addr>` line on stdout.
fn spawn(bin: &Path, args: &[String], announce: &str) -> Result<(Proc, SocketAddr), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut proc = Proc { child, stdout };
    let mut line = String::new();
    loop {
        line.clear();
        let n = proc.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err(format!("{} exited before announcing its address", bin.display()));
        }
        if let Some(rest) = line.strip_prefix(announce) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            let addr = addr.parse().map_err(|e| format!("bad address `{addr}`: {e}"))?;
            return Ok((proc, addr));
        }
    }
}

/// Where load goes and which servers to ask for counters.
pub struct Deployment {
    /// The address clients connect to (the router in a fleet).
    pub entry: SocketAddr,
    /// Every `coqld` (the shards in a fleet).
    pub shards: Vec<SocketAddr>,
    /// The router, in a fleet.
    pub router: Option<SocketAddr>,
    procs: Vec<Proc>,
}

/// Sends one line on a fresh connection and requires an `OK` reply.
fn expect_ok(addr: SocketAddr, line: &str) -> Result<String, String> {
    let reply = Conn::connect(addr)
        .and_then(|mut c| c.call(line, false))
        .map_err(|e| format!("{addr}: {e}"))?;
    match reply.into_iter().next() {
        Some(first) if first.starts_with("OK") => Ok(first),
        other => Err(format!("{addr} answered `{}` to `{line}`", other.unwrap_or_default())),
    }
}

impl Deployment {
    /// A server started by someone else (tests run one in process); the
    /// schema must already be registered.
    pub fn external(addr: SocketAddr) -> Deployment {
        Deployment { entry: addr, shards: vec![addr], router: None, procs: Vec::new() }
    }

    /// Starts the servers from the binaries in `bin_dir`, registers the
    /// schema, and returns once every process answers [`PROBE`].
    pub fn start(bin_dir: &Path, fleet: bool, server_args: &[&str]) -> Result<Deployment, String> {
        let coqld = bin_dir.join("coqld");
        let mut args: Vec<String> = vec!["--listen".into(), "127.0.0.1:0".into()];
        args.extend(server_args.iter().map(|a| a.to_string()));
        let shard_count = if fleet { 3 } else { 1 };
        let mut procs = Vec::new();
        let mut shards = Vec::new();
        for _ in 0..shard_count {
            let (proc, addr) = spawn(&coqld, &args, "coqld: listening on ")?;
            procs.push(proc);
            shards.push(addr);
        }
        let router = if fleet {
            let mut rargs: Vec<String> = vec!["--listen".into(), "127.0.0.1:0".into()];
            for s in &shards {
                rargs.push("--shard".into());
                rargs.push(s.to_string());
            }
            let (proc, addr) =
                spawn(&bin_dir.join("coqld-router"), &rargs, "coqld-router: listening on ")?;
            procs.push(proc);
            Some(addr)
        } else {
            None
        };
        let entry = router.unwrap_or(shards[0]);
        let registered = expect_ok(entry, &format!("SCHEMA {SCHEMA_NAME} {SCHEMA_DECL}"))?;
        if fleet && !registered.contains(&format!("shards={shard_count}/{shard_count}")) {
            return Err(format!("schema did not reach every shard: {registered}"));
        }
        for &addr in shards.iter().chain(router.iter()) {
            expect_ok(addr, PROBE).map_err(|e| format!("set-up probe failed: {e}"))?;
        }
        Ok(Deployment { entry, shards, router, procs })
    }

    /// Sum of `VmHWM` (peak resident set) over the spawned processes, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = self
            .procs
            .iter()
            .filter_map(|p| {
                let status =
                    std::fs::read_to_string(format!("/proc/{}/status", p.child.id())).ok()?;
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<u64>().ok()
            })
            .sum();
        kb as f64 / 1024.0
    }

    /// `STATS` summed over the shards, plus the router's own counters
    /// under their `router.` keys.
    pub fn stats(&self) -> Result<HashMap<String, f64>, String> {
        let mut total: HashMap<String, f64> = HashMap::new();
        for &addr in self.shards.iter().chain(self.router.iter()) {
            let stats =
                Conn::connect(addr).and_then(|mut c| c.stats()).map_err(|e| e.to_string())?;
            for (k, v) in stats {
                *total.entry(k).or_default() += v;
            }
        }
        Ok(total)
    }
}

//! The load generator: a closed loop over a few connections, each sending
//! its next request when the previous reply arrives.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::{Family, Workload};
use crate::wire::{parse_reply, Answer, Conn};

/// Concurrent connections, one client thread each: no more than the two
/// cores of the recording host, so the load generator does not measure the
/// scheduler.
pub const CONNECTIONS: usize = 2;

/// Which part of a run a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Untimed: caches fill and lazy set-up finishes.
    Warmup,
    /// The measured window.
    Timed,
    /// Sent with `EXPLAIN`, for layer attribution.
    Traced,
}

/// A stretch of a loop: requests started before `until` get `tag`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// What the requests are for.
    pub tag: Tag,
    /// End of the stretch.
    pub until: Instant,
}

impl Phase {
    fn traced(&self) -> bool {
        self.tag == Tag::Traced
    }
}

/// Builds back-to-back phases starting now.
pub fn phases(spec: &[(Tag, Duration)]) -> Vec<Phase> {
    let mut at = Instant::now();
    spec.iter()
        .map(|&(tag, d)| {
            at += d;
            Phase { tag, until: at }
        })
        .collect()
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Record {
    /// Stream index.
    pub index: u64,
    /// Phase it was started in.
    pub tag: Tag,
    /// Kind and pair, for the oracle.
    pub family: Family,
    /// Semantic pair id.
    pub pair: u64,
    /// When it was sent.
    pub start: Instant,
    /// From `start` to the last byte of the reply, µs.
    pub latency_us: f64,
    /// The answer, or why there is none (`ERR …` or a connection error).
    pub outcome: Result<Answer, String>,
}

/// Runs [`CONNECTIONS`] closed-loop clients through `phases`; connection
/// `c` sends stream indices `first + c`, `first + c + CONNECTIONS`, ….
pub fn closed_loop(
    entry: SocketAddr,
    workload: &Workload,
    seed: u64,
    first: u64,
    phases: &[Phase],
) -> Vec<Record> {
    let mut records: Vec<Record> = thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = Conn::connect(entry);
                    let mut index = first + c as u64;
                    for phase in phases {
                        while Instant::now() < phase.until {
                            let req = workload.request(seed, index);
                            let traced = phase.traced();
                            let start = Instant::now();
                            let reply = match conn.as_mut() {
                                Ok(conn) => conn.call(&req.line(traced), req.multiline(traced)),
                                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                            };
                            let latency_us = start.elapsed().as_secs_f64() * 1e6;
                            let outcome = match reply {
                                Ok(lines) => parse_reply(req.family, &lines),
                                Err(e) => {
                                    thread::sleep(Duration::from_millis(10));
                                    conn = Conn::connect(entry);
                                    Err(format!("connection error: {e}"))
                                }
                            };
                            out.push(Record {
                                index,
                                tag: phase.tag,
                                family: req.family,
                                pair: req.pair,
                                start,
                                latency_us,
                                outcome,
                            });
                            index += CONNECTIONS as u64;
                        }
                    }
                    out
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

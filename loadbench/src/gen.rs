//! The three workloads and their seeded request streams.
//!
//! A stream is a pure function of `(workload, seed, index)`: request `i`
//! draws its semantic pair uniformly from the workload's working set and a
//! fresh α-renaming from its own generator, so a stream never cycles and
//! any connection can render any index without coordination. The pair id
//! travels with the request, which is what lets the oracle decide each
//! distinct semantic pair once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The schema every workload registers, on one line (see the README for
/// why a multi-line schema file must not be used with the router).
pub const SCHEMA_DECL: &str = "R(A, B); S(C)";
/// The name the schema is registered under.
pub const SCHEMA_NAME: &str = "app";

/// A request kind, with the constant range its pairs draw from so that no
/// two kinds ever share a cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// `CHECK` over the E13 scalar shapes.
    Check,
    /// `EQUIV` over the same shapes.
    Equiv,
    /// `UCHECK` over E14-style unions.
    UCheck,
    /// `CERT CHECK`: a scalar verdict plus a certificate to validate.
    CertCheck,
}

impl Family {
    fn verb(self) -> &'static str {
        match self {
            Family::Check => "CHECK",
            Family::Equiv => "EQUIV",
            Family::UCheck => "UCHECK",
            Family::CertCheck => "CERT CHECK",
        }
    }

    fn base(self) -> u64 {
        match self {
            Family::Check => 0,
            Family::Equiv => 100_000,
            Family::UCheck => 200_000,
            Family::CertCheck => 300_000,
        }
    }
}

/// One workload: what is deployed and what traffic it gets.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// One sentence on why the workload exists.
    pub why: &'static str,
    /// Three shards behind `coqld-router` instead of one `coqld`.
    pub fleet: bool,
    /// Extra `coqld` flags.
    pub server_args: &'static [&'static str],
    /// `(family, weight, working-set size)`; weights sum to 100.
    pub mix: &'static [(Family, u32, u64)],
    /// Disjuncts on the right side of every `UCHECK`.
    pub union_k: usize,
}

/// Every workload, in the order a suite runs them. All three are closed
/// loops over [`crate::drive::CONNECTIONS`] connections. There is no tail
/// workload of §5 many-children requests: each such decision leaks interned
/// atoms in `coqld` and the interner's resizes stall single decisions, so
/// their tail latency did not repeat between runs (see the README).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dup_hot",
        why: "A few hot pairs repeat with fresh variable names, so nearly every request is a cache hit and the socket, parse and fingerprint path does all the work.",
        fleet: false,
        server_args: &[],
        mix: &[(Family::Check, 75, 48), (Family::UCheck, 25, 48)],
        union_k: 4,
    },
    Workload {
        name: "cold_evict",
        why: "A working set far larger than a 256-entry cache makes almost every request a miss, so prepare, the kernels, certificate minting and eviction do the work.",
        fleet: false,
        server_args: &["--shards", "4", "--capacity", "64"],
        mix: &[
            (Family::Check, 45, 4096),
            (Family::Equiv, 15, 4096),
            (Family::UCheck, 25, 4096),
            (Family::CertCheck, 15, 4096),
        ],
        union_k: 8,
    },
    Workload {
        name: "fleet_dup",
        why: "The dup_hot stream through coqld-router in front of three shards adds routing, the shard pool and a second hop, with dup_hot as its control.",
        fleet: true,
        server_args: &[],
        mix: &[(Family::Check, 75, 48), (Family::UCheck, 25, 48)],
        union_k: 4,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Its kind.
    pub family: Family,
    /// Semantic pair id within the family.
    pub pair: u64,
    /// Left query text.
    pub q1: String,
    /// Right query text.
    pub q2: String,
}

impl Request {
    /// The protocol line; `explain` adds the `EXPLAIN` prefix.
    pub fn line(&self, explain: bool) -> String {
        let prefix = if explain { "EXPLAIN " } else { "" };
        format!("{prefix}{} {SCHEMA_NAME} {} ;; {}", self.family.verb(), self.q1, self.q2)
    }

    /// Whether the reply to [`Request::line`] spans lines up to `END`.
    pub fn multiline(&self, explain: bool) -> bool {
        explain || self.family == Family::CertCheck
    }
}

/// splitmix64: decorrelates `(seed, index)` into one generator seed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// Request `index` of this workload's stream under `seed`.
    pub fn request(&self, seed: u64, index: u64) -> Request {
        let mut rng = StdRng::seed_from_u64(mix64(mix64(seed) ^ index));
        let mut roll = rng.gen_range(0..100u32);
        let &(family, _, size) = self
            .mix
            .iter()
            .find(|&&(_, weight, _)| {
                let hit = roll < weight;
                roll = roll.saturating_sub(weight);
                hit
            })
            .expect("mix weights sum to 100");
        let pair = rng.gen_range(0..size);
        render(family, pair, self.union_k, size, &mut rng)
    }
}

/// The presentation the oracle decides for a pair: any rendering has the
/// same verdict, so a fixed one is enough.
pub fn canonical(family: Family, pair: u64, union_k: usize, size: u64) -> Request {
    render(family, pair, union_k, size, &mut StdRng::seed_from_u64(0))
}

const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

fn var(rng: &mut StdRng) -> &'static str {
    VARS[rng.gen_range(0..VARS.len())]
}

/// A variable other than `not`.
fn other_var(rng: &mut StdRng, not: &str) -> &'static str {
    loop {
        let v = var(rng);
        if v != not {
            return v;
        }
    }
}

/// `l = r` or `r = l`.
fn eq(l: &str, r: &str, rng: &mut StdRng) -> String {
    if rng.gen_bool(0.5) {
        format!("{l} = {r}")
    } else {
        format!("{r} = {l}")
    }
}

/// `a and b` in either order.
fn and(a: String, b: String, rng: &mut StdRng) -> String {
    if rng.gen_bool(0.5) {
        format!("{a} and {b}")
    } else {
        format!("{b} and {a}")
    }
}

/// E13's two scalar shapes, filtered by constant `k` (`narrow`) or not.
fn scalar(nested: bool, k: u64, narrow: bool, rng: &mut StdRng) -> String {
    let o = var(rng);
    if !nested {
        let keep = format!("{o}.B = {o}.B");
        return if narrow {
            let filter = eq(&format!("{o}.A"), &k.to_string(), rng);
            format!("select {o}.B from {o} in R where {}", and(filter, keep, rng))
        } else {
            format!("select {o}.B from {o} in R")
        };
    }
    let i = other_var(rng, o);
    let join = eq(&format!("{i}.C"), &format!("{o}.A"), rng);
    let conds = if narrow {
        let filter = eq(&format!("{i}.C"), &k.to_string(), rng);
        and(join, filter, rng)
    } else {
        join
    };
    format!("select [a: {o}.A, g: (select {i}.C from {i} in S where {conds})] from {o} in R")
}

/// `σ_{A=c}(R)` projected on `B`.
fn filtered(c: u64, rng: &mut StdRng) -> String {
    let o = var(rng);
    format!("select {o}.B from {o} in R where {}", eq(&format!("{o}.A"), &c.to_string(), rng))
}

/// Renders one presentation of `pair` in `family`.
///
/// Scalar pair `p` has shape `p % 8`: bit 0 picks the nested E13 shape,
/// bit 1 reverses the direction (so both verdicts occur), bit 2 pairs a
/// query with a renaming of itself (so `EQUIV` meets equivalent pairs);
/// its constant is `p / 8`. Union pair `p` puts `σ_{A=p}` on the left and
/// `k` shuffled disjuncts on the right that include it exactly when `p` is
/// even (E14).
fn render(family: Family, pair: u64, union_k: usize, size: u64, rng: &mut StdRng) -> Request {
    let base = family.base();
    let (q1, q2) = match family {
        Family::Check | Family::Equiv | Family::CertCheck => {
            let (nested, reversed, same) = (pair & 1 == 1, pair & 2 == 2, pair & 4 == 4);
            let k = base + pair / 8;
            let narrow = scalar(nested, k, true, rng);
            let other = scalar(nested, k, same, rng);
            if reversed {
                (other, narrow)
            } else {
                (narrow, other)
            }
        }
        Family::UCheck => {
            let first = pair.next_multiple_of(2);
            let mut right: Vec<String> =
                (0..union_k as u64).map(|j| filtered(base + first + j * size, rng)).collect();
            for i in (1..right.len()).rev() {
                right.swap(i, rng.gen_range(0..=i));
            }
            (filtered(base + pair, rng), right.join(" or "))
        }
    };
    Request { family, pair, q1, q2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_never_repeat_a_rendering_source() {
        let w = workload("cold_evict").unwrap();
        let a: Vec<String> = (0..50).map(|i| w.request(7, i).line(false)).collect();
        let b: Vec<String> = (0..50).map(|i| w.request(7, i).line(false)).collect();
        let c: Vec<String> = (0..50).map(|i| w.request(8, i).line(false)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_rendering_parses() {
        for w in &WORKLOADS {
            for i in 0..64 {
                let r = w.request(3, i);
                let parse = if r.family == Family::UCheck {
                    |q: &str| co_lang::parse_union_coql(q).map(|_| ())
                } else {
                    |q: &str| co_lang::parse_coql(q).map(|_| ())
                };
                parse(&r.q1).unwrap_or_else(|e| panic!("{}: {e}", r.q1));
                parse(&r.q2).unwrap_or_else(|e| panic!("{}: {e}", r.q2));
            }
        }
    }
}

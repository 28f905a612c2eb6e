//! Correctness: an in-process `co_core` oracle decides each distinct
//! semantic pair once, and every certificate a `CERT` reply carries is
//! re-checked with `co_cert` against locally prepared trees.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use co_core::{cert_path, expected_path, prepare, Equivalence};
use co_cq::Schema;
use co_lang::{parse_coql, parse_union_coql};

use crate::drive::Record;
use crate::gen::{canonical, Family, Workload};
use crate::wire::Verdict;

/// What checking a run's records found.
#[derive(Debug, Default)]
pub struct Verification {
    /// Requests with an answer that disagrees with the oracle.
    pub wrong: u64,
    /// `CERT` answers whose certificate failed the independent check.
    pub invalid_certs: u64,
    /// Distinct certificates checked.
    pub certs_checked: u64,
    /// Time per certificate check, µs.
    pub cert_check_us: Vec<f64>,
    /// Distinct semantic pairs the oracle decided.
    pub oracle_pairs: usize,
}

fn holds(q1: &str, q2: &str, schema: &Schema) -> Result<bool, String> {
    let (q1, q2) =
        (parse_coql(q1).map_err(|e| e.to_string())?, parse_coql(q2).map_err(|e| e.to_string())?);
    co_core::contained_in(&q1, &q2, schema).map(|a| a.holds).map_err(|e| e.to_string())
}

/// The oracle's verdict for one semantic pair.
fn decide(
    family: Family,
    pair: u64,
    workload: &Workload,
    schema: &Schema,
) -> Result<Verdict, String> {
    let size = workload.mix.iter().find(|m| m.0 == family).map_or(0, |m| m.2);
    let req = canonical(family, pair, workload.union_k, size);
    match family {
        Family::Check | Family::CertCheck => Ok(Verdict::Holds(holds(&req.q1, &req.q2, schema)?)),
        Family::UCheck => {
            let left = parse_union_coql(&req.q1).map_err(|e| e.to_string())?;
            let right = parse_union_coql(&req.q2).map_err(|e| e.to_string())?;
            let analysis =
                co_core::union_contained_in(&left, &right, schema).map_err(|e| e.to_string())?;
            Ok(Verdict::Holds(analysis.holds))
        }
        Family::Equiv => {
            let q1 = parse_coql(&req.q1).map_err(|e| e.to_string())?;
            let q2 = parse_coql(&req.q2).map_err(|e| e.to_string())?;
            let verdict = match co_core::equivalent(&q1, &q2, schema).map_err(|e| e.to_string())? {
                Equivalence::Equivalent => "equivalent",
                Equivalence::NotEquivalent => "not-equivalent",
                Equivalence::WeaklyEquivalentOnly => "weakly-equivalent",
            };
            Ok(Verdict::Equiv {
                forward: holds(&req.q1, &req.q2, schema)?,
                backward: holds(&req.q2, &req.q1, schema)?,
                verdict: verdict.to_string(),
            })
        }
    }
}

/// Checks a certificate block against trees prepared from the request's
/// own text and the verdict the reply claimed.
fn cert_valid(block: &str, q1: &str, q2: &str, holds: bool, schema: &Schema) -> bool {
    let prepared = |q: &str| parse_coql(q).ok().and_then(|e| prepare(&e, schema).ok());
    let (Some(p1), Some(p2)) = (prepared(q1), prepared(q2)) else { return false };
    co_cert::Cert::parse(block)
        .and_then(|cert| {
            cert.check_against(&p1.tree, &p2.tree, holds, cert_path(expected_path(&p1, &p2)))
        })
        .is_ok()
}

/// Verifies every answered record (outside any timed window). Oracle
/// verdicts are computed once per distinct `(family, pair)`; identical
/// certificate blocks for the same pair are checked once.
pub fn verify(records: &[Record], workload: &Workload, seed: u64) -> Result<Verification, String> {
    let schema = co_bench::coql_schema();
    let mut oracle: HashMap<(Family, u64), Verdict> = HashMap::new();
    let mut certs: HashMap<(u64, &str), bool> = HashMap::new();
    let mut v = Verification::default();
    for r in records {
        let Ok(answer) = &r.outcome else { continue };
        let expected = match oracle.entry((r.family, r.pair)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(decide(r.family, r.pair, workload, &schema)?),
        };
        if *expected != answer.verdict {
            v.wrong += 1;
            eprintln!(
                "wrong verdict: {:?} pair {} answered {:?}, oracle {expected:?}",
                r.family, r.pair, answer.verdict
            );
        }
        if r.family != Family::CertCheck {
            continue;
        }
        let Some(block) = answer.cert.as_deref() else {
            v.invalid_certs += 1;
            continue;
        };
        let Verdict::Holds(claimed) = answer.verdict else { continue };
        let valid = match certs.get(&(r.pair, block)) {
            Some(&valid) => valid,
            None => {
                let req = workload.request(seed, r.index);
                let start = Instant::now();
                let valid = cert_valid(block, &req.q1, &req.q2, claimed, &schema);
                v.cert_check_us.push(start.elapsed().as_secs_f64() * 1e6);
                v.certs_checked += 1;
                certs.insert((r.pair, block), valid);
                valid
            }
        };
        if !valid {
            v.invalid_certs += 1;
        }
    }
    v.oracle_pairs = oracle.len();
    Ok(v)
}

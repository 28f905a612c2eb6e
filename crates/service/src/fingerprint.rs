//! Canonical 128-bit fingerprints of queries and schemas.
//!
//! A fingerprint is a hash of [`co_lang::canonical_query`]'s serialization,
//! so two `contained_in(q1, q2)` requests whose queries differ only in
//! bound-variable names, independent-generator order, or conjunct
//! order/duplication produce the same cache key. 128 bits keep accidental
//! collisions out of reach for any realistic request volume (birthday
//! bound ≈ 2⁶⁴ distinct queries).
//!
//! Producing the text costs far more than hashing it. On `dup_hot` normal
//! forms (46 bytes on average; one thread on a shared 2-core x86-64 host)
//! the canonical walk takes 0.5–0.6 µs and the hash 0.07 µs per normal
//! form; `EXPLAIN`'s `fingerprint` phase times both.

use std::fmt;

use co_cq::Schema;
use co_lang::Comprehension;

/// Version of the canonicalization + hash pipeline behind these
/// fingerprints. Cache snapshots embed it; bump it whenever
/// [`co_lang::canonical_query`]'s serialization or the hash below
/// changes, so verdicts keyed by an old pipeline's fingerprints are
/// rejected at warm start instead of silently mis-keyed.
pub const FINGERPRINT_VERSION: u32 = 1;

/// A 128-bit canonical fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a with 128-bit state — stable across platforms and releases, and
/// needs no keys.
pub fn fingerprint_bytes(bytes: &[u8]) -> Fingerprint {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    Fingerprint(h)
}

/// Fingerprint of a normalized query (hash of its canonical serialization).
pub fn fingerprint_query(c: &Comprehension) -> Fingerprint {
    fingerprint_bytes(co_lang::canonical_query(c).as_bytes())
}

/// Renders a parse failure for the wire. Depth-cap rejections get a
/// `TOODEEP` prefix so the protocol reply (`ERR TOODEEP …`) is machine
/// distinguishable from a syntax error.
pub fn parse_error_message(e: &co_lang::ParseError) -> String {
    if e.is_too_deep() {
        format!("TOODEEP {e}")
    } else {
        e.to_string()
    }
}

/// Parses, type-checks, normalizes, and fingerprints one query text — the
/// exact pipeline [`crate::Engine`] uses to build cache keys, exposed so a
/// routing tier can compute the same fingerprint without owning an engine
/// (fingerprint-affine routing is what makes a sharded fleet cache-affine).
///
/// Depth-cap rejections carry the `TOODEEP` marker, like every other
/// parse boundary in the serving path.
pub fn canonical_fingerprint(
    schema: &co_lang::CoqlSchema,
    text: &str,
    max_depth: usize,
) -> Result<Fingerprint, String> {
    let expr =
        co_lang::parse_coql_with_depth(text, max_depth).map_err(|e| parse_error_message(&e))?;
    co_lang::type_check(&expr, schema).map_err(|e| e.to_string())?;
    let nf = co_lang::normalize(&expr, schema).map_err(|e| e.to_string())?;
    Ok(fingerprint_query(&nf))
}

/// Domain-separation tag mixed into every union fingerprint so a
/// one-disjunct union (`UCHECK` of a plain query) never shares its
/// fingerprint with the same query's scalar one. Union fingerprints serve
/// routing and the reply line only: the engine memoizes union verdicts as
/// the verdicts of their disjunct pairs, under scalar fingerprints.
const UNION_TAG: &[u8] = b"UCQ1";

/// Order-invariant fingerprint of a union query from its per-disjunct
/// canonical fingerprints: sorted, deduplicated, and hashed under a
/// union-specific tag. Disjunct permutation, duplicate disjuncts, and
/// α-renaming inside any disjunct all leave it unchanged.
pub fn fingerprint_union(disjuncts: &[Fingerprint]) -> Fingerprint {
    let mut sorted: Vec<u128> = disjuncts.iter().map(|f| f.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut bytes = Vec::with_capacity(UNION_TAG.len() + sorted.len() * 16);
    bytes.extend_from_slice(UNION_TAG);
    for fp in sorted {
        bytes.extend_from_slice(&fp.to_be_bytes());
    }
    fingerprint_bytes(&bytes)
}

/// Parses, type-checks, normalizes, and fingerprints one union query text
/// (`expr (or expr)*`) — the `UCHECK`/`UEQUIV` analogue of
/// [`canonical_fingerprint`], exposed for the routing tier's
/// fingerprint-affine dispatch of union requests.
pub fn canonical_union_fingerprint(
    schema: &co_lang::CoqlSchema,
    text: &str,
    max_depth: usize,
) -> Result<Fingerprint, String> {
    let exprs = co_lang::parse_union_coql_with_depth(text, max_depth)
        .map_err(|e| parse_error_message(&e))?;
    let mut fps = Vec::with_capacity(exprs.len());
    for expr in &exprs {
        co_lang::type_check(expr, schema).map_err(|e| e.to_string())?;
        let nf = co_lang::normalize(expr, schema).map_err(|e| e.to_string())?;
        fps.push(fingerprint_query(&nf));
    }
    Ok(fingerprint_union(&fps))
}

/// Fingerprint of a flat schema: relation names with their attribute lists,
/// in name order (which [`Schema::iter`] already guarantees).
pub fn fingerprint_schema(schema: &Schema) -> Fingerprint {
    let mut text = String::new();
    for rel in schema.iter() {
        text.push_str(&rel.name.name());
        text.push('(');
        for (i, attr) in rel.attrs.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(attr.as_str());
        }
        text.push(')');
        text.push(';');
    }
    fingerprint_bytes(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering_is_32_chars() {
        assert_eq!(Fingerprint(0).to_string().len(), 32);
        assert_eq!(Fingerprint(u128::MAX).to_string(), "f".repeat(32));
    }

    #[test]
    fn union_fingerprints_are_order_invariant_and_tagged() {
        let a = Fingerprint(7);
        let b = Fingerprint(13);
        assert_eq!(fingerprint_union(&[a, b]), fingerprint_union(&[b, a]));
        assert_eq!(fingerprint_union(&[a, b]), fingerprint_union(&[a, b, a]));
        // The singleton union is tagged: distinct from the scalar fp.
        assert_ne!(fingerprint_union(&[a]), a);
        assert_ne!(fingerprint_union(&[a]), fingerprint_union(&[b]));
    }

    #[test]
    fn canonical_union_fingerprint_matches_the_parts() {
        let schema = co_lang::CoqlSchema::from_flat(&Schema::with_relations(&[("R", &["A", "B"])]));
        let d = 128;
        let q1 = "select x.A from x in R";
        let q2 = "select y.B from y in R";
        let f1 = canonical_fingerprint(&schema, q1, d).unwrap();
        let f2 = canonical_fingerprint(&schema, q2, d).unwrap();
        let union = canonical_union_fingerprint(&schema, &format!("{q1} or {q2}"), d).unwrap();
        assert_eq!(union, fingerprint_union(&[f1, f2]));
        // Disjunct order and α-renaming don't matter.
        let flipped =
            canonical_union_fingerprint(&schema, &format!("{q2} or select z.A from z in R"), d)
                .unwrap();
        assert_eq!(union, flipped);
    }

    #[test]
    fn schema_fingerprint_sees_attrs_and_names() {
        let a = fingerprint_schema(&Schema::with_relations(&[("R", &["A", "B"])]));
        let b = fingerprint_schema(&Schema::with_relations(&[("R", &["A", "C"])]));
        let c = fingerprint_schema(&Schema::with_relations(&[("S", &["A", "B"])]));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let again = fingerprint_schema(&Schema::with_relations(&[("R", &["A", "B"])]));
        assert_eq!(a, again);
    }
}

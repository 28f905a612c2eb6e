//! # co-cert — independent re-checking of containment certificates
//!
//! The trusted base of the certified-verdict pipeline (ROADMAP item 3,
//! modeled on axiograph's fast-mode/certified-mode split). The decision
//! kernels in `co-cq`/`co-sim`/`co-core` are *fast* but complex —
//! pattern-indexed MRV search, bitset domains, work-stealing parallel
//! pattern loops — and a bug in any of them silently flips verdicts. This
//! crate re-checks a [`Cert`] against the two query trees using nothing
//! but naive, deliberately dumb evaluation:
//!
//! * its own backtracking body enumerator (linear scans, no indexes, no
//!   MRV, no candidate pruning);
//! * its own recursive tree evaluator and Hoare-order comparison;
//! * its own canonical-instantiation builder for the §5 witness family.
//!
//! It depends on `co-cq`/`co-sim` for *data types only* (queries, trees,
//! databases) and never calls their search entry points, so a kernel bug
//! cannot vouch for itself.
//!
//! # Certificate kinds
//!
//! | kind | verdict | evidence checked |
//! |------|---------|------------------|
//! | [`Certificate::TriviallyEmpty`] | holds | left root is unsatisfiable, so ⟦T1⟧ = {} ⊑ anything |
//! | [`Certificate::Mapping`] | holds | φ is a Chandra–Merlin containment mapping for the flat CQ pair |
//! | [`Certificate::Canonical`] | holds | ⟦T1⟧ ⊑ ⟦T2⟧ on every member of the canonical instantiation family |
//! | [`Certificate::Counterexample`] | refuted | ⟦T1⟧ ⋢ ⟦T2⟧ on the carried database |
//!
//! `Canonical` deliberately carries **no witness payload**: the checker
//! derives the canonical family itself from the left tree, so a poisoned
//! certificate cannot smuggle in vacuous witness databases. The
//! completeness of that family (the paper's canonical-instantiation
//! argument, validated differentially in `co-sim`) is the one theorem
//! this crate trusts; kernel *code* is not trusted.
//!
//! On the §4 no-empty-sets path ([`CertPath::NoEmpty`]) the verdict is
//! qualified by the hypothesis that neither query ever produces an empty
//! set, so the checker skips family members that do produce one and
//! rejects counterexamples that rely on one.
//!
//! # Wire format
//!
//! Certificates serialize to a compact line-oriented block that embeds in
//! protocol replies and snapshot records:
//!
//! ```text
//! COCERT1 <kind> verdict=<holds|refuted> path=<flat|noempty|full>
//! M <var> <term>        mapping entry (kind=mapping)
//! P <u32> | P -         refuted emptiness pattern (kind=counterexample)
//! F <rel> <atom>...     counterexample fact (kind=counterexample)
//! COCERTEND
//! ```
//!
//! Atom tokens: `i<int>`, `s<hex-utf8>`, or `@<k>` for frozen/fresh
//! constants (canonically renumbered by first occurrence, re-minted with
//! [`Atom::fresh`] on parse — frozen constants are only meaningful up to
//! isomorphism). Variables are `v<hex-utf8-of-name>`, and mapping
//! certificates name them in the *canonical positional* namespace of
//! [`canonical_renaming`] (`p0`, `p1`, …) — never the producer's private
//! flattening gensyms, which an independent checker's own trees would not
//! share. The terminator is `COCERTEND`, deliberately distinct from the
//! serving protocol's `END` so framed replies never truncate a
//! certificate.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use co_cq::{ConjunctiveQuery, Database, QueryAtom, RelName, Term, Var};
use co_object::{Atom, Value};
use co_sim::tree::Template;
use co_sim::{QueryTree, TreeNode};

pub mod union;

pub use union::{UnionCert, UNION_WIRE_END, UNION_WIRE_MAGIC};

/// Recursion ceiling for the naive evaluator and value comparison — far
/// above any legitimate query tree (parsers cap nesting well below this)
/// but keeps adversarial inputs from overflowing the stack.
const MAX_DEPTH: usize = 256;

/// Which decision path produced the verdict; determines which certificate
/// kinds are admissible and how the no-empty-sets hypothesis is applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertPath {
    /// Both queries are flat relations — classical Chandra–Merlin.
    Flat,
    /// §4 no-empty-sets fast path; the verdict is hypothesis-qualified.
    NoEmpty,
    /// Full §5 procedure with the 2^m emptiness case split.
    Full,
}

impl CertPath {
    fn wire(self) -> &'static str {
        match self {
            CertPath::Flat => "flat",
            CertPath::NoEmpty => "noempty",
            CertPath::Full => "full",
        }
    }

    fn from_wire(s: &str) -> Option<CertPath> {
        match s {
            "flat" => Some(CertPath::Flat),
            "noempty" => Some(CertPath::NoEmpty),
            "full" => Some(CertPath::Full),
            _ => None,
        }
    }
}

impl fmt::Display for CertPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire())
    }
}

/// The evidence component of a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The left query is unsatisfiable: its answer is always the empty
    /// set, which is Hoare-below everything.
    TriviallyEmpty,
    /// A Chandra–Merlin containment mapping φ from the right flat query's
    /// variables into the left's terms (flat path only).
    Mapping(HashMap<Var, Term>),
    /// Positive nested verdict: containment holds on every member of the
    /// canonical instantiation family, which the checker derives itself
    /// from the left tree (no payload, so it cannot be poisoned).
    Canonical,
    /// Negative verdict: a concrete database refuting the containment.
    Counterexample {
        /// The refuting database (frozen canonical instantiation).
        db: Database,
        /// Root-level emptiness pattern whose covering check failed, when
        /// the refutation came from the 2^m case split. Advisory — the
        /// checked component is the database.
        pattern: Option<u32>,
    },
}

impl Certificate {
    fn kind(&self) -> &'static str {
        match self {
            Certificate::TriviallyEmpty => "trivial",
            Certificate::Mapping(_) => "mapping",
            Certificate::Canonical => "canonical",
            Certificate::Counterexample { .. } => "counterexample",
        }
    }
}

/// A complete certificate: the claimed verdict, the decision path it was
/// produced on, and the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cert {
    /// Claimed verdict: `true` = contained, `false` = refuted.
    pub holds: bool,
    /// Decision path the verdict was produced on.
    pub path: CertPath,
    /// The evidence.
    pub kind: Certificate,
}

/// Why a certificate was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The wire form is malformed (truncated, garbled, unknown tokens).
    Parse(String),
    /// The wire form is well-formed but the evidence does not support the
    /// claimed verdict.
    Check(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Parse(m) => write!(f, "certificate parse error: {m}"),
            CertError::Check(m) => write!(f, "certificate check failed: {m}"),
        }
    }
}

impl std::error::Error for CertError {}

pub(crate) fn check_err<T>(msg: impl Into<String>) -> Result<T, CertError> {
    Err(CertError::Check(msg.into()))
}

pub(crate) fn parse_err<T>(msg: impl Into<String>) -> Result<T, CertError> {
    Err(CertError::Parse(msg.into()))
}

// ---------------------------------------------------------------------------
// Wire serialization
// ---------------------------------------------------------------------------

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()).collect()
}

fn atom_token(a: Atom, fresh_ids: &mut HashMap<Atom, usize>) -> String {
    if a.is_fresh() {
        let next = fresh_ids.len();
        let k = *fresh_ids.entry(a).or_insert(next);
        return format!("@{k}");
    }
    if let Some(i) = a.as_int() {
        return format!("i{i}");
    }
    let s = a.as_str().expect("interned atoms are ints or strings");
    format!("s{}", to_hex(s.as_bytes()))
}

fn parse_atom_token(tok: &str, fresh: &mut HashMap<u64, Atom>) -> Result<Atom, CertError> {
    if let Some(rest) = tok.strip_prefix('i') {
        let i: i64 = rest.parse().map_err(|_| CertError::Parse(format!("bad int atom `{tok}`")))?;
        return Ok(Atom::int(i));
    }
    if let Some(rest) = tok.strip_prefix('s') {
        let bytes =
            from_hex(rest).ok_or_else(|| CertError::Parse(format!("bad hex atom `{tok}`")))?;
        let s = String::from_utf8(bytes)
            .map_err(|_| CertError::Parse(format!("non-utf8 atom `{tok}`")))?;
        return Ok(Atom::str(&s));
    }
    if let Some(rest) = tok.strip_prefix('@') {
        let k: u64 =
            rest.parse().map_err(|_| CertError::Parse(format!("bad fresh atom `{tok}`")))?;
        return Ok(*fresh.entry(k).or_insert_with(Atom::fresh));
    }
    parse_err(format!("unknown atom token `{tok}`"))
}

fn var_token(v: Var) -> String {
    format!("v{}", to_hex(v.name().as_bytes()))
}

fn parse_var_token(tok: &str) -> Result<Var, CertError> {
    let Some(rest) = tok.strip_prefix('v') else {
        return parse_err(format!("expected variable token, got `{tok}`"));
    };
    let bytes = from_hex(rest).ok_or_else(|| CertError::Parse(format!("bad hex var `{tok}`")))?;
    let name =
        String::from_utf8(bytes).map_err(|_| CertError::Parse(format!("non-utf8 var `{tok}`")))?;
    Ok(Var::new(&name))
}

fn term_token(t: &Term, fresh_ids: &mut HashMap<Atom, usize>) -> String {
    match t {
        Term::Var(v) => var_token(*v),
        Term::Const(c) => atom_token(*c, fresh_ids),
    }
}

fn parse_term_token(tok: &str, fresh: &mut HashMap<u64, Atom>) -> Result<Term, CertError> {
    if tok.starts_with('v') {
        return Ok(Term::Var(parse_var_token(tok)?));
    }
    Ok(Term::Const(parse_atom_token(tok, fresh)?))
}

fn rel_token(r: RelName) -> String {
    let name = r.name();
    if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        name
    } else {
        format!("#{}", to_hex(name.as_bytes()))
    }
}

fn parse_rel_token(tok: &str) -> Result<RelName, CertError> {
    if let Some(rest) = tok.strip_prefix('#') {
        let bytes =
            from_hex(rest).ok_or_else(|| CertError::Parse(format!("bad hex relation `{tok}`")))?;
        let name = String::from_utf8(bytes)
            .map_err(|_| CertError::Parse(format!("non-utf8 relation `{tok}`")))?;
        return Ok(RelName::new(&name));
    }
    if tok.is_empty() || !tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return parse_err(format!("bad relation token `{tok}`"));
    }
    Ok(RelName::new(tok))
}

/// First line of every wire certificate.
pub const WIRE_MAGIC: &str = "COCERT1";
/// Last line of every wire certificate. Distinct from the serving
/// protocol's `END` so reply framing never truncates a certificate block.
pub const WIRE_END: &str = "COCERTEND";

impl Cert {
    /// Serializes to the line-oriented wire block (trailing newline
    /// included).
    pub fn to_wire(&self) -> String {
        let verdict = if self.holds { "holds" } else { "refuted" };
        let mut out =
            format!("{WIRE_MAGIC} {} verdict={verdict} path={}\n", self.kind.kind(), self.path);
        let mut fresh_ids: HashMap<Atom, usize> = HashMap::new();
        match &self.kind {
            Certificate::TriviallyEmpty | Certificate::Canonical => {}
            Certificate::Mapping(map) => {
                let mut entries: Vec<(&Var, &Term)> = map.iter().collect();
                entries.sort_by_key(|(v, _)| v.name());
                for (v, t) in entries {
                    out.push_str(&format!(
                        "M {} {}\n",
                        var_token(*v),
                        term_token(t, &mut fresh_ids)
                    ));
                }
            }
            Certificate::Counterexample { db, pattern } => {
                match pattern {
                    Some(p) => out.push_str(&format!("P {p}\n")),
                    None => out.push_str("P -\n"),
                }
                for (rel, relation) in db.iter() {
                    for tuple in relation.iter_sorted() {
                        out.push_str(&format!("F {}", rel_token(*rel)));
                        for &a in tuple {
                            out.push(' ');
                            out.push_str(&atom_token(a, &mut fresh_ids));
                        }
                        out.push('\n');
                    }
                }
            }
        }
        out.push_str(WIRE_END);
        out.push('\n');
        out
    }

    /// Parses one wire block; the whole input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(text: &str) -> Result<Cert, CertError> {
        let (cert, rest) = Cert::parse_prefix(text)?;
        if !rest.trim().is_empty() {
            return parse_err("trailing data after certificate");
        }
        Ok(cert)
    }

    /// Parses one wire block from the front of `text`, returning the
    /// certificate and the unconsumed remainder (used for `EQUIV` replies,
    /// which concatenate two blocks).
    pub fn parse_prefix(text: &str) -> Result<(Cert, &str), CertError> {
        let mut rest = text;
        let header = take_line(&mut rest).ok_or(CertError::Parse("empty input".into()))?;
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some(WIRE_MAGIC) {
            return parse_err(format!("missing {WIRE_MAGIC} header"));
        }
        let kind = fields.next().ok_or(CertError::Parse("missing certificate kind".into()))?;
        let holds = match fields.next() {
            Some("verdict=holds") => true,
            Some("verdict=refuted") => false,
            other => return parse_err(format!("bad verdict field `{}`", other.unwrap_or(""))),
        };
        let path = fields
            .next()
            .and_then(|f| f.strip_prefix("path="))
            .and_then(CertPath::from_wire)
            .ok_or(CertError::Parse("bad path field".into()))?;
        if fields.next().is_some() {
            return parse_err("trailing header fields");
        }

        let mut mapping: HashMap<Var, Term> = HashMap::new();
        let mut pattern: Option<Option<u32>> = None;
        let mut db = Database::new();
        let mut saw_fact = false;
        let mut fresh: HashMap<u64, Atom> = HashMap::new();
        let mut terminated = false;
        while let Some(line) = take_line(&mut rest) {
            let line = line.trim_end();
            if line == WIRE_END {
                terminated = true;
                break;
            }
            let mut toks = line.split_ascii_whitespace();
            match toks.next() {
                Some("M") => {
                    let v = parse_var_token(
                        toks.next().ok_or(CertError::Parse("M line missing variable".into()))?,
                    )?;
                    let t = parse_term_token(
                        toks.next().ok_or(CertError::Parse("M line missing term".into()))?,
                        &mut fresh,
                    )?;
                    if toks.next().is_some() {
                        return parse_err("trailing tokens on M line");
                    }
                    if mapping.insert(v, t).is_some() {
                        return parse_err(format!("duplicate mapping entry for `{v}`"));
                    }
                }
                Some("P") => {
                    if pattern.is_some() {
                        return parse_err("duplicate P line");
                    }
                    let tok = toks.next().ok_or(CertError::Parse("P line missing value".into()))?;
                    pattern = Some(if tok == "-" {
                        None
                    } else {
                        Some(
                            tok.parse::<u32>()
                                .map_err(|_| CertError::Parse(format!("bad pattern `{tok}`")))?,
                        )
                    });
                    if toks.next().is_some() {
                        return parse_err("trailing tokens on P line");
                    }
                }
                Some("F") => {
                    let rel = parse_rel_token(
                        toks.next().ok_or(CertError::Parse("F line missing relation".into()))?,
                    )?;
                    let tuple: Vec<Atom> =
                        toks.map(|t| parse_atom_token(t, &mut fresh)).collect::<Result<_, _>>()?;
                    db.insert(rel, tuple);
                    saw_fact = true;
                }
                Some(other) => return parse_err(format!("unknown line tag `{other}`")),
                None => {} // blank line
            }
        }
        if !terminated {
            return parse_err(format!("truncated certificate (missing {WIRE_END})"));
        }

        let kind = match kind {
            "trivial" | "canonical" => {
                if !mapping.is_empty() || pattern.is_some() || saw_fact {
                    return parse_err(format!("unexpected body lines for `{kind}` certificate"));
                }
                if kind == "trivial" {
                    Certificate::TriviallyEmpty
                } else {
                    Certificate::Canonical
                }
            }
            "mapping" => {
                if pattern.is_some() || saw_fact {
                    return parse_err("unexpected P/F lines for `mapping` certificate");
                }
                Certificate::Mapping(mapping)
            }
            "counterexample" => {
                if !mapping.is_empty() {
                    return parse_err("unexpected M lines for `counterexample` certificate");
                }
                Certificate::Counterexample { db, pattern: pattern.flatten() }
            }
            other => return parse_err(format!("unknown certificate kind `{other}`")),
        };
        Ok((Cert { holds, path, kind }, rest))
    }

    /// Validates this certificate against the two query trees. `expect_*`
    /// are the verdict and decision path claimed *outside* the certificate
    /// (by the engine, a cache entry, or a server reply); the certificate
    /// must agree with them and its evidence must support them.
    pub fn check_against(
        &self,
        t1: &QueryTree,
        t2: &QueryTree,
        expect_holds: bool,
        expect_path: CertPath,
    ) -> Result<(), CertError> {
        if self.holds != expect_holds {
            return check_err(format!(
                "certificate claims verdict `{}` but the carried verdict is `{}`",
                if self.holds { "holds" } else { "refuted" },
                if expect_holds { "holds" } else { "refuted" },
            ));
        }
        if self.path != expect_path {
            return check_err(format!(
                "certificate claims path `{}` but the queries decide on path `{expect_path}`",
                self.path,
            ));
        }
        match &self.kind {
            Certificate::TriviallyEmpty => {
                if !self.holds {
                    return check_err("trivially-empty certificate for a refuted verdict");
                }
                if !t1.root.query.unsatisfiable {
                    return check_err("left query is satisfiable; not trivially empty");
                }
                Ok(())
            }
            Certificate::Mapping(map) => {
                if !self.holds {
                    return check_err("mapping certificate for a refuted verdict");
                }
                if self.path != CertPath::Flat {
                    return check_err("mapping certificates are only valid on the flat path");
                }
                let (q1, q2) = flat_pair(t1, t2)?;
                // Certificates name variables positionally (see
                // [`canonical_renaming`]); bring the checker's own pair
                // into the same namespace before applying φ.
                let q1 = rename_cq(&q1, &canonical_renaming(&q1));
                let q2 = rename_cq(&q2, &canonical_renaming(&q2));
                check_mapping(map, &q1, &q2)
            }
            Certificate::Canonical => {
                if !self.holds {
                    return check_err("canonical certificate for a refuted verdict");
                }
                if self.path == CertPath::Flat {
                    return check_err("canonical certificates are not used on the flat path");
                }
                check_canonical_family(t1, t2, self.path)
            }
            Certificate::Counterexample { db, .. } => {
                if self.holds {
                    return check_err("counterexample certificate for a positive verdict");
                }
                check_counterexample(t1, t2, db, self.path)
            }
        }
    }
}

pub(crate) fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    match rest.find('\n') {
        Some(i) => {
            let line = &rest[..i];
            *rest = &rest[i + 1..];
            Some(line)
        }
        None => {
            let line = *rest;
            *rest = "";
            Some(line)
        }
    }
}

// ---------------------------------------------------------------------------
// Naive evaluation (the checker's own, kernel-free)
// ---------------------------------------------------------------------------

/// Enumerates all satisfying assignments of `body` over `db` extending
/// `asn`, by plain backtracking with linear relation scans.
fn enumerate(
    body: &[QueryAtom],
    db: &Database,
    asn: &mut HashMap<Var, Atom>,
    f: &mut dyn FnMut(&HashMap<Var, Atom>),
) {
    let Some(atom) = body.first() else {
        f(asn);
        return;
    };
    let rest = &body[1..];
    let Some(rel) = db.relation_ref(atom.rel) else {
        return;
    };
    for tuple in rel.iter_sorted() {
        if tuple.len() != atom.args.len() {
            continue;
        }
        if let Some(bound) = try_bind(atom, tuple, asn) {
            enumerate(rest, db, asn, f);
            for v in bound {
                asn.remove(&v);
            }
        }
    }
}

/// Extends `asn` to match `atom` against `tuple`; returns the variables
/// newly bound, or `None` (with `asn` restored) on mismatch.
fn try_bind(atom: &QueryAtom, tuple: &[Atom], asn: &mut HashMap<Var, Atom>) -> Option<Vec<Var>> {
    let mut bound = Vec::new();
    for (t, &a) in atom.args.iter().zip(tuple.iter()) {
        let ok = match t {
            Term::Const(c) => *c == a,
            Term::Var(v) => match asn.get(v) {
                Some(&prev) => prev == a,
                None => {
                    asn.insert(*v, a);
                    bound.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in bound {
                asn.remove(&v);
            }
            return None;
        }
    }
    Some(bound)
}

fn naive_term(t: &Term, asn: &HashMap<Var, Atom>) -> Result<Atom, CertError> {
    match t {
        Term::Const(c) => Ok(*c),
        Term::Var(v) => asn
            .get(v)
            .copied()
            .ok_or_else(|| CertError::Check(format!("unsafe head variable `{v}`"))),
    }
}

/// Binds formal index terms to actual atoms (naive twin of the kernel's
/// `bind_index`); `None` means the set is empty at these arguments.
fn naive_bind_index(index: &[Term], args: &[Atom]) -> Option<HashMap<Var, Atom>> {
    if index.len() != args.len() {
        return None;
    }
    let mut fixed = HashMap::new();
    for (t, &a) in index.iter().zip(args.iter()) {
        match t {
            Term::Const(c) => {
                if *c != a {
                    return None;
                }
            }
            Term::Var(v) => match fixed.insert(*v, a) {
                Some(prev) if prev != a => return None,
                _ => {}
            },
        }
    }
    Some(fixed)
}

/// Naive evaluation of a query tree: the checker's own twin of
/// `QueryTree::evaluate`, using [`enumerate`] instead of the hom kernel.
fn naive_eval(t: &QueryTree, db: &Database) -> Result<Value, CertError> {
    naive_eval_node(&t.root, db, &[], MAX_DEPTH)
}

fn naive_eval_node(
    node: &TreeNode,
    db: &Database,
    args: &[Atom],
    depth: usize,
) -> Result<Value, CertError> {
    if depth == 0 {
        return check_err("query tree exceeds the checker depth ceiling");
    }
    let Some(mut fixed) = naive_bind_index(&node.query.index, args) else {
        return Ok(Value::empty_set());
    };
    if node.query.unsatisfiable {
        return Ok(Value::empty_set());
    }
    let mut assignments: Vec<HashMap<Var, Atom>> = Vec::new();
    enumerate(&node.query.body, db, &mut fixed, &mut |a| assignments.push(a.clone()));
    let mut elems = Vec::with_capacity(assignments.len());
    for asn in &assignments {
        elems.push(naive_instantiate(node, &node.template, db, asn, depth)?);
    }
    Ok(Value::set(elems))
}

fn naive_instantiate(
    node: &TreeNode,
    template: &Template,
    db: &Database,
    asn: &HashMap<Var, Atom>,
    depth: usize,
) -> Result<Value, CertError> {
    match template {
        Template::AtomCol(i) => {
            let t = node
                .query
                .value
                .get(*i)
                .ok_or_else(|| CertError::Check(format!("template column {i} out of range")))?;
            Ok(Value::Atom(naive_term(t, asn)?))
        }
        Template::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (f, sub) in fields {
                out.push((*f, naive_instantiate(node, sub, db, asn, depth)?));
            }
            Value::record(out).map_err(|_| CertError::Check("duplicate record label".into()))
        }
        Template::Child(j) => {
            let child = node
                .children
                .get(*j)
                .ok_or_else(|| CertError::Check(format!("template child {j} out of range")))?;
            let mut child_args = Vec::with_capacity(child.link.len());
            for t in &child.link {
                child_args.push(naive_term(t, asn)?);
            }
            naive_eval_node(&child.node, db, &child_args, depth - 1)
        }
    }
}

/// The checker's own Hoare-order test (`a ⊑ b`): atoms by equality,
/// records pointwise, sets by ∀x∈a ∃y∈b.
fn naive_hoare_leq(a: &Value, b: &Value, depth: usize) -> Result<bool, CertError> {
    if depth == 0 {
        return check_err("value exceeds the checker depth ceiling");
    }
    Ok(match (a, b) {
        (Value::Atom(x), Value::Atom(y)) => x == y,
        (Value::Record(r1), Value::Record(r2)) => {
            if !r1.same_labels(r2) {
                false
            } else {
                for ((_, v1), (_, v2)) in r1.iter().zip(r2.iter()) {
                    if !naive_hoare_leq(v1, v2, depth - 1)? {
                        return Ok(false);
                    }
                }
                true
            }
        }
        (Value::Set(s1), Value::Set(s2)) => {
            for x in s1.iter() {
                let mut covered = false;
                for y in s2.iter() {
                    if naive_hoare_leq(x, y, depth - 1)? {
                        covered = true;
                        break;
                    }
                }
                if !covered {
                    return Ok(false);
                }
            }
            true
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Kind-specific checks
// ---------------------------------------------------------------------------

/// The checker's own template-matching walk: pairs of atomic columns of
/// two structurally identical flat templates, or an error.
fn flat_template_columns(t1: &Template, t2: &Template, out: &mut Vec<(usize, usize)>) -> bool {
    match (t1, t2) {
        (Template::AtomCol(i), Template::AtomCol(j)) => {
            out.push((*i, *j));
            true
        }
        (Template::Record(f1), Template::Record(f2)) => {
            f1.len() == f2.len()
                && f1
                    .iter()
                    .zip(f2.iter())
                    .all(|((l1, s1), (l2, s2))| l1 == l2 && flat_template_columns(s1, s2, out))
        }
        _ => false,
    }
}

/// Canonical positional renaming of one flat CQ's variables: `p0`, `p1`,
/// … in order of first occurrence across the head, then the body.
///
/// Mapping certificates are exchanged in these names. Flattening mints
/// its variables with a process-global gensym, so the producer's and an
/// independent checker's trees agree on *structure* but not on variable
/// *names* — a certificate that mentioned either side's private names
/// could never be re-checked across a process boundary (`coqlc cert
/// --addr`, snapshot import). Both sides rename positionally before
/// minting/checking, which is well-defined because flattening builds the
/// head and body deterministically from the same canonical query.
pub fn canonical_renaming(q: &ConjunctiveQuery) -> HashMap<Var, Var> {
    fn visit(t: &Term, map: &mut HashMap<Var, Var>) {
        if let Term::Var(v) = t {
            let next = map.len();
            map.entry(*v).or_insert_with(|| Var::new(&format!("p{next}")));
        }
    }
    let mut map = HashMap::new();
    for t in &q.head {
        visit(t, &mut map);
    }
    for atom in &q.body {
        for t in &atom.args {
            visit(t, &mut map);
        }
    }
    map
}

/// Applies a [`canonical_renaming`] to a flat CQ. Variables without an
/// entry are left untouched (a total renaming never leaves any).
pub fn rename_cq(q: &ConjunctiveQuery, map: &HashMap<Var, Var>) -> ConjunctiveQuery {
    let rename = |t: &Term| match t {
        Term::Var(v) => Term::Var(*map.get(v).unwrap_or(v)),
        Term::Const(_) => *t,
    };
    ConjunctiveQuery {
        head: q.head.iter().map(rename).collect(),
        body: q
            .body
            .iter()
            .map(|a| QueryAtom { rel: a.rel, args: a.args.iter().map(rename).collect() })
            .collect(),
        unsatisfiable: q.unsatisfiable,
    }
}

/// Builds the aligned flat CQ pair from two depth-1 trees (the checker's
/// own twin of `co_sim::flat_cq_pair`).
fn flat_pair(
    t1: &QueryTree,
    t2: &QueryTree,
) -> Result<(ConjunctiveQuery, ConjunctiveQuery), CertError> {
    if !t1.root.children.is_empty() || !t2.root.children.is_empty() {
        return check_err("queries are nested; flat-path certificate is inapplicable");
    }
    let mut cols = Vec::new();
    if !flat_template_columns(&t1.root.template, &t2.root.template, &mut cols) {
        return check_err("element templates do not match");
    }
    let get = |q: &co_sim::IndexedQuery, i: usize| -> Result<Term, CertError> {
        q.value
            .get(i)
            .copied()
            .ok_or_else(|| CertError::Check(format!("template column {i} out of range")))
    };
    let mut head1 = Vec::with_capacity(cols.len());
    let mut head2 = Vec::with_capacity(cols.len());
    for &(i, j) in &cols {
        head1.push(get(&t1.root.query, i)?);
        head2.push(get(&t2.root.query, j)?);
    }
    Ok((
        ConjunctiveQuery {
            head: head1,
            body: t1.root.query.body.clone(),
            unsatisfiable: t1.root.query.unsatisfiable,
        },
        ConjunctiveQuery {
            head: head2,
            body: t2.root.query.body.clone(),
            unsatisfiable: t2.root.query.unsatisfiable,
        },
    ))
}

fn apply_term(t: &Term, map: &HashMap<Var, Term>) -> Result<Term, CertError> {
    match t {
        Term::Const(_) => Ok(*t),
        Term::Var(v) => map
            .get(v)
            .copied()
            .ok_or_else(|| CertError::Check(format!("mapping is partial: `{v}` unmapped"))),
    }
}

/// Verifies φ as a Chandra–Merlin containment mapping witnessing
/// `q1 ⊑ q2`: φ maps q2's head to q1's head and every φ-image of a q2
/// body atom is literally a q1 body atom.
fn check_mapping(
    map: &HashMap<Var, Term>,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<(), CertError> {
    if q2.unsatisfiable {
        return check_err("right query is unsatisfiable; no mapping can witness containment");
    }
    if q1.head.len() != q2.head.len() {
        return check_err("head arity mismatch");
    }
    for (h2, h1) in q2.head.iter().zip(q1.head.iter()) {
        if apply_term(h2, map)? != *h1 {
            return check_err(format!("mapping does not carry head term `{h2}` to `{h1}`"));
        }
    }
    for atom in &q2.body {
        let mut image_args = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            image_args.push(apply_term(t, map)?);
        }
        let hit = q1.body.iter().any(|b| b.rel == atom.rel && b.args == image_args);
        if !hit {
            return check_err(format!(
                "mapped atom `{}({})` is not in the left body",
                atom.rel.name(),
                image_args.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", "),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Canonical instantiation family (the checker's own builder)
// ---------------------------------------------------------------------------

/// Freezes one element of `node` at `args` into `db` and recursively
/// freezes `copies` members of each child set (the checker's own twin of
/// the kernel's `instantiate_subtree`).
fn freeze_subtree(
    node: &TreeNode,
    args: &[Atom],
    copies: usize,
    assignment: &mut HashMap<Var, Atom>,
    db: &mut Database,
    depth: usize,
) -> Result<(), CertError> {
    if depth == 0 {
        return check_err("query tree exceeds the checker depth ceiling");
    }
    if node.query.unsatisfiable || naive_bind_index(&node.query.index, args).is_none() {
        return Ok(());
    }
    // Rename this copy's body apart (index variables pinned to `args`),
    // then freeze each atom, minting one fresh constant per new variable.
    let mut subst: HashMap<Var, Term> = HashMap::new();
    for (t, &a) in node.query.index.iter().zip(args.iter()) {
        if let Term::Var(v) = t {
            subst.insert(*v, Term::Const(a));
        }
    }
    for atom in &node.query.body {
        for t in &atom.args {
            if let Term::Var(v) = t {
                subst.entry(*v).or_insert_with(|| Term::Var(Var::fresh()));
            }
        }
    }
    let image = |t: &Term, assignment: &mut HashMap<Var, Atom>| -> Result<Atom, CertError> {
        let resolved = match t {
            Term::Const(_) => *t,
            Term::Var(v) => {
                *subst.get(v).ok_or_else(|| CertError::Check(format!("unsafe variable `{v}`")))?
            }
        };
        Ok(match resolved {
            Term::Const(c) => c,
            Term::Var(w) => *assignment.entry(w).or_insert_with(Atom::fresh),
        })
    };
    for atom in &node.query.body {
        let mut tuple = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            tuple.push(image(t, assignment)?);
        }
        db.insert(atom.rel, tuple);
    }
    for child in &node.children {
        let mut child_args = Vec::with_capacity(child.link.len());
        for t in &child.link {
            child_args.push(image(t, assignment)?);
        }
        for _ in 0..copies {
            freeze_subtree(&child.node, &child_args, copies, assignment, db, depth - 1)?;
        }
    }
    Ok(())
}

/// Root-copy and child-copy counts of the canonical instantiation family
/// the checker re-derives for `Canonical` certificates. Mirrors (and must
/// stay a superset of nothing less than) the kernel's counterexample
/// search family — the domain on which the §5 procedure's completeness is
/// validated.
pub const FAMILY_ROOT_COPIES: [usize; 2] = [1, 2];
/// See [`FAMILY_ROOT_COPIES`].
pub const FAMILY_CHILD_COPIES: [usize; 3] = [1, 0, 2];

/// Checks a positive nested verdict by evaluating both trees on every
/// member of the canonical instantiation family derived from `t1`. On the
/// no-empty-sets path, members whose evaluations produce empty sets fall
/// outside the hypothesis and are skipped.
fn check_canonical_family(t1: &QueryTree, t2: &QueryTree, path: CertPath) -> Result<(), CertError> {
    for &roots in &FAMILY_ROOT_COPIES {
        for &copies in &FAMILY_CHILD_COPIES {
            let mut db = Database::new();
            let mut assignment = HashMap::new();
            for _ in 0..roots {
                freeze_subtree(&t1.root, &[], copies, &mut assignment, &mut db, MAX_DEPTH)?;
            }
            let v1 = naive_eval(t1, &db)?;
            let v2 = naive_eval(t2, &db)?;
            if path == CertPath::NoEmpty && (v1.contains_empty_set() || v2.contains_empty_set()) {
                continue;
            }
            if !naive_hoare_leq(&v1, &v2, MAX_DEPTH)? {
                return check_err(format!(
                    "containment fails on canonical instantiation ({roots} root, {copies} child copies)",
                ));
            }
        }
    }
    Ok(())
}

/// Checks a negative verdict: the carried database must actually refute
/// `⟦t1⟧ ⊑ ⟦t2⟧`. On the no-empty-sets path a refutation involving empty
/// sets falls outside the hypothesis and is rejected.
fn check_counterexample(
    t1: &QueryTree,
    t2: &QueryTree,
    db: &Database,
    path: CertPath,
) -> Result<(), CertError> {
    let v1 = naive_eval(t1, db)?;
    let v2 = naive_eval(t2, db)?;
    if path == CertPath::NoEmpty && (v1.contains_empty_set() || v2.contains_empty_set()) {
        return check_err(
            "counterexample produces empty sets, outside the no-empty-sets hypothesis",
        );
    }
    if naive_hoare_leq(&v1, &v2, MAX_DEPTH)? {
        return check_err("database does not refute the containment");
    }
    Ok(())
}

/// Tree-building helpers shared between this module's tests and the
/// union-certificate tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use co_cq::parse_query;
    use co_sim::tree::grouped_tree;
    use co_sim::IndexedQuery;

    pub(crate) fn flat_tree(text: &str) -> QueryTree {
        let q = IndexedQuery::from_cq(&parse_query(text).unwrap(), 0);
        let m = q.value.len();
        let template = if m == 1 {
            Template::AtomCol(0)
        } else {
            Template::record(
                (0..m)
                    .map(|i| (co_object::Field::new(&format!("c{i}")), Template::AtomCol(i)))
                    .collect(),
            )
        };
        QueryTree { root: TreeNode { query: q, template, children: Vec::new() } }
    }

    pub(crate) fn nested_tree(text: &str, index_arity: usize) -> QueryTree {
        grouped_tree(&IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{flat_tree, nested_tree};

    fn roundtrip(cert: &Cert) -> Cert {
        Cert::parse(&cert.to_wire()).expect("roundtrip parses")
    }

    #[test]
    fn trivial_roundtrip_and_check() {
        let t1 = flat_tree("q(X) :- R(X, X), R(X, Y), X = 1, X = 2.");
        let t2 = flat_tree("q(X) :- R(X, Y).");
        assert!(t1.root.query.unsatisfiable, "equality elimination marks unsat");
        let cert = Cert { holds: true, path: CertPath::Flat, kind: Certificate::TriviallyEmpty };
        let back = roundtrip(&cert);
        assert_eq!(back, cert);
        back.check_against(&t1, &t2, true, CertPath::Flat).unwrap();
        // Against a satisfiable left query it must fail.
        let sat = flat_tree("q(X) :- R(X, Y).");
        assert!(matches!(
            back.check_against(&sat, &t2, true, CertPath::Flat),
            Err(CertError::Check(_))
        ));
    }

    #[test]
    fn mapping_accepts_valid_and_rejects_corrupt() {
        // q1(X) :- R(X,Y), S(Y)  ⊑  q2(X) :- R(X,Y): map q2's {X→X, Y→Y}.
        // Mappings are exchanged in canonical positional names (see
        // [`canonical_renaming`]): both queries rename X→p0, Y→p1.
        let t1 = flat_tree("q(X) :- R(X, Y), S(Y).");
        let t2 = flat_tree("q(X) :- R(X, Y).");
        let x = Var::new("p0");
        let y = Var::new("p1");
        let good: HashMap<Var, Term> = [(x, Term::Var(x)), (y, Term::Var(y))].into_iter().collect();
        let cert =
            Cert { holds: true, path: CertPath::Flat, kind: Certificate::Mapping(good.clone()) };
        roundtrip(&cert).check_against(&t1, &t2, true, CertPath::Flat).unwrap();

        // Corrupt 1: head not carried (X ↦ Y).
        let bad_head: HashMap<Var, Term> =
            [(x, Term::Var(y)), (y, Term::Var(y))].into_iter().collect();
        let cert = Cert { holds: true, path: CertPath::Flat, kind: Certificate::Mapping(bad_head) };
        assert!(matches!(
            cert.check_against(&t1, &t2, true, CertPath::Flat),
            Err(CertError::Check(_))
        ));

        // Corrupt 2: not a homomorphism (Y ↦ X; R(X,X) not in the body).
        let bad_hom: HashMap<Var, Term> =
            [(x, Term::Var(x)), (y, Term::Var(x))].into_iter().collect();
        let cert = Cert { holds: true, path: CertPath::Flat, kind: Certificate::Mapping(bad_hom) };
        assert!(matches!(
            cert.check_against(&t1, &t2, true, CertPath::Flat),
            Err(CertError::Check(_))
        ));

        // Corrupt 3: partial mapping.
        let partial: HashMap<Var, Term> = [(x, Term::Var(x))].into_iter().collect();
        let cert = Cert { holds: true, path: CertPath::Flat, kind: Certificate::Mapping(partial) };
        assert!(matches!(
            cert.check_against(&t1, &t2, true, CertPath::Flat),
            Err(CertError::Check(_))
        ));
    }

    #[test]
    fn canonical_accepts_containment_and_rejects_non_containment() {
        let t1 = nested_tree("q(X, Y) :- R(X, Y), S(Y).", 1);
        let t2 = nested_tree("q(X, Y) :- R(X, Y).", 1);
        let cert = Cert { holds: true, path: CertPath::Full, kind: Certificate::Canonical };
        roundtrip(&cert).check_against(&t1, &t2, true, CertPath::Full).unwrap();
        // The reverse containment does not hold, and a canonical family
        // member refutes it — the checker must catch the forged positive.
        assert!(matches!(
            cert.check_against(&t2, &t1, true, CertPath::Full),
            Err(CertError::Check(_))
        ));
    }

    #[test]
    fn counterexample_accepts_real_refutation_and_rejects_fake() {
        let t1 = nested_tree("q(X, Y) :- R(X, Y).", 1);
        let t2 = nested_tree("q(X, Y) :- R(X, Y), S(Y).", 1);
        let db = co_sim::search_tree_counterexample(&t1, &t2).expect("refutation exists");
        let cert = Cert {
            holds: false,
            path: CertPath::Full,
            kind: Certificate::Counterexample { db, pattern: Some(0) },
        };
        roundtrip(&cert).check_against(&t1, &t2, false, CertPath::Full).unwrap();

        // A database that does NOT refute (empty database) must be rejected.
        let cert = Cert {
            holds: false,
            path: CertPath::Full,
            kind: Certificate::Counterexample { db: Database::new(), pattern: None },
        };
        assert!(matches!(
            cert.check_against(&t1, &t2, false, CertPath::Full),
            Err(CertError::Check(_))
        ));
    }

    #[test]
    fn verdict_and_path_claims_must_match() {
        let t1 = flat_tree("q(X) :- R(X, Y), S(Y).");
        let t2 = flat_tree("q(X) :- R(X, Y).");
        let cert = Cert { holds: true, path: CertPath::Flat, kind: Certificate::Canonical };
        // Wrong expected verdict.
        assert!(matches!(
            cert.check_against(&t1, &t2, false, CertPath::Flat),
            Err(CertError::Check(_))
        ));
        // Wrong expected path.
        assert!(matches!(
            cert.check_against(&t1, &t2, true, CertPath::Full),
            Err(CertError::Check(_))
        ));
    }

    #[test]
    fn wire_rejects_truncation_and_garbage() {
        let t1 = nested_tree("q(X, Y) :- R(X, Y).", 1);
        let t2 = nested_tree("q(X, Y) :- R(X, Y), S(Y).", 1);
        let db = co_sim::search_tree_counterexample(&t1, &t2).unwrap();
        let cert = Cert {
            holds: false,
            path: CertPath::Full,
            kind: Certificate::Counterexample { db, pattern: None },
        };
        let wire = cert.to_wire();

        // Truncation: drop the terminator.
        let cut = wire.replace(WIRE_END, "");
        assert!(matches!(Cert::parse(&cut), Err(CertError::Parse(_))));

        // Garbled header.
        assert!(matches!(Cert::parse("COCERTX nope\nCOCERTEND\n"), Err(CertError::Parse(_))));
        assert!(matches!(Cert::parse(""), Err(CertError::Parse(_))));

        // Unknown line tag.
        let garbled = wire.replacen("F ", "Z ", 1);
        assert!(matches!(Cert::parse(&garbled), Err(CertError::Parse(_))));

        // Kind/body mismatch: mapping lines on a canonical cert.
        let bad = "COCERT1 canonical verdict=holds path=full\nM v58 v58\nCOCERTEND\n";
        assert!(matches!(Cert::parse(bad), Err(CertError::Parse(_))));
    }

    #[test]
    fn constants_spelling_fresh_atoms_round_trip_as_strings() {
        // A user constant that looks like a fresh atom's display text is
        // still an interned string: it travels as `s<hex>`, and only real
        // fresh atoms become `@k` tokens.
        let spelled = Atom::str("\u{27e8}a\u{27e9}");
        let mut fresh_ids = HashMap::new();
        let token = atom_token(spelled, &mut fresh_ids);
        assert_eq!(token, format!("s{}", to_hex("\u{27e8}a\u{27e9}".as_bytes())));
        assert!(fresh_ids.is_empty());
        assert_eq!(atom_token(Atom::fresh(), &mut fresh_ids), "@0");
        assert_eq!(atom_token(Atom::str("abc"), &mut fresh_ids), "s616263");
        let back = parse_atom_token(&token, &mut HashMap::new()).unwrap();
        assert_eq!(back, spelled);
        assert!(!back.is_fresh());
    }

    #[test]
    fn counterexample_survives_the_wire_with_constants_intact() {
        // Refutation hinges on the rigid constant 7: q1 selects R(_, 7),
        // q2 additionally requires S(7).
        let t1 = nested_tree("q(X, Y) :- R(X, Y), Y = 7.", 1);
        let t2 = nested_tree("q(X, Y) :- R(X, Y), S(Y), Y = 7.", 1);
        let db = co_sim::search_tree_counterexample(&t1, &t2).expect("refutation exists");
        let cert = Cert {
            holds: false,
            path: CertPath::Full,
            kind: Certificate::Counterexample { db, pattern: None },
        };
        let back = roundtrip(&cert);
        back.check_against(&t1, &t2, false, CertPath::Full).unwrap();
    }

    #[test]
    fn parse_prefix_splits_concatenated_blocks() {
        let a = Cert { holds: true, path: CertPath::Full, kind: Certificate::Canonical };
        let b = Cert {
            holds: false,
            path: CertPath::NoEmpty,
            kind: Certificate::Counterexample { db: Database::new(), pattern: Some(3) },
        };
        let joined = format!("{}{}", a.to_wire(), b.to_wire());
        let (first, rest) = Cert::parse_prefix(&joined).unwrap();
        assert_eq!(first, a);
        let second = Cert::parse(rest).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn noempty_path_rejects_refutations_outside_the_hypothesis() {
        // On the no-empty-sets path, a counterexample whose evaluations
        // contain an empty set must be rejected: the verdict it attacks is
        // only claimed under the hypothesis that none appear.
        let t1 = nested_tree("q(X, Y) :- R(X, Y).", 1);
        let t2 = nested_tree("q(X, Y) :- R(X, Y), S(Y).", 1);
        let db = co_sim::search_tree_counterexample(&t1, &t2).unwrap();
        let v2 = t2.evaluate(&db);
        if v2.contains_empty_set() {
            let cert = Cert {
                holds: false,
                path: CertPath::NoEmpty,
                kind: Certificate::Counterexample { db, pattern: None },
            };
            assert!(matches!(
                cert.check_against(&t1, &t2, false, CertPath::NoEmpty),
                Err(CertError::Check(_))
            ));
        }
    }
}

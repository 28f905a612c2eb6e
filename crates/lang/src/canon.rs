//! Canonical serialization of comprehension normal forms.
//!
//! Two COQL queries that differ only in bound-variable names, in the order
//! of independent `from` bindings, or in the order (or duplication) of
//! `where` conjuncts have the same meaning — and, after [`crate::normalize()`], the
//! same normal form up to α-renaming and generator/condition permutation.
//! [`canonical_query`] maps a [`Comprehension`] to a string that is
//! invariant under exactly those presentational differences, so it can be
//! hashed into a cache key: syntactically distinct but trivially-equivalent
//! requests then share one memo entry (the `co-service` crate's
//! fingerprints are hashes of this string).
//!
//! The walk is purely syntactic: equal canonical strings imply equivalent
//! queries, but equivalent queries may canonicalize differently (the full
//! equivalence problem is what the decision procedures are for).
//!
//! ## How generators are ordered
//!
//! Generator variables are the only binding construct in normal form, so
//! canonicalization reduces to choosing a canonical *order* for each
//! comprehension's generators, then numbering all generators `$0, $1, …`
//! in that order. The order is chosen by **signature refinement** (a
//! Weisfeiler–Leman-style color refinement on the query's join graph):
//! each generator starts with its relation name as its signature, and each
//! round folds in the multiset of constraints it participates in —
//! condition occurrences (with the other side's current signature) and
//! head occurrences (with their structural path). Generators left tied
//! after refinement are either genuinely symmetric (any order yields the
//! same string) or pathological self-join twins, where we fall back to
//! source order and may miss a cache hit — never produce a false merge,
//! since the serialization always records the full structure.
//!
//! ## How the text is written
//!
//! Every request is keyed by this text, and on a cache hit nothing else
//! runs, so the walk is written to be cheap: one output buffer, the scope
//! as a stack of `(variable, canonical number)` pairs, names borrowed from
//! the interners, each constant's signature hash taken once per ordered
//! comprehension rather than once per refinement round, and conditions
//! rendered into one reused arena and sorted as slices of it. The bytes
//! are a persisted format (fingerprints, snapshots, routing), pinned by
//! `tests/canon_golden.rs`.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;

use co_cq::{RelName, Var};
use co_object::Field;

use crate::normalize::{AtomTerm, Comprehension, NormalValue};

/// Canonical serialization of a normal form: α-renaming of generators,
/// reordering of independent generators, and reordering or duplication of
/// conditions all map to the same string. See the module docs for scope.
pub fn canonical_query(c: &Comprehension) -> String {
    let mut walk = Walk { out: String::with_capacity(128), ..Walk::default() };
    walk.comp(c);
    walk.out
}

/// The serializer's state. Every buffer is reused by each comprehension
/// in turn: a comprehension is done with them before its head recurses.
#[derive(Default)]
struct Walk {
    /// The canonical text written so far.
    out: String,
    /// Generators in scope, innermost last, with their canonical numbers:
    /// a variable reads `$n` for the topmost entry naming it.
    scope: Vec<(Var, usize)>,
    /// The next canonical number.
    counter: usize,
    /// The rendered conditions of the comprehension being written.
    arena: String,
    /// One condition's text within `arena` each.
    spans: Vec<Range<usize>>,
    /// Scratch text: a condition's two sides, or a hashed name.
    scratch: String,
    /// Signature refinement of the comprehension being written.
    sigs: Signatures,
}

impl Walk {
    fn comp(&mut self, c: &Comprehension) {
        if c.unsat {
            // A statically-empty comprehension denotes ∅ whatever its body;
            // only the element shape (result type skeleton) matters.
            self.out.push_str("empty");
            write_shape(&c.head, &mut self.out);
            return;
        }
        self.sigs.order_generators(c, &self.scope, &mut self.scratch);
        let outer = self.scope.len();
        self.out.push_str("set{g=[");
        for (k, &i) in self.sigs.order.iter().enumerate() {
            let (v, r) = c.gens[i];
            if k > 0 {
                self.out.push(',');
            }
            write_number(self.counter, &mut self.out);
            self.out.push(':');
            self.out.push_str(&rel_text(r));
            self.scope.push((v, self.counter));
            self.counter += 1;
        }
        self.out.push_str("];c=[");
        self.conds(c);
        self.out.push_str("];h=");
        self.value(&c.head);
        self.out.push('}');
        self.scope.truncate(outer);
    }

    /// Writes the comprehension's conditions, each as `lo=hi` with its
    /// sides in text order, sorted and deduplicated.
    fn conds(&mut self, c: &Comprehension) {
        self.arena.clear();
        self.spans.clear();
        for (a, b) in &c.conds {
            self.scratch.clear();
            write_term(a, &self.scope, &mut self.scratch);
            let split = self.scratch.len();
            write_term(b, &self.scope, &mut self.scratch);
            let (sa, sb) = self.scratch.split_at(split);
            let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
            let start = self.arena.len();
            self.arena.push_str(lo);
            self.arena.push('=');
            self.arena.push_str(hi);
            self.spans.push(start..self.arena.len());
        }
        let arena = &self.arena;
        self.spans.sort_unstable_by(|x, y| arena[x.clone()].cmp(&arena[y.clone()]));
        self.spans.dedup_by(|x, y| arena[x.clone()] == arena[y.clone()]);
        for (k, span) in self.spans.iter().enumerate() {
            if k > 0 {
                self.out.push(',');
            }
            self.out.push_str(&arena[span.clone()]);
        }
    }

    fn value(&mut self, nv: &NormalValue) {
        match nv {
            NormalValue::Atom(t) => write_term(t, &self.scope, &mut self.out),
            NormalValue::Record(fields) => {
                self.out.push('[');
                by_label(fields, |k, f, v| {
                    if k > 0 {
                        self.out.push(',');
                    }
                    self.out.push_str(f.as_str());
                    self.out.push(':');
                    self.value(v);
                });
                self.out.push(']');
            }
            NormalValue::Set(c) => self.comp(c),
        }
    }
}

/// `$n`, a generator's canonical name.
fn write_number(n: usize, out: &mut String) {
    if n < 10 {
        out.push('$');
        out.push(char::from(b'0' + n as u8));
    } else {
        let _ = write!(out, "${n}");
    }
}

/// A relation's name as written: borrowed from the interner, or `ₑn` for
/// a fresh one.
fn rel_text(r: RelName) -> Cow<'static, str> {
    r.as_str().map_or_else(|| Cow::Owned(r.name()), Cow::Borrowed)
}

fn write_term(t: &AtomTerm, scope: &[(Var, usize)], out: &mut String) {
    match t {
        AtomTerm::Const(a) => {
            out.push('#');
            let _ = write!(out, "{a}");
        }
        AtomTerm::Col { var, field } => {
            // Unbound variables cannot be produced by `normalize`, but keep
            // the serialization total rather than panicking on hand-built
            // normal forms.
            match scope.iter().rev().find(|(v, _)| v == var) {
                Some(&(_, n)) => write_number(n, out),
                None => {
                    let _ = write!(out, "?{var}");
                }
            }
            if let Some(f) = field {
                out.push('.');
                out.push_str(f.as_str());
            }
        }
    }
}

/// Serializes only the structural shape of a normal value (the result-type
/// skeleton), used for statically-empty comprehensions.
fn write_shape(nv: &NormalValue, out: &mut String) {
    match nv {
        NormalValue::Atom(_) => out.push('a'),
        NormalValue::Record(fields) => {
            out.push('[');
            by_label(fields, |k, f, v| {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(f.as_str());
                out.push(':');
                write_shape(v, out);
            });
            out.push(']');
        }
        NormalValue::Set(c) => {
            out.push('{');
            write_shape(&c.head, out);
            out.push('}');
        }
    }
}

/// Visits record fields in label *name* order, with their position. The
/// normal form already sorts by the interned `Field` order, which is also
/// alphabetical, so this only copies when that invariant does not hold:
/// canonicity stays independent of it.
fn by_label<'a>(
    fields: &'a [(Field, NormalValue)],
    mut visit: impl FnMut(usize, Field, &'a NormalValue),
) {
    if fields.is_sorted_by_key(|(f, _)| f.as_str()) {
        fields.iter().enumerate().for_each(|(k, (f, v))| visit(k, *f, v));
    } else {
        let mut sorted: Vec<_> = fields.iter().collect();
        sorted.sort_by_key(|(f, _)| f.as_str());
        sorted.into_iter().enumerate().for_each(|(k, (f, v))| visit(k, *f, v));
    }
}

/// FNV-1a over a byte slice, the signature mixing primitive.
const fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x100000001b3);
        i += 1;
    }
    h
}

fn mix(h: u64, more: u64) -> u64 {
    let mut x = h ^ more.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^ (x >> 29)
}

const HEAD: u64 = fnv64(b"head");
const SET: u64 = fnv64(b"set");

/// The signature hash of an optional projected field (`""` for none).
fn field_hash(f: Option<Field>) -> u64 {
    fnv64(f.map_or("", Field::as_str).as_bytes())
}

/// Signature refinement for one comprehension at a time (its buffers are
/// reused by the next).
#[derive(Default)]
struct Signatures {
    /// The comprehension's distinct local variables and their signatures.
    locals: Vec<(Var, u64)>,
    /// `(local, item)`: constraint items that do not depend on other
    /// signatures.
    fixed: Vec<(usize, u64)>,
    /// `(local, mix(path, own field hash), other local, other field
    /// hash)`: conditions equating two distinct locals' columns.
    links: Vec<(usize, u64, usize, u64)>,
    /// Variables bound by the nested comprehensions around the current
    /// point of the occurrence walk.
    shadow: Vec<Var>,
    /// Signatures of the previous round (per local), then of each
    /// generator (per generator) for the final sort.
    prev: Vec<u64>,
    items: Vec<u64>,
    /// The chosen generator order: indices into the comprehension's
    /// generators.
    order: Vec<usize>,
}

impl Signatures {
    /// Chooses the canonical generator order for one comprehension by
    /// signature refinement, leaving it in `self.order`.
    fn order_generators(
        &mut self,
        c: &Comprehension,
        ambient: &[(Var, usize)],
        scratch: &mut String,
    ) {
        // Round 0: the relation generated over. A variable bound twice
        // keeps the relation of its last generator. Locals are kept in
        // handle order for lookup; their order affects no signature.
        self.locals.clear();
        self.locals.extend(c.gens.iter().map(|&(var, _)| (var, 0)));
        self.locals.sort_unstable_by_key(|(v, _)| v.id());
        self.locals.dedup_by_key(|(v, _)| v.id());
        for &(var, r) in &c.gens {
            let i = self.find(var).expect("every generator is a local");
            self.locals[i].1 = fnv64(rel_text(r).as_bytes());
        }
        self.fixed.clear();
        self.links.clear();
        self.shadow.clear();
        self.collect(c, 0, ambient, scratch);
        // Group each local's constraints; the rounds below sort every
        // local's items anyway, so the order within a group is free.
        self.fixed.sort_unstable();
        self.links.sort_unstable_by_key(|link| link.0);

        let rounds = c.gens.len().clamp(1, 4);
        for _ in 0..rounds {
            self.prev.clear();
            self.prev.extend(self.locals.iter().map(|&(_, sig)| sig));
            let (mut fixed, mut links) = (self.fixed.as_slice(), self.links.as_slice());
            for (i, local) in self.locals.iter_mut().enumerate() {
                let own = fixed.partition_point(|&(l, _)| l == i);
                let linked = links.partition_point(|&(l, ..)| l == i);
                self.items.clear();
                self.items.extend(fixed[..own].iter().map(|&(_, item)| item));
                self.items.extend(
                    links[..linked]
                        .iter()
                        .map(|&(_, left, j, field)| mix(left, mix(mix(3, self.prev[j]), field))),
                );
                (fixed, links) = (&fixed[own..], &links[linked..]);
                self.items.sort_unstable();
                local.1 = self.items.iter().fold(local.1, |h, &item| mix(h, item));
            }
        }

        self.prev.clear();
        for &(var, _) in &c.gens {
            let i = self.find(var).expect("every generator is a local");
            self.prev.push(self.locals[i].1);
        }
        let sig = &self.prev;
        self.order.clear();
        self.order.extend(0..c.gens.len());
        // Relation name first so the serialized generator list reads
        // naturally; the refined signature second; source position as the
        // last-resort tie-break (ties at this point are symmetric or
        // pathological — see module docs).
        self.order.sort_by(|&i, &j| {
            rel_text(c.gens[i].1)
                .cmp(&rel_text(c.gens[j].1))
                .then_with(|| sig[i].cmp(&sig[j]))
                .then(i.cmp(&j))
        });
    }

    /// The local `var` names in the ordered comprehension's own scope.
    fn find(&self, var: Var) -> Option<usize> {
        self.locals.binary_search_by_key(&var.id(), |(v, _)| v.id()).ok()
    }

    /// The local `var` names at the current point of the occurrence walk,
    /// unless a nested comprehension rebinds it.
    fn local(&self, var: Var) -> Option<usize> {
        let i = self.find(var)?;
        (!self.shadow.contains(&var)).then_some(i)
    }

    /// Collects every condition and head occurrence of the locals across
    /// the comprehension's whole subtree. The other side of a condition is
    /// classified by the ordered comprehension's own scope — its locals
    /// first, then the ambient generators — whatever nests in between.
    fn collect(
        &mut self,
        c: &Comprehension,
        path: u64,
        ambient: &[(Var, usize)],
        scratch: &mut String,
    ) {
        for (a, b) in &c.conds {
            for (mine, other) in [(a, b), (b, a)] {
                let AtomTerm::Col { var, field } = *mine else { continue };
                let Some(i) = self.local(var) else { continue };
                let left = mix(path, field_hash(field));
                let other_sig = match *other {
                    AtomTerm::Const(atom) => {
                        scratch.clear();
                        let _ = write!(scratch, "{atom}");
                        mix(1, fnv64(scratch.as_bytes()))
                    }
                    AtomTerm::Col { var: other, field } => {
                        let base = if let Some(j) = self.find(other) {
                            if other != var {
                                self.links.push((i, left, j, field_hash(field)));
                                continue;
                            }
                            mix(2, 0) // self-equality marker
                        } else if let Some(&(_, n)) =
                            ambient.iter().rev().find(|(v, _)| *v == other)
                        {
                            scratch.clear();
                            write_number(n, scratch);
                            mix(4, fnv64(scratch.as_bytes()))
                        } else {
                            mix(6, 0)
                        };
                        mix(base, field_hash(field))
                    }
                };
                self.fixed.push((i, mix(left, other_sig)));
            }
        }
        self.collect_head(&c.head, mix(path, HEAD), ambient, scratch);
    }

    fn collect_head(
        &mut self,
        nv: &NormalValue,
        path: u64,
        ambient: &[(Var, usize)],
        scratch: &mut String,
    ) {
        match nv {
            NormalValue::Atom(AtomTerm::Const(_)) => {}
            NormalValue::Atom(AtomTerm::Col { var, field }) => {
                if let Some(i) = self.local(*var) {
                    self.fixed.push((i, mix(mix(path, field_hash(*field)), 7)));
                }
            }
            NormalValue::Record(fields) => {
                for (f, v) in fields {
                    let path = mix(path, fnv64(f.as_str().as_bytes()));
                    self.collect_head(v, path, ambient, scratch);
                }
            }
            NormalValue::Set(inner) => {
                // The nested comprehension's generators shadow outer bindings.
                let outer = self.shadow.len();
                self.shadow.extend(inner.gens.iter().map(|(v, _)| *v));
                self.collect(inner, mix(path, SET), ambient, scratch);
                self.shadow.truncate(outer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::parse::parse_coql;
    use crate::types::CoqlSchema;
    use co_cq::Schema;

    fn canon(src: &str) -> String {
        let schema =
            CoqlSchema::from_flat(&Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
        let e = parse_coql(src).unwrap();
        canonical_query(&normalize(&e, &schema).unwrap())
    }

    #[test]
    fn alpha_renaming_is_invisible() {
        assert_eq!(
            canon("select x.B from x in R where x.A = 1"),
            canon("select longer_name.B from longer_name in R where longer_name.A = 1"),
        );
    }

    #[test]
    fn conjunct_order_and_duplication_are_invisible() {
        assert_eq!(
            canon("select x.B from x in R where x.A = 1 and x.B = 2"),
            canon("select x.B from x in R where x.B = 2 and x.A = 1"),
        );
        assert_eq!(
            canon("select x.B from x in R where x.A = 1"),
            canon("select x.B from x in R where x.A = 1 and 1 = x.A"),
        );
    }

    #[test]
    fn independent_generator_order_is_invisible() {
        assert_eq!(
            canon("select [l: x.A, r: y.C] from x in R, y in S"),
            canon("select [l: x.A, r: y.C] from y in S, x in R"),
        );
        // Same-relation generators distinguished by their constraints.
        assert_eq!(
            canon("select [l: x.A, r: y.B] from x in R, y in R where x.A = 1"),
            canon("select [l: y.A, r: x.B] from x in R, y in R where y.A = 1"),
        );
    }

    #[test]
    fn different_queries_differ() {
        assert_ne!(canon("select x.B from x in R"), canon("select x.A from x in R"));
        assert_ne!(canon("select x.B from x in R"), canon("select x.B from x in R where x.A = 1"),);
        assert_ne!(
            canon("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R"),
            canon("select [a: x.A, g: (select y.B from y in R)] from x in R"),
        );
    }

    #[test]
    fn nested_scopes_rename_consistently() {
        assert_eq!(
            canon("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R"),
            canon("select [a: u.A, g: (select v.B from v in R where v.A = u.A)] from u in R"),
        );
        // Shadowing: the inner `x` is a different binder than the outer.
        assert_eq!(
            canon("select [a: x.A, g: (select x.B from x in R)] from x in R"),
            canon("select [a: x.A, g: (select z.B from z in R)] from x in R"),
        );
    }

    #[test]
    fn empty_sets_canonicalize_by_shape() {
        assert_eq!(canon("select z from z in {}"), canon("flatten({})"));
    }
}

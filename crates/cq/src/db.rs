//! Flat relational databases: sets of tuples of atoms, with lazily-built
//! hash indexes for the homomorphism engine.
//!
//! # Index layer (DESIGN.md §9)
//!
//! [`Relation::snapshot`] exposes a canonically sorted, shared copy of the
//! tuples, and [`Relation::pattern_index`] builds (once, on demand) a hash
//! index for a *bound-position pattern*: a bitmask over column positions.
//! The index maps the atoms at the bound positions to the (sorted) list of
//! matching tuple ids in the snapshot, so the backtracking engine can
//! enumerate exactly the candidate tuples compatible with its current
//! partial assignment instead of scanning the whole relation.
//!
//! Every `&mut self` method invalidates the cache, so a stale index can
//! never be observed: the next lookup after a mutation rebuilds from the
//! current tuples (tested in `edge_cases.rs`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, RwLock};

use co_object::{Atom, Field, Type, Value};

use crate::schema::{RelName, Schema};

/// A tuple of atomic values.
pub type Tuple = Vec<Atom>;

/// A bound-position pattern: bit `i` set means column `i` is bound.
pub type PositionMask = u64;

/// A hash index of one relation for one bound-position pattern: atoms at
/// the bound positions (in column order) → ascending ids of the matching
/// tuples in the relation's [`Relation::snapshot`].
#[derive(Debug, Default)]
pub struct PatternIndex {
    buckets: HashMap<Vec<Atom>, Vec<u32>>,
}

impl PatternIndex {
    /// The snapshot ids of tuples matching `key` at the bound positions,
    /// in ascending (deterministic) order.
    pub fn candidates(&self, key: &[Atom]) -> &[u32] {
        self.buckets.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of candidates for `key` without materializing them.
    pub fn candidate_count(&self, key: &[Atom]) -> usize {
        self.buckets.get(key).map_or(0, Vec::len)
    }

    /// Number of distinct keys (diagnostics).
    pub fn key_count(&self) -> usize {
        self.buckets.len()
    }
}

/// Lazily-built derived state of a relation; cleared on every mutation.
#[derive(Debug, Default)]
struct RelCache {
    sorted: Option<Arc<Vec<Tuple>>>,
    indexes: HashMap<PositionMask, Arc<PatternIndex>>,
}

/// A flat relation: a finite set of equal-arity tuples.
///
/// Equality, ordering of iteration, and `Display` depend only on the tuple
/// set; the index cache is invisible derived state.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: HashSet<Tuple>,
    cache: RwLock<RelCache>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        // Indexes are cheap to rebuild; clones start with a cold cache.
        Relation { tuples: self.tuples.clone(), cache: RwLock::new(RelCache::default()) }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// The empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Builds a relation from tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        Relation { tuples: tuples.into_iter().collect(), cache: RwLock::new(RelCache::default()) }
    }

    /// Inserts a tuple; returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let added = self.tuples.insert(t);
        if added {
            // Mutation invalidates the snapshot and every pattern index.
            *self.cache.get_mut().expect("relation cache lock poisoned") = RelCache::default();
        }
        added
    }

    /// Membership test.
    pub fn contains(&self, t: &[Atom]) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates in arbitrary (hash) order — use [`Relation::iter_sorted`]
    /// when determinism matters.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples in canonical sorted order.
    pub fn iter_sorted(&self) -> Vec<&Tuple> {
        let mut v: Vec<&Tuple> = self.tuples.iter().collect();
        v.sort();
        v
    }

    /// A shared, canonically sorted copy of the tuples. Built once and
    /// cached until the next mutation; tuple ids handed out by
    /// [`Relation::pattern_index`] refer to positions in this vector.
    pub fn snapshot(&self) -> Arc<Vec<Tuple>> {
        if let Some(s) = &self.cache.read().expect("relation cache lock poisoned").sorted {
            return Arc::clone(s);
        }
        let mut cache = self.cache.write().expect("relation cache lock poisoned");
        // A racing reader may have built it between the two locks.
        if let Some(s) = &cache.sorted {
            return Arc::clone(s);
        }
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        v.sort();
        let s = Arc::new(v);
        cache.sorted = Some(Arc::clone(&s));
        s
    }

    /// The hash index of this relation for the bound-position pattern
    /// `mask` (bit `i` set ⇔ column `i` bound). Built lazily on first use
    /// and cached until the next mutation.
    ///
    /// Lookup keys are the atoms at the bound positions in ascending column
    /// order; `mask == 0` yields a single bucket holding every tuple id.
    pub fn pattern_index(&self, mask: PositionMask) -> Arc<PatternIndex> {
        if let Some(idx) =
            self.cache.read().expect("relation cache lock poisoned").indexes.get(&mask)
        {
            return Arc::clone(idx);
        }
        let snapshot = self.snapshot();
        let mut buckets: HashMap<Vec<Atom>, Vec<u32>> = HashMap::new();
        for (id, tuple) in snapshot.iter().enumerate() {
            let key: Vec<Atom> = tuple
                .iter()
                .enumerate()
                .filter(|(pos, _)| *pos < 64 && mask >> *pos & 1 != 0)
                .map(|(_, &a)| a)
                .collect();
            let id = u32::try_from(id).expect("relation larger than u32::MAX tuples");
            // Snapshot order is ascending, so buckets stay sorted.
            buckets.entry(key).or_default().push(id);
        }
        let idx = Arc::new(PatternIndex { buckets });
        let mut cache = self.cache.write().expect("relation cache lock poisoned");
        let entry = cache.indexes.entry(mask).or_insert_with(|| Arc::clone(&idx));
        Arc::clone(entry)
    }

    /// Set union.
    pub fn union(&self, other: &Relation) -> Relation {
        Relation::from_tuples(self.tuples.union(&other.tuples).cloned())
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.tuples.is_subset(&other.tuples)
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        Relation::from_tuples(iter)
    }
}

/// A flat database: relation name → relation.
///
/// Missing relations read as empty, so any database is usable with any
/// schema (the paper's queries are monotone, making this the right default).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<RelName, Relation>,
}

impl Database {
    /// The empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Convenience: builds a database from `(name, tuples)` lists of
    /// integer-atom tuples (the common shape in tests).
    pub fn from_ints(rels: &[(&str, &[&[i64]])]) -> Database {
        let mut db = Database::new();
        for (name, tuples) in rels {
            let rel = db.relation_mut(RelName::new(name));
            for t in *tuples {
                rel.insert(t.iter().map(|&i| Atom::int(i)).collect());
            }
        }
        db
    }

    /// Read access to a relation (empty if absent).
    pub fn relation(&self, name: RelName) -> Relation {
        self.relations.get(&name).cloned().unwrap_or_default()
    }

    /// Borrowed read access, `None` if the relation was never written.
    pub fn relation_ref(&self, name: RelName) -> Option<&Relation> {
        self.relations.get(&name)
    }

    /// Mutable access, creating the relation if absent.
    pub fn relation_mut(&mut self, name: RelName) -> &mut Relation {
        self.relations.entry(name).or_default()
    }

    /// Inserts one fact.
    pub fn insert(&mut self, name: RelName, tuple: Tuple) {
        self.relation_mut(name).insert(tuple);
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Relation)> {
        self.relations.iter()
    }

    /// Total number of facts across relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Union of two databases (relation-wise).
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for (name, rel) in other.iter() {
            let target = out.relation_mut(*name);
            for t in rel.iter() {
                target.insert(t.clone());
            }
        }
        out
    }

    /// The set of all atoms occurring in the database (its active domain).
    pub fn active_domain(&self) -> HashSet<Atom> {
        let mut dom = HashSet::new();
        for (_, rel) in self.iter() {
            for t in rel.iter() {
                dom.extend(t.iter().copied());
            }
        }
        dom
    }

    /// Views a relation as a complex-object value — a set of records over
    /// the schema's attribute labels — bridging to the `co-object` layer.
    pub fn relation_as_value(&self, schema: &Schema, name: RelName) -> Option<Value> {
        let rs = schema.relation(name)?;
        let rel = self.relation(name);
        let mut elems = Vec::with_capacity(rel.len());
        for t in rel.iter() {
            if t.len() != rs.arity() {
                return None;
            }
            let fields: Vec<(Field, Value)> =
                rs.attrs.iter().zip(t.iter()).map(|(&a, &v)| (a, Value::Atom(v))).collect();
            elems.push(Value::record(fields).expect("schema attrs are distinct"));
        }
        Some(Value::set(elems))
    }

    /// The flat-relation type of a relation under a schema.
    pub fn relation_type(schema: &Schema, name: RelName) -> Option<Type> {
        schema.relation(name).map(|rs| Type::flat_relation(&rs.attrs))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in self.iter() {
            for t in rel.iter_sorted() {
                write!(f, "{name}(")?;
                for (i, a) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_are_sets() {
        let mut r = Relation::new();
        assert!(r.insert(vec![Atom::int(1), Atom::int(2)]));
        assert!(!r.insert(vec![Atom::int(1), Atom::int(2)]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Atom::int(1), Atom::int(2)]));
    }

    #[test]
    fn missing_relations_read_empty() {
        let db = Database::new();
        assert!(db.relation(RelName::new("nope")).is_empty());
        assert!(db.relation_ref(RelName::new("nope")).is_none());
    }

    #[test]
    fn union_merges_facts() {
        let a = Database::from_ints(&[("R", &[&[1, 2]])]);
        let b = Database::from_ints(&[("R", &[&[3, 4]]), ("S", &[&[5]])]);
        let u = a.union(&b);
        assert_eq!(u.fact_count(), 3);
        assert!(u.relation(RelName::new("R")).contains(&[Atom::int(1), Atom::int(2)]));
        assert!(u.relation(RelName::new("S")).contains(&[Atom::int(5)]));
    }

    #[test]
    fn active_domain_collects_atoms() {
        let db = Database::from_ints(&[("R", &[&[1, 2], &[2, 3]])]);
        let dom = db.active_domain();
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn relation_as_value_builds_records() {
        let schema = Schema::with_relations(&[("R", &["A", "B"])]);
        let db = Database::from_ints(&[("R", &[&[1, 2]])]);
        let v = db.relation_as_value(&schema, RelName::new("R")).unwrap();
        assert_eq!(v.to_string(), "{[A: 1, B: 2]}");
        let ty = Database::relation_type(&schema, RelName::new("R")).unwrap();
        assert!(ty.is_flat_relation());
        co_object::check_type(&v, &ty).unwrap();
    }
}

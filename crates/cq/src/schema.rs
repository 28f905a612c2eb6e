//! Relation names, variables, and flat schemas.
//!
//! The paper's §5 reduces everything to *flat* input relations ("we will
//! assume from now on that all input relations are flat"); nested inputs
//! are encoded with indexes by `co-encode`. A [`Schema`] records, for each
//! relation name, its attributes (used when flat tuples are viewed as
//! records by the COQL layer).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use co_object::atom::{mint_fresh, FRESH_BIT};
use co_object::intern::Interner;
use co_object::Field;

/// A handle type over its own [`Interner`] of names parsed from text.
/// Fresh names ([`Var::fresh`], [`RelName::fresh`]) are mint counts with
/// [`FRESH_BIT`] set and never enter a table.
macro_rules! interned_name {
    ($(#[$doc:meta])* $name:ident, $table:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(u64);

        static $table: Interner<str> = Interner::new();

        impl $name {
            /// Interns a name.
            pub fn new(name: &str) -> $name {
                $name(u64::from($table.intern(name)))
            }

            /// Mints a fresh name, distinct from every interned name and
            /// from every other fresh one. Allocates nothing.
            pub fn fresh() -> $name {
                $name(mint_fresh())
            }

            /// Whether this name was minted by `fresh`.
            pub fn is_fresh(self) -> bool {
                self.0 & FRESH_BIT != 0
            }

            /// The name this handle was interned from, without locking or
            /// copying; `None` for a fresh name.
            pub fn as_str(self) -> Option<&'static str> {
                if self.is_fresh() {
                    return None;
                }
                Some($table.get(self.0 as u32))
            }

            /// The name this handle was interned from; a fresh name reads
            /// `ₑn`, with `n` its mint count.
            pub fn name(self) -> String {
                self.to_string()
            }

            /// Raw handle (stable within a process).
            pub fn id(self) -> u64 {
                self.0
            }

            /// Number of names interned so far. Fresh names never add to it.
            pub fn interned_count() -> usize {
                $table.len()
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &$name) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $name {
            /// Interned names in name order, then fresh names in mint order.
            fn cmp(&self, other: &$name) -> Ordering {
                if self.0 == other.0 {
                    return Ordering::Equal;
                }
                match (self.as_str(), other.as_str()) {
                    (Some(a), Some(b)) => a.cmp(b),
                    _ => self.0.cmp(&other.0),
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.as_str() {
                    Some(s) => f.write_str(s),
                    None => write!(f, "\u{2091}{}", self.0 & !FRESH_BIT),
                }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }
    };
}

interned_name!(
    /// An interned relation name (`R`, `S`, … in the paper).
    RelName,
    REL_NAMES
);

interned_name!(
    /// An interned query variable. Ordered by name for deterministic output
    /// (fresh variables after every named one, in mint order).
    Var,
    VAR_NAMES
);

/// Schema of a single flat relation: name plus named atomic attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelSchema {
    /// The relation's name.
    pub name: RelName,
    /// Attribute labels, in column order (NOT sorted — column order is
    /// positional and significant).
    pub attrs: Vec<Field>,
}

impl RelSchema {
    /// Creates a relation schema; attribute labels must be distinct.
    pub fn new(name: &str, attrs: &[&str]) -> RelSchema {
        let attrs: Vec<Field> = attrs.iter().map(|a| Field::new(a)).collect();
        let mut seen = attrs.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), attrs.len(), "duplicate attribute in relation `{name}`");
        RelSchema { name: RelName::new(name), attrs }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The column position of an attribute.
    pub fn position(&self, attr: Field) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }
}

/// A database schema: a set of flat relation schemas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<RelName, RelSchema>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Builds a schema from `(name, attributes)` pairs.
    pub fn with_relations(rels: &[(&str, &[&str])]) -> Schema {
        let mut s = Schema::new();
        for (name, attrs) in rels {
            s.add(RelSchema::new(name, attrs));
        }
        s
    }

    /// Adds (or replaces) a relation schema.
    pub fn add(&mut self, rel: RelSchema) {
        self.relations.insert(rel.name, rel);
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: RelName) -> Option<&RelSchema> {
        self.relations.get(&name)
    }

    /// The arity of a relation, if declared.
    pub fn arity(&self, name: RelName) -> Option<usize> {
        self.relations.get(&name).map(RelSchema::arity)
    }

    /// Iterates over relation schemas in name order.
    pub fn iter(&self) -> impl Iterator<Item = &RelSchema> {
        self.relations.values()
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_intern() {
        assert_eq!(RelName::new("R"), RelName::new("R"));
        assert_ne!(RelName::new("R"), RelName::new("S"));
        assert_eq!(Var::new("x").name(), "x");
        assert_eq!(RelName::new("R").as_str(), Some("R"));
        assert_eq!(Var::fresh().as_str(), None);
    }

    #[test]
    fn fresh_names_are_distinct() {
        let (a, b) = (Var::fresh(), Var::fresh());
        assert_ne!(a, b);
        assert!(a < b, "fresh names order by mint order");
        assert!(Var::new("zzz") < a, "interned names sort first");
        assert_eq!(a.name(), format!("\u{2091}{}", a.id() & !FRESH_BIT));
        assert_ne!(Var::new(&a.name()), a, "a fresh name's text is not its identity");
        assert_ne!(RelName::fresh(), RelName::fresh());
    }

    #[test]
    fn vars_order_by_name() {
        let mut vs = [Var::new("z"), Var::new("a"), Var::new("m")];
        vs.sort();
        let names: Vec<String> = vs.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
        assert_eq!(s.arity(RelName::new("R")), Some(2));
        assert_eq!(s.arity(RelName::new("S")), Some(1));
        assert_eq!(s.arity(RelName::new("T")), None);
        let r = s.relation(RelName::new("R")).unwrap();
        assert_eq!(r.position(Field::new("B")), Some(1));
        assert_eq!(r.position(Field::new("Z")), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attrs_panic() {
        RelSchema::new("R", &["A", "A"]);
    }
}

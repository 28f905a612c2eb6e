//! # co-object — complex objects and their containment order
//!
//! The data-model substrate for the reproduction of *Levy & Suciu, "Deciding
//! Containment for Queries with Complex Objects", PODS 1997*.
//!
//! A **complex object** (§3.1 of the paper) is built from atomic values,
//! records, and finite sets. The crate provides:
//!
//! * [`Atom`], [`Field`] — interned atomic values and record labels;
//! * [`Value`] — complex objects in canonical form (`==` is semantic
//!   equality);
//! * [`Type`] and type inference/checking;
//! * the **Hoare (lower powerdomain) order** `⊑` of §3.2 — the weakest
//!   preorder consistent with relational containment and preserved by the
//!   constructors — via both structural recursion ([`hoare_leq`]) and graph
//!   simulation ([`graph::hoare_leq_graph`]);
//! * a literal parser and seeded random generators.
//!
//! ```
//! use co_object::{parse_value, hoare_leq};
//!
//! let small = parse_value("{[name: ann, kids: {bo}]}").unwrap();
//! let big   = parse_value("{[name: ann, kids: {bo, cy}], [name: dee, kids: {}]}").unwrap();
//! assert!(hoare_leq(&small, &big));
//! assert!(!hoare_leq(&big, &small));
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod generate;
pub mod graph;
pub mod intern;
pub mod interrupt;
pub mod order;
pub mod par;
pub mod parse;
pub mod ty;
pub mod value;

pub use atom::{Atom, Field};
pub use graph::{
    greatest_simulation, greatest_simulation_sweep, greatest_simulation_worklist, hoare_leq_graph,
    simulates, try_greatest_simulation, try_simulates, ValueGraph,
};
pub use interrupt::Interrupted;
pub use order::{
    hoare_equiv, hoare_join, hoare_leq, hoare_meet, hoare_reduce, try_hoare_leq, try_hoare_reduce,
    TooDeep,
};
pub use parse::{parse_value, parse_value_with_depth, ParseError, ParseErrorKind};
pub use ty::{check_type, type_of, IllTyped, Type};
pub use value::{DuplicateField, RecordValue, SetValue, Value};

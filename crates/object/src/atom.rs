//! Interned atomic values and field names.
//!
//! The paper's domain `D` is an infinite set of atomic values. We represent
//! an atomic value as a small copyable handle ([`Atom`]) into a global
//! interner, so that equality tests — the only operation COQL may perform on
//! atoms — are integer comparisons, and tuples of atoms pack densely.
//!
//! Two kinds of payload are supported: symbolic names (strings) and 64-bit
//! integers. Integers intern to themselves conceptually; they are stored in
//! the same table so every interned atom is a uniform handle.
//!
//! Fresh atoms ([`Atom::fresh`]) carry no payload at all: the paper's
//! indexes (§5.1) and the frozen constants of canonical databases (§4)
//! only need to be *distinct*, not named. A fresh handle is a mint count
//! with [`FRESH_BIT`] set, so minting one allocates nothing and the
//! interner tables only ever hold names parsed from text.
//!
//! Field names of records ([`Field`]) are interned separately: they belong
//! to the schema layer, not to the data domain, and keeping the two handle
//! types distinct prevents accidentally using a field label as a data value.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::sync::atomic::{self, AtomicU64};

use crate::intern::Interner;

/// The handle bit that marks a fresh (minted, never interned) handle. The
/// remaining bits are the mint count from [`mint_fresh`].
pub const FRESH_BIT: u64 = 1 << 63;

/// The handle bit that marks an interned integer: the remaining bits index
/// [`INTS`]. Handles with neither bit set index [`STRS`].
const INT_BIT: u64 = 1 << 62;

/// Draws the next count from the process-wide mint counter shared by every
/// fresh handle type ([`Atom`] here, the variable and relation names of
/// `co-cq`) and returns it with [`FRESH_BIT`] set.
pub fn mint_fresh() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, atomic::Ordering::Relaxed) | FRESH_BIT
}

static STRS: Interner<str> = Interner::new();
static INTS: Interner<i64> = Interner::new();
static FIELDS: Interner<str> = Interner::new();

/// What an atom handle denotes, ordered as [`Atom`]'s `Ord` documents.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Payload {
    Int(i64),
    Str(&'static str),
    Fresh(u64),
}

/// An atomic value from the paper's infinite domain `D`.
///
/// Atoms are cheap to copy, compare, and hash. The total order compares the
/// interned payloads (integers before strings, each ordered naturally), then
/// fresh atoms in mint order; it exists only to keep set values in
/// canonical, deterministic form and carries no semantic meaning — COQL can
/// only test atoms for equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(u64);

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Atom) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.payload().cmp(&other.payload())
    }
}

impl Atom {
    /// Interns a string constant.
    pub fn str(s: &str) -> Atom {
        Atom(u64::from(STRS.intern(s)))
    }

    /// Interns an integer constant.
    pub fn int(i: i64) -> Atom {
        Atom(u64::from(INTS.intern(&i)) | INT_BIT)
    }

    /// Mints a globally fresh atom, guaranteed distinct from every interned
    /// atom and from every other fresh atom. Allocates nothing.
    ///
    /// Fresh atoms are the *indexes* of the paper's §5.1 and the frozen
    /// constants of canonical databases.
    pub fn fresh() -> Atom {
        Atom(mint_fresh())
    }

    /// Whether this atom was minted by [`Atom::fresh`] (it then has no
    /// payload: [`Atom::as_str`] and [`Atom::as_int`] are `None`).
    pub fn is_fresh(self) -> bool {
        self.0 & FRESH_BIT != 0
    }

    /// The raw handle; stable within a process run.
    pub fn id(self) -> u64 {
        self.0
    }

    /// Number of payloads interned so far. Fresh atoms never add to it.
    pub fn interned_count() -> usize {
        STRS.len() + INTS.len()
    }

    /// Returns the string payload, if this atom was interned from a string.
    pub fn as_str(self) -> Option<&'static str> {
        match self.payload() {
            Payload::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload, if this atom was interned from an integer.
    pub fn as_int(self) -> Option<i64> {
        match self.payload() {
            Payload::Int(i) => Some(i),
            _ => None,
        }
    }

    fn payload(self) -> Payload {
        if self.is_fresh() {
            Payload::Fresh(self.0 & !FRESH_BIT)
        } else if self.0 & INT_BIT != 0 {
            Payload::Int(INTS.get((self.0 & !INT_BIT) as u32))
        } else {
            Payload::Str(STRS.get(self.0 as u32))
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.payload() {
            Payload::Fresh(n) => write!(f, "\u{27e8}#{n}\u{27e9}"),
            Payload::Int(i) => write!(f, "{i}"),
            Payload::Str(s) if is_bare(s) => f.write_str(s),
            Payload::Str(s) => {
                f.write_char('\'')?;
                for (k, piece) in s.split('\'').enumerate() {
                    if k > 0 {
                        f.write_str("\\'")?;
                    }
                    f.write_str(piece)?;
                }
                f.write_char('\'')
            }
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Whether a string can be printed without quotes. The `⟨`, `⟩` and `#`
/// characters stay bare as they were when fresh atoms were interned
/// strings: canonical query text prints constants through this function,
/// so changing it would change every fingerprint of such a constant.
fn is_bare(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '\u{27e8}')
        && s.chars().all(|c| {
            c.is_ascii_alphanumeric() || c == '_' || c == '#' || c == '\u{27e8}' || c == '\u{27e9}'
        })
}

/// An interned record field label (`A`, `B`, … in the paper's
/// `[A1: x1; …; Ak: xk]` notation).
///
/// Ordered alphabetically by label; record fields are kept sorted by this
/// order so records compare structurally — and print deterministically —
/// regardless of the order fields were written or interned.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Field(u32);

impl PartialOrd for Field {
    fn partial_cmp(&self, other: &Field) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Field {
    fn cmp(&self, other: &Field) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Field {
    /// Interns a field label.
    pub fn new(name: &str) -> Field {
        Field(FIELDS.intern(name))
    }

    /// The label this field was interned from, without locking or copying.
    pub fn as_str(self) -> &'static str {
        FIELDS.get(self.0)
    }

    /// The label this field was interned from, as an owned string.
    pub fn name(self) -> String {
        self.as_str().to_string()
    }

    /// The raw interner id.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Atom::str("a"), Atom::str("a"));
        assert_eq!(Atom::int(7), Atom::int(7));
        assert_ne!(Atom::str("a"), Atom::str("b"));
        assert_ne!(Atom::str("7"), Atom::int(7));
    }

    #[test]
    fn fresh_atoms_are_distinct() {
        let a = Atom::fresh();
        let b = Atom::fresh();
        assert_ne!(a, b);
        assert!(a.is_fresh() && b.is_fresh());
        assert!(a < b, "fresh atoms order by mint order");
        assert!(Atom::str("zzz") < a && Atom::int(i64::MAX) < a, "interned atoms sort first");
        assert_eq!((a.as_str(), a.as_int()), (None, None));
    }

    #[test]
    fn fresh_atoms_never_collide_with_interned_constants() {
        // A constant spelling a fresh atom's display text (COQL string
        // literals can) stays an ordinary interned string.
        let a = Atom::fresh();
        let spelled = Atom::str(&a.to_string());
        assert_ne!(spelled, a);
        assert!(!spelled.is_fresh());
        let b = Atom::fresh();
        assert_ne!(Atom::str(&b.to_string()), b);
        assert_ne!(Atom::str(&format!("\u{27e8}t#{}\u{27e9}", b.id() & !FRESH_BIT)), b);
    }

    #[test]
    fn payload_roundtrip() {
        assert_eq!(Atom::str("hello").as_str(), Some("hello"));
        assert_eq!(Atom::int(-3).as_int(), Some(-3));
        assert_eq!(Atom::int(-3).as_str(), None);
        assert_eq!(Atom::str("x").as_int(), None);
    }

    #[test]
    fn display_quotes_non_bare_strings() {
        assert_eq!(Atom::str("abc").to_string(), "abc");
        assert_eq!(Atom::str("two words").to_string(), "'two words'");
        assert_eq!(Atom::int(42).to_string(), "42");
    }

    #[test]
    fn fields_intern_and_display() {
        let f = Field::new("Addr");
        assert_eq!(f, Field::new("Addr"));
        assert_ne!(f, Field::new("addr"));
        assert_eq!(f.to_string(), "Addr");
    }
}

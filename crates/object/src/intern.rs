//! The append-only interning table behind every named handle.
//!
//! [`Atom`](crate::Atom) payloads, [`Field`](crate::Field) labels and the
//! relation and variable names of `co-cq` are small copyable handles into
//! an [`Interner`]. Every request is parsed and keyed by its canonical text
//! (DESIGN §4), so handle → name reads sit inside sort comparators and
//! signature rounds; they must not take a lock or allocate.
//!
//! * Each interned string is leaked once as a `&'static str`, and the
//!   lookup map's keys borrow that same allocation, so nothing is stored
//!   twice. The tables never shrink, so leaking changes no lifetime.
//!   Integers are stored by value.
//! * Slots live in lazily allocated chunks of doubling size (chunk `k`
//!   holds ids `2^k − 1 .. 2^(k+1) − 1`), one `OnceLock` per chunk and per
//!   slot: a slot is written once, before its id is published, and a read
//!   is two acquire loads with no lock.
//! * Interning probes under the read lock first and takes the write lock
//!   only to add a value it did not find.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// Number of slot chunks: ids up to `u32::MAX - 1`.
const CHUNKS: usize = 32;

/// A value an [`Interner`] can hold, and the copyable form the table
/// stores it as: a leaked `&'static str` for strings (allocated once and
/// never freed), the value itself for integers.
pub trait Internable: Hash + Eq + 'static {
    /// The stored form; map lookups borrow it back as `Self`.
    type Stored: Copy + Hash + Eq + Borrow<Self> + 'static;

    /// The stored form of `self`.
    fn store(&self) -> Self::Stored;
}

impl Internable for str {
    type Stored = &'static str;

    fn store(&self) -> &'static str {
        Box::leak(self.into())
    }
}

impl Internable for i64 {
    type Stored = i64;

    fn store(&self) -> i64 {
        *self
    }
}

/// One lazily allocated run of slots, each written once.
type Chunk<S> = OnceLock<Box<[OnceLock<S>]>>;

/// An append-only table mapping values to dense `u32` ids and back. Reads
/// by id are lock-free; see the module docs.
pub struct Interner<T: ?Sized + Internable> {
    map: OnceLock<RwLock<HashMap<T::Stored, u32>>>,
    chunks: [Chunk<T::Stored>; CHUNKS],
    len: AtomicU32,
}

impl<T: ?Sized + Internable> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: ?Sized + Internable> Interner<T> {
    /// An empty table (usable in a `static`).
    pub const fn new() -> Self {
        Interner {
            map: OnceLock::new(),
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicU32::new(0),
        }
    }

    fn map(&self) -> &RwLock<HashMap<T::Stored, u32>> {
        self.map.get_or_init(Default::default)
    }

    /// The id of `value`, interning it on first sight.
    pub fn intern(&self, value: &T) -> u32 {
        if let Some(&id) = self.map().read().unwrap_or_else(PoisonError::into_inner).get(value) {
            return id;
        }
        let mut map = self.map().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(value) {
            return id;
        }
        let id =
            u32::try_from(map.len()).ok().filter(|&id| id < u32::MAX).expect("interner overflow");
        let (chunk, slot) = locate(id);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
        let stored = value.store();
        assert!(slots[slot].set(stored).is_ok(), "interner slot {id} written twice");
        map.insert(stored, id);
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// The value interned under `id`, without taking a lock.
    ///
    /// # Panics
    ///
    /// If `id` was not returned by [`Interner::intern`] on this table.
    pub fn get(&self, id: u32) -> T::Stored {
        let (chunk, slot) = locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[slot].get())
            .copied()
            .unwrap_or_else(|| panic!("id {id} was not interned in this table"))
    }

    /// Number of values interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The chunk holding `id`, and its slot within that chunk.
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let chunk = n.ilog2() as usize;
    (chunk, (n - (1 << chunk)) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_double_in_size() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        assert_eq!(locate(3), (2, 0));
        assert_eq!(locate(6), (2, 3));
        assert_eq!(locate(7), (3, 0));
        assert_eq!(locate(u32::MAX - 1), (CHUNKS - 1, (1 << (CHUNKS - 1)) - 1));
    }

    #[test]
    fn handles_straddling_chunk_boundaries_read_back() {
        let table: Interner<str> = Interner::new();
        let names: Vec<String> = (0..1030).map(|i| format!("name{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(table.intern(name), i as u32, "ids are dense, in first-sight order");
        }
        let mut probes = vec![0, 1, 2, 3, 6, 7];
        for k in 3..=10 {
            probes.extend([(1 << k) - 1, 1 << k]);
        }
        for id in probes {
            assert_eq!(table.get(id), names[id as usize], "id {id}");
        }
        assert_eq!(table.len(), names.len());
    }

    #[test]
    fn reinterning_returns_the_same_handle() {
        let table: Interner<str> = Interner::new();
        assert!(table.is_empty());
        let a = table.intern("a");
        let b = table.intern("b");
        assert_ne!(a, b);
        assert_eq!(table.intern("a"), a);
        assert_eq!(table.intern(&String::from("b")), b);
        assert_eq!(table.len(), 2);
        let ints: Interner<i64> = Interner::new();
        assert_eq!(ints.intern(&-7), ints.intern(&-7));
        assert_eq!(ints.get(ints.intern(&i64::MIN)), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "was not interned")]
    fn unknown_ids_panic() {
        let table: Interner<str> = Interner::new();
        table.intern("only");
        table.get(1);
    }

    /// Four threads intern overlapping name sets in different orders while
    /// reading back every handle they hold; the table must end up the
    /// bijection a single-threaded run builds.
    #[test]
    fn concurrent_interning_agrees_with_a_single_thread() {
        const NAMES: usize = 3000;
        let names: Vec<String> = (0..NAMES).map(|i| format!("n{}", i * 7919 % 10007)).collect();
        let single: Interner<str> = Interner::new();
        for name in &names {
            single.intern(name);
        }

        let shared: Interner<str> = Interner::new();
        let per_thread: Vec<Vec<(usize, u32)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (names, shared) = (&names, &shared);
                    s.spawn(move || {
                        let mut seen = Vec::with_capacity(NAMES);
                        for step in 0..NAMES {
                            // Each thread walks the names with its own stride.
                            let i = (step * (2 * t + 1) + t * 17) % NAMES;
                            let id = shared.intern(&names[i]);
                            assert_eq!(shared.get(id), names[i]);
                            if let Some(&(j, earlier)) = seen.get(step / 2) {
                                assert_eq!(shared.get(earlier), names[j]);
                            }
                            seen.push((i, id));
                        }
                        seen
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        assert_eq!(shared.len(), single.len());
        let mut id_of = HashMap::new();
        for (i, id) in per_thread.into_iter().flatten() {
            assert_eq!(*id_of.entry(i).or_insert(id), id, "threads disagree on `{}`", names[i]);
        }
        for name in &names {
            let id = shared.intern(name);
            assert_eq!(shared.get(id), name.as_str());
            assert_eq!(single.get(single.intern(name)), name.as_str());
        }
        let mut ids: Vec<u32> = (0..names.len()).map(|i| shared.intern(&names[i])).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..single.len() as u32).collect::<Vec<_>>(), "ids stay dense");
    }
}

//! # lfi-intern — the shared symbol table behind the interception fast path
//!
//! The paper's §6.4 requirement is that interception overhead stays
//! negligible even for the most-called libc functions.  Every layer of this
//! workspace that used to key on `String` function names (library dispatch,
//! the process call stack, injector trigger tables, TLS/global side-effect
//! slots) now keys on a [`Symbol`]: a small copyable id handed out by a
//! [`SymbolTable`].  Names are resolved to ids once, at setup time; the
//! per-call paths compare and index integers only.
//!
//! ```
//! use lfi_intern::Symbol;
//!
//! let read = Symbol::intern("read");
//! assert_eq!(read, Symbol::intern("read")); // same name, same id
//! assert_eq!(read.as_str(), "read");
//! assert_eq!(read, "read"); // symbols compare against &str for convenience
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned function or module name.
///
/// A `Symbol` is a dense `u32` index into the [`SymbolTable`] that created
/// it: `Copy`, 4 bytes, and comparable/hashable without touching the
/// underlying string.  Two symbols from the same table are equal exactly
/// when their names are equal.
///
/// # The resolve-once-at-setup contract
///
/// Symbols exist so that per-call code never allocates or hashes strings.
/// Resolve names to symbols exactly once, at setup time — when a library is
/// built, a plan is compiled, an interceptor is synthesized — and pass the
/// `Symbol` (or a table slot derived from [`Symbol::index`]) to the hot
/// path.  [`Symbol::intern`] hashes its argument, so calling it inside a
/// dispatch loop reintroduces the cost this type removes; if you find an
/// `intern` in per-call code, hoist it to setup.
///
/// The convenience constructors and accessors on `Symbol` itself
/// ([`Symbol::intern`], [`Symbol::lookup`], [`Symbol::as_str`]) all use the
/// process-wide table from [`SymbolTable::global`], which is what the whole
/// workspace shares.  **They are only meaningful for symbols minted by that
/// global table**: a `Symbol` is a bare index, so resolving one that came
/// from a standalone [`SymbolTable`] against the global table returns
/// whatever name happens to sit at that index there (or panics when the
/// global table is shorter).  Symbols from standalone tables must be
/// resolved with [`SymbolTable::resolve`] on the table that created them —
/// this also applies to `Display`, `Debug` and the `PartialEq<str>`
/// comparisons, which all go through the global table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `name` in the [global table](SymbolTable::global), returning
    /// its id (allocating one if the name was never seen).  Setup-time only —
    /// see the resolve-once contract above.
    pub fn intern(name: &str) -> Symbol {
        SymbolTable::global().intern(name)
    }

    /// The id of `name` in the global table, or `None` if it was never
    /// interned.  Unlike [`Symbol::intern`] this never grows the table, so it
    /// is the right query for "is this name known at all?".
    pub fn lookup(name: &str) -> Option<Symbol> {
        SymbolTable::global().lookup(name)
    }

    /// The interned name (global table).
    pub fn as_str(self) -> &'static str {
        SymbolTable::global().resolve(self)
    }

    /// The dense 0-based index of this symbol, usable directly as a slot in
    /// `Vec`-backed per-symbol tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match SymbolTable::global().try_resolve(*self) {
            Some(name) => write!(f, "Symbol({:?})", name),
            None => write!(f, "Symbol(#{})", self.0),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        SymbolTable::global().try_resolve(*self) == Some(other)
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        SymbolTable::global().try_resolve(*self) == Some(*other)
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        other == self
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::intern(name)
    }
}

/// A `HashMap` keyed by [`Symbol`] that hashes with [`SymbolHasher`]: the
/// map for per-call symbol lookups, such as a process's dispatch table.
pub type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymbolHasher>>;

/// A `HashSet` of [`Symbol`]s hashed like a [`SymbolMap`].  Sets keyed on
/// fault cells or crash clusters stay on SipHash: their ordinals, errnos
/// and stacks can come from a plan sent over the wire, whose sender could
/// pick values that collide under [`SymbolHasher`].
pub type SymbolSet = HashSet<Symbol, BuildHasherDefault<SymbolHasher>>;

/// The hasher of a [`SymbolMap`]: one multiply per key instead of SipHash.
///
/// A symbol is a dense id the table hands out, never a value an outside
/// party picks, so the flooding attacks SipHash guards against do not
/// apply.  Multiplying by an odd constant keeps the low bits (the bucket)
/// distinct for consecutive ids and spreads them into the high bits (the
/// tag the map compares first).
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolHasher(u64);

impl SymbolHasher {
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }
}

#[derive(Default)]
struct Inner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

/// An append-only, thread-safe string interner.
///
/// Interned names live for the rest of the process (they are leaked into
/// `'static` storage), which is what makes [`SymbolTable::resolve`] free of
/// locks-held-while-borrowing complications: the table only ever grows, and
/// the set of distinct library/function names a fault-injection campaign
/// touches is small and bounded.
///
/// Most code wants the process-wide shared instance from
/// [`SymbolTable::global`]; standalone tables are for tests and tools that
/// need isolated id spaces.  Symbols are only meaningful together with the
/// table that created them.
#[derive(Default)]
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide table every crate in this workspace shares.  Using
    /// one table means a `Symbol` minted by the scenario compiler can be
    /// compared directly against one minted by the runtime's library
    /// builder.
    pub fn global() -> &'static SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(SymbolTable::new)
    }

    /// Interns `name`, returning its id (allocating one on first sight).
    pub fn intern(&self, name: &str) -> Symbol {
        if let Some(existing) = self.lookup(name) {
            return existing;
        }
        let mut inner = self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Double-check under the write lock: another thread may have interned
        // the same name between our read and write sections.
        if let Some(&id) = inner.ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(inner.names.len()).expect("symbol table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        inner.names.push(leaked);
        inner.ids.insert(leaked, id);
        Symbol(id)
    }

    /// The id of `name`, or `None` if it was never interned.  Never grows
    /// the table.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.ids.get(name).map(|&id| Symbol(id))
    }

    /// The name of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics when `symbol` was not created by this table (a sign of mixing
    /// symbols across tables — use the [global](SymbolTable::global) table
    /// to avoid the hazard entirely).
    pub fn resolve(&self, symbol: Symbol) -> &'static str {
        self.try_resolve(symbol).expect("symbol not interned in this table")
    }

    /// The name of `symbol`, or `None` when this table did not create it.
    pub(crate) fn try_resolve(&self, symbol: Symbol) -> Option<&'static str> {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.names.get(symbol.index()).copied()
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.names.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable").field("symbols", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let table = SymbolTable::new();
        let a = table.intern("read");
        let b = table.intern("write");
        let a2 = table.intern("read");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        assert_eq!(table.resolve(a), "read");
        assert_eq!(table.resolve(b), "write");
        assert_eq!(table.lookup("read"), Some(a));
        assert_eq!(table.lookup("close"), None);
        assert_eq!(table.try_resolve(Symbol(99)), None);
    }

    #[test]
    fn global_table_backs_the_symbol_conveniences() {
        let read = Symbol::intern("lfi_intern_test_read");
        assert_eq!(Symbol::lookup("lfi_intern_test_read"), Some(read));
        assert_eq!(Symbol::lookup("lfi_intern_test_never_interned"), None);
        assert_eq!(read.as_str(), "lfi_intern_test_read");
        assert_eq!(read, "lfi_intern_test_read");
        assert_eq!("lfi_intern_test_read", read);
        assert_eq!(read.to_string(), "lfi_intern_test_read");
        assert!(format!("{read:?}").contains("lfi_intern_test_read"));
        assert_eq!(Symbol::from("lfi_intern_test_read"), read);
        assert_eq!(Symbol::from(&"lfi_intern_test_read".to_owned()), read);
    }

    #[test]
    fn symbol_maps_hash_ids_apart() {
        let table = SymbolTable::new();
        let symbols: Vec<Symbol> = (0..1000).map(|i| table.intern(&format!("sym{i}"))).collect();
        let map: SymbolMap<usize> = symbols.iter().enumerate().map(|(i, &symbol)| (symbol, i)).collect();
        assert!(symbols.iter().enumerate().all(|(i, symbol)| map[symbol] == i));
        let hash = |symbol: Symbol| {
            let mut hasher = SymbolHasher::default();
            std::hash::Hash::hash(&symbol, &mut hasher);
            hasher.finish()
        };
        // Consecutive ids land in distinct buckets and carry distinct tags.
        let buckets: std::collections::HashSet<u64> = symbols[..64].iter().map(|&s| hash(s) & 63).collect();
        let tags: std::collections::HashSet<u64> = symbols[..16].iter().map(|&s| hash(s) >> 57).collect();
        assert_eq!(buckets.len(), 64);
        assert!(tags.len() >= 12, "{tags:?}");
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let table = SymbolTable::new();
        let names: Vec<String> = (0..64).map(|i| format!("sym{i}")).collect();
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| names.iter().map(|n| table.intern(n)).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert_eq!(ids, &per_thread[0]);
        }
        assert_eq!(table.len(), 64);
    }
}

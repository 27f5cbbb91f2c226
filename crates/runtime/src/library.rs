use std::fmt;
use std::sync::Arc;

use lfi_intern::{Symbol, SymbolMap};

use crate::CallContext;

/// The run-time behaviour of one library function, analogous to the machine
/// code the dynamic linker would map into a real process.
///
/// Behaviours receive a [`CallContext`] giving access to the call arguments,
/// the process's `errno`/TLS/global state, the call stack, and the ability to
/// invoke the next definition of the same symbol in the resolution chain
/// (`dlsym(RTLD_NEXT)` in the paper's stubs).
pub(crate) type NativeFn = Arc<dyn Fn(&mut CallContext<'_>) -> i64 + Send + Sync>;

/// A loadable library: a name plus the behaviours of the symbols it defines.
///
/// Interceptor libraries synthesized by the LFI controller and the "original"
/// libraries from the corpus are both [`NativeLibrary`] values; interposition
/// is purely a matter of load order (see [`crate::Process::preload`]).
///
/// Symbol names are interned into the shared [`lfi_intern`] table when the
/// library is built, so per-call dispatch looks behaviours up by [`Symbol`]
/// id and never hashes a string.  A library is immutable once built and is
/// a handle to shared data: cloning one costs a reference-count bump, and a
/// process that loads only this library dispatches straight from its table.
#[derive(Clone)]
pub struct NativeLibrary(Arc<LibraryData>);

struct LibraryData {
    name: String,
    table: ChainTable,
}

impl NativeLibrary {
    /// Starts building a library with the given name.
    pub fn builder(name: impl Into<String>) -> NativeLibraryBuilder {
        NativeLibraryBuilder { name: name.into(), table: ChainTable::default() }
    }

    /// The library's file name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The behaviour registered for `symbol`, if any.
    pub fn function(&self, symbol: &str) -> Option<&NativeFn> {
        self.function_sym(Symbol::lookup(symbol)?)
    }

    /// The behaviour registered for an interned symbol, if any.
    pub fn function_sym(&self, symbol: Symbol) -> Option<&NativeFn> {
        self.table().chain(symbol).map(|chain| &chain[0])
    }

    /// Number of defined symbols.
    pub fn symbol_count(&self) -> usize {
        self.table().spans.len()
    }

    /// The library's chains: one definition per symbol.
    pub(crate) fn table(&self) -> &ChainTable {
        &self.0.table
    }
}

impl fmt::Debug for NativeLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeLibrary")
            .field("name", &self.name())
            .field("symbols", &self.symbol_count())
            .finish()
    }
}

/// Builder for [`NativeLibrary`].
pub struct NativeLibraryBuilder {
    name: String,
    table: ChainTable,
}

impl NativeLibraryBuilder {
    /// Registers a behaviour for a symbol (interning its name).  Registering
    /// the same symbol twice replaces the earlier behaviour.
    pub fn function<F>(self, symbol: impl AsRef<str>, behaviour: F) -> Self
    where
        F: Fn(&mut CallContext<'_>) -> i64 + Send + Sync + 'static,
    {
        self.function_sym(Symbol::intern(symbol.as_ref()), behaviour)
    }

    /// Registers a behaviour for an already-interned symbol.
    pub fn function_sym<F>(mut self, symbol: Symbol, behaviour: F) -> Self
    where
        F: Fn(&mut CallContext<'_>) -> i64 + Send + Sync + 'static,
    {
        let behaviour: NativeFn = Arc::new(behaviour);
        let table = &mut self.table;
        match table.spans.get(&symbol) {
            Some(&(start, _)) => table.fns[start as usize] = behaviour,
            None => {
                table.spans.insert(symbol, (table.fns.len() as u32, table.fns.len() as u32 + 1));
                table.fns.push(behaviour);
            }
        }
        self
    }

    /// Registers a behaviour that ignores its context and returns a constant.
    pub fn constant(self, symbol: impl AsRef<str>, value: i64) -> Self {
        self.function(symbol.as_ref(), move |_| value)
    }

    /// Finishes the library.
    pub fn build(self) -> NativeLibrary {
        NativeLibrary(Arc::new(LibraryData { name: self.name, table: self.table }))
    }
}

impl fmt::Debug for NativeLibraryBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeLibraryBuilder")
            .field("name", &self.name)
            .field("symbols", &self.table.fns.len())
            .finish()
    }
}

/// Resolution chains by symbol: every definition of a symbol, in resolution
/// order, as one contiguous run of `fns`.  A library is a table of one-long
/// chains; a process merges the tables of its libraries (see
/// [`ChainTable::merge`]).  Only symbols with at least one definition have a
/// span, so a chain is never empty.
#[derive(Default)]
pub(crate) struct ChainTable {
    fns: Vec<NativeFn>,
    spans: SymbolMap<(u32, u32)>,
}

impl ChainTable {
    /// The definitions of `symbol` in resolution order, if it has any.
    pub(crate) fn chain(&self, symbol: Symbol) -> Option<&[NativeFn]> {
        self.spans.get(&symbol).map(|&(start, end)| &self.fns[start as usize..end as usize])
    }

    /// One table for `tables` in resolution order: a symbol's chain is the
    /// concatenation of its chains in `tables`, followed by its chain in
    /// `tail` (which contributes no symbol of its own).
    pub(crate) fn merge(tables: &[&ChainTable], tail: Option<&ChainTable>) -> ChainTable {
        let mut defs: Vec<(Symbol, &NativeFn)> = tables
            .iter()
            .flat_map(|table| {
                table.spans.iter().flat_map(|(&symbol, &(start, end))| {
                    table.fns[start as usize..end as usize].iter().map(move |def| (symbol, def))
                })
            })
            .collect();
        // A stable sort keeps each symbol's definitions in resolution order.
        defs.sort_by_key(|&(symbol, _)| symbol);
        let mut merged = ChainTable { fns: Vec::with_capacity(defs.len()), spans: SymbolMap::default() };
        for run in defs.chunk_by(|a, b| a.0 == b.0) {
            let symbol = run[0].0;
            let start = merged.fns.len() as u32;
            merged.fns.extend(run.iter().map(|&(_, def)| Arc::clone(def)));
            merged.fns.extend(tail.and_then(|tail| tail.chain(symbol)).into_iter().flatten().cloned());
            merged.spans.insert(symbol, (start, merged.fns.len() as u32));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_registers_and_replaces_symbols() {
        let lib = NativeLibrary::builder("libc.so.6")
            .constant("getpid", 1234)
            .constant("getpid", 4321)
            .function("read", |ctx| ctx.arg(2))
            .build();
        assert_eq!(lib.name(), "libc.so.6");
        assert_eq!(lib.symbol_count(), 2);
        assert!(lib.function("read").is_some());
        assert!(lib.function("write_never_interned_here").is_none());
        assert!(lib.function_sym(Symbol::intern("read")).is_some());
        let mut symbols: Vec<&str> = lib.table().spans.keys().map(|symbol| symbol.as_str()).collect();
        symbols.sort_unstable();
        assert_eq!(symbols, vec!["getpid", "read"]);
        assert!(format!("{lib:?}").contains("libc.so.6"));
    }
}

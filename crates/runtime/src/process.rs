use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use lfi_intern::Symbol;

use crate::library::{ChainTable, NativeFn};
use crate::{NativeLibrary, RuntimeError};

/// Default bound on the recorded call log (see
/// [`ProcessState::set_call_log_capacity`]): generous enough for every
/// workload in this repo, small enough that a long overhead campaign cannot
/// grow memory without limit.
pub const DEFAULT_CALL_LOG_CAPACITY: usize = 1 << 20;

/// The mutable state of a simulated process that library behaviours can
/// observe and modify: `errno`, per-module TLS and global data, and the call
/// stack used by stack-trace triggers.
///
/// Module names and stack frames are stored as interned [`Symbol`]s; the
/// string-keyed accessors intern (writes) or look up (reads) once at the
/// call boundary, and symbol-keyed twins skip even that.
#[derive(Debug, Clone)]
pub struct ProcessState {
    errno: i64,
    tls: HashMap<(Symbol, u32), i64>,
    globals: HashMap<(Symbol, u32), i64>,
    stack: Vec<Symbol>,
    call_log: Vec<Symbol>,
    call_log_enabled: bool,
    call_log_capacity: usize,
    call_log_dropped: u64,
}

impl Default for ProcessState {
    fn default() -> Self {
        Self {
            errno: 0,
            tls: HashMap::new(),
            globals: HashMap::new(),
            stack: Vec::new(),
            call_log: Vec::new(),
            call_log_enabled: false,
            call_log_capacity: DEFAULT_CALL_LOG_CAPACITY,
            call_log_dropped: 0,
        }
    }
}

impl ProcessState {
    /// Current `errno` value.
    pub fn errno(&self) -> i64 {
        self.errno
    }

    /// Sets `errno`.
    pub(crate) fn set_errno(&mut self, value: i64) {
        self.errno = value;
    }

    /// Reads a TLS slot of a module (0 if never written).
    pub fn tls(&self, module: &str, offset: u32) -> i64 {
        Symbol::lookup(module).map_or(0, |module| self.tls_sym(module, offset))
    }

    /// Reads a TLS slot of an interned module (0 if never written).
    pub(crate) fn tls_sym(&self, module: Symbol, offset: u32) -> i64 {
        *self.tls.get(&(module, offset)).unwrap_or(&0)
    }

    /// Writes a TLS slot of an interned module — the allocation-free path
    /// fault side effects use per call.
    pub fn set_tls_sym(&mut self, module: Symbol, offset: u32, value: i64) {
        self.tls.insert((module, offset), value);
    }

    /// Reads a global slot of a module (0 if never written).
    pub fn global(&self, module: &str, offset: u32) -> i64 {
        Symbol::lookup(module).map_or(0, |module| self.global_sym(module, offset))
    }

    /// Reads a global slot of an interned module (0 if never written).
    pub(crate) fn global_sym(&self, module: Symbol, offset: u32) -> i64 {
        *self.globals.get(&(module, offset)).unwrap_or(&0)
    }

    /// Writes a global slot of an interned module.
    pub fn set_global_sym(&mut self, module: Symbol, offset: u32, value: i64) {
        self.globals.insert((module, offset), value);
    }

    /// The current call stack, innermost frame last.
    pub(crate) fn stack(&self) -> &[Symbol] {
        &self.stack
    }

    /// When enabled, every dispatched library call is appended to
    /// [`ProcessState::call_log`]; used by the controller to find the
    /// most-called functions for the overhead experiments.
    pub fn set_call_log_enabled(&mut self, enabled: bool) {
        self.call_log_enabled = enabled;
    }

    /// Bounds the call log at `capacity` entries.  Once full, further calls
    /// are counted in [`ProcessState::call_log_dropped`] instead of recorded,
    /// so long overhead campaigns cannot grow memory without limit; drain
    /// periodically with [`ProcessState::drain_call_log`] if you need the
    /// full stream.  The default is [`DEFAULT_CALL_LOG_CAPACITY`].
    pub fn set_call_log_capacity(&mut self, capacity: usize) {
        self.call_log_capacity = capacity;
        if self.call_log.len() > capacity {
            // Shrinking discards the newest recorded entries; count them as
            // dropped so `len() + dropped()` keeps reflecting total volume.
            self.call_log_dropped += (self.call_log.len() - capacity) as u64;
            self.call_log.truncate(capacity);
        }
    }

    /// The configured call-log bound.
    pub fn call_log_capacity(&self) -> usize {
        self.call_log_capacity
    }

    /// Number of calls dropped because the log was at capacity.
    pub fn call_log_dropped(&self) -> u64 {
        self.call_log_dropped
    }

    /// The recorded library calls, in order.
    pub fn call_log(&self) -> &[Symbol] {
        &self.call_log
    }

    /// The recorded library calls resolved to names, in order.
    pub fn call_log_names(&self) -> Vec<&'static str> {
        self.call_log.iter().map(|symbol| symbol.as_str()).collect()
    }

    /// Takes the recorded calls out of the log, resetting it (and the
    /// dropped-call counter) so recording can continue from a clean slate.
    pub fn drain_call_log(&mut self) -> Vec<Symbol> {
        self.call_log_dropped = 0;
        std::mem::take(&mut self.call_log)
    }

    /// Clears the recorded library calls.
    pub fn clear_call_log(&mut self) {
        self.call_log.clear();
        self.call_log_dropped = 0;
    }

    fn record_call(&mut self, symbol: Symbol) {
        if self.call_log.len() < self.call_log_capacity {
            self.call_log.push(symbol);
        } else {
            self.call_log_dropped += 1;
        }
    }
}

/// An opaque function-pointer value handed out by [`Process::fnptr`].
///
/// Programs (and library behaviours) can stash these and later call through
/// them with [`Process::call_ptr`] / [`CallContext::call_ptr`]; the pointer is
/// resolved back to its symbol *at call time*, so preloaded interceptors see
/// indirect calls exactly like direct ones.  This is the runtime counterpart
/// of §3.1's observation that "the LFI controller could dynamically resolve
/// indirect calls at runtime and inject the return codes corresponding to the
/// function being called".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnPtr(u64);

/// Base value of simulated function-pointer handles, chosen to resemble a
/// shared-library load address.
const FNPTR_BASE: u64 = 0x7f00_0000_0000;

/// A simulated process: an ordered set of loaded libraries and the state the
/// program and its libraries share.
///
/// Symbol resolution follows load order, so a library loaded with
/// [`Process::preload`] shadows later definitions exactly as `LD_PRELOAD`
/// makes the LFI interceptor shadow the original library (§5.1); the shadowed
/// definition remains reachable through [`CallContext::call_next`].
///
/// Dispatch is keyed by interned [`Symbol`] ids end to end: the string-taking
/// [`Process::call`] looks its argument up once at the boundary (a name no
/// library ever defined resolves to nothing without growing the symbol
/// table), and [`Process::call_sym`] lets callers that resolved the symbol at
/// setup time (benches, interceptor stubs, tight workload loops) skip even
/// that hash.
///
/// A call finds its resolution chain — every definition of the symbol, in
/// resolution order — with one or two lookups in symbol-keyed tables, and
/// allocates nothing.  The tables come in two layers:
///
/// - the *base*, for the libraries loaded with [`Process::load`]: built once,
///   at the first resolution after a load, and shared by every clone and
///   snapshot of the process (a process that loads one library dispatches
///   straight from that library's own table);
/// - the *overlay*, for the libraries loaded with [`Process::preload`]: the
///   full chains of only the symbols they define, built at the preload.  A
///   symbol the overlay lacks resolves in the base.
///
/// A per-case interceptor therefore costs a table the size of the
/// interceptor, and [`Process::restore`] drops it again without touching the
/// base.
///
/// Processes are `Send + Sync + Clone`: a clone shares the (immutable)
/// library behaviours and chain tables but owns its own state, so
/// independent clones can run concurrently on different threads — the
/// contract parallel campaign execution (`lfi-controller`'s
/// `Campaign::parallelism`) builds on.
#[derive(Clone, Default)]
pub struct Process {
    links: LinkMap,
    machine: Machine,
}

/// The libraries of a process in resolution order, and the chain tables a
/// call resolves in.  Immutable while a call runs: only [`Process::load`],
/// [`Process::preload`] and [`Process::restore`] change it.
#[derive(Clone, Default)]
struct LinkMap {
    base: Arc<Base>,
    overlay: Option<Arc<Overlay>>,
}

/// The libraries loaded with [`Process::load`], in load order, and — when
/// there are several — their merged chains, built at the first resolution
/// and shared by every process and snapshot holding this `Arc`.
#[derive(Default)]
struct Base {
    libraries: Vec<NativeLibrary>,
    merged: OnceLock<ChainTable>,
}

/// The libraries loaded with [`Process::preload`], most recent first, and
/// the full chains (their definitions, then the base's) of the symbols they
/// define.
struct Overlay {
    libraries: Vec<NativeLibrary>,
    chains: ChainTable,
}

impl LinkMap {
    /// The resolution chain of `symbol`, or `None` when no library defines
    /// it.  Never empty.
    fn chain(&self, symbol: Symbol) -> Option<&[NativeFn]> {
        if let Some(chain) = self.overlay.as_ref().and_then(|overlay| overlay.chains.chain(symbol)) {
            return Some(chain);
        }
        self.base_chains().chain(symbol)
    }

    fn base_chains(&self) -> &ChainTable {
        match self.base.libraries.as_slice() {
            [library] => library.table(),
            libraries => self.base.merged.get_or_init(|| {
                let tables: Vec<&ChainTable> = libraries.iter().map(NativeLibrary::table).collect();
                ChainTable::merge(&tables, None)
            }),
        }
    }

    fn load(&mut self, library: NativeLibrary) {
        match Arc::get_mut(&mut self.base) {
            // No clone or snapshot shares this base: extend it in place.
            Some(base) => {
                base.libraries.push(library);
                base.merged = OnceLock::new();
            }
            None => {
                let mut libraries = self.base.libraries.clone();
                libraries.push(library);
                self.base = Arc::new(Base { libraries, merged: OnceLock::new() });
            }
        }
        if let Some(overlay) = self.overlay.take() {
            // The overlay's chains end in the base's, so they are rebuilt
            // against the new base.
            self.set_overlay(overlay.libraries.clone());
        }
    }

    fn preload(&mut self, library: NativeLibrary) {
        let mut libraries = vec![library];
        if let Some(overlay) = &self.overlay {
            libraries.extend(overlay.libraries.iter().cloned());
        }
        self.set_overlay(libraries);
    }

    fn set_overlay(&mut self, libraries: Vec<NativeLibrary>) {
        let tables: Vec<&ChainTable> = libraries.iter().map(NativeLibrary::table).collect();
        let chains = ChainTable::merge(&tables, Some(self.base_chains()));
        self.overlay = Some(Arc::new(Overlay { libraries, chains }));
    }

    /// Whether `self` and `other` hold the same tables, not merely equal
    /// ones.
    fn same(&self, other: &LinkMap) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
            && match (&self.overlay, &other.overlay) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }

    /// Every library in resolution order.
    fn libraries(&self) -> impl Iterator<Item = &NativeLibrary> {
        self.overlay.iter().flat_map(|overlay| &overlay.libraries).chain(&self.base.libraries)
    }
}

impl fmt::Debug for LinkMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.libraries().map(NativeLibrary::name)).finish()
    }
}

/// The half of a process a call may change: everything but the libraries.
#[derive(Clone, Default)]
struct Machine {
    state: ProcessState,
    max_call_depth: usize,
    fnptrs: Vec<Symbol>,
    /// Memoized name→symbol resolutions, so string-keyed calls hash only a
    /// process-local map instead of taking the global table's lock.  Never
    /// needs invalidation: interning is append-only, so a hit can't go stale.
    name_cache: HashMap<String, Symbol>,
}

impl Machine {
    /// Resolves a caller-supplied name to its symbol without growing the
    /// global table (a miss proves no library defines it, since every
    /// definable name was interned at library build time).  Hits are
    /// memoized per process so the global table's lock stays off the
    /// call path.
    fn lookup_name(&mut self, name: &str) -> Option<Symbol> {
        if let Some(&symbol) = self.name_cache.get(name) {
            return Some(symbol);
        }
        let symbol = Symbol::lookup(name)?;
        self.name_cache.insert(name.to_owned(), symbol);
        Some(symbol)
    }

    fn call_name(&mut self, links: &LinkMap, name: &str, args: &[i64], depth: usize) -> Result<i64, RuntimeError> {
        match self.lookup_name(name) {
            Some(symbol) => self.call(links, symbol, args, depth),
            None => Err(RuntimeError::UnresolvedSymbol { name: name.to_owned() }),
        }
    }

    fn call(&mut self, links: &LinkMap, symbol: Symbol, args: &[i64], depth: usize) -> Result<i64, RuntimeError> {
        if depth > self.max_call_depth {
            return Err(RuntimeError::CallDepthExceeded { limit: self.max_call_depth });
        }
        let Some(chain) = links.chain(symbol) else {
            return Err(RuntimeError::UnresolvedSymbol { name: symbol.as_str().to_owned() });
        };
        if self.state.call_log_enabled {
            self.state.record_call(symbol);
        }
        self.state.stack.push(symbol);
        let mut context =
            CallContext { links, machine: self, symbol, chain, chain_index: 0, args: Args::new(args), depth };
        let result = chain[0](&mut context);
        self.state.stack.pop();
        Ok(result)
    }

    fn call_ptr(&mut self, links: &LinkMap, ptr: FnPtr, args: &[i64], depth: usize) -> Result<i64, RuntimeError> {
        match self.fnptr_symbol_id(ptr) {
            Some(symbol) => self.call(links, symbol, args, depth),
            None => Err(RuntimeError::InvalidFunctionPointer { value: ptr.0 }),
        }
    }

    fn fnptr_name(&mut self, links: &LinkMap, name: &str) -> Result<FnPtr, RuntimeError> {
        match self.lookup_name(name) {
            Some(symbol) => self.fnptr(links, symbol),
            None => Err(RuntimeError::UnresolvedSymbol { name: name.to_owned() }),
        }
    }

    fn fnptr(&mut self, links: &LinkMap, symbol: Symbol) -> Result<FnPtr, RuntimeError> {
        if links.chain(symbol).is_none() {
            return Err(RuntimeError::UnresolvedSymbol { name: symbol.as_str().to_owned() });
        }
        let index = match self.fnptrs.iter().position(|&s| s == symbol) {
            Some(existing) => existing,
            None => {
                self.fnptrs.push(symbol);
                self.fnptrs.len() - 1
            }
        };
        Ok(FnPtr(FNPTR_BASE + index as u64 * 16))
    }

    fn fnptr_symbol_id(&self, ptr: FnPtr) -> Option<Symbol> {
        let index = ptr.0.checked_sub(FNPTR_BASE)? / 16;
        self.fnptrs.get(index as usize).copied()
    }
}

impl Process {
    /// Creates an empty process.
    pub fn new() -> Self {
        Self { machine: Machine { max_call_depth: 256, ..Machine::default() }, ..Self::default() }
    }

    /// Loads a library at the *end* of the resolution order (a normal
    /// `DT_NEEDED` dependency).
    pub fn load(&mut self, library: NativeLibrary) {
        self.links.load(library);
    }

    /// Loads a library at the *front* of the resolution order
    /// (the `LD_PRELOAD` slot used by interceptor libraries).
    pub fn preload(&mut self, library: NativeLibrary) {
        self.links.preload(library);
    }

    /// The libraries currently loaded, in resolution order.
    pub fn loaded_libraries(&self) -> impl Iterator<Item = &str> {
        self.links.libraries().map(NativeLibrary::name)
    }

    /// Shared process state.
    pub fn state(&self) -> &ProcessState {
        &self.machine.state
    }

    /// Mutable access to shared process state.
    pub fn state_mut(&mut self) -> &mut ProcessState {
        &mut self.machine.state
    }

    /// Enables or disables the dispatch call log — the process-level twin of
    /// [`ProcessState::set_call_log_enabled`], used by campaign drivers that
    /// only hold the process.
    pub fn set_call_log_enabled(&mut self, enabled: bool) {
        self.machine.state.set_call_log_enabled(enabled);
    }

    /// Takes the recorded calls out of the log, resetting it — the
    /// process-level twin of [`ProcessState::drain_call_log`].  Campaign
    /// drivers drain here after each workload run so per-case call streams
    /// never accumulate across cases.
    pub fn drain_call_log(&mut self) -> Vec<Symbol> {
        self.machine.state.drain_call_log()
    }

    /// Pushes an application-level stack frame (e.g. `refresh_files`), so that
    /// stack-trace triggers can match application call sites.
    pub fn push_frame(&mut self, frame: impl AsRef<str>) {
        self.machine.state.stack.push(Symbol::intern(frame.as_ref()));
    }

    /// Pops the innermost application-level stack frame.
    pub fn pop_frame(&mut self) {
        self.machine.state.stack.pop();
    }

    /// Calls a library function by name, dispatching to the first definition
    /// in load order (interceptors first).  The name is looked up (never
    /// interned) once here; everything downstream operates on the [`Symbol`]
    /// id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnresolvedSymbol`] when no loaded library
    /// defines the symbol, and [`RuntimeError::CallDepthExceeded`] on runaway
    /// recursion.
    pub fn call(&mut self, symbol: &str, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call_name(&self.links, symbol, args, 0)
    }

    /// Calls a library function by interned symbol — the string-free
    /// entry point for callers that resolved the name at setup time.
    ///
    /// # Errors
    ///
    /// As for [`Process::call`].
    pub fn call_sym(&mut self, symbol: Symbol, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call(&self.links, symbol, args, 0)
    }

    /// Resolves a symbol to an opaque function pointer — the `dlsym` analogue
    /// for programs that call libraries through pointers (callback tables,
    /// vtables, plugin registries).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnresolvedSymbol`] when no loaded library
    /// defines the symbol at resolution time.
    pub fn fnptr(&mut self, symbol: &str) -> Result<FnPtr, RuntimeError> {
        self.machine.fnptr_name(&self.links, symbol)
    }

    /// Calls through a function pointer.  The pointer is resolved back to its
    /// symbol *now*, at call time, and the call then goes through the regular
    /// resolution chain — so interceptors synthesized by the controller apply
    /// to indirect calls too, injecting the error codes of whichever function
    /// the pointer currently designates.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidFunctionPointer`] when the value was not
    /// produced by [`Process::fnptr`], plus any error the resolved call can
    /// produce.
    pub fn call_ptr(&mut self, ptr: FnPtr, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call_ptr(&self.links, ptr, args, 0)
    }

    /// Records the process's complete observable state — loaded libraries
    /// (by identity), `errno`/TLS/global data, the call stack, the call log
    /// and its configuration, and the function-pointer table — as a baseline
    /// for [`Process::restore`].
    ///
    /// Libraries and their chain tables are captured by reference (they are
    /// immutable once built), so a snapshot is cheap to take and to hold.
    pub fn snapshot(&self) -> ProcessSnapshot {
        ProcessSnapshot {
            links: self.links.clone(),
            state: self.machine.state.clone(),
            max_call_depth: self.machine.max_call_depth,
            fnptrs: self.machine.fnptrs.clone(),
        }
    }

    /// Restores the process to a previously recorded [`ProcessSnapshot`].
    ///
    /// # Determinism contract
    ///
    /// After `restore`, the process is *observably identical* to what it was
    /// when the snapshot was taken: the same libraries resolve in the same
    /// order, every TLS/global slot, `errno`, the call stack, the call log
    /// (contents, capacity, enablement, dropped-call counter) and the
    /// function-pointer table hold the values they held then.
    ///
    /// The chain tables come back by reference, not by rebuilding: the
    /// snapshot holds the base table it was taken with (built once and
    /// shared, so an arena checkout finds it warm) and the overlay it was
    /// taken with — usually none, so a per-case interceptor preloaded since
    /// is simply dropped.  The name→symbol cache survives because interning
    /// is append-only, so a hit can never go stale.  None of these is
    /// observable: a campaign may interleave restored and freshly built
    /// processes in any order without affecting a fixed-seed run's outcome —
    /// the contract `ProcessArena` and parallel campaign execution build on.
    ///
    /// State held *outside* the process — e.g. a simulated world captured by
    /// library closures — is not covered; pair `restore` with a workload
    /// reset hook (see `ProcessArena`) for that.
    pub fn restore(&mut self, snapshot: &ProcessSnapshot) {
        if !self.links.same(&snapshot.links) {
            self.links = snapshot.links.clone();
        }
        self.machine.state = snapshot.state.clone();
        self.machine.max_call_depth = snapshot.max_call_depth;
        self.machine.fnptrs.clone_from(&snapshot.fnptrs);
    }
}

/// A recorded baseline of a [`Process`], produced by [`Process::snapshot`]
/// and consumed by [`Process::restore`].  See the restore documentation for
/// the determinism contract.
#[derive(Debug, Clone)]
pub struct ProcessSnapshot {
    links: LinkMap,
    state: ProcessState,
    max_call_depth: usize,
    fnptrs: Vec<Symbol>,
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("libraries", &self.links)
            .field("state", &self.machine.state)
            .field("max_call_depth", &self.machine.max_call_depth)
            .field("fnptrs", &self.machine.fnptrs)
            .finish()
    }
}

/// Arguments a call holds without allocating; more spill to a `Vec`.
const INLINE_ARGS: usize = 6;

/// A call's arguments: inline up to [`INLINE_ARGS`] of them, on the heap
/// beyond.  Inline slots past `len` are always zero, so growing `len`
/// extends with zeros.
enum Args {
    Inline { len: usize, values: [i64; INLINE_ARGS] },
    Spilled(Vec<i64>),
}

impl Args {
    fn new(args: &[i64]) -> Self {
        if args.len() > INLINE_ARGS {
            return Args::Spilled(args.to_vec());
        }
        let mut values = [0; INLINE_ARGS];
        values[..args.len()].copy_from_slice(args);
        Args::Inline { len: args.len(), values }
    }

    fn as_slice(&self) -> &[i64] {
        match self {
            Args::Inline { len, values } => &values[..*len],
            Args::Spilled(values) => values,
        }
    }

    fn set(&mut self, index: usize, value: i64) {
        match self {
            Args::Inline { len, values } if index < INLINE_ARGS => {
                *len = (*len).max(index + 1);
                values[index] = value;
            }
            Args::Inline { len, values } => {
                let mut spilled = values[..*len].to_vec();
                spilled.resize(index + 1, 0);
                spilled[index] = value;
                *self = Args::Spilled(spilled);
            }
            Args::Spilled(values) => {
                if values.len() <= index {
                    values.resize(index + 1, 0);
                }
                values[index] = value;
            }
        }
    }
}

/// The view a library behaviour gets of the call it is servicing.
pub struct CallContext<'p> {
    links: &'p LinkMap,
    machine: &'p mut Machine,
    symbol: Symbol,
    chain: &'p [NativeFn],
    chain_index: usize,
    args: Args,
    depth: usize,
}

impl CallContext<'_> {
    /// The call arguments (possibly already modified by an interceptor).
    pub fn args(&self) -> &[i64] {
        self.args.as_slice()
    }

    /// The `index`-th argument, or 0 when absent.
    pub fn arg(&self, index: usize) -> i64 {
        self.args().get(index).copied().unwrap_or(0)
    }

    /// Overwrites the `index`-th argument (extending with zeros if needed), as
    /// the scenario language's `<modify>` element requires.
    pub fn set_arg(&mut self, index: usize, value: i64) {
        self.args.set(index, value);
    }

    /// Current `errno`.
    pub fn errno(&self) -> i64 {
        self.machine.state.errno()
    }

    /// Sets `errno`.
    pub fn set_errno(&mut self, value: i64) {
        self.machine.state.set_errno(value);
    }

    /// Shared process state.
    pub fn state(&mut self) -> &mut ProcessState {
        &mut self.machine.state
    }

    /// The current call stack, innermost frame last (includes this call).
    pub fn stack(&self) -> &[Symbol] {
        self.machine.state.stack()
    }

    /// Invokes the next definition of the same symbol in the resolution chain
    /// with the (possibly modified) arguments — the `dlsym(RTLD_NEXT)` +
    /// `jmp` path of the paper's stub.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ChainExhausted`] when there is no further
    /// definition (the interceptor was loaded without the original library).
    pub fn call_next(&mut self) -> Result<i64, RuntimeError> {
        let chain = self.chain;
        let Some(next) = chain.get(self.chain_index + 1) else {
            return Err(RuntimeError::ChainExhausted { name: self.symbol.as_str().to_owned() });
        };
        self.chain_index += 1;
        let result = next(self);
        self.chain_index -= 1;
        Ok(result)
    }

    /// Makes a fresh call to another library function (a nested call with its
    /// own resolution chain).
    ///
    /// # Errors
    ///
    /// Propagates resolution and recursion errors from the nested call.
    pub fn call(&mut self, symbol: &str, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call_name(self.links, symbol, args, self.depth + 1)
    }

    /// Makes a fresh call to another library function by interned symbol.
    ///
    /// # Errors
    ///
    /// As for [`CallContext::call`].
    pub fn call_sym(&mut self, symbol: Symbol, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call(self.links, symbol, args, self.depth + 1)
    }

    /// Makes a fresh call to another library function with this call's
    /// (possibly modified) arguments, without copying them — what a wrapper
    /// such as APR's `apr_file_read` does with `read`.
    ///
    /// # Errors
    ///
    /// As for [`CallContext::call`].
    pub fn forward(&mut self, symbol: &str) -> Result<i64, RuntimeError> {
        self.machine.call_name(self.links, symbol, self.args.as_slice(), self.depth + 1)
    }

    /// Resolves a symbol to a function pointer (see [`Process::fnptr`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnresolvedSymbol`] when the symbol is not
    /// defined by any loaded library.
    pub fn fnptr(&mut self, symbol: &str) -> Result<FnPtr, RuntimeError> {
        self.machine.fnptr_name(self.links, symbol)
    }

    /// Makes a fresh call through a function pointer (see
    /// [`Process::call_ptr`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidFunctionPointer`] for values not
    /// produced by [`Process::fnptr`], plus any error from the resolved call.
    pub fn call_ptr(&mut self, ptr: FnPtr, args: &[i64]) -> Result<i64, RuntimeError> {
        self.machine.call_ptr(self.links, ptr, args, self.depth + 1)
    }
}

impl std::fmt::Debug for CallContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallContext")
            .field("symbol", &self.symbol)
            .field("args", &self.args())
            .field("chain_len", &self.chain.len())
            .field("chain_index", &self.chain_index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn libc() -> NativeLibrary {
        NativeLibrary::builder("libc.so.6")
            .constant("getpid", 1234)
            .function("read", |ctx| {
                // "read" returns the requested byte count and clears errno.
                ctx.set_errno(0);
                ctx.arg(2)
            })
            .function("checked_read", |ctx| {
                // A libc function calling another libc function.
                let n = ctx.forward("read").unwrap_or(-1);
                if n < 0 {
                    ctx.set_errno(5);
                }
                n
            })
            .build()
    }

    #[test]
    fn plain_calls_resolve_to_the_loaded_library() {
        let mut process = Process::new();
        process.load(libc());
        assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
        assert_eq!(process.call("read", &[3, 0x1000, 64]).unwrap(), 64);
        assert_eq!(process.state().errno(), 0);
        assert!(matches!(process.call("write", &[]), Err(RuntimeError::UnresolvedSymbol { .. })));
    }

    #[test]
    fn symbol_calls_match_name_calls() {
        let mut process = Process::new();
        process.load(libc());
        let read = Symbol::intern("read");
        assert_eq!(process.call_sym(read, &[3, 0, 64]).unwrap(), 64);
        assert_eq!(process.call_sym(read, &[3, 0, 64]).unwrap(), process.call("read", &[3, 0, 64]).unwrap());
        let missing = Symbol::intern("never_defined_anywhere");
        assert!(
            matches!(process.call_sym(missing, &[]), Err(RuntimeError::UnresolvedSymbol { name }) if name == "never_defined_anywhere")
        );
    }

    #[test]
    fn preloaded_interceptor_shadows_and_chains_to_the_original() {
        let mut process = Process::new();
        process.load(libc());
        let interceptor = NativeLibrary::builder("lfi_interceptor.so")
            .function("read", |ctx| {
                // Inject a short read on the first argument value 7, otherwise
                // pass through to the original definition.
                if ctx.arg(0) == 7 {
                    ctx.set_errno(4);
                    -1
                } else {
                    ctx.call_next().unwrap()
                }
            })
            .build();
        process.preload(interceptor);
        assert_eq!(process.loaded_libraries().next(), Some("lfi_interceptor.so"));
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
        assert_eq!(process.call("read", &[7, 0, 64]).unwrap(), -1);
        assert_eq!(process.state().errno(), 4);
        // Symbols the interceptor does not define still resolve normally.
        assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
    }

    #[test]
    fn chain_exhaustion_is_reported() {
        let mut process = Process::new();
        process.preload(
            NativeLibrary::builder("lonely.so")
                .function("read", |ctx| ctx.call_next().map_or(-99, |v| v))
                .build(),
        );
        assert_eq!(process.call("read", &[]).unwrap(), -99);
    }

    #[test]
    fn nested_calls_and_stack_frames() {
        let mut process = Process::new();
        process.load(libc());
        process.push_frame("refresh_files");
        // During the call the stack is [refresh_files, checked_read, read];
        // verify via an interceptor that captures it.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::<Symbol>::new()));
        let seen_clone = std::sync::Arc::clone(&seen);
        process.preload(
            NativeLibrary::builder("spy.so")
                .function("read", move |ctx| {
                    *seen_clone.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = ctx.stack().to_vec();
                    ctx.call_next().unwrap()
                })
                .build(),
        );
        assert_eq!(process.call("checked_read", &[1, 0, 8]).unwrap(), 8);
        process.pop_frame();
        let frames: Vec<&str> = seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|s| s.as_str())
            .collect();
        assert_eq!(frames, vec!["refresh_files", "checked_read", "read"]);
        assert!(process.state().stack().is_empty());
        assert!(process.state().stack.is_empty());
    }

    #[test]
    fn call_log_records_dispatches_when_enabled() {
        let mut process = Process::new();
        process.load(libc());
        process.state_mut().set_call_log_enabled(true);
        process.call("getpid", &[]).unwrap();
        process.call("checked_read", &[1, 0, 4]).unwrap();
        assert_eq!(process.state().call_log_names(), vec!["getpid", "checked_read", "read"]);
        assert_eq!(process.state().call_log().len(), 3);
        process.state_mut().clear_call_log();
        assert!(process.state().call_log().is_empty());
    }

    #[test]
    fn call_log_capacity_bounds_memory_and_drain_resets() {
        let mut process = Process::new();
        process.load(libc());
        process.state_mut().set_call_log_enabled(true);
        process.state_mut().set_call_log_capacity(2);
        assert_eq!(process.state().call_log_capacity(), 2);
        for _ in 0..5 {
            process.call("getpid", &[]).unwrap();
        }
        assert_eq!(process.state().call_log().len(), 2, "log is capped");
        assert_eq!(process.state().call_log_dropped(), 3, "overflow is counted, not stored");

        let drained = process.state_mut().drain_call_log();
        assert_eq!(drained.len(), 2);
        assert_eq!(process.state().call_log_dropped(), 0);
        assert!(process.state().call_log().is_empty());
        // Recording continues after a drain.
        process.call("getpid", &[]).unwrap();
        assert_eq!(process.state().call_log().len(), 1);

        // Shrinking the capacity truncates an over-full log, and the
        // discarded entries are counted as dropped.
        process.state_mut().set_call_log_capacity(0);
        assert!(process.state().call_log().is_empty());
        assert_eq!(process.state().call_log_dropped(), 1);
    }

    #[test]
    fn argument_modification_is_visible_to_the_original() {
        let mut process = Process::new();
        process.load(libc());
        process.preload(
            NativeLibrary::builder("modify.so")
                .function("read", |ctx| {
                    let shorter = ctx.arg(2) - 10;
                    ctx.set_arg(2, shorter);
                    ctx.call_next().unwrap()
                })
                .build(),
        );
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 54);
    }

    #[test]
    fn runaway_recursion_is_stopped() {
        let mut process = Process::new();
        process.load(
            NativeLibrary::builder("librec.so")
                .function("spin", |ctx| ctx.call("spin", &[]).unwrap_or(-1))
                .build(),
        );
        assert_eq!(process.call("spin", &[]).unwrap(), -1);
    }

    #[test]
    fn function_pointers_resolve_at_call_time_through_the_chain() {
        let mut process = Process::new();
        process.load(libc());
        // The program obtains the pointer *before* the interceptor is loaded,
        // the way a long-lived callback table would.
        let read_ptr = process.fnptr("read").unwrap();
        let getpid_ptr = process.fnptr("getpid").unwrap();
        assert_ne!(read_ptr, getpid_ptr);
        assert_eq!(process.fnptr("read").unwrap(), read_ptr, "same symbol yields the same pointer");
        assert_eq!(process.machine.fnptr_symbol_id(read_ptr).map(Symbol::as_str), Some("read"));
        assert_eq!(process.machine.fnptr_symbol_id(read_ptr), Some(Symbol::intern("read")));
        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), 64);

        // Loading an interceptor afterwards still affects indirect calls,
        // because resolution happens when the pointer is invoked.
        process.preload(
            NativeLibrary::builder("lfi_interceptor.so")
                .function("read", |ctx| {
                    ctx.set_errno(9);
                    -1
                })
                .build(),
        );
        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), -1);
        assert_eq!(process.state().errno(), 9);
        // A pointer to an unintercepted function is unaffected.
        assert_eq!(process.call_ptr(getpid_ptr, &[]).unwrap(), 1234);
    }

    #[test]
    fn invalid_and_unresolved_function_pointers_are_rejected() {
        let mut process = Process::new();
        process.load(libc());
        assert!(matches!(process.fnptr("no_such_symbol"), Err(RuntimeError::UnresolvedSymbol { .. })));
        let bogus = FnPtr(0xdead_beef);
        assert!(matches!(
            process.call_ptr(bogus, &[]),
            Err(RuntimeError::InvalidFunctionPointer { value: 0xdead_beef })
        ));
        assert_eq!(process.machine.fnptr_symbol_id(bogus).map(Symbol::as_str), None);
    }

    #[test]
    fn library_behaviours_can_make_indirect_calls() {
        let mut process = Process::new();
        process.load(libc());
        process.load(
            NativeLibrary::builder("libplugin.so")
                .function("invoke_callback", |ctx| {
                    // Resolve and call `read` through a pointer from inside a
                    // library behaviour (depth-tracked nested call).
                    let ptr = ctx.fnptr("read").unwrap();
                    ctx.call_ptr(ptr, &[1, 0, 32]).unwrap_or(-1)
                })
                .build(),
        );
        assert_eq!(process.call("invoke_callback", &[1, 0, 32]).unwrap(), 32);
    }

    #[test]
    fn fnptr_raw_values_look_like_addresses_and_round_trip() {
        let mut process = Process::new();
        process.load(libc());
        let ptr = process.fnptr("getpid").unwrap();
        assert!(ptr.0 >= 0x7f00_0000_0000);
        assert_eq!(process.machine.fnptr_symbol_id(ptr).map(Symbol::as_str), Some("getpid"));
    }

    #[test]
    fn cloned_processes_run_independently_on_their_own_threads() {
        // The contract parallel campaigns rely on: clones share library
        // behaviours but own their state, and can run on worker threads.
        let mut template = Process::new();
        template.load(libc());
        template.state_mut().set_call_log_enabled(true);
        let results: Vec<(i64, i64, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let mut process = template.clone();
                    scope.spawn(move || {
                        let value = process.call("read", &[3, 0, 10 + i]).unwrap();
                        (value, process.state().errno(), process.state().call_log().len())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (value, errno, calls)) in results.into_iter().enumerate() {
            assert_eq!(value, 10 + i as i64);
            assert_eq!(errno, 0);
            assert_eq!(calls, 1, "each clone has its own call log");
        }
        // The template never ran anything.
        assert!(template.state().call_log().is_empty());
    }

    /// A library whose `echo` returns a digest of every argument it got, in
    /// order, and `count` their number.
    fn echo() -> NativeLibrary {
        NativeLibrary::builder("libecho.so")
            .function("echo", |ctx| ctx.args().iter().fold(0, |acc, &arg| acc * 31 + arg))
            .function("count", |ctx| ctx.args().len() as i64)
            .build()
    }

    fn digest(args: &[i64]) -> i64 {
        args.iter().fold(0, |acc, &arg| acc * 31 + arg)
    }

    #[test]
    fn more_arguments_than_fit_inline_reach_the_original_intact() {
        let mut process = Process::new();
        process.load(echo());
        process.preload(NativeLibrary::builder("pass.so").function("echo", |ctx| ctx.call_next().unwrap()).build());
        let args: Vec<i64> = (1..=9).collect();
        assert_eq!(process.call("echo", &args).unwrap(), digest(&args));
        assert_eq!(process.call("count", &args).unwrap(), 9);
        assert_eq!(process.call("count", &[]).unwrap(), 0);
    }

    #[test]
    fn set_arg_past_the_inline_arguments_extends_with_zeros() {
        let mut process = Process::new();
        process.load(echo());
        process.preload(
            NativeLibrary::builder("widen.so")
                .function("echo", |ctx| {
                    ctx.set_arg(8, 5);
                    assert_eq!(ctx.args(), [1, 2, 0, 0, 0, 0, 0, 0, 5]);
                    assert_eq!(ctx.arg(7), 0);
                    assert_eq!(ctx.arg(9), 0);
                    ctx.call_next().unwrap()
                })
                .function("count", |ctx| {
                    ctx.set_arg(3, 7);
                    ctx.call_next().unwrap()
                })
                .build(),
        );
        assert_eq!(process.call("echo", &[1, 2]).unwrap(), digest(&[1, 2, 0, 0, 0, 0, 0, 0, 5]));
        assert_eq!(process.call("count", &[1]).unwrap(), 4);
    }

    #[test]
    fn load_and_preload_after_calls_change_resolution() {
        let mut process = Process::new();
        process.load(libc());
        assert!(process.call("echo", &[1]).is_err());
        assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
        process.load(echo());
        assert_eq!(process.call("echo", &[1]).unwrap(), 1);
        // A later load shadows nothing: the first definition still wins.
        process.load(NativeLibrary::builder("late.so").constant("getpid", 1).constant("late", 3).build());
        assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
        assert_eq!(process.call("late", &[]).unwrap(), 3);
        process.preload(NativeLibrary::builder("first.so").constant("getpid", 7).build());
        assert_eq!(process.call("getpid", &[]).unwrap(), 7);
        // A load after a preload reaches calls of symbols the preload
        // defines, through its chain.
        process.preload(
            NativeLibrary::builder("next.so")
                .function("fresh", |ctx| ctx.call_next().map_or(-1, |v| v + 1))
                .build(),
        );
        assert_eq!(process.call("fresh", &[]).unwrap(), -1);
        process.load(NativeLibrary::builder("fresh.so").constant("fresh", 40).build());
        assert_eq!(process.call("fresh", &[]).unwrap(), 41);
        assert_eq!(
            process.loaded_libraries().collect::<Vec<_>>(),
            ["next.so", "first.so", "libc.so.6", "libecho.so", "late.so", "fresh.so"]
        );
    }

    #[test]
    fn a_clone_that_preloads_leaves_the_original_alone() {
        let mut original = Process::new();
        original.load(libc());
        assert_eq!(original.call("read", &[3, 0, 64]).unwrap(), 64);
        let mut clone = original.clone();
        clone.preload(NativeLibrary::builder("fail.so").constant("read", -1).build());
        assert_eq!(clone.call("read", &[3, 0, 64]).unwrap(), -1);
        assert_eq!(original.call("read", &[3, 0, 64]).unwrap(), 64);
        assert_eq!(original.loaded_libraries().collect::<Vec<_>>(), ["libc.so.6"]);
    }

    #[test]
    fn restore_after_preload_drops_the_interceptor_and_keeps_the_base() {
        let mut process = Process::new();
        process.load(libc());
        let baseline = process.snapshot();
        for round in 0..3 {
            process.preload(NativeLibrary::builder("fail.so").constant("read", -round - 1).build());
            assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), -round - 1);
            assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
            process.restore(&baseline);
            assert_eq!(process.loaded_libraries().collect::<Vec<_>>(), ["libc.so.6"]);
            assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
            assert_eq!(process.call("checked_read", &[3, 0, 8]).unwrap(), 8);
        }
        // A snapshot with an interceptor restores it.
        process.preload(NativeLibrary::builder("fail.so").constant("read", -9).build());
        let intercepted = process.snapshot();
        process.restore(&baseline);
        process.restore(&intercepted);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), -9);
    }

    #[test]
    fn the_call_depth_limit_admits_exactly_max_depth_nested_calls() {
        let mut process = Process::new();
        process.load(
            NativeLibrary::builder("librec.so")
                .function("dive", |ctx| {
                    let depth = ctx.state().global("librec.so", 0) + 1;
                    ctx.state().set_global_sym(Symbol::intern("librec.so"), 0, depth);
                    match ctx.call("dive", &[]) {
                        Ok(value) => value,
                        Err(RuntimeError::CallDepthExceeded { limit }) => limit as i64,
                        Err(_) => -1,
                    }
                })
                .build(),
        );
        assert_eq!(process.call("dive", &[]).unwrap(), 256);
        // Depths 0 through 256 ran; the call at depth 257 was refused.
        assert_eq!(process.state().global("librec.so", 0), 257);
        assert!(process.state().stack().is_empty());
    }

    #[test]
    fn forwarding_passes_the_current_arguments_to_another_symbol() {
        let mut process = Process::new();
        process.load(echo());
        process.load(
            NativeLibrary::builder("libwrap.so")
                .function("wrap", |ctx| {
                    ctx.set_arg(1, 10);
                    ctx.forward("echo").unwrap()
                })
                .function("wrap_missing", |ctx| match ctx.forward("never_defined_by_any_library") {
                    Err(RuntimeError::UnresolvedSymbol { name }) => name.len() as i64,
                    _ => -1,
                })
                .build(),
        );
        process.state_mut().set_call_log_enabled(true);
        assert_eq!(process.call("wrap", &[1, 2, 3, 4, 5, 6, 7]).unwrap(), digest(&[1, 10, 3, 4, 5, 6, 7]));
        assert_eq!(process.state().call_log_names(), ["wrap", "echo"]);
        assert_eq!(process.call("wrap_missing", &[]).unwrap(), "never_defined_by_any_library".len() as i64);
    }

    #[test]
    fn tls_and_global_state_are_per_module() {
        let mut process = Process::new();
        process.state_mut().set_tls_sym(Symbol::intern("libc.so.6"), 0x12fff4, 9);
        process.state_mut().set_global_sym(Symbol::intern("libapp.so"), 0x10, 3);
        assert_eq!(process.state().tls("libc.so.6", 0x12fff4), 9);
        assert_eq!(process.state().tls("libm_never_written.so", 0x12fff4), 0);
        assert_eq!(process.state().global("libapp.so", 0x10), 3);
        assert_eq!(process.state().global("libapp.so", 0x18), 0);
        // The symbol-keyed twins observe the same slots.
        let libc = Symbol::intern("libc.so.6");
        assert_eq!(process.state().tls_sym(libc, 0x12fff4), 9);
        process.state_mut().set_tls_sym(libc, 0x12fff4, 11);
        assert_eq!(process.state().tls("libc.so.6", 0x12fff4), 11);
        process.state_mut().set_global_sym(libc, 0x20, 5);
        assert_eq!(process.state().global_sym(libc, 0x20), 5);
    }
}

//! The shared, thread-safe analysis cache behind the profiler.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use lfi_disasm::DisasmCache;
use lfi_intern::Symbol;
use lfi_objfile::SymbolId;
use lfi_profile::{ErrorReturn, SideEffect};

/// Number of lock shards for the resolution memo.  Resolution entries are
/// small and written once, so the shard count only needs to exceed the worker
/// count to keep write contention negligible.
const RESOLUTION_SHARDS: usize = 16;

/// The resolved set of returnable values of one function, as stored in the
/// [`AnalysisDb`] memo.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ResolvedReturns {
    /// Distinct return values with their merged side effects.
    pub(crate) returns: Vec<ErrorReturn>,
    /// True when some contribution (indirect call, argument pass-through,
    /// unknown origin) could not be resolved statically.
    pub(crate) has_unresolved: bool,
    /// Longest constant-propagation chain observed in this function's
    /// resolution subtree (feeds `ProfilingStats::max_propagation_hops`).
    pub(crate) max_hops: usize,
    /// Height of the resolution subtree below this function: the deepest
    /// call-chain level explored to compute this result (0 for a leaf).
    ///
    /// A memo entry may only be *served* at call depth `d` when
    /// `d + call_height` still fits the profiler's `max_call_depth` — that is
    /// exactly the condition under which a from-scratch resolution at depth
    /// `d` would have explored the same subtree without hitting the depth
    /// bound, so serving the entry cannot change any output a cold run would
    /// produce.  Deeper call sites recompute (and deterministically truncate)
    /// instead.
    pub(crate) call_height: usize,
}

impl ResolvedReturns {
    /// The fixed-point seed contributed by a recursion cycle or a depth
    /// bound: nothing, flagged unresolved.
    pub(crate) fn truncation_seed() -> Self {
        Self { returns: Vec::new(), has_unresolved: true, max_hops: 0, call_height: 0 }
    }

    pub(crate) fn push(&mut self, retval: i64, side_effects: Vec<SideEffect>) {
        if let Some(existing) = self.returns.iter_mut().find(|r| r.retval == retval) {
            for effect in side_effects {
                if !existing.side_effects.contains(&effect) {
                    existing.side_effects.push(effect);
                }
            }
        } else {
            self.returns.push(ErrorReturn { retval, side_effects });
        }
    }

    /// Merges a callee's contribution into this result.  `call_height` is
    /// deliberately untouched: heights depend on where the callee sits in
    /// the chain, so the resolver tracks them alongside the merge.
    pub(crate) fn merge(&mut self, other: ResolvedReturns) {
        for ret in other.returns {
            self.push(ret.retval, ret.side_effects);
        }
        self.has_unresolved |= other.has_unresolved;
        self.max_hops = self.max_hops.max(other.max_hops);
    }
}

/// A memo key: which function, in which registered library.  The library is
/// identified by its interned name, so keys are 8 bytes and hash without
/// touching a string.
pub(crate) type ResolutionKey = (Symbol, SymbolId);

/// The profiler's shared analysis cache: `Arc`'d per-object disassemblies,
/// memoized inter-procedural return-value resolutions, and memoized kernel
/// syscall error sets.
///
/// # Sharing contract
///
/// One `AnalysisDb` lives inside each [`crate::Profiler`] and is shared — via
/// interior mutability — by every profiling call made through that profiler
/// and by every worker thread those calls fan out to.  Three layers with
/// three different validity domains:
///
/// - **Disassembly** is content-addressed (keyed by
///   [`lfi_objfile::SharedObject::fingerprint`]), so it is valid forever and
///   is additionally shared *across* profiler clones: [`crate::Profiler`]'s
///   `Clone` hands the new instance the same [`DisasmCache`].
/// - **Resolutions** are keyed by `(interned library name, symbol id)` in
///   `RESOLUTION_SHARDS` lock shards, but their *values* depend on the
///   profiler's entire configuration: the full library set (imports fall back
///   to "any registered library that exports the name"), the kernel image,
///   and the options.  They are therefore dropped whenever the configuration
///   changes and are **not** shared across profiler clones, whose library
///   sets may diverge.
/// - **Kernel syscall errors** depend only on the kernel image and are
///   dropped when a different kernel is registered.
///
/// Only *scheduling-independent* resolutions are memoized: a result computed
/// through a recursion cycle or a depth bound is path-dependent, so it stays
/// in the per-root-function scratch state of the resolution session that
/// produced it.  This is what makes parallel profiling deterministic — every
/// entry in the shared memo is a pure function of the profiler configuration,
/// regardless of which worker inserted it first.  Serving is equally
/// scheduling-independent: an entry is replayed at call depth `d` only when
/// `d + call_height` fits `max_call_depth` (see `ResolvedReturns` —
/// crate-internal), i.e. only where a cold resolution would have produced
/// the identical result anyway.
///
/// # Invalidation contract
///
/// - Registering a library whose name *or* content differs from what is
///   already registered clears the resolution memo (the import-resolution
///   search space changed).  Re-registering a byte-identical object is a
///   no-op and keeps every cache warm.
/// - Registering a different kernel image clears the kernel memo *and* the
///   resolution memo (resolved values embed kernel-derived errno sets).
/// - Disassemblies survive both events; stale entries are unreachable (their
///   fingerprint no longer appears) and are reclaimed by [`AnalysisDb::clear`].
pub struct AnalysisDb {
    disasm: Arc<DisasmCache>,
    resolutions: [RwLock<HashMap<ResolutionKey, ResolvedReturns>>; RESOLUTION_SHARDS],
    kernel_errors: RwLock<HashMap<u32, Arc<[i64]>>>,
    resolution_hits: AtomicU64,
    resolution_misses: AtomicU64,
}

impl Default for AnalysisDb {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisDb {
    /// Creates an empty database with its own disassembly cache.
    pub fn new() -> Self {
        Self::with_disasm_cache(Arc::new(DisasmCache::new()))
    }

    /// Creates an empty database sharing an existing disassembly cache
    /// (disassembly is content-addressed, so sharing is always sound).
    pub(crate) fn with_disasm_cache(disasm: Arc<DisasmCache>) -> Self {
        Self {
            disasm,
            resolutions: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            kernel_errors: RwLock::new(HashMap::new()),
            resolution_hits: AtomicU64::new(0),
            resolution_misses: AtomicU64::new(0),
        }
    }

    /// A new database for a profiler clone: shares the content-addressed
    /// disassembly cache, starts with empty resolution/kernel memos (see the
    /// sharing contract above for why those must not be shared).
    pub(crate) fn fork(&self) -> Self {
        Self::with_disasm_cache(Arc::clone(&self.disasm))
    }

    /// The content-addressed disassembly cache.
    pub fn disasm_cache(&self) -> &DisasmCache {
        &self.disasm
    }

    fn resolution_shard(&self, key: &ResolutionKey) -> &RwLock<HashMap<ResolutionKey, ResolvedReturns>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.resolutions[(hasher.finish() as usize) % RESOLUTION_SHARDS]
    }

    pub(crate) fn lookup_resolution(&self, key: &ResolutionKey) -> Option<ResolvedReturns> {
        let shard = self.resolution_shard(key).read().unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.get(key).cloned()
    }

    /// Records whether a resolution (or kernel syscall set) was served from
    /// cache or actually computed.  Kept separate from
    /// [`AnalysisDb::lookup_resolution`] because a looked-up entry may still
    /// be rejected (depth-budget check) and recomputed — that is a miss.
    pub(crate) fn record_resolution(&self, served_from_cache: bool) {
        if served_from_cache {
            self.resolution_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.resolution_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn store_resolution(&self, key: ResolutionKey, value: ResolvedReturns) {
        let mut shard = self.resolution_shard(&key).write().unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.insert(key, value);
    }

    pub(crate) fn kernel_errors_cached(&self, num: u32) -> Option<Arc<[i64]>> {
        let map = self.kernel_errors.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(&num).cloned()
    }

    pub(crate) fn store_kernel_errors(&self, num: u32, values: Vec<i64>) -> Arc<[i64]> {
        let mut map = self.kernel_errors.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(map.entry(num).or_insert_with(|| values.into()))
    }

    /// Drops every memoized resolution (called when the library set changes).
    pub(crate) fn invalidate_resolutions(&self) {
        for shard in &self.resolutions {
            shard.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
    }

    /// Drops the kernel memo (called when the kernel image changes).
    pub(crate) fn invalidate_kernel(&self) {
        self.kernel_errors.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }

    /// Resolution-memo hits (including kernel syscall memo hits) since the
    /// database was created or last [cleared](AnalysisDb::clear).
    pub(crate) fn resolution_hits(&self) -> u64 {
        self.resolution_hits.load(Ordering::Relaxed)
    }

    /// Resolution-memo misses — i.e. inter-procedural analyses actually run.
    pub(crate) fn resolution_misses(&self) -> u64 {
        self.resolution_misses.load(Ordering::Relaxed)
    }

    /// Number of memoized function resolutions.
    pub(crate) fn resolutions_cached(&self) -> usize {
        self.resolutions
            .iter()
            .map(|s| s.read().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    /// Number of memoized kernel syscall error sets.
    pub(crate) fn kernel_entries_cached(&self) -> usize {
        self.kernel_errors.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Drops everything — resolutions, kernel memo, cached disassemblies —
    /// and resets all counters.
    pub fn clear(&self) {
        self.invalidate_resolutions();
        self.invalidate_kernel();
        self.disasm.clear();
        self.resolution_hits.store(0, Ordering::Relaxed);
        self.resolution_misses.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for AnalysisDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisDb")
            .field("disassemblies", &self.disasm.len())
            .field("resolutions", &self.resolutions_cached())
            .field("kernel_entries", &self.kernel_entries_cached())
            .field("resolution_hits", &self.resolution_hits())
            .field("resolution_misses", &self.resolution_misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_memo_round_trips_and_counts() {
        let db = AnalysisDb::new();
        let key = (Symbol::intern("libdb_test.so"), SymbolId(3));
        assert!(db.lookup_resolution(&key).is_none());
        db.record_resolution(false);
        let mut value = ResolvedReturns::default();
        value.push(-1, Vec::new());
        value.max_hops = 2;
        db.store_resolution(key, value.clone());
        assert_eq!(db.lookup_resolution(&key), Some(value));
        db.record_resolution(true);
        assert_eq!(db.resolutions_cached(), 1);
        assert_eq!((db.resolution_hits(), db.resolution_misses()), (1, 1));
        db.invalidate_resolutions();
        assert_eq!(db.resolutions_cached(), 0);
    }

    #[test]
    fn kernel_memo_is_shared_and_invalidated() {
        let db = AnalysisDb::new();
        assert!(db.kernel_errors_cached(6).is_none());
        let stored = db.store_kernel_errors(6, vec![-9, -5]);
        assert_eq!(&*stored, &[-9, -5]);
        // A racing second store keeps the first value.
        let again = db.store_kernel_errors(6, vec![-1]);
        assert_eq!(&*again, &[-9, -5]);
        assert_eq!(db.kernel_entries_cached(), 1);
        db.invalidate_kernel();
        assert!(db.kernel_errors_cached(6).is_none());
    }

    #[test]
    fn fork_shares_only_the_disasm_cache() {
        let db = AnalysisDb::new();
        let key = (Symbol::intern("libdb_fork.so"), SymbolId(0));
        db.store_resolution(key, ResolvedReturns::default());
        let fork = db.fork();
        assert!(Arc::ptr_eq(&db.disasm, &fork.disasm));
        assert_eq!(fork.resolutions_cached(), 0);
        assert!(fork.lookup_resolution(&key).is_none());
        assert!(!format!("{db:?}").is_empty());
    }

    #[test]
    fn merge_tracks_hops_and_unresolved() {
        let mut a = ResolvedReturns::default();
        a.push(-1, Vec::new());
        a.max_hops = 1;
        let mut b = ResolvedReturns::truncation_seed();
        b.push(-1, Vec::new());
        b.push(-2, Vec::new());
        b.max_hops = 3;
        a.merge(b);
        assert_eq!(a.returns.len(), 2);
        assert!(a.has_unresolved);
        assert_eq!(a.max_hops, 3);
    }
}

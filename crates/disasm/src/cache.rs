//! A content-addressed, thread-safe cache of object disassemblies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use lfi_objfile::SharedObject;

use crate::{DisasmError, Disassembler, ObjectDisassembly};

/// Number of independent lock shards; hot profiling workloads touch a handful
/// of objects, so a small power of two keeps contention negligible without
/// wasting memory.
const SHARDS: usize = 8;

/// A content-addressed cache of [`ObjectDisassembly`] values.
///
/// Disassembling a library (decoding every text section and rebuilding every
/// CFG) dominates cold profiling time, yet the result depends only on the
/// object's bytes.  `DisasmCache` therefore keys each `Arc<ObjectDisassembly>`
/// by [`SharedObject::fingerprint`]: any number of threads, profiling calls or
/// even distinct `Profiler` instances can share one cache, and an object is
/// disassembled at most once for as long as its bytes stay the same.
///
/// Because the key is a content hash there is no invalidation protocol —
/// re-registering a *modified* library simply misses (new fingerprint) and the
/// stale entry becomes unreachable garbage until [`DisasmCache::clear`].
/// Lookups are lock-sharded, and a miss is single-flight per fingerprint:
/// one thread disassembles while every concurrent request for the same
/// object waits on that entry and then shares its result, so each object
/// costs exactly one disassembler run (and one miss) however many profiler
/// jobs race into it.
#[derive(Debug, Default)]
pub struct DisasmCache {
    shards: [RwLock<HashMap<u64, Arc<Slot>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One fingerprint's entry: the disassembly once it exists, and the lock
/// its single in-flight disassembler holds.  A failed disassembly leaves
/// `value` empty, so the next request retries.
#[derive(Debug, Default)]
struct Slot {
    value: OnceLock<Arc<ObjectDisassembly>>,
    filling: Mutex<()>,
}

impl DisasmCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, fingerprint: u64) -> &RwLock<HashMap<u64, Arc<Slot>>> {
        &self.shards[(fingerprint as usize) % SHARDS]
    }

    /// The entry for `fingerprint`, created empty on first request.
    fn slot(&self, fingerprint: u64) -> Arc<Slot> {
        let shard = self.shard(fingerprint);
        if let Some(slot) = shard.read().unwrap_or_else(PoisonError::into_inner).get(&fingerprint) {
            return Arc::clone(slot);
        }
        Arc::clone(shard.write().unwrap_or_else(PoisonError::into_inner).entry(fingerprint).or_default())
    }

    /// Returns the cached disassembly for `fingerprint`, if present.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<ObjectDisassembly>> {
        let shard = self.shard(fingerprint).read().unwrap_or_else(PoisonError::into_inner);
        shard.get(&fingerprint).and_then(|slot| slot.value.get().cloned())
    }

    /// Disassembles `object`, reusing the cached result when its fingerprint
    /// is already known.  The boolean is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates [`DisasmError`] from [`Disassembler::disassemble_object`];
    /// failures are not cached.
    pub fn disassemble(&self, object: &SharedObject) -> Result<(Arc<ObjectDisassembly>, bool), DisasmError> {
        self.disassemble_keyed(object.fingerprint(), object)
    }

    /// Like [`DisasmCache::disassemble`] for callers that already know the
    /// object's fingerprint (the profiler computes it once at registration).
    ///
    /// # Errors
    ///
    /// Propagates [`DisasmError`]; failures are not cached.
    pub fn disassemble_keyed(
        &self,
        fingerprint: u64,
        object: &SharedObject,
    ) -> Result<(Arc<ObjectDisassembly>, bool), DisasmError> {
        if let Some(existing) = self.get(fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((existing, true));
        }
        let slot = self.slot(fingerprint);
        // Single flight: the first thread in disassembles under `filling`;
        // the rest wait here and find the value set.  A poisoned lock only
        // means a disassembler panicked with `value` still empty, so the
        // next holder simply retries.
        let _filling = slot.filling.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = slot.value.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(existing), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let disassembly = Arc::new(Disassembler::new().disassemble_object(object)?);
        Ok((Arc::clone(slot.value.get_or_init(|| disassembly)), false))
    }

    /// Number of cached disassemblies.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read().unwrap_or_else(PoisonError::into_inner);
                shard.values().filter(|slot| slot.value.get().is_some()).count()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. actual disassembler runs) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached disassembly and resets the hit/miss counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Inst, Platform};
    use lfi_objfile::ObjectBuilder;

    fn object(name: &str) -> SharedObject {
        ObjectBuilder::new(name, Platform::LinuxX86).export("f", vec![Inst::Ret]).build()
    }

    #[test]
    fn second_disassembly_is_a_hit() {
        let cache = DisasmCache::new();
        let obj = object("liba.so");
        let (first, hit) = cache.disassemble(&obj).unwrap();
        assert!(!hit);
        let (second, hit) = cache.disassemble(&obj).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_objects_get_distinct_entries() {
        let cache = DisasmCache::new();
        cache.disassemble(&object("liba.so")).unwrap();
        cache.disassemble(&object("libb.so")).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn concurrent_disassembly_converges_on_one_entry() {
        let cache = DisasmCache::new();
        let obj = object("libshared.so");
        let entries: Vec<Arc<ObjectDisassembly>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| cache.disassemble(&obj).unwrap().0)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for entry in &entries {
            assert!(Arc::ptr_eq(entry, &entries[0]));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_threads_disassemble_an_object_exactly_once() {
        let cache = DisasmCache::new();
        let obj = object("libraced.so");
        let start = std::sync::Barrier::new(8);
        let hits: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.disassemble(&obj).unwrap().1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(hits.iter().filter(|hit| !**hit).count(), 1);
    }
}

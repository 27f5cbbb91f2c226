//! A pre-warmed pool of [`Process`]es: build once, check out per case,
//! restore on return.
//!
//! A fault-injection campaign runs thousands of short cases, and before this
//! module existed every case paid a full `Process::new()` + library build in
//! its `Workload::setup`.  A [`ProcessArena`] amortises that cost: processes
//! are built once by the arena's builder (library load done, chain table
//! built at first use and shared with the snapshot), handed out as
//! [`PooledProcess`] guards, and restored to their recorded
//! [`ProcessSnapshot`] baseline when the guard drops — TLS, globals,
//! `errno`, call log, call stack and function-pointer table all return to
//! their built state (see [`Process::restore`] for the determinism
//! contract).  The restore runs even when the case panicked mid-run, so a
//! process can never re-enter the pool dirty.
//!
//! State that lives *outside* the process — a simulated world captured by the
//! library closures, say — is reset by an optional per-process reset hook
//! supplied via [`PreparedProcess::with_reset`].
//!
//! ```
//! use lfi_runtime::{NativeLibrary, ProcessArena, Process};
//!
//! let arena = ProcessArena::new(|| {
//!     let mut process = Process::new();
//!     process.load(NativeLibrary::builder("libc.so.6").constant("getpid", 42).build());
//!     process
//! });
//! {
//!     let mut process = arena.checkout();
//!     assert_eq!(process.call("getpid", &[]).unwrap(), 42);
//! } // guard drops: the process is restored and returned to the pool
//! let mut again = arena.checkout();
//! assert!(again.state().call_log().is_empty());
//! assert_eq!(arena.stats().builds, 1, "the second checkout reused the first process");
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{Process, ProcessSnapshot};

type ResetFn = Arc<dyn Fn(&mut Process) + Send + Sync>;
type BuildFn = Box<dyn Fn() -> PreparedProcess + Send + Sync>;

/// What an arena builder produces: a ready-to-run [`Process`] plus an
/// optional reset hook for state the process itself does not own.
pub struct PreparedProcess {
    process: Process,
    reset: Option<ResetFn>,
}

impl PreparedProcess {
    /// A prepared process whose observable state is fully covered by
    /// [`Process::restore`].
    pub fn new(process: Process) -> Self {
        Self { process, reset: None }
    }

    /// A prepared process with a reset hook, run after every restore, for
    /// state the snapshot cannot see (e.g. a simulated world captured by the
    /// library closures).  The hook must leave that state exactly as the
    /// builder created it, or pooled and freshly built processes diverge.
    pub fn with_reset(process: Process, reset: impl Fn(&mut Process) + Send + Sync + 'static) -> Self {
        Self { process, reset: Some(Arc::new(reset)) }
    }
}

impl From<Process> for PreparedProcess {
    fn from(process: Process) -> Self {
        Self::new(process)
    }
}

impl fmt::Debug for PreparedProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedProcess")
            .field("process", &self.process)
            .field("has_reset", &self.reset.is_some())
            .finish()
    }
}

/// One pooled entry: the process together with its personal baseline and
/// reset hook (each built process may capture its own external world).
struct Entry {
    process: Process,
    snapshot: ProcessSnapshot,
    reset: Option<ResetFn>,
}

/// Point-in-time counters of an arena (see [`ProcessArena::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Processes built from scratch by the builder.
    pub builds: u64,
    /// Total checkouts served (builds + reuses).
    pub checkouts: u64,
}

impl ArenaStats {
    /// Checkouts served from the pool without building.
    pub fn reuses(&self) -> u64 {
        self.checkouts - self.builds
    }
}

struct ArenaInner {
    builder: BuildFn,
    pool: Mutex<Vec<Entry>>,
    max_pooled: usize,
    builds: AtomicU64,
    checkouts: AtomicU64,
}

/// A shared, thread-safe pool of pre-built [`Process`]es.
///
/// Clones share the same pool, so one arena can feed every worker of a
/// parallel campaign (and every lease of a fabric fleet).  Checked-out
/// processes are independent — each was built by its own builder call and
/// owns its own state — so fixed-seed parallel == serial determinism is
/// unaffected by which worker drew which pooled process.
#[derive(Clone)]
pub struct ProcessArena {
    inner: Arc<ArenaInner>,
}

impl ProcessArena {
    /// Default bound on idle pooled processes.
    pub(crate) const DEFAULT_MAX_POOLED: usize = 32;

    /// An arena building processes with `builder`.  The builder may return a
    /// bare [`Process`] or a [`PreparedProcess`] carrying a reset hook.
    pub fn new<R, F>(builder: F) -> Self
    where
        F: Fn() -> R + Send + Sync + 'static,
        R: Into<PreparedProcess>,
    {
        Self::with_max_pooled(Self::DEFAULT_MAX_POOLED, builder)
    }

    /// An arena keeping at most `max_pooled` idle processes; returns beyond
    /// the bound drop the process instead of pooling it.
    pub(crate) fn with_max_pooled<R, F>(max_pooled: usize, builder: F) -> Self
    where
        F: Fn() -> R + Send + Sync + 'static,
        R: Into<PreparedProcess>,
    {
        Self {
            inner: Arc::new(ArenaInner {
                builder: Box::new(move || builder().into()),
                pool: Mutex::new(Vec::new()),
                max_pooled,
                builds: AtomicU64::new(0),
                checkouts: AtomicU64::new(0),
            }),
        }
    }

    /// Checks a process out of the pool, building one only when the pool is
    /// empty.  The returned guard dereferences to [`Process`]; dropping it
    /// restores the process to its built state and returns it to the pool
    /// (even when the drop happens during a panic unwind).
    pub fn checkout(&self) -> PooledProcess {
        self.inner.checkouts.fetch_add(1, Ordering::Relaxed);
        let pooled = self.inner.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let entry = match pooled {
            Some(entry) => entry,
            None => {
                self.inner.builds.fetch_add(1, Ordering::Relaxed);
                let PreparedProcess { process, reset } = (self.inner.builder)();
                let snapshot = process.snapshot();
                Entry { process, snapshot, reset }
            }
        };
        PooledProcess {
            process: Some(entry.process),
            home: Some(Home { arena: Arc::clone(&self.inner), snapshot: entry.snapshot, reset: entry.reset }),
        }
    }

    /// Builds `count` processes ahead of time so the first `count` checkouts
    /// are pool hits.
    pub fn prewarm(&self, count: usize) {
        let warmed: Vec<PooledProcess> = (0..count).map(|_| self.checkout()).collect();
        drop(warmed);
        // Prewarm checkouts are bookkeeping, not service: keep the counters
        // reflecting real demand.
        self.inner.checkouts.fetch_sub(count as u64, Ordering::Relaxed);
    }

    /// Number of idle processes currently in the pool.
    pub(crate) fn pooled(&self) -> usize {
        self.inner.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Point-in-time build/checkout counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            builds: self.inner.builds.load(Ordering::Relaxed),
            checkouts: self.inner.checkouts.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for ProcessArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProcessArena")
            .field("pooled", &self.pooled())
            .field("max_pooled", &self.inner.max_pooled)
            .field("builds", &stats.builds)
            .field("checkouts", &stats.checkouts)
            .finish()
    }
}

struct Home {
    arena: Arc<ArenaInner>,
    snapshot: ProcessSnapshot,
    reset: Option<ResetFn>,
}

/// A [`Process`] checked out of a [`ProcessArena`] — or a detached process
/// wrapped via `From<Process>`, so workloads without an arena satisfy the
/// same `setup` signature.
///
/// Dereferences to [`Process`].  On drop, an arena-owned process is restored
/// to its recorded baseline (restore + reset hook) and returned to the pool;
/// a detached process is simply dropped.
pub struct PooledProcess {
    process: Option<Process>,
    home: Option<Home>,
}

impl PooledProcess {
    /// True when dropping this guard returns the process to an arena.
    pub(crate) fn is_pooled(&self) -> bool {
        self.home.is_some()
    }
}

impl From<Process> for PooledProcess {
    fn from(process: Process) -> Self {
        Self { process: Some(process), home: None }
    }
}

impl Deref for PooledProcess {
    type Target = Process;

    fn deref(&self) -> &Process {
        self.process.as_ref().expect("process present until drop")
    }
}

impl DerefMut for PooledProcess {
    fn deref_mut(&mut self) -> &mut Process {
        self.process.as_mut().expect("process present until drop")
    }
}

impl fmt::Debug for PooledProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledProcess")
            .field("pooled", &self.is_pooled())
            .field("process", &self.process)
            .finish()
    }
}

impl Drop for PooledProcess {
    fn drop(&mut self) {
        let Some(mut process) = self.process.take() else { return };
        let Some(home) = self.home.take() else { return };
        process.restore(&home.snapshot);
        if let Some(reset) = &home.reset {
            reset(&mut process);
        }
        let mut pool = home.arena.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < home.arena.max_pooled {
            pool.push(Entry { process, snapshot: home.snapshot, reset: home.reset });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NativeLibrary, Symbol};

    fn libc() -> NativeLibrary {
        NativeLibrary::builder("libc.so.6")
            .constant("getpid", 1234)
            .function("read", |ctx| {
                ctx.set_errno(0);
                ctx.arg(2)
            })
            .build()
    }

    fn arena() -> ProcessArena {
        ProcessArena::new(|| {
            let mut process = Process::new();
            process.load(libc());
            process.set_call_log_enabled(true);
            process
        })
    }

    #[test]
    fn checkout_reuses_restored_processes() {
        let arena = arena();
        for round in 0..5 {
            let mut process = arena.checkout();
            assert!(process.state().call_log().is_empty(), "round {round} saw a dirty process");
            assert_eq!(process.state().errno(), 0);
            process.call("read", &[3, 0, 64]).unwrap();
            process.state_mut().set_errno(7);
            process.state_mut().set_tls_sym(Symbol::intern("libc.so.6"), 0x10, 9);
        }
        let stats = arena.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.checkouts, 5);
        assert_eq!(stats.reuses(), 4);
    }

    #[test]
    fn preloaded_interceptors_are_unloaded_on_return() {
        let arena = arena();
        {
            let mut process = arena.checkout();
            process.preload(NativeLibrary::builder("lfi_interceptor.so").constant("getpid", -1).build());
            assert_eq!(process.call("getpid", &[]).unwrap(), -1);
        }
        let mut process = arena.checkout();
        assert_eq!(process.loaded_libraries().collect::<Vec<_>>(), vec!["libc.so.6"]);
        assert_eq!(process.call("getpid", &[]).unwrap(), 1234);
    }

    #[test]
    fn panicked_cases_still_return_clean_processes() {
        let arena = arena();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut process = arena.checkout();
            process.call("read", &[1, 0, 8]).unwrap();
            process.state_mut().set_errno(13);
            panic!("case blew up mid-run");
        }));
        assert!(result.is_err());
        let process = arena.checkout();
        assert!(process.state().call_log().is_empty());
        assert_eq!(process.state().errno(), 0);
        assert_eq!(arena.stats().builds, 1, "the panicked case's process was reused");
    }

    #[test]
    fn reset_hook_runs_on_every_return() {
        use std::sync::atomic::AtomicUsize;
        let resets = Arc::new(AtomicUsize::new(0));
        let resets_in_builder = Arc::clone(&resets);
        let arena = ProcessArena::new(move || {
            let resets = Arc::clone(&resets_in_builder);
            PreparedProcess::with_reset(Process::new(), move |_| {
                resets.fetch_add(1, Ordering::SeqCst);
            })
        });
        drop(arena.checkout());
        drop(arena.checkout());
        assert_eq!(resets.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn detached_processes_skip_the_pool() {
        let arena = arena();
        let detached: PooledProcess = Process::new().into();
        assert!(!detached.is_pooled());
        drop(detached);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn max_pooled_bounds_idle_processes() {
        let arena = ProcessArena::with_max_pooled(1, Process::new);
        let a = arena.checkout();
        let b = arena.checkout();
        drop(a);
        drop(b);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn prewarm_fills_the_pool_without_counting_demand() {
        let arena = arena();
        arena.prewarm(3);
        assert_eq!(arena.pooled(), 3);
        let stats = arena.stats();
        assert_eq!(stats.builds, 3);
        assert_eq!(stats.checkouts, 0);
        // Subsequent checkouts are all pool hits.
        let p = arena.checkout();
        drop(p);
        assert_eq!(arena.stats().builds, 3);
    }

    #[test]
    fn shared_clones_draw_from_one_pool() {
        let arena = arena();
        let clone = arena.clone();
        drop(arena.checkout());
        drop(clone.checkout());
        assert_eq!(arena.stats().builds, 1);
        assert_eq!(clone.stats().checkouts, 2);
    }
}

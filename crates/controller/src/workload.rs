//! The [`Workload`] trait: the application under test as a first-class,
//! reusable object (§5's start script + workload pair), plus the
//! [`FnWorkload`] closure adapter and the [`WorkloadRegistry`] for named
//! lookup.
//!
//! The paper's controller drives "the target application" through a
//! developer-provided start script and workload.  Before this trait existed,
//! every campaign call site re-invented that pair as two bare closures; a
//! `Workload` packages the pair (and its setup/teardown discipline) under a
//! stable name so examples, experiments, app drivers and exploration engines
//! can share one implementation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use lfi_runtime::{ExitStatus, PooledProcess, Process};

use crate::TestCase;

/// A named, reusable application-under-test: how to build a fresh process
/// for a test case and how to exercise it.
///
/// Implementations are shared across campaign worker threads (`Send + Sync`,
/// `&self` receivers), so per-case state must live in the [`Process`] the
/// [`Workload::setup`] call returns — typically captured by the closures of
/// the `NativeLibrary` functions loaded into it.  [`Campaign::start`] calls
/// the hooks in this order, once per scheduled case:
///
/// 1. [`Workload::setup`] — build the fresh process (the start script);
///    the campaign then preloads the synthesized interceptor.
/// 2. [`Workload::health_check`] — veto the case (reported as skipped)
///    when the prepared process is unusable.
/// 3. [`Workload::run`] — exercise the process; the returned status is the
///    case's outcome.
/// 4. [`Workload::teardown`] — release external resources; runs after the
///    injection log has been snapshotted, so calls made here never pollute
///    the case's log.
///
/// [`Campaign::start`]: crate::Campaign::start
pub trait Workload: Send + Sync {
    /// Stable, human-readable workload name (registry key, report label).
    fn name(&self) -> &str;

    /// Builds (or checks out of a `ProcessArena`) a process for one test
    /// case — the paper's start script.  Called once per case, possibly
    /// concurrently for different cases.  Workloads without an arena return
    /// `process.into()`; arena-backed workloads return the checkout guard,
    /// and the campaign's drop of the guard restores the process to the
    /// pool after the case.
    fn setup(&self, case: &TestCase) -> PooledProcess;

    /// Exercises the prepared process and reports how the run ended.
    fn run(&self, process: &mut Process) -> ExitStatus;

    /// Releases per-case resources after the run.  Called after the
    /// injection log is snapshotted: library calls made here are dispatched
    /// normally but never appear in the case's [`TestLog`](crate::TestLog).
    fn teardown(&self, _process: &mut Process) {}

    /// Whether the prepared process is fit to run.  Returning `false` skips
    /// the case (a `Skipped` event with
    /// [`SkipReason::Unhealthy`](crate::SkipReason::Unhealthy)) without
    /// invoking [`Workload::run`].  Prefer passive
    /// checks (e.g. symbol resolution): library *calls* made here are
    /// intercepted and would shift the case's call ordinals.
    fn health_check(&self, _process: &mut Process) -> bool {
        true
    }
}

/// Adapter that turns a `(setup, run)` closure pair into a [`Workload`]:
///
/// ```
/// use lfi_controller::{Campaign, FnWorkload, TestCase};
/// use lfi_runtime::{ExitStatus, NativeLibrary, Process};
/// use lfi_scenario::Plan;
///
/// let workload = FnWorkload::new(
///     "echo",
///     || {
///         let mut process = Process::new();
///         process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
///         process
///     },
///     |process| match process.call("read", &[3, 0, 8]) {
///         Ok(n) if n >= 0 => ExitStatus::Exited(0),
///         _ => ExitStatus::Exited(1),
///     },
/// );
/// let report = Campaign::new().case(TestCase::new("baseline", Plan::new())).start(workload).into_report();
/// assert_eq!(report.outcomes.len(), 1);
/// ```
pub struct FnWorkload<S, R> {
    name: String,
    setup: S,
    run: R,
}

impl<S, R> FnWorkload<S, R>
where
    S: Fn() -> Process + Send + Sync,
    R: Fn(&mut Process) -> ExitStatus + Send + Sync,
{
    /// Wraps a `(setup, run)` closure pair under a name.
    pub fn new(name: impl Into<String>, setup: S, run: R) -> Self {
        Self { name: name.into(), setup, run }
    }
}

impl<S, R> FnWorkload<S, R>
where
    S: Fn() -> Process + Send + Sync + 'static,
    R: Fn(&mut Process) -> ExitStatus + Send + Sync + 'static,
{
    /// Wraps a `(setup, run)` closure pair straight into the shared handle
    /// the streaming APIs take.
    pub fn shared(name: impl Into<String>, setup: S, run: R) -> Arc<dyn Workload> {
        Arc::new(Self::new(name, setup, run))
    }
}

impl<S, R> Workload for FnWorkload<S, R>
where
    S: Fn() -> Process + Send + Sync,
    R: Fn(&mut Process) -> ExitStatus + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        (self.setup)().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        (self.run)(process)
    }
}

impl<S, R> fmt::Debug for FnWorkload<S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnWorkload").field("name", &self.name).finish()
    }
}

/// A name-keyed collection of shared [`Workload`]s, so examples and
/// experiments can look applications up by name instead of re-constructing
/// them.  Iteration order is the sorted name order (deterministic).
#[derive(Clone, Default)]
pub struct WorkloadRegistry {
    entries: BTreeMap<String, Arc<dyn Workload>>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a workload under its own [`Workload::name`], returning the
    /// workload it displaced, if any (last registration wins).
    pub fn register(&mut self, workload: impl Workload + 'static) -> Option<Arc<dyn Workload>> {
        self.register_arc(Arc::new(workload))
    }

    /// Registers an already-shared workload under its own name.
    pub fn register_arc(&mut self, workload: Arc<dyn Workload>) -> Option<Arc<dyn Workload>> {
        self.entries.insert(workload.name().to_owned(), workload)
    }

    /// Looks a workload up by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Workload>> {
        self.entries.get(name).cloned()
    }

    /// The registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("names", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_runtime::NativeLibrary;
    use lfi_scenario::Plan;

    fn echo_workload(
    ) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
        FnWorkload::new(
            "echo",
            || {
                let mut process = Process::new();
                process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
                process
            },
            |process| match process.call("read", &[3, 0, 8]) {
                Ok(n) if n >= 0 => ExitStatus::Exited(0),
                _ => ExitStatus::Exited(1),
            },
        )
    }

    #[test]
    fn fn_workload_adapts_a_closure_pair() {
        let workload = echo_workload();
        assert_eq!(workload.name(), "echo");
        let case = TestCase::new("baseline", Plan::new());
        let mut process = workload.setup(&case);
        assert!(workload.health_check(&mut process), "default health check accepts");
        assert_eq!(workload.run(&mut process), ExitStatus::Exited(0));
        workload.teardown(&mut process); // default: a no-op
        assert!(format!("{workload:?}").contains("echo"));
    }

    #[test]
    fn registry_looks_workloads_up_by_name() {
        let mut registry = WorkloadRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.register(echo_workload()).is_none());
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names().collect::<Vec<_>>(), vec!["echo"]);
        assert!(registry.get("echo").is_some());
        assert!(registry.get("missing").is_none());
        // Last registration wins; the displaced workload is returned.
        let displaced = registry.register(echo_workload());
        assert!(displaced.is_some_and(|w| w.name() == "echo"));
        assert_eq!(registry.len(), 1);
        assert!(format!("{registry:?}").contains("echo"));
        let clone = registry.clone();
        assert_eq!(clone.len(), registry.len());
    }

    #[test]
    fn registry_races_resolve_to_last_registration_wins() {
        // The registry itself needs `&mut` — concurrent use goes through a
        // lock, and under contention the usual insert contract must hold:
        // whichever registration lands last owns the name, every loser is
        // handed back exactly once, and `names()` stays sorted.
        use std::sync::Mutex;

        fn tagged(
            name: String,
            code: i32,
        ) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
            FnWorkload::new(name, Process::new, move |_: &mut Process| ExitStatus::Exited(code))
        }

        let registry = Mutex::new(WorkloadRegistry::new());
        let displaced = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for code in 0..8 {
                let (registry, displaced) = (&registry, &displaced);
                scope.spawn(move || {
                    // All eight threads fight over the same name...
                    if let Some(old) = registry.lock().unwrap().register(tagged("contended".into(), code)) {
                        displaced.lock().unwrap().push(old);
                    }
                    // ...and each also claims a private one.
                    assert!(registry.lock().unwrap().register(tagged(format!("w{code}"), code)).is_none());
                });
            }
        });
        let registry = registry.into_inner().unwrap();
        let displaced = displaced.into_inner().unwrap();

        // One survivor + seven displaced — nothing lost, nothing duplicated.
        assert_eq!(displaced.len(), 7);
        let survivor = registry.get("contended").expect("the name stays claimed");
        let mut codes: Vec<i64> = displaced
            .iter()
            .chain(std::iter::once(&survivor))
            .map(|w| {
                let case = TestCase::new("probe", Plan::new());
                let mut process = w.setup(&case);
                match w.run(&mut process) {
                    ExitStatus::Exited(code) => i64::from(code),
                    other => panic!("unexpected status {other:?}"),
                }
            })
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, (0..8).collect::<Vec<i64>>());

        // Deterministic, sorted iteration regardless of registration order.
        assert_eq!(registry.len(), 9);
        let names: Vec<&str> = registry.names().collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names, vec!["contended", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"]);
    }
}

//! The fabric runtime: a shared worker fleet pulling case leases from the
//! [`Scheduler`], the public [`Fabric`]/[`FabricHandle`] surface, and the
//! per-lease bridge onto the existing [`Campaign`] machinery.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lfi_controller::{CancelHandle, CaseEvent, Workload, WorkloadRegistry};
use lfi_explore::{run_cells, ExplorationStore};
use lfi_store::{Journal, StoreError};

use crate::job::{JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState};
use crate::scheduler::{LeaseAssignment, LeaseResult, Scheduler};

/// Default cap on cells per lease.  Leases are sized by worker time — a
/// job's first lease is one cell, later ones as many cells as fit a few
/// milliseconds at the job's measured per-cell cost — and never exceed this
/// many cells (or the job's own [`JobSpec::lease_batch`]).
pub(crate) const DEFAULT_LEASE_BATCH: usize = 8;

/// Deadline before an unacked lease returns to its job's frontier.
const LEASE_DEADLINE: Duration = Duration::from_secs(60);

/// How long an idle worker parks before re-checking deadlines and flags.
const WORKER_PARK: Duration = Duration::from_millis(25);

/// Errors surfaced by fabric requests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The submitted spec names a workload the registry does not hold.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// The request named a job id the fabric does not know.
    UnknownJob {
        /// The unresolved id.
        job: JobId,
    },
    /// A journal file could not be created or recovered.
    Journal {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying store error, rendered.
        message: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownWorkload { name } => write!(f, "no workload registered under {name:?}"),
            FabricError::UnknownJob { job } => write!(f, "no job with id {job}"),
            FabricError::Journal { path, message } => write!(f, "journal {}: {message}", path.display()),
        }
    }
}

impl std::error::Error for FabricError {}

/// Shared state of one fabric: the scheduler under its mutex, the workload
/// registry, and the condition variables the fleet parks on.
struct FabricInner {
    sched: Mutex<Scheduler>,
    registry: Mutex<WorkloadRegistry>,
    /// Per-job write-ahead delta journals (`lfi-store` files).  Lock order:
    /// `sched` strictly before `journals` — every acquisition of this mutex
    /// happens while `sched` is held, so append/compact can never interleave
    /// with a checkpoint of a half-acked state.
    journals: Mutex<HashMap<u64, JobJournal>>,
    /// Signalled when new work may be available (submit, ack, resume).
    work: Condvar,
    /// Signalled after every ack, for `wait_idle`/`wait_job` pollers.
    idle: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

/// Locks a `std::sync` mutex, riding through poisoning: the scheduler's
/// invariants hold between method calls, and a worker panic is already
/// contained by `catch_unwind`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FabricInner {
    fn notify(&self) {
        self.work.notify_all();
        self.idle.notify_all();
    }
}

/// One job's open delta journal plus its health.  A persistence failure
/// mid-run is recorded here — workers never panic over journal IO — and
/// surfaced through [`FabricHandle::journal_error`].
struct JobJournal {
    journal: Journal,
    error: Option<StoreError>,
}

/// Appends what changed in `job`'s checkpoint since its last append to its
/// journal, if it has one and anything changed; the journal compacts from
/// the job's checkpoint when its policy says so.  Called with
/// the scheduler lock held (see the lock-order note on
/// [`FabricInner::journals`]) right after every scheduler call that marks a
/// job — ack, cancel, worker panic, lease expiry — so the change landing in
/// the scheduler and in the journal are one atomic step.  IO failures park
/// the journal in an error state instead of panicking the worker.
fn journal_delta(inner: &FabricInner, sched: &mut Scheduler, job: JobId) {
    let mut journals = lock(&inner.journals);
    let Some(entry) = journals.get_mut(&job.0) else {
        return;
    };
    let Some(delta) = sched.take_delta(job) else {
        return;
    };
    if entry.error.is_some() || delta.is_empty() {
        return;
    }
    if let Err(error) = entry.journal.append(&delta, || sched.checkpoint(job)) {
        entry.error = Some(error);
    }
}

/// Builder for a [`Fabric`]: fleet size and the shared workload registry.
pub struct FabricBuilder {
    workers: usize,
    registry: WorkloadRegistry,
}

impl Default for FabricBuilder {
    fn default() -> Self {
        Self { workers: 2, registry: WorkloadRegistry::new() }
    }
}

impl FabricBuilder {
    /// A builder with the defaults: two workers.  An unacked lease returns
    /// to its job's frontier after 60 seconds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the shared worker fleet.  A fleet of `n ≥ 1` workers also
    /// runs one *short lane*: a thread that leases only while all `n`
    /// workers are inside a lease, and then only a job with no lease out
    /// whose cells are estimated under a few milliseconds, or the one-cell
    /// probe of a job whose cost is still unknown.  So a small job never
    /// waits for a worker to leave a long cell, and the lane never runs a
    /// job beside a worker.  `0` builds an inert fabric, with no lane, that
    /// accepts and checkpoints jobs but executes nothing — useful for
    /// staging work to hand to another fabric.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the fabric's workload registry wholesale.
    pub fn registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers one workload (last registration wins, like the registry).
    pub fn register(mut self, workload: impl Workload + 'static) -> Self {
        self.registry.register(workload);
        self
    }

    /// Registers an already-shared workload.
    pub fn register_arc(mut self, workload: Arc<dyn Workload>) -> Self {
        self.registry.register_arc(workload);
        self
    }

    /// Spawns the worker fleet (and, unless it is empty, the short lane)
    /// and returns the running fabric.
    pub fn build(self) -> Fabric {
        let inner = Arc::new(FabricInner {
            sched: Mutex::new(Scheduler::new(DEFAULT_LEASE_BATCH, LEASE_DEADLINE, self.workers)),
            registry: Mutex::new(self.registry),
            journals: Mutex::new(HashMap::new()),
            work: Condvar::new(),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let spawn = |seat, name| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&inner, seat))
                .expect("fabric worker thread spawns")
        };
        let workers = (0..self.workers)
            .map(|worker| spawn(Seat::Worker, format!("lfi-fabric-{worker}")))
            .collect();
        let lane = (self.workers > 0).then(|| spawn(Seat::Lane, "lfi-fabric-lane".to_owned()));
        Fabric { handle: FabricHandle { inner }, workers, lane }
    }
}

/// A running campaign fabric: the owner of the worker fleet.  Dereferences
/// to [`FabricHandle`] for the whole request surface; [`Fabric::drain`]
/// shuts the fleet down cleanly and returns the final job reports.
pub struct Fabric {
    handle: FabricHandle,
    workers: Vec<JoinHandle<()>>,
    lane: Option<JoinHandle<()>>,
}

impl Fabric {
    /// Starts configuring a fabric.
    pub fn builder() -> FabricBuilder {
        FabricBuilder::new()
    }

    /// A clonable, sendable handle to this fabric (what servers and other
    /// threads hold).
    pub fn handle(&self) -> FabricHandle {
        self.handle.clone()
    }

    /// Stops accepting useful work, lets the fleet finish every runnable
    /// job, joins the workers, and returns the final reports in job-id
    /// order.
    pub fn drain(mut self) -> Vec<JobReport> {
        self.handle.begin_drain();
        for worker in self.workers.drain(..).chain(self.lane.take()) {
            let _ = worker.join();
        }
        lock(&self.handle.inner.sched).reports()
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.handle.inner.shutdown.store(true, Ordering::Release);
        lock(&self.handle.inner.sched).cancel_outstanding();
        self.handle.inner.notify();
        for worker in self.workers.drain(..).chain(self.lane.take()) {
            let _ = worker.join();
        }
    }
}

impl std::ops::Deref for Fabric {
    type Target = FabricHandle;

    fn deref(&self) -> &FabricHandle {
        &self.handle
    }
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric").field("workers", &self.workers.len()).finish()
    }
}

/// A clonable handle to a fabric: submit jobs, observe them, cancel them.
/// All methods are safe to call from any thread, including wire-protocol
/// server threads.
#[derive(Clone)]
pub struct FabricHandle {
    inner: Arc<FabricInner>,
}

impl FabricHandle {
    /// Registers an already-shared workload.
    pub fn register_arc(&self, workload: Arc<dyn Workload>) {
        lock(&self.inner.registry).register_arc(workload);
    }

    /// The registered workload names, sorted.
    pub fn workload_names(&self) -> Vec<String> {
        lock(&self.inner.registry).names().map(str::to_owned).collect()
    }

    fn resolve(&self, spec: &JobSpec) -> Result<Arc<dyn Workload>, FabricError> {
        lock(&self.inner.registry)
            .get(&spec.workload)
            .ok_or_else(|| FabricError::UnknownWorkload { name: spec.workload.clone() })
    }

    /// Submits a job; its plan's deterministic cells become the frontier.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, FabricError> {
        let workload = self.resolve(&spec)?;
        let id = lock(&self.inner.sched).submit(spec, workload);
        self.inner.notify();
        Ok(id)
    }

    /// Submits a job resuming from a checkpoint taken by
    /// [`FabricHandle::checkpoint`] (possibly in another process): the
    /// store's frontier is the pending work, its executed state is carried
    /// over, and no carried-over cell is re-executed.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered.
    pub fn submit_restored(&self, spec: JobSpec, store: &ExplorationStore) -> Result<JobId, FabricError> {
        let workload = self.resolve(&spec)?;
        let id = lock(&self.inner.sched).submit_restored(spec, workload, store);
        self.inner.notify();
        Ok(id)
    }

    /// Snapshots of every job, in id order.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        lock(&self.inner.sched).snapshots()
    }

    /// A point-in-time snapshot of one job.
    pub fn status(&self, job: JobId) -> Option<JobSnapshot> {
        lock(&self.inner.sched).snapshot(job)
    }

    /// The job's buffered events with `seq >= from` (at most `max`), plus
    /// the cursor to pass on the next poll.  The buffer is a ring: a very
    /// slow poller may miss events that have already fallen off.
    pub fn events(&self, job: JobId, from: u64, max: usize) -> Option<(u64, Vec<JobEvent>)> {
        lock(&self.inner.sched).events(job, from, max)
    }

    /// Cancels a job (idempotent): pending cells are skipped, in-flight
    /// leases are cancelled through their campaign handles.
    pub fn cancel(&self, job: JobId) -> Option<JobState> {
        let mut sched = lock(&self.inner.sched);
        let state = sched.cancel(job);
        journal_delta(&self.inner, &mut sched, job);
        drop(sched);
        self.inner.notify();
        state
    }

    /// Pauses a job: outstanding leases finish, no new lease is issued.
    pub fn pause(&self, job: JobId) -> Option<JobState> {
        let state = lock(&self.inner.sched).pause(job);
        self.inner.notify();
        state
    }

    /// Resumes a paused job.
    pub fn resume(&self, job: JobId) -> Option<JobState> {
        let state = lock(&self.inner.sched).resume(job);
        self.inner.notify();
        state
    }

    /// Serializes the job's complete state as an [`ExplorationStore`] (the
    /// crash-safe handoff format) — pending and leased cells in the
    /// frontier, acked cells with coverage and clusters folded in
    /// process-independent order.
    pub fn checkpoint(&self, job: JobId) -> Option<ExplorationStore> {
        lock(&self.inner.sched).checkpoint(job)
    }

    /// Attaches a write-ahead journal to `job` at `path`: the file opens
    /// with the job's full checkpoint snapshot, and from then on every
    /// change to the job's durable state — an acked lease, a cancel, a
    /// lease skipped by a dead worker or an expiry — appends one O(change)
    /// [`ExplorationDelta`](lfi_explore::ExplorationDelta) record, the
    /// record an explorer journals too.  Keeping the job recoverable costs
    /// the delta, not a full re-checkpoint.  Every 32 appends the journal
    /// compacts itself back to one fresh checkpoint snapshot.
    ///
    /// [`FabricHandle::recover_job`] in a later process folds the file
    /// back into an equivalent job.  Journaling from submission (before the
    /// first lease) makes recovery byte-identical to a live checkpoint;
    /// attaching mid-run inherits the same contract as
    /// [`checkpoint`](FabricHandle::checkpoint) +
    /// [`submit_restored`](FabricHandle::submit_restored).
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownJob`] for an unknown id;
    /// [`FabricError::Journal`] when the file cannot be created.
    pub fn journal_job(&self, job: JobId, path: impl AsRef<Path>) -> Result<(), FabricError> {
        let path = path.as_ref();
        // Hold the scheduler lock across snapshot + registration so no ack
        // can land between the checkpoint and the journal starting; the
        // snapshot includes every change marked so far.
        let mut sched = lock(&self.inner.sched);
        let store = sched.checkpoint(job).ok_or(FabricError::UnknownJob { job })?;
        sched.take_delta(job);
        let journal = Journal::create(path, &store)
            .map_err(|error| FabricError::Journal { path: path.to_path_buf(), message: error.to_string() })?;
        lock(&self.inner.journals).insert(job.0, JobJournal { journal, error: None });
        drop(sched);
        Ok(())
    }

    /// Recovers a job from a journal written by
    /// [`FabricHandle::journal_job`] — typically in a previous process that
    /// was killed mid-run.  The journal's durable records (a torn final
    /// append is truncated) fold into one checkpoint exactly as an
    /// explorer's journal does — the leading snapshot plus every delta —
    /// and the job resumes from it through
    /// [`submit_restored`](FabricHandle::submit_restored), continuing to
    /// journal to the same file.
    ///
    /// Cells that were leased but never acked at kill time are still in
    /// the frontier — they were never durably executed, so they run again.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownWorkload`] when the spec's workload name is
    /// not registered; [`FabricError::Journal`] when the file cannot be
    /// read or is not an exploration journal.
    pub fn recover_job(&self, spec: JobSpec, path: impl AsRef<Path>) -> Result<JobId, FabricError> {
        let path = path.as_ref();
        let workload = self.resolve(&spec)?;
        let (journal, store) = Journal::open(path)
            .map_err(|error| FabricError::Journal { path: path.to_path_buf(), message: error.to_string() })?;
        let mut sched = lock(&self.inner.sched);
        let job = sched.submit_restored(spec, workload, &store);
        lock(&self.inner.journals).insert(job.0, JobJournal { journal, error: None });
        drop(sched);
        self.inner.notify();
        Ok(job)
    }

    /// The error that stopped `job`'s journal, if journaling broke mid-run
    /// (rendered; the journal stops appending after its first failure).
    /// `None` for jobs without a journal or with a healthy one.
    pub fn journal_error(&self, job: JobId) -> Option<String> {
        let sched = lock(&self.inner.sched);
        let journals = lock(&self.inner.journals);
        let error = journals.get(&job.0).and_then(|entry| entry.error.as_ref().map(ToString::to_string));
        drop(sched);
        error
    }

    /// The job's coverage/cluster report (valid mid-run; final once the
    /// job is terminal).
    pub fn report(&self, job: JobId) -> Option<JobReport> {
        lock(&self.inner.sched).report(job)
    }

    /// All job reports, in id order.
    pub fn reports(&self) -> Vec<JobReport> {
        lock(&self.inner.sched).reports()
    }

    /// Flags the fabric as draining: workers finish every runnable job and
    /// then exit.  The [`Fabric`] owner joins them via [`Fabric::drain`];
    /// wire-protocol clients trigger this through the `drain` request.
    pub(crate) fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner.notify();
    }

    /// True once a drain began ([`Fabric::drain`] or a `drain` request).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Blocks until no job can make further progress (all terminal or
    /// paused, nothing leased), or until `timeout` elapses.  Returns
    /// whether quiescence was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut sched = lock(&self.inner.sched);
        loop {
            if sched.quiescent() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(WORKER_PARK);
            sched = self
                .inner
                .idle
                .wait_timeout(sched, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Blocks until `job` reaches a terminal state (returning it), or until
    /// `timeout` elapses (returning the current state; `None` for an
    /// unknown job).
    pub fn wait_job(&self, job: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut sched = lock(&self.inner.sched);
        loop {
            let state = sched.state(job)?;
            if state.is_terminal() {
                return Some(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(state);
            }
            let wait = (deadline - now).min(WORKER_PARK);
            sched = self
                .inner
                .idle
                .wait_timeout(sched, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

impl fmt::Debug for FabricHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricHandle").field("draining", &self.is_draining()).finish()
    }
}

/// Which leases a fleet thread takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Seat {
    /// A regular worker: the next lease of any leasable job.
    Worker,
    /// The short lane: only short leases, while every worker is busy.
    Lane,
}

/// One thread of the fleet: pull a lease for its seat, run it as a
/// single-threaded campaign, and ack it with the wall time it took, which
/// is what the job is charged (or, if the workload killed us, let the
/// scheduler requeue the lease).  The `catch_unwind` is the crash-safety
/// boundary: a panicking workload takes down its lease, never the fleet.
fn worker_loop(inner: &FabricInner, seat: Seat) {
    loop {
        let assignment = {
            let mut sched = lock(&inner.sched);
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if sched.expire(Instant::now()) > 0 {
                    // An expiry may have marked any journaled job.
                    let journaled: Vec<u64> = lock(&inner.journals).keys().copied().collect();
                    journaled.into_iter().for_each(|job| journal_delta(inner, &mut sched, JobId(job)));
                }
                let next = match seat {
                    Seat::Worker => sched.next_lease(Instant::now()),
                    Seat::Lane => sched.next_lane_lease(Instant::now()),
                };
                if let Some(assignment) = next {
                    if seat == Seat::Worker && sched.fleet_busy() {
                        // The last free worker is now busy: wake the lane.
                        inner.work.notify_all();
                    }
                    break assignment;
                }
                if inner.draining.load(Ordering::Acquire) && sched.quiescent() {
                    return;
                }
                sched = inner
                    .work
                    .wait_timeout(sched, WORKER_PARK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        let (job, lease) = (assignment.job, assignment.lease);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_lease(inner, assignment)));
        let busy = started.elapsed();
        {
            let mut sched = lock(&inner.sched);
            match result {
                Ok(result) => sched.ack(job, lease, result, busy),
                Err(_) => sched.requeue_panic(job, lease),
            };
            journal_delta(inner, &mut sched, job);
        }
        inner.notify();
    }
}

/// Runs one lease's cells through [`run_cells`] on this worker alone (the
/// fabric's fleet *is* the parallelism) and turns its event stream into the
/// ack payload.
fn run_lease(inner: &FabricInner, assignment: LeaseAssignment) -> LeaseResult {
    let LeaseAssignment { job, lease, cells, workload, seed, halt_on_crash } = assignment;
    let mut events = Vec::new();
    // The run's cancel handle goes to the scheduler, so a job cancel (or a
    // lease expiry) stops this run at its next case boundary.  If the lease
    // already went stale, stop before the first case: the work would be
    // discarded.
    let attach = |handle: &CancelHandle| {
        if !lock(&inner.sched).attach_cancel(job, lease, handle.clone()) {
            handle.cancel();
        }
    };
    let run = run_cells(&cells, &workload, seed, halt_on_crash, 1, attach, |event, result| {
        events.push(match event {
            CaseEvent::Started { name, .. } => JobEventKind::Started { case: name.clone() },
            CaseEvent::Injection { index, record } => JobEventKind::Injection {
                case: cells[*index].case_name(),
                function: record.function_name().to_owned(),
                retval: record.retval,
                errno: record.errno,
            },
            CaseEvent::Outcome { outcome, .. } => {
                let result = result.expect("an outcome streams with its cell's result");
                JobEventKind::Finished {
                    case: outcome.name.clone(),
                    outcome: result.outcome,
                    injections: result.injections as usize,
                    stack: result.stack.clone(),
                }
            }
            CaseEvent::Skipped { name, .. } => JobEventKind::Skipped { case: name.clone() },
        });
        true
    });
    LeaseResult { events, outcomes: run.outcomes, skipped: run.returned, unhealthy: run.vetoed }
}

//! The streaming campaign session: [`Campaign::start`] returns a
//! [`CampaignRun`] — an iterator of [`CaseEvent`]s — instead of blocking
//! until every case has finished.  A serial session runs its cases on the
//! consumer's thread, one step per `next()`; a parallel one streams them from
//! a worker pool over a bounded channel.  Both execute a case through the
//! same [`run_case`] core.
//!
//! [`Campaign::start`]: crate::Campaign::start

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{CampaignReport, Injector, TestCase, TestOutcome, Workload};

/// One incremental event from a running campaign session.
///
/// `index` is the case's position in the scheduled case list (the list the
/// campaign was built with), so events of concurrent cases can be
/// correlated.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseEvent {
    /// The case was claimed and is about to be set up.
    Started {
        /// Position in the scheduled case list.
        index: usize,
        /// The test case's name.
        name: String,
    },
    /// One injection performed during the case.  Injection events are
    /// reported *after* the case's workload finishes (the log is drained
    /// post-hoc), in log order, immediately before the case's `Outcome`
    /// event.
    Injection {
        /// Position in the scheduled case list.
        index: usize,
        /// The recorded injection.
        record: crate::InjectionRecord,
    },
    /// The case finished; this is the last event the case emits.
    Outcome {
        /// Position in the scheduled case list.
        index: usize,
        /// The case's full outcome (status, log, replay script).
        outcome: TestOutcome,
    },
    /// The case was scheduled but never executed.
    Skipped {
        /// Position in the scheduled case list.
        index: usize,
        /// The test case's name.
        name: String,
        /// Why the case never ran.
        reason: SkipReason,
    },
}

impl CaseEvent {
    /// The scheduled-case index this event belongs to.
    pub fn index(&self) -> usize {
        match self {
            CaseEvent::Started { index, .. }
            | CaseEvent::Injection { index, .. }
            | CaseEvent::Outcome { index, .. }
            | CaseEvent::Skipped { index, .. } => *index,
        }
    }
}

/// Why a scheduled case never executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// [`CancelHandle::cancel`] stopped the run (or the session was dropped
    /// mid-stream).
    Cancelled,
    /// `Campaign::stop_on_first_crash` halted the run after an
    /// earlier case crashed.
    CrashHalt,
    /// The workload's [`Workload::health_check`] vetoed the prepared
    /// process.
    Unhealthy,
}

// Stop reasons in the shared atomic (0 = still running).
const REASON_NONE: u8 = 0;
const REASON_CANCELLED: u8 = 1;
const REASON_CRASH: u8 = 2;

/// A clonable handle that cancels a [`CampaignRun`]: no further case is
/// claimed, cases already in flight finish and are reported, and every
/// never-executed case surfaces as a `Skipped` event (and in
/// [`CampaignReport::cases_skipped`]).
#[derive(Clone)]
pub struct CancelHandle {
    shared: Arc<RunShared>,
}

impl CancelHandle {
    /// Requests cancellation.  Takes effect at the next case boundary on
    /// every worker.
    ///
    /// **Idempotency contract** (services that cancel a run from several
    /// paths — a user request, a crash-halt policy, a lease expiry — rely on
    /// this): `cancel` may be called any number of times, from any thread,
    /// at any point in the run's life.  Repeated calls are no-ops — the
    /// first stop reason to arrive wins, and no additional `Skipped` events
    /// or skip counts are produced by later calls.  Calling `cancel` after
    /// the run has drained (or after [`CampaignRun::into_report`] consumed
    /// it) is equally a no-op: the handle only flips a shared atomic, so a
    /// late cancel can never panic, double-count a skip tail, or disturb the
    /// already-produced report.
    pub fn cancel(&self) {
        self.shared.halt(REASON_CANCELLED);
    }

    /// True once the run is stopping (for any reason, not only
    /// cancellation).
    pub(crate) fn is_stopping(&self) -> bool {
        self.shared.is_stopping()
    }
}

impl std::fmt::Debug for CancelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelHandle").field("stopping", &self.is_stopping()).finish()
    }
}

/// State shared between the session handle, its workers and cancel handles.
/// Cases are claimed in index order, so the cases no worker ever claimed are
/// exactly `min(next, cases.len())..cases.len()`.
struct RunShared {
    cases: Vec<TestCase>,
    stop_on_first_crash: bool,
    capture_calls: bool,
    next: AtomicUsize,
    stop_reason: AtomicU8,
}

impl RunShared {
    /// Flags the run as stopping; the first reason to arrive wins (it labels
    /// the synthesized `Skipped` events).
    fn halt(&self, reason: u8) {
        let _ = self
            .stop_reason
            .compare_exchange(REASON_NONE, reason, Ordering::AcqRel, Ordering::Acquire);
    }

    fn is_stopping(&self) -> bool {
        self.stop_reason.load(Ordering::Acquire) != REASON_NONE
    }

    fn skip_reason(&self) -> SkipReason {
        match self.stop_reason.load(Ordering::Acquire) {
            REASON_CRASH => SkipReason::CrashHalt,
            _ => SkipReason::Cancelled,
        }
    }

    /// Claims the next case for execution, or `None` once the run is
    /// stopping or every case has been claimed.
    fn claim(&self) -> Option<usize> {
        if self.is_stopping() {
            return None;
        }
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.cases.len()).then_some(index)
    }

    fn started_event(&self, index: usize) -> CaseEvent {
        CaseEvent::Started { index, name: self.cases[index].name.clone() }
    }
}

/// Configuration handed from the [`Campaign`](crate::Campaign) builder to
/// [`CampaignRun::launch`].
pub(crate) struct RunConfig {
    pub cases: Vec<TestCase>,
    pub stop_on_first_crash: bool,
    pub capture_calls: bool,
    pub workers: usize,
}

/// A running campaign session: lend its [`CaseEvent`]s to a callback with
/// [`CampaignRun::drain`], or iterate it to keep them, cancel through a
/// [`CampaignRun::cancel_handle`], and collapse the remainder into a
/// [`CampaignReport`] with [`CampaignRun::into_report`].  The event stream
/// is the session's only record: the report is folded from it, by move on
/// the `drain` path and from a clone of each outcome an iterator yields.
///
/// # Event ordering contract
///
/// * Every *executed* case emits `Started`, then its `Injection` events (in
///   log order, reported after the workload finishes), then exactly one
///   `Outcome`.
/// * A case vetoed by [`Workload::health_check`] emits `Started` then
///   `Skipped` (reason [`SkipReason::Unhealthy`]) and nothing else.
/// * Cases never claimed before the run stopped emit a single `Skipped`
///   event each; these are delivered after every worker has drained, in
///   ascending case order.
/// * With `parallelism(1)` the whole event sequence is deterministic: for
///   fixed-seed plans and a deterministic workload, two runs of the same
///   campaign produce identical event streams (including under
///   `stop_on_first_crash`).  With `parallelism(n)` the per-case
///   subsequences above still hold, but events of different cases
///   interleave in completion order.
///
/// # Execution
///
/// A serial session (`parallelism(0)` or `(1)`, or a single scheduled case)
/// spawns no thread and opens no channel: each `next()` either claims the
/// next case and yields its `Started` event, or runs the claimed case on
/// the caller's thread and yields its burst.  A parallel session runs a
/// pool of `lfi-campaign-*` worker threads that stream bursts over a
/// bounded channel, so a slow consumer paces the workers instead of
/// buffering unboundedly.  Either way a panicking [`Workload`] hook
/// surfaces to the caller of `next()` or [`CampaignRun::drain`].
///
/// # Cancellation contract
///
/// [`CancelHandle::cancel`] (or dropping the run) prevents further cases
/// from being claimed; in-flight cases finish and are reported.  Events
/// already produced are still delivered to an iterator, and the final
/// report accounts for every scheduled case: `outcomes.len() +
/// cases_skipped == scheduled cases`.  Dropping a serial run never executes
/// a case that was claimed but not yet run.
///
/// # Control-plane contract
///
/// Closed-loop controllers (the `lfi-rules` engine) feed decisions back
/// into a running campaign through one attachment point: the consumer of
/// this event stream.  A consumer may call [`CancelHandle::cancel`] in
/// response to any event.  In a serial session this is deterministic:
/// nothing runs ahead of the consumer, so a cancel issued on the k-th
/// `Outcome` always stops the run after that case, and a rule engine fed
/// from the stream of a fixed-seed serial rerun produces a byte-identical
/// decision log.  Under `parallelism(n)` the workers have typically run
/// ahead by then, and which cases were already claimed — and therefore
/// still finish — depends on scheduling; there, consumer-side control
/// suits coarse interventions (budget overruns, operator stops), not
/// decision streams that must replay.
///
/// Action delivery is **at most once per event**: each event is yielded
/// once, and a stopped run yields no further `Started` events — so a
/// controller keyed on the event sequence can never double-apply a
/// decision.  Cancellation composes with the ordering contract above: the
/// final report still accounts for every scheduled case, even when the
/// consumer stopped reading before the stream drained.
pub struct CampaignRun {
    shared: Arc<RunShared>,
    driver: Driver,
    slots: Vec<Option<TestOutcome>>,
    pending: VecDeque<CaseEvent>,
}

/// Where a session's cases execute.
enum Driver {
    /// Serial: cases run on the consumer's thread, one step per `next()`.
    /// `claimed` is the case whose `Started` event was yielded but which has
    /// not run yet.
    Inline {
        workload: Arc<dyn Workload>,
        claimed: Option<usize>,
    },
    /// Parallel: worker threads stream case bursts over a bounded channel.
    Pooled {
        receiver: Receiver<Vec<CaseEvent>>,
        workers: Vec<JoinHandle<()>>,
    },
    /// Every scheduled case is accounted for; only queued events remain.
    Drained,
}

impl CampaignRun {
    /// Sets up the session: inline for one worker, a thread pool otherwise.
    pub(crate) fn launch(config: RunConfig, workload: Arc<dyn Workload>) -> CampaignRun {
        let case_count = config.cases.len();
        let shared = Arc::new(RunShared {
            cases: config.cases,
            stop_on_first_crash: config.stop_on_first_crash,
            capture_calls: config.capture_calls,
            next: AtomicUsize::new(0),
            stop_reason: AtomicU8::new(REASON_NONE),
        });
        let driver = if config.workers <= 1 {
            Driver::Inline { workload, claimed: None }
        } else {
            // Each message is one case's burst of events (`Started` alone,
            // then the post-run injections + outcome together), so the
            // per-case channel handoffs stay constant however chatty the
            // injection log is.  The bound paces producers against a slow
            // consumer without ever deadlocking a worker against its own
            // case's events.
            let (sender, receiver) = std::sync::mpsc::sync_channel((config.workers * 4).max(16));
            let workers = (0..config.workers)
                .map(|worker| {
                    let shared = Arc::clone(&shared);
                    let workload = Arc::clone(&workload);
                    let sender = sender.clone();
                    std::thread::Builder::new()
                        .name(format!("lfi-campaign-{worker}"))
                        .spawn(move || worker_loop(&shared, workload.as_ref(), &sender))
                        .expect("campaign worker thread spawns")
                })
                .collect();
            Driver::Pooled { receiver, workers }
        };
        CampaignRun { shared, driver, slots: (0..case_count).map(|_| None).collect(), pending: VecDeque::new() }
    }

    /// A handle that cancels the run from anywhere (clonable, sendable).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle { shared: Arc::clone(&self.shared) }
    }

    /// Number of scheduled cases.
    pub fn case_count(&self) -> usize {
        self.shared.cases.len()
    }

    /// [`CampaignRun::drain`] with a callback that reads nothing.
    pub fn into_report(self) -> CampaignReport {
        self.drain(|_| true)
    }

    /// Runs the session to its end and collapses it into the blocking
    /// report: outcomes in case order plus the skipped-case count (the
    /// slots left empty, since every case ends as an outcome or a skip).
    /// Each remaining event is lent to `on_event` as an iterator would
    /// yield it, then moved into the report.  Returning `false` cancels the
    /// run like [`CancelHandle::cancel`]: no further case starts, and the
    /// events still to come (a running case's burst, the `Skipped` tail)
    /// reach `on_event` all the same.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking [`Workload`] hook, whether it ran on this
    /// thread (serial sessions) or on a worker thread.
    pub fn drain(mut self, mut on_event: impl FnMut(&CaseEvent) -> bool) -> CampaignReport {
        while let Some(event) = self.pop() {
            if !on_event(&event) {
                self.shared.halt(REASON_CANCELLED);
            }
            if let CaseEvent::Outcome { index, outcome } = event {
                self.slots[index] = Some(outcome);
            }
        }
        let slots = std::mem::take(&mut self.slots);
        let cases_skipped = slots.iter().filter(|slot| slot.is_none()).count();
        CampaignReport { outcomes: slots.into_iter().flatten().collect(), cases_skipped }
    }

    /// The next event, stepping the session until one is queued.
    fn pop(&mut self) -> Option<CaseEvent> {
        while self.pending.is_empty() && !matches!(self.driver, Driver::Drained) {
            self.step();
        }
        self.pending.pop_front()
    }

    /// Queues the next burst of events, or finishes the run when no case is
    /// left to execute.  A serial session executes its claimed case here, on
    /// the caller's thread.
    fn step(&mut self) {
        match &mut self.driver {
            Driver::Drained => {}
            Driver::Inline { workload, claimed } => {
                if let Some(index) = claimed.take() {
                    let pending = &mut self.pending;
                    run_case(&self.shared, workload.as_ref(), index, |burst| {
                        pending.extend(burst);
                        true
                    });
                } else if let Some(index) = self.shared.claim() {
                    *claimed = Some(index);
                    self.pending.push_back(self.shared.started_event(index));
                } else {
                    self.finish();
                }
            }
            Driver::Pooled { receiver, .. } => match receiver.recv() {
                Ok(burst) => self.pending.extend(burst),
                // Every worker dropped its sender: the run is complete.
                Err(_) => self.finish(),
            },
        }
    }

    /// Joins the drained workers — re-raising the first worker panic, so a
    /// panicking [`Workload`] hook surfaces to the caller instead of
    /// silently truncating the report — and synthesizes `Skipped` events
    /// for every case that was never claimed, in ascending case order.
    fn finish(&mut self) {
        if let Driver::Pooled { workers, .. } = std::mem::replace(&mut self.driver, Driver::Drained) {
            for handle in workers {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        let reason = self.shared.skip_reason();
        let cases = &self.shared.cases;
        // Nothing claims any more: the workers were joined above (a join
        // orders their claims before this load), and a serial run claims on
        // this thread.  A stopped claim never bumps `next`, so every case
        // below it ran or was vetoed.
        let unclaimed = self.shared.next.load(Ordering::Acquire).min(cases.len());
        for (index, case) in cases.iter().enumerate().skip(unclaimed) {
            self.pending.push_back(CaseEvent::Skipped { index, name: case.name.clone(), reason });
        }
    }
}

impl Iterator for CampaignRun {
    type Item = CaseEvent;

    fn next(&mut self) -> Option<CaseEvent> {
        let event = self.pop();
        // The report keeps its own copy of an outcome the consumer takes.
        if let Some(CaseEvent::Outcome { index, outcome }) = &event {
            self.slots[*index] = Some(outcome.clone());
        }
        event
    }
}

impl Drop for CampaignRun {
    fn drop(&mut self) {
        // Dropping mid-stream is a cancellation: stop claiming (a serial
        // run's claimed case never executes), unblock any worker parked on
        // the bounded channel, and reap the threads.  A worker panic still
        // surfaces (like `std::thread::scope`) unless this drop is itself
        // part of a panic unwind.
        self.shared.halt(REASON_CANCELLED);
        if let Driver::Pooled { receiver, workers } = std::mem::replace(&mut self.driver, Driver::Drained) {
            drop(receiver);
            for handle in workers {
                if let Err(payload) = handle.join() {
                    if !std::thread::panicking() {
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for CampaignRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRun").field("cases", &self.shared.cases.len()).finish()
    }
}

/// Delivers one case's burst of events, blocking while the bounded channel
/// is full (this is the backpressure that lets a consumer pace the
/// workers).  Returns `false` when the receiver is gone (the session was
/// dropped) — the worker should wind down.  Dropping the receiver wakes
/// parked senders, so a dropped session never wedges its workers.
fn deliver(shared: &RunShared, sender: &SyncSender<Vec<CaseEvent>>, burst: Vec<CaseEvent>) -> bool {
    if sender.send(burst).is_err() {
        shared.halt(REASON_CANCELLED);
        return false;
    }
    true
}

/// A pool worker's loop: claim cases, run them through [`run_case`], stream
/// their bursts.
fn worker_loop(shared: &RunShared, workload: &dyn Workload, sender: &SyncSender<Vec<CaseEvent>>) {
    while let Some(index) = shared.claim() {
        if !deliver(shared, sender, vec![shared.started_event(index)])
            || !run_case(shared, workload, index, |burst| deliver(shared, sender, burst))
        {
            break;
        }
    }
}

/// Executes one claimed case end to end — setup, interceptor preload, health
/// check, run, log snapshot, teardown and stop decisions —
/// then hands the case's burst of events to `emit` and returns what `emit`
/// returned (`false` means the consumer is gone).
fn run_case(
    shared: &RunShared,
    workload: &dyn Workload,
    index: usize,
    emit: impl FnOnce(Vec<CaseEvent>) -> bool,
) -> bool {
    let case = &shared.cases[index];
    let mut process = workload.setup(case);
    let injector = Injector::compile(&case.plan);
    process.preload(injector.synthesize_interceptor());
    if shared.capture_calls {
        process.set_call_log_enabled(true);
    }
    if !workload.health_check(&mut process) {
        return emit(vec![CaseEvent::Skipped { index, name: case.name.clone(), reason: SkipReason::Unhealthy }]);
    }
    let status = workload.run(&mut process);
    // The dropped counter must be read before the drain resets it.
    let calls_dropped = if shared.capture_calls { process.state().call_log_dropped() } else { 0 };
    let calls = if shared.capture_calls { process.drain_call_log() } else { Vec::new() };
    let log = injector.log();
    // Teardown runs after the log snapshot, so its library calls never
    // pollute the case's record.
    workload.teardown(&mut process);
    let replay = log.replay_plan();
    let outcome = TestOutcome { name: case.name.clone(), status, log, replay, calls, calls_dropped };
    // The stop decision happens before the events ship, so in a serial
    // session no further case can slip in ahead of the halt (deterministic
    // streams).
    if shared.stop_on_first_crash && outcome.status.is_crash() {
        shared.halt(REASON_CRASH);
    }
    let mut burst: Vec<CaseEvent> = Vec::with_capacity(outcome.log.injections.len() + 1);
    for record in &outcome.log.injections {
        burst.push(CaseEvent::Injection { index, record: record.clone() });
    }
    burst.push(CaseEvent::Outcome { index, outcome });
    emit(burst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, FnWorkload};
    use lfi_runtime::{ExitStatus, Process};
    use lfi_scenario::Plan;

    fn start(cases: usize, workers: usize) -> CampaignRun {
        Campaign::new()
            .cases((0..cases).map(|i| TestCase::new(format!("case-{i}"), Plan::new())))
            .parallelism(workers)
            .start(FnWorkload::new("idle", Process::new, |_process: &mut Process| ExitStatus::Exited(0)))
    }

    #[test]
    fn one_worker_sessions_run_inline_and_larger_ones_pool() {
        for (cases, workers) in [(4, 0), (4, 1), (1, 8)] {
            assert!(matches!(start(cases, workers).driver, Driver::Inline { .. }), "{cases} cases, {workers} workers");
        }
        assert!(matches!(start(4, 2).driver, Driver::Pooled { .. }));
    }

    #[test]
    fn an_inline_step_either_claims_or_runs_the_claimed_case() {
        let mut run = start(2, 1);
        assert!(matches!(run.next(), Some(CaseEvent::Started { index: 0, .. })));
        let claimed = |run: &CampaignRun| run.shared.next.load(Ordering::Relaxed);
        assert_eq!((claimed(&run), run.slots[0].is_some()), (1, false), "claimed, not yet run");
        assert!(matches!(run.next(), Some(CaseEvent::Outcome { index: 0, .. })));
        assert_eq!((claimed(&run), run.slots[0].is_some()), (1, true));
        let report = run.into_report();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes.iter().all(|o| o.status.is_success()));
    }
}

//! The multi-tenant scheduler: per-job lease books, worker-time fair
//! sharing, time-sized leases and crash-safe lease accounting.  Each job is
//! a [`FaultLedger`] — the fold from acked cells to coverage and clusters
//! that the explorer uses too — plus a lease book: pending, outstanding and
//! skipped cells.
//!
//! Fairness is by worker time, not by cell count — per-cell costs of real
//! tenants differ by orders of magnitude.  Each job carries a charge: a
//! lease is charged `cells × the job's per-cell estimate` when issued, and
//! trued up to the worker time it actually took when acked (the estimate
//! becomes that time per executed cell).  A lease that comes back unacked
//! (expiry, worker panic) is refunded.  The runnable job with the smallest
//! charge per unit of [`JobSpec::weight`] gets the next lease, and a job
//! admitted into a running fabric starts at the smallest settled charge
//! among the runnable jobs, so it neither jumps the queue for hours nor
//! waits behind history.  Leases are sized by time too: a job's first
//! lease is one cell, then as many cells as fit [`LEASE_TARGET`] at the
//! job's estimate, capped by its lease batch.  None of this is durable —
//! replayed acks charge nothing.
//!
//! The scheduler is a plain synchronous state machine — every method runs
//! under the fabric's one mutex, takes `now` (and, for acks, the measured
//! busy time) as a parameter, so expiry and fairness are unit-testable
//! without sleeping, and never blocks.  Workers live in `fabric.rs`;
//! everything they do against shared state funnels through here as three
//! calls: [`Scheduler::next_lease`], [`Scheduler::ack`],
//! [`Scheduler::requeue_panic`].

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi_controller::{CancelHandle, ProgressSnapshot, Workload};
use lfi_explore::{CellResult, ExplorationStore, FaultLedger, FrontierCell};
use lfi_scenario::{FaultCell, FaultSpace};

use crate::job::{JobCoverage, JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState};

/// How many events a job's ring buffer retains before the oldest fall off.
const EVENT_BUFFER_CAP: usize = 4096;

/// A worker that panics this many times on one job marks the job `Failed`.
const MAX_JOB_PANICS: u64 = 3;

/// Worker time one lease aims for once its job's per-cell cost is known:
/// long enough to amortize the lease round trip over cheap cells, short
/// enough that a tenant waiting behind it is served within milliseconds.
const LEASE_TARGET: Duration = Duration::from_millis(5);

/// What a cell is charged at issue while its job's cost is still unknown
/// (its first lease is out).  Small against any real cell, yet nonzero, so
/// a second worker prefers another job's probe over a second one of this
/// job; the ack replaces it with the measured time.
const UNKNOWN_CELL_CHARGE: Duration = Duration::from_millis(1);

/// A duration in whole nanoseconds, saturating.
fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// One lease handed to a worker: a batch of cells plus everything needed to
/// run them without touching the scheduler.
pub(crate) struct LeaseAssignment {
    pub job: JobId,
    pub lease: u64,
    pub cells: Vec<FaultCell>,
    pub workload: Arc<dyn Workload>,
    pub seed: Option<u64>,
    pub halt_on_crash: bool,
}

/// Everything a worker reports when acking a lease.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeaseResult {
    pub events: Vec<JobEventKind>,
    pub outcomes: Vec<(FaultCell, CellResult)>,
    pub skipped: Vec<FaultCell>,
}

/// A lease that has been issued but not acked.
struct OutstandingLease {
    cells: Vec<FaultCell>,
    /// Worker time charged to the job at issue; trued up at ack, refunded
    /// if the lease comes back unacked.
    charge_ns: u64,
    deadline: Instant,
    cancel: Option<CancelHandle>,
}

/// Sequence-numbered ring buffer of a job's events.
#[derive(Default)]
struct EventBuffer {
    base: u64,
    buf: VecDeque<JobEvent>,
}

impl EventBuffer {
    fn push(&mut self, kind: JobEventKind) {
        let seq = self.base + self.buf.len() as u64;
        self.buf.push_back(JobEvent { seq, kind });
        while self.buf.len() > EVENT_BUFFER_CAP {
            self.buf.pop_front();
            self.base += 1;
        }
    }

    /// Events with `seq >= from`, capped at `max`; returns the cursor to
    /// pass next time.
    fn read(&self, from: u64, max: usize) -> (u64, Vec<JobEvent>) {
        let start = from.max(self.base);
        let offset = (start - self.base) as usize;
        let events: Vec<JobEvent> = self.buf.iter().skip(offset).take(max).cloned().collect();
        let next = events.last().map_or(start, |event| event.seq + 1);
        (next, events)
    }
}

/// One job's complete scheduler-side state.
struct JobRecord {
    spec: JobSpec,
    workload: Arc<dyn Workload>,
    state: JobState,
    cases_total: usize,
    /// Acked cells, coverage, clusters and counters.
    ledger: FaultLedger,
    // The lease book: cells pending, out on lease, and counted skipped.
    frontier: VecDeque<FaultCell>,
    outstanding: HashMap<u64, OutstandingLease>,
    skipped: HashSet<FaultCell>,
    /// Cells leased cumulatively (re-issues count) — the `started` counter.
    started: u64,
    /// Worker time charged to the job: measured time of acked leases plus
    /// the issue-time charge of outstanding ones.  A lease returned unacked
    /// is refunded, so a crashed worker does not eat the job's fair share.
    charged_ns: u64,
    /// Worker time per executed cell, as the job's latest ack measured it;
    /// `None` until the first ack.
    cell_ns: Option<u64>,
    requeued: u64,
    panics: u64,
    events: EventBuffer,
}

impl JobRecord {
    fn runnable(&self) -> bool {
        matches!(self.state, JobState::Queued | JobState::Running) && !self.frontier.is_empty()
    }

    fn weight(&self) -> u64 {
        u64::from(self.spec.weight.max(1))
    }

    /// The fairness key: worker time charged, normalized by weight (the
    /// job's virtual time); ties broken by job id at the call site.  Lower
    /// runs first.
    fn deficit(&self) -> u64 {
        self.charged_ns / self.weight()
    }

    /// The deficit without the issue-time charges of outstanding leases:
    /// what the job has been measured to use.
    fn settled_deficit(&self) -> u64 {
        let in_flight: u64 = self.outstanding.values().map(|lease| lease.charge_ns).sum();
        self.charged_ns.saturating_sub(in_flight) / self.weight()
    }

    /// Lifts the job's virtual time to at least `floor` (admission into, or
    /// return to, a fabric whose other jobs have been running).
    fn lift_to(&mut self, floor: u64) {
        self.charged_ns = self.charged_ns.max(floor.saturating_mul(self.weight()));
    }

    /// Cells for the next lease: one while the job's cost is unknown, then
    /// as many as fit [`LEASE_TARGET`] at the estimate, within `1..=cap`.
    fn lease_cells(&self, cap: usize) -> usize {
        match self.cell_ns {
            None => 1,
            Some(ns) => usize::try_from(nanos(LEASE_TARGET) / ns.max(1)).unwrap_or(usize::MAX).clamp(1, cap),
        }
    }

    /// Removes an outstanding lease, refunding its issue-time charge.
    fn take_lease(&mut self, lease: u64) -> Option<OutstandingLease> {
        let entry = self.outstanding.remove(&lease)?;
        self.charged_ns = self.charged_ns.saturating_sub(entry.charge_ns);
        Some(entry)
    }

    fn set_state(&mut self, state: JobState) {
        if self.state != state {
            self.state = state;
            self.events.push(JobEventKind::State(state));
        }
    }

    /// Moves every pending frontier cell to the skipped set (cancel,
    /// crash-halt, repeated-panic failure).
    fn skip_frontier(&mut self) {
        while let Some(cell) = self.frontier.pop_front() {
            self.events.push(JobEventKind::Skipped { case: cell.case_name() });
            self.skipped.insert(cell);
        }
    }

    /// Returns a lease's cells to the *front* of the frontier, preserving
    /// their order, and counts the requeue.
    fn requeue_cells(&mut self, cells: Vec<FaultCell>) {
        if cells.is_empty() {
            return;
        }
        self.requeued += cells.len() as u64;
        self.events.push(JobEventKind::Requeued { cells: cells.len() });
        for cell in cells.into_iter().rev() {
            self.frontier.push_front(cell);
        }
    }

    /// Done when nothing is pending and nothing is out on lease.
    fn maybe_complete(&mut self) {
        if self.state == JobState::Running && self.frontier.is_empty() && self.outstanding.is_empty() {
            self.set_state(JobState::Done);
        }
    }
}

/// The fabric's job table and lease book-keeping — see the module docs.
pub(crate) struct Scheduler {
    jobs: BTreeMap<u64, JobRecord>,
    next_job: u64,
    next_lease: u64,
    lease_deadline: Duration,
    default_lease_batch: usize,
}

impl Scheduler {
    pub fn new(default_lease_batch: usize, lease_deadline: Duration) -> Self {
        Self {
            jobs: BTreeMap::new(),
            next_job: 1,
            next_lease: 1,
            lease_deadline,
            default_lease_batch: default_lease_batch.max(1),
        }
    }

    /// Admits a job: takes the plan's [`FaultSpace`] — the same cells, in
    /// the same order, as an explorer's universe — truncates it at
    /// `max_cases`, and queues it.
    pub fn submit(&mut self, spec: JobSpec, workload: Arc<dyn Workload>) -> JobId {
        let space = FaultSpace::from_plan(&spec.plan);
        let cases = spec.max_cases.unwrap_or(usize::MAX).min(space.len());
        let cells = space.cells()[..cases].to_vec();
        self.admit(spec, workload, cells, FaultLedger::default(), HashSet::new())
    }

    /// Admits a job resuming from a checkpoint: the store's frontier (in
    /// its scheduling order) is the pending work, its ledger and skipped
    /// cells carry over, and later acks fold into that ledger.
    pub fn submit_restored(&mut self, spec: JobSpec, workload: Arc<dyn Workload>, store: &ExplorationStore) -> JobId {
        let ledger = FaultLedger::from_store(store);
        let cells: Vec<FaultCell> = store
            .frontier
            .iter()
            .map(|entry| entry.cell)
            .filter(|cell| !ledger.is_executed(cell))
            .collect();
        self.admit(spec, workload, cells, ledger, store.unreached.iter().copied().collect())
    }

    fn admit(
        &mut self,
        spec: JobSpec,
        workload: Arc<dyn Workload>,
        cells: Vec<FaultCell>,
        ledger: FaultLedger,
        skipped: HashSet<FaultCell>,
    ) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let floor = self.vtime_floor();
        let mut record = JobRecord {
            cases_total: cells.len() + ledger.executed_len() + skipped.len(),
            ledger,
            frontier: cells.into(),
            spec,
            workload,
            state: JobState::Queued,
            outstanding: HashMap::new(),
            skipped,
            started: 0,
            charged_ns: 0,
            cell_ns: None,
            requeued: 0,
            panics: 0,
            events: EventBuffer::default(),
        };
        record.lift_to(floor);
        record.events.push(JobEventKind::State(JobState::Queued));
        if record.frontier.is_empty() {
            record.set_state(JobState::Done);
        }
        self.jobs.insert(id.0, record);
        id
    }

    /// The current virtual time: the smallest settled deficit among the
    /// runnable jobs, or 0 when none is runnable (CFS's `min_vruntime`).
    /// Settled, so the placeholder charge of another job's in-flight probe
    /// never pushes a newcomer behind work that turns out to be cheap.
    fn vtime_floor(&self) -> u64 {
        self.jobs
            .values()
            .filter(|record| record.runnable())
            .map(JobRecord::settled_deficit)
            .min()
            .unwrap_or(0)
    }

    /// Issues the next lease, picking the runnable job with the smallest
    /// weighted worker-time charge (ties to the lowest id) — the per-job
    /// fairness that keeps a sweep of slow cells from starving a smoke job
    /// of fast ones.  The lease is sized by time and charged at the job's
    /// per-cell estimate.
    pub fn next_lease(&mut self, now: Instant) -> Option<LeaseAssignment> {
        let id = self
            .jobs
            .iter()
            .filter(|(_, record)| record.runnable())
            .min_by_key(|(id, record)| (record.deficit(), **id))
            .map(|(id, _)| *id)?;
        let record = self.jobs.get_mut(&id).expect("picked job exists");
        let batch = record.lease_cells(record.spec.lease_batch.unwrap_or(self.default_lease_batch).max(1));
        let cells: Vec<FaultCell> = (0..batch).map_while(|_| record.frontier.pop_front()).collect();
        let charge_ns = record.cell_ns.unwrap_or(nanos(UNKNOWN_CELL_CHARGE)).saturating_mul(cells.len() as u64);
        record.started += cells.len() as u64;
        record.charged_ns = record.charged_ns.saturating_add(charge_ns);
        record.set_state(JobState::Running);
        let lease = self.next_lease;
        self.next_lease += 1;
        record.outstanding.insert(
            lease,
            OutstandingLease { cells: cells.clone(), charge_ns, deadline: now + self.lease_deadline, cancel: None },
        );
        Some(LeaseAssignment {
            job: JobId(id),
            lease,
            cells,
            workload: Arc::clone(&record.workload),
            seed: record.spec.plan.seed,
            halt_on_crash: record.spec.halt_on_crash,
        })
    }

    /// Attaches the campaign run's cancel handle to a lease, so a job
    /// cancel (or lease expiry) can stop the worker's in-flight run instead
    /// of letting it finish as a zombie.  Returns `false` — and fires
    /// nothing — when the lease is already stale; the caller should cancel
    /// its own run.
    pub fn attach_cancel(&mut self, job: JobId, lease: u64, handle: CancelHandle) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let cancelled = record.state == JobState::Cancelled;
        match record.outstanding.get_mut(&lease) {
            Some(entry) => {
                if cancelled {
                    handle.cancel();
                }
                entry.cancel = Some(handle);
                true
            }
            None => false,
        }
    }

    /// Acks a lease that kept a worker `busy` for that long: trues the
    /// lease's charge up to `busy` and re-estimates the job's per-cell cost,
    /// folds its outcomes in, requeues its skipped cells, and completes the
    /// job if this was the last outstanding work.  A stale ack — the lease
    /// already expired and was re-issued — is discarded wholesale (returns
    /// `false`), which is what makes re-execution safe: only the ack that
    /// still holds the lease counts.
    pub fn ack(&mut self, job: JobId, lease: u64, result: LeaseResult, busy: Duration) -> bool {
        self.settle(job, lease, result, Some(busy))
    }

    /// The body of [`Scheduler::ack`] and [`Scheduler::replay_ack`]; `busy`
    /// is `None` for a replayed ack, which charges nothing.
    fn settle(&mut self, job: JobId, lease: u64, result: LeaseResult, busy: Option<Duration>) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        if record.take_lease(lease).is_none() {
            return false;
        }
        if let Some(busy) = busy {
            record.charged_ns = record.charged_ns.saturating_add(nanos(busy));
            if !result.outcomes.is_empty() {
                record.cell_ns = Some(nanos(busy) / result.outcomes.len() as u64);
            }
        }
        record.panics = 0;
        for kind in result.events {
            record.events.push(kind);
        }
        let mut crash_halt = false;
        for (cell, outcome) in result.outcomes {
            crash_halt |= record.spec.halt_on_crash && outcome.outcome.is_crash();
            record.ledger.apply(cell, &outcome);
        }
        if record.state == JobState::Cancelled || record.state == JobState::Failed {
            for cell in result.skipped {
                record.skipped.insert(cell);
            }
        } else if crash_halt {
            for cell in result.skipped {
                record.skipped.insert(cell);
            }
            record.skip_frontier();
            record.set_state(JobState::Done);
        } else {
            record.requeue_cells(result.skipped.into_iter().filter(|c| !record.ledger.is_executed(c)).collect());
        }
        record.maybe_complete();
        true
    }

    /// Replays a journaled lease acknowledgement during recovery:
    /// synthesizes the outstanding lease the journal entry implies (its
    /// cells leave the frontier exactly as the live issue removed them, in
    /// one pass) and folds the result through the body of
    /// [`Scheduler::ack`], so a recovered job steps through the very states
    /// the live job did.  Replaying acks in journal order reproduces the
    /// live frontier even when concurrent workers acked out of issue order,
    /// because requeues always go to the *front* in ack order.  Replay
    /// charges no worker time: the deficit is not durable state.
    pub fn replay_ack(&mut self, job: JobId, result: LeaseResult) -> bool {
        let lease = self.next_lease;
        self.next_lease += 1;
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let mut leased: Vec<FaultCell> = Vec::with_capacity(result.outcomes.len() + result.skipped.len());
        leased.extend(result.outcomes.iter().map(|(cell, _)| *cell));
        leased.extend(result.skipped.iter().copied());
        let leased_set: HashSet<FaultCell> = leased.iter().copied().collect();
        record.frontier.retain(|cell| !leased_set.contains(cell));
        record.started += leased.len() as u64;
        if record.state == JobState::Queued {
            record.set_state(JobState::Running);
        }
        record
            .outstanding
            .insert(lease, OutstandingLease { cells: leased, charge_ns: 0, deadline: Instant::now(), cancel: None });
        self.settle(job, lease, result, None)
    }

    /// A worker died (panicked) holding a lease: every cell of the lease
    /// goes back to the front of the job's frontier and its charge is
    /// refunded — nothing the dead worker half-did was acked, so nothing
    /// can be double-counted.  A job that kills its workers repeatedly is
    /// marked `Failed`.
    pub fn requeue_panic(&mut self, job: JobId, lease: u64) -> bool {
        let Some(record) = self.jobs.get_mut(&job.0) else {
            return false;
        };
        let Some(entry) = record.take_lease(lease) else {
            return false;
        };
        record.panics += 1;
        if record.state.is_terminal() {
            for cell in entry.cells {
                record.skipped.insert(cell);
            }
            return true;
        }
        record.requeue_cells(entry.cells);
        if record.panics >= MAX_JOB_PANICS {
            record.skip_frontier();
            record.set_state(JobState::Failed);
        }
        record.maybe_complete();
        true
    }

    /// Expires every lease whose deadline has passed: its cells return to
    /// the front of the owning job's frontier, its charge is refunded, and a
    /// late ack becomes stale.  Returns how many leases expired.
    pub fn expire(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        for record in self.jobs.values_mut() {
            let lapsed: Vec<u64> = record
                .outstanding
                .iter()
                .filter(|(_, lease)| lease.deadline <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in lapsed {
                let lease = record.take_lease(id).expect("lapsed lease exists");
                if let Some(handle) = lease.cancel {
                    handle.cancel();
                }
                if record.state.is_terminal() {
                    for cell in lease.cells {
                        record.skipped.insert(cell);
                    }
                } else {
                    record.requeue_cells(lease.cells);
                }
                expired += 1;
            }
        }
        expired
    }

    /// Cancels a job: pending cells are counted skipped, in-flight leases
    /// are cancelled through their campaign handles (their cells surface as
    /// lease-skipped and join the skipped set at ack).  Idempotent — like
    /// [`CancelHandle::cancel`], a repeat or a cancel of a terminal job
    /// changes nothing.
    pub fn cancel(&mut self, job: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(&job.0)?;
        if record.state.is_terminal() {
            return Some(record.state);
        }
        record.skip_frontier();
        record.set_state(JobState::Cancelled);
        for lease in record.outstanding.values() {
            if let Some(handle) = &lease.cancel {
                handle.cancel();
            }
        }
        Some(record.state)
    }

    /// Pauses a job: outstanding leases finish, no new lease is issued.
    pub fn pause(&mut self, job: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(&job.0)?;
        if matches!(record.state, JobState::Queued | JobState::Running) {
            record.set_state(JobState::Paused);
        }
        Some(record.state)
    }

    /// Resumes a paused job, lifted to the current virtual time so the
    /// time it sat paused is not banked as a claim on the whole fleet.
    pub fn resume(&mut self, job: JobId) -> Option<JobState> {
        let floor = self.vtime_floor();
        let record = self.jobs.get_mut(&job.0)?;
        if record.state == JobState::Paused {
            record.lift_to(floor);
            record.set_state(JobState::Running);
            record.maybe_complete();
        }
        Some(record.state)
    }

    pub fn snapshot(&self, job: JobId) -> Option<JobSnapshot> {
        let record = self.jobs.get(&job.0)?;
        Some(JobSnapshot {
            id: job,
            name: record.spec.name.clone(),
            workload: record.spec.workload.clone(),
            state: record.state,
            cases: record.cases_total,
            pending: record.frontier.len(),
            outstanding: record.outstanding.values().map(|l| l.cells.len()).sum(),
            progress: ProgressSnapshot {
                started: record.started as usize,
                finished: record.ledger.executed_len(),
                skipped: record.skipped.len(),
                crashes: record.ledger.crashes() as usize,
                injections: record.ledger.injections() as usize,
            },
            requeued: record.requeued,
            clusters: record.ledger.clusters().len(),
        })
    }

    pub fn snapshots(&self) -> Vec<JobSnapshot> {
        self.jobs.keys().filter_map(|id| self.snapshot(JobId(*id))).collect()
    }

    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(&job.0).map(|record| record.state)
    }

    pub fn events(&self, job: JobId, from: u64, max: usize) -> Option<(u64, Vec<JobEvent>)> {
        self.jobs.get(&job.0).map(|record| record.events.read(from, max))
    }

    /// Serializes a job's complete state as an [`ExplorationStore`] — the
    /// crash-safe handoff format.  The ledger's fold does not depend on ack
    /// order, so a run interrupted by worker deaths or a checkpoint/restore
    /// checkpoints byte-identically to an uninterrupted one.
    pub fn checkpoint(&self, job: JobId) -> Option<ExplorationStore> {
        let record = self.jobs.get(&job.0)?;
        let mut frontier: Vec<FrontierCell> =
            record.frontier.iter().map(|cell| FrontierCell { cell: *cell, priority: 0 }).collect();
        let mut lease_ids: Vec<u64> = record.outstanding.keys().copied().collect();
        lease_ids.sort_unstable();
        for id in lease_ids {
            frontier.extend(record.outstanding[&id].cells.iter().map(|cell| FrontierCell { cell: *cell, priority: 0 }));
        }
        let mut unreached: Vec<FaultCell> = record.skipped.iter().copied().collect();
        unreached.sort_by_cached_key(FaultCell::sort_key);
        let mut store = ExplorationStore {
            seed: record.spec.plan.seed.unwrap_or(0),
            batch_size: record.spec.lease_batch.unwrap_or(self.default_lease_batch),
            parallelism: 1,
            halt_on_crash: record.spec.halt_on_crash,
            case_budget: record.spec.max_cases.map(|max| max as u64),
            universe: record.cases_total,
            probe_done: true,
            frontier,
            unreached,
            ..ExplorationStore::default()
        };
        record.ledger.write_into(&mut store);
        Some(store)
    }

    /// The job's coverage/cluster report, read off its ledger.
    pub fn report(&self, job: JobId) -> Option<JobReport> {
        let record = self.jobs.get(&job.0)?;
        let ledger = &record.ledger;
        Some(JobReport {
            id: job,
            name: record.spec.name.clone(),
            state: record.state,
            coverage: JobCoverage {
                universe: record.cases_total,
                executed: ledger.executed_len(),
                triggered: ledger.triggered_len(),
                crashes: ledger.crashes() as usize,
                failures: ledger.failures() as usize,
                skipped: record.skipped.len(),
            },
            clusters: ledger.clusters().to_vec(),
        })
    }

    pub fn reports(&self) -> Vec<JobReport> {
        self.jobs.keys().filter_map(|id| self.report(JobId(*id))).collect()
    }

    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().map(|id| JobId(*id)).collect()
    }

    /// True when no job can make further progress: every job terminal (or
    /// paused with nothing in flight) and no lease outstanding.
    pub fn quiescent(&self) -> bool {
        self.jobs.values().all(|record| {
            (record.state.is_terminal() || record.state == JobState::Paused) && record.outstanding.is_empty()
        })
    }

    /// Fires the cancel handle of every outstanding lease (fabric
    /// shutdown), so in-flight campaign runs stop at their next case
    /// boundary.
    pub fn cancel_outstanding(&mut self) {
        for record in self.jobs.values_mut() {
            for lease in record.outstanding.values() {
                if let Some(handle) = &lease.cancel {
                    handle.cancel();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_controller::FnWorkload;
    use lfi_explore::OutcomeClass;
    use lfi_runtime::ExitStatus;
    use lfi_runtime::Process;
    use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

    fn noop_workload() -> Arc<dyn Workload> {
        FnWorkload::shared("noop", Process::new, |_| ExitStatus::Exited(0))
    }

    fn plan_with_cells(function: &str, ordinals: std::ops::RangeInclusive<u64>) -> Plan {
        let mut plan = Plan::new();
        for ordinal in ordinals {
            plan = plan.entry(PlanEntry {
                function: function.into(),
                trigger: Trigger::on_call(ordinal),
                action: FaultAction::return_value(-1).with_errno(5),
            });
        }
        plan
    }

    fn success_result(cells: &[FaultCell]) -> LeaseResult {
        LeaseResult {
            events: Vec::new(),
            outcomes: cells
                .iter()
                .map(|cell| {
                    (
                        *cell,
                        CellResult {
                            outcome: OutcomeClass::Success,
                            injections: 1,
                            observed_calls: 0,
                            stack: Vec::new(),
                        },
                    )
                })
                .collect(),
            skipped: Vec::new(),
        }
    }

    /// Every cell fails the same way: one cluster, whichever cells ran.
    fn failure_result(cells: &[FaultCell]) -> LeaseResult {
        let mut result = success_result(cells);
        for (_, outcome) in &mut result.outcomes {
            outcome.outcome = OutcomeClass::Failure(1);
            outcome.stack = vec![lfi_intern::Symbol::intern("main"), lfi_intern::Symbol::intern("read")];
        }
        result
    }

    /// Synthetic worker time of one cell in the tests below.
    const CELL: Duration = Duration::from_micros(100);

    /// The synthetic worker time a lease of `cells` took at [`CELL`] each.
    fn busy(cells: &[FaultCell]) -> Duration {
        CELL * cells.len() as u32
    }

    /// Issues the next lease and acks it at once, each cell having cost
    /// `cost(job)`; returns the job and the lease's size.
    fn run_next(sched: &mut Scheduler, now: Instant, cost: impl Fn(JobId) -> Duration) -> Option<(JobId, usize)> {
        let lease = sched.next_lease(now)?;
        let took = cost(lease.job) * lease.cells.len() as u32;
        assert!(sched.ack(lease.job, lease.lease, success_result(&lease.cells), took));
        Some((lease.job, lease.cells.len()))
    }

    fn charged(sched: &Scheduler, job: JobId) -> u64 {
        sched.jobs[&job.0].charged_ns
    }

    #[test]
    fn deficit_fairness_alternates_between_equal_weight_jobs() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let big = sched.submit(JobSpec::new("big", "noop", plan_with_cells("read", 1..=100)), noop_workload());
        let small = sched.submit(JobSpec::new("small", "noop", plan_with_cells("write", 1..=8)), noop_workload());
        // Equal per-cell cost: the tie at zero goes to the lower id, each
        // job's one-cell probe is followed by leases at the cap of 4, and
        // equal charges alternate strictly until the small job's 8 cells
        // are exhausted (1 + 4 + 3) — after which only the big job issues.
        let order: Vec<(JobId, usize)> = (0..8).map(|_| run_next(&mut sched, now, |_| CELL).unwrap()).collect();
        assert_eq!(order, vec![(big, 1), (small, 1), (big, 4), (small, 4), (big, 4), (small, 3), (big, 4), (big, 4)]);
        assert_eq!(sched.snapshot(small).unwrap().state, JobState::Done);
    }

    #[test]
    fn weighted_jobs_get_proportional_worker_time() {
        // The weight-2 job's cells cost three times as much: fairness is by
        // worker time, so it gets 2/3 of the time, not 2/3 of the cells.
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let light = sched.submit(JobSpec::new("light", "noop", plan_with_cells("read", 1..=400)), noop_workload());
        let heavy =
            sched.submit(JobSpec::new("heavy", "noop", plan_with_cells("write", 1..=400)).weight(2), noop_workload());
        let cost = |job: JobId| if job == heavy { CELL * 3 } else { CELL };
        let (mut light_time, mut heavy_time) = (Duration::ZERO, Duration::ZERO);
        while light_time + heavy_time < Duration::from_millis(60) {
            let (job, cells) = run_next(&mut sched, now, cost).unwrap();
            let took = cost(job) * cells as u32;
            if job == light {
                light_time += took;
            } else {
                heavy_time += took;
            }
        }
        let share = heavy_time.as_secs_f64() / (light_time + heavy_time).as_secs_f64();
        assert!((0.64..0.69).contains(&share), "weight-2 job gets ~2/3 of worker time, got {share:.3}");
    }

    #[test]
    fn cheap_job_behind_an_expensive_one_gets_every_lease_until_it_catches_up() {
        let mut sched = Scheduler::new(8, Duration::from_secs(60));
        let now = Instant::now();
        let expensive = sched.submit(JobSpec::new("slow", "noop", plan_with_cells("read", 1..=16)), noop_workload());
        let cheap = sched.submit(JobSpec::new("fast", "noop", plan_with_cells("write", 1..=40)), noop_workload());
        let cost = |job: JobId| if job == expensive { Duration::from_millis(20) } else { Duration::from_millis(1) };
        // The expensive job's probe cell costs 20 ms; the cheap job then
        // takes every lease — a probe, then leases sized to the 5 ms target
        // — until its own charge passes 20 ms.
        let order: Vec<(JobId, usize)> = (0..7).map(|_| run_next(&mut sched, now, cost).unwrap()).collect();
        assert_eq!(
            order,
            vec![(expensive, 1), (cheap, 1), (cheap, 5), (cheap, 5), (cheap, 5), (cheap, 5), (expensive, 1)]
        );
        assert_eq!(charged(&sched, cheap), 21_000_000);
    }

    #[test]
    fn leases_are_sized_by_time_within_the_cap() {
        let now = Instant::now();
        let micros = Duration::from_micros;
        // (per-cell cost, the job's own cap) → the lease after the probe:
        // as many cells as fit the 5 ms target, at least 1, at most the cap
        // (the fabric default of 8 unless the job sets its own).
        for (cost, cap, expected) in [
            (micros(2000), None, 2),
            (micros(1000), None, 5),
            (micros(10), None, 8),
            (micros(10), Some(3), 3),
            (micros(20_000), None, 1),
        ] {
            let mut sched = Scheduler::new(8, Duration::from_secs(60));
            let mut spec = JobSpec::new("job", "noop", plan_with_cells("read", 1..=40));
            if let Some(cap) = cap {
                spec = spec.lease_batch(cap);
            }
            sched.submit(spec, noop_workload());
            assert_eq!(run_next(&mut sched, now, |_| cost).unwrap().1, 1, "the first lease is a one-cell probe");
            assert_eq!(run_next(&mut sched, now, |_| cost).unwrap().1, expected, "{cost:?} per cell, cap {cap:?}");
        }
    }

    #[test]
    fn expired_lease_requeues_cells_and_late_ack_is_stale() {
        let mut sched = Scheduler::new(4, Duration::from_secs(10));
        let base = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=5)), noop_workload());
        // The one-cell probe measures the job's cost; the next lease is
        // then the cap of 4.
        let probe = sched.next_lease(base).unwrap();
        assert_eq!(probe.cells.len(), 1);
        assert!(sched.ack(job, probe.lease, success_result(&probe.cells), busy(&probe.cells)));
        let lease = sched.next_lease(base).unwrap();
        assert_eq!(lease.cells.len(), 4);
        assert_eq!(sched.snapshot(job).unwrap().outstanding, 4);

        // Nothing expires before the deadline.
        assert_eq!(sched.expire(base + Duration::from_secs(9)), 0);
        assert_eq!(sched.expire(base + Duration::from_secs(11)), 1);
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.outstanding, 0);
        assert_eq!(snapshot.pending, 4, "expired cells return to the frontier");
        assert_eq!(snapshot.requeued, 4);

        // The zombie worker's late ack is discarded wholesale.
        assert!(!sched.ack(job, lease.lease, success_result(&lease.cells), busy(&lease.cells)));
        assert_eq!(sched.snapshot(job).unwrap().progress.finished, 1);

        // The re-issued lease preserves the original cell order.
        let reissued = sched.next_lease(base + Duration::from_secs(12)).unwrap();
        assert_eq!(reissued.cells, lease.cells);
        assert!(sched.ack(job, reissued.lease, success_result(&reissued.cells), busy(&reissued.cells)));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Done);
        assert_eq!(snapshot.progress.finished, 5, "each cell counted exactly once");
        assert_eq!(charged(&sched, job), 500_000, "only the acked leases' worker time is charged");
    }

    #[test]
    fn expired_and_panicked_leases_refund_their_charge() {
        let mut sched = Scheduler::new(4, Duration::from_secs(10));
        let base = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=12)), noop_workload());
        // An unknown-cost probe is charged the placeholder, then refunded.
        let probe = sched.next_lease(base).unwrap();
        assert_eq!(charged(&sched, job), nanos(UNKNOWN_CELL_CHARGE));
        assert!(sched.requeue_panic(job, probe.lease));
        assert_eq!(charged(&sched, job), 0);

        let probe = sched.next_lease(base).unwrap();
        assert!(sched.ack(job, probe.lease, success_result(&probe.cells), busy(&probe.cells)));
        let settled = charged(&sched, job);
        assert_eq!(settled, nanos(CELL));

        // Known cost: a lease of 4 is charged 4 × the estimate at issue...
        let lease = sched.next_lease(base).unwrap();
        assert_eq!(charged(&sched, job), settled + 4 * nanos(CELL));
        // ...and refunded when it expires,
        assert_eq!(sched.expire(base + Duration::from_secs(11)), 1);
        assert_eq!(charged(&sched, job), settled);
        assert!(!sched.ack(job, lease.lease, success_result(&lease.cells), Duration::from_secs(1)), "stale");
        assert_eq!(charged(&sched, job), settled, "a stale ack charges nothing");
        // ...or when its worker panics.
        let lease = sched.next_lease(base + Duration::from_secs(11)).unwrap();
        assert!(sched.requeue_panic(job, lease.lease));
        assert_eq!(charged(&sched, job), settled);
        assert_eq!(sched.jobs[&job.0].cell_ns, Some(nanos(CELL)), "the estimate survives the refunds");
    }

    #[test]
    fn replayed_acks_charge_nothing() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let spec = JobSpec::new("job", "noop", plan_with_cells("read", 1..=12));
        let job = sched.submit(spec.clone(), noop_workload());
        let initial = sched.checkpoint(job).unwrap();
        let probe = sched.next_lease(now).unwrap();
        assert!(sched.ack(job, probe.lease, success_result(&probe.cells), Duration::from_millis(3)));

        let mut replayed = Scheduler::new(4, Duration::from_secs(60));
        let job2 = replayed.submit_restored(spec, noop_workload(), &initial);
        assert!(replayed.replay_ack(job2, success_result(&probe.cells)));
        assert_eq!(charged(&replayed, job2), 0);
        assert_eq!(replayed.jobs[&job2.0].cell_ns, None, "replay leaves the cost unknown");
        assert_eq!(replayed.next_lease(now).unwrap().cells.len(), 1, "so the next lease is a probe");
    }

    #[test]
    fn late_job_starts_at_the_current_virtual_time() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let first = sched.submit(JobSpec::new("first", "noop", plan_with_cells("read", 1..=8)), noop_workload());
        assert_eq!(charged(&sched, first), 0, "an empty fabric starts at zero");
        for _ in 0..2 {
            run_next(&mut sched, now, |_| Duration::from_millis(10)).unwrap();
        }
        let settled = charged(&sched, first);
        assert_eq!(settled, 20_000_000, "two one-cell leases: a 10 ms cell exceeds the lease target");
        // An outstanding lease's issue-time charge does not raise the floor.
        let _out = sched.next_lease(now).unwrap();
        assert!(charged(&sched, first) > settled);

        let late = sched.submit(JobSpec::new("late", "noop", plan_with_cells("write", 1..=8)), noop_workload());
        assert_eq!(charged(&sched, late), settled, "admitted at the minimum settled virtual time");
        let heavy =
            sched.submit(JobSpec::new("heavy", "noop", plan_with_cells("open", 1..=8)).weight(2), noop_workload());
        assert_eq!(sched.jobs[&heavy.0].deficit(), settled, "same virtual time at twice the weight");
        assert_eq!(charged(&sched, heavy), 2 * settled);

        // A job paused while the others ran returns at the current virtual
        // time, not with the time it sat out banked.
        assert_eq!(sched.pause(late), Some(JobState::Paused));
        for _ in 0..8 {
            run_next(&mut sched, now, |_| Duration::from_millis(10)).unwrap();
        }
        let floor = sched.vtime_floor();
        assert!(floor > settled);
        assert_eq!(sched.resume(late), Some(JobState::Running));
        assert_eq!(charged(&sched, late), floor);
    }

    #[test]
    fn repeated_panics_fail_the_job() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=4)), noop_workload());
        for round in 0..MAX_JOB_PANICS {
            let lease = sched.next_lease(now).unwrap();
            assert!(sched.requeue_panic(job, lease.lease), "round {round}");
        }
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Failed);
        assert_eq!(snapshot.pending, 0);
        assert_eq!(snapshot.progress.skipped, 4, "failed job accounts for every cell");
        assert!(sched.next_lease(now).is_none());
        // A successful ack resets the panic streak.
        let job2 = sched.submit(JobSpec::new("job2", "noop", plan_with_cells("write", 1..=8)), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        sched.requeue_panic(job2, lease.lease);
        let lease = sched.next_lease(now).unwrap();
        assert!(sched.ack(job2, lease.lease, success_result(&lease.cells), busy(&lease.cells)));
        let lease = sched.next_lease(now).unwrap();
        sched.requeue_panic(job2, lease.lease);
        assert_eq!(sched.state(job2), Some(JobState::Running), "streak was reset by the ack");
    }

    #[test]
    fn cancel_skips_pending_and_is_idempotent() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=6)), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        assert_eq!(sched.cancel(job), Some(JobState::Cancelled));
        assert_eq!(sched.cancel(job), Some(JobState::Cancelled), "double cancel is a no-op");
        assert!(sched.next_lease(now).is_none(), "cancelled job issues no leases");
        // The in-flight lease comes back with its cells skipped mid-run.
        let result = LeaseResult { skipped: lease.cells.clone(), ..LeaseResult::default() };
        assert!(sched.ack(job, lease.lease, result, Duration::ZERO));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.progress.skipped, 6);
        assert_eq!(snapshot.pending + snapshot.outstanding, 0);
        assert!(sched.quiescent());
    }

    #[test]
    fn pause_withholds_leases_and_resume_restores_them() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job = sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=4)), noop_workload());
        assert_eq!(sched.pause(job), Some(JobState::Paused));
        assert!(sched.next_lease(now).is_none());
        assert!(sched.quiescent(), "paused with nothing in flight is quiescent");
        assert_eq!(sched.resume(job), Some(JobState::Running));
        assert!(sched.next_lease(now).is_some());
    }

    #[test]
    fn crash_halt_completes_job_and_skips_remainder() {
        let mut sched = Scheduler::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let job =
            sched.submit(JobSpec::new("job", "noop", plan_with_cells("read", 1..=6)).halt_on_crash(), noop_workload());
        let lease = sched.next_lease(now).unwrap();
        let mut result = success_result(&lease.cells[..1]);
        result.outcomes[0].1.outcome = OutcomeClass::Crash(lfi_runtime::Signal::Segv);
        result.skipped = lease.cells[1..].to_vec();
        assert!(sched.ack(job, lease.lease, result, CELL));
        let snapshot = sched.snapshot(job).unwrap();
        assert_eq!(snapshot.state, JobState::Done);
        assert_eq!(snapshot.progress.finished, 1);
        assert_eq!(snapshot.progress.skipped, 5);
        assert_eq!(snapshot.clusters, 1);
    }

    #[test]
    fn checkpoint_restores_into_equivalent_job() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let spec = JobSpec::new("sweep", "noop", plan_with_cells("read", 1..=12));
        let job = sched.submit(spec.clone(), noop_workload());
        let first = sched.next_lease(now).unwrap();
        assert!(sched.ack(job, first.lease, success_result(&first.cells), busy(&first.cells)));
        // Take a mid-run checkpoint: the one-cell probe acked, a lease of 4
        // outstanding.
        let second = sched.next_lease(now).unwrap();
        assert_eq!(second.cells.len(), 4);
        let store = sched.checkpoint(job).unwrap();
        assert_eq!(store.cases_executed, 1);
        assert_eq!(store.frontier.len(), 11, "pending plus outstanding cells");
        assert_eq!(store.universe, 12);
        let xml = store.to_xml();
        let reloaded = ExplorationStore::from_xml(&xml).unwrap();
        assert_eq!(reloaded, store);
        drop(second);

        // A fresh scheduler resumes from the checkpoint and finishes.
        let mut resumed = Scheduler::new(4, Duration::from_secs(60));
        let job2 = resumed.submit_restored(spec, noop_workload(), &reloaded);
        let mut acked = 0;
        while let Some(lease) = resumed.next_lease(now) {
            acked += lease.cells.len();
            assert!(resumed.ack(job2, lease.lease, success_result(&lease.cells), busy(&lease.cells)));
        }
        assert_eq!(acked, 11, "only the unexecuted cells re-run");
        let report = resumed.report(job2).unwrap();
        assert_eq!(report.state, JobState::Done);
        assert_eq!(report.coverage.universe, 12);
        assert_eq!(report.coverage.executed, 12, "union coverage spans both halves");
        assert_eq!(report.coverage.triggered, 12);
        let final_store = resumed.checkpoint(job2).unwrap();
        assert_eq!(final_store.executed.len(), 12);
        assert!(final_store.frontier.is_empty());
    }

    #[test]
    fn a_checkpoint_taken_with_the_example_cell_on_lease_restores_byte_identically() {
        let spec = JobSpec::new("job", "noop", plan_with_cells("read", 1..=4));
        let now = Instant::now();
        let finish = |sched: &mut Scheduler, job: JobId| {
            while let Some(lease) = sched.next_lease(now) {
                assert!(sched.ack(job, lease.lease, failure_result(&lease.cells), busy(&lease.cells)));
            }
        };
        let mut clean = Scheduler::new(4, Duration::from_secs(60));
        let job = clean.submit(spec.clone(), noop_workload());
        finish(&mut clean, job);
        let expected = clean.checkpoint(job).unwrap();
        assert_eq!(expected.clusters.len(), 1);
        assert_eq!(expected.clusters[0].count, 4);
        assert_eq!(expected.clusters[0].example_case, "read-c1-r-1-e5");

        // c1 goes out on lease and stays there while c2 is acked, then the
        // job is checkpointed and restored.
        let mut live = Scheduler::new(4, Duration::from_secs(60));
        let job = live.submit(spec.clone(), noop_workload());
        let c1 = live.next_lease(now).unwrap();
        let c2 = live.next_lease(now).unwrap();
        assert_eq!((c1.cells[0].call_ordinal, c2.cells.len(), c2.cells[0].call_ordinal), (1, 1, 2));
        assert!(live.ack(job, c2.lease, failure_result(&c2.cells), busy(&c2.cells)));
        let snapshot = live.checkpoint(job).unwrap();
        let mut restored = Scheduler::new(4, Duration::from_secs(60));
        let job2 = restored.submit_restored(spec.clone(), noop_workload(), &snapshot);
        finish(&mut restored, job2);
        assert_eq!(restored.checkpoint(job2).unwrap().to_xml(), expected.to_xml());

        // The same snapshot as a compacted journal head: the live job goes
        // on, and recovery replays the acks journaled after the snapshot.
        let mut acks = vec![failure_result(&c1.cells)];
        assert!(live.ack(job, c1.lease, acks[0].clone(), busy(&c1.cells)));
        while let Some(lease) = live.next_lease(now) {
            acks.push(failure_result(&lease.cells));
            assert!(live.ack(job, lease.lease, failure_result(&lease.cells), busy(&lease.cells)));
        }
        assert_eq!(live.checkpoint(job).unwrap().to_xml(), expected.to_xml());
        let mut replayed = Scheduler::new(4, Duration::from_secs(60));
        let job3 = replayed.submit_restored(spec, noop_workload(), &snapshot);
        for ack in acks {
            assert!(replayed.replay_ack(job3, ack));
        }
        assert_eq!(replayed.checkpoint(job3).unwrap().to_xml(), expected.to_xml());
    }

    #[test]
    fn replayed_acks_in_journal_order_reconstruct_the_live_fold() {
        // Live run: after the one-cell probe, two concurrent leases of 4
        // acked out of issue order — the second lease comes back fully
        // skipped (its cells requeue to the front), then the first lands
        // successfully.
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let now = Instant::now();
        let spec = JobSpec::new("job", "noop", plan_with_cells("read", 1..=12));
        let job = sched.submit(spec.clone(), noop_workload());
        let initial = sched.checkpoint(job).unwrap();
        let probe = sched.next_lease(now).unwrap();
        assert!(sched.ack(job, probe.lease, success_result(&probe.cells), busy(&probe.cells)));
        let first = sched.next_lease(now).unwrap();
        let second = sched.next_lease(now).unwrap();
        assert_eq!((first.cells.len(), second.cells.len()), (4, 4));
        let skip_second = LeaseResult { skipped: second.cells.clone(), ..LeaseResult::default() };
        assert!(sched.ack(job, second.lease, skip_second.clone(), Duration::ZERO));
        assert!(sched.ack(job, first.lease, success_result(&first.cells), busy(&first.cells)));
        let live = sched.checkpoint(job).unwrap();

        // Recovery: restore from the submit-time snapshot, then replay the
        // three acks in the order they were journaled.
        let mut replayed = Scheduler::new(4, Duration::from_secs(60));
        let job2 = replayed.submit_restored(spec, noop_workload(), &initial);
        assert!(replayed.replay_ack(job2, success_result(&probe.cells)));
        assert!(replayed.replay_ack(job2, skip_second));
        assert!(replayed.replay_ack(job2, success_result(&first.cells)));
        assert_eq!(replayed.checkpoint(job2).unwrap(), live, "replay reproduces frontier order and done set");
        assert_eq!(replayed.snapshot(job2).unwrap().progress.finished, 5);
        assert!(!replayed.replay_ack(JobId(99), LeaseResult::default()), "unknown job replays nothing");
    }

    #[test]
    fn empty_plan_job_is_immediately_done() {
        let mut sched = Scheduler::new(4, Duration::from_secs(60));
        let job = sched.submit(JobSpec::new("empty", "noop", Plan::new()), noop_workload());
        assert_eq!(sched.state(job), Some(JobState::Done));
        assert!(sched.next_lease(Instant::now()).is_none());
        let (next, events) = sched.events(job, 0, 16).unwrap();
        assert_eq!(next, 2);
        assert_eq!(events[0].kind, JobEventKind::State(JobState::Queued));
        assert_eq!(events[1].kind, JobEventKind::State(JobState::Done));
        // Reading past the end leaves the cursor in place.
        let (next, rest) = sched.events(job, next, 16).unwrap();
        assert_eq!(next, 2);
        assert!(rest.is_empty());
    }
}

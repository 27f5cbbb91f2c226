//! The job model: what a tenant submits ([`JobSpec`]), how the fabric names
//! it ([`JobId`]), where it is in its lifecycle ([`JobState`]), and the
//! observable surfaces ([`JobSnapshot`], [`JobEvent`], [`JobReport`]).

use std::fmt;

use lfi_explore::{CrashCluster, OutcomeClass};
use lfi_intern::Symbol;
use lfi_scenario::Plan;

/// Identifier of a submitted job, unique within one fabric (ids are handed
/// out sequentially and never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued ──► Running ──► Done        (frontier drained, every lease acked)
///    │          │   └──► Failed      (workers panicked repeatedly)
///    │          ▼
///    ├──────► Paused ──► Running     (resume)
///    │          │
///    ▼          ▼
/// Cancelled  Cancelled               (terminal)
/// ```
///
/// `Done`, `Failed` and `Cancelled` are terminal; `Paused` only stops *new*
/// leases — outstanding leases finish and are folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, no lease issued yet.
    Queued,
    /// At least one lease issued; the frontier still holds (or leases still
    /// hold) work.
    Running,
    /// Paused: outstanding leases finish, no new lease is issued until
    /// resumed.
    Paused,
    /// Cancelled by a tenant (terminal); pending cells are counted skipped.
    Cancelled,
    /// Every cell acked, or a `halt_on_crash` job found its crash
    /// (terminal).
    Done,
    /// The job's leases made workers panic repeatedly (terminal).
    Failed,
}

impl JobState {
    /// True for the states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Cancelled | JobState::Done | JobState::Failed)
    }

    /// Parses the [`fmt::Display`] form back (the wire protocol's state
    /// tokens).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "paused" => Some(JobState::Paused),
            "cancelled" => Some(JobState::Cancelled),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Cancelled => "cancelled",
            JobState::Done => "done",
            JobState::Failed => "failed",
        };
        f.write_str(text)
    }
}

/// What a tenant submits: a job name, the [`WorkloadRegistry`] key of the
/// application under test, the faultload whose deterministic cells form the
/// job's frontier, and the scheduling/policy knobs.
///
/// Unlike [`Campaign::from_generator`], the fabric keeps each cell's
/// *original* call ordinal (via [`FaultCell::plan_entry`]): a fabric job is
/// an exploration-style sweep of the plan's fault space, one process per
/// cell, so consecutive ordinals stay meaningful.
///
/// [`WorkloadRegistry`]: lfi_controller::WorkloadRegistry
/// [`Campaign::from_generator`]: lfi_controller::Campaign::from_generator
/// [`FaultCell::plan_entry`]: lfi_scenario::FaultCell::plan_entry
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (report label; need not be unique).
    pub name: String,
    /// Registry key of the workload to drive.
    pub workload: String,
    /// The faultload; its deterministic cells (see
    /// [`CompiledPlan::cells`](lfi_scenario::CompiledPlan::cells)) become
    /// the job's frontier, in process-independent sort order.
    pub plan: Plan,
    /// Fair-share weight (≥ 1), a share of *worker time*: while both have
    /// work pending, a weight-2 job gets twice the worker time of a
    /// weight-1 job, however the two jobs' per-cell costs compare.
    pub weight: u32,
    /// Cap on cells per lease; `None` uses the fabric's default of 8.
    /// Within the
    /// cap, leases are sized by time: one cell first, then as many as fit a
    /// few milliseconds at the job's measured per-cell cost.
    pub lease_batch: Option<usize>,
    /// Finish the job early (state `Done`) once a cell crashes the
    /// workload; remaining cells are counted skipped.
    pub halt_on_crash: bool,
    /// Truncates the enumerated frontier up front: at most this many cells
    /// are queued.
    pub max_cases: Option<usize>,
}

impl JobSpec {
    /// A job over `plan` driving the registered workload `workload`, with
    /// default knobs (weight 1, fabric default lease batch, run-all).
    pub fn new(name: impl Into<String>, workload: impl Into<String>, plan: Plan) -> Self {
        Self {
            name: name.into(),
            workload: workload.into(),
            plan,
            weight: 1,
            lease_batch: None,
            halt_on_crash: false,
            max_cases: None,
        }
    }

    /// Sets the fair-share weight (values below 1 are clamped to 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Caps the cells per lease for this job (leases are sized by time
    /// within the cap).
    pub fn lease_batch(mut self, cells: usize) -> Self {
        self.lease_batch = Some(cells.max(1));
        self
    }

    /// Finishes the job at the first crashing cell.
    pub fn halt_on_crash(mut self) -> Self {
        self.halt_on_crash = true;
        self
    }

    /// Bounds the job at `max` cells (frontier truncated up front).
    pub fn max_cases(mut self, max: usize) -> Self {
        self.max_cases = Some(max);
        self
    }
}

/// One observable event of a job's stream, sequence-numbered so a poller
/// (`events after=<seq>`) never re-reads or misses a delivered event.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// Position in the job's event stream (0-based, dense).
    pub seq: u64,
    /// What happened.
    pub kind: JobEventKind,
}

/// What a [`JobEvent`] reports.  Case-level kinds are keyed by case *name*
/// instead of the within-lease indices
/// [`CaseEvent`](lfi_controller::CaseEvent) uses.  The name is the cell's
/// [`FaultCell::case_name`](lfi_scenario::FaultCell::case_name), stable
/// across lease re-issues, and
/// [`FaultCell::parse`](lfi_scenario::FaultCell::parse) recovers the cell
/// from it.  A `Finished` event with its parsed cell carries what the job's
/// [`FaultLedger`](lfi_explore::FaultLedger) folds for the case (every
/// [`CellResult`](lfi_explore::CellResult) field but the observed calls),
/// so a monitor keys the case's cluster as the job's report does.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEventKind {
    /// The job changed lifecycle state.
    State(JobState),
    /// A worker started a case.
    Started {
        /// Cell-derived case name.
        case: String,
    },
    /// An injection was performed during a case (reported after the case's
    /// workload finished, like the underlying campaign stream).
    Injection {
        /// Cell-derived case name.
        case: String,
        /// Intercepted function.
        function: String,
        /// Injected return value, if the call was not passed through.
        retval: Option<i64>,
        /// Injected errno, if any.
        errno: Option<i64>,
    },
    /// A case ran to an outcome.
    Finished {
        /// Cell-derived case name.
        case: String,
        /// How the case ended, folded to the clustering classes.
        outcome: OutcomeClass,
        /// Injections performed during the case.
        injections: usize,
        /// The call stack of the case's first injection, innermost frame
        /// last (empty when none fired).
        stack: Vec<Symbol>,
    },
    /// A case inside a lease was skipped.  A cell the job's cancel or crash
    /// halt stopped mid-lease returns to the frontier unless the job is
    /// terminal; a cell whose case the workload's health check vetoed is
    /// skipped for good.
    Skipped {
        /// Cell-derived case name.
        case: String,
    },
    /// A lease expired or its worker panicked: its unacked cells returned
    /// to the front of the frontier.
    Requeued {
        /// How many cells went back.
        cells: usize,
    },
}

/// A job's five execution counters as one plain value — what a status RPC
/// or a progress line wants.  The fabric builds it from the job's
/// [`FaultLedger`](lfi_explore::FaultLedger) and lease bookkeeping when a
/// [`JobSnapshot`] is taken; a campaign session keeps no such counters (its
/// event stream is its record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Cells handed to workers (re-issued leases count again).
    pub started: usize,
    /// Cells executed to an outcome (the ledger's executed cells).
    pub finished: usize,
    /// Cells retired without an outcome (the exploration's unreached cells).
    pub skipped: usize,
    /// Executed cells whose workload crashed.
    pub crashes: usize,
    /// Injections performed across the executed cells.
    pub injections: usize,
}

/// A point-in-time view of one job, cheap to take while the fleet runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The job's id.
    pub id: JobId,
    /// The job's name.
    pub name: String,
    /// Registry key of the workload the job drives.
    pub workload: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Size of the enumerated cell universe (after `max_cases`).
    pub cases: usize,
    /// Cells waiting on the frontier.
    pub pending: usize,
    /// Cells currently out on unacked leases.
    pub outstanding: usize,
    /// Execution counters: `started` counts cells handed to workers
    /// (re-issued leases count again), the rest fold acked leases only.
    pub progress: ProgressSnapshot,
    /// Cells that returned to the frontier from expired or panicked leases.
    pub requeued: u64,
    /// Distinct crash/failure clusters observed so far.
    pub clusters: usize,
}

/// Aggregate coverage of a job's cell universe (the fabric analogue of
/// [`CoverageSummary`](lfi_explore::CoverageSummary)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCoverage {
    /// Cells enumerated from the plan (after `max_cases`).
    pub universe: usize,
    /// Cells acked with an outcome (including cells restored from a
    /// checkpoint as already-executed).
    pub executed: usize,
    /// Executed cells whose injection actually fired.
    pub triggered: usize,
    /// Executed cells whose workload died on a signal.
    pub crashes: usize,
    /// Executed cells whose workload exited non-zero without crashing.
    pub failures: usize,
    /// Cells counted skipped (cancel / crash-halt).
    pub skipped: usize,
}

/// The final (or interim) result of a job: coverage plus the deduplicated
/// outcome clusters, read off the job's
/// [`FaultLedger`](lfi_explore::FaultLedger), whose fold does not depend on
/// ack order — so a run interrupted by worker deaths or a checkpoint and an
/// uninterrupted run produce byte-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job's id.
    pub id: JobId,
    /// The job's name.
    pub name: String,
    /// Lifecycle state at report time.
    pub state: JobState,
    /// Aggregate coverage numbers.
    pub coverage: JobCoverage,
    /// Deduplicated non-success clusters, keyed like
    /// [`CrashCluster`](lfi_explore::CrashCluster) (function, stack,
    /// outcome class), in key order.
    pub clusters: Vec<CrashCluster>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_state_display_round_trips() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Paused,
            JobState::Cancelled,
            JobState::Done,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(&state.to_string()), Some(state));
        }
        assert_eq!(JobState::parse("melted"), None);
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Paused.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Queued.is_terminal());
    }

    #[test]
    fn job_spec_builder_clamps_and_sets() {
        let spec = JobSpec::new("sweep", "pidgin-login", Plan::new())
            .weight(0)
            .lease_batch(0)
            .halt_on_crash()
            .max_cases(7);
        assert_eq!(spec.weight, 1, "weight clamps to >= 1");
        assert_eq!(spec.lease_batch, Some(1), "lease batch clamps to >= 1");
        assert!(spec.halt_on_crash);
        assert_eq!(spec.max_cases, Some(7));
        assert_eq!(JobId(3).to_string(), "3");
    }
}

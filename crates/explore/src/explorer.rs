//! The [`Explorer`]: the generate → run → observe → refine loop.

use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lfi_controller::{Campaign, CampaignReport, CaseEvent, TestCase, Workload};
use lfi_intern::{Symbol, SymbolMap, SymbolSet};
use lfi_profile::FaultProfile;
use lfi_scenario::{FaultCell, FaultSpace, Plan};

use crate::ledger::{CellResult, CrashCluster};
use crate::run::run_cells;
use crate::{ExplorationDelta, ExplorationState, ExplorationStore};

/// Name of the injection-free probe case every exploration starts with.
pub(crate) const PROBE_CASE_NAME: &str = "probe-baseline";

/// Default number of fault cells per batch.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 16;

/// Priority of a frontier cell that sits next to an observed crash.
pub(crate) const ESCALATED: i32 = 100;

/// Priority of a frontier cell whose ordinal lies beyond the call depth the
/// probe run observed for its function (kept, but visited last: an injection
/// can lengthen a retry loop, so "beyond the baseline depth" is a hint, not
/// proof of unreachability).
const DEPRIORITIZED: i32 = -50;

/// Aggregate coverage numbers for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageSummary {
    /// Cells enumerated from the seed plan.
    pub universe: usize,
    /// Cells actually run as test cases (probe excluded).
    pub executed: usize,
    /// Executed cells whose injection fired.
    pub triggered: usize,
    /// Cells whose planned injection is known to never fire: executed
    /// without triggering, or pruned because the observed call depth proves
    /// their ordinal unreachable.
    pub unreached: usize,
    /// Functions pruned wholesale because no run ever reached them.
    pub pruned_functions: usize,
    /// Cells still waiting on the frontier.
    pub frontier_remaining: usize,
}

/// The aggregate result of an exploration ([`Explorer::run_workload`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationReport {
    /// One campaign report per executed batch (the probe is batch 0).
    pub batches: Vec<CampaignReport>,
    /// Total test cases executed, including the probe.
    pub cases_executed: u64,
    /// Total injections performed.
    pub injections_performed: u64,
    /// The deduplicated non-success clusters, in key order (function name,
    /// stack frame names, outcome class).
    pub clusters: Vec<CrashCluster>,
    /// Aggregate coverage numbers.
    pub coverage: CoverageSummary,
}

impl ExplorationReport {
    /// The clusters that are signal deaths.
    pub fn crash_clusters(&self) -> impl Iterator<Item = &CrashCluster> {
        self.clusters.iter().filter(|c| c.is_crash())
    }
}

/// Tunables of an exploration, all defaulted; see the setters on
/// [`Explorer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExplorerConfig {
    pub seed: u64,
    pub batch_size: usize,
    pub parallelism: usize,
    pub halt_on_crash: bool,
    pub case_budget: Option<u64>,
    pub injection_budget: Option<u64>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: 1,
            halt_on_crash: false,
            case_budget: None,
            injection_budget: None,
        }
    }
}

/// The coverage-guided exploration engine — see the [crate docs](crate) for
/// the loop it closes.
///
/// Batches run as streaming [`Campaign`] sessions: the explorer consumes
/// each batch's [`CaseEvent`] stream, so [`Explorer::halt_on_crash`] stops
/// scheduling *within* the batch that crashed (via the campaign's
/// stop-on-first-crash policy) and a caller of [`Explorer::step_with`] can
/// cancel a batch mid-flight.  Cells whose cases were skipped by such a
/// halt return to the frontier with their original priority, so nothing is
/// silently lost.  A case the workload's health check vetoed ends its cell
/// as unreached.
///
/// # Determinism contract
///
/// Given the same seed plan and profiles, the same [`Explorer::seed`], and
/// the same configuration, the sequence of batches — case names, plans and
/// order — is identical from run to run and from process to process (cells
/// are ordered by function *name*, never by interning order).  The same
/// holds across a kill/resume boundary: an explorer rebuilt with
/// [`Explorer::resume`] from an [`ExplorationStore`] continues with exactly
/// the batch sequence the original explorer would have produced, because the
/// store carries the frontier in order, the full coverage/cluster state and
/// the RNG stream position.  With a deterministic workload the remaining
/// [`CampaignReport`]s, and the stores and deltas the explorer writes, are
/// therefore byte-identical.  One exception: a mid-batch
/// [`Explorer::halt_on_crash`] stop under [`Explorer::parallelism`] `> 1`
/// skips a scheduling-dependent set of in-flight cases; the case/injection
/// budgets are exact counters and preserve the contract, and at the default
/// `parallelism(1)` the halt point is deterministic too.
pub struct Explorer {
    /// The profiles crash escalation draws sibling errnos from, shared
    /// (the facade hands every explorer over one profile set the same ones).
    profiles: Arc<[FaultProfile]>,
    /// The frontier book: every pending cell, muted or not, the unreached
    /// ones, the ledger, and what changed since the last delta.
    state: ExplorationState,
    config: ExplorerConfig,
    rng: StdRng,
    rng_draws: u64,
    batch_index: u64,
    probe_done: bool,
    /// Whether [`Explorer::react`] runs the built-in crash-adjacent
    /// escalation heuristic (default).  A closed-loop driver disables it and
    /// re-expresses escalation as rules over [`Explorer::escalate_cell`].
    escalation_enabled: bool,
    /// Muted functions: their frontier cells stay pending but no batch
    /// selects them until [`Explorer::unmute`].
    muted: SymbolSet,
}

impl Explorer {
    /// Creates an explorer over the cells of a seed plan (normally the
    /// output of a [`ScenarioGenerator`](lfi_scenario::ScenarioGenerator)
    /// over `profiles`): [`Explorer::from_space`] over
    /// [`FaultSpace::from_plan`].
    pub fn new(seed_plan: &Plan, profiles: impl Into<Arc<[FaultProfile]>>) -> Self {
        Self::from_space(&FaultSpace::from_plan(seed_plan), profiles)
    }

    /// Creates an explorer whose universe is `space`, every cell on the
    /// frontier at priority 0 in the space's order.  The profiles stay with
    /// the explorer: crash escalation draws sibling errnos from their
    /// per-function error sets.  The facade builds the space once per
    /// profile set and generator and hands every explorer the same one.
    pub fn from_space(space: &FaultSpace, profiles: impl Into<Arc<[FaultProfile]>>) -> Self {
        let config = ExplorerConfig::default();
        Self {
            profiles: profiles.into(),
            state: ExplorationState::new(space.cells(), space.len()),
            rng: StdRng::seed_from_u64(config.seed),
            rng_draws: 0,
            config,
            batch_index: 0,
            probe_done: false,
            escalation_enabled: true,
            muted: SymbolSet::default(),
        }
    }

    /// Rebuilds an explorer from a serialized [`ExplorationStore`], resuming
    /// exactly where the snapshot was taken: the frontier (in order),
    /// coverage, clusters, budgets, and the RNG stream advanced to its
    /// recorded position.  `profiles` must be the same profiles the original
    /// exploration ran over for escalation to propose the same siblings.
    pub fn resume(profiles: impl Into<Arc<[FaultProfile]>>, store: &ExplorationStore) -> Self {
        let mut rng = StdRng::seed_from_u64(store.seed);
        for _ in 0..store.rng_draws {
            let _: u64 = rng.gen();
        }
        Self {
            profiles: profiles.into(),
            state: ExplorationState::from_store(store),
            config: ExplorerConfig {
                seed: store.seed,
                batch_size: store.batch_size.max(1),
                parallelism: store.parallelism,
                halt_on_crash: store.halt_on_crash,
                case_budget: store.case_budget,
                injection_budget: store.injection_budget,
            },
            rng,
            rng_draws: store.rng_draws,
            batch_index: store.batch_index,
            probe_done: store.probe_done,
            escalation_enabled: true,
            muted: SymbolSet::default(),
        }
    }

    /// Snapshots the complete exploration state.  Serialize it with
    /// [`ExplorationStore::to_xml`] next to the profile store; a later
    /// process restores with [`ExplorationStore::from_xml`] +
    /// [`Explorer::resume`].
    pub fn store(&self) -> ExplorationStore {
        // Muted cells are pending like any other: mute state is runtime-only
        // and a resumed explorer starts with nothing muted, so nothing is
        // silently lost across a restore.
        let mut store = ExplorationStore {
            seed: self.config.seed,
            batch_size: self.config.batch_size,
            parallelism: self.config.parallelism,
            halt_on_crash: self.config.halt_on_crash,
            case_budget: self.config.case_budget,
            injection_budget: self.config.injection_budget,
            batch_index: self.batch_index,
            rng_draws: self.rng_draws,
            probe_done: self.probe_done,
            ..ExplorationStore::default()
        };
        self.state.write_into(&mut store);
        store
    }

    /// Drains everything that mutated since the last `take_delta` call (or
    /// since construction/resume) into one [`ExplorationDelta`] — the
    /// incremental-checkpoint primitive behind the `lfi-store` journal.
    /// Applying it to the [`Explorer::store`] taken at the previous call
    /// reproduces the current one byte for byte (see
    /// [`ExplorationState::take_delta`]).
    pub fn take_delta(&mut self) -> ExplorationDelta {
        ExplorationDelta {
            batch_index: self.batch_index,
            rng_draws: self.rng_draws,
            probe_done: self.probe_done,
            ..self.state.take_delta()
        }
    }

    // -- configuration ------------------------------------------------------

    /// Sets the RNG seed (part of the determinism contract; default 0).
    /// Configure before the first [`Explorer::step_workload`] — the RNG
    /// stream restarts from the new seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self.rng_draws = 0;
        self
    }

    /// Sets how many cells each batch runs (default 16; clamped to at
    /// least 1).
    pub fn batch_size(mut self, cells: usize) -> Self {
        self.config.batch_size = cells.max(1);
        self
    }

    /// Runs each batch's cases on up to `workers` threads (outcome order and
    /// reports are unaffected — campaign reports are slot-ordered).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = workers;
        self
    }

    /// Stops the exploration at the end of the first batch that produced a
    /// signal death (default: keep exploring).
    pub fn halt_on_crash(mut self, halt: bool) -> Self {
        self.config.halt_on_crash = halt;
        self
    }

    /// Bounds the total number of test cases (probe included).
    pub fn case_budget(mut self, cases: u64) -> Self {
        self.config.case_budget = Some(cases);
        self
    }

    /// Bounds the total number of injections, exactly: a cell's single-fault
    /// case fires its call-count trigger at most once, so batches are sized
    /// to the remaining budget and the exploration can never overshoot it.
    pub fn injection_budget(mut self, injections: u64) -> Self {
        self.config.injection_budget = Some(injections);
        self
    }

    /// Enables or disables the built-in crash-adjacent escalation heuristic
    /// (default: enabled).  Disable it when an external policy — e.g. an
    /// `lfi-rules` engine issuing [`Explorer::escalate_cell`] — owns
    /// refinement, so crash neighborhoods are expanded exactly once.
    pub fn escalation(mut self, enabled: bool) -> Self {
        self.escalation_enabled = enabled;
        self
    }

    // -- accessors ----------------------------------------------------------

    /// Cells enumerated from the seed plan.
    pub fn universe_len(&self) -> usize {
        self.state.universe()
    }

    /// Cells still pending on the frontier, muted functions' cells
    /// excluded (those count in [`Explorer::parked_len`]).
    pub fn frontier_len(&self) -> usize {
        self.state.pending().len() - self.parked_len()
    }

    /// Test cases executed so far (probe included).
    pub fn cases_executed(&self) -> u64 {
        self.state.ledger().cases()
    }

    /// Injections performed so far.
    pub(crate) fn injections_performed(&self) -> u64 {
        self.state.ledger().injections()
    }

    /// Batches executed so far (the probe is batch 0).
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// True once any batch produced a signal death.
    pub fn crash_found(&self) -> bool {
        self.state.ledger().crashes() > 0
    }

    /// The deduplicated non-success clusters, in key order (function name,
    /// stack frame names, outcome class).
    pub fn clusters(&self) -> &[CrashCluster] {
        self.state.ledger().clusters()
    }

    /// Aggregate coverage numbers so far.
    pub fn coverage_summary(&self) -> CoverageSummary {
        CoverageSummary {
            universe: self.state.universe(),
            executed: self.state.ledger().executed_len(),
            triggered: self.state.ledger().triggered_len(),
            unreached: self.state.unreached_len(),
            pruned_functions: self.state.pruned_len(),
            frontier_remaining: self.frontier_len(),
        }
    }

    /// True when no further [`Explorer::step_workload`] will run: the
    /// frontier is exhausted, a budget is spent, or (with
    /// [`Explorer::halt_on_crash`]) a crash was found.
    pub fn finished(&self) -> bool {
        if self.config.halt_on_crash && self.crash_found() {
            return true;
        }
        if self.config.case_budget.is_some_and(|budget| self.cases_executed() >= budget) {
            return true;
        }
        if self.config.injection_budget.is_some_and(|budget| self.injections_performed() >= budget) {
            return true;
        }
        self.probe_done && self.frontier_len() == 0
    }

    // -- external control (closed loop) -------------------------------------

    /// The crash-adjacent neighborhood of a cell: the neighbouring call
    /// ordinals with the same fault, plus every sibling (retval, errno) pair
    /// the profiles list for the function at the same ordinal.  This is the
    /// candidate set the built-in escalation heuristic raises.
    pub(crate) fn adjacent_cells(&self, cell: FaultCell) -> Vec<FaultCell> {
        let mut candidates: Vec<FaultCell> = Vec::new();
        if cell.call_ordinal > 1 {
            candidates.push(FaultCell { call_ordinal: cell.call_ordinal - 1, ..cell });
        }
        candidates.push(FaultCell { call_ordinal: cell.call_ordinal + 1, ..cell });
        let name = cell.function.as_str();
        for profile in self.profiles.iter() {
            let Some(function) = profile.function(name) else {
                continue;
            };
            for error in &function.error_returns {
                let errnos = error.errno_values();
                if errnos.is_empty() {
                    candidates.push(FaultCell { retval: error.retval, errno: None, ..cell });
                } else {
                    for errno in errnos {
                        candidates.push(FaultCell { retval: error.retval, errno: Some(errno), ..cell });
                    }
                }
            }
        }
        candidates
    }

    /// Raises every crash-adjacent neighbour of `cell` (the neighbouring
    /// call ordinals with the same fault, and every sibling (retval, errno)
    /// pair at the same ordinal) onto the frontier at the escalated priority — the built-in crash heuristic
    /// as an externally drivable action (rule engines call this for
    /// `EscalateSiblings` decisions).
    pub fn escalate_cell(&mut self, cell: FaultCell) {
        for candidate in self.adjacent_cells(cell) {
            self.raise_cell(candidate, ESCALATED);
        }
    }

    /// Puts a single cell on the frontier at (at least) `priority`, unless
    /// it already ran or was proven unreachable.  A muted function's cell
    /// joins the frontier too, but waits there until its function is
    /// unmuted.
    pub fn raise_cell(&mut self, cell: FaultCell, priority: i32) {
        self.state.raise(cell, priority);
    }

    /// Mutes a function: its pending cells keep their place and priority on
    /// the frontier (pruning and reweighting still reach them), but no
    /// batch selects a cell of the function until [`Explorer::unmute`].
    pub fn mute(&mut self, function: Symbol) {
        self.muted.insert(function);
    }

    /// Lifts a [`Explorer::mute`]: the function's pending cells are
    /// selectable again, at their current priorities.
    pub fn unmute(&mut self, function: Symbol) {
        self.muted.remove(&function);
    }

    /// True while `function` is muted.
    pub fn is_muted(&self, function: Symbol) -> bool {
        self.muted.contains(&function)
    }

    /// Pending cells of muted functions: held back from selection until
    /// their function is unmuted.
    pub fn parked_len(&self) -> usize {
        self.state.pending().filter(|f| self.muted.contains(&f.cell.function)).count()
    }

    /// Shifts the priority of every pending frontier cell of `function` by
    /// `delta` (a muted function's cells included, so a muted generator
    /// keeps its weighting when unmuted).
    pub fn reweight(&mut self, function: Symbol, delta: i32) {
        self.state
            .reweight(|cell| cell.function == function, |priority| priority.saturating_add(delta));
    }

    // -- the loop -----------------------------------------------------------

    /// Runs the whole exploration over a shared [`Workload`] (e.g. one from
    /// a `WorkloadRegistry`): the probe batch, then frontier batches until
    /// [`Explorer::finished`].
    pub fn run_workload(&mut self, workload: &Arc<dyn Workload>) -> ExplorationReport {
        let mut batches = Vec::new();
        while let Some(report) = self.step_workload(workload) {
            batches.push(report);
        }
        self.report(batches)
    }

    /// Runs exactly one batch of the exploration over a shared
    /// [`Workload`], consuming the batch campaign's event stream as it runs
    /// (mid-batch crash halts).
    pub fn step_workload(&mut self, workload: &Arc<dyn Workload>) -> Option<CampaignReport> {
        self.step_with(workload, |_| true)
    }

    /// [`Explorer::step_workload`] that hands every event of the batch's
    /// campaign session — the probe's included — to `on_event` as it
    /// streams.  Returning `false` cancels the batch: no further case
    /// starts, a case already running finishes and its events still reach
    /// `on_event`, and the cells whose cases never ran go back to the
    /// frontier.  At `parallelism(1)` the cancel lands before the next case
    /// starts, so a fixed-seed rerun stops at the same case.  This is how a
    /// closed-loop controller watches and steers an exploration.
    ///
    /// The explorer keeps no clock, so its stores stay byte-identical across
    /// reruns.  A caller that wants a wall-clock bound cancels through
    /// `on_event`:
    ///
    /// ```no_run
    /// # use std::sync::Arc;
    /// # fn bounded(explorer: &mut lfi_explore::Explorer, workload: &Arc<dyn lfi_controller::Workload>) {
    /// use std::time::{Duration, Instant};
    ///
    /// let (started, budget) = (Instant::now(), Duration::from_secs(60));
    /// while started.elapsed() < budget && explorer.step_with(workload, |_| started.elapsed() < budget).is_some() {}
    /// # }
    /// ```
    pub fn step_with(
        &mut self,
        workload: &Arc<dyn Workload>,
        mut on_event: impl FnMut(&CaseEvent) -> bool,
    ) -> Option<CampaignReport> {
        if self.finished() {
            return None;
        }
        let report = if self.probe_done {
            let cells = self.select_batch();
            if cells.is_empty() {
                return None;
            }
            self.run_batch(&cells, workload, &mut on_event)
        } else {
            self.run_probe(workload, &mut on_event)
        };
        self.batch_index += 1;
        Some(report)
    }

    /// Assembles the aggregate report from per-batch campaign reports (the
    /// ones [`Explorer::step_workload`] returned).
    pub fn report(&self, batches: Vec<CampaignReport>) -> ExplorationReport {
        ExplorationReport {
            batches,
            cases_executed: self.cases_executed(),
            injections_performed: self.injections_performed(),
            clusters: self.clusters().to_vec(),
            coverage: self.coverage_summary(),
        }
    }

    /// The injection-free probe: one baseline case with the dispatch call
    /// log captured.  Functions the workload never dispatches are pruned
    /// from the frontier wholesale; cells beyond a function's observed call
    /// depth are deprioritized (not pruned — injections can lengthen retry
    /// loops).
    fn run_probe(
        &mut self,
        workload: &Arc<dyn Workload>,
        on_event: &mut dyn FnMut(&CaseEvent) -> bool,
    ) -> CampaignReport {
        let campaign = Campaign::new().case(TestCase::new(PROBE_CASE_NAME, Plan::new())).capture_call_log(true);
        let report = campaign.start_arc(Arc::clone(workload)).drain(on_event);
        if let Some(outcome) = report.outcomes.first() {
            let mut counts: SymbolMap<u64> = SymbolMap::default();
            for &symbol in &outcome.calls {
                *counts.entry(symbol).or_insert(0) += 1;
            }
            self.state.fold_probe(&counts);
            if outcome.calls_dropped == 0 {
                // A complete call log proves absence: prune every cell of a
                // function the workload never dispatched.  A truncated log
                // (bounded capacity overflowed) proves nothing about absent
                // functions, so wholesale pruning is skipped and those cells
                // are left for their own cases to rule out.
                self.state.prune(|function| counts.contains_key(&function));
                let depth = |cell: &FaultCell| counts.get(&cell.function).copied().unwrap_or(0);
                self.state
                    .reweight(|cell| cell.call_ordinal > depth(cell), |priority| priority.min(DEPRIORITIZED));
            }
        }
        self.probe_done = true;
        report
    }

    /// Orders the frontier (muted functions' cells last, then priority, then
    /// the process-independent cell key, ties within a priority class
    /// shuffled from the tracked RNG stream) and takes the next batch from
    /// the unmuted prefix.
    fn select_batch(&mut self) -> Vec<FaultCell> {
        let mut take = self.config.batch_size;
        if let Some(budget) = self.config.case_budget {
            take = take.min(budget.saturating_sub(self.cases_executed()) as usize);
        }
        if let Some(budget) = self.config.injection_budget {
            // Each cell case injects at most once (a single call-count
            // trigger), so capping the batch at the remaining budget makes
            // the injection bound exact, not just checked between batches.
            take = take.min(budget.saturating_sub(self.injections_performed()) as usize);
        }
        let muted = &self.muted;
        let pending = self.state.pending_mut();
        pending.sort_by_cached_key(|f| (muted.contains(&f.cell.function), Reverse(f.priority), f.cell.sort_key()));
        let live = pending.partition_point(|f| !muted.contains(&f.cell.function));
        let take = take.min(live);
        // Partial Fisher–Yates: only the `take` selected positions draw from
        // the RNG stream (each drawn uniformly from the rest of its
        // equal-priority run), so the tracked draw count grows with the
        // batch size, not with the frontier size — a resume replays at most
        // one draw per case ever scheduled.  This is the explorer's only
        // randomness, so the stream position in the store is exact.
        let mut start = 0;
        while start < take {
            let priority = pending[start].priority;
            let mut end = start + 1;
            while end < live && pending[end].priority == priority {
                end += 1;
            }
            for i in start..end.min(take) {
                self.rng_draws += 1;
                let j = i + (self.rng.gen::<u64>() as usize) % (end - i);
                pending.swap(i, j);
            }
            start = end;
        }
        self.state.take(take)
    }

    /// Runs one batch of cells through [`run_cells`], folds every outcome
    /// into the ledger, then lets the frontier policy react to each
    /// (pruning and escalation).
    ///
    /// With [`Explorer::halt_on_crash`] the campaign's stop-on-first-crash
    /// policy halts scheduling inside the batch.  For determinism, outcomes
    /// are *folded* in case order after the stream drains — completion order
    /// under `parallelism(n)` never leaks into the coverage, cluster or
    /// frontier state.  Cells whose cases were cancelled or crash-halted
    /// return to the frontier at their priority; a cell whose case the
    /// health check vetoed is unreached.
    fn run_batch(
        &mut self,
        cells: &[FaultCell],
        workload: &Arc<dyn Workload>,
        on_event: &mut dyn FnMut(&CaseEvent) -> bool,
    ) -> CampaignReport {
        let (halt, parallelism) = (self.config.halt_on_crash, self.config.parallelism);
        let run = run_cells(cells, workload, None, halt, parallelism, |_| {}, |event, _| on_event(event));
        // The whole batch is folded in before the frontier policy reacts to
        // any of it, so an escalation never raises a cell this batch ran or
        // vetoed: a pending cell is never executed or unreached, which is
        // what lets a delta leave its frontier removals implicit.
        for (cell, result) in &run.outcomes {
            self.state.fold(*cell, result);
        }
        for &cell in &run.vetoed {
            // The workload vetoed the case's process, and would veto a rerun
            // alike: the cell ends here.
            self.state.retire(cell);
        }
        for (cell, result) in &run.outcomes {
            self.react(*cell, result);
        }
        self.state.give_back(&run.returned);
        run.report
    }

    /// The frontier policy's reaction to one folded outcome: an injection
    /// that never fired prunes its function's deeper cells, and a crash
    /// escalates its neighbours.
    fn react(&mut self, cell: FaultCell, result: &CellResult) {
        if result.injections == 0 {
            // The planned injection never fired: the workload made only
            // `observed_calls` calls to the function, so every pending cell
            // of the same function beyond that depth is unreachable too —
            // prune them, and *record* them as unreached so a later crash
            // escalation cannot resurrect a cell already proven dead.
            self.state.retire(cell);
            self.state
                .retire_pending(|f| f.function == cell.function && f.call_ordinal > result.observed_calls);
        }
        if result.outcome.is_crash() && self.escalation_enabled {
            self.escalate_cell(cell);
        }
    }
}

impl fmt::Debug for Explorer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Explorer")
            .field("universe", &self.state.universe())
            .field("frontier", &self.frontier_len())
            .field("executed", &self.state.ledger().executed_len())
            .field("clusters", &self.state.ledger().clusters().len())
            .field("batch_index", &self.batch_index)
            .field("cases_executed", &self.state.ledger().cases())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::OutcomeClass;
    use lfi_controller::FnWorkload;
    use lfi_profile::{ErrorReturn, FunctionProfile};
    use lfi_runtime::{ExitStatus, NativeLibrary, Process, Signal};
    use lfi_scenario::{Exhaustive, ScenarioGenerator};

    /// Profiles for a toy libc: `read` fails with -1 or returns a short
    /// count of 4, `malloc` fails with NULL, and `unused_fn` exists in the
    /// profile but is never called by the workload.
    fn profiles() -> Vec<FaultProfile> {
        let mut profile = FaultProfile::new("libc.so.6");
        profile.push_function(FunctionProfile {
            name: "read".into(),
            error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(4)],
        });
        profile.push_function(FunctionProfile { name: "malloc".into(), error_returns: vec![ErrorReturn::bare(0)] });
        profile.push_function(FunctionProfile { name: "unused_fn".into(), error_returns: vec![ErrorReturn::bare(-1)] });
        vec![profile]
    }

    fn setup() -> Process {
        let mut process = Process::new();
        process.load(
            NativeLibrary::builder("libc.so.6")
                .function("read", |ctx| ctx.arg(2))
                .function("malloc", |ctx| if ctx.arg(0) > 1 << 30 { 0 } else { 0x1000 })
                .function("unused_fn", |_| 0)
                .build(),
        );
        process
    }

    /// Read an 8-byte header, allocate accordingly; a failed read is a clean
    /// error exit, a short read provokes a huge allocation whose failure
    /// aborts.
    fn workload(process: &mut Process) -> ExitStatus {
        let header = process.call("read", &[3, 0, 8]).unwrap_or(-1);
        if header < 0 {
            return ExitStatus::Exited(1);
        }
        let size = if header == 8 { 64 } else { 1 << 40 };
        if process.call("malloc", &[size]).unwrap_or(0) == 0 {
            return ExitStatus::Crashed(Signal::Abort);
        }
        ExitStatus::Exited(0)
    }

    fn toy() -> Arc<dyn Workload> {
        FnWorkload::shared("toy-reader", setup, workload)
    }

    fn explorer() -> Explorer {
        let profiles = profiles();
        let plan = Exhaustive.generate(&profiles);
        Explorer::new(&plan, profiles).seed(11).batch_size(4)
    }

    #[test]
    fn exploration_prunes_probes_and_clusters() {
        let mut explorer = explorer();
        assert!(format!("{explorer:?}").contains("universe: 4"));
        assert_eq!(explorer.universe_len(), 4);
        assert_eq!(explorer.frontier_len(), 4);
        let report = explorer.run_workload(&toy());
        assert!(explorer.finished());

        // unused_fn was pruned by the probe and never executed.
        assert_eq!(report.coverage.pruned_functions, 1);
        // The short-read cell sits at read's call #2 and the escalated
        // malloc#2 neighbour needs a second malloc; the workload makes one
        // call to each, so both are planned-but-unreached.
        assert_eq!(report.coverage.unreached, 2);
        // read#1 (-1), read#2 (unreached), malloc#1 (NULL), plus the
        // escalated malloc#2 neighbour which also turns out unreached.
        assert_eq!(report.coverage.executed, 4);
        assert_eq!(report.coverage.triggered, 2);
        assert_eq!(report.coverage.frontier_remaining, 0);
        assert_eq!(report.cases_executed, 5, "probe + 4 cells");
        assert_eq!(report.injections_performed, 2);

        // Outcomes deduplicate into one failure cluster and one crash
        // cluster; the crash carries the malloc stack.
        assert_eq!(report.clusters.len(), 2);
        let crash = report.crash_clusters().next().expect("the NULL malloc crashes");
        assert_eq!(crash.function.as_str(), "malloc");
        assert_eq!(crash.outcome, OutcomeClass::Crash(Signal::Abort));
        assert_eq!(crash.example.retval, 0);
        assert_eq!(crash.stack.last().map(|s| s.as_str()), Some("malloc"));
        let failure = report.clusters.iter().find(|c| !c.is_crash()).unwrap();
        assert_eq!(failure.function.as_str(), "read");
        assert_eq!(failure.outcome, OutcomeClass::Failure(1));
        assert!(explorer.crash_found());
    }

    #[test]
    fn same_seed_same_batches() {
        let a = explorer().run_workload(&toy());
        let b = explorer().run_workload(&toy());
        assert_eq!(a, b);
        // A different seed still finds the same clusters here (the space is
        // tiny), but the report need not be batch-for-batch identical.
        let c = {
            let profiles = profiles();
            let plan = Exhaustive.generate(&profiles);
            Explorer::new(&plan, profiles).seed(99).batch_size(4).run_workload(&toy())
        };
        assert_eq!(c.clusters.len(), a.clusters.len());
    }

    #[test]
    fn halt_on_crash_and_budgets_bound_the_loop() {
        let mut halted = explorer().halt_on_crash(true);
        let report = halted.run_workload(&toy());
        assert!(halted.crash_found());
        assert!(halted.finished());
        assert!(report.cases_executed < 5, "halts before exhausting the frontier");
        // The halt is mid-batch (stop-on-first-crash inside the batch
        // campaign): cases the halted batch never executed return to the
        // frontier instead of vanishing, so every universe cell is either
        // executed or still pending.
        let coverage = halted.coverage_summary();
        let skipped_in_batch = report.batches.iter().map(|b| b.cases_skipped).sum::<usize>();
        assert!(skipped_in_batch > 0, "the crash halts scheduling inside its batch");
        // Restored skips plus whatever the crash escalated sit on the
        // frontier; nothing the batch skipped is lost.
        assert!(coverage.frontier_remaining >= skipped_in_batch);
        assert_eq!(coverage.executed + skipped_in_batch, 3, "every scheduled cell is accounted for");

        let mut capped = explorer().case_budget(2);
        let report = capped.run_workload(&toy());
        assert_eq!(report.cases_executed, 2, "probe + one case");
        assert!(capped.finished());

        // The injection bound is exact, not just checked between batches:
        // with a budget of 1 every batch is capped at one cell, so the run
        // performs exactly one injection even though batch_size is 4.
        let mut strangled = explorer().injection_budget(1);
        let report = strangled.run_workload(&toy());
        assert_eq!(report.injections_performed, 1);
        assert!(report.batches.iter().all(|b| b.outcomes.len() <= 1));
        assert!(strangled.finished());
    }

    #[test]
    fn store_snapshot_resumes_with_identical_remaining_batches() {
        // Full run, collecting every batch report.
        let mut full = explorer();
        let mut full_reports = Vec::new();
        while let Some(report) = full.step_workload(&toy()) {
            full_reports.push(report);
        }

        // Killed run: two steps, then snapshot through the XML round trip.
        let mut killed = explorer();
        let mut killed_reports = Vec::new();
        for _ in 0..2 {
            killed_reports.push(killed.step_workload(&toy()).unwrap());
        }
        let xml = killed.store().to_xml();
        let store = crate::ExplorationStore::from_xml(&xml).unwrap();
        let mut resumed = Explorer::resume(profiles(), &store);
        while let Some(report) = resumed.step_workload(&toy()) {
            killed_reports.push(report);
        }

        assert_eq!(killed_reports, full_reports, "resume reproduces the identical remaining batch sequence");
        assert_eq!(resumed.coverage_summary(), full.coverage_summary());
        assert_eq!(resumed.clusters(), full.clusters());
        assert_eq!(resumed.cases_executed(), full.cases_executed());
        // And the final stores agree exactly.
        assert_eq!(full.store(), resumed.store());
    }

    #[test]
    fn an_escalation_never_reruns_a_cell_of_its_own_batch() {
        // `close` fails with -1 (the workload crashes) or -9 (it exits 1),
        // so the crash cell's escalated sibling sits in the same batch.
        // Whichever order a seed shuffles that batch into, each cell runs
        // once, and the deltas fold to the live store.
        let mut profile = FaultProfile::new("libc.so.6");
        profile.push_function(FunctionProfile {
            name: "close".into(),
            error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-9)],
        });
        let profiles = vec![profile];
        let plan = [-1, -9].into_iter().fold(Plan::new(), |plan, retval| {
            plan.entry(
                FaultCell { function: Symbol::intern("close"), call_ordinal: 1, retval, errno: None }.plan_entry(),
            )
        });
        let closer = FnWorkload::shared(
            "closer",
            || {
                let mut process = Process::new();
                process.load(NativeLibrary::builder("libc.so.6").function("close", |_| 0).build());
                process
            },
            |process: &mut Process| match process.call("close", &[3]).unwrap_or(0) {
                -1 => ExitStatus::Crashed(Signal::Segv),
                -9 => ExitStatus::Exited(1),
                _ => ExitStatus::Exited(0),
            },
        );
        for seed in 0..8 {
            let mut explorer = Explorer::new(&plan, profiles.clone()).seed(seed).batch_size(4);
            let mut shadow = explorer.store();
            let mut names = Vec::new();
            while let Some(report) = explorer.step_workload(&closer) {
                names.extend(report.outcomes.into_iter().map(|o| o.name));
                explorer.take_delta().apply(&mut shadow);
                assert_eq!(shadow, explorer.store(), "seed {seed}: snapshot + deltas == live store");
            }
            let ran = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), ran, "seed {seed}: a cell ran twice");
            assert_eq!(explorer.coverage_summary().frontier_remaining, 0);
        }
    }

    #[test]
    fn a_store_with_batch_size_zero_resumes_with_one_cell_batches() {
        let mut killed = explorer();
        killed.step_workload(&toy()).unwrap();
        let xml = killed.store().to_xml().replace(r#"batch-size="4""#, r#"batch-size="0""#);
        let store = crate::ExplorationStore::from_xml(&xml).unwrap();
        assert_eq!(store.batch_size, 0);
        let mut resumed = Explorer::resume(profiles(), &store);
        assert!(!resumed.finished());
        let batch = resumed.step_workload(&toy()).expect("a pending frontier runs a batch");
        assert_eq!(batch.outcomes.len(), 1, "clamped to the setter's minimum of one cell");
    }

    #[test]
    fn a_function_muted_before_the_probe_is_still_pruned() {
        let unused = Symbol::intern("unused_fn");
        let mut explorer = explorer();
        explorer.mute(unused);
        explorer.run_workload(&toy());
        let store = explorer.store();
        assert!(store.pruned_functions.contains(&unused));
        assert_eq!(explorer.parked_len(), 0, "the never-called function has no cell left to hold back");
        assert!(store.frontier.iter().all(|f| f.cell.function != unused));
    }

    #[test]
    fn deltas_reconstruct_the_snapshot_exactly() {
        let mut live = explorer();
        let mut shadow = live.store();
        assert!(live.take_delta().is_empty(), "nothing has mutated yet");
        while live.step_workload(&toy()).is_some() {
            let delta = live.take_delta();
            delta.apply(&mut shadow);
            assert_eq!(shadow, live.store(), "snapshot + deltas == live store after every step");
            // Deltas carry absolute values, so re-applying one is a no-op.
            let mut again = shadow.clone();
            delta.apply(&mut again);
            assert_eq!(again, shadow);
        }
        assert_eq!(shadow.to_xml(), live.store().to_xml(), "byte-identical through serialization");
        assert!(live.take_delta().is_empty(), "taking a delta drains the tracker");

        // External control mutations are tracked too.
        let mut controlled = explorer();
        let mut shadow = controlled.store();
        controlled.step_workload(&toy()).unwrap();
        let read = controlled.store().frontier[0].cell.function;
        controlled.reweight(read, 7);
        controlled.mute(read);
        controlled.unmute(read);
        controlled.take_delta().apply(&mut shadow);
        assert_eq!(shadow, controlled.store());
    }
}

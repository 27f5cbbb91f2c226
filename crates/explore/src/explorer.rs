//! The [`Explorer`]: the generate → run → observe → refine loop.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lfi_controller::{Campaign, CampaignReport, CaseEvent, ExecutionPolicy, TestCase, TestOutcome, Workload};
use lfi_intern::Symbol;
use lfi_profile::FaultProfile;
use lfi_scenario::{FaultCell, FaultSpace, Plan};

use crate::ledger::{change, cluster_slot, CellResult, CrashCluster, FaultLedger, FunctionCoverage, OutcomeClass};
use crate::{ExplorationDelta, ExplorationStore};

/// Name of the injection-free probe case every exploration starts with.
pub const PROBE_CASE_NAME: &str = "probe-baseline";

/// Default number of fault cells per batch.
pub const DEFAULT_BATCH_SIZE: usize = 16;

/// Priority of a frontier cell that sits next to an observed crash.
pub const ESCALATED: i32 = 100;

/// Priority of a frontier cell whose ordinal lies beyond the call depth the
/// probe run observed for its function (kept, but visited last: an injection
/// can lengthen a retry loop, so "beyond the baseline depth" is a hint, not
/// proof of unreachability).
const DEPRIORITIZED: i32 = -50;

/// One pending cell of the exploration frontier, with its priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierCell {
    /// The pending fault-space cell.
    pub cell: FaultCell,
    /// Scheduling priority: higher runs earlier; ties are shuffled by the
    /// explorer's seeded RNG stream.
    pub priority: i32,
}

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
    pub time_budget: Option<Duration>,
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
            time_budget: None,
        }
    }
}

/// Accumulates *which* parts of the exploration state mutated since the
/// last [`Explorer::take_delta`] call.  Tracking is always on — every mark
/// is an O(1) set insert bounded by what the span touched, and the tracked
/// keys are resolved to absolute values only when the delta is taken.
#[derive(Debug, Default)]
struct DeltaTracker {
    /// Cells whose frontier presence or priority may have changed.
    frontier: HashSet<FaultCell>,
    /// Cells executed in the span (the ledger folds each cell once).
    executed: Vec<FaultCell>,
    /// Cells proven unreachable in the span.
    unreached: HashSet<FaultCell>,
    /// Functions pruned wholesale in the span.
    pruned_functions: HashSet<Symbol>,
    /// Functions whose coverage entry mutated in the span.
    coverage: HashSet<Symbol>,
    /// Keys of the clusters created or bumped in the span.
    clusters: HashSet<(Symbol, Vec<Symbol>, OutcomeClass)>,
}

/// The coverage-guided exploration engine — see the [crate docs](crate) for
/// the loop it closes.
///
/// Batches run as streaming [`Campaign`] sessions: the explorer consumes
/// each batch's [`CaseEvent`] stream, so [`Explorer::halt_on_crash`] stops
/// scheduling *within* the batch that crashed (via the campaign's
/// stop-on-first-crash policy) and [`Explorer::time_budget`] cancels a
/// too-long batch mid-flight instead of only being checked at batch
/// boundaries.  Cells whose cases were skipped by such a halt return to the
/// frontier with their original priority, so nothing is silently lost.
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
/// [`CampaignReport`]s are therefore byte-identical.  Two exceptions:
/// [`Explorer::time_budget`] depends on wall-clock time, and a mid-batch
/// [`Explorer::halt_on_crash`] stop under [`Explorer::parallelism`] `> 1`
/// skips a scheduling-dependent set of in-flight cases; the case/injection
/// budgets are exact counters and preserve the contract, and at the default
/// `parallelism(1)` the halt point is deterministic too.
pub struct Explorer {
    /// The profiles crash escalation draws sibling errnos from, shared
    /// (the facade hands every explorer over one profile set the same ones).
    profiles: Arc<[FaultProfile]>,
    /// Size of the enumerated seed universe (for coverage reporting).
    universe: usize,
    /// Executed cells, coverage, clusters and counters.
    ledger: FaultLedger,
    // The frontier policy: what runs next, and what never needs to.
    frontier: Vec<FrontierCell>,
    unreached: HashSet<FaultCell>,
    pruned_functions: HashSet<Symbol>,
    config: ExplorerConfig,
    rng: StdRng,
    rng_draws: u64,
    batch_index: u64,
    probe_done: bool,
    elapsed: Duration,
    /// Whether [`Explorer::consume`] runs the built-in crash-adjacent
    /// escalation heuristic (default).  A closed-loop driver disables it and
    /// re-expresses escalation as rules over [`Explorer::escalate_cell`].
    escalation_enabled: bool,
    /// Muted functions: their frontier cells are parked and no new cells of
    /// theirs are scheduled until [`Explorer::unmute`].
    muted: HashSet<Symbol>,
    /// Frontier cells parked by [`Explorer::mute`], restored verbatim (with
    /// their priorities) by [`Explorer::unmute`].
    parked: Vec<FrontierCell>,
    /// What mutated since the last [`Explorer::take_delta`].
    tracker: DeltaTracker,
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
            universe: space.len(),
            ledger: FaultLedger::default(),
            frontier: space.cells().iter().map(|&cell| FrontierCell { cell, priority: 0 }).collect(),
            unreached: HashSet::new(),
            pruned_functions: HashSet::new(),
            rng: StdRng::seed_from_u64(config.seed),
            rng_draws: 0,
            config,
            batch_index: 0,
            probe_done: false,
            elapsed: Duration::ZERO,
            escalation_enabled: true,
            muted: HashSet::new(),
            parked: Vec::new(),
            tracker: DeltaTracker::default(),
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
            universe: store.universe,
            ledger: FaultLedger::from_store(store),
            frontier: store.frontier.clone(),
            unreached: store.unreached.iter().copied().collect(),
            pruned_functions: store.pruned_functions.iter().copied().collect(),
            config: ExplorerConfig {
                seed: store.seed,
                batch_size: store.batch_size,
                parallelism: store.parallelism,
                halt_on_crash: store.halt_on_crash,
                case_budget: store.case_budget,
                injection_budget: store.injection_budget,
                time_budget: store.time_budget_ms.map(Duration::from_millis),
            },
            rng,
            rng_draws: store.rng_draws,
            batch_index: store.batch_index,
            probe_done: store.probe_done,
            elapsed: Duration::from_millis(store.elapsed_ms),
            escalation_enabled: true,
            muted: HashSet::new(),
            parked: Vec::new(),
            tracker: DeltaTracker::default(),
        }
    }

    /// Snapshots the complete exploration state.  Serialize it with
    /// [`ExplorationStore::to_xml`] next to the profile store; a later
    /// process restores with [`ExplorationStore::from_xml`] +
    /// [`Explorer::resume`].
    pub fn store(&self) -> ExplorationStore {
        let mut unreached: Vec<FaultCell> = self.unreached.iter().copied().collect();
        unreached.sort_by_cached_key(FaultCell::sort_key);
        let mut pruned_functions: Vec<Symbol> = self.pruned_functions.iter().copied().collect();
        pruned_functions.sort_by_key(|s| s.as_str());
        // Parked (muted) cells rejoin the frontier in the snapshot: mute
        // state is runtime-only and a resumed explorer starts with nothing
        // muted, so nothing is silently lost across a restore.  The snapshot
        // is canonicalized to scheduling order (priority descending, then
        // the total cell key): `select_batch` re-derives exactly this order
        // anyway, and a canonical order is what lets a delta-rebuilt
        // frontier match the snapshot byte for byte.
        let mut frontier: Vec<FrontierCell> = self.frontier.iter().chain(self.parked.iter()).cloned().collect();
        frontier.sort_by(|a, b| b.priority.cmp(&a.priority).then_with(|| a.cell.sort_key().cmp(&b.cell.sort_key())));
        let mut store = ExplorationStore {
            seed: self.config.seed,
            batch_size: self.config.batch_size,
            parallelism: self.config.parallelism,
            halt_on_crash: self.config.halt_on_crash,
            case_budget: self.config.case_budget,
            injection_budget: self.config.injection_budget,
            time_budget_ms: self.config.time_budget.map(|d| d.as_millis() as u64),
            universe: self.universe,
            batch_index: self.batch_index,
            rng_draws: self.rng_draws,
            probe_done: self.probe_done,
            elapsed_ms: self.elapsed.as_millis() as u64,
            frontier,
            unreached,
            pruned_functions,
            ..ExplorationStore::default()
        };
        self.ledger.write_into(&mut store);
        store
    }

    /// Drains everything that mutated since the last `take_delta` call (or
    /// since construction/resume) into one [`ExplorationDelta`] — the
    /// incremental-checkpoint primitive behind the `lfi-store` journal.
    ///
    /// Contract: applying the returned delta to the [`Explorer::store`]
    /// snapshot taken at the previous `take_delta` point reproduces the
    /// current [`Explorer::store`] exactly (byte-identical through either
    /// serialization), and the cost of the delta is proportional to what
    /// the span touched, not to the total state.
    pub fn take_delta(&mut self) -> ExplorationDelta {
        let tracker = std::mem::take(&mut self.tracker);
        let by_key = |a: &FaultCell, b: &FaultCell| a.sort_key().cmp(&b.sort_key());
        let pending: HashMap<FaultCell, i32> =
            self.frontier.iter().chain(self.parked.iter()).map(|f| (f.cell, f.priority)).collect();
        let mut frontier_remove = Vec::new();
        let mut frontier_upsert = Vec::new();
        for cell in tracker.frontier {
            match pending.get(&cell) {
                Some(&priority) => frontier_upsert.push(FrontierCell { cell, priority }),
                None => frontier_remove.push(cell),
            }
        }
        frontier_remove.sort_by(by_key);
        frontier_upsert.sort_by(|a, b| a.cell.sort_key().cmp(&b.cell.sort_key()));
        let mut executed = tracker.executed;
        executed.sort_by(by_key);
        executed.dedup();
        let mut unreached: Vec<FaultCell> = tracker.unreached.into_iter().collect();
        unreached.sort_by(by_key);
        let mut pruned_functions: Vec<Symbol> = tracker.pruned_functions.into_iter().collect();
        pruned_functions.sort_by_key(|s| s.as_str());
        let mut coverage: Vec<(Symbol, FunctionCoverage)> = tracker
            .coverage
            .into_iter()
            .filter_map(|symbol| self.ledger.coverage(symbol).map(|c| (symbol, c.clone())))
            .collect();
        coverage.sort_by_key(|(s, _)| s.as_str());
        let clusters = self.ledger.clusters();
        let touched: BTreeSet<usize> = tracker
            .clusters
            .iter()
            .filter_map(|(function, stack, outcome)| cluster_slot(clusters, *function, stack, *outcome).ok())
            .collect();
        ExplorationDelta {
            batch_index: self.batch_index,
            rng_draws: self.rng_draws,
            probe_done: self.probe_done,
            crash_found: self.crash_found(),
            cases_executed: self.cases_executed(),
            injections_performed: self.injections_performed(),
            elapsed_ms: self.elapsed.as_millis() as u64,
            frontier_remove,
            frontier_upsert,
            executed,
            unreached,
            pruned_functions,
            coverage,
            clusters: touched.into_iter().map(|index| clusters[index].clone()).collect(),
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

    /// Sets how many cells each batch runs (default
    /// [`DEFAULT_BATCH_SIZE`]; clamped to at least 1).
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

    /// Bounds the total wall-clock time spent in
    /// [`Explorer::step_workload`].  Note this is the one knob that trades
    /// away strict determinism: where the cutoff lands depends on the
    /// machine.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = Some(budget);
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
        self.universe
    }

    /// Cells still pending on the frontier.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Test cases executed so far (probe included).
    pub fn cases_executed(&self) -> u64 {
        self.ledger.cases()
    }

    /// Injections performed so far.
    pub fn injections_performed(&self) -> u64 {
        self.ledger.injections()
    }

    /// Batches executed so far (the probe is batch 0).
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// True once any batch produced a signal death.
    pub fn crash_found(&self) -> bool {
        self.ledger.crashes() > 0
    }

    /// The deduplicated non-success clusters, in key order (function name,
    /// stack frame names, outcome class).
    pub fn clusters(&self) -> &[CrashCluster] {
        self.ledger.clusters()
    }

    /// Aggregate coverage numbers so far.
    pub fn coverage_summary(&self) -> CoverageSummary {
        CoverageSummary {
            universe: self.universe,
            executed: self.ledger.executed_len(),
            triggered: self.ledger.triggered_len(),
            unreached: self.unreached.len(),
            pruned_functions: self.pruned_functions.len(),
            frontier_remaining: self.frontier.len(),
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
        if self.config.time_budget.is_some_and(|budget| self.elapsed >= budget) {
            return true;
        }
        self.probe_done && self.frontier.is_empty()
    }

    // -- external control (closed loop) -------------------------------------

    /// The crash-adjacent neighborhood of a cell: the neighbouring call
    /// ordinals with the same fault, plus every sibling (retval, errno) pair
    /// the profiles list for the function at the same ordinal.  This is the
    /// candidate set the built-in escalation heuristic raises; exposed so
    /// external policies can reuse (or filter) it.
    pub fn adjacent_cells(&self, cell: FaultCell) -> Vec<FaultCell> {
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

    /// Raises every [`Explorer::adjacent_cells`] neighbour of `cell` onto
    /// the frontier at the escalated priority — the built-in crash heuristic
    /// as an externally drivable action (rule engines call this for
    /// `EscalateSiblings` decisions).
    pub fn escalate_cell(&mut self, cell: FaultCell) {
        for candidate in self.adjacent_cells(cell) {
            self.raise_cell(candidate, ESCALATED);
        }
    }

    /// Puts a single cell on the frontier at (at least) `priority`, unless
    /// it already ran or was proven unreachable.  Cells of muted functions
    /// are parked instead of scheduled.  Cells a halted batch never ran
    /// come back through here with their original priority.
    pub fn raise_cell(&mut self, cell: FaultCell, priority: i32) {
        if self.ledger.is_executed(&cell) || self.unreached.contains(&cell) {
            return;
        }
        self.tracker.frontier.insert(cell);
        let lane = if self.muted.contains(&cell.function) { &mut self.parked } else { &mut self.frontier };
        if let Some(existing) = lane.iter_mut().find(|f| f.cell == cell) {
            existing.priority = existing.priority.max(priority);
            return;
        }
        lane.push(FrontierCell { cell, priority });
    }

    /// Mutes a function: parks all of its pending frontier cells (keeping
    /// their priorities) and diverts any later
    /// [`Explorer::raise_cell`]/escalation of its cells to the parking lot,
    /// so no further case injecting into the function is scheduled until
    /// [`Explorer::unmute`].
    pub fn mute(&mut self, function: Symbol) {
        self.muted.insert(function);
        let parked = &mut self.parked;
        self.frontier.retain(|f| {
            let hit = f.cell.function == function;
            if hit {
                parked.push(*f);
            }
            !hit
        });
    }

    /// Lifts a [`Explorer::mute`], restoring the function's parked cells to
    /// the frontier with the priorities they were parked with.
    pub fn unmute(&mut self, function: Symbol) {
        self.muted.remove(&function);
        let mut restored = Vec::new();
        self.parked.retain(|f| {
            let hit = f.cell.function == function;
            if hit {
                restored.push(*f);
            }
            !hit
        });
        for cell in restored {
            self.raise_cell(cell.cell, cell.priority);
        }
    }

    /// True while `function` is muted.
    pub fn is_muted(&self, function: Symbol) -> bool {
        self.muted.contains(&function)
    }

    /// Cells currently parked by mutes.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Shifts the priority of every pending frontier cell of `function` by
    /// `delta` (parked cells included, so a muted generator keeps its
    /// weighting when unmuted).
    pub fn reweight(&mut self, function: Symbol, delta: i32) {
        let tracker = &mut self.tracker;
        for f in self.frontier.iter_mut().chain(self.parked.iter_mut()) {
            if f.cell.function == function {
                f.priority = f.priority.saturating_add(delta);
                tracker.frontier.insert(f.cell);
            }
        }
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
    /// (mid-batch crash halts and time-budget cancellation).
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
    pub fn step_with(
        &mut self,
        workload: &Arc<dyn Workload>,
        mut on_event: impl FnMut(&CaseEvent) -> bool,
    ) -> Option<CampaignReport> {
        if self.finished() {
            return None;
        }
        let started = Instant::now();
        let report = if self.probe_done {
            let cells = self.select_batch();
            if cells.is_empty() {
                return None;
            }
            self.run_batch(cells, workload, started, &mut on_event)
        } else {
            self.run_probe(workload, started, &mut on_event)
        };
        self.elapsed += started.elapsed();
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

    /// One tracked draw from the seeded RNG stream — the only randomness the
    /// explorer uses, so the stream position in the store is exact.
    fn rng_u64(&mut self) -> u64 {
        self.rng_draws += 1;
        self.rng.gen()
    }

    /// The injection-free probe: one baseline case with the dispatch call
    /// log captured.  Functions the workload never dispatches are pruned
    /// from the frontier wholesale; cells beyond a function's observed call
    /// depth are deprioritized (not pruned — injections can lengthen retry
    /// loops).
    fn run_probe(
        &mut self,
        workload: &Arc<dyn Workload>,
        started: Instant,
        on_event: &mut dyn FnMut(&CaseEvent) -> bool,
    ) -> CampaignReport {
        let campaign = Campaign::new().case(TestCase::new(PROBE_CASE_NAME, Plan::new())).capture_call_log(true);
        let (report, _, _) = self.run_session(campaign, workload, started, on_event);
        if let Some(outcome) = report.outcomes.first() {
            let mut counts: HashMap<Symbol, u64> = HashMap::new();
            for &symbol in &outcome.calls {
                *counts.entry(symbol).or_insert(0) += 1;
            }
            self.ledger.apply_probe(&counts);
            self.tracker.coverage.extend(counts.keys().copied());
            if outcome.calls_dropped == 0 {
                // A complete call log proves absence: prune every cell of a
                // function the workload never dispatched.  A truncated log
                // (bounded capacity overflowed) proves nothing about absent
                // functions, so wholesale pruning is skipped and those cells
                // are left for their own cases to rule out.
                let pruned = &mut self.pruned_functions;
                let tracker = &mut self.tracker;
                tracker.frontier.reserve(self.frontier.len());
                // A function's cells sit next to each other on the frontier,
                // so each pruned function is recorded once, not per cell.
                let mut last_pruned = None;
                self.frontier.retain(|f| {
                    let reached = counts.contains_key(&f.cell.function);
                    if !reached {
                        if last_pruned != Some(f.cell.function) {
                            pruned.insert(f.cell.function);
                            tracker.pruned_functions.insert(f.cell.function);
                            last_pruned = Some(f.cell.function);
                        }
                        tracker.frontier.insert(f.cell);
                    }
                    reached
                });
                for f in &mut self.frontier {
                    if f.cell.call_ordinal > counts.get(&f.cell.function).copied().unwrap_or(0) {
                        f.priority = f.priority.min(DEPRIORITIZED);
                        self.tracker.frontier.insert(f.cell);
                    }
                }
            }
        }
        self.probe_done = true;
        report
    }

    /// Orders the frontier (priority first, then the process-independent
    /// cell key, ties within a priority class shuffled from the tracked RNG
    /// stream) and takes the next batch.  Priorities ride along so cells a
    /// halted batch never executed can return to the frontier unchanged.
    fn select_batch(&mut self) -> Vec<FrontierCell> {
        self.frontier.sort_by_cached_key(|f| (Reverse(f.priority), f.cell.sort_key()));
        let mut take = self.config.batch_size.min(self.frontier.len());
        if let Some(budget) = self.config.case_budget {
            take = take.min(budget.saturating_sub(self.cases_executed()) as usize);
        }
        if let Some(budget) = self.config.injection_budget {
            // Each cell case injects at most once (a single call-count
            // trigger), so capping the batch at the remaining budget makes
            // the injection bound exact, not just checked between batches.
            take = take.min(budget.saturating_sub(self.injections_performed()) as usize);
        }
        // Partial Fisher–Yates: only the `take` selected positions draw from
        // the RNG stream (each drawn uniformly from the rest of its
        // equal-priority run), so the tracked draw count grows with the
        // batch size, not with the frontier size — a resume replays at most
        // one draw per case ever scheduled.
        let mut start = 0;
        while start < self.frontier.len() && start < take {
            let priority = self.frontier[start].priority;
            let mut end = start + 1;
            while end < self.frontier.len() && self.frontier[end].priority == priority {
                end += 1;
            }
            for i in start..end.min(take) {
                let j = i + (self.rng_u64() as usize) % (end - i);
                self.frontier.swap(i, j);
            }
            start = end;
        }
        let selected: Vec<FrontierCell> = self.frontier.drain(..take).collect();
        for f in &selected {
            self.tracker.frontier.insert(f.cell);
        }
        selected
    }

    /// Runs one batch of cells as a streaming campaign session and folds
    /// every outcome back into coverage, clusters, pruning and escalation.
    ///
    /// With [`Explorer::halt_on_crash`] the campaign's stop-on-first-crash
    /// policy halts scheduling inside the batch.  For determinism, outcomes
    /// are *folded* in case order after the stream drains — completion order
    /// under `parallelism(n)` never leaks into the coverage, cluster or
    /// frontier state.  Cells whose cases were skipped return to the
    /// frontier with their original priority.
    fn run_batch(
        &mut self,
        cells: Vec<FrontierCell>,
        workload: &Arc<dyn Workload>,
        started: Instant,
        on_event: &mut dyn FnMut(&CaseEvent) -> bool,
    ) -> CampaignReport {
        let cases: Vec<TestCase> = cells
            .iter()
            .map(|f| TestCase::new(f.cell.case_name(), Plan::new().entry(f.cell.plan_entry())))
            .collect();
        let mut policy = ExecutionPolicy::run_all();
        if self.config.halt_on_crash {
            policy = policy.stop_on_first_crash();
        }
        let campaign = Campaign::new().cases(cases).policy(policy).parallelism(self.config.parallelism);
        let (report, executed, skipped) = self.run_session(campaign, workload, started, on_event);
        // Outcomes sit in case order, which is ascending executed-index order.
        for (index, outcome) in executed.into_iter().zip(&report.outcomes) {
            self.consume(cells[index].cell, outcome);
        }
        for index in skipped {
            self.raise_cell(cells[index].cell, cells[index].priority);
        }
        report
    }

    /// The one session loop behind the probe and the frontier batches.  It
    /// streams the campaign's events to `on_event` and cancels the session
    /// when `on_event` returns `false` or [`Explorer::time_budget`] is spent
    /// (in-flight cases still finish).  Returns the report with the indices
    /// of the executed and the skipped cases, each ascending.
    fn run_session(
        &self,
        campaign: Campaign,
        workload: &Arc<dyn Workload>,
        started: Instant,
        on_event: &mut dyn FnMut(&CaseEvent) -> bool,
    ) -> (CampaignReport, Vec<usize>, Vec<usize>) {
        let mut run = campaign.start_arc(Arc::clone(workload));
        let cancel = run.cancel_handle();
        let mut executed = Vec::new();
        let mut skipped = Vec::new();
        for event in run.by_ref() {
            match &event {
                CaseEvent::Outcome { index, .. } => executed.push(*index),
                CaseEvent::Skipped { index, .. } => skipped.push(*index),
                _ => {}
            }
            let keep_going = on_event(&event);
            let over_time = self.config.time_budget.is_some_and(|budget| self.elapsed + started.elapsed() >= budget);
            if !keep_going || over_time {
                cancel.cancel();
            }
        }
        executed.sort_unstable();
        skipped.sort_unstable();
        (run.into_report(), executed, skipped)
    }

    /// Folds one case outcome into the ledger, then lets the frontier
    /// policy react: an injection that never fired prunes its function's
    /// deeper cells, and a crash escalates its neighbours.
    fn consume(&mut self, cell: FaultCell, outcome: &TestOutcome) {
        let calls = outcome.log.calls_to_sym(cell.function);
        let result = CellResult { observed_calls: calls, ..CellResult::of(outcome) };
        let changed = self.ledger.apply(cell, &result);
        if changed & change::EXECUTED != 0 {
            self.tracker.executed.push(cell);
            self.tracker.coverage.insert(cell.function);
        }
        if result.injections == 0 {
            // The planned injection never fired: the workload made only
            // `calls` calls to the function, so every pending cell of the
            // same function beyond that depth is unreachable too — prune
            // them, and *record* them as unreached so a later crash
            // escalation cannot resurrect a cell already proven dead.
            self.unreached.insert(cell);
            self.tracker.unreached.insert(cell);
            let unreached = &mut self.unreached;
            let tracker = &mut self.tracker;
            self.frontier.retain(|f| {
                let dead = f.cell.function == cell.function && f.cell.call_ordinal > calls;
                if dead {
                    unreached.insert(f.cell);
                    tracker.unreached.insert(f.cell);
                    tracker.frontier.insert(f.cell);
                }
                !dead
            });
        }
        if result.outcome.is_crash() && self.escalation_enabled {
            self.escalate_cell(cell);
        }
        if changed & change::CLUSTER != 0 {
            self.tracker.clusters.insert((cell.function, result.stack, result.outcome));
        }
    }
}

impl fmt::Debug for Explorer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Explorer")
            .field("universe", &self.universe)
            .field("frontier", &self.frontier.len())
            .field("executed", &self.ledger.executed_len())
            .field("clusters", &self.ledger.clusters().len())
            .field("batch_index", &self.batch_index)
            .field("cases_executed", &self.ledger.cases())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let mut timed = explorer().time_budget(Duration::ZERO);
        let report = timed.run_workload(&toy());
        assert_eq!(report.cases_executed, 0, "a zero time budget is spent before the probe");
        assert!(timed.finished());
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
        // And the final stores agree on everything but wall-clock time.
        let mut final_a = full.store();
        let mut final_b = resumed.store();
        final_a.elapsed_ms = 0;
        final_b.elapsed_ms = 0;
        assert_eq!(final_a, final_b);
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

//! Drivers that close the loop against live campaigns: the
//! [`RulesHarness`] observer, the [`GatedWorkload`] mute gate, and the
//! [`ClosedLoop`] explorer driver.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

use lfi_controller::{CampaignObserver, CampaignReport, InjectionRecord, TestCase, TestOutcome, Workload};
use lfi_explore::{ExplorationReport, Explorer};
use lfi_runtime::{ExitStatus, PooledProcess, Process};

use crate::engine::{Action, Decision, RuleEngine, RuleSet};
use crate::metrics::MetricsSink;

/// A [`CampaignObserver`] that feeds a [`RuleEngine`] from the observer
/// hooks — the deterministic attachment point of the control-plane
/// contract (hooks run synchronously on the thread that executes the case
/// — the consumer's own thread in a serial session, a pool worker under
/// `parallelism(n)` — so at `parallelism(1)` rules evaluate in exact case
/// order, before the case's events reach the stream consumer).
///
/// The harness assigns case indices in hook order (hooks carry no index)
/// and correlates a thread's `on_injection`/`on_outcome` hooks with
/// the case its `on_test_start` announced, so per-symbol attribution works
/// at any parallelism.  [`CampaignObserver::should_halt`] reports the
/// engine's `Cancel`/`Pause` latches, turning a rule decision into a
/// deterministic campaign halt.
pub struct RulesHarness {
    engine: Mutex<RuleEngine>,
    next_index: AtomicUsize,
    current: Mutex<std::collections::HashMap<ThreadId, usize>>,
}

impl RulesHarness {
    /// A harness evaluating `set` over a fresh engine.
    pub fn new(set: RuleSet) -> Self {
        RulesHarness {
            engine: Mutex::new(RuleEngine::new(set)),
            next_index: AtomicUsize::new(0),
            current: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Shared-handle constructor (observers attach as `Arc`s).
    pub fn shared(set: RuleSet) -> Arc<Self> {
        Arc::new(Self::new(set))
    }

    /// Runs `f` with the locked engine (hold briefly: campaign workers
    /// block on this lock inside their hooks).
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut RuleEngine) -> T) -> T {
        f(&mut self.engine.lock())
    }

    /// The decision log so far (byte-identical across fixed-seed serial
    /// reruns — the pinned contract).
    pub fn decision_log(&self) -> String {
        self.engine.lock().decision_log()
    }

    /// Decisions with sequence `>= from`, cloned out of the engine.
    pub fn decisions_since(&self, from: usize) -> Vec<Decision> {
        self.engine.lock().decisions().get(from..).map(<[Decision]>::to_vec).unwrap_or_default()
    }

    /// Number of decisions emitted so far.
    pub fn decision_count(&self) -> usize {
        self.engine.lock().decisions().len()
    }

    /// True while `function` is muted by the rule set.
    pub fn is_muted(&self, function: &str) -> bool {
        self.engine.lock().is_muted(function)
    }

    /// True once a `Cancel` decision fired.
    pub fn halted(&self) -> bool {
        self.engine.lock().halted()
    }

    /// True once a `Pause` decision fired (cleared with
    /// [`RuleEngine::clear_pause`] via [`RulesHarness::with_engine`]).
    pub fn paused(&self) -> bool {
        self.engine.lock().paused()
    }

    /// A snapshot of the metrics sink (vitals gauges refreshed first).
    pub fn metrics(&self) -> MetricsSink {
        let mut engine = self.engine.lock();
        engine.export_vitals();
        engine.sink().clone()
    }

    fn case_index(&self) -> usize {
        self.current.lock().get(&std::thread::current().id()).copied().unwrap_or(0)
    }
}

impl std::fmt::Debug for RulesHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let engine = self.engine.lock();
        f.debug_struct("RulesHarness")
            .field("decisions", &engine.decisions().len())
            .field("halted", &engine.halted())
            .finish()
    }
}

impl CampaignObserver for RulesHarness {
    fn on_test_start(&self, case: &TestCase) {
        let index = self.next_index.fetch_add(1, Ordering::AcqRel);
        self.current.lock().insert(std::thread::current().id(), index);
        self.engine.lock().case_started(index, &case.name);
    }

    fn on_injection(&self, _case: &TestCase, record: &InjectionRecord) {
        let index = self.case_index();
        self.engine.lock().injection(index, record);
    }

    fn on_outcome(&self, outcome: &TestOutcome) {
        let index = self.case_index();
        self.engine.lock().outcome(index, outcome);
    }

    fn should_halt(&self, _outcome: &TestOutcome) -> bool {
        let engine = self.engine.lock();
        engine.halted() || engine.paused()
    }
}

/// A [`Workload`] wrapper that enforces `Mute` decisions *in execution*:
/// a case whose plan injects into a muted function is vetoed by the health
/// check (a `Skipped` event with reason `Unhealthy`) before its workload
/// runs, so a tripped circuit breaker provably suppresses further
/// injections for the symbol even for cases already generated.
///
/// The veto is decided in [`Workload::setup`] (which receives the case)
/// and consumed by the same executing thread's next
/// [`Workload::health_check`] — the thread-id stash idiom the controller's
/// per-case workloads use.
pub struct GatedWorkload {
    inner: Arc<dyn Workload>,
    harness: Arc<RulesHarness>,
    vetoed: Mutex<HashSet<ThreadId>>,
}

impl GatedWorkload {
    /// Gates `inner` behind `harness`'s mute set.
    pub fn new(inner: Arc<dyn Workload>, harness: Arc<RulesHarness>) -> Self {
        GatedWorkload { inner, harness, vetoed: Mutex::new(HashSet::new()) }
    }
}

impl Workload for GatedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&self, case: &TestCase) -> PooledProcess {
        if case.plan.entries.iter().any(|entry| self.harness.is_muted(&entry.function)) {
            self.vetoed.lock().insert(std::thread::current().id());
        }
        self.inner.setup(case)
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        self.inner.run(process)
    }

    fn teardown(&self, process: &mut Process) {
        self.inner.teardown(process);
    }

    fn health_check(&self, process: &mut Process) -> bool {
        if self.vetoed.lock().remove(&std::thread::current().id()) {
            return false;
        }
        self.inner.health_check(process)
    }
}

/// An [`Explorer`] driven by a rule set instead of (or on top of) its
/// built-in refinement heuristic.
///
/// Construction disables the explorer's hard-coded crash-adjacent
/// escalation and attaches the [`RulesHarness`] as a campaign observer, so
/// every batch feeds the engine deterministically.  After each batch the
/// accumulated frontier-shaping decisions are applied to the explorer
/// (`EscalateSiblings` → [`Explorer::escalate_cell`], `Mute`/`Unmute` →
/// frontier parking, `Reweight` → priority shifts), and every batch's
/// workload is wrapped in a [`GatedWorkload`] so mutes also veto cases
/// generated before the mute landed.
pub struct ClosedLoop {
    explorer: Explorer,
    harness: Arc<RulesHarness>,
    applied: usize,
}

impl ClosedLoop {
    /// Wraps `explorer` with the policy in `set`.
    pub fn new(explorer: Explorer, set: RuleSet) -> Self {
        let harness = RulesHarness::shared(set);
        let observer: Arc<dyn CampaignObserver> = Arc::clone(&harness) as _;
        ClosedLoop { explorer: explorer.escalation(false).attach_observer(observer), harness, applied: 0 }
    }

    /// Applies explorer builder configuration — seed, batch size, budgets,
    /// `halt_on_crash` — to the wrapped explorer:
    /// `closed_loop.configure(|e| e.seed(2009).batch_size(12))`.
    pub fn configure(mut self, f: impl FnOnce(Explorer) -> Explorer) -> Self {
        self.explorer = f(self.explorer);
        self
    }

    /// The harness (for decision logs, metrics and mute queries).
    pub fn harness(&self) -> &Arc<RulesHarness> {
        &self.harness
    }

    /// The wrapped explorer.
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// True when no further batch will run: the explorer is finished or a
    /// rule cancelled/paused the campaign.
    pub fn finished(&self) -> bool {
        self.explorer.finished() || self.harness.halted() || self.harness.paused()
    }

    /// Runs one batch through the gated workload and applies the batch's
    /// decisions to the frontier; `None` when [`ClosedLoop::finished`].
    pub fn step_workload(&mut self, workload: &Arc<dyn Workload>) -> Option<CampaignReport> {
        if self.harness.halted() || self.harness.paused() {
            return None;
        }
        let gated: Arc<dyn Workload> = Arc::new(GatedWorkload::new(Arc::clone(workload), Arc::clone(&self.harness)));
        let report = self.explorer.step_workload(&gated)?;
        self.apply_decisions();
        Some(report)
    }

    /// Runs batches until [`ClosedLoop::finished`] and returns the
    /// aggregate exploration report.
    pub fn run_workload(&mut self, workload: &Arc<dyn Workload>) -> ExplorationReport {
        let mut batches = Vec::new();
        while let Some(report) = self.step_workload(workload) {
            batches.push(report);
        }
        self.explorer.report(batches)
    }

    /// The decision log so far.
    pub fn decision_log(&self) -> String {
        self.harness.decision_log()
    }

    /// Applies decisions emitted since the last application to the
    /// explorer's frontier, in decision order.
    fn apply_decisions(&mut self) {
        let decisions = self.harness.decisions_since(self.applied);
        self.applied += decisions.len();
        for decision in decisions {
            match decision.action {
                Action::EscalateSiblings => {
                    if let Some(cell) = decision.cell {
                        self.explorer.escalate_cell(cell);
                    }
                }
                Action::Mute => {
                    if let Some(symbol) = decision.symbol {
                        self.explorer.mute(symbol);
                    }
                }
                Action::Unmute => {
                    if let Some(symbol) = decision.symbol {
                        self.explorer.unmute(symbol);
                    }
                }
                Action::Reweight(delta) => {
                    if let Some(symbol) = decision.symbol {
                        self.explorer.reweight(symbol, delta);
                    }
                }
                Action::Pause | Action::Cancel | Action::EmitMetric { .. } => {}
            }
        }
    }

    /// Consumes the driver, returning the explorer (e.g. to snapshot its
    /// [`store`](Explorer::store)).
    pub fn into_explorer(self) -> Explorer {
        self.explorer
    }
}

impl std::fmt::Debug for ClosedLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoop")
            .field("explorer", &self.explorer)
            .field("harness", &self.harness)
            .finish()
    }
}

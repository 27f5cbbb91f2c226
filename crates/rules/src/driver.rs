//! The [`ClosedLoop`] explorer driver: a [`RuleEngine`] fed from each
//! batch's event stream, its decisions applied back to the explorer.

use std::sync::Arc;

use lfi_controller::{CampaignReport, CaseEvent, Workload};
use lfi_explore::{ExplorationReport, Explorer};

use crate::engine::{Action, RuleEngine, RuleSet};

/// An [`Explorer`] driven by a rule set instead of (or on top of) its
/// built-in refinement heuristic.
///
/// Construction disables the explorer's hard-coded crash-adjacent
/// escalation.  Each batch runs through [`Explorer::step_with`], which hands
/// every event of the batch to the engine: `Started`, `Injection` and
/// `Outcome` events fold through [`RuleEngine::observe`], while `Skipped`
/// ones do not (their cells go back to the frontier).  A `Pause`, `Cancel`
/// or `Mute` decision cancels the rest of the batch, so at `parallelism(1)`
/// the batch stops after the deciding case on every fixed-seed rerun.
/// After each batch the accumulated frontier-shaping decisions are applied
/// to the explorer (`EscalateSiblings` → [`Explorer::escalate_cell`],
/// `Mute`/`Unmute` → [`Explorer::mute`]/[`Explorer::unmute`], `Reweight` →
/// priority shifts); a mute holds back every pending cell of the muted
/// function, the ones its cancel returned to the frontier included.
pub struct ClosedLoop {
    explorer: Explorer,
    engine: RuleEngine,
    applied: usize,
}

impl ClosedLoop {
    /// Wraps `explorer` with the policy in `set`.
    pub fn new(explorer: Explorer, set: RuleSet) -> Self {
        ClosedLoop { explorer: explorer.escalation(false), engine: RuleEngine::new(set), applied: 0 }
    }

    /// Applies explorer builder configuration — seed, batch size, budgets,
    /// `halt_on_crash` — to the wrapped explorer:
    /// `closed_loop.configure(|e| e.seed(2009).batch_size(12))`.
    pub fn configure(mut self, f: impl FnOnce(Explorer) -> Explorer) -> Self {
        self.explorer = f(self.explorer);
        self
    }

    /// The engine (decision log, state, metrics and mute queries).
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// Mutable engine access (e.g. [`RuleEngine::clear_pause`] to let a
    /// paused loop run on, or [`RuleEngine::export_vitals`] before reading
    /// the sink).
    pub fn engine_mut(&mut self) -> &mut RuleEngine {
        &mut self.engine
    }

    /// The wrapped explorer.
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// True when no further batch will run: the explorer is finished or a
    /// rule cancelled/paused the campaign.
    pub fn finished(&self) -> bool {
        self.explorer.finished() || self.engine.halted() || self.engine.paused()
    }

    /// Runs one batch, folding its events into the engine, and applies the
    /// batch's decisions to the frontier; `None` when
    /// [`ClosedLoop::finished`].
    pub fn step_workload(&mut self, workload: &Arc<dyn Workload>) -> Option<CampaignReport> {
        if self.finished() {
            return None;
        }
        let engine = &mut self.engine;
        let report = self.explorer.step_with(workload, |event| {
            if matches!(event, CaseEvent::Skipped { .. }) {
                return true;
            }
            !engine
                .observe(event)
                .iter()
                .any(|decision| matches!(decision.action, Action::Pause | Action::Cancel | Action::Mute))
        })?;
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
        self.engine.decision_log()
    }

    /// Applies decisions emitted since the last application to the
    /// explorer's frontier, in decision order.
    fn apply_decisions(&mut self) {
        let decisions = &self.engine.decisions()[self.applied..];
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
}

impl std::fmt::Debug for ClosedLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoop")
            .field("explorer", &self.explorer)
            .field("decisions", &self.engine.decisions().len())
            .field("halted", &self.engine.halted())
            .finish()
    }
}

//! The [`Condition`] predicate algebra: thresholds and rate-of-change tests
//! over [`CampaignState`] metrics, composed with and/or/not.
//!
//! Conditions are pure — evaluating one never mutates state — and total:
//! a metric that does not apply in the current scope (e.g. a per-symbol
//! metric with no symbol in context) reads as `0`, so a malformed rule
//! degrades to "never fires" rather than a panic mid-campaign.

use std::fmt;

use lfi_intern::Symbol;

use crate::state::{CampaignState, SymbolStats};

/// Comparison operator for [`Condition::Threshold`] and
/// [`Condition::RateOfChange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    /// Applies the comparison.
    pub(crate) fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        })
    }
}

/// A readable campaign vital.
///
/// In a per-symbol scope (a `PerSymbol` rule or a state-machine transition)
/// the counter metrics read the [`SymbolStats`] rollup
/// for the symbol in context; in global scope — or under the
/// [`Condition::Global`] combinator — they read the campaign totals.
/// Rates, entropy and event counts are always global.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Events folded so far (always global).
    EventsSeen,
    /// `Started` events (always global).
    CasesStarted,
    /// Finished cases (symbol-scoped: cases attributed to the symbol).
    CasesFinished,
    /// Skipped cases (always global).
    CasesSkipped,
    /// Exit-0 outcomes (symbol-scoped when a symbol is in context).
    Successes,
    /// Non-zero-exit outcomes (symbol-scoped when a symbol is in context).
    Failures,
    /// Signal-death outcomes (symbol-scoped when a symbol is in context).
    Crashes,
    /// Injections performed (symbol-scoped when a symbol is in context).
    Injections,
    /// Distinct non-success clusters (symbol-scoped when a symbol is in
    /// context).
    Clusters,
    /// Distinct crash-class clusters (symbol-scoped when a symbol is in
    /// context).
    CrashClusters,
    /// Distinct outcome classes (symbol-scoped when a symbol is in
    /// context).
    DistinctOutcomes,
    /// Shannon entropy (bits) of the outcome distribution (always global).
    OutcomeEntropy,
    /// Finished cases per event over the trailing window (always global).
    CaseRate {
        /// Trailing window, in events (clamped to the 256-sample history).
        window: u64,
    },
    /// Injections per event over the trailing window (always global).
    InjectionRate {
        /// Trailing window, in events.
        window: u64,
    },
    /// Crashes per event over the trailing window (always global).
    CrashRate {
        /// Trailing window, in events.
        window: u64,
    },
    /// Events since the machine entered its current state.  Reads `0`
    /// outside a state-machine transition guard.
    EventsInState,
    /// Crashes (for the machine's symbol) since the machine entered its
    /// current state.  Reads `0` outside a transition guard.
    CrashesSinceEntry,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::EventsSeen => f.write_str("events_seen"),
            Metric::CasesStarted => f.write_str("cases_started"),
            Metric::CasesFinished => f.write_str("cases_finished"),
            Metric::CasesSkipped => f.write_str("cases_skipped"),
            Metric::Successes => f.write_str("successes"),
            Metric::Failures => f.write_str("failures"),
            Metric::Crashes => f.write_str("crashes"),
            Metric::Injections => f.write_str("injections"),
            Metric::Clusters => f.write_str("clusters"),
            Metric::CrashClusters => f.write_str("crash_clusters"),
            Metric::DistinctOutcomes => f.write_str("distinct_outcomes"),
            Metric::OutcomeEntropy => f.write_str("outcome_entropy"),
            Metric::CaseRate { window } => write!(f, "case_rate[{window}]"),
            Metric::InjectionRate { window } => write!(f, "injection_rate[{window}]"),
            Metric::CrashRate { window } => write!(f, "crash_rate[{window}]"),
            Metric::EventsInState => f.write_str("events_in_state"),
            Metric::CrashesSinceEntry => f.write_str("crashes_since_entry"),
        }
    }
}

pub(crate) use crate::state::change;

/// State-machine context a transition guard evaluates with (see
/// [`Metric::EventsInState`] / [`Metric::CrashesSinceEntry`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineContext {
    /// Events folded since the machine entered its current state.
    pub events_in_state: u64,
    /// Crashes attributed to the machine's symbol since entry.
    pub crashes_since_entry: u64,
}

/// Everything a condition can see at evaluation time.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The rolling campaign state.
    pub state: &'a CampaignState,
    /// The symbol in scope (`None` for global rules).
    pub symbol: Option<Symbol>,
    /// The scoped symbol's stats rollup, resolved once at context
    /// construction so metric leaves never repeat the lookup (`None` in
    /// global scope or for an untracked symbol).
    pub stats: Option<&'a SymbolStats>,
    /// State-machine entry bookkeeping (`None` outside transition guards).
    pub machine: Option<MachineContext>,
}

impl<'a> EvalContext<'a> {
    /// A global-scope context over `state`.
    pub(crate) fn global(state: &'a CampaignState) -> Self {
        EvalContext { state, symbol: None, stats: None, machine: None }
    }

    fn without_symbol(self) -> Self {
        EvalContext { symbol: None, stats: None, ..self }
    }
}

impl Metric {
    /// Reads the metric's current value in `ctx`.
    ///
    /// Symbol-scoped reads of a symbol no event has mentioned yet — and
    /// machine metrics outside a transition guard — read `0`.
    pub fn read(self, ctx: EvalContext<'_>) -> f64 {
        let state = ctx.state;
        let stats = ctx.stats;
        match self {
            Metric::EventsSeen => state.events_seen as f64,
            Metric::CasesStarted => state.cases_started as f64,
            Metric::CasesSkipped => state.cases_skipped as f64,
            Metric::CasesFinished => match (ctx.symbol, stats) {
                (None, _) => state.cases_finished as f64,
                (_, stats) => stats.map_or(0.0, |s| s.cases_finished as f64),
            },
            Metric::Successes => match (ctx.symbol, stats) {
                (None, _) => state.successes as f64,
                (_, stats) => stats.map_or(0.0, |s| s.successes as f64),
            },
            Metric::Failures => match (ctx.symbol, stats) {
                (None, _) => state.failures as f64,
                (_, stats) => stats.map_or(0.0, |s| s.failures as f64),
            },
            Metric::Crashes => match (ctx.symbol, stats) {
                (None, _) => state.crashes as f64,
                (_, stats) => stats.map_or(0.0, |s| s.crashes as f64),
            },
            Metric::Injections => match (ctx.symbol, stats) {
                (None, _) => state.injections as f64,
                (_, stats) => stats.map_or(0.0, |s| s.injections as f64),
            },
            Metric::Clusters => match (ctx.symbol, stats) {
                (None, _) => state.clusters() as f64,
                (_, stats) => stats.map_or(0.0, |s| s.clusters as f64),
            },
            Metric::CrashClusters => match (ctx.symbol, stats) {
                (None, _) => state.crash_clusters() as f64,
                (_, stats) => stats.map_or(0.0, |s| s.crash_clusters as f64),
            },
            Metric::DistinctOutcomes => match (ctx.symbol, stats) {
                (None, _) => state.distinct_outcomes() as f64,
                (_, stats) => stats.map_or(0.0, |s| s.distinct_outcomes.len() as f64),
            },
            Metric::OutcomeEntropy => state.outcome_entropy(),
            Metric::CaseRate { window } => state.case_rate(window),
            Metric::InjectionRate { window } => state.injection_rate(window),
            Metric::CrashRate { window } => state.crash_rate(window),
            Metric::EventsInState => ctx.machine.map_or(0.0, |m| m.events_in_state as f64),
            Metric::CrashesSinceEntry => ctx.machine.map_or(0.0, |m| m.crashes_since_entry as f64),
        }
    }

    /// The [`change`](crate::state::change) bits this metric's value
    /// depends on (in any fixed scope).  Windowed rates and event counters
    /// move on every fold (`EVENTS`); cumulative counters move exactly when
    /// their counter bit is reported by a fold.
    pub(crate) fn change_mask(self) -> u16 {
        match self {
            Metric::CasesStarted => change::CASES_STARTED,
            Metric::CasesFinished => change::CASES_FINISHED,
            Metric::CasesSkipped => change::CASES_SKIPPED,
            Metric::Successes => change::SUCCESSES,
            Metric::Failures => change::FAILURES,
            Metric::Crashes => change::CRASHES,
            Metric::Injections => change::INJECTIONS,
            Metric::Clusters => change::CLUSTERS,
            Metric::CrashClusters => change::CRASH_CLUSTERS,
            Metric::DistinctOutcomes => change::DISTINCT,
            Metric::OutcomeEntropy => change::ENTROPY,
            // `crashes_since_entry` moves with the symbol's crash counter;
            // its entry-point reset is re-anchored by the transition itself.
            Metric::CrashesSinceEntry => change::CRASHES,
            // Every fold advances the event counter and slides the history
            // window these read.
            Metric::EventsSeen
            | Metric::CaseRate { .. }
            | Metric::InjectionRate { .. }
            | Metric::CrashRate { .. }
            | Metric::EventsInState => change::EVENTS,
        }
    }
}

/// A boolean predicate over the campaign state.
///
/// Built from [`Metric`] thresholds and rate-of-change tests, composed with
/// [`Condition::all`], [`Condition::any`] and [`Condition::negate`].
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true.
    Always,
    /// True when every child is (empty: true).
    All(Vec<Condition>),
    /// True when any child is (empty: false).
    Any(Vec<Condition>),
    /// Logical negation.
    Not(Box<Condition>),
    /// Evaluates the child in global scope even inside a per-symbol rule.
    Global(Box<Condition>),
    /// `metric cmp value`.
    Threshold {
        /// The vital to read.
        metric: Metric,
        /// The comparison.
        cmp: Cmp,
        /// The right-hand side.
        value: f64,
    },
    /// `(metric_now - metric_window_events_ago) cmp value` — fires on how
    /// fast a cumulative vital is moving, not its level.  Only meaningful
    /// for the cumulative history metrics ([`Metric::CasesFinished`],
    /// [`Metric::Crashes`], [`Metric::Injections`],
    /// [`Metric::CrashClusters`], [`Metric::DistinctOutcomes`],
    /// [`Metric::OutcomeEntropy`]); other metrics difference their global
    /// current value against the windowed sample of the nearest equivalent,
    /// reading `0` change when there is none.
    RateOfChange {
        /// The vital whose movement is tested (global scope).
        metric: Metric,
        /// Trailing window, in events.
        window: u64,
        /// The comparison.
        cmp: Cmp,
        /// The right-hand side.
        value: f64,
    },
}

impl Condition {
    /// `metric cmp value`.
    pub fn threshold(metric: Metric, cmp: Cmp, value: f64) -> Self {
        Condition::Threshold { metric, cmp, value }
    }

    /// `metric >= value` — the most common guard.
    pub fn at_least(metric: Metric, value: f64) -> Self {
        Condition::Threshold { metric, cmp: Cmp::Ge, value }
    }

    /// Conjunction.
    pub fn all(children: impl IntoIterator<Item = Condition>) -> Self {
        Condition::All(children.into_iter().collect())
    }

    /// Disjunction.
    pub fn any(children: impl IntoIterator<Item = Condition>) -> Self {
        Condition::Any(children.into_iter().collect())
    }

    /// `self AND other`.
    pub fn and(self, other: Condition) -> Self {
        match self {
            Condition::All(mut children) => {
                children.push(other);
                Condition::All(children)
            }
            first => Condition::All(vec![first, other]),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Condition) -> Self {
        match self {
            Condition::Any(mut children) => {
                children.push(other);
                Condition::Any(children)
            }
            first => Condition::Any(vec![first, other]),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn negate(self) -> Self {
        Condition::Not(Box::new(self))
    }

    /// Forces global scope for the wrapped condition.
    pub fn global(self) -> Self {
        Condition::Global(Box::new(self))
    }

    /// Evaluates the condition in `ctx`.
    pub(crate) fn eval(&self, ctx: EvalContext<'_>) -> bool {
        match self {
            Condition::Always => true,
            Condition::All(children) => children.iter().all(|c| c.eval(ctx)),
            Condition::Any(children) => children.iter().any(|c| c.eval(ctx)),
            Condition::Not(child) => !child.eval(ctx),
            Condition::Global(child) => child.eval(ctx.without_symbol()),
            Condition::Threshold { metric, cmp, value } => cmp.apply(metric.read(ctx), *value),
            Condition::RateOfChange { metric, window, cmp, value } => {
                let then = ctx.state.lookback(*window);
                let global = ctx.without_symbol();
                let now = metric.read(global);
                let past = match metric {
                    Metric::CasesFinished => then.cases_finished as f64,
                    Metric::Crashes => then.crashes as f64,
                    Metric::Injections => then.injections as f64,
                    Metric::CrashClusters => then.crash_clusters as f64,
                    Metric::DistinctOutcomes => then.distinct_outcomes as f64,
                    Metric::OutcomeEntropy => then.entropy,
                    _ => now,
                };
                cmp.apply(now - past, *value)
            }
        }
    }

    /// The [`change`](crate::state::change) bits that can flip this
    /// condition's verdict — the union of its metric leaves'
    /// [`Metric::change_mask`]s (rate-of-change tests slide their window on
    /// every fold, so they wake on every event).
    pub(crate) fn change_mask(&self) -> u16 {
        match self {
            Condition::Always => 0,
            Condition::All(children) | Condition::Any(children) => {
                children.iter().fold(0, |mask, c| mask | c.change_mask())
            }
            Condition::Not(child) | Condition::Global(child) => child.change_mask(),
            Condition::Threshold { metric, .. } => metric.change_mask(),
            Condition::RateOfChange { .. } => change::EVENTS,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Always => f.write_str("always"),
            Condition::All(children) => {
                f.write_str("(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" && ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            Condition::Any(children) => {
                f.write_str("(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" || ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            Condition::Not(child) => write!(f, "!{child}"),
            Condition::Global(child) => write!(f, "global({child})"),
            Condition::Threshold { metric, cmp, value } => write!(f, "{metric} {cmp} {value}"),
            Condition::RateOfChange { metric, window, cmp, value } => {
                write!(f, "d[{window}]({metric}) {cmp} {value}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::planned_cell;
    use lfi_controller::{InjectionRecord, TestLog, TestOutcome};
    use lfi_explore::CellResult;
    use lfi_runtime::{ExitStatus, Signal};
    use lfi_scenario::Plan;

    fn crash(state: &mut CampaignState, index: usize, function: &str) {
        let record = InjectionRecord {
            function: Symbol::intern(function),
            call_number: index as u64 + 1,
            retval: Some(-1),
            errno: Some(5),
            side_effects: Vec::new(),
            call_original: false,
            stack: Vec::new(),
        };
        state.fold_started();
        state.fold_injection(record.function);
        let outcome = TestOutcome {
            name: "case".into(),
            status: ExitStatus::Crashed(Signal::Segv),
            log: TestLog { injections: vec![record], ..TestLog::default() },
            replay: Plan::default(),
            calls: Vec::new(),
            calls_dropped: 0,
        };
        state.fold_finished(planned_cell(&outcome), &CellResult::of(&outcome));
    }

    /// A per-symbol context over `state`.
    fn scoped(state: &CampaignState, symbol: Symbol) -> EvalContext<'_> {
        EvalContext { state, symbol: Some(symbol), stats: state.symbol(symbol), machine: None }
    }

    #[test]
    fn thresholds_scope_by_symbol() {
        let mut state = CampaignState::new();
        crash(&mut state, 0, "read");
        crash(&mut state, 1, "read");

        let want_crashes = Condition::at_least(Metric::Crashes, 2.0);
        assert!(want_crashes.eval(EvalContext::global(&state)));
        assert!(want_crashes.eval(scoped(&state, Symbol::intern("read"))));
        assert!(!want_crashes.eval(scoped(&state, Symbol::intern("write"))));
        // Global combinator strips the symbol scope.
        assert!(want_crashes.clone().global().eval(scoped(&state, Symbol::intern("write"))));

        let combined = want_crashes
            .clone()
            .and(Condition::at_least(Metric::Injections, 1.0))
            .or(Condition::Always.negate());
        assert!(combined.eval(EvalContext::global(&state)));
        assert_eq!(
            Condition::threshold(Metric::CrashRate { window: 8 }, Cmp::Gt, 0.0).to_string(),
            "crash_rate[8] > 0"
        );
    }

    #[test]
    fn rate_of_change_differences_the_window() {
        let mut state = CampaignState::new();
        for index in 0..4 {
            crash(&mut state, index, "close");
        }
        // 12 events, 4 crashes; over the last 3 events exactly one crash
        // landed (each case is started/injection/outcome).
        let moving = Condition::RateOfChange { metric: Metric::Crashes, window: 3, cmp: Cmp::Ge, value: 1.0 };
        assert!(moving.eval(EvalContext::global(&state)));
        let stalled = Condition::RateOfChange { metric: Metric::Crashes, window: 3, cmp: Cmp::Eq, value: 0.0 };
        assert!(!stalled.eval(EvalContext::global(&state)));
        // Non-history metrics read zero change.
        let zero = Condition::RateOfChange { metric: Metric::CasesSkipped, window: 3, cmp: Cmp::Eq, value: 0.0 };
        assert!(zero.eval(EvalContext::global(&state)));
    }
}

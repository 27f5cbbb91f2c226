//! The rolling [`CampaignState`]: everything a [`Condition`](crate::Condition)
//! can read, folded incrementally from the `CaseEvent` stream.
//!
//! The fold is a pure function of the event sequence — no clocks, no
//! randomness — which is what lets the engine pin its byte-identical
//! decision-log contract (see the crate docs).

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use lfi_explore::{CellResult, ClusterKey, OutcomeClass};
use lfi_intern::Symbol;
use lfi_scenario::FaultCell;

/// Change bits: which campaign counters a fold actually moved.
///
/// Every fold method returns the union of the bits below that its event
/// changed, and every [`Metric`](crate::Metric) declares the bits its value
/// depends on — so the engine can skip re-evaluating a guard whose inputs
/// provably kept their exact values (a failure-only stream never wakes a
/// crash-watching rule).  The masks are *dataflow-precise*, not event-kind
/// approximations: skipping is sound because an unchanged input vector
/// implies an unchanged verdict.
pub mod change {
    /// `events_seen` advanced (every fold; also covers the history-window
    /// slide that windowed rates and `EventsInState` read).
    pub(crate) const EVENTS: u16 = 1 << 0;
    /// `cases_started` moved.
    pub(crate) const CASES_STARTED: u16 = 1 << 1;
    /// `cases_finished` moved.
    pub(crate) const CASES_FINISHED: u16 = 1 << 2;
    /// `cases_skipped` moved.
    pub(crate) const CASES_SKIPPED: u16 = 1 << 3;
    /// A success outcome landed (global, and thus any attributed symbol).
    pub(crate) const SUCCESSES: u16 = 1 << 4;
    /// A failure outcome landed.
    pub(crate) const FAILURES: u16 = 1 << 5;
    /// A crash outcome landed.
    pub(crate) const CRASHES: u16 = 1 << 6;
    /// An injection was performed.
    pub(crate) const INJECTIONS: u16 = 1 << 7;
    /// A new non-success cluster was keyed.
    pub(crate) const CLUSTERS: u16 = 1 << 8;
    /// A new crash-class cluster was keyed.
    pub(crate) const CRASH_CLUSTERS: u16 = 1 << 9;
    /// The distinct-outcome set grew (globally or for any symbol).
    pub(crate) const DISTINCT: u16 = 1 << 10;
    /// The outcome-class distribution (entropy) shifted.
    pub(crate) const ENTROPY: u16 = 1 << 11;
    /// Every bit — forces evaluation on any fold.
    pub const ALL: u16 = (1 << 12) - 1;
}

/// How many per-event [`Sample`]s the sliding-window history retains.
///
/// Rates and rate-of-change conditions can look back at most this many
/// events; longer windows are clamped.
pub(crate) const HISTORY_WINDOW: usize = 256;

/// One history sample, pushed after every folded event, so window metrics
/// can difference "now" against "`window` events ago".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sample {
    /// Cumulative finished cases at this event.
    pub cases_finished: u64,
    /// Cumulative crash-class outcomes at this event.
    pub crashes: u64,
    /// Cumulative injections at this event.
    pub injections: u64,
    /// Cumulative distinct crash clusters at this event.
    pub crash_clusters: u64,
    /// Distinct outcome classes seen so far.
    pub distinct_outcomes: u64,
    /// Shannon entropy (bits) of the outcome-class distribution so far.
    pub entropy: f64,
}

/// Per-symbol rollup.
///
/// A finished case whose injection fired counts toward its cell's function;
/// a case whose injection never fired counts toward the global totals only.
/// Injections count toward the function they were performed on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolStats {
    /// Finished cases whose cell's injection into this symbol fired.
    pub cases_finished: u64,
    /// ... of which exited 0.
    pub successes: u64,
    /// ... of which exited non-zero.
    pub failures: u64,
    /// ... of which died by signal.
    pub crashes: u64,
    /// Injections performed into this symbol, across all cases.
    pub injections: u64,
    /// Distinct outcome classes observed for this symbol (display form).
    pub distinct_outcomes: BTreeSet<String>,
    /// Distinct non-success clusters keyed on this symbol.
    pub clusters: u64,
    /// ... of which are crash-class (signal deaths).
    pub crash_clusters: u64,
    /// The fault cell behind the most recent crash attributed to this
    /// symbol — the seed rule actions like
    /// [`Action::EscalateSiblings`](crate::Action::EscalateSiblings) expand.
    pub last_crash_cell: Option<FaultCell>,
}

/// The rolling campaign vitals a rule set evaluates against.
///
/// Updated by the engine once per `CaseEvent`, in stream sequence order.
/// Per-symbol rollups are keyed by `Symbol` for lock-free O(log n) reads on
/// the evaluation hot path, with a *name-ordered* side index driving every
/// iteration — so two processes interning symbols in different orders still
/// fold and iterate identically.
#[derive(Debug, Clone, Default)]
pub struct CampaignState {
    /// Events folded so far (the engine's sequence counter).
    pub events_seen: u64,
    /// `Started` events seen.
    pub cases_started: u64,
    /// `Outcome` events seen.
    pub cases_finished: u64,
    /// `Skipped` events seen.
    pub cases_skipped: u64,
    /// Outcomes that exited 0.
    pub successes: u64,
    /// Outcomes that exited non-zero.
    pub failures: u64,
    /// Outcomes that died by signal.
    pub crashes: u64,
    /// Total injections performed (from `Injection` events).
    pub injections: u64,
    /// Outcome-class histogram, keyed by display form (`success`,
    /// `exit:3`, `crash:SIGSEGV`, ...).
    pub outcome_counts: BTreeMap<String, u64>,
    /// Per-symbol rollups, dense in first-seen order — the evaluation hot
    /// path walks and indexes plain vectors, no tree traversal.
    stats: Vec<SymbolStats>,
    /// `Symbol` → dense index (a u32-keyed point lookup, no interning or
    /// table lock) for fold-time updates and [`CampaignState::symbol`].
    by_symbol: BTreeMap<Symbol, usize>,
    /// Name-sorted `(symbol, dense index)` pairs — the pinned, interning-
    /// order-independent iteration order of [`CampaignState::symbols`].
    order: Vec<(Symbol, usize)>,
    /// The keys of the clusters seen so far, keyed as the explorer's and
    /// a fabric job's [`FaultLedger`](lfi_explore::FaultLedger) key them.
    /// A set of keys, not a whole ledger: a plain campaign stream can
    /// finish one cell twice with different outcomes, and the ledger folds
    /// each cell once, so it would drop the second outcome's cluster.
    clusters: HashSet<ClusterKey<'static>>,
    /// Crash-class subset size of `clusters` (cached count).
    crash_cluster_count: u64,
    /// Bounded per-event history for window metrics.
    history: VecDeque<Sample>,
}

impl CampaignState {
    /// An empty state (zero events folded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a case start; returns the [`change`] bits it moved.
    pub(crate) fn fold_started(&mut self) -> u16 {
        self.cases_started += 1;
        self.advance();
        change::EVENTS | change::CASES_STARTED
    }

    /// Folds an injection into `function`; returns the [`change`] bits it
    /// moved.
    pub(crate) fn fold_injection(&mut self, function: Symbol) -> u16 {
        self.injections += 1;
        self.track(function).injections += 1;
        self.advance();
        change::EVENTS | change::INJECTIONS
    }

    /// Folds a finished case: the cell it ran (`None` when no cell is
    /// known, as for a baseline case) and its result.  A case with a cell
    /// joins the cluster [`CellResult::cluster_key`] names, and counts
    /// toward the cell's function when its injection fired.  Returns the
    /// [`change`] bits it moved.
    pub(crate) fn fold_finished(&mut self, cell: Option<FaultCell>, result: &CellResult) -> u16 {
        let mut changed = change::EVENTS | change::CASES_FINISHED | change::ENTROPY;
        self.cases_finished += 1;
        let class = result.outcome;
        match class {
            OutcomeClass::Success => {
                self.successes += 1;
                changed |= change::SUCCESSES;
            }
            OutcomeClass::Failure(_) => {
                self.failures += 1;
                changed |= change::FAILURES;
            }
            OutcomeClass::Crash(_) => {
                self.crashes += 1;
                changed |= change::CRASHES;
            }
        }
        let histogram_entry = self.outcome_counts.entry(class.to_string()).or_insert(0);
        if *histogram_entry == 0 {
            changed |= change::DISTINCT;
        }
        *histogram_entry += 1;

        let new_cluster = cell
            .and_then(|cell| result.cluster_key(cell))
            .is_some_and(|key| self.clusters.insert(key.into_owned()));
        if new_cluster {
            changed |= change::CLUSTERS;
            if class.is_crash() {
                self.crash_cluster_count += 1;
                changed |= change::CRASH_CLUSTERS;
            }
        }

        if let Some(cell) = cell.filter(|_| result.injections > 0) {
            let stats = self.track(cell.function);
            stats.cases_finished += 1;
            match class {
                OutcomeClass::Success => stats.successes += 1,
                OutcomeClass::Failure(_) => stats.failures += 1,
                OutcomeClass::Crash(_) => stats.crashes += 1,
            }
            // A symbol can see a class for the first time even when the
            // campaign already has — the distinct bit must cover both.
            if stats.distinct_outcomes.insert(class.to_string()) {
                changed |= change::DISTINCT;
            }
            if new_cluster {
                stats.clusters += 1;
                if class.is_crash() {
                    stats.crash_clusters += 1;
                }
            }
            if class.is_crash() {
                stats.last_crash_cell = Some(cell);
            }
        }
        self.advance();
        changed
    }

    /// Folds a skipped case; returns the [`change`] bits it moved.
    pub(crate) fn fold_skipped(&mut self) -> u16 {
        self.cases_skipped += 1;
        self.advance();
        change::EVENTS | change::CASES_SKIPPED
    }

    /// Pushes the post-event history sample and bumps the event counter.
    fn advance(&mut self) {
        self.events_seen += 1;
        if self.history.len() == HISTORY_WINDOW {
            self.history.pop_front();
        }
        self.history.push_back(Sample {
            cases_finished: self.cases_finished,
            crashes: self.crashes,
            injections: self.injections,
            crash_clusters: self.crash_cluster_count,
            distinct_outcomes: self.outcome_counts.len() as u64,
            entropy: self.outcome_entropy(),
        });
    }

    /// Distinct non-success clusters seen so far.
    pub fn clusters(&self) -> u64 {
        self.clusters.len() as u64
    }

    /// Distinct crash-class (signal-death) clusters seen so far.
    pub fn crash_clusters(&self) -> u64 {
        self.crash_cluster_count
    }

    /// Distinct outcome classes seen so far.
    pub(crate) fn distinct_outcomes(&self) -> u64 {
        self.outcome_counts.len() as u64
    }

    /// Shannon entropy (bits) of the outcome-class distribution — the
    /// "are we still learning anything new?" signal.  0.0 until two
    /// distinct classes exist.
    pub(crate) fn outcome_entropy(&self) -> f64 {
        let total: u64 = self.outcome_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let mut entropy = 0.0;
        for &count in self.outcome_counts.values() {
            if count == 0 {
                continue;
            }
            let p = count as f64 / total as f64;
            entropy -= p * p.log2();
        }
        entropy
    }

    /// The history sample `window` events back (clamped to the retained
    /// [`HISTORY_WINDOW`]); zeroes before any event was folded.
    fn sample_back(&self, window: u64) -> Sample {
        if self.history.is_empty() {
            return Sample::default();
        }
        let window = (window.max(1) as usize).min(HISTORY_WINDOW);
        if window >= self.history.len() {
            return Sample::default();
        }
        self.history[self.history.len() - 1 - window]
    }

    /// Cases finished per event over the trailing `window` events.
    pub(crate) fn case_rate(&self, window: u64) -> f64 {
        let span = (window.max(1) as usize).min(HISTORY_WINDOW).min(self.history.len().max(1));
        (self.cases_finished - self.sample_back(window).cases_finished) as f64 / span as f64
    }

    /// Injections per event over the trailing `window` events.
    pub(crate) fn injection_rate(&self, window: u64) -> f64 {
        let span = (window.max(1) as usize).min(HISTORY_WINDOW).min(self.history.len().max(1));
        (self.injections - self.sample_back(window).injections) as f64 / span as f64
    }

    /// Crashes per event over the trailing `window` events.
    pub(crate) fn crash_rate(&self, window: u64) -> f64 {
        let span = (window.max(1) as usize).min(HISTORY_WINDOW).min(self.history.len().max(1));
        (self.crashes - self.sample_back(window).crashes) as f64 / span as f64
    }

    /// The history sample `window` events ago (public for rate-of-change
    /// evaluation).
    pub(crate) fn lookback(&self, window: u64) -> Sample {
        self.sample_back(window)
    }

    /// Per-symbol rollup for `symbol`, if any event mentioned it.
    pub(crate) fn symbol(&self, symbol: Symbol) -> Option<&SymbolStats> {
        self.by_symbol.get(&symbol).map(|&index| &self.stats[index])
    }

    /// Per-symbol rollup by name.
    pub fn symbol_named(&self, name: &str) -> Option<&SymbolStats> {
        let position = self.order.binary_search_by(|(s, _)| s.as_str().cmp(name)).ok()?;
        Some(&self.stats[self.order[position].1])
    }

    /// Number of tracked symbols (symbols are never forgotten, so this is
    /// monotone over the event stream).
    pub(crate) fn symbol_count(&self) -> usize {
        self.stats.len()
    }

    /// All tracked symbols with their rollups, in name order — the
    /// deterministic iteration order per-symbol rules evaluate in.
    pub(crate) fn symbols(&self) -> impl Iterator<Item = (Symbol, &SymbolStats)> {
        self.order.iter().map(move |&(symbol, index)| (symbol, &self.stats[index]))
    }

    /// The rollup entry for `symbol`, registering it in the name-order
    /// index on first sight.
    fn track(&mut self, symbol: Symbol) -> &mut SymbolStats {
        let index = match self.by_symbol.get(&symbol) {
            Some(&index) => index,
            None => {
                let index = self.stats.len();
                self.stats.push(SymbolStats::default());
                self.by_symbol.insert(symbol, index);
                let position = match self.order.binary_search_by(|(s, _)| s.as_str().cmp(symbol.as_str())) {
                    Ok(position) | Err(position) => position,
                };
                self.order.insert(position, (symbol, index));
                index
            }
        };
        &mut self.stats[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::planned_cell;
    use lfi_controller::{InjectionRecord, TestLog, TestOutcome};
    use lfi_runtime::ExitStatus;
    use lfi_scenario::Plan;

    fn record(function: &str, call: u64, retval: i64, errno: Option<i64>) -> InjectionRecord {
        InjectionRecord {
            function: Symbol::intern(function),
            call_number: call,
            retval: Some(retval),
            errno,
            side_effects: Vec::new(),
            call_original: false,
            stack: vec![Symbol::intern("main")],
        }
    }

    fn outcome(name: &str, status: ExitStatus, injections: Vec<InjectionRecord>) -> TestOutcome {
        TestOutcome {
            name: name.to_owned(),
            status,
            log: TestLog { injections, intercepted_calls: 0, calls_per_function: Vec::new() },
            replay: Plan::default(),
            calls: Vec::new(),
            calls_dropped: 0,
        }
    }

    fn finish(state: &mut CampaignState, outcome: &TestOutcome) -> u16 {
        state.fold_finished(planned_cell(outcome), &CellResult::of(outcome))
    }

    #[test]
    fn folds_counters_clusters_and_symbols() {
        let mut state = CampaignState::new();
        let read = record("read", 1, -1, Some(5));
        state.fold_started();
        state.fold_injection(read.function);
        let changed =
            finish(&mut state, &outcome("case-0", ExitStatus::Crashed(lfi_runtime::Signal::Segv), vec![read]));
        assert_ne!(changed & change::CRASHES, 0);
        assert_ne!(changed & change::CRASH_CLUSTERS, 0);
        assert_ne!(changed & change::DISTINCT, 0);
        assert_eq!(changed & change::SUCCESSES, 0);

        state.fold_started();
        finish(&mut state, &outcome("case-1", ExitStatus::Exited(0), Vec::new()));
        state.fold_skipped();

        assert_eq!(state.events_seen, 6);
        assert_eq!(state.cases_started, 2);
        assert_eq!(state.cases_finished, 2);
        assert_eq!(state.cases_skipped, 1);
        assert_eq!((state.successes, state.failures, state.crashes), (1, 0, 1));
        assert_eq!(state.injections, 1);
        assert_eq!(state.clusters(), 1);
        assert_eq!(state.crash_clusters(), 1);
        assert_eq!(state.distinct_outcomes(), 2);
        assert!(state.outcome_entropy() > 0.99 && state.outcome_entropy() <= 1.0);

        let read = state.symbol_named("read").unwrap();
        assert_eq!(read.crashes, 1);
        assert_eq!(read.crash_clusters, 1);
        assert_eq!(read.injections, 1);
        let cell = read.last_crash_cell.unwrap();
        assert_eq!(cell.function.as_str(), "read");
        assert_eq!(cell.call_ordinal, 1);
        assert_eq!((cell.retval, cell.errno), (-1, Some(5)));
    }

    #[test]
    fn same_cluster_key_counts_once() {
        let mut state = CampaignState::new();
        for _ in 0..3 {
            let close = record("close", 2, -1, Some(5));
            state.fold_started();
            state.fold_injection(close.function);
            finish(&mut state, &outcome("case", ExitStatus::Crashed(lfi_runtime::Signal::Segv), vec![close]));
        }
        assert_eq!(state.crashes, 3);
        assert_eq!(state.crash_clusters(), 1);
        assert_eq!(state.symbol_named("close").unwrap().crash_clusters, 1);

        // A different errno produces a different record but the same
        // (symbol, stack, class) key — still one cluster, like the explorer.
        let close = record("close", 2, -1, Some(13));
        state.fold_started();
        state.fold_injection(close.function);
        finish(&mut state, &outcome("case", ExitStatus::Crashed(lfi_runtime::Signal::Segv), vec![close]));
        assert_eq!(state.crash_clusters(), 1);

        // A different signal is a new cluster.
        let close = record("close", 2, -1, Some(5));
        state.fold_started();
        state.fold_injection(close.function);
        finish(&mut state, &outcome("case", ExitStatus::Crashed(lfi_runtime::Signal::Abort), vec![close]));
        assert_eq!(state.crash_clusters(), 2);
        assert_eq!(state.symbol_named("close").unwrap().crash_clusters, 2);
    }

    #[test]
    fn window_rates_difference_history() {
        let mut state = CampaignState::new();
        for _ in 0..10 {
            state.fold_started();
            finish(&mut state, &outcome("case", ExitStatus::Exited(0), Vec::new()));
        }
        // 20 events folded, 10 finishes: finish rate over any full window
        // is 0.5 per event.
        assert!((state.case_rate(20) - 0.5).abs() < 1e-9);
        assert_eq!(state.crash_rate(20), 0.0);
        assert_eq!(state.injection_rate(4), 0.0);
        // Window larger than history falls back to "since the beginning".
        assert!((state.case_rate(10_000) - 0.5).abs() < 1e-9);
    }
}

//! The [`FaultLedger`]: the one fold from a cell's outcome to results, and
//! the outcome, cluster and coverage types it folds into.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

use lfi_controller::TestOutcome;
use lfi_intern::{Symbol, SymbolMap};
use lfi_runtime::{ExitStatus, Signal};
use lfi_scenario::FaultCell;

use crate::ExplorationStore;

/// How a test-case run ended, folded to the classes crash clustering keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutcomeClass {
    /// The workload exited with status 0.
    Success,
    /// The workload exited with the given non-zero status.
    Failure(i32),
    /// The workload was killed by a signal.
    Crash(Signal),
}

impl OutcomeClass {
    /// Classifies an exit status.
    pub fn of(status: ExitStatus) -> Self {
        match status {
            ExitStatus::Exited(0) => OutcomeClass::Success,
            ExitStatus::Exited(code) => OutcomeClass::Failure(code),
            ExitStatus::Crashed(signal) => OutcomeClass::Crash(signal),
        }
    }

    /// True for signal deaths.
    pub fn is_crash(self) -> bool {
        matches!(self, OutcomeClass::Crash(_))
    }

    /// Parses the [`fmt::Display`] form back (used by the XML store).
    /// `exit:0` is no class: [`OutcomeClass::of`] files exit 0 as
    /// [`OutcomeClass::Success`], so no run produces `Failure(0)`.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "success" => Some(OutcomeClass::Success),
            "crash:SIGABRT" => Some(OutcomeClass::Crash(Signal::Abort)),
            "crash:SIGSEGV" => Some(OutcomeClass::Crash(Signal::Segv)),
            _ => text
                .strip_prefix("exit:")?
                .parse()
                .ok()
                .filter(|&code| code != 0)
                .map(OutcomeClass::Failure),
        }
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutcomeClass::Success => f.write_str("success"),
            OutcomeClass::Failure(code) => write!(f, "exit:{code}"),
            OutcomeClass::Crash(signal) => write!(f, "crash:{signal}"),
        }
    }
}

/// Cluster identity, the one definition every outcome fold shares: the
/// planned cell's function, the call stack of the case's first injection
/// (empty when none fired), and the outcome class.  [`FaultLedger`], the
/// [`ExplorationState`](crate::ExplorationState)'s delta marks and the rules
/// engine's campaign state all key on it, so they count the same clusters
/// for the same cells.  The stack is borrowed
/// from the [`CellResult`] it came from until a fold needs to keep it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterKey<'a> {
    /// The planned cell's function.
    pub function: Symbol,
    /// The call stack of the case's first injection, innermost frame last.
    pub stack: Cow<'a, [Symbol]>,
    /// How the case ended (never [`OutcomeClass::Success`]).
    pub outcome: OutcomeClass,
}

impl ClusterKey<'_> {
    /// The key with its stack owned, to keep past the result it came from.
    pub fn into_owned(self) -> ClusterKey<'static> {
        ClusterKey { function: self.function, stack: Cow::Owned(self.stack.into_owned()), outcome: self.outcome }
    }
}

/// One cluster of deduplicated non-success outcomes, keyed by
/// [`ClusterKey`] — the unit the paper's "pinpoint bugs or weak spots"
/// reporting works in.  Every further outcome with the same key only bumps
/// `count`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCluster {
    /// The function whose injected fault produced the outcome.
    pub function: Symbol,
    /// The call stack observed when the fault was injected, innermost frame
    /// last (empty when the case failed without its injection firing).
    pub stack: Vec<Symbol>,
    /// The outcome class (crash signal or exit code).
    pub outcome: OutcomeClass,
    /// How many outcomes were folded into this cluster.
    pub count: u64,
    /// The member cell that sorts first by [`FaultCell::sort_key`] (its
    /// replay coordinates) — the same cell whatever order members arrived
    /// in.
    pub example: FaultCell,
    /// The test-case name of `example` ([`FaultCell::case_name`]).
    pub example_case: String,
}

impl CrashCluster {
    /// True when the cluster is a signal death (not just a non-zero exit).
    pub fn is_crash(&self) -> bool {
        self.outcome.is_crash()
    }

    /// The cluster's key, borrowing its stack.
    pub fn key(&self) -> ClusterKey<'_> {
        ClusterKey { function: self.function, stack: Cow::Borrowed(&self.stack), outcome: self.outcome }
    }
}

/// Per-function coverage accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionCoverage {
    /// The deepest intercepted-call count observed for this function in any
    /// case so far (from the probe's dispatch call log, then per-case
    /// injector call totals).
    pub observed_calls: u64,
    /// Cells of this function whose injection actually fired, as
    /// (ordinal, retval, errno) — the *triggered* half of the coverage map.
    pub triggered: BTreeSet<(u64, i64, Option<i64>)>,
}

/// What one executed cell came back with: everything the ledger folds.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// How the cell's case ended.
    pub outcome: OutcomeClass,
    /// Injections the case performed (its planned one fired when > 0).
    pub injections: u64,
    /// Calls the case made to the cell's function (0 when unknown).
    pub observed_calls: u64,
    /// The call stack of the case's first injection (empty when none fired).
    pub stack: Vec<Symbol>,
}

impl CellResult {
    /// The result of a finished case, with `observed_calls` left at 0 for
    /// callers that cannot reproduce it.
    pub fn of(outcome: &TestOutcome) -> Self {
        CellResult {
            outcome: OutcomeClass::of(outcome.status),
            injections: outcome.injection_count() as u64,
            observed_calls: 0,
            stack: outcome.log.injections.first().map(|r| r.stack.clone()).unwrap_or_default(),
        }
    }

    /// The cluster `cell`'s result joins, borrowing the result's stack;
    /// `None` for a success, which joins no cluster.
    pub fn cluster_key(&self, cell: FaultCell) -> Option<ClusterKey<'_>> {
        (self.outcome != OutcomeClass::Success).then(|| ClusterKey {
            function: cell.function,
            stack: Cow::Borrowed(&self.stack),
            outcome: self.outcome,
        })
    }
}

/// The cluster order: function name, then stack frame names, then outcome
/// class — process-independent, like [`FaultCell::sort_key`].
fn cluster_order(a: &ClusterKey, b: &ClusterKey) -> Ordering {
    a.function
        .as_str()
        .cmp(b.function.as_str())
        .then_with(|| a.stack.iter().map(|s| s.as_str()).cmp(b.stack.iter().map(|s| s.as_str())))
        .then_with(|| a.outcome.cmp(&b.outcome))
}

/// Where the cluster keyed `key` sits in a key-ordered cluster list: `Ok`
/// at its index, `Err` where it belongs.
pub(crate) fn cluster_slot(clusters: &[CrashCluster], key: &ClusterKey) -> Result<usize, usize> {
    clusters.binary_search_by(|c| cluster_order(&c.key(), key))
}

/// Puts clusters in key order (a no-op on lists this build wrote).
pub(crate) fn sort_clusters(clusters: &mut [CrashCluster]) {
    clusters.sort_by(|a, b| cluster_order(&a.key(), &b.key()));
}

/// The executed cells of a fault space and what they produced: the
/// executed set, per-function coverage, the deduplicated outcome clusters
/// and the case, injection, crash and failure counters.
///
/// Both front ends keep it inside an
/// [`ExplorationState`](crate::ExplorationState), so both report the same
/// cells the same way.
/// The fold does not depend on order: coverage is a max and a set union,
/// counters are sums, and clusters sit in key order and name their smallest
/// member cell as the example.  Two front ends that execute the same cells
/// in any order, across any checkpoint/restore boundary, arrive at the same
/// ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLedger {
    executed: HashSet<FaultCell>,
    coverage: SymbolMap<FunctionCoverage>,
    /// A flat map in cluster key order.
    clusters: Vec<CrashCluster>,
    cases: u64,
    injections: u64,
    crashes: u64,
    failures: u64,
}

impl FaultLedger {
    /// The ledger a snapshot recorded: executed set, coverage, clusters
    /// (in the key order [`ExplorationStore::clusters`] keeps), and the case
    /// and injection counters.  Crash and failure counts are the sizes of
    /// the crash and failure clusters.
    pub(crate) fn from_store(store: &ExplorationStore) -> Self {
        let clusters = store.clusters.clone();
        let count = |crash: bool| clusters.iter().filter(|c| c.is_crash() == crash).map(|c| c.count).sum();
        Self {
            executed: store.executed.iter().copied().collect(),
            coverage: store.coverage.iter().cloned().collect(),
            crashes: count(true),
            failures: count(false),
            clusters,
            cases: store.cases_executed,
            injections: store.injections_performed,
        }
    }

    /// Writes the ledger's half of a snapshot: executed cells and coverage
    /// sorted by name, clusters in key order, and the counters.
    pub(crate) fn write_into(&self, store: &mut ExplorationStore) {
        store.executed = self.executed.iter().copied().collect();
        store.executed.sort_by_cached_key(FaultCell::sort_key);
        store.coverage = self.coverage.iter().map(|(s, c)| (*s, c.clone())).collect();
        store.coverage.sort_by_key(|(s, _)| s.as_str());
        store.clusters = self.clusters.clone();
        store.cases_executed = self.cases;
        store.injections_performed = self.injections;
        store.crash_found = self.crashes > 0;
    }

    /// Folds one executed cell in; returns whether it was new.  A cell the
    /// ledger has already seen changes nothing.  A new cell joins the
    /// executed set, the counters and its function's coverage entry, and a
    /// new non-success cell creates or bumps its cluster.
    pub(crate) fn apply(&mut self, cell: FaultCell, result: &CellResult) -> bool {
        if !self.executed.insert(cell) {
            return false;
        }
        self.cases += 1;
        self.injections += result.injections;
        let coverage = self.coverage.entry(cell.function).or_default();
        coverage.observed_calls = coverage.observed_calls.max(result.observed_calls);
        if result.injections > 0 {
            coverage.triggered.insert((cell.call_ordinal, cell.retval, cell.errno));
        }
        let Some(key) = result.cluster_key(cell) else {
            return true;
        };
        if key.outcome.is_crash() {
            self.crashes += 1;
        } else {
            self.failures += 1;
        }
        match cluster_slot(&self.clusters, &key) {
            Ok(index) => {
                let cluster = &mut self.clusters[index];
                cluster.count += 1;
                if cell.sort_key() < cluster.example.sort_key() {
                    cluster.example = cell;
                    cluster.example_case = cell.case_name();
                }
            }
            Err(index) => self.clusters.insert(
                index,
                CrashCluster {
                    function: key.function,
                    stack: key.stack.into_owned(),
                    outcome: key.outcome,
                    count: 1,
                    example: cell,
                    example_case: cell.case_name(),
                },
            ),
        }
        true
    }

    /// Folds an injection-free baseline case: counts it and raises each
    /// function's observed call depth to its call count in `calls`.
    pub(crate) fn apply_probe(&mut self, calls: &SymbolMap<u64>) {
        self.cases += 1;
        for (&symbol, &count) in calls {
            let coverage = self.coverage.entry(symbol).or_default();
            coverage.observed_calls = coverage.observed_calls.max(count);
        }
    }

    /// True once `cell` has been folded in.
    pub(crate) fn is_executed(&self, cell: &FaultCell) -> bool {
        self.executed.contains(cell)
    }

    /// Cells folded in.
    pub fn executed_len(&self) -> usize {
        self.executed.len()
    }

    /// Cells whose injection fired, over all functions.
    pub fn triggered_len(&self) -> usize {
        self.coverage.values().map(|c| c.triggered.len()).sum()
    }

    /// The coverage entry of `function`, if any case touched it.
    pub fn coverage(&self, function: Symbol) -> Option<&FunctionCoverage> {
        self.coverage.get(&function)
    }

    /// The deduplicated non-success clusters, in key order (function name,
    /// stack frame names, outcome class).
    pub fn clusters(&self) -> &[CrashCluster] {
        &self.clusters
    }

    /// Cases folded in (cells plus baseline probes).
    pub fn cases(&self) -> u64 {
        self.cases
    }

    /// Injections performed over all folded cells.
    pub fn injections(&self) -> u64 {
        self.injections
    }

    /// Folded cells whose workload died on a signal.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Folded cells whose workload exited non-zero without crashing.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(ordinal: u64, errno: i64) -> FaultCell {
        FaultCell { function: Symbol::intern("read"), call_ordinal: ordinal, retval: -1, errno: Some(errno) }
    }

    fn failed(stack: &[&str]) -> CellResult {
        CellResult {
            outcome: OutcomeClass::Failure(1),
            injections: 1,
            observed_calls: 0,
            stack: stack.iter().map(|s| Symbol::intern(s)).collect(),
        }
    }

    #[test]
    fn the_fold_does_not_depend_on_order() {
        let results = [
            (cell(3, 5), failed(&["main", "read"])),
            (cell(1, 9), failed(&["main", "read"])),
            (cell(2, 5), failed(&["init", "read"])),
            (cell(1, 5), CellResult { outcome: OutcomeClass::Success, ..failed(&[]) }),
            (cell(4, 5), CellResult { outcome: OutcomeClass::Crash(Signal::Segv), ..failed(&["main", "read"]) }),
        ];
        let mut forward = FaultLedger::default();
        for (cell, result) in &results {
            assert!(forward.apply(*cell, result));
        }
        let mut backward = FaultLedger::default();
        for (cell, result) in results.iter().rev() {
            backward.apply(*cell, result);
        }
        assert_eq!(forward, backward);

        // Clusters sit in key order and name their smallest member.
        let keys: Vec<(Vec<&str>, OutcomeClass)> = forward
            .clusters()
            .iter()
            .map(|c| (c.stack.iter().map(|s| s.as_str()).collect(), c.outcome))
            .collect();
        assert_eq!(
            keys,
            vec![
                (vec!["init", "read"], OutcomeClass::Failure(1)),
                (vec!["main", "read"], OutcomeClass::Failure(1)),
                (vec!["main", "read"], OutcomeClass::Crash(Signal::Segv)),
            ]
        );
        assert_eq!(forward.clusters()[1].count, 2);
        assert_eq!(forward.clusters()[1].example, cell(1, 9));
        assert_eq!(forward.clusters()[1].example_case, "read-c1-r-1-e9");
        assert_eq!((forward.cases(), forward.injections(), forward.crashes(), forward.failures()), (5, 5, 1, 3));
        assert_eq!(forward.triggered_len(), 5);

        // A cell already folded in changes nothing.
        assert!(!forward.apply(cell(3, 5), &failed(&["other"])));
        assert_eq!(forward, backward);
    }

    #[test]
    fn outcome_classes_render_and_parse() {
        for class in [
            OutcomeClass::Success,
            OutcomeClass::Failure(3),
            OutcomeClass::Crash(Signal::Abort),
            OutcomeClass::Crash(Signal::Segv),
        ] {
            assert_eq!(OutcomeClass::parse(&class.to_string()), Some(class));
        }
        assert_eq!(OutcomeClass::parse("melted"), None);
        for never_produced in ["exit:0", "exit:-0", "exit:+0"] {
            assert_eq!(OutcomeClass::parse(never_produced), None, "{never_produced}");
        }
        assert_eq!(OutcomeClass::of(ExitStatus::Exited(0)), OutcomeClass::Success);
        assert_eq!(OutcomeClass::of(ExitStatus::Exited(7)), OutcomeClass::Failure(7));
        assert!(OutcomeClass::of(ExitStatus::Crashed(Signal::Segv)).is_crash());
    }

    #[test]
    fn the_store_round_trip_is_lossless() {
        let mut ledger = FaultLedger::default();
        ledger.apply_probe(&[(Symbol::intern("read"), 4)].into_iter().collect());
        ledger.apply(cell(2, 5), &failed(&["main", "read"]));
        ledger.apply(cell(6, 5), &CellResult { injections: 0, observed_calls: 4, ..failed(&[]) });
        let mut store = ExplorationStore::default();
        ledger.write_into(&mut store);
        assert_eq!(store.cases_executed, 3);
        assert!(!store.crash_found);
        assert_eq!(FaultLedger::from_store(&store), ledger);
        let read = ledger.coverage(Symbol::intern("read")).unwrap();
        assert_eq!((read.observed_calls, read.triggered.len()), (4, 1));
        assert_eq!(cluster_slot(ledger.clusters(), &failed(&[]).cluster_key(cell(6, 5)).unwrap()), Ok(0));
    }
}

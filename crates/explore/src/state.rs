//! The [`ExplorationState`]: the frontier book both front ends keep.  The
//! explorer wraps it in a frontier policy and a seeded selection; a fabric
//! job wraps it in a lease book.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use lfi_intern::{Symbol, SymbolMap, SymbolSet};
use lfi_scenario::FaultCell;

use crate::delta::frontier_order;
use crate::ledger::{cluster_slot, CellResult, ClusterKey, FaultLedger};
use crate::{ExplorationDelta, ExplorationStore};

/// One pending cell of the exploration frontier, with its priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierCell {
    /// The pending fault-space cell.
    pub cell: FaultCell,
    /// Scheduling priority: higher runs earlier; ties are shuffled by the
    /// explorer's seeded RNG stream.
    pub priority: i32,
}

/// What changed since the last [`ExplorationState::take_delta`], by key.
/// A cell leaving the frontier is not marked: the delta records why it
/// left (it ran, was retired or pruned).  Taking and giving back mark
/// nothing, since a checkpoint lists a taken cell at the same priority.
#[derive(Debug, Default)]
struct Marks {
    /// Cells raised or reweighted.
    frontier: HashSet<FaultCell>,
    unreached: HashSet<FaultCell>,
    pruned_functions: SymbolSet,
    executed: Vec<FaultCell>,
    /// Functions whose coverage entry changed.
    coverage: SymbolSet,
    clusters: HashSet<ClusterKey<'static>>,
}

/// The state of one exploration of a fault space, whoever drives it:
/// pending cells, cells out on a batch or a lease, unreached cells, pruned
/// functions, the [`FaultLedger`] of executed cells, and the delta marks.
/// A taken cell is out until a fold or a retire ends it or
/// [`ExplorationState::give_back`] returns it to the front of the queue.
/// Which cells to take, and how to react to a result, is the caller's.
#[derive(Debug, Default)]
pub struct ExplorationState {
    universe: usize,
    ledger: FaultLedger,
    pending: VecDeque<FrontierCell>,
    /// Out cells, with the priority they return at.
    out: HashMap<FaultCell, i32>,
    unreached: HashSet<FaultCell>,
    pruned_functions: SymbolSet,
    marks: Marks,
}

impl ExplorationState {
    /// A fresh state over `universe` cells, `cells` pending at priority 0
    /// in the given order.
    pub fn new(cells: &[FaultCell], universe: usize) -> Self {
        let pending = cells.iter().map(|&cell| FrontierCell { cell, priority: 0 }).collect();
        Self { universe, pending, ..Self::default() }
    }

    /// The state a snapshot recorded, its frontier pending in stored order
    /// (less any cell the snapshot also lists as executed or unreached).
    pub fn from_store(store: &ExplorationStore) -> Self {
        let mut state = Self {
            universe: store.universe,
            ledger: FaultLedger::from_store(store),
            unreached: store.unreached.iter().copied().collect(),
            pruned_functions: store.pruned_functions.iter().copied().collect(),
            ..Self::default()
        };
        let (ledger, unreached) = (&state.ledger, &state.unreached);
        let pending = store
            .frontier
            .iter()
            .filter(|f| !ledger.is_executed(&f.cell) && !unreached.contains(&f.cell));
        state.pending = pending.copied().collect();
        state
    }

    /// Writes the state's half of a snapshot, the frontier (pending and out
    /// cells) in the scheduling order a delta's fold merges in; the front
    /// end fills in its configuration and counters.
    pub fn write_into(&self, store: &mut ExplorationStore) {
        store.frontier = self.frontier().collect();
        store.frontier.sort_by(frontier_order);
        store.unreached = sorted(self.unreached.iter().copied(), FaultCell::sort_key);
        store.pruned_functions = sorted(self.pruned_functions.iter().copied(), |s| s.as_str());
        store.universe = self.universe;
        self.ledger.write_into(store);
    }

    /// Drains what changed since the last `take_delta` into the state's half
    /// of an [`ExplorationDelta`].  Applied to the snapshot written at that
    /// point, it reproduces the current one byte for byte.  Its size is
    /// proportional to what the span touched.
    pub fn take_delta(&mut self) -> ExplorationDelta {
        // The fold drops a cell from the frontier when the delta names it
        // executed or unreached, which holds because no frontier cell is.
        debug_assert!(self
            .frontier()
            .all(|f| !self.ledger.is_executed(&f.cell) && !self.unreached.contains(&f.cell)));
        let marks = std::mem::take(&mut self.marks);
        let ledger = &self.ledger;
        let upserts = self.frontier().filter(|f| marks.frontier.contains(&f.cell));
        let coverage = marks.coverage.into_iter().filter_map(|s| ledger.coverage(s).map(|c| (s, c.clone())));
        let touched: BTreeSet<usize> = marks
            .clusters
            .iter()
            .filter_map(|key| cluster_slot(ledger.clusters(), key).ok())
            .collect();
        ExplorationDelta {
            crash_found: ledger.crashes() > 0,
            cases_executed: ledger.cases(),
            injections_performed: ledger.injections(),
            frontier_upsert: sorted(upserts, |f| f.cell.sort_key()),
            executed: sorted(marks.executed, FaultCell::sort_key),
            unreached: sorted(marks.unreached, FaultCell::sort_key),
            pruned_functions: sorted(marks.pruned_functions, |s| s.as_str()),
            coverage: sorted(coverage, |(s, _)| s.as_str()),
            clusters: touched.into_iter().map(|index| ledger.clusters()[index].clone()).collect(),
            ..ExplorationDelta::default()
        }
    }

    /// Pending and out cells: what a checkpoint lists as its frontier.
    fn frontier(&self) -> impl Iterator<Item = FrontierCell> + '_ {
        let out = self.out.iter().map(|(&cell, &priority)| FrontierCell { cell, priority });
        self.pending.iter().copied().chain(out)
    }

    /// Cells enumerated for the exploration.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Executed cells, coverage, clusters and counters.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }

    /// The pending cells, in queue order.
    pub fn pending(&self) -> impl ExactSizeIterator<Item = &FrontierCell> {
        self.pending.iter()
    }

    /// The pending cells, for a selection to reorder (no checkpoint changes).
    pub(crate) fn pending_mut(&mut self) -> &mut [FrontierCell] {
        self.pending.make_contiguous()
    }

    /// Cells retired as unreached.
    pub fn unreached_len(&self) -> usize {
        self.unreached.len()
    }

    /// Functions pruned wholesale.
    pub(crate) fn pruned_len(&self) -> usize {
        self.pruned_functions.len()
    }

    /// Takes up to `n` cells off the front of the pending queue and puts
    /// them out.
    pub fn take(&mut self, n: usize) -> Vec<FaultCell> {
        let taken = self.pending.drain(..n.min(self.pending.len()));
        taken
            .map(|f| {
                self.out.insert(f.cell, f.priority);
                f.cell
            })
            .collect()
    }

    /// Folds an executed cell's result into the ledger; the cell is no
    /// longer out.
    pub fn fold(&mut self, cell: FaultCell, result: &CellResult) {
        self.out.remove(&cell);
        if self.ledger.apply(cell, result) {
            self.marks.executed.push(cell);
            self.marks.coverage.insert(cell.function);
            self.marks.clusters.extend(result.cluster_key(cell).map(ClusterKey::into_owned));
        }
    }

    /// Folds an injection-free baseline case that made `calls` calls per
    /// function (see [`FaultLedger::apply_probe`]).
    pub(crate) fn fold_probe(&mut self, calls: &SymbolMap<u64>) {
        self.ledger.apply_probe(calls);
        self.marks.coverage.extend(calls.keys().copied());
    }

    /// Returns out cells to the front of the pending queue in the given
    /// order, at their priority; ignores cells not out.  Returns how many.
    pub fn give_back(&mut self, cells: &[FaultCell]) -> usize {
        let mut back = 0;
        for &cell in cells.iter().rev() {
            if let Some(priority) = self.out.remove(&cell) {
                self.pending.push_front(FrontierCell { cell, priority });
                back += 1;
            }
        }
        back
    }

    /// Retires an out or executed cell to unreached: it never runs (again).
    pub fn retire(&mut self, cell: FaultCell) {
        self.out.remove(&cell);
        if self.unreached.insert(cell) {
            self.marks.unreached.insert(cell);
        }
    }

    /// Retires every pending cell `dead` selects to unreached and returns
    /// them, in queue order.
    pub fn retire_pending(&mut self, mut dead: impl FnMut(&FaultCell) -> bool) -> Vec<FaultCell> {
        let mut retired = Vec::new();
        self.pending.retain(|f| {
            let live = !dead(&f.cell);
            if !live {
                retired.push(f.cell);
            }
            live
        });
        self.unreached.extend(&retired);
        self.marks.unreached.extend(&retired);
        retired
    }

    /// Drops every pending cell of a function `reached` rejects, recording
    /// the function as pruned.
    pub(crate) fn prune(&mut self, mut reached: impl FnMut(Symbol) -> bool) {
        let (pruned, marks) = (&mut self.pruned_functions, &mut self.marks);
        // A function's cells sit next to each other on the frontier, so
        // each pruned function is recorded once, not per cell.
        let mut last_pruned = None;
        self.pending.retain(|f| {
            let function = f.cell.function;
            if last_pruned == Some(function) {
                return false;
            }
            let keep = reached(function);
            if !keep {
                pruned.insert(function);
                marks.pruned_functions.insert(function);
                last_pruned = Some(function);
            }
            keep
        });
    }

    /// Puts a cell on the frontier at (at least) `priority`, unless it
    /// already ran or was retired.  A cell already pending or out keeps its
    /// place and takes the higher of the two priorities.
    pub(crate) fn raise(&mut self, cell: FaultCell, priority: i32) {
        if self.ledger.is_executed(&cell) || self.unreached.contains(&cell) {
            return;
        }
        self.marks.frontier.insert(cell);
        if let Some(out) = self.out.get_mut(&cell) {
            *out = (*out).max(priority);
        } else if let Some(existing) = self.pending.iter_mut().find(|f| f.cell == cell) {
            existing.priority = existing.priority.max(priority);
        } else {
            self.pending.push_back(FrontierCell { cell, priority });
        }
    }

    /// Sets the priority of every pending cell `select` picks to `weigh` of
    /// its current one.
    pub(crate) fn reweight(&mut self, mut select: impl FnMut(&FaultCell) -> bool, weigh: impl Fn(i32) -> i32) {
        for f in self.pending.iter_mut().filter(|f| select(&f.cell)) {
            f.priority = weigh(f.priority);
            self.marks.frontier.insert(f.cell);
        }
    }
}

/// `items` in `key` order.
fn sorted<T, K: Ord>(items: impl IntoIterator<Item = T>, key: impl FnMut(&T) -> K) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_by_cached_key(key);
    items
}

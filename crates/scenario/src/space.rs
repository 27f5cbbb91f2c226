//! The [`FaultSpace`] of a plan: its deterministic cells, enumerated once in
//! process-independent order and shared by every front end that walks them.

use std::sync::Arc;

use crate::{FaultCell, Plan};

/// The deterministic fault cells of a [`Plan`], sorted by
/// [`FaultCell::sort_key`] and deduplicated.
///
/// [`FaultSpace::from_plan`] is the one place that turns a plan into the
/// cell universe an explorer or a fabric job works through: it compiles the
/// plan, enumerates [`CompiledPlan::cells`](crate::CompiledPlan::cells),
/// sorts them by function *name* (so the order is the same in every
/// process) and drops duplicates.  The cells sit behind an [`Arc`], so a
/// space built once can be cloned into any number of explorers for free.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpace {
    cells: Arc<[FaultCell]>,
}

impl FaultSpace {
    /// Enumerates the plan's deterministic cells, sorted and deduplicated.
    pub fn from_plan(plan: &Plan) -> Self {
        let mut cells = plan.compile().cells();
        // Each key resolves a name through the global symbol table: compute
        // it once per cell, not twice per comparison.
        cells.sort_by_cached_key(FaultCell::sort_key);
        cells.dedup();
        Self { cells: cells.into() }
    }

    /// The cells, in [`FaultCell::sort_key`] order.
    pub fn cells(&self) -> &[FaultCell] {
        &self.cells
    }

    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the plan has no deterministic cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultAction, PlanEntry, Trigger};

    fn entry(function: &str, call: u64, retval: i64) -> PlanEntry {
        PlanEntry {
            function: function.into(),
            trigger: Trigger::on_call(call),
            action: FaultAction::return_value(retval),
        }
    }

    #[test]
    fn cells_are_sorted_by_name_and_deduplicated() {
        let plan = Plan::new()
            .entry(entry("write", 1, -1))
            .entry(entry("read", 2, -1))
            .entry(entry("read", 1, -1))
            .entry(entry("write", 1, -1))
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::with_probability(0.5),
                action: FaultAction::return_value(-1),
            });
        let space = FaultSpace::from_plan(&plan);
        let names: Vec<String> = space.cells().iter().map(FaultCell::case_name).collect();
        assert_eq!(names, ["read-c1-r-1", "read-c2-r-1", "write-c1-r-1"]);
        assert_eq!(space.len(), 3);
        assert!(!space.is_empty());
        assert!(FaultSpace::from_plan(&Plan::new()).is_empty());

        // A clone shares the cells.
        let shared = space.clone();
        assert!(std::ptr::eq(shared.cells(), space.cells()));
        assert_eq!(shared, space);
    }
}

//! The compiled, symbol-resolved form of a [`Plan`] — the resolve-once half
//! of the interception fast path.
//!
//! A [`Plan`] is the XML-facing data model: function names, module names and
//! stack frames are strings, because that is what the §4 scenario language
//! and the fault profiles speak.  [`Plan::compile`] resolves every one of
//! those names to an interned [`Symbol`] exactly once and groups the entries
//! by intercepted function, producing the [`CompiledPlan`] the controller's
//! per-call trigger evaluation runs against.  After compilation, no per-call
//! code touches a string: stack-trace frames compare as ids, TLS/global
//! side-effect modules are ids, and per-function state lives in dense
//! per-function slots.

use lfi_intern::Symbol;
use lfi_profile::{SideEffect, SideEffectKind};

use crate::{ArgModification, FaultAction, Plan, PlanEntry, Trigger};

/// One cell of the fault space an exploration engine walks: inject `retval`
/// (and optionally `errno`) on the `call_ordinal`-th call to `function`.
///
/// A [`CompiledPlan`] is a *set* of such cells plus triggers that do not
/// denote a unique cell (probabilistic and random-choice entries);
/// [`CompiledPlan::cells`] enumerates the deterministic subset, which is what
/// coverage accounting and adaptive exploration (`lfi-explore`) operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultCell {
    /// The intercepted function.
    pub function: Symbol,
    /// Which call to the function the fault fires on (1-based).
    pub call_ordinal: u64,
    /// The injected return value.
    pub retval: i64,
    /// The injected errno, when the cell carries one (taken from the entry's
    /// errno or its first TLS side effect — the §3.2 errno channel).
    pub errno: Option<i64>,
}

impl FaultCell {
    /// A process-independent ordering key: cells are compared by function
    /// *name* (not symbol id, which depends on interning order), then
    /// ordinal, retval and errno — so any sequence ordered by this key is
    /// reproducible across processes and store reloads.
    pub fn sort_key(&self) -> (&'static str, u64, i64, i64) {
        (self.function.as_str(), self.call_ordinal, self.retval, self.errno.unwrap_or(i64::MIN))
    }

    /// The cell's test-case name, e.g. `read-c2-r-1-e5` (no `-e` part when
    /// the cell carries no errno).  It depends on the cell alone, so the
    /// explorer and the fabric name a cell's case the same, whatever batch,
    /// lease or restore it ran in.
    pub fn case_name(&self) -> String {
        match self.errno {
            Some(errno) => format!("{}-c{}-r{}-e{errno}", self.function.as_str(), self.call_ordinal, self.retval),
            None => format!("{}-c{}-r{}", self.function.as_str(), self.call_ordinal, self.retval),
        }
    }

    /// Materializes the cell as a single-fault plan entry (a call-count
    /// trigger with the cell's return value and errno).
    pub fn plan_entry(&self) -> PlanEntry {
        let mut action = FaultAction::return_value(self.retval);
        if let Some(errno) = self.errno {
            action = action.with_errno(errno);
        }
        PlanEntry { function: self.function.as_str().to_owned(), trigger: Trigger::on_call(self.call_ordinal), action }
    }
}

/// A side effect with its module name resolved to a [`Symbol`], applicable
/// per call without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledSideEffect {
    /// Channel used to expose the error detail.
    pub kind: SideEffectKind,
    /// Interned module whose data image holds the location.
    pub module: Symbol,
    /// Offset within the module data image (argument index for
    /// [`SideEffectKind::OutputArg`]).
    pub offset: u32,
    /// Value written into the location.
    pub value: i64,
}

impl CompiledSideEffect {
    fn compile<'a>(effect: &'a SideEffect, modules: &mut LastSymbol<'a>) -> Self {
        Self { kind: effect.kind, module: modules.intern(&effect.module), offset: effect.offset, value: effect.value }
    }

    /// Re-materializes the string-keyed form (report/replay path only).
    pub fn to_side_effect(self) -> SideEffect {
        SideEffect { kind: self.kind, module: self.module.as_str().to_owned(), offset: self.offset, value: self.value }
    }
}

/// One member of a compiled random-choice pool (an
/// [`ErrorReturn`](lfi_profile::ErrorReturn) with resolved side effects).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledChoice {
    /// The injected return value.
    pub retval: i64,
    /// Side effects accompanying this choice.
    pub side_effects: Vec<CompiledSideEffect>,
}

/// One plan entry compiled against the symbol table: triggers and fault with
/// every name resolved, plus the index of the source entry in the original
/// [`Plan`] (so reports can refer back to the authored scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEntry {
    /// Index of this entry in [`Plan::entries`].
    pub plan_index: usize,
    /// Fire on the n-th call (1-based), if set.
    pub inject_at_call: Option<u64>,
    /// Fire with this probability on each call, if set.
    pub probability: Option<f64>,
    /// Stack-trace frames to match, innermost first, as interned symbols.
    pub stack_trace: Vec<Symbol>,
    /// Return value to inject.
    pub retval: Option<i64>,
    /// errno to set alongside.
    pub errno: Option<i64>,
    /// Side effects with resolved module symbols.
    pub side_effects: Vec<CompiledSideEffect>,
    /// Whether the original function is still invoked.
    pub call_original: bool,
    /// Argument rewrites applied before a passed-through call.
    pub arg_modifications: Vec<ArgModification>,
    /// Random-choice pool (one picked per firing when non-empty).
    pub random_choices: Vec<CompiledChoice>,
}

impl CompiledEntry {
    /// The side effects a firing of this entry applies: the chosen pool
    /// member's when a random choice was drawn, the entry's own otherwise.
    /// Shared by live injection and log materialization so the two can
    /// never diverge.
    pub fn side_effects_for(&self, choice: Option<usize>) -> &[CompiledSideEffect] {
        match choice {
            Some(index) => &self.random_choices[index].side_effects,
            None => &self.side_effects,
        }
    }
}

/// All entries of one intercepted function, grouped at compile time so the
/// per-call path evaluates only the triggers relevant to that function
/// (§6.4: overhead grows with the triggers *per function*, not per plan).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// The intercepted function.
    pub symbol: Symbol,
    /// Whether any entry carries a stack-trace trigger; the (comparatively
    /// expensive) stack inspection is only performed when true.
    pub stack_sensitive: bool,
    /// The entries, in plan order.
    pub entries: Vec<CompiledEntry>,
}

/// A [`Plan`] with every name resolved to a [`Symbol`] and entries grouped
/// by intercepted function — see the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledPlan {
    /// Seed for random triggers/choices, copied from the plan.
    pub seed: Option<u64>,
    /// One slot per intercepted function, in first-appearance order.
    pub functions: Vec<CompiledFunction>,
}

impl CompiledPlan {
    /// The compiled slot for `symbol`, if the plan intercepts it.
    pub fn function(&self, symbol: Symbol) -> Option<&CompiledFunction> {
        self.functions.iter().find(|f| f.symbol == symbol)
    }

    /// Enumerates the deterministic (function, error, nth-call) cells of this
    /// plan — every entry with a call-count trigger and a fixed return value.
    /// Probabilistic triggers and random-choice pools do not denote a unique
    /// cell and are skipped; an entry's errno falls back to its first TLS
    /// side-effect value (the errno channel of §3.2).
    ///
    /// Cells come out in plan order and may repeat; [`FaultSpace`] sorts and
    /// deduplicates them into the universe `lfi-explore` and `lfi-fabric`
    /// walk.
    ///
    /// [`FaultSpace`]: crate::FaultSpace
    pub fn cells(&self) -> Vec<FaultCell> {
        let mut cells = Vec::new();
        for function in &self.functions {
            for entry in &function.entries {
                let Some(call_ordinal) = entry.inject_at_call else {
                    continue;
                };
                if entry.probability.is_some() || !entry.random_choices.is_empty() {
                    continue;
                }
                let Some(retval) = entry.retval else { continue };
                let errno = entry
                    .errno
                    .or_else(|| entry.side_effects.iter().find(|e| e.kind == SideEffectKind::Tls).map(|e| e.value));
                cells.push(FaultCell { function: function.symbol, call_ordinal, retval, errno });
            }
        }
        cells
    }
}

/// The most recently interned name and its symbol.  Generators emit each
/// function's entries back to back and name one module in every side
/// effect, so remembering the last resolution skips most symbol-table
/// lookups while compiling a large plan.
#[derive(Default)]
struct LastSymbol<'a> {
    last: Option<(&'a str, Symbol)>,
}

impl<'a> LastSymbol<'a> {
    fn intern(&mut self, name: &'a str) -> Symbol {
        match self.last {
            Some((last, symbol)) if last == name => symbol,
            _ => {
                let symbol = Symbol::intern(name);
                self.last = Some((name, symbol));
                symbol
            }
        }
    }
}

impl Plan {
    /// Resolves every function name, stack frame and side-effect module in
    /// this plan to interned [`Symbol`]s, grouping entries per function —
    /// the setup-time half of the resolve-once contract (see
    /// [`lfi_intern::Symbol`]).  Interceptor synthesis calls this for you;
    /// call it directly when driving trigger evaluation by hand.
    ///
    /// Compilation *interns* — every name in the plan joins the process-wide
    /// table for the rest of the process (that is what lets the controller
    /// synthesize stubs even for functions no library defines).  Plans are
    /// setup artifacts with a bounded vocabulary, so this is the intended
    /// cost; a service compiling unbounded user-supplied names should
    /// validate them against its fault profiles first.
    pub fn compile(&self) -> CompiledPlan {
        let mut functions: Vec<CompiledFunction> = Vec::new();
        let (mut names, mut modules) = (LastSymbol::default(), LastSymbol::default());
        for (plan_index, entry) in self.entries.iter().enumerate() {
            let symbol = names.intern(&entry.function);
            let compiled = CompiledEntry {
                plan_index,
                inject_at_call: entry.trigger.inject_at_call,
                probability: entry.trigger.probability,
                stack_trace: entry.trigger.stack_trace.iter().map(|frame| Symbol::intern(frame)).collect(),
                retval: entry.action.retval,
                errno: entry.action.errno,
                side_effects: entry
                    .action
                    .side_effects
                    .iter()
                    .map(|effect| CompiledSideEffect::compile(effect, &mut modules))
                    .collect(),
                call_original: entry.action.call_original,
                arg_modifications: entry.action.arg_modifications.clone(),
                random_choices: entry
                    .action
                    .random_choices
                    .iter()
                    .map(|choice| CompiledChoice {
                        retval: choice.retval,
                        side_effects: choice
                            .side_effects
                            .iter()
                            .map(|effect| CompiledSideEffect::compile(effect, &mut modules))
                            .collect(),
                    })
                    .collect(),
            };
            let stack_sensitive = !compiled.stack_trace.is_empty();
            // Consecutive entries of one function hit the last slot first.
            match functions.iter_mut().rev().find(|f| f.symbol == symbol) {
                Some(slot) => {
                    slot.stack_sensitive |= stack_sensitive;
                    slot.entries.push(compiled);
                }
                None => functions.push(CompiledFunction { symbol, stack_sensitive, entries: vec![compiled] }),
            }
        }
        CompiledPlan { seed: self.seed, functions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgOp, FaultAction, PlanEntry, Trigger};
    use lfi_profile::ErrorReturn;

    #[test]
    fn compile_groups_entries_and_resolves_names() {
        let plan = Plan::new()
            .with_seed(9)
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(3),
                action: FaultAction::return_value(-1).with_errno(9),
            })
            .entry(PlanEntry {
                function: "write".into(),
                trigger: Trigger::with_probability(0.5).frame("flush"),
                action: FaultAction {
                    side_effects: vec![SideEffect::tls("libc.so.6", 0x10, 4)],
                    random_choices: vec![ErrorReturn::bare(-2)],
                    ..FaultAction::default()
                },
            })
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(5),
                action: FaultAction::default().passthrough().modify_arg(2, ArgOp::Sub, 10),
            });
        let compiled = plan.compile();
        assert_eq!(compiled.seed, Some(9));
        assert_eq!(compiled.functions.len(), 2);

        let read = compiled.function(Symbol::intern("read")).unwrap();
        assert_eq!(read.entries.len(), 2);
        assert!(!read.stack_sensitive);
        assert_eq!(read.entries[0].plan_index, 0);
        assert_eq!(read.entries[1].plan_index, 2);
        assert_eq!(read.entries[0].inject_at_call, Some(3));
        assert!(read.entries[1].call_original);
        assert_eq!(read.entries[1].arg_modifications.len(), 1);

        let write = compiled.function(Symbol::intern("write")).unwrap();
        assert!(write.stack_sensitive);
        assert_eq!(write.entries[0].stack_trace, vec![Symbol::intern("flush")]);
        assert_eq!(write.entries[0].side_effects[0].module, Symbol::intern("libc.so.6"));
        assert_eq!(write.entries[0].random_choices[0].retval, -2);
        // The compiled side effect round-trips to its string-keyed form.
        assert_eq!(write.entries[0].side_effects[0].to_side_effect(), SideEffect::tls("libc.so.6", 0x10, 4));

        assert!(compiled.function(Symbol::intern("close_not_in_plan")).is_none());
        assert_eq!(CompiledPlan::default().functions.len(), 0);
    }

    #[test]
    fn cell_enumeration_covers_deterministic_entries_only() {
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1).with_errno(9),
            })
            .entry(PlanEntry {
                // errno via a TLS side effect instead of the errno attribute.
                function: "close".into(),
                trigger: Trigger::on_call(2),
                action: FaultAction {
                    retval: Some(-1),
                    side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, 5)],
                    ..FaultAction::default()
                },
            })
            .entry(PlanEntry {
                // Probabilistic: not a unique cell.
                function: "write".into(),
                trigger: Trigger::with_probability(0.5),
                action: FaultAction::return_value(-1),
            })
            .entry(PlanEntry {
                // Random-choice pool: not a unique cell.
                function: "send".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction { random_choices: vec![ErrorReturn::bare(-2)], ..FaultAction::default() },
            })
            .entry(PlanEntry {
                // No return value: pure argument modification, not a cell.
                function: "recv".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::default().passthrough().modify_arg(1, ArgOp::Sub, 1),
            });
        let cells = plan.compile().cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0],
            FaultCell { function: Symbol::intern("read"), call_ordinal: 1, retval: -1, errno: Some(9) }
        );
        assert_eq!(
            cells[1],
            FaultCell { function: Symbol::intern("close"), call_ordinal: 2, retval: -1, errno: Some(5) }
        );

        // The sort key orders by name, not interning order, and a cell
        // round-trips into a single-fault plan entry.
        assert!(cells[1].sort_key() < cells[0].sort_key());
        let entry = cells[0].plan_entry();
        assert_eq!(entry.function, "read");
        assert_eq!(entry.trigger.inject_at_call, Some(1));
        assert_eq!(entry.action.retval, Some(-1));
        assert_eq!(entry.action.errno, Some(9));
        // A cell without errno leaves the action's errno unset.
        let bare = FaultCell { function: Symbol::intern("read"), call_ordinal: 3, retval: 0, errno: None };
        assert_eq!(bare.plan_entry().action.errno, None);
        assert_eq!(bare.sort_key().3, i64::MIN);
        // Case names carry the errno only when the cell has one.
        assert_eq!(cells[1].case_name(), "close-c2-r-1-e5");
        assert_eq!(bare.case_name(), "read-c3-r0");
    }
}

//! The [`RuleEngine`]: folds the `CaseEvent` stream into
//! [`CampaignState`], evaluates [`Rule`]s and [`StateMachine`]s in the
//! pinned deterministic order, and accumulates [`Decision`]s plus metrics.
//!
//! # Evaluation contract (pinned)
//!
//! Per folded event, in this exact order:
//!
//! 1. the event is folded into [`CampaignState`];
//! 2. rules evaluate in **declaration order** — a `Global` rule once, a
//!    `PerSymbol` rule once per tracked symbol in **name order** — honoring
//!    each rule's `once` and `cooldown_events` refire policy;
//! 3. state machines evaluate in declaration order, instances per symbol in
//!    name order; per instance at most **one** transition (first guard in
//!    declaration order that holds) fires.
//!
//! Every firing appends one [`Decision`] carrying the engine-assigned
//! decision sequence and the triggering event sequence.  Decisions are
//! therefore delivered **at most once per event seq** per (rule, symbol) /
//! (machine, symbol) pair, and a fixed-seed serial campaign replays to a
//! byte-identical [`RuleEngine::decision_log`].  A `Cancel` decision
//! freezes the engine: every later event is ignored, so racy post-cancel
//! events can never extend the log.

use std::collections::BTreeSet;
use std::fmt;

use lfi_controller::{CaseEvent, TestOutcome};
use lfi_explore::CellResult;
use lfi_intern::Symbol;
use lfi_scenario::FaultCell;

use crate::condition::{change, Condition, EvalContext, MachineContext};
use crate::machine::StateMachine;
use crate::metrics::MetricsSink;
use crate::state::CampaignState;

/// A control decision a fired rule or machine transition emits.
///
/// Actions are *declarative*: the engine records them (and applies the ones
/// it owns — mute bookkeeping, metrics, pause/cancel latches) while drivers
/// like [`ClosedLoop`](crate::ClosedLoop) translate the frontier-shaping
/// ones onto their control handles.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Expand the crash-adjacent neighborhood of the symbol's last crash
    /// cell onto the frontier: adjacent call ordinals plus sibling
    /// (retval, errno) pairs from the profile — the explorer's built-in
    /// heuristic, re-expressed as a rule action.
    EscalateSiblings,
    /// Stop generating and executing cases that inject into the symbol.
    Mute,
    /// Lift a [`Action::Mute`], making the symbol's pending frontier cells
    /// selectable again.
    Unmute,
    /// Shift the priority of the symbol's pending frontier cells by the
    /// given delta.
    Reweight(i32),
    /// Pause the campaign (fabric jobs park; a [`ClosedLoop`](crate::ClosedLoop)
    /// cancels the rest of its batch and runs no further batch).
    Pause,
    /// Cancel the campaign via its `CancelHandle`/job control.
    Cancel,
    /// Record a metric point (a counter increment in the engine's sink).
    EmitMetric {
        /// Metric name.
        name: String,
        /// Increment.
        value: f64,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::EscalateSiblings => f.write_str("escalate-siblings"),
            Action::Mute => f.write_str("mute"),
            Action::Unmute => f.write_str("unmute"),
            Action::Reweight(delta) => write!(f, "reweight({delta:+})"),
            Action::Pause => f.write_str("pause"),
            Action::Cancel => f.write_str("cancel"),
            Action::EmitMetric { name, value } => write!(f, "emit({name}={value})"),
        }
    }
}

/// Whether a rule evaluates once per event or once per tracked symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Evaluate once per event against campaign totals.
    Global,
    /// Evaluate per tracked symbol (name order) against its
    /// [`SymbolStats`](crate::SymbolStats) rollup.
    PerSymbol,
}

/// A named, guarded action list.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (decision-log `src=` and metric label).
    pub name: String,
    /// Evaluation scope.
    pub scope: RuleScope,
    /// Guard condition.
    pub when: Condition,
    /// Actions emitted when the guard holds.
    pub actions: Vec<Action>,
    /// Fire at most once (per symbol, for `PerSymbol` rules).
    pub once: bool,
    /// Minimum events between firings (ignored when `once`); `0` allows
    /// refiring on every event while the guard holds.
    pub cooldown_events: u64,
}

impl Rule {
    /// A global rule firing whenever `when` holds (no refire limit).
    pub fn global(name: impl Into<String>, when: Condition, actions: impl IntoIterator<Item = Action>) -> Self {
        Rule {
            name: name.into(),
            scope: RuleScope::Global,
            when,
            actions: actions.into_iter().collect(),
            once: false,
            cooldown_events: 0,
        }
    }

    /// A per-symbol rule firing whenever `when` holds for a symbol.
    pub fn per_symbol(name: impl Into<String>, when: Condition, actions: impl IntoIterator<Item = Action>) -> Self {
        Rule { scope: RuleScope::PerSymbol, ..Rule::global(name, when, actions) }
    }

    /// Limits the rule to a single firing (per symbol for `PerSymbol`
    /// rules).
    pub fn once(mut self) -> Self {
        self.once = true;
        self
    }

    /// Requires at least `events` folded events between firings.
    pub fn cooldown(mut self, events: u64) -> Self {
        self.cooldown_events = events;
        self
    }
}

/// The rules and machines an engine evaluates, in declaration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Rules, evaluated first.
    pub rules: Vec<Rule>,
    /// State machines, evaluated after the rules.
    pub machines: Vec<StateMachine>,
}

impl RuleSet {
    /// An empty rule set (a passive collector: state and metrics fold, no
    /// decisions ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a state machine (builder style).
    pub fn machine(mut self, machine: impl Into<StateMachine>) -> Self {
        self.machines.push(machine.into());
        self
    }

    /// True when no rule or machine is registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.machines.is_empty()
    }
}

/// One recorded firing: which source fired on which event, for which
/// symbol, with which action.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Engine-assigned decision sequence (0-based, dense).
    pub seq: u64,
    /// The event sequence ([`CampaignState::events_seen`] after the fold)
    /// that triggered the firing.
    pub event_seq: u64,
    /// `rule/<name>`, or `machine/<name>:<from>-><to>`.
    pub source: String,
    /// The symbol in scope (`None` for global rules).
    pub symbol: Option<Symbol>,
    /// The symbol's last crash cell at firing time, for frontier-shaping
    /// actions.
    pub cell: Option<FaultCell>,
    /// The action.
    pub action: Action,
}

impl fmt::Display for Decision {
    /// The pinned decision-log line format:
    ///
    /// `#<seq> evt=<event_seq> src=<source> sym=<name|-> action=<action>`
    /// `[ cell=<fn>@<ordinal> ret=<retval> errno=<errno|->]`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:04} evt={} src={} sym={} action={}",
            self.seq,
            self.event_seq,
            self.source,
            self.symbol.map_or("-", |s| s.as_str()),
            self.action,
        )?;
        if let Some(cell) = &self.cell {
            write!(f, " cell={}@{} ret={}", cell.function.as_str(), cell.call_ordinal, cell.retval)?;
            match cell.errno {
                Some(errno) => write!(f, " errno={errno}")?,
                None => f.write_str(" errno=-")?,
            }
        }
        Ok(())
    }
}

/// Per-(machine, symbol) instance bookkeeping.  `state` indexes the
/// compiled machine's state table.
#[derive(Debug, Clone)]
struct MachineInstance {
    state: usize,
    entered_at_event: u64,
    crashes_at_entry: u64,
}

/// Per-(rule, symbol) refire/verdict bookkeeping.
#[derive(Debug, Clone, Default)]
struct SymbolFired {
    /// Last firing event, for `once`/`cooldown_events`.
    last: Option<u64>,
    /// The last evaluated verdict was false (or the rule is `once`-spent):
    /// re-evaluation can be skipped until a fold the guard depends on.
    known_false: bool,
}

/// Per-rule refire bookkeeping: last firing event and verdict cache per
/// scope key.
#[derive(Debug, Clone, Default)]
struct Fired {
    global: Option<u64>,
    /// Global-scope verdict cache (see [`SymbolFired::known_false`]).
    global_false: bool,
    /// Per-symbol slots in **name order** — parallel to
    /// [`CampaignState::symbols`], so the sweep is a positional zip with no
    /// tree lookups.  Symbol sets only grow, so a position mismatch means a
    /// new symbol was inserted exactly there.
    per_symbol: Vec<(Symbol, SymbolFired)>,
    /// Entries *not* known-false — while zero (and no new symbols exist)
    /// the whole per-symbol sweep can be skipped on off-dependency folds.
    truthy: usize,
}

/// The engine-side lowering of a [`StateMachine`]: state names interned to
/// dense indices, transitions bucketed by source state, and per-state
/// change masks for the skip-unchanged-guards fast path.
#[derive(Debug, Clone)]
struct CompiledMachine {
    /// Per state: `(transition index, target state index)` in declaration
    /// order.
    by_state: Vec<Vec<(usize, usize)>>,
    /// Per state: union [`Condition::change_mask`] of its out-guards.
    masks: Vec<u16>,
    /// Instances currently sitting in each state.
    counts: Vec<usize>,
    /// Instances that transitioned in the last sweep.  Their new state's
    /// out-guards have not been evaluated yet, and may already hold with no
    /// further change bit ever reported (an `Always` guard, or a threshold
    /// the entering event already met), so a non-zero count forces the
    /// next sweep regardless of masks.
    fresh: usize,
}

impl CompiledMachine {
    fn build(machine: &StateMachine) -> Self {
        let mut names = vec![machine.initial.clone()];
        let index_of = |names: &mut Vec<String>, name: &str| match names.iter().position(|n| n == name) {
            Some(index) => index,
            None => {
                names.push(name.to_owned());
                names.len() - 1
            }
        };
        let mut edges = Vec::with_capacity(machine.transitions.len());
        for transition in &machine.transitions {
            let from = index_of(&mut names, &transition.from);
            let to = index_of(&mut names, &transition.to);
            edges.push((from, to));
        }
        let mut by_state = vec![Vec::new(); names.len()];
        let mut masks = vec![0u16; names.len()];
        for (index, (from, to)) in edges.into_iter().enumerate() {
            by_state[from].push((index, to));
            masks[from] |= machine.transitions[index].when.change_mask();
        }
        let counts = vec![0; names.len()];
        CompiledMachine { by_state, masks, counts, fresh: 0 }
    }
}

/// A firing recorded during the read-only evaluation sweep, emitted (in
/// sweep order) once the sweep releases its borrows.
#[derive(Debug, Clone)]
enum Firing {
    Rule {
        rule_index: usize,
        symbol: Option<Symbol>,
    },
    Machine {
        machine_index: usize,
        transition_index: usize,
        symbol: Symbol,
    },
}

/// The cell a finished case ran: the one its name renders
/// ([`FaultCell::parse`]), else the coordinates of its first injection,
/// else `None`.
pub(crate) fn planned_cell(outcome: &TestOutcome) -> Option<FaultCell> {
    FaultCell::parse(&outcome.name).or_else(|| {
        outcome.log.injections.first().map(|record| FaultCell {
            function: record.function,
            call_ordinal: record.call_number,
            retval: record.retval.unwrap_or(0),
            errno: record.errno,
        })
    })
}

/// True when the action list contains [`Action::Cancel`] — the sweep stops
/// evaluating at the same point the emitted Cancel will freeze the engine.
fn cancels(actions: &[Action]) -> bool {
    actions.iter().any(|action| matches!(action, Action::Cancel))
}

/// The closed-loop engine.  Feed it events ([`RuleEngine::observe`] or the
/// per-kind methods); read back decisions, the decision log, the rolling
/// state and the metrics sink.
#[derive(Debug, Clone)]
pub struct RuleEngine {
    set: RuleSet,
    state: CampaignState,
    fired: Vec<Fired>,
    /// Per-rule [`Condition::change_mask`], parallel to `set.rules`.
    rule_masks: Vec<u16>,
    /// Compiled machines, parallel to `set.machines`.
    compiled: Vec<CompiledMachine>,
    /// Per machine: `(symbol, instance)` slots in name order (see
    /// [`Fired::per_symbol`]).
    instances: Vec<Vec<(Symbol, MachineInstance)>>,
    /// Union of the [`change`](crate::state::change) bits that could flip
    /// any guard's verdict given the current verdict caches and machine
    /// occupancy — while a fold's reported bits miss this mask (and no new
    /// symbol appeared) the whole evaluation pass is skipped with a single
    /// branch.
    wake: u16,
    /// The symbol count `wake` was computed against.
    wake_symbols: usize,
    /// Reused firing queue — empty between events, no allocation once warm.
    pending: Vec<Firing>,
    decisions: Vec<Decision>,
    sink: MetricsSink,
    muted: BTreeSet<&'static str>,
    halted: bool,
    paused: bool,
}

impl RuleEngine {
    /// An engine over `set` with fresh state and an empty sink.
    pub fn new(set: RuleSet) -> Self {
        let fired = set.rules.iter().map(|_| Fired::default()).collect();
        let rule_masks = set.rules.iter().map(|r| r.when.change_mask()).collect();
        let compiled = set.machines.iter().map(CompiledMachine::build).collect();
        let instances = set.machines.iter().map(|_| Vec::new()).collect();
        RuleEngine {
            set,
            state: CampaignState::new(),
            fired,
            rule_masks,
            compiled,
            instances,
            wake: change::ALL,
            wake_symbols: 0,
            pending: Vec::new(),
            decisions: Vec::new(),
            sink: MetricsSink::new(),
            muted: BTreeSet::new(),
            halted: false,
            paused: false,
        }
    }

    /// Folds one [`CaseEvent`], returning the decisions it triggered.  An
    /// `Outcome` folds as [`RuleEngine::finished`] with the case's planned
    /// cell and its [`CellResult`], the inputs the
    /// [`FaultLedger`](lfi_explore::FaultLedger) folds.
    ///
    /// A `Skipped` event folds as pure bookkeeping.  A driver whose skipped
    /// cases are not part of the campaign's record (a
    /// [`ClosedLoop`](crate::ClosedLoop) returns their cells to the
    /// frontier) simply does not pass them in.
    pub fn observe(&mut self, event: &CaseEvent) -> &[Decision] {
        match event {
            CaseEvent::Started { .. } => self.started(),
            CaseEvent::Injection { record, .. } => self.injection(record.function),
            CaseEvent::Outcome { outcome, .. } => self.finished(planned_cell(outcome), &CellResult::of(outcome)),
            CaseEvent::Skipped { .. } => self.skipped(),
        }
    }

    /// Folds a case start.
    pub fn started(&mut self) -> &[Decision] {
        self.fold(CampaignState::fold_started)
    }

    /// Folds an injection into `function`.
    pub fn injection(&mut self, function: Symbol) -> &[Decision] {
        self.fold(|state| state.fold_injection(function))
    }

    /// Folds a finished case: its cell (`None` when unknown) and result.
    pub fn finished(&mut self, cell: Option<FaultCell>, result: &CellResult) -> &[Decision] {
        self.fold(|state| state.fold_finished(cell, result))
    }

    /// Folds a skipped case.
    pub fn skipped(&mut self) -> &[Decision] {
        self.fold(CampaignState::fold_skipped)
    }

    /// Folds one event into the state unless the engine is halted, then
    /// evaluates.
    fn fold(&mut self, fold: impl FnOnce(&mut CampaignState) -> u16) -> &[Decision] {
        if self.halted {
            return &[];
        }
        let changed = fold(&mut self.state);
        self.evaluate(changed)
    }

    /// Evaluates rules then machines for the event just folded (`changed`
    /// is the [`change`](crate::state::change) bits its fold reported);
    /// returns the newly appended decisions.
    ///
    /// The sweep is read-only over the campaign state: firings are queued
    /// and emitted afterwards in sweep order, so the decision stream is
    /// exactly the pinned declaration-order contract.  Guards whose inputs
    /// provably did not change (see [`Condition::change_mask`]) and whose
    /// last verdict was false are skipped — a pure optimization that never
    /// alters the decision log.  A machine instance that just transitioned
    /// has no verdict for its new state yet, so its machine is swept on the
    /// next fold whatever that fold changed.
    fn evaluate(&mut self, changed: u16) -> &[Decision] {
        let before = self.decisions.len();
        if self.set.is_empty() {
            return &self.decisions[before..];
        }
        let symbol_count = self.state.symbol_count();
        if changed & self.wake == 0 && symbol_count == self.wake_symbols {
            // No counter any registered guard reads moved and no new symbol
            // appeared: provably no firing, skip the pass.
            return &self.decisions[before..];
        }
        let event_seq = self.state.events_seen;
        let mut halted = self.halted;
        // Whether the wake mask's inputs (verdict caches, machine occupancy,
        // the tracked-symbol set) changed and the mask must be rebuilt.
        let mut wake_dirty = symbol_count != self.wake_symbols;

        // Step 2: rules in declaration order.  The sweep is read-only over
        // `self.state` and `self.set`, mutating only the disjoint
        // bookkeeping fields, so no per-event detach or clone is needed.
        for rule_index in 0..self.set.rules.len() {
            if halted {
                break;
            }
            let rule = &self.set.rules[rule_index];
            let deps_hit = self.rule_masks[rule_index] & changed != 0;
            let fired = &mut self.fired[rule_index];
            match rule.scope {
                RuleScope::Global => {
                    if !deps_hit && fired.global_false {
                        continue;
                    }
                    let allowed = match fired.global {
                        None => true,
                        Some(_) if rule.once => false,
                        Some(last) => event_seq.saturating_sub(last) > rule.cooldown_events,
                    };
                    if !allowed {
                        if fired.global_false != rule.once {
                            fired.global_false = rule.once;
                            wake_dirty = true;
                        }
                        continue;
                    }
                    let verdict = rule.when.eval(EvalContext::global(&self.state));
                    if verdict {
                        fired.global = Some(event_seq);
                        if cancels(&rule.actions) {
                            halted = true;
                        }
                        self.pending.push(Firing::Rule { rule_index, symbol: None });
                    }
                    let now_false = if verdict { rule.once } else { true };
                    if fired.global_false != now_false {
                        fired.global_false = now_false;
                        wake_dirty = true;
                    }
                }
                RuleScope::PerSymbol => {
                    if !deps_hit && fired.truthy == 0 && fired.per_symbol.len() == symbol_count {
                        continue;
                    }
                    for (position, (symbol, stats)) in self.state.symbols().enumerate() {
                        if halted {
                            break;
                        }
                        if fired.per_symbol.get(position).map(|(s, _)| *s) != Some(symbol) {
                            fired.truthy += 1;
                            fired.per_symbol.insert(position, (symbol, SymbolFired::default()));
                            wake_dirty = true;
                        }
                        let slot = &mut fired.per_symbol[position].1;
                        if !deps_hit && slot.known_false {
                            continue;
                        }
                        let allowed = match slot.last {
                            None => true,
                            Some(_) if rule.once => false,
                            Some(last) => event_seq.saturating_sub(last) > rule.cooldown_events,
                        };
                        let verdict = allowed
                            && rule.when.eval(EvalContext {
                                state: &self.state,
                                symbol: Some(symbol),
                                stats: Some(stats),
                                machine: None,
                            });
                        if verdict {
                            slot.last = Some(event_seq);
                            if cancels(&rule.actions) {
                                halted = true;
                            }
                            self.pending.push(Firing::Rule { rule_index, symbol: Some(symbol) });
                        }
                        // Cache the verdict: a once-spent rule is permanently
                        // false; a blocked cooldown stays truthy so the sweep
                        // revisits it when the cooldown expires.
                        let now_false = if verdict { rule.once } else { allowed || rule.once };
                        if now_false != slot.known_false {
                            slot.known_false = now_false;
                            fired.truthy = if now_false { fired.truthy - 1 } else { fired.truthy + 1 };
                            wake_dirty = true;
                        }
                    }
                }
            }
        }

        // Step 3: machines in declaration order, instances in name order,
        // at most one transition per instance.
        for machine_index in 0..self.set.machines.len() {
            if halted {
                break;
            }
            let machine = &self.set.machines[machine_index];
            let compiled = &self.compiled[machine_index];
            let sweep = compiled.fresh > 0 || self.instances[machine_index].len() < symbol_count || {
                let mut mask = 0u16;
                for (state, &count) in compiled.counts.iter().enumerate() {
                    if count > 0 {
                        mask |= compiled.masks[state];
                    }
                }
                mask & changed != 0
            };
            if !sweep {
                continue;
            }
            if compiled.fresh > 0 {
                self.compiled[machine_index].fresh = 0;
                wake_dirty = true;
            }
            for (position, (symbol, stats)) in self.state.symbols().enumerate() {
                if halted {
                    break;
                }
                let crashes = stats.crashes;
                if self.instances[machine_index].get(position).map(|(s, _)| *s) != Some(symbol) {
                    self.compiled[machine_index].counts[0] += 1;
                    wake_dirty = true;
                    self.instances[machine_index].insert(
                        position,
                        (symbol, MachineInstance { state: 0, entered_at_event: event_seq, crashes_at_entry: crashes }),
                    );
                }
                let instance = &self.instances[machine_index][position].1;
                let ctx = MachineContext {
                    events_in_state: event_seq.saturating_sub(instance.entered_at_event),
                    crashes_since_entry: crashes.saturating_sub(instance.crashes_at_entry),
                };
                let from = instance.state;
                let compiled = &self.compiled[machine_index];
                let state = &self.state;
                let hit = compiled.by_state[from].iter().copied().find(|&(transition_index, _)| {
                    machine.transitions[transition_index].when.eval(EvalContext {
                        state,
                        symbol: Some(symbol),
                        stats: Some(stats),
                        machine: Some(ctx),
                    })
                });
                if let Some((transition_index, to)) = hit {
                    let instance = &mut self.instances[machine_index][position].1;
                    instance.state = to;
                    instance.entered_at_event = event_seq;
                    instance.crashes_at_entry = crashes;
                    let compiled = &mut self.compiled[machine_index];
                    compiled.counts[from] -= 1;
                    compiled.counts[to] += 1;
                    compiled.fresh += 1;
                    wake_dirty = true;
                    if cancels(&machine.transitions[transition_index].actions) {
                        halted = true;
                    }
                    self.pending.push(Firing::Machine { machine_index, transition_index, symbol });
                }
            }
        }

        // Emission: decisions and engine-owned side effects, in sweep order.
        // Only now (firings are rare) are the set and the queue detached, so
        // `push_decision` can take `&mut self`.
        if !self.pending.is_empty() {
            let set = std::mem::take(&mut self.set);
            let mut pending = std::mem::take(&mut self.pending);
            for firing in pending.drain(..) {
                match firing {
                    Firing::Rule { rule_index, symbol } => {
                        self.emit_rule(&set.rules[rule_index], event_seq, symbol);
                    }
                    Firing::Machine { machine_index, transition_index, symbol } => {
                        let machine = &set.machines[machine_index];
                        let transition = &machine.transitions[transition_index];
                        let source = format!("machine/{}:{}->{}", machine.name, transition.from, transition.to);
                        for action in &transition.actions {
                            self.push_decision(event_seq, source.clone(), Some(symbol), action.clone());
                            if self.halted {
                                break;
                            }
                        }
                    }
                }
                if self.halted {
                    break;
                }
            }
            self.set = set;
            self.pending = pending;
        }

        // Rebuild the wake mask when its inputs moved: a quiet source
        // (verdict cached false) wakes only on its own dependencies;
        // anything that might fire or refire — a machine with a fresh
        // transition included — wakes on every fold.
        if wake_dirty {
            let mut wake = 0u16;
            for (rule_index, rule) in self.set.rules.iter().enumerate() {
                let quiet = match rule.scope {
                    RuleScope::Global => self.fired[rule_index].global_false,
                    RuleScope::PerSymbol => self.fired[rule_index].truthy == 0,
                };
                wake |= if quiet { self.rule_masks[rule_index] } else { change::ALL };
            }
            for compiled in &self.compiled {
                if compiled.fresh > 0 {
                    wake |= change::ALL;
                }
                for (state, &count) in compiled.counts.iter().enumerate() {
                    if count > 0 {
                        wake |= compiled.masks[state];
                    }
                }
            }
            self.wake = wake;
            self.wake_symbols = symbol_count;
        }

        &self.decisions[before..]
    }

    /// Emits every action of a fired rule.
    fn emit_rule(&mut self, rule: &Rule, event_seq: u64, symbol: Option<Symbol>) {
        let source = format!("rule/{}", rule.name);
        for action in rule.actions.clone() {
            self.push_decision(event_seq, source.clone(), symbol, action);
            if self.halted {
                break;
            }
        }
    }

    /// Records one decision and applies its engine-owned side effects.
    fn push_decision(&mut self, event_seq: u64, source: String, symbol: Option<Symbol>, action: Action) {
        let cell = symbol.and_then(|s| self.state.symbol(s)).and_then(|stats| stats.last_crash_cell);
        let label = symbol.map_or("-", |s| s.as_str());
        self.sink.incr("rules/fired", &[("source", &source), ("symbol", label)], 1.0);
        match &action {
            Action::EmitMetric { name, value } => {
                self.sink.incr(name, &[("symbol", label)], *value);
            }
            Action::Mute => {
                if let Some(symbol) = symbol {
                    self.muted.insert(symbol.as_str());
                }
            }
            Action::Unmute => {
                if let Some(symbol) = symbol {
                    self.muted.remove(symbol.as_str());
                }
            }
            Action::Pause => self.paused = true,
            Action::Cancel => self.halted = true,
            Action::EscalateSiblings | Action::Reweight(_) => {}
        }
        self.decisions
            .push(Decision { seq: self.decisions.len() as u64, event_seq, source, symbol, cell, action });
    }

    /// The rolling campaign state.
    pub fn state(&self) -> &CampaignState {
        &self.state
    }

    /// Every decision emitted so far, in sequence order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The decision log: one [`Decision`] display line per firing.
    ///
    /// Byte-identical across fixed-seed serial reruns — the contract the
    /// `closed_loop` integration tests pin.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for decision in &self.decisions {
            out.push_str(&decision.to_string());
            out.push('\n');
        }
        out
    }

    /// Currently muted symbol names (sorted).
    pub fn muted(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.muted.iter().copied()
    }

    /// True when `name` is currently muted.
    pub fn is_muted(&self, name: &str) -> bool {
        self.muted.contains(name)
    }

    /// True once a [`Action::Cancel`] fired; the engine ignores all further
    /// events.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// True once a [`Action::Pause`] fired (drivers decide what pausing
    /// means; the engine keeps folding events).
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Clears the pause latch (e.g. after a fabric job resumes).
    pub fn clear_pause(&mut self) {
        self.paused = false;
    }

    /// The metrics sink.
    pub fn sink(&self) -> &MetricsSink {
        &self.sink
    }

    /// Mutable access to the sink (drivers add their own gauges).
    pub(crate) fn sink_mut(&mut self) -> &mut MetricsSink {
        &mut self.sink
    }

    /// Refreshes the campaign-vitals gauges in the sink from the current
    /// state (`campaign/*`).
    pub fn export_vitals(&mut self) {
        let state = &self.state;
        self.sink.gauge("campaign/events", &[], state.events_seen as f64);
        self.sink.gauge("campaign/cases_started", &[], state.cases_started as f64);
        self.sink.gauge("campaign/cases_finished", &[], state.cases_finished as f64);
        self.sink.gauge("campaign/cases_skipped", &[], state.cases_skipped as f64);
        self.sink.gauge("campaign/successes", &[], state.successes as f64);
        self.sink.gauge("campaign/failures", &[], state.failures as f64);
        self.sink.gauge("campaign/crashes", &[], state.crashes as f64);
        self.sink.gauge("campaign/injections", &[], state.injections as f64);
        self.sink.gauge("campaign/clusters", &[], state.clusters() as f64);
        self.sink.gauge("campaign/crash_clusters", &[], state.crash_clusters() as f64);
        self.sink.gauge("campaign/outcome_entropy", &[], state.outcome_entropy());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Cmp, Metric};
    use crate::machine::CircuitBreaker;
    use lfi_controller::{InjectionRecord, TestLog};
    use lfi_runtime::{ExitStatus, Signal};
    use lfi_scenario::Plan;

    fn record(function: &str, call: u64, errno: i64) -> InjectionRecord {
        InjectionRecord {
            function: Symbol::intern(function),
            call_number: call,
            retval: Some(-1),
            errno: Some(errno),
            side_effects: Vec::new(),
            call_original: false,
            stack: Vec::new(),
        }
    }

    fn outcome(status: ExitStatus, injections: Vec<InjectionRecord>) -> TestOutcome {
        TestOutcome {
            name: "case".into(),
            status,
            log: TestLog { injections, ..TestLog::default() },
            replay: Plan::default(),
            calls: Vec::new(),
            calls_dropped: 0,
        }
    }

    fn finish(engine: &mut RuleEngine, outcome: &TestOutcome) {
        engine.finished(planned_cell(outcome), &CellResult::of(outcome));
    }

    fn crash_case(engine: &mut RuleEngine, function: &str, signal: Signal) {
        let record = record(function, 1, 5);
        engine.started();
        engine.injection(record.function);
        finish(engine, &outcome(ExitStatus::Crashed(signal), vec![record]));
    }

    #[test]
    fn once_rule_fires_once_per_symbol_with_cell() {
        let set = RuleSet::new().rule(
            Rule::per_symbol(
                "escalate-on-crash",
                Condition::at_least(Metric::Crashes, 1.0),
                [Action::EscalateSiblings],
            )
            .once(),
        );
        let mut engine = RuleEngine::new(set);
        crash_case(&mut engine, "read", Signal::Segv);
        crash_case(&mut engine, "read", Signal::Segv);
        crash_case(&mut engine, "write", Signal::Abort);

        let escalations: Vec<_> = engine.decisions().iter().filter(|d| d.action == Action::EscalateSiblings).collect();
        assert_eq!(escalations.len(), 2, "{}", engine.decision_log());
        assert_eq!(escalations[0].symbol.unwrap().as_str(), "read");
        assert_eq!(escalations[1].symbol.unwrap().as_str(), "write");
        let cell = escalations[0].cell.unwrap();
        assert_eq!((cell.function.as_str(), cell.call_ordinal), ("read", 1));
        assert_eq!(
            engine
                .sink()
                .counter("rules/fired", &[("source", "rule/escalate-on-crash"), ("symbol", "read")]),
            Some(1.0)
        );
    }

    #[test]
    fn cooldown_limits_refires_and_cancel_freezes() {
        let set = RuleSet::new()
            .rule(
                Rule::global("tick", Condition::Always, [Action::EmitMetric { name: "tick".into(), value: 1.0 }])
                    .cooldown(2),
            )
            .rule(Rule::global("stop", Condition::at_least(Metric::Crashes, 2.0), [Action::Cancel]));
        let mut engine = RuleEngine::new(set);
        crash_case(&mut engine, "read", Signal::Segv);
        assert!(!engine.halted());
        crash_case(&mut engine, "read", Signal::Segv);
        assert!(engine.halted());
        let log_at_cancel = engine.decision_log();
        // Frozen: later events change nothing.
        crash_case(&mut engine, "read", Signal::Segv);
        assert_eq!(engine.decision_log(), log_at_cancel);
        assert_eq!(engine.state().cases_finished, 2);
        // Cooldown 2: with 6 events folded, "tick" fired on events 1 and 4.
        let ticks = engine.decisions().iter().filter(|d| d.source == "rule/tick").count();
        assert_eq!(ticks, 2, "{log_at_cancel}");
    }

    #[test]
    fn breaker_trips_on_distinct_crash_clusters_and_mutes() {
        let set = RuleSet::new().machine(CircuitBreaker::tripping_after(2).cooldown(1000));
        let mut engine = RuleEngine::new(set);
        crash_case(&mut engine, "close", Signal::Segv);
        assert!(engine.decisions().is_empty());
        assert!(!engine.is_muted("close"));
        // Same (symbol, stack, class) → same cluster → still closed.
        crash_case(&mut engine, "close", Signal::Segv);
        assert!(engine.decisions().is_empty());
        // A second distinct cluster (different signal) trips it.
        crash_case(&mut engine, "close", Signal::Abort);
        assert!(engine.is_muted("close"));
        assert_eq!(engine.sink().counter("breaker/tripped", &[("symbol", "close")]), Some(1.0));
        let log = engine.decision_log();
        assert!(log.contains("src=machine/circuit-breaker:Closed->Open sym=close action=mute"), "{log}");
    }

    #[test]
    fn decision_log_is_reproducible() {
        let build = || {
            RuleSet::new()
                .rule(
                    Rule::per_symbol(
                        "escalate",
                        Condition::at_least(Metric::CrashClusters, 1.0),
                        [Action::EscalateSiblings],
                    )
                    .once(),
                )
                .machine(CircuitBreaker::tripping_after(2))
        };
        let run = || {
            let mut engine = RuleEngine::new(build());
            crash_case(&mut engine, "close", Signal::Segv);
            crash_case(&mut engine, "read", Signal::Abort);
            crash_case(&mut engine, "close", Signal::Abort);
            engine.export_vitals();
            (engine.decision_log(), engine.sink().to_ndjson())
        };
        let (log_a, metrics_a) = run();
        let (log_b, metrics_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(metrics_a, metrics_b);
        assert!(!log_a.is_empty());
    }

    #[test]
    fn a_guard_that_already_holds_on_entry_fires_on_the_next_event() {
        // A --crashes>=1--> B --crashes>=1--> C: the crash that moves the
        // instance to B already satisfies B's out-guard, so the next event
        // (which moves no crash counter) must carry it on to C.
        let crashed = Condition::at_least(Metric::Crashes, 1.0);
        let set = RuleSet::new().machine(
            StateMachine::new("chain", "A").transition("A", "B", crashed.clone(), []).transition(
                "B",
                "C",
                crashed,
                [Action::EmitMetric { name: "reached-c".into(), value: 1.0 }],
            ),
        );
        let mut engine = RuleEngine::new(set);
        crash_case(&mut engine, "read", Signal::Segv);
        // A->B has no action, so it leaves no decision.
        assert!(engine.decisions().is_empty());
        engine.started();
        assert_eq!(engine.decisions().len(), 1, "{}", engine.decision_log());
        assert_eq!(engine.decisions()[0].source, "machine/chain:B->C");
        assert_eq!(engine.decisions()[0].event_seq, 4);
    }

    #[test]
    fn an_always_guard_out_of_a_later_state_fires() {
        // `Always` reads no counter (change mask 0), so only the fresh-state
        // rule can ever sweep the instance once it sits in B.
        let set = RuleSet::new().machine(
            StateMachine::new("relay", "A")
                .transition("A", "B", Condition::at_least(Metric::Injections, 1.0), [])
                .transition("B", "C", Condition::Always, [Action::EmitMetric { name: "relayed".into(), value: 1.0 }]),
        );
        let mut engine = RuleEngine::new(set);
        let read = record("read", 1, 5);
        engine.started();
        engine.injection(read.function);
        assert!(engine.decisions().is_empty());
        finish(&mut engine, &outcome(ExitStatus::Exited(0), vec![read]));
        let log = engine.decision_log();
        assert!(log.contains("evt=3 src=machine/relay:B->C sym=read"), "{log}");
    }

    #[test]
    fn pause_latches_without_freezing() {
        let set = RuleSet::new().rule(
            Rule::global("pause-on-crash", Condition::threshold(Metric::Crashes, Cmp::Ge, 1.0), [Action::Pause]).once(),
        );
        let mut engine = RuleEngine::new(set);
        crash_case(&mut engine, "read", Signal::Segv);
        assert!(engine.paused() && !engine.halted());
        crash_case(&mut engine, "read", Signal::Segv);
        assert_eq!(engine.state().cases_finished, 2);
        engine.clear_pause();
        assert!(!engine.paused());
    }
}

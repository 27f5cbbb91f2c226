//! The runtime half of the LFI controller: interceptor synthesis and trigger
//! evaluation (§5.1).
//!
//! The per-call dispatch path is string-free and sharded: a plan is compiled
//! once into per-function slots ([`lfi_scenario::CompiledPlan`]), each
//! synthesized stub captures its slot index, per-function call counters are
//! lock-free atomics, and each slot's RNG stream lives behind the slot's own
//! lock.  A pass-through call bumps its slot's counter, compares its
//! triggers, and jumps to the original; it takes the slot's lock only when
//! a trigger draws randomness (a probability or a random choice), so a
//! call-ordinal plan never locks at all.  The one injector-wide lock guards
//! only the injection log, and is taken only when a trigger actually fires.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lfi_intern::Symbol;
use lfi_profile::SideEffectKind;
use lfi_runtime::{CallContext, NativeLibrary};
use lfi_scenario::{CompiledEntry, CompiledFunction, CompiledSideEffect, Plan};

use crate::{InjectionRecord, TestLog};

/// Name given to synthesized interceptor libraries.
pub(crate) const INTERCEPTOR_LIBRARY_NAME: &str = "liblfi_interceptor.so";

/// The injection engine: owns the fault scenario (compiled to symbol-keyed
/// per-function slots), the per-function call counters (the `call_count`
/// static of the paper's stub), per-function random number generators for
/// probabilistic triggers, and the test log.
///
/// An [`Injector`] is cheap to clone; clones share the same state, which is
/// how every synthesized stub reaches the shared counters and log.
#[derive(Clone)]
pub struct Injector {
    shared: Arc<InjectorShared>,
}

struct InjectorShared {
    seed: u64,
    /// One slot per intercepted function, in first-appearance order; stubs
    /// index this directly (the slot index is baked into each stub at
    /// synthesis time, so dispatch does no lookup at all).
    slots: Vec<FunctionSlot>,
    /// Injections in the order they happened, in compact symbol/index form;
    /// materialized into [`InjectionRecord`]s only when a report is taken.
    log: Mutex<Vec<RawInjection>>,
}

/// The per-function shard: immutable compiled entries, the call counter, and
/// the slot's RNG stream behind its own lock.
struct FunctionSlot {
    function: CompiledFunction,
    /// Calls intercepted so far — the `call_count` static of the paper's
    /// stub.  Hoisted out of the slot lock so counting is a single atomic
    /// increment and [`Injector::log`] reads it without locking; each
    /// intercepted call still observes a unique ordinal.
    calls: AtomicU64,
    rng: Mutex<StdRng>,
}

/// Locks `mutex`, recovering the data if a panicking holder poisoned it: a
/// workload that panics inside an intercepted call must not wedge the
/// injector for the cases that follow.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One injection in compact form: slot/entry/choice indices instead of
/// names, stack frames as symbols.  No strings are allocated when this is
/// recorded; names are resolved when the log is materialized.
struct RawInjection {
    slot: u32,
    entry: u32,
    choice: Option<u32>,
    call_number: u64,
    retval: Option<i64>,
    errno: Option<i64>,
    call_original: bool,
    stack: Vec<Symbol>,
}

/// What a stub decided to do for one intercepted call: indices into the
/// slot's compiled entries plus the resolved return value/errno.  `Copy`, so
/// carrying it out of the slot lock costs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    entry_index: usize,
    choice_index: Option<usize>,
    retval: Option<i64>,
    errno: Option<i64>,
    call_number: u64,
}

/// Decorrelates sibling slot RNG streams (SplitMix64 finalizer over the slot
/// index) while keeping them a pure function of the plan seed, so runs stay
/// reproducible.
fn slot_seed(seed: u64, slot_index: usize) -> u64 {
    let mut z = seed ^ (slot_index as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Injector {
    /// Creates an injection engine for a fault scenario, compiling the plan
    /// to symbol-keyed per-function slots (the resolve-once half of the
    /// fast path).  The random seed is taken from the plan (or 0 when
    /// absent) so runs are reproducible.
    pub fn new(plan: Plan) -> Self {
        Self::compile(&plan)
    }

    /// [`Injector::new`] from a borrowed plan, which compiling only reads.
    pub(crate) fn compile(plan: &Plan) -> Self {
        let seed = plan.seed.unwrap_or(0);
        let compiled = plan.compile();
        let slots = compiled
            .functions
            .into_iter()
            .enumerate()
            .map(|(index, function)| FunctionSlot {
                function,
                calls: AtomicU64::new(0),
                rng: Mutex::new(StdRng::seed_from_u64(slot_seed(seed, index))),
            })
            .collect();
        Self { shared: Arc::new(InjectorShared { seed, slots, log: Mutex::new(Vec::new()) }) }
    }

    /// The functions this injector will intercept, sorted by name.
    pub fn intercepted_functions(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.shared.slots.iter().map(|slot| slot.function.symbol.as_str().to_owned()).collect();
        names.sort_unstable();
        names
    }

    /// Synthesizes the interceptor library: one stub per function named in the
    /// plan.  Load it with [`lfi_runtime::Process::preload`] so it shadows the
    /// original definitions, exactly as `LD_PRELOAD` does for the real tool.
    pub fn synthesize_interceptor(&self) -> NativeLibrary {
        self.synthesize_interceptor_named(INTERCEPTOR_LIBRARY_NAME)
    }

    /// Synthesizes the interceptor library under a custom name.  Interceptors
    /// for multiple plans can coexist in one process (§6.4 runs libc, libapr
    /// and libaprutil interceptors simultaneously); they do not interfere
    /// because stubs are keyed purely by function symbol.  Each stub captures
    /// its slot index, so per-call dispatch performs no name lookup at all.
    pub fn synthesize_interceptor_named(&self, library_name: &str) -> NativeLibrary {
        let mut builder = NativeLibrary::builder(library_name);
        for (slot_index, slot) in self.shared.slots.iter().enumerate() {
            let engine = self.clone();
            builder = builder.function_sym(slot.function.symbol, move |ctx| engine.stub_body(slot_index, ctx));
        }
        builder.build()
    }

    /// A snapshot of the log so far (names and side effects are resolved
    /// here, on the report path — never per call).  The intercepted-call
    /// total is the sum of the per-slot counters, so taking a snapshot is
    /// the only place the shards are read together.
    pub fn log(&self) -> TestLog {
        // Materialized under the log lock, with no copy of the raw log:
        // functions and frames stay symbols, so a stub that fires meanwhile
        // waits only for the records' stack and side-effect copies.
        let injections = lock(&self.shared.log).iter().map(|record| self.materialize(record)).collect();
        let mut calls_per_function: Vec<(Symbol, u64)> = self
            .shared
            .slots
            .iter()
            .filter_map(|slot| {
                let count = slot.calls.load(Ordering::Relaxed);
                (count > 0).then_some((slot.function.symbol, count))
            })
            .collect();
        calls_per_function.sort_unstable_by_key(|(symbol, _)| symbol.as_str());
        let intercepted_calls = calls_per_function.iter().map(|(_, count)| count).sum();
        TestLog { injections, intercepted_calls, calls_per_function }
    }

    /// Resets call counters, RNG streams and the log, keeping the plan (used
    /// between repetitions of a workload).
    pub fn reset(&self) {
        for (index, slot) in self.shared.slots.iter().enumerate() {
            slot.calls.store(0, Ordering::Relaxed);
            *lock(&slot.rng) = StdRng::seed_from_u64(slot_seed(self.shared.seed, index));
        }
        lock(&self.shared.log).clear();
    }

    /// Resolves one compact log record into the user-facing form.
    fn materialize(&self, record: &RawInjection) -> InjectionRecord {
        let slot = &self.shared.slots[record.slot as usize];
        let entry = &slot.function.entries[record.entry as usize];
        let side_effects = entry.side_effects_for(record.choice.map(|c| c as usize));
        InjectionRecord {
            function: slot.function.symbol,
            call_number: record.call_number,
            retval: record.retval,
            errno: record.errno,
            side_effects: side_effects.iter().copied().map(CompiledSideEffect::to_side_effect).collect(),
            call_original: record.call_original,
            stack: record.stack.clone(),
        }
    }

    /// The body shared by every synthesized stub.  Touches no state shared
    /// across functions unless a trigger fires: the slot's atomic counter
    /// (from which the log's intercepted-call total is derived at snapshot
    /// time) is all a pass-through call of a plan without randomness needs.
    fn stub_body(&self, slot_index: usize, ctx: &mut CallContext<'_>) -> i64 {
        match self.decide(slot_index, ctx) {
            // No trigger fired: clean up and jump to the original, as the
            // paper's stub does.  If there is no original definition the
            // call degenerates to a no-op success.
            None => ctx.call_next().unwrap_or(0),
            Some(decision) => self.apply(slot_index, decision, ctx),
        }
    }

    /// Evaluates the slot's triggers for one intercepted call.  Locks the
    /// slot's RNG stream at the call's first draw, if any, and holds it to
    /// the end of the call's evaluation, so each call's draws stay one run
    /// of the stream in the order the triggers make them; calls to other
    /// functions proceed in parallel.
    fn decide(&self, slot_index: usize, ctx: &CallContext<'_>) -> Option<Decision> {
        let slot = &self.shared.slots[slot_index];
        let call_number = slot.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = LazyRng { stream: &slot.rng, guard: None };

        // The stack excluding the frame of the intercepted call itself: what
        // the paper's `<stacktrace>` frames are matched against.  Inspected
        // in place — no snapshot, no allocation — and only when some trigger
        // for this function actually looks at the stack.
        let caller_stack: &[Symbol] = if slot.function.stack_sensitive {
            let stack = ctx.stack();
            &stack[..stack.len().saturating_sub(1)]
        } else {
            &[]
        };

        for (entry_index, entry) in slot.function.entries.iter().enumerate() {
            if !trigger_matches(entry, call_number, caller_stack, &mut rng) {
                continue;
            }
            let (choice_index, retval, errno) = resolve_action(entry, &mut rng);
            return Some(Decision { entry_index, choice_index, retval, errno, call_number });
        }
        None
    }

    /// Applies a decision: argument rewrites, errno, side effects,
    /// pass-through and the injected return value; then logs the injection.
    /// The injector-wide lock is taken only for the log append.
    fn apply(&self, slot_index: usize, decision: Decision, ctx: &mut CallContext<'_>) -> i64 {
        let slot = &self.shared.slots[slot_index];
        let entry = &slot.function.entries[decision.entry_index];
        for modification in &entry.arg_modifications {
            let current = ctx.arg(modification.argument as usize);
            ctx.set_arg(modification.argument as usize, modification.op.apply(current, modification.value));
        }
        if let Some(errno) = decision.errno {
            ctx.set_errno(errno);
        }
        for effect in entry.side_effects_for(decision.choice_index) {
            match effect.kind {
                SideEffectKind::Tls => {
                    ctx.state().set_tls_sym(effect.module, effect.offset, effect.value);
                    // errno lives in TLS; reflect the canonical value too so
                    // programs that read errno through the process state see
                    // the injected error.
                    ctx.set_errno(effect.value);
                }
                SideEffectKind::Global => {
                    ctx.state().set_global_sym(effect.module, effect.offset, effect.value);
                }
                SideEffectKind::OutputArg => {
                    // The simulated process has no byte-addressable memory, so
                    // output-argument writes are recorded in the log only.
                }
            }
        }

        let stack = ctx.stack().to_vec();
        let passthrough_result = if entry.call_original { ctx.call_next().ok() } else { None };

        lock(&self.shared.log).push(RawInjection {
            slot: slot_index as u32,
            entry: decision.entry_index as u32,
            choice: decision.choice_index.map(|c| c as u32),
            call_number: decision.call_number,
            retval: if entry.call_original { None } else { decision.retval },
            errno: decision.errno,
            call_original: entry.call_original,
            stack,
        });

        if entry.call_original {
            // Pass-through entries (argument modification, overhead runs)
            // return whatever the original returned.
            passthrough_result.unwrap_or_else(|| decision.retval.unwrap_or(0))
        } else {
            decision.retval.unwrap_or(0)
        }
    }
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("functions", &self.shared.slots.len())
            .field("entries", &self.shared.slots.iter().map(|slot| slot.function.entries.len()).sum::<usize>())
            .field("seed", &self.shared.seed)
            .finish()
    }
}

/// A slot's RNG stream, locked at its first use.
struct LazyRng<'s> {
    stream: &'s Mutex<StdRng>,
    guard: Option<MutexGuard<'s, StdRng>>,
}

impl LazyRng<'_> {
    fn get(&mut self) -> &mut StdRng {
        self.guard.get_or_insert_with(|| lock(self.stream))
    }
}

fn trigger_matches(entry: &CompiledEntry, call_number: u64, caller_stack: &[Symbol], rng: &mut LazyRng<'_>) -> bool {
    if let Some(n) = entry.inject_at_call {
        if n != call_number {
            return false;
        }
    }
    if let Some(p) = entry.probability {
        if !rng.get().gen_bool(p.clamp(0.0, 1.0)) {
            return false;
        }
    }
    // Frame i of the trigger must equal the i-th innermost caller frame —
    // compared by symbol id, in place.
    for (i, &frame) in entry.stack_trace.iter().enumerate() {
        match caller_stack.len().checked_sub(1 + i).map(|index| caller_stack[index]) {
            Some(actual) if actual == frame => {}
            _ => return false,
        }
    }
    true
}

fn resolve_action(entry: &CompiledEntry, rng: &mut LazyRng<'_>) -> (Option<usize>, Option<i64>, Option<i64>) {
    if entry.random_choices.is_empty() {
        return (None, entry.retval, entry.errno);
    }
    let index = rng.get().gen_range(0..entry.random_choices.len());
    let choice = &entry.random_choices[index];
    let errno = choice
        .side_effects
        .iter()
        .find(|s| s.kind == SideEffectKind::Tls)
        .map(|s| s.value)
        .or(entry.errno);
    (Some(index), Some(choice.retval), errno)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profile::{ErrorReturn, SideEffect};
    use lfi_runtime::Process;
    use lfi_scenario::{ArgOp, FaultAction, Plan, PlanEntry, Trigger};

    fn libc() -> NativeLibrary {
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("write", |ctx| ctx.arg(2))
            .constant("close", 0)
            .build()
    }

    fn process_with(plan: Plan) -> (Process, Injector) {
        let mut process = Process::new();
        process.load(libc());
        let injector = Injector::new(plan);
        process.preload(injector.synthesize_interceptor());
        (process, injector)
    }

    #[test]
    fn call_count_trigger_fires_exactly_once() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1).with_errno(9),
        });
        let (mut process, injector) = process_with(plan);
        let results: Vec<i64> = (0..5).map(|_| process.call("read", &[3, 0, 64]).unwrap()).collect();
        assert_eq!(results, vec![64, 64, -1, 64, 64]);
        assert_eq!(process.state().errno(), 9);
        let log = injector.log();
        assert_eq!(log.injection_count(), 1);
        assert_eq!(log.injections[0].call_number, 3);
        assert_eq!(log.intercepted_calls, 5);
    }

    #[test]
    fn uninjected_calls_pass_through_untouched() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(100),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        for _ in 0..10 {
            assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        }
        // Functions not named in the plan are not intercepted at all.
        assert_eq!(process.call("close", &[5]).unwrap(), 0);
        assert_eq!(injector.log().injection_count(), 0);
        assert_eq!(injector.log().intercepted_calls, 10);
    }

    #[test]
    fn stack_trace_trigger_only_fires_in_matching_context() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1).frame("refresh_files"),
            action: FaultAction::return_value(0).with_errno(9),
        });
        let (mut process, injector) = process_with(plan.clone());
        // Wrong context: no injection.
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        drop(injector);

        let (mut process, injector) = process_with(plan);
        process.push_frame("refresh_files");
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 0);
        process.pop_frame();
        assert_eq!(injector.log().injection_count(), 1);
        assert_eq!(injector.log().injections[0].stack, vec!["refresh_files", "read"]);
    }

    #[test]
    fn argument_modification_with_passthrough() {
        // The paper's third example: 20th call to read, subtract 10 from the
        // byte count, pass the call on.
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::default().passthrough().modify_arg(2, ArgOp::Sub, 10),
        });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 54);
        assert_eq!(process.call("read", &[3, 0, 64]).unwrap(), 64);
        let log = injector.log();
        assert_eq!(log.injection_count(), 1);
        assert!(log.injections[0].call_original);
    }

    #[test]
    fn indirect_calls_are_resolved_at_runtime_and_injected_per_callee() {
        // §3.1: "the LFI controller could dynamically resolve indirect calls
        // at runtime and inject the return codes corresponding to the
        // function being called".  The program calls `read` and `write`
        // exclusively through function pointers; each gets the error code its
        // own plan entry specifies.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1).with_errno(9),
            })
            .entry(PlanEntry {
                function: "write".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-7).with_errno(28),
            });
        let (mut process, injector) = process_with(plan);
        let read_ptr = process.fnptr("read").unwrap();
        let write_ptr = process.fnptr("write").unwrap();

        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), -1);
        assert_eq!(process.state().errno(), 9);
        assert_eq!(process.call_ptr(write_ptr, &[3, 0, 64]).unwrap(), -7);
        assert_eq!(process.state().errno(), 28);
        // Subsequent indirect calls pass through (the triggers already fired).
        assert_eq!(process.call_ptr(read_ptr, &[3, 0, 64]).unwrap(), 64);

        let log = injector.log();
        assert_eq!(log.injection_count(), 2);
        let functions: Vec<&str> = log.injections.iter().map(|r| r.function.as_str()).collect();
        assert_eq!(functions, vec!["read", "write"]);
    }

    #[test]
    fn direct_and_indirect_calls_share_one_call_counter() {
        // A trigger on the 3rd call fires regardless of whether the calls
        // arrived directly or through a pointer.
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        let ptr = process.fnptr("read").unwrap();
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call_ptr(ptr, &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(injector.log().injections[0].call_number, 3);
    }

    #[test]
    fn probability_trigger_injects_roughly_the_right_fraction() {
        let plan = Plan::new().with_seed(7).entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::with_probability(0.3),
            action: FaultAction {
                random_choices: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-2)],
                ..FaultAction::default()
            },
        });
        let (mut process, injector) = process_with(plan);
        let mut failures = 0;
        for _ in 0..1000 {
            if process.call("write", &[1, 0, 16]).unwrap() < 0 {
                failures += 1;
            }
        }
        assert!((200..400).contains(&failures), "injected {failures} of 1000");
        assert_eq!(injector.log().injection_count(), failures);
        // Both choices get picked over time.
        let distinct: std::collections::HashSet<i64> =
            injector.log().injections.iter().filter_map(|r| r.retval).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn runs_are_reproducible_with_the_same_seed() {
        let plan = Plan::new().with_seed(11).entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::with_probability(0.5),
            action: FaultAction { random_choices: vec![ErrorReturn::bare(-1)], ..FaultAction::default() },
        });
        let run = |plan: Plan| {
            let (mut process, injector) = process_with(plan);
            let results: Vec<i64> = (0..50).map(|_| process.call("write", &[1, 0, 4]).unwrap()).collect();
            (results, injector.log().injection_count())
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn tls_side_effects_reach_process_state_and_errno() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction {
                retval: Some(-1),
                side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, 5)],
                ..FaultAction::default()
            },
        });
        let (mut process, _injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(process.state().tls("libc.so.6", 0x12fff4), 5);
        assert_eq!(process.state().errno(), 5);
    }

    #[test]
    fn replay_plan_reproduces_a_random_run_exactly() {
        let plan = Plan::new().with_seed(3).entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::with_probability(0.2),
            action: FaultAction {
                random_choices: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-7)],
                ..FaultAction::default()
            },
        });
        let (mut process, injector) = process_with(plan);
        let original: Vec<i64> = (0..40).map(|_| process.call("read", &[3, 0, 32]).unwrap()).collect();
        let replay = injector.log().replay_plan();

        let (mut process2, injector2) = process_with(replay);
        let replayed: Vec<i64> = (0..40).map(|_| process2.call("read", &[3, 0, 32]).unwrap()).collect();
        assert_eq!(original, replayed);
        assert_eq!(injector.log().injection_count(), injector2.log().injection_count());
    }

    #[test]
    fn interceptors_for_multiple_libraries_coexist() {
        // §6.4: libc, libapr and libaprutil interceptors active at once.
        let apr = NativeLibrary::builder("libapr.so").function("apr_read", |ctx| ctx.arg(1)).build();
        let mut process = Process::new();
        process.load(libc());
        process.load(apr);
        let libc_plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1),
        });
        let apr_plan = Plan::new().entry(PlanEntry {
            function: "apr_read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-2),
        });
        let libc_injector = Injector::new(libc_plan);
        let apr_injector = Injector::new(apr_plan);
        process.preload(libc_injector.synthesize_interceptor_named("lfi_libc.so"));
        process.preload(apr_injector.synthesize_interceptor_named("lfi_apr.so"));
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -1);
        assert_eq!(process.call("apr_read", &[0, 16]).unwrap(), -2);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(libc_injector.log().injection_count(), 1);
        assert_eq!(apr_injector.log().injection_count(), 1);
    }

    #[test]
    fn intercepted_functions_and_debug_read_the_compiled_slots() {
        let entry = |function: &str| PlanEntry {
            function: function.into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1),
        };
        let plan = Plan::new().with_seed(5).entry(entry("write")).entry(entry("read")).entry(entry("write"));
        let injector = Injector::new(plan.clone());
        assert_eq!(injector.intercepted_functions(), plan.intercepted_functions());
        assert_eq!(injector.intercepted_functions(), vec!["read", "write"]);
        let debug = format!("{injector:?}");
        assert!(debug.contains("functions: 2") && debug.contains("entries: 3") && debug.contains("seed: 5"), "{debug}");
    }

    #[test]
    fn reset_clears_counters_and_log() {
        let plan = Plan::new().entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(1),
            action: FaultAction::return_value(-1),
        });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[0, 0, 8]).unwrap(), -1);
        injector.reset();
        assert_eq!(injector.log().injection_count(), 0);
        // reset() rewinds the slot's atomic call counter too.
        assert_eq!(injector.log().intercepted_calls, 0);
        // After the reset the first call counts as call #1 again, so the
        // trigger fires again.
        assert_eq!(process.call("read", &[0, 0, 8]).unwrap(), -1);
    }

    #[test]
    fn interception_without_an_original_definition_degrades_to_success() {
        let plan = Plan::new().entry(PlanEntry {
            function: "only_in_profile".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::return_value(-1),
        });
        let mut process = Process::new();
        let injector = Injector::new(plan);
        process.preload(injector.synthesize_interceptor());
        assert_eq!(process.call("only_in_profile", &[]).unwrap(), 0);
        assert_eq!(process.call("only_in_profile", &[]).unwrap(), -1);
    }

    #[test]
    fn plan_entries_for_unknown_functions_pass_through_for_the_rest() {
        // A plan that names a function no library defines does not disturb
        // injection (or pass-through) on the functions that do exist.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "no_such_function_anywhere".into(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1),
            })
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(2),
                action: FaultAction::return_value(-9),
            });
        let (mut process, injector) = process_with(plan);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
        assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), -9);
        assert_eq!(injector.log().injection_count(), 1);
    }

    #[test]
    fn a_never_firing_sibling_entry_changes_no_observable() {
        // The same deterministic fault, alone and alongside a never-firing
        // second entry on the same function.  Results, errno and logs must
        // not differ.
        let fault = PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(3),
            action: FaultAction::return_value(-1).with_errno(9),
        };
        let never = PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(u64::MAX),
            action: FaultAction::return_value(-2),
        };
        let single = Plan::new().entry(fault.clone());
        let with_sibling = Plan::new().entry(fault).entry(never);

        let drive = |plan: Plan| {
            let (mut process, injector) = process_with(plan);
            let results: Vec<i64> = (0..6).map(|_| process.call("read", &[3, 0, 64]).unwrap()).collect();
            (results, process.state().errno(), injector.log())
        };
        let (results_s, errno_s, log_s) = drive(single);
        let (results_w, errno_w, log_w) = drive(with_sibling);
        assert_eq!(results_s, results_w);
        assert_eq!(errno_s, errno_w);
        assert_eq!(log_s.injections, log_w.injections);
        assert_eq!(log_s.intercepted_calls, log_w.intercepted_calls);
        assert_eq!(log_s.calls_per_function, log_w.calls_per_function);
    }

    #[test]
    fn sharded_state_keeps_per_function_counters_independent_under_threads() {
        // Two functions hammered from two threads: each slot counts its own
        // calls, and the call-count triggers fire at exactly the right
        // ordinal on both, no matter how the threads interleave.
        let plan = Plan::new()
            .entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(500),
                action: FaultAction::return_value(-1),
            })
            .entry(PlanEntry {
                function: "write".into(),
                trigger: Trigger::on_call(300),
                action: FaultAction::return_value(-2),
            });
        let injector = Injector::new(plan);
        let interceptor = injector.synthesize_interceptor();
        let mut template = Process::new();
        template.load(libc());
        template.preload(interceptor);

        std::thread::scope(|scope| {
            let mut read_process = template.clone();
            let mut write_process = template.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    let _ = read_process.call("read", &[3, 0, 8]);
                }
            });
            scope.spawn(move || {
                for _ in 0..1000 {
                    let _ = write_process.call("write", &[1, 0, 8]);
                }
            });
        });

        let log = injector.log();
        assert_eq!(log.intercepted_calls, 2000);
        assert_eq!(log.injection_count(), 2);
        let mut fired: Vec<(&str, u64)> = log.injections.iter().map(|r| (r.function.as_str(), r.call_number)).collect();
        fired.sort_unstable();
        assert_eq!(fired, vec![("read", 500), ("write", 300)]);
    }
}

//! Isolates the per-call cost of interceptor dispatch from workload noise:
//! one intercepted call on the three interesting paths — uninstrumented
//! (no interceptor at all), pass-through (a trigger is armed but never
//! fires), and triggered (a probability-1 fault is applied on every call) —
//! by name, and the first two again by pre-resolved `Symbol`.
//!
//! The numbers from this bench are the §6.4 "interception overhead must be
//! negligible" trajectory for this repo: CI gates `passthrough_presym`
//! against `uninstrumented_presym` (`interception-vs-bare-dispatch` in
//! `lfi_bench::GATES`), and CHANGES.md records before/after figures.

use criterion::{criterion_group, criterion_main, Criterion};
use lfi_controller::Injector;
use lfi_runtime::{NativeLibrary, Process, Symbol};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// Calls per timed sample: individual calls take tens of nanoseconds, far
/// below timer resolution for the shim's 10-sample strategy, so each
/// iteration batches them, and a bench's ns/iter divided by this count is
/// its ns per call.
const CALLS_PER_ITER: u64 = 100_000;

fn libc() -> NativeLibrary {
    NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build()
}

fn intercepted_process(plan: Plan) -> (Process, Injector) {
    let mut process = Process::new();
    process.load(libc());
    let injector = Injector::new(plan);
    process.preload(injector.synthesize_interceptor());
    (process, injector)
}

fn passthrough_plan() -> Plan {
    // The trigger is armed (so the stub evaluates it on every call) but its
    // ordinal is unreachable, so every call takes the pass-through path.
    Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(u64::MAX),
        action: FaultAction::return_value(-1).with_errno(9),
    })
}

fn triggered_plan() -> Plan {
    // Probability 1.0: the fault (retval + errno) is applied on every call,
    // exercising the full decide-and-apply path including the log append.
    Plan::new().with_seed(7).entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::with_probability(1.0),
        action: FaultAction::return_value(-1).with_errno(9),
    })
}

fn run_calls(process: &mut Process) -> i64 {
    let mut acc = 0i64;
    for i in 0..CALLS_PER_ITER {
        acc ^= process.call("read", &[3, 0, (i & 0xff) as i64]).unwrap();
    }
    acc
}

fn run_sym_calls(process: &mut Process, read: Symbol) -> i64 {
    let mut acc = 0i64;
    for i in 0..CALLS_PER_ITER {
        acc ^= process.call_sym(read, &[3, 0, (i & 0xff) as i64]).unwrap();
    }
    acc
}

fn bench_dispatch_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_hot_path");

    group.bench_function("uninstrumented", |b| {
        let mut process = Process::new();
        process.load(libc());
        b.iter(|| run_calls(&mut process))
    });

    group.bench_function("passthrough", |b| {
        let (mut process, _injector) = intercepted_process(passthrough_plan());
        b.iter(|| run_calls(&mut process))
    });

    group.bench_function("triggered", |b| {
        let (mut process, injector) = intercepted_process(triggered_plan());
        b.iter(|| {
            // Every call injects, so reset between iterations keeps the
            // injection log at steady state instead of growing across
            // samples and timing reallocs of an ever-larger Vec.
            injector.reset();
            run_calls(&mut process)
        })
    });

    // The resolve-once contract end to end: the workload resolves `read` to a
    // Symbol at setup and dispatches by id, so not even the call boundary
    // hashes a string.  The pair isolates what the interceptor adds: one
    // more chain hop and the stub's trigger check.
    group.bench_function("uninstrumented_presym", |b| {
        let mut process = Process::new();
        process.load(libc());
        let read = Symbol::intern("read");
        b.iter(|| run_sym_calls(&mut process, read))
    });

    group.bench_function("passthrough_presym", |b| {
        let (mut process, _injector) = intercepted_process(passthrough_plan());
        let read = Symbol::intern("read");
        b.iter(|| run_sym_calls(&mut process, read))
    });

    group.finish();
}

criterion_group!(benches, bench_dispatch_hot_path);
criterion_main!(benches);

//! Per-case process acquisition cost: building the full app process from
//! scratch (world + APR + aprutil + libc, the pre-arena per-case path)
//! against one checkout/return cycle on a pre-warmed [`ProcessArena`].
//!
//! The arena cycle pays an `Arc` bump per library, a state restore and the
//! world-reset hook instead of re-running every library builder, so it must
//! be at least 5x cheaper than the cold build (gated in CI against the
//! emitted JSON) — that margin is what pushes the per-case floor of a
//! campaign below the dispatch work itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_apps::{base_process, new_world};
use lfi_runtime::{PreparedProcess, ProcessArena};

fn arena() -> ProcessArena {
    ProcessArena::new(|| {
        let world = new_world();
        let process = base_process(&world, true);
        PreparedProcess::with_reset(process, move |_| {
            world.lock().unwrap_or_else(std::sync::PoisonError::into_inner).reset()
        })
    })
}

fn bench_case_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("case_setup");

    group.bench_function("cold_build", |b| {
        b.iter(|| {
            let world = new_world();
            let process = base_process(&world, true);
            black_box(process.loaded_libraries().count())
        })
    });

    group.bench_function("arena_cycle", |b| {
        let arena = arena();
        arena.prewarm(1);
        b.iter(|| {
            let process = arena.checkout();
            black_box(process.loaded_libraries().count())
            // Dropping the guard restores the snapshot, runs the world-reset
            // hook and returns the process to the pool — the full per-case
            // cost a campaign session pays.
        })
    });

    // The same cycle with per-case interceptor traffic: the preload builds
    // an overlay table of the interceptor's symbols, and the return path
    // drops it again.
    group.bench_function("arena_cycle_preload", |b| {
        let arena = arena();
        arena.prewarm(1);
        let interceptor = lfi_controller::Injector::new(lfi_scenario::Plan::new().entry(lfi_scenario::PlanEntry {
            function: "read".into(),
            trigger: lfi_scenario::Trigger::on_call(1),
            action: lfi_scenario::FaultAction::return_value(-1).with_errno(9),
        }))
        .synthesize_interceptor();
        b.iter(|| {
            let mut process = arena.checkout();
            process.preload(interceptor.clone());
            black_box(process.call("read", &[3, 0, 8]).unwrap())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_case_setup);
criterion_main!(benches);

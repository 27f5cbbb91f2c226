//! Convergence of the coverage-guided explorer on the libc-120 corpus with
//! a seeded crash cell ((close, EIO, 2nd call)):
//!
//! * `explore-to-crash`   — probe + prune + prioritized batches until the
//!   crash cluster appears (the `lfi-explore` loop end to end);
//! * `exhaustive-to-crash` — the non-adaptive baseline: the exhaustive
//!   campaign with `stop_on_first_crash`, which grinds through every
//!   unreachable export's cases on the way;
//! * `store-roundtrip`    — serializing + reparsing the mid-run
//!   `ExplorationStore` (the kill/resume tax).
//!
//! The explorer also asserts its acceptance bar here: the crash is found
//! within a quarter of the exhaustive campaign's cases.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::FnWorkload;
use lfi_core::Lfi;
use lfi_corpus::{build_kernel, build_libc_scaled};
use lfi_isa::Platform;
use lfi_profiler::ProfilerOptions;
use lfi_runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi_scenario::Exhaustive;

fn lfi_over_libc() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 120).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    lfi
}

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("open", |_| 3)
            .function("write", |ctx| ctx.arg(2))
            .function("fsync", |_| 0)
            .function("close", |_| 0)
            .build(),
    );
    process
}

fn workload(process: &mut Process) -> ExitStatus {
    if process.call("open", &[0, 0, 0]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(2);
    }
    for _ in 0..4 {
        if process.call("write", &[3, 0, 64]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    if process.call("fsync", &[3]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(1);
    }
    for _ in 0..2 {
        if process.call("close", &[3]).unwrap_or(-1) < 0 {
            if process.state().errno() == 5 {
                return ExitStatus::Crashed(Signal::Segv);
            }
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

fn explore_to_crash(lfi: &Lfi) -> u64 {
    let mut explorer = lfi
        .explore(&Exhaustive, &["libc.so.6"])
        .unwrap()
        .seed(2009)
        .batch_size(12)
        .halt_on_crash(true);
    explorer.run_workload(&FnWorkload::shared("log-writer", setup, workload));
    assert!(explorer.crash_found());
    explorer.cases_executed()
}

fn bench_explorer_convergence(c: &mut Criterion) {
    let lfi = lfi_over_libc();
    // Warm the profile store so every iteration measures exploration, not
    // profiling.
    lfi.profile("libc.so.6").unwrap();
    let exhaustive_cases = lfi.campaign(&Exhaustive, &["libc.so.6"]).unwrap().case_list().len();

    let mut group = c.benchmark_group("explorer_convergence");
    group.sample_size(10);

    group.bench_function("explore-to-crash", |b| b.iter(|| black_box(explore_to_crash(&lfi))));

    group.bench_function("exhaustive-to-crash", |b| {
        b.iter(|| {
            let campaign = lfi.campaign(&Exhaustive, &["libc.so.6"]).unwrap().stop_on_first_crash(true);
            let report = campaign.run_workload(FnWorkload::new("log-writer", setup, workload));
            assert!(report.crashes().count() > 0, "the exhaustive sweep finds the crash too");
            black_box(report.outcomes.len())
        })
    });

    // A mid-run store (two batches in) for the serialization tax.
    let mut killed = lfi.explore(&Exhaustive, &["libc.so.6"]).unwrap().seed(2009).batch_size(12);
    let writer = FnWorkload::shared("log-writer", setup, workload);
    for _ in 0..2 {
        killed.step_workload(&writer).unwrap();
    }
    let store = killed.store();
    group.bench_function("store-roundtrip", |b| {
        b.iter(|| {
            let xml = store.to_xml();
            black_box(lfi_explore::ExplorationStore::from_xml(&xml).unwrap())
        })
    });

    group.finish();

    // The acceptance bar behind the numbers: the adaptive path reaches the
    // crash within a quarter of the exhaustive campaign's case count.
    let adaptive_cases = explore_to_crash(&lfi);
    assert!(
        adaptive_cases as usize * 4 <= exhaustive_cases,
        "explorer took {adaptive_cases} cases, exhaustive has {exhaustive_cases}"
    );
    println!("explorer: crash in {adaptive_cases} cases vs {exhaustive_cases} exhaustive cases");
}

criterion_group!(benches, bench_explorer_convergence);
criterion_main!(benches);

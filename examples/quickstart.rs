//! Quickstart: the full LFI pipeline on a toy library and application.
//!
//! 1. build a synthetic shared library (`libdemo.so`);
//! 2. profile its binary to discover error return values and errno side
//!    effects;
//! 3. auto-generate an exhaustive fault scenario;
//! 4. package the application under test as a named `Workload` and start
//!    the campaign as a *streaming session*: one test case per generated
//!    fault, each on its own simulated process with a synthesized
//!    interceptor preloaded, with `CaseEvent`s printed live as the worker
//!    pool produces them;
//! 5. collapse the remaining stream into the campaign report and print a
//!    replay script.
//!
//! Run with `cargo run --example quickstart`.

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::{CaseEvent, FnWorkload};
use lfi::isa::Platform;
use lfi::runtime::{ExitStatus, NativeLibrary, Process};
use lfi::scenario::generator::Exhaustive;
use lfi::Lfi;

fn main() {
    // --- Step 1: the "target application's shared library" -----------------
    let compiled = LibraryCompiler::new().compile(
        &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
            .function(
                FunctionSpec::scalar("demo_read", 3)
                    .success(0)
                    .fault(FaultSpec::returning(-1).with_errno(5))
                    .fault(FaultSpec::returning(-2).with_errno(4)),
            )
            .function(
                FunctionSpec::pointer("demo_alloc", 1)
                    .success(0x4000)
                    .fault(FaultSpec::returning(0).with_errno(12)),
            ),
    );

    // --- Step 2: profile the binary ----------------------------------------
    let mut lfi = Lfi::new();
    lfi.add_library(compiled.object);
    let report = lfi.profile("libdemo.so").expect("profiling succeeds");
    println!(
        "== fault profile ({} functions, {} faults) ==",
        report.profile.function_count(),
        report.profile.total_faults()
    );
    println!("{}", report.profile.to_xml());

    // --- Step 3: generate a fault scenario ----------------------------------
    let plan = lfi.exhaustive_scenario(&["libdemo.so"]).expect("scenario generation succeeds");
    println!("== exhaustive scenario ({} triggers) ==", plan.len());
    println!("{}", plan.to_xml());

    // --- Step 4: the application under test, as a first-class Workload ------
    // `setup` is the paper's start script (a fresh process per test case);
    // `run` exercises it.  The same object could be registered in a
    // `WorkloadRegistry` and looked up by name.
    let runtime = NativeLibrary::builder("libdemo.so")
        .function("demo_read", |ctx| ctx.arg(2))
        .constant("demo_alloc", 0x4000)
        .build();
    let workload = FnWorkload::new(
        "six-requests",
        move || {
            let mut process = Process::new();
            process.load(runtime.clone());
            process
        },
        |process| {
            // A tiny "application": six requests against the library.
            let mut failures = 0;
            for request in 0..6 {
                if process.call("demo_read", &[3, 0, 64 + request]).unwrap_or(-1) < 0 {
                    failures += 1;
                }
                if process.call("demo_alloc", &[64]).unwrap_or(0) == 0 {
                    failures += 1;
                }
            }
            if failures > 0 {
                ExitStatus::Exited(1)
            } else {
                ExitStatus::Exited(0)
            }
        },
    );

    // --- Step 5: stream the campaign, then collapse it into the report ------
    let mut run = lfi
        .campaign(&Exhaustive, &["libdemo.so"])
        .expect("campaign construction succeeds")
        .parallelism(2)
        .start(workload);
    println!("== live case events ({} cases scheduled) ==", run.case_count());
    for event in run.by_ref() {
        match event {
            CaseEvent::Started { index, name } => println!("  case {index} started: {name}"),
            CaseEvent::Injection { index, record } => println!(
                "  case {index} injected retval {:?} into {} (call #{})",
                record.retval,
                record.function_name(),
                record.call_number
            ),
            CaseEvent::Outcome { index, outcome } => println!("  case {index} finished: {}", outcome.status),
            CaseEvent::Skipped { index, name, reason } => println!("  case {index} skipped ({reason:?}): {name}"),
        }
    }
    let case_count = run.case_count();
    let report = run.into_report();
    println!("progress: {}/{case_count} finished, {} injections", report.outcomes.len(), report.total_injections());
    println!("== campaign report ==\n{}", report.to_text());
    let first_failure = report.failures().next().cloned();
    if let Some(outcome) = first_failure {
        println!("== replay script for {} ==\n{}", outcome.name, outcome.replay.to_xml());
    }

    // --- Step 6: a cancelled run still accounts for every case --------------
    // Cancelling stops claiming cases; the case in flight finishes, and
    // `into_report` folds its outcome from the events the consumer never
    // read.  Every case that was never claimed counts as skipped.
    let runtime = NativeLibrary::builder("libdemo.so")
        .function("demo_read", |ctx| ctx.arg(2))
        .constant("demo_alloc", 0x4000)
        .build();
    let mut run =
        lfi.campaign(&Exhaustive, &["libdemo.so"])
            .expect("campaign construction succeeds")
            .start(FnWorkload::new(
                "cancelled-midway",
                move || {
                    let mut process = Process::new();
                    process.load(runtime.clone());
                    process
                },
                |process| match process.call("demo_read", &[3, 0, 64]) {
                    Ok(n) if n >= 0 => ExitStatus::Exited(0),
                    _ => ExitStatus::Exited(1),
                },
            ));
    let (cancel, case_count) = (run.cancel_handle(), run.case_count());
    for event in run.by_ref() {
        if matches!(event, CaseEvent::Injection { .. }) {
            cancel.cancel();
            break;
        }
    }
    let cancelled = run.into_report();
    println!(
        "== cancelled run ==\n{} outcome(s) and {} skipped case(s) of {case_count}, {} injection(s):",
        cancelled.outcomes.len(),
        cancelled.cases_skipped,
        cancelled.total_injections()
    );
    println!("{}", cancelled.to_text());
    assert!(cancelled.total_injections() >= 1, "the in-flight case's outcome survives cancellation");
    assert_eq!(cancelled.outcomes.len() + cancelled.cases_skipped, case_count);
}

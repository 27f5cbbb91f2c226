//! Reproduce the §6.1 Pidgin experiment: a random fault scenario on the I/O
//! functions of libc with 10% injection probability crashes the IM client's
//! login sequence with SIGABRT; the generated replay script reproduces the
//! crash deterministically.
//!
//! The spelled-out hunt drives the `pidgin-login` workload from the
//! `lfi-apps` registry through a *streaming* campaign session: test cases
//! for all 100 seeds are scheduled up front, events are consumed as they
//! arrive, and the session is cancelled through its `CancelHandle` the
//! moment the first crash outcome streams out — no case beyond the crash
//! (plus whatever was in flight) is ever executed.
//!
//! Run with `cargo run --example pidgin_bug_hunt`.

use std::sync::Arc;

use lfi::apps::workloads;
use lfi::controller::{Campaign, CaseEvent, TestCase};
use lfi::core::experiments;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::profiler::{Profiler, ProfilerOptions};
use lfi::scenario::generator::{ReadyMade, ScenarioGenerator};

fn main() {
    // The packaged experiment driver...
    let result = experiments::pidgin_bug_hunt(100, 2009);
    println!("{}", result.render());

    // ...and the same hunt spelled out step by step.
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let libc_profile = Arc::unwrap_or_clone(profiler.profile_library("libc.so.6").expect("libc profiles").profile);

    // The application under test comes from the workload registry: a fresh
    // simulated world and process per case, the login sequence as `run`.
    let registry = workloads::registry();
    let pidgin = registry.get("pidgin-login").expect("the apps registry ships pidgin-login");

    // One test case per seed; the streaming session means we can schedule
    // the whole faultload and still stop paying the moment a crash appears.
    let cases: Vec<TestCase> = (0..100u64)
        .map(|attempt| {
            let generator = ReadyMade::random_io(0.10, 7000 + attempt).expect("0.10 is a valid probability");
            TestCase::new(format!("random-io-{attempt:03}"), generator.generate(std::slice::from_ref(&libc_profile)))
        })
        .collect();
    let mut run = Campaign::new().cases(cases).start_arc(pidgin.clone());
    let cancel = run.cancel_handle();
    let mut first_crash = None;
    for event in run.by_ref() {
        if let CaseEvent::Outcome { outcome, .. } = event {
            if outcome.status.is_crash() {
                cancel.cancel(); // stop scheduling; in-flight cases drain
                first_crash.get_or_insert(outcome);
            }
        }
    }
    let report = run.into_report();
    println!(
        "hunted with {} login attempts ({} scheduled cases skipped after cancelling)",
        report.outcomes.len(),
        report.cases_skipped
    );
    let Some(crash) = first_crash else {
        println!("no crash in 100 attempts (unexpected — the bug should be found quickly)");
        return;
    };
    println!("{}: Pidgin login crashed: {}", crash.name, crash.status);
    println!("injection log:\n{}", crash.log.to_text());
    println!("replay script:\n{}", crash.replay.to_xml());

    // Re-run under the replay script, as a developer would before attaching
    // a debugger.
    let replay_report = Campaign::new()
        .case(TestCase::new("replay", crash.replay.clone()))
        .start_arc(pidgin)
        .into_report();
    println!("replayed run: {}", replay_report.outcomes[0].status);
}

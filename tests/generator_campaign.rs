//! Integration coverage for the `Filtered`/`Composite` generator
//! combinators feeding `Campaign::from_generator`: the allow/deny/
//! max_entries interplay must shape the campaign's case list and its report,
//! not just the raw plan.

use lfi::controller::{Campaign, FnWorkload, Workload};
use lfi::profile::{ErrorReturn, FaultProfile, FunctionProfile};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::{Composite, Exhaustive, Filtered, Random, ScenarioGenerator};

fn profiles() -> Vec<FaultProfile> {
    let mut profile = FaultProfile::new("libc.so.6");
    profile.push_function(FunctionProfile {
        name: "read".into(),
        error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(4)],
    });
    profile.push_function(FunctionProfile {
        name: "write".into(),
        error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(-2)],
    });
    profile.push_function(FunctionProfile { name: "malloc".into(), error_returns: vec![ErrorReturn::bare(0)] });
    vec![profile]
}

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("write", |ctx| ctx.arg(2))
            .function("malloc", |ctx| if ctx.arg(0) > 1 << 30 { 0 } else { 0x1000 })
            .build(),
    );
    process
}

/// Read a header, write it back, allocate; a short read provokes a huge
/// allocation whose failure aborts.
fn workload(process: &mut Process) -> ExitStatus {
    let header = process.call("read", &[3, 0, 8]).unwrap_or(-1);
    if header < 0 {
        return ExitStatus::Exited(1);
    }
    if process.call("write", &[3, 0, 8]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(1);
    }
    let size = if header == 8 { 64 } else { 1 << 40 };
    if process.call("malloc", &[size]).unwrap_or(0) == 0 {
        return ExitStatus::Crashed(Signal::Abort);
    }
    ExitStatus::Exited(0)
}

fn reader() -> impl Workload {
    FnWorkload::new("reader", setup, workload)
}

#[test]
fn filtered_allow_deny_cap_shape_the_campaign() {
    let profiles = profiles();

    // allow ∩ ¬deny: read survives, write is denied, malloc never allowed.
    let generator = Filtered::new(Exhaustive).allow(["read", "write"]).deny(["write"]);
    let campaign = Campaign::from_generator(&generator, &profiles);
    assert_eq!(campaign.case_list().len(), 2, "read's two faults");
    assert!(campaign.case_list().iter().all(|case| case.plan.entries[0].function == "read"));
    let report = campaign.run_workload(reader());
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(report.failures().count(), 1, "read -> -1 is handled");
    assert_eq!(report.crashes().count(), 1, "read -> 4 provokes the fatal malloc");

    // max_entries caps *after* filtering: the cap applies to surviving
    // entries, so denying read leaves write's faults to fill it.
    let capped = Filtered::new(Exhaustive).deny(["read"]).max_entries(2);
    let campaign = Campaign::from_generator(&capped, &profiles);
    assert_eq!(campaign.case_list().len(), 2);
    assert!(campaign.case_list().iter().all(|case| case.plan.entries[0].function == "write"));
    let report = campaign.run_workload(reader());
    assert_eq!(report.failures().count(), 2);
    assert_eq!(report.crashes().count(), 0);

    // An allow-list that filtering reduces to nothing yields an empty
    // campaign, which runs to an empty report.
    let empty = Filtered::new(Exhaustive).allow(["read"]).deny(["read"]);
    let campaign = Campaign::from_generator(&empty, &profiles);
    assert_eq!(campaign.case_list().len(), 0);
    assert_eq!(campaign.run_workload(reader()).outcomes.len(), 0);
}

#[test]
fn composite_of_filtered_generators_feeds_one_campaign() {
    let profiles = profiles();
    // Exhaustive read faults + random write faults, in that order; the
    // composite inherits the random part's seed.
    let generator = Composite::new()
        .push(Filtered::new(Exhaustive).allow(["read"]).max_entries(1))
        .push(Filtered::new(Random::new(1.0, 31).unwrap()).allow(["write"]));
    let plan = generator.generate(&profiles);
    assert_eq!(plan.seed, Some(31));

    let campaign = Campaign::from_generator(&generator, &profiles);
    assert_eq!(campaign.case_list().len(), 2);
    assert_eq!(campaign.case_list()[0].plan.entries[0].function, "read");
    assert_eq!(campaign.case_list()[1].plan.entries[0].function, "write");
    // Every split-out case carries the composite's seed, so the random
    // trigger stays reproducible case by case.
    assert!(campaign.case_list().iter().all(|case| case.plan.seed == Some(31)));

    let report = campaign.run_workload(reader());
    assert_eq!(report.outcomes.len(), 2);
    // read -> -1 and write -> {-1,-2} (p=1.0) both fail cleanly.
    assert_eq!(report.failures().count(), 2);
    assert_eq!(report.total_injections(), 2);

    // The same composite runs identically twice (fixed seed end to end).
    let again = Campaign::from_generator(&generator, &profiles).run_workload(reader());
    assert_eq!(again, report);
}

//! End-to-end integration tests: the full Figure 1 pipeline — profile the
//! libraries of an application, generate scenarios, synthesize interceptors,
//! run a workload, and use the log/replay outputs — exercised across crate
//! boundaries through the public `lfi` API.

use lfi::apps::{base_process, new_world, MysqlServer, PidginLogin};
use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::{Campaign, Injector, TestCase};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::profile::FaultProfile;
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, Process};
use lfi::scenario::generator::{ScenarioGenerator, TriggerLoad};
use lfi::scenario::Plan;
use lfi::Lfi;

fn demo_library() -> lfi::objfile::SharedObject {
    LibraryCompiler::new()
        .compile(
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
        )
        .object
}

fn demo_runtime() -> NativeLibrary {
    NativeLibrary::builder("libdemo.so")
        .function("demo_read", |ctx| ctx.arg(2))
        .constant("demo_alloc", 0x4000)
        .build()
}

#[test]
fn profile_scenario_inject_log_replay_pipeline() {
    // Profile.
    let mut lfi = Lfi::new();
    lfi.add_library(demo_library());
    let report = lfi.profile("libdemo.so").unwrap();
    assert_eq!(report.profile.function_count(), 2);

    // The profile round-trips through its XML form (what the controller would
    // read from disk).
    let xml = report.profile.to_xml();
    let parsed = FaultProfile::from_xml(&xml).unwrap();
    assert_eq!(parsed, *report.profile);

    // Generate the exhaustive scenario and check it drives injections.
    let plan = lfi.exhaustive_scenario(&["libdemo.so"]).unwrap();
    assert!(plan.len() >= 3);
    let plan_xml = plan.to_xml();
    let plan_back = Plan::from_xml(&plan_xml).unwrap();
    assert_eq!(plan_back, plan);

    // Inject into a running process.
    let injector = Injector::new(plan);
    let mut process = Process::new();
    process.load(demo_runtime());
    process.preload(injector.synthesize_interceptor());

    let mut injected_failures = 0;
    for i in 0..10 {
        let result = process.call("demo_read", &[3, 0, 64 + i]).unwrap();
        if result < 0 {
            injected_failures += 1;
        }
    }
    assert!(injected_failures >= 2, "exhaustive scenario injected {injected_failures} failures");
    let log = injector.log();
    // Without the unsound heuristics the profile also contains success
    // constants, so the exhaustive plan may inject non-negative values too:
    // at least every observed failure must have a log record.
    assert!(log.injection_count() >= injected_failures);

    // The replay script reproduces exactly the same observable behaviour.
    let replay = injector.log().replay_plan();
    let replay_injector = Injector::new(replay);
    let mut process2 = Process::new();
    process2.load(demo_runtime());
    process2.preload(replay_injector.synthesize_interceptor());
    for i in 0..10 {
        let original = {
            // Recompute what the first process returned by consulting the log.
            let record = log.injections.iter().find(|r| r.call_number == i + 1 && r.function == "demo_read");
            record.and_then(|r| r.retval).unwrap_or(64 + i as i64)
        };
        let replayed = process2.call("demo_read", &[3, 0, 64 + i as i64]).unwrap();
        assert_eq!(replayed, original, "call {i} diverged under replay");
    }
}

#[test]
fn campaign_over_generated_test_cases_finds_the_pidgin_crash() {
    // Build the libc profile the scenario generator needs.
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 80).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    let profile = lfi.profile("libc.so.6").unwrap().profile;

    // One test case per seed, as an automated campaign would generate.
    let cases: Vec<TestCase> = (0..20)
        .map(|seed| {
            TestCase::new(
                format!("random-io-{seed}"),
                lfi::scenario::ready_made::random_io_faults(&profile, 0.10, seed).expect("0.10 is a valid probability"),
            )
        })
        .collect();

    // Four worker threads; the shared PidginLogin workload builds each test
    // case its own world + process pair in its setup hook.
    let report = Campaign::new().cases(cases).parallelism(4).run_workload(PidginLogin::new());
    assert_eq!(report.outcomes.len(), 20);
    // The §6.1 result: at least one random scenario crashes the client.
    assert!(report.crashes().count() >= 1, "no crash found: {}", report.to_text());
    // Crashing outcomes carry non-empty replay scripts.
    for crash in report.crashes() {
        assert!(!crash.replay.is_empty());
        assert_eq!(crash.status, ExitStatus::Crashed(lfi::runtime::Signal::Abort));
    }
}

#[test]
fn interceptors_for_three_libraries_coexist_like_the_apache_setup() {
    // §6.4 interposes on libc, libapr and libaprutil at the same time.
    let world = new_world();
    let mut process = base_process(&world, true);

    let libc_plan = TriggerLoad::new(["read", "write"], 4, 1).generate(&[FaultProfile::new("libc.so.6")]);
    let apr_plan =
        TriggerLoad::new(["apr_file_read", "apr_socket_send"], 4, 2).generate(&[FaultProfile::new("libapr-1.so.0")]);
    let aprutil_plan =
        TriggerLoad::new(["apu_brigade_write"], 2, 3).generate(&[FaultProfile::new("libaprutil-1.so.0")]);
    let libc_injector = Injector::new(libc_plan);
    let apr_injector = Injector::new(apr_plan);
    let aprutil_injector = Injector::new(aprutil_plan);
    process.preload(libc_injector.synthesize_interceptor_named("lfi_libc.so"));
    process.preload(apr_injector.synthesize_interceptor_named("lfi_apr.so"));
    process.preload(aprutil_injector.synthesize_interceptor_named("lfi_aprutil.so"));

    let mut server = lfi::apps::ApacheServer::start(&mut process);
    for _ in 0..50 {
        server.handle_request(&mut process, lfi::apps::RequestKind::Php);
    }
    // All three interceptors observed traffic, none interfered with another.
    assert!(libc_injector.log().intercepted_calls > 0);
    assert!(apr_injector.log().intercepted_calls > 0);
    assert!(aprutil_injector.log().intercepted_calls > 0);
}

#[test]
fn stripped_and_unstripped_libraries_produce_the_same_profile() {
    let object = demo_library();
    let stripped = object.stripped();

    let mut lfi_full = Lfi::new();
    lfi_full.add_library(object);
    let full = lfi_full.profile("libdemo.so").unwrap().profile;

    let mut lfi_stripped = Lfi::new();
    lfi_stripped.add_library(stripped);
    let stripped = lfi_stripped.profile("libdemo.so").unwrap().profile;

    assert_eq!(full, stripped);
}

#[test]
fn exhaustive_scenario_iterates_error_codes_on_consecutive_calls() {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(demo_library());
    let plan = lfi.exhaustive_scenario(&["libdemo.so"]).unwrap();

    let injector = Injector::new(plan);
    let mut process = Process::new();
    process.load(demo_runtime());
    process.preload(injector.synthesize_interceptor());

    // Consecutive calls to demo_read walk through its error codes, then pass
    // through untouched.
    let first = process.call("demo_read", &[0, 0, 10]).unwrap();
    let second = process.call("demo_read", &[0, 0, 10]).unwrap();
    let third = process.call("demo_read", &[0, 0, 10]).unwrap();
    let mut injected: Vec<i64> = vec![first, second];
    injected.sort_unstable();
    assert_eq!(injected, vec![-2, -1]);
    assert_eq!(third, 10);
}

#[test]
fn mysql_suite_runs_under_an_lfi_generated_scenario() {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 80).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    let plan = lfi.random_scenario(&["libc.so.6"], 0.03, 5).unwrap();

    let world = new_world();
    let mut process = base_process(&world, false);
    let injector = Injector::new(plan);
    process.preload(injector.synthesize_interceptor());
    let mut server = MysqlServer::start(&mut process);
    let report = server.run_test_suite(&mut process, 150);
    assert_eq!(report.cases, 150);
    assert!(injector.log().injection_count() > 0);
    // Error-handling coverage exceeds what the clean suite can reach.
    assert!(report.overall_coverage() > 0.73);
}

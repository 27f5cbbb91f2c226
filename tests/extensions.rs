//! Integration tests for the reproduction's extension features, exercised
//! across crate boundaries through the public `lfi` API:
//!
//! * the documentation pipeline (manual rendering → parsing → combined
//!   static+documentation profiles, §6.3 extension);
//! * argument-constraint inference (§3.1 extension);
//! * runtime resolution of function-pointer calls by the interceptor
//!   (§3.1 extension);
//! * failure handling of all three when fed garbage.

use std::collections::BTreeSet;

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::Injector;
use lfi::corpus::{build_kernel, build_libc_scaled, build_table2_library, TABLE2};
use lfi::docs::{CombinedProfile, DocError, DocParser, DocumentationSet, Provenance, StylePolicy};
use lfi::isa::Platform;
use lfi::profiler::{score_profile, score_sets, Profiler, ProfilerOptions};
use lfi::runtime::{NativeLibrary, Process, RuntimeError};
use lfi::scenario::Plan;
use lfi::Lfi;

fn libc_profiler(exports: usize) -> (Profiler, lfi::corpus::CorpusLibrary) {
    let platform = Platform::LinuxX86;
    let library = build_libc_scaled(platform, exports);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(library.compiled.object.clone());
    profiler.set_kernel(build_kernel(platform));
    (profiler, library)
}

// ---------------------------------------------------------------------------
// Documentation pipeline
// ---------------------------------------------------------------------------

#[test]
fn combined_profile_is_a_superset_of_the_static_profile_and_never_adds_false_negatives() {
    let entry = *TABLE2.iter().find(|e| e.name == "libdaemon").unwrap();
    let library = build_table2_library(&entry, 21);
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(library.compiled.object.clone());
    let static_profile = profiler.profile_library(library.name()).unwrap().profile;

    let manual = DocumentationSet::from_error_map(library.name(), &library.documentation, StylePolicy::realistic(), 5);
    let mut parsed = DocParser::new().parse_set(library.name(), &manual.render()).unwrap();
    parsed.resolve_cross_references().unwrap();
    let combined = CombinedProfile::combine(&static_profile, &parsed);

    // Superset: every statically found value survives the combination.
    let combined_sets = combined.error_sets();
    for function in &static_profile.functions {
        for value in function.error_values() {
            assert!(combined_sets[&function.name].contains(&value), "{}:{value} lost", function.name);
        }
    }

    // Against execution truth, combining can only reduce false negatives.
    let static_score = score_profile(&static_profile, &library.execution_truth);
    let combined_score = score_sets(&combined_sets, &library.execution_truth);
    assert!(combined_score.false_negatives <= static_score.false_negatives);

    // Lowering to a FaultProfile and injecting from it works end to end.
    let lowered = combined.to_fault_profile(&static_profile);
    assert!(lowered.total_faults() >= static_profile.total_faults());
    let xml = lowered.to_xml();
    assert!(lfi::profile::FaultProfile::from_xml(&xml).is_ok());
}

#[test]
fn perfect_documentation_confirms_every_static_value_it_lists() {
    let (profiler, library) = libc_profiler(40);
    let profile = profiler.profile_library("libc.so.6").unwrap().profile;
    let manual = DocumentationSet::from_error_map("libc.so.6", &library.documentation, StylePolicy::perfect(), 3);
    let parsed = DocParser::new().parse_set("libc.so.6", &manual.render()).unwrap();
    let combined = CombinedProfile::combine(&profile, &parsed);
    // Every documented function that the profiler also analyzed must have at
    // least one value confirmed by both sources.
    let mut confirmed = 0usize;
    for (function, values) in &combined.functions {
        if library.documentation.contains_key(function) && profile.function(function).is_some() {
            confirmed += values.values().filter(|p| **p == Provenance::Both).count();
        }
    }
    assert!(confirmed > 0, "perfect documentation should agree with the profiler somewhere");
}

#[test]
fn documentation_parser_failures_are_reported_not_panicked() {
    assert!(matches!(
        DocParser::new().parse_page("complete nonsense, not a man page"),
        Err(DocError::NoSections { .. })
    ));
    // A manual whose cross-reference points nowhere fails resolution cleanly.
    let mut set = DocumentationSet::new("libx.so");
    set.push(
        lfi::docs::ManPage::new("libx.so", "orphan")
            .with_style(lfi::docs::ReturnValueStyle::CrossReference("missing".into())),
    );
    let mut parsed = DocParser::new().parse_set("libx.so", &set.render()).unwrap();
    assert!(matches!(parsed.resolve_cross_references(), Err(DocError::UnresolvedCrossReference { .. })));
}

// ---------------------------------------------------------------------------
// Argument constraints
// ---------------------------------------------------------------------------

#[test]
fn argument_constraints_agree_with_the_compiled_ground_truth() {
    // Every fault path of a compiled corpus function is selected by arg0, so
    // any constraint the profiler infers for that path's return value must be
    // satisfied by the selector that drives it.
    let compiled = LibraryCompiler::new().compile(
        &LibrarySpec::new("libsel.so", Platform::LinuxX86).function(
            FunctionSpec::scalar("sel", 2)
                .success(0)
                .fault(FaultSpec::returning(-3).with_errno(9))
                .fault(FaultSpec::returning(-7))
                .fault(FaultSpec::returning(-9)),
        ),
    );
    let mut profiler = Profiler::new();
    profiler.add_library(compiled.object.clone());
    let constraints = profiler.argument_constraints("libsel.so").unwrap();
    let per_value = constraints.get("sel").expect("sel has argument-gated values");

    let ground_truth = compiled.functions.iter().find(|f| f.name == "sel").unwrap();
    for path in &ground_truth.paths {
        let Some(retval) = path.outcome.retval else { continue };
        if !path.outcome.reachable {
            continue;
        }
        if let Some(gates) = per_value.get(&retval) {
            let args = [path.selector, 0];
            for gate in gates {
                assert!(
                    gate.holds(&args),
                    "constraint {gate} for value {retval} contradicts selector {}",
                    path.selector
                );
            }
        }
    }
}

#[test]
fn argument_constraints_on_unknown_libraries_error_cleanly() {
    let profiler = Profiler::new();
    assert!(profiler.argument_constraints("libghost.so").is_err());
}

#[test]
fn unconstrained_functions_are_omitted_from_the_constraint_map() {
    // Functions with a single unconditional path (getpid, strlen, free) have
    // nothing to gate and must not appear in the constraint map, while the
    // dispatched fallible functions do.
    let (profiler, _) = libc_profiler(40);
    let constraints = profiler.argument_constraints("libc.so.6").unwrap();
    for infallible in ["getpid", "strlen", "free"] {
        assert!(!constraints.contains_key(infallible), "{infallible} has no error path to gate");
    }
    assert!(constraints.contains_key("read"), "dispatched error paths are argument-gated");
}

// ---------------------------------------------------------------------------
// Function-pointer interception, end to end
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_scenario_injects_through_function_pointers() {
    // Full pipeline: profile → exhaustive scenario → interceptor; the
    // application then calls exclusively through a callback table.
    let compiled = LibraryCompiler::new().compile(
        &LibrarySpec::new("libcb.so", Platform::LinuxX86)
            .function(
                FunctionSpec::scalar("cb_read", 3)
                    .success(0)
                    .fault(FaultSpec::returning(-1).with_errno(5)),
            )
            .function(
                FunctionSpec::scalar("cb_send", 3)
                    .success(0)
                    .fault(FaultSpec::returning(-2).with_errno(32)),
            ),
    );
    let mut lfi = Lfi::new();
    lfi.add_library(compiled.object);
    let plan = lfi.exhaustive_scenario(&["libcb.so"]).unwrap();
    let injector = Injector::new(plan);

    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libcb.so")
            .function("cb_read", |ctx| ctx.arg(2))
            .function("cb_send", |ctx| ctx.arg(2))
            .build(),
    );
    process.preload(injector.synthesize_interceptor());

    let read_ptr = process.fnptr("cb_read").unwrap();
    let send_ptr = process.fnptr("cb_send").unwrap();
    let mut observed = BTreeSet::new();
    for _ in 0..4 {
        observed.insert(process.call_ptr(read_ptr, &[1, 0, 16]).unwrap());
        observed.insert(process.call_ptr(send_ptr, &[1, 0, 16]).unwrap());
    }
    assert!(observed.contains(&-1), "cb_read's own error code is injected through the pointer");
    assert!(observed.contains(&-2), "cb_send's own error code is injected through the pointer");
    assert!(injector.log().injection_count() >= 2);

    // The replay script reproduces the same injections for pointer calls.
    let replay = injector.log().replay_plan();
    assert!(!replay.is_empty());
    let replay_xml = replay.to_xml();
    assert_eq!(Plan::from_xml(&replay_xml).unwrap(), replay);
}

#[test]
fn stale_function_pointers_and_missing_symbols_fail_cleanly() {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libcb.so").constant("cb_read", 0).build());
    assert!(matches!(process.fnptr("cb_missing"), Err(RuntimeError::UnresolvedSymbol { .. })));
    let ptr = process.fnptr("cb_read").unwrap();
    // A fresh process knows nothing about another process's pointers.
    let mut other = Process::new();
    other.load(NativeLibrary::builder("libcb.so").constant("cb_read", 0).build());
    assert!(matches!(other.call_ptr(ptr, &[]), Err(RuntimeError::InvalidFunctionPointer { .. })));
}

//! Property-based tests over the reproduction's core data structures and
//! invariants, using the public `lfi` API.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::disasm::{Cfg, Disassembler};
use lfi::isa::encode::{decode_function, encode_function};
use lfi::isa::vm::{ConstEnv, Vm};
use lfi::isa::{BinAluOp, Cond, Inst, Loc, Operand, Platform, Reg};
use lfi::objfile::{ObjectBuilder, ReturnType, SharedObject, Storage};
use lfi::profile::{ErrorReturn, FaultProfile, FunctionProfile, ProfileKey, ProfileStore, SideEffect};
use lfi::profiler::Profiler;
use lfi::scenario::{ArgOp, FaultAction, FaultCell, Plan, PlanEntry, Trigger};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg)
}

fn arb_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        arb_reg().prop_map(Loc::Reg),
        (-256i32..256).prop_map(Loc::Stack),
        (0u8..8).prop_map(Loc::Arg),
        (0u32..0x10000).prop_map(Loc::Global),
        (0u32..0x10000).prop_map(Loc::Tls),
    ]
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![any::<i64>().prop_map(Operand::Imm), arb_loc().prop_map(Operand::Loc)]
}

fn arb_alu() -> impl Strategy<Value = BinAluOp> {
    prop_oneof![
        Just(BinAluOp::Add),
        Just(BinAluOp::Sub),
        Just(BinAluOp::And),
        Just(BinAluOp::Or),
        Just(BinAluOp::Xor),
        Just(BinAluOp::Mul),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![Just(Cond::Eq), Just(Cond::Ne), Just(Cond::Lt), Just(Cond::Le), Just(Cond::Gt), Just(Cond::Ge)]
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (arb_loc(), any::<i64>()).prop_map(|(dst, imm)| Inst::MovImm { dst, imm }),
        (arb_loc(), arb_loc()).prop_map(|(dst, src)| Inst::Mov { dst, src }),
        (arb_alu(), arb_loc(), arb_operand()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        arb_loc().prop_map(|dst| Inst::Neg { dst }),
        (arb_loc(), arb_operand()).prop_map(|(a, b)| Inst::Cmp { a, b }),
        (0u32..64).prop_map(|target| Inst::Jmp { target }),
        (arb_cond(), 0u32..64).prop_map(|(cond, target)| Inst::JmpCond { cond, target }),
        arb_loc().prop_map(|loc| Inst::JmpIndirect { loc }),
        (0u32..32).prop_map(|sym| Inst::Call { sym }),
        arb_loc().prop_map(|loc| Inst::CallIndirect { loc }),
        (arb_reg(), arb_reg(), -128i32..128).prop_map(|(dst, base, offset)| Inst::Load { dst, base, offset }),
        (arb_reg(), -128i32..0x2000, arb_operand()).prop_map(|(base, offset, src)| Inst::Store { base, offset, src }),
        arb_reg().prop_map(|dst| Inst::LeaPicBase { dst }),
        (0u32..32).prop_map(|num| Inst::Syscall { num }),
        Just(Inst::Ret),
        Just(Inst::Nop),
    ]
}

fn arb_side_effect() -> impl Strategy<Value = SideEffect> {
    (0u32..3, "[a-z]{3,10}", 0u32..0xffff, -64i64..64).prop_map(|(kind, module, offset, value)| match kind {
        0 => SideEffect::tls(module, offset, value),
        1 => SideEffect::global(module, offset, value),
        _ => SideEffect::output_arg(module, offset % 8, value),
    })
}

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    let function = (
        "[a-z_][a-z0-9_]{0,12}",
        proptest::collection::vec((-64i64..64, proptest::collection::vec(arb_side_effect(), 0..3)), 0..4),
    )
        .prop_map(|(name, errors)| FunctionProfile {
            name,
            error_returns: errors
                .into_iter()
                .map(|(retval, side_effects)| ErrorReturn { retval, side_effects })
                .collect(),
        });
    ("lib[a-z]{2,8}", proptest::collection::vec(function, 0..6)).prop_map(|(library, functions)| FaultProfile {
        library,
        platform: Some("Linux/x86".to_owned()),
        functions,
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let entry = (
        "[a-z_][a-z0-9_]{0,12}",
        proptest::option::of(1u64..50),
        proptest::option::of(0.0f64..1.0),
        proptest::option::of(-64i64..64),
        proptest::option::of(1i64..64),
        any::<bool>(),
        proptest::collection::vec(("[a-z_]{1,8}", 0u8..6, -32i64..32), 0..3),
    )
        .prop_map(|(function, inject, probability, retval, errno, call_original, mods)| PlanEntry {
            function,
            trigger: Trigger { inject_at_call: inject, probability, stack_trace: Vec::new() },
            action: FaultAction {
                retval,
                errno,
                side_effects: Vec::new(),
                call_original,
                arg_modifications: mods
                    .into_iter()
                    .map(|(_, argument, value)| lfi::scenario::ArgModification { argument, op: ArgOp::Sub, value })
                    .collect(),
                random_choices: Vec::new(),
            },
        });
    (proptest::collection::vec(entry, 0..8), proptest::option::of(any::<u64>()))
        .prop_map(|(entries, seed)| Plan { entries, seed })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instruction encode/decode is a lossless round trip for any body.
    #[test]
    fn instruction_encoding_round_trips(body in proptest::collection::vec(arb_inst(), 0..40)) {
        let bytes = encode_function(&body);
        let decoded = decode_function(&bytes).unwrap();
        prop_assert_eq!(decoded, body);
    }

    /// Truncating an encoded stream anywhere never panics: it either decodes
    /// a prefix of the body or reports an error.
    #[test]
    fn truncated_instruction_streams_never_panic(body in proptest::collection::vec(arb_inst(), 1..20), cut in any::<prop::sample::Index>()) {
        let bytes = encode_function(&body);
        let cut = cut.index(bytes.len() + 1);
        let _ = decode_function(&bytes[..cut]);
    }

    /// Object files survive a serialize/parse round trip.
    #[test]
    fn object_files_round_trip(
        name in "lib[a-z]{2,10}\\.so",
        bodies in proptest::collection::vec(proptest::collection::vec(arb_inst(), 0..12), 0..6),
        deps in proptest::collection::vec("lib[a-z]{2,8}\\.so", 0..3),
        stripped in any::<bool>(),
    ) {
        let mut builder = ObjectBuilder::new(name, Platform::LinuxX86)
            .data_symbol("errno", 0x12fff4, Storage::Tls);
        for dep in &deps {
            builder = builder.dependency(dep.clone());
        }
        for (i, body) in bodies.iter().enumerate() {
            builder = builder.export_with_signature(format!("f{i}"), ReturnType::Scalar, 2, body.clone());
        }
        let mut object = builder.build();
        if stripped {
            object = object.stripped();
        }
        let parsed = SharedObject::from_bytes(&object.to_bytes()).unwrap();
        prop_assert_eq!(parsed, object);
    }

    /// Every CFG edge targets the start of a block, every instruction belongs
    /// to exactly one block, and blocks tile the function body.
    #[test]
    fn cfgs_are_well_formed(body in proptest::collection::vec(arb_inst(), 0..40)) {
        let cfg = Cfg::build(body.clone());
        let mut covered = 0usize;
        let starts: BTreeSet<usize> = cfg.blocks().iter().map(|b| b.start).collect();
        for block in cfg.blocks() {
            prop_assert!(block.start < block.end);
            covered += block.len();
            for succ in &block.successors {
                let target = cfg.block(*succ);
                prop_assert!(starts.contains(&target.start));
            }
        }
        prop_assert_eq!(covered, body.len());
        for index in 0..body.len() {
            prop_assert!(cfg.block_containing(index).is_some());
        }
    }

    /// Fault profiles survive the XML round trip.
    #[test]
    fn fault_profiles_round_trip_through_xml(profile in arb_profile()) {
        let xml = profile.to_xml();
        let parsed = FaultProfile::from_xml(&xml).unwrap();
        prop_assert_eq!(parsed, profile);
    }

    /// Profile stores — arbitrary profiles under arbitrary keys — survive
    /// the XML round trip losslessly.
    #[test]
    fn profile_stores_round_trip_through_xml(
        entries in proptest::collection::vec((arb_profile(), any::<u64>(), any::<bool>()), 0..5),
    ) {
        let store = ProfileStore::new();
        for (profile, code_hash, keep_platform) in entries {
            let platform = if keep_platform { profile.platform.clone() } else { None };
            store.insert(ProfileKey::new(profile.library.clone(), platform, code_hash), profile);
        }
        let xml = store.to_xml();
        let parsed = ProfileStore::from_xml(&xml).unwrap();
        prop_assert_eq!(parsed, store);
    }

    /// Fault scenarios survive the XML round trip.
    #[test]
    fn plans_round_trip_through_xml(plan in arb_plan()) {
        let xml = plan.to_xml();
        let parsed = Plan::from_xml(&xml).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    /// Interning is a bijection on the names seen so far: every name resolves
    /// back to itself, re-interning is stable, and distinct names get
    /// distinct symbols.
    #[test]
    fn symbols_round_trip_arbitrary_names(
        names in proptest::collection::btree_set("[a-zA-Z_][a-zA-Z0-9_.$@-]{0,20}", 1..16),
    ) {
        use lfi::intern::Symbol;
        let symbols: Vec<Symbol> = names.iter().map(|name| Symbol::intern(name)).collect();
        for (name, &symbol) in names.iter().zip(&symbols) {
            prop_assert_eq!(symbol.as_str(), name.as_str());
            prop_assert_eq!(Symbol::lookup(name), Some(symbol));
            prop_assert_eq!(Symbol::intern(name), symbol, "re-interning must be stable");
        }
        let distinct: BTreeSet<lfi::intern::Symbol> = symbols.iter().copied().collect();
        prop_assert_eq!(distinct.len(), names.len(), "distinct names must get distinct symbols");
    }

    /// Plans that reference functions no library defines never disturb the
    /// functions that do exist: armed triggers on phantom functions leave
    /// real calls passing through (and injecting) exactly as planned.
    #[test]
    fn plans_with_unknown_functions_execute_as_passthrough(
        unknown in proptest::collection::btree_set("zz_[a-z0-9_]{1,12}", 1..8),
        fire_at in 1u64..5,
    ) {
        use lfi::controller::Injector;
        use lfi::runtime::{NativeLibrary, Process};

        let mut plan = Plan::new();
        for name in &unknown {
            plan = plan.entry(PlanEntry {
                function: name.clone(),
                trigger: Trigger::on_call(1),
                action: FaultAction::return_value(-1),
            });
        }
        plan = plan.entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(fire_at),
            action: FaultAction::return_value(-1).with_errno(9),
        });

        let mut process = Process::new();
        process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
        let injector = Injector::new(plan);
        process.preload(injector.synthesize_interceptor());

        for call in 1..=6u64 {
            let expected = if call == fire_at { -1 } else { 8 };
            prop_assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), expected);
        }
        let log = injector.log();
        prop_assert_eq!(log.injection_count(), 1);
        prop_assert_eq!(log.injections[0].function_name(), "read");
    }

    /// Filtering combinators are pure restrictions: whatever the allow/deny
    /// lists and entry cap, and however many filtered generators a Composite
    /// stacks, the result never contains a plan entry that the unfiltered
    /// generators did not produce.
    #[test]
    fn composite_filtering_never_invents_plan_entries(
        profile in arb_profile(),
        allowed in proptest::collection::btree_set("[a-z_][a-z0-9_]{0,12}", 0..6),
        denied in proptest::collection::btree_set("[a-z_][a-z0-9_]{0,12}", 0..6),
        cap in 0usize..10,
        seed in 0u64..100,
    ) {
        use lfi::scenario::generator::{Composite, Exhaustive, Filtered, Random, ScenarioGenerator};

        // Make the allow-list meaningful: mix arbitrary names with real
        // function names from the profile.
        let mut allowed: Vec<String> = allowed.into_iter().collect();
        allowed.extend(profile.functions.iter().take(2).map(|f| f.name.clone()));
        let denied: Vec<String> = denied.into_iter().collect();
        let profiles = [profile];

        let exhaustive_entries = Exhaustive.generate(&profiles).entries;
        let random_entries = Random::new(0.5, seed).unwrap().generate(&profiles).entries;

        let composite = Composite::new()
            .push(Filtered::new(Exhaustive).allow(allowed.clone()).deny(denied.clone()).max_entries(cap))
            .push(Filtered::new(Random::new(0.5, seed).unwrap()).allow(allowed.clone()).deny(denied.clone()));
        let plan = composite.generate(&profiles);

        for entry in &plan.entries {
            prop_assert!(
                exhaustive_entries.contains(entry) || random_entries.contains(entry),
                "composite invented entry {:?}",
                entry
            );
            prop_assert!(allowed.contains(&entry.function));
            prop_assert!(!denied.contains(&entry.function), "deny-list ignored for {}", entry.function);
        }
        // The cap bounds the filtered-exhaustive half of the composite.
        let exhaustive_survivors = plan.entries.iter().filter(|e| e.trigger.probability.is_none()).count();
        prop_assert!(exhaustive_survivors <= cap);
    }

    /// Soundness of the profiler on corpus-style functions: every error value
    /// observed by *executing* a compiled function over its reachable fault
    /// paths is present in the statically derived profile (no false
    /// negatives for direct faults).
    #[test]
    fn profiler_finds_every_directly_returned_error(
        codes in proptest::collection::btree_set(-400i64..-1, 1..6),
        success in 0i64..3,
    ) {
        let mut spec = FunctionSpec::scalar("f", 1).success(success);
        for code in &codes {
            spec = spec.fault(FaultSpec::returning(*code).with_errno(5));
        }
        let compiled = LibraryCompiler::new()
            .compile(&LibrarySpec::new("libprop.so", Platform::LinuxX86).function(spec));

        // Execute every path in the SimISA interpreter.
        let body = decode_function(&compiled.object.code_for_name("f").unwrap().code).unwrap();
        let vm = Vm::new(Platform::LinuxX86);
        let mut observed = BTreeSet::new();
        for selector in 0..=codes.len() as i64 {
            let outcome = vm.run(&body, &[selector], &mut ConstEnv::default()).unwrap();
            observed.insert(outcome.return_value);
        }

        // Statically profile the same binary.
        let mut profiler = Profiler::new();
        profiler.add_library(compiled.object.clone());
        let profile = profiler.profile_library("libprop.so").unwrap().profile;
        let found = profile.function("f").unwrap().error_values();
        for value in observed {
            prop_assert!(found.contains(&value), "executed value {value} missing from profile {found:?}");
        }
    }

    /// The disassembler accepts every object the library compiler emits.
    #[test]
    fn compiled_libraries_always_disassemble(
        functions in proptest::collection::vec((proptest::collection::btree_set(-64i64..-1, 0..3), 0usize..20), 1..6),
    ) {
        let mut spec = LibrarySpec::new("libgen.so", Platform::LinuxX86);
        for (i, (codes, padding)) in functions.iter().enumerate() {
            let mut f = FunctionSpec::scalar(format!("f{i}"), 2).success(0).padded(*padding);
            for code in codes {
                f = f.fault(FaultSpec::returning(*code));
            }
            spec = spec.function(f);
        }
        let compiled = LibraryCompiler::new().compile(&spec);
        let disassembly = Disassembler::new().disassemble_object(&compiled.object).unwrap();
        prop_assert_eq!(disassembly.functions.len(), functions.len());
        prop_assert_eq!(disassembly.code_size, compiled.object.code_size());
    }

    /// Argument-modification operators behave like their arithmetic/bitwise
    /// definitions for all inputs.
    #[test]
    fn arg_ops_match_reference_semantics(argument in any::<i64>(), value in any::<i64>()) {
        prop_assert_eq!(ArgOp::Set.apply(argument, value), value);
        prop_assert_eq!(ArgOp::Add.apply(argument, value), argument.wrapping_add(value));
        prop_assert_eq!(ArgOp::Sub.apply(argument, value), argument.wrapping_sub(value));
        prop_assert_eq!(ArgOp::And.apply(argument, value), argument & value);
        prop_assert_eq!(ArgOp::Or.apply(argument, value), argument | value);
    }

    /// Every argument constraint the profiler infers for a direct fault path
    /// is satisfied by the very argument value that drives execution down that
    /// path — constraints never contradict the dynamic behaviour (§3.1
    /// extension, checked against the SimISA interpreter).
    #[test]
    fn inferred_argument_constraints_are_consistent_with_execution(
        codes in proptest::collection::btree_set(-400i64..-1, 1..6),
    ) {
        let mut spec = FunctionSpec::scalar("g", 2).success(0);
        for code in &codes {
            spec = spec.fault(FaultSpec::returning(*code));
        }
        let compiled = LibraryCompiler::new()
            .compile(&LibrarySpec::new("libarg.so", Platform::LinuxX86).function(spec));
        let mut profiler = Profiler::new();
        profiler.add_library(compiled.object.clone());
        let constraints = profiler.argument_constraints("libarg.so").unwrap();
        let per_value = constraints.get("g").cloned().unwrap_or_default();

        let body = decode_function(&compiled.object.code_for_name("g").unwrap().code).unwrap();
        let vm = Vm::new(Platform::LinuxX86);
        for selector in 0..=codes.len() as i64 {
            let outcome = vm.run(&body, &[selector, 0], &mut ConstEnv::default()).unwrap();
            if let Some(gates) = per_value.get(&outcome.return_value) {
                for gate in gates {
                    prop_assert!(
                        gate.holds(&[selector, 0]),
                        "constraint {} contradicts execution: arg0={} returned {}",
                        gate, selector, outcome.return_value
                    );
                }
            }
        }
    }

    /// Combining a static profile with parsed documentation never loses a
    /// statically found value and never invents one that neither source
    /// mentions (§6.3 extension).
    #[test]
    fn combined_profiles_are_exact_unions(
        codes in proptest::collection::btree_set(-400i64..-1, 1..5),
        doc_only in proptest::collection::btree_set(-900i64..-401, 0..4),
        seed in 0u64..500,
    ) {
        use lfi::docs::{CombinedProfile, DocParser, DocumentationSet, ManPage};

        let mut spec = FunctionSpec::scalar("h", 1).success(0);
        for code in &codes {
            spec = spec.fault(FaultSpec::returning(*code));
        }
        let compiled = LibraryCompiler::new()
            .compile(&LibrarySpec::new("libdoc.so", Platform::LinuxX86).function(spec));
        let mut profiler = Profiler::new();
        profiler.add_library(compiled.object.clone());
        let profile = profiler.profile_library("libdoc.so").unwrap().profile;

        let mut manual = DocumentationSet::new("libdoc.so");
        let mut page = ManPage::new("libdoc.so", "h");
        for value in codes.iter().chain(doc_only.iter()) {
            page = page.with_error_return(*value);
        }
        manual.push(page);
        let _ = seed; // the manual is rendered losslessly; the seed feeds nothing here
        let parsed = DocParser::new().parse_set("libdoc.so", &manual.render()).unwrap();
        let combined = CombinedProfile::combine(&profile, &parsed);
        let combined_values = combined.error_sets().get("h").cloned().unwrap_or_default();

        let static_values = profile.function("h").unwrap().error_values();
        let doc_values: BTreeSet<i64> = codes.union(&doc_only).copied().collect();
        let expected: BTreeSet<i64> = static_values.union(&doc_values).copied().collect();
        prop_assert_eq!(combined_values, expected);
    }
}

fn arb_errno() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), any::<i64>().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FaultCell::parse` is the exact inverse of `case_name`, for negative
    /// return values and errnos, with and without an errno, and for
    /// identifiers with digits and underscores.
    #[test]
    fn fault_cell_names_parse_back_to_their_cells(
        function in "[a-z_][a-z0-9_]{0,12}",
        call_ordinal in any::<u64>(),
        retval in any::<i64>(),
        errno in arb_errno(),
    ) {
        let cell = FaultCell { function: lfi::intern::Symbol::intern(&function), call_ordinal, retval, errno };
        prop_assert_eq!(FaultCell::parse(&cell.case_name()), Some(cell));
    }

    /// A name that fails the grammar parses to `None` and interns nothing:
    /// every truncation of a case name is either `None` or the name of the
    /// cell it parses to, and a name that does not render back identically
    /// (a leading zero, a `+` sign) is `None`.
    #[test]
    fn names_outside_the_case_grammar_do_not_parse(
        suffix in "[a-z0-9_]{1,8}",
        call_ordinal in 1u64..100_000,
        retval in any::<i64>(),
        errno in arb_errno(),
        cut in any::<prop::sample::Index>(),
    ) {
        use lfi::intern::Symbol;
        let function = format!("Unparsed_{suffix}");
        let name = match errno {
            Some(errno) => format!("{function}-c{call_ordinal}-r{retval}-e{errno}"),
            None => format!("{function}-c{call_ordinal}-r{retval}"),
        };
        let truncated = &name[..cut.index(name.len())];
        let rest = &name[function.len() + 2..];
        for bad in [format!("{function}-c0{rest}"), format!("{function}-c+{rest}")] {
            prop_assert_eq!(FaultCell::parse(&bad), None, "{}", bad);
        }
        // An earlier case may have parsed, and so interned, the same name.
        let interned = Symbol::lookup(&function);
        match FaultCell::parse(truncated) {
            Some(cell) => prop_assert_eq!(cell.case_name(), truncated),
            None => prop_assert_eq!(Symbol::lookup(&function), interned, "{} interned its function", truncated),
        }
    }
}

#[test]
fn case_names_that_name_no_cell_do_not_parse() {
    for name in [
        "probe-baseline",
        "case-3",
        "read",
        "read-c2",
        "read-c2-r",
        "read-c2-r-1-e",
        "-c1-r-1",
        "read-c-1-r-1",
        "read-c1-r-0",
        "read-c1-r-1-e05",
        "read-c1-r-1-e5x",
    ] {
        assert_eq!(FaultCell::parse(name), None, "{name}");
    }
    assert_eq!(
        FaultCell::parse("my-read-c2-r-1-e-4").map(|cell| cell.case_name()).as_deref(),
        Some("my-read-c2-r-1-e-4")
    );
}

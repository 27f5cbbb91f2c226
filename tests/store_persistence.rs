//! The lfi-store durability contracts, end to end: XML → binary → XML
//! byte-identity for arbitrary stores, torn-tail recovery at *every* byte
//! offset of a killed append, hostile-bytes robustness (never panic, always
//! a `StoreError` naming path/offset/format), refusal of older versions,
//! and a journaled explorer kill + resume that reproduces the uninterrupted
//! run batch for batch.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use lfi::controller::FnWorkload;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::{
    CrashCluster, ExplorationDelta, ExplorationStore, Explorer, FrontierCell, FunctionCoverage, OutcomeClass,
};
use lfi::intern::Symbol;
use lfi::isa::Platform;
use lfi::profile::{ErrorReturn, FaultProfile, FunctionProfile, ProfileKey, ProfileStore, SideEffect};
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultAction, FaultCell, Plan, PlanEntry, Trigger};
use lfi::store::{format, Journal};
use lfi::Lfi;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cell(function: &str, ordinal: u64, errno: Option<i64>) -> FaultCell {
    FaultCell { function: Symbol::intern(function), call_ordinal: ordinal, retval: -1, errno }
}

/// A small but non-trivial store: frontier, executed cells, coverage, one
/// cluster — enough that every record section of the codec is exercised.
fn base_store() -> ExplorationStore {
    ExplorationStore {
        seed: 7,
        batch_size: 4,
        parallelism: 1,
        halt_on_crash: false,
        case_budget: Some(500),
        injection_budget: None,
        universe: 5,
        batch_index: 0,
        rng_draws: 3,
        probe_done: true,
        crash_found: false,
        cases_executed: 1,
        injections_performed: 0,
        frontier: vec![
            FrontierCell { cell: cell("read", 1, Some(5)), priority: 0 },
            FrontierCell { cell: cell("write", 1, Some(28)), priority: -1 },
            FrontierCell { cell: cell("close", 2, Some(5)), priority: 3 },
        ],
        executed: vec![cell("open", 1, Some(2))],
        unreached: vec![],
        pruned_functions: vec![Symbol::intern("mmap")],
        coverage: vec![(
            Symbol::intern("open"),
            FunctionCoverage { observed_calls: 4, triggered: [(1, -1, Some(2))].into_iter().collect() },
        )],
        clusters: vec![],
    }
}

/// One batch's worth of change against [`base_store`].
fn delta_one() -> ExplorationDelta {
    ExplorationDelta {
        batch_index: 1,
        rng_draws: 9,
        probe_done: true,
        crash_found: false,
        cases_executed: 3,
        injections_performed: 2,
        frontier_upsert: vec![],
        executed: vec![cell("read", 1, Some(5)), cell("write", 1, Some(28))],
        unreached: vec![],
        pruned_functions: vec![],
        coverage: vec![(
            Symbol::intern("read"),
            FunctionCoverage { observed_calls: 2, triggered: [(1, -1, Some(5))].into_iter().collect() },
        )],
        clusters: vec![],
    }
}

/// A second batch: the crash batch, escalating a neighbour cell.
fn delta_two() -> ExplorationDelta {
    ExplorationDelta {
        batch_index: 2,
        rng_draws: 15,
        probe_done: true,
        crash_found: true,
        cases_executed: 4,
        injections_performed: 3,
        frontier_upsert: vec![FrontierCell { cell: cell("close", 1, Some(5)), priority: 100 }],
        executed: vec![cell("close", 2, Some(5))],
        unreached: vec![],
        pruned_functions: vec![],
        coverage: vec![(
            Symbol::intern("close"),
            FunctionCoverage { observed_calls: 2, triggered: [(2, -1, Some(5))].into_iter().collect() },
        )],
        clusters: vec![CrashCluster {
            function: Symbol::intern("close"),
            stack: vec![Symbol::intern("flush"), Symbol::intern("close")],
            outcome: OutcomeClass::Crash(Signal::Segv),
            count: 1,
            example: cell("close", 2, Some(5)),
            example_case: "exhaustive_close_e5_c2".to_owned(),
        }],
    }
}

/// `store` with `delta` applied: the snapshot a journal compacts to after
/// appending `delta`.
fn applied(mut store: ExplorationStore, delta: &ExplorationDelta) -> ExplorationStore {
    delta.apply(&mut store);
    store
}

// ---------------------------------------------------------------------------
// Torn-tail torture: truncate at every byte offset
// ---------------------------------------------------------------------------

/// Kill-mid-append torture test: a journal holding snapshot + two deltas is
/// truncated at *every* byte offset.  Recovery must never panic; anywhere
/// inside a torn record it must restore exactly the previous durable state,
/// and the recovered journal must be appendable again.
#[test]
fn recovery_at_every_truncation_offset_restores_the_last_durable_state() {
    let dir = temp_dir("lfi-store-torture");
    let path = dir.join("torture.lfij");

    let s0 = base_store();
    let s1 = applied(s0.clone(), &delta_one());
    let s2 = applied(s1.clone(), &delta_two());
    let mut journal = Journal::create(&path, &s0).unwrap();
    let len0 = fs::metadata(&path).unwrap().len();
    journal.append(&delta_one(), || s1.clone()).unwrap();
    let len1 = fs::metadata(&path).unwrap().len();
    journal.append(&delta_two(), || s2.clone()).unwrap();
    let len2 = fs::metadata(&path).unwrap().len();
    drop(journal);
    assert!(len0 < len1 && len1 < len2);
    assert_ne!(s0, s1);
    assert_ne!(s1, s2);

    let bytes = fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, len2);

    let truncated = dir.join("truncated.lfij");
    for cut in 0..=bytes.len() {
        fs::write(&truncated, &bytes[..cut]).unwrap();
        match Journal::open(&truncated) {
            Ok((_, recovered)) => {
                let cut = cut as u64;
                assert!(cut >= len0, "a torn leading snapshot must not recover (cut {cut})");
                let expected = if cut >= len2 {
                    &s2
                } else if cut >= len1 {
                    &s1
                } else {
                    &s0
                };
                assert_eq!(&recovered, expected, "wrong durable state at cut {cut}");
                // Recovery truncates the torn tail off the file itself.
                let durable_len = if cut >= len2 {
                    len2
                } else if cut >= len1 {
                    len1
                } else {
                    len0
                };
                assert_eq!(fs::metadata(&truncated).unwrap().len(), durable_len, "tail not truncated at cut {cut}");
            }
            Err(error) => {
                assert!((cut as u64) < len0, "valid prefix refused at cut {cut}: {error}");
                let message = error.to_string();
                assert!(message.contains("truncated.lfij"), "error must name the path: {message}");
            }
        }
    }

    // A journal recovered mid-append stays appendable: re-apply the lost
    // delta and the state catches back up to the pre-kill state.
    fs::write(&truncated, &bytes[..len1 as usize + 3]).unwrap();
    let (mut journal, recovered) = Journal::open(&truncated).unwrap();
    assert_eq!(recovered, s1, "torn second delta rolls back to the first");
    assert_eq!(journal.appended(), 1);
    journal.append(&delta_two(), || s2.clone()).unwrap();
    drop(journal);
    assert_eq!(Journal::open(&truncated).unwrap().1, s2, "re-appended delta is durable");

    // The sniffing loader recovers the same durable state from a torn file.
    fs::write(&truncated, &bytes[..len2 as usize - 1]).unwrap();
    assert_eq!(lfi::store::load_exploration(&truncated).unwrap(), s1);

    fs::remove_dir_all(&dir).ok();
}

/// A `libc.so.6` that serves `read`.
fn reader_process() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    process
}

/// Forty `read`s; the first that fails ends the case.
fn read_forty(process: &mut Process) -> ExitStatus {
    for _ in 0..40 {
        if process.call("read", &[3, 0, 8]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

/// The one compaction policy, on an explorer's journal: the 32nd append
/// since the leading snapshot compacts the journal from the caller's
/// snapshot into a smaller file, the 33rd starts a new log, and recovery
/// folds back to the live explorer's store.
#[test]
fn compaction_preserves_state_and_shrinks_the_journal() {
    let dir = temp_dir("lfi-store-compact");
    let path = dir.join("compact.lfij");
    let plan = (1..=40).fold(Plan::new(), |plan, ordinal| {
        let action = FaultAction::return_value(-1).with_errno(9);
        plan.entry(PlanEntry { function: "read".into(), trigger: Trigger::on_call(ordinal), action })
    });
    let reader = FnWorkload::shared("reader", reader_process, read_forty);
    let mut explorer = Explorer::new(&plan, Vec::new()).escalation(false).batch_size(1);

    let mut journal = Journal::create(&path, &explorer.store()).unwrap();
    let mut log_len = 0;
    for append in 1..=33 {
        assert!(explorer.step_workload(&reader).is_some(), "the exploration has more than 33 batches");
        if append == 32 {
            log_len = fs::metadata(&path).unwrap().len();
        }
        journal.append(&explorer.take_delta(), || explorer.store()).unwrap();
        match append {
            31 => assert_eq!(journal.appended(), 31, "below the threshold: still a log"),
            32 => {
                assert_eq!(journal.appended(), 0, "the 32nd append compacts");
                let compacted_len = fs::metadata(&path).unwrap().len();
                assert!(compacted_len < log_len, "compacted {compacted_len} bytes, log of 31 deltas {log_len}");
            }
            _ => {}
        }
    }
    assert_eq!(journal.appended(), 1, "compaction happened at the 32nd append");
    drop(journal);

    let (journal, recovered) = Journal::open(&path).unwrap();
    assert_eq!(recovered, explorer.store());
    assert_eq!(journal.appended(), 1, "one snapshot and the 33rd delta");

    fs::remove_dir_all(&dir).ok();
}

/// A version-1 file — the format whose fabric journals held ack records —
/// is refused by every reader with the unsupported-version error, before
/// anything truncates it.  So is a version-2 file, whose stores and deltas
/// carried wall-clock fields and deltas listed their frontier removals.
#[test]
fn version_one_files_are_refused_and_left_untouched() {
    let dir = temp_dir("lfi-store-v1");
    let path = dir.join("v1.lfij");
    let mut journal = Journal::create(&path, &base_store()).unwrap();
    journal.append(&delta_one(), || applied(base_store(), &delta_one())).unwrap();
    drop(journal);
    let mut bytes = fs::read(&path).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    // A torn tail that a v2 open would truncate.
    bytes.extend_from_slice(&[2, 0xFF]);
    fs::write(&path, &bytes).unwrap();

    let unsupported = |error: lfi::store::StoreError| {
        assert!(
            matches!(error.kind, lfi::store::StoreErrorKind::UnsupportedVersion { found: 1 }),
            "expected the unsupported-version error, got {error}"
        );
        assert!(error.to_string().contains("v1.lfij"), "error must name the path: {error}");
    };
    unsupported(Journal::open(&path).unwrap_err());
    unsupported(lfi::store::load_exploration(&path).unwrap_err());
    let fabric = lfi::fabric::Fabric::builder()
        .workers(0)
        .register(FnWorkload::new("reader", setup, workload))
        .build();
    let spec = lfi::fabric::JobSpec::new("v1", "reader", lfi::scenario::Plan::new());
    let error = fabric.recover_job(spec, &path).unwrap_err().to_string();
    assert!(error.contains("unsupported store format version 1"), "{error}");
    assert_eq!(fs::read(&path).unwrap(), bytes, "no reader touched the file");

    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let error = Journal::open(&path).unwrap_err();
    assert!(matches!(error.kind, lfi::store::StoreErrorKind::UnsupportedVersion { found: 2 }), "{error}");
    assert_eq!(fs::read(&path).unwrap(), bytes, "no reader touched the file");

    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Profile-snapshot decoder error contract
// ---------------------------------------------------------------------------

/// Two libraries whose error returns carry side effects of all three kinds.
fn small_profile_store() -> ProfileStore {
    let store = ProfileStore::new();
    let mut a = FaultProfile::new("liba.so").with_platform("Linux/x86");
    let mut open = FunctionProfile::new("a_open");
    let mut error = ErrorReturn::bare(-1);
    error.side_effects.push(SideEffect::tls("liba_runtime_state.so", 0x10, 2));
    error.side_effects.push(SideEffect::global("liba_runtime_state.so", 0x20, 1));
    open.error_returns.push(error);
    open.error_returns.push(ErrorReturn::bare(0));
    a.push_function(open);
    a.push_function(FunctionProfile::new("a_noop"));
    store.insert(ProfileKey::new("liba.so", Some("Linux/x86".to_owned()), 0xA), a);

    let mut b = FaultProfile::new("libb.so");
    let mut read = FunctionProfile::new("b_read");
    let mut error = ErrorReturn::bare(-5);
    error.side_effects.push(SideEffect::output_arg("libb.so", 1, -1));
    read.error_returns.push(error);
    b.push_function(read);
    store.insert(ProfileKey::new("libb.so", None, 0xB), b);
    store
}

fn corrupt_message(error: &lfi::store::StoreError) -> &str {
    match &error.kind {
        lfi::store::StoreErrorKind::Corrupt { message } => message,
        other => panic!("expected a corruption error, got {other:?}"),
    }
}

/// The format-sniffing loaders read each file once and still name the path
/// and the format they detected in every error.
#[test]
fn load_errors_name_the_path_and_the_detected_format() {
    let dir = temp_dir("lfi-store-sniff");
    let binary = dir.join("damaged.lfis");
    lfi::store::save_profile_store(&binary, &small_profile_store()).unwrap();
    let mut bytes = fs::read(&binary).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    fs::write(&binary, &bytes).unwrap();
    let not_utf8 = dir.join("latin1.xml");
    fs::write(&not_utf8, b"<profile-store>\xE9</profile-store>").unwrap();
    let malformed = dir.join("malformed.xml");
    fs::write(&malformed, "<profile-store>").unwrap();

    for (path, format) in [
        (&binary, lfi::store::StoreFormat::Binary),
        (&not_utf8, lfi::store::StoreFormat::Xml),
        (&malformed, lfi::store::StoreFormat::Xml),
    ] {
        assert_eq!(lfi::store::sniff_format(path).unwrap(), format);
        for error in
            [lfi::store::load_profile_store(path).unwrap_err(), lfi::store::load_exploration(path).unwrap_err()]
        {
            assert_eq!(error.format, Some(format), "{error}");
            assert_eq!(error.path.as_deref(), Some(path.as_path()), "{error}");
            assert!(error.to_string().contains(&format!("[format: {format}]")), "{error}");
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A save replaces the file at its path instead of rewriting it in place:
/// a hard link to the old file keeps the old store, the path loads the new
/// one, and no temp file is left beside them.  An in-place rewrite would
/// change both names at once, and a kill part-way through it would leave
/// neither store on disk.
#[test]
fn a_save_replaces_the_file_and_leaves_the_old_snapshot_whole() {
    let dir = temp_dir("lfi-store-replace");
    let (a, b) = (dir.join("a"), dir.join("b"));

    let old_profiles = small_profile_store();
    let new_profiles = ProfileStore::new();
    new_profiles.insert(ProfileKey::new("libc.so", None, 0xC), FaultProfile::new("libc.so"));
    lfi::store::save_profile_store(&a, &old_profiles).unwrap();
    fs::hard_link(&a, &b).unwrap();
    lfi::store::save_profile_store(&a, &new_profiles).unwrap();
    assert_eq!(lfi::store::load_profile_store(&b).unwrap().to_xml(), old_profiles.to_xml());
    assert_eq!(lfi::store::load_profile_store(&a).unwrap().to_xml(), new_profiles.to_xml());
    assert!(!dir.join("a.tmp").exists(), "no temp file remains");

    fs::remove_file(&b).unwrap();
    let old_store = base_store();
    let new_store = applied(base_store(), &delta_one());
    lfi::store::save_exploration(&a, &old_store).unwrap();
    fs::hard_link(&a, &b).unwrap();
    lfi::store::save_exploration(&a, &new_store).unwrap();
    assert_eq!(lfi::store::load_exploration(&b).unwrap(), old_store);
    assert_eq!(lfi::store::load_exploration(&a).unwrap(), new_store);
    assert!(!dir.join("a.tmp").exists(), "no temp file remains");
    fs::remove_dir_all(&dir).ok();
}

/// Both exploration readers share one fold: a record of another kind is
/// the same error, at that record's own byte offset, and the journal that
/// refuses the file leaves it untouched.
#[test]
fn a_foreign_record_is_reported_at_its_offset_by_both_exploration_readers() {
    let dir = temp_dir("lfi-store-foreign");
    let path = dir.join("foreign.lfij");
    drop(Journal::create(&path, &base_store()).unwrap());
    let mut bytes = fs::read(&path).unwrap();
    let foreign_at = bytes.len() as u64;
    let payload = lfi::store::encode_profile_store(&small_profile_store());
    format::write_frame(&mut bytes, format::RecordKind::ProfileSnapshot, &payload);
    fs::write(&path, &bytes).unwrap();

    let loaded = lfi::store::load_exploration(&path).unwrap_err();
    let opened = Journal::open(&path).unwrap_err();
    for error in [&loaded, &opened] {
        assert_eq!(error.offset, Some(foreign_at));
        assert_eq!(corrupt_message(error), "profile-snapshot record in an exploration journal");
    }
    assert_eq!(fs::read(&path).unwrap(), bytes, "no reader touched the file");

    fs::remove_dir_all(&dir).ok();
}

/// A damaged profile snapshot is always an error that points inside the
/// bytes it was given: every truncated payload, every flipped byte of the
/// saved file, and a fixed set of cuts and bad bytes whose offsets and
/// messages are part of the decoder's contract.
#[test]
fn profile_snapshot_decoder_errors_keep_their_offsets_and_messages() {
    let store = small_profile_store();
    let payload = lfi::store::encode_profile_store(&store);
    assert_eq!(lfi::store::decode_profile_store(&payload).unwrap(), store);

    for cut in 0..payload.len() {
        let error = lfi::store::decode_profile_store(&payload[..cut]).unwrap_err();
        let offset = error.offset.unwrap_or_else(|| panic!("no offset at cut {cut}: {error}"));
        assert!(offset <= cut as u64, "offset {offset} beyond the {cut}-byte prefix: {error}");
    }

    // Fixed cuts: inside the entry count, after an entry count the bytes
    // cannot hold, inside the second entry's library-name length and its
    // body, and at the second side-effect kind byte.
    for (cut, offset, message) in [
        (2, 0, "truncated while reading profile entries"),
        (10, 0, "impossible profile entries count 2"),
        (196, 194, "truncated while reading entry library"),
        (200, 198, "truncated while reading entry library"),
        (130, 130, "truncated while reading side-effect kind"),
    ] {
        let error = lfi::store::decode_profile_store(&payload[..cut]).unwrap_err();
        assert_eq!((error.offset, corrupt_message(&error)), (Some(offset), message), "cut {cut}");
    }
    // Fixed bad bytes: the first side-effect kind, and the first byte of
    // the second entry's library name.
    for (at, byte, message) in [(92, 7, "unknown side-effect kind 7"), (198, 0xFF, "non-UTF-8 entry library")] {
        let mut bytes = payload.clone();
        bytes[at] = byte;
        let error = lfi::store::decode_profile_store(&bytes).unwrap_err();
        assert_eq!((error.offset, corrupt_message(&error)), (Some(at as u64), message), "byte {at}");
    }

    let dir = temp_dir("lfi-store-flip");
    let path = dir.join("profiles.lfis");
    lfi::store::save_profile_store(&path, &store).unwrap();
    assert_eq!(lfi::store::load_profile_store(&path).unwrap(), store);
    let file = fs::read(&path).unwrap();
    let flipped = dir.join("flipped.lfis");
    // The header's reserved u16 (bytes 6..8) is not validated, so a flip
    // there must load the very same store; any other flip is an error.
    let reserved = 6..format::HEADER_LEN;
    for at in 0..file.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut bytes = file.clone();
            bytes[at] ^= mask;
            fs::write(&flipped, &bytes).unwrap();
            let loaded = lfi::store::load_profile_store(&flipped);
            if reserved.contains(&at) {
                assert_eq!(loaded.unwrap(), store, "reserved byte {at} flipped with {mask:#04x}");
                continue;
            }
            let error = loaded.expect_err(&format!("flipping byte {at} with {mask:#04x} must not load"));
            assert!(error.to_string().contains("flipped.lfis"), "error must name the path: {error}");
        }
    }
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Journaled explorer kill + resume
// ---------------------------------------------------------------------------

const LIBC_EXPORTS: usize = 120;

fn lfi_over_libc() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, LIBC_EXPORTS).compiled.object);
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

/// The log-structured writer of `tests/exploration.rs`: dies on the
/// undocumented EIO from the second `close`.
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

/// The incremental-checkpoint contract over the journal: an exploration
/// that appends one O(delta) record per batch, is killed, and recovers from
/// the journal resumes with the *identical* remaining batch sequence — the
/// same fixed-seed byte-identity the XML snapshot path guarantees, now at
/// delta cost.
#[test]
fn journaled_explorer_kill_and_resume_reproduces_the_uninterrupted_run() {
    let dir = temp_dir("lfi-store-explorer");
    let journal_path = dir.join("exploration.lfij");
    let lfi = lfi_over_libc();
    let build = || lfi.explore(&Exhaustive, &["libc.so.6"]).unwrap().seed(77).batch_size(6);
    let writer = FnWorkload::shared("log-writer", setup, workload);

    // The uninterrupted run, batch report by batch report.
    let mut full = build();
    let mut full_reports = Vec::new();
    while let Some(report) = full.step_workload(&writer) {
        full_reports.push(report);
    }
    assert!(full_reports.len() > 3, "enough batches to kill one mid-run");

    // The journaled run: snapshot at creation, one delta per batch.
    let mut live = build();
    let mut journal = Journal::create(&journal_path, &live.store()).unwrap();
    let mut reports = Vec::new();
    for _ in 0..3 {
        reports.push(live.step_workload(&writer).unwrap());
        journal.append(&live.take_delta(), || live.store()).unwrap();
    }
    assert_eq!(journal.appended(), 3, "one O(delta) record per batch, no compaction yet");
    let live_store = live.store();
    drop(journal);
    drop(live); // the kill

    // Recovery is byte-identical to the last durable point, through both
    // the journal and the format-sniffing facade loader.
    let (_, recovered) = Journal::open(&journal_path).unwrap();
    assert_eq!(recovered, live_store);
    assert_eq!(recovered.to_xml(), live_store.to_xml());
    assert_eq!(lfi.load_exploration(&journal_path).unwrap(), recovered);

    // Resuming from the recovered store finishes the run identically.
    let mut resumed = lfi.resume_exploration(&recovered, &["libc.so.6"]).unwrap();
    while let Some(report) = resumed.step_workload(&writer) {
        reports.push(report);
    }
    assert_eq!(reports, full_reports, "journaled kill+resume reproduces the identical batch sequence");
    assert_eq!(resumed.coverage_summary(), full.coverage_summary());
    assert_eq!(resumed.clusters(), full.clusters());

    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property tests: byte-identity and hostility
// ---------------------------------------------------------------------------

fn arb_cell() -> impl Strategy<Value = FaultCell> {
    ("[a-z_]{2,10}", 1u64..20, -64i64..64, proptest::option::of(1i64..64)).prop_map(
        |(function, call_ordinal, retval, errno)| FaultCell {
            function: Symbol::intern(&function),
            call_ordinal,
            retval,
            errno,
        },
    )
}

fn arb_outcome() -> impl Strategy<Value = OutcomeClass> {
    prop_oneof![
        Just(OutcomeClass::Success),
        (1i32..120).prop_map(OutcomeClass::Failure),
        Just(OutcomeClass::Crash(Signal::Segv)),
        Just(OutcomeClass::Crash(Signal::Abort)),
    ]
}

fn arb_coverage() -> impl Strategy<Value = FunctionCoverage> {
    (0u64..60, proptest::collection::btree_set((1u64..9, -64i64..64, proptest::option::of(1i64..64)), 0..4))
        .prop_map(|(observed_calls, triggered)| FunctionCoverage { observed_calls, triggered })
}

fn arb_cluster() -> impl Strategy<Value = CrashCluster> {
    (arb_cell(), proptest::collection::vec("[a-z_]{2,8}", 0..4), arb_outcome(), 1u64..9, "[a-z0-9_]{1,16}").prop_map(
        |(example, stack, outcome, count, example_case)| CrashCluster {
            function: example.function,
            stack: stack.iter().map(|s| Symbol::intern(s)).collect(),
            outcome,
            count,
            example,
            example_case,
        },
    )
}

fn arb_exploration_store() -> impl Strategy<Value = ExplorationStore> {
    let config = (any::<u64>(), 1usize..32, 1usize..8, any::<bool>());
    let budgets = (proptest::option::of(1u64..10_000), proptest::option::of(1u64..10_000));
    let progress = (0u64..50, 0u64..5_000, any::<bool>(), any::<bool>(), 0u64..10_000);
    let cells = (
        proptest::collection::vec((arb_cell(), -5i32..5), 0..8),
        proptest::collection::vec(arb_cell(), 0..8),
        proptest::collection::vec(arb_cell(), 0..8),
        proptest::collection::btree_set("[a-z_]{2,8}", 0..4),
    );
    let folds = (
        proptest::collection::vec(("[a-z_]{2,8}", arb_coverage()), 0..4),
        proptest::collection::vec(arb_cluster(), 0..4),
    );
    (config, budgets, progress, cells, folds).prop_map(
        |(
            (seed, batch_size, parallelism, halt_on_crash),
            (case_budget, injection_budget),
            (batch_index, rng_draws, probe_done, crash_found, cases_executed),
            (frontier, executed, unreached, pruned),
            (coverage, mut clusters),
        )| {
            // Coverage is keyed by function name: dedup through a map.
            let coverage: std::collections::BTreeMap<String, FunctionCoverage> = coverage.into_iter().collect();
            // Every store keeps its clusters in key order.
            clusters.sort_by_cached_key(|c| {
                let stack: Vec<String> = c.stack.iter().map(|s| s.as_str().to_owned()).collect();
                (c.function.as_str().to_owned(), stack, c.outcome)
            });
            ExplorationStore {
                seed,
                batch_size,
                parallelism,
                halt_on_crash,
                case_budget,
                injection_budget,
                universe: frontier.len() + executed.len() + 7,
                batch_index,
                rng_draws,
                probe_done,
                crash_found,
                cases_executed,
                injections_performed: cases_executed / 2,
                frontier: frontier.into_iter().map(|(cell, priority)| FrontierCell { cell, priority }).collect(),
                executed,
                unreached,
                pruned_functions: pruned.iter().map(|name| Symbol::intern(name)).collect(),
                coverage: coverage.into_iter().map(|(name, entry)| (Symbol::intern(&name), entry)).collect(),
                clusters,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XML → binary → XML is byte-identical for arbitrary exploration
    /// stores: the binary codec loses nothing the XML interchange format
    /// carries.
    #[test]
    fn exploration_stores_round_trip_xml_binary_xml_byte_identically(store in arb_exploration_store()) {
        let xml = store.to_xml();
        let decoded = lfi::store::decode_exploration_store(&lfi::store::encode_exploration_store(&store)).unwrap();
        prop_assert_eq!(&decoded, &store);
        prop_assert_eq!(decoded.to_xml(), xml.clone());
        prop_assert_eq!(ExplorationStore::from_xml(&xml).unwrap(), store);
    }

    /// XML → binary → XML is byte-identical for arbitrary profile stores.
    #[test]
    fn profile_stores_round_trip_xml_binary_xml_byte_identically(
        entries in proptest::collection::vec((lfi_test_profiles::arb_profile(), any::<u64>(), any::<bool>()), 0..5),
    ) {
        let store = ProfileStore::new();
        for (profile, code_hash, keep_platform) in entries {
            let platform = if keep_platform { profile.platform.clone() } else { None };
            store.insert(ProfileKey::new(profile.library.clone(), platform, code_hash), profile);
        }
        let xml = store.to_xml();
        let decoded = lfi::store::decode_profile_store(&lfi::store::encode_profile_store(&store)).unwrap();
        prop_assert_eq!(decoded.to_xml(), xml.clone());
        prop_assert_eq!(ProfileStore::from_xml(&xml).unwrap().to_xml(), xml);
    }

    /// Raw hostile bytes through every decoder: always a `StoreError`,
    /// never a panic.
    #[test]
    fn hostile_bytes_never_panic_in_the_decoders(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let _ = lfi::store::decode_exploration_store(&bytes);
        let _ = lfi::store::decode_exploration_delta(&bytes);
        let _ = lfi::store::decode_profile_store(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let _ = ExplorationStore::from_xml(&text);
        let _ = ProfileStore::from_xml(&text);
    }

    /// Fuzzed prefixes of a *valid* journal file — optionally with one byte
    /// flipped — through every file loader: Ok or a path-naming Err, never
    /// a panic.
    #[test]
    fn fuzzed_prefixes_of_valid_files_never_panic(
        cut in any::<prop::sample::Index>(),
        flip in proptest::option::of((any::<prop::sample::Index>(), 1u8..=255)),
    ) {
        let mut bytes = Vec::new();
        format::write_header(&mut bytes);
        let payload = lfi::store::encode_exploration_store(&base_store());
        format::write_frame(&mut bytes, format::RecordKind::ExplorationSnapshot, &payload);
        let payload = lfi::store::encode_exploration_delta(&delta_one());
        format::write_frame(&mut bytes, format::RecordKind::ExplorationDelta, &payload);

        let cut = cut.index(bytes.len() + 1);
        let mut bytes = bytes[..cut].to_vec();
        if let Some((at, mask)) = flip {
            if !bytes.is_empty() {
                let at = at.index(bytes.len());
                bytes[at] ^= mask;
            }
        }

        let dir = temp_dir("lfi-store-fuzz");
        let path = dir.join("fuzzed.lfij");
        fs::write(&path, &bytes).unwrap();
        if let Err(error) = lfi::store::load_exploration(&path) {
            prop_assert!(error.to_string().contains("fuzzed.lfij"), "error must name the path: {}", error);
        }
        let _ = lfi::store::load_profile_store(&path);
        let _ = Journal::open(&path);
        fs::remove_dir_all(&dir).ok();
    }
}

/// The profile generators, shared in spirit with `tests/property_tests.rs`
/// (each integration-test binary is standalone, so the strategies live
/// here too).
mod lfi_test_profiles {
    use lfi::profile::{ErrorReturn, FaultProfile, FunctionProfile, SideEffect};
    use proptest::prelude::*;

    fn arb_side_effect() -> impl Strategy<Value = SideEffect> {
        (0u32..3, "[a-z]{3,10}", 0u32..0xffff, -64i64..64).prop_map(|(kind, module, offset, value)| match kind {
            0 => SideEffect::tls(module, offset, value),
            1 => SideEffect::global(module, offset, value),
            _ => SideEffect::output_arg(module, offset % 8, value),
        })
    }

    pub fn arb_profile() -> impl Strategy<Value = FaultProfile> {
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
}

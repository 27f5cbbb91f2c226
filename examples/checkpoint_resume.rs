//! Crash-safe incremental checkpointing: an exploration journals one
//! O(delta) record per batch into an `lfi-store` write-ahead journal, gets
//! "killed" mid-run, recovers its state from the journal (byte-identical to
//! the last durable point), and finishes the campaign exactly as an
//! uninterrupted run would have.
//!
//! Run with `cargo run --example checkpoint_resume`.

use lfi::controller::FnWorkload;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::store::Journal;
use lfi::Lfi;

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

/// The log-structured writer of `examples/explore_library.rs`: survives
/// every documented failure, dies on the undocumented EIO from `close`.
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

fn main() {
    let dir = std::env::temp_dir().join(format!("lfi-checkpoint-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("exploration.lfij");

    // Profile the corpus libc (120 exports) against the synthetic kernel.
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 120).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));

    // Phase 1: explore with a write-ahead journal — a full snapshot at
    // creation, then one delta record per batch.
    let writer = FnWorkload::shared("log-writer", setup, workload);
    let mut explorer = lfi.explore(&Exhaustive, &["libc.so.6"]).unwrap().seed(77).batch_size(6);
    let mut journal = Journal::create(&journal_path, &explorer.store()).unwrap();
    let mut batches = 0u32;
    for _ in 0..3 {
        let report = explorer.step_workload(&writer).expect("the exploration has more than three batches");
        journal.append(&explorer.take_delta(), || explorer.store()).unwrap();
        batches += 1;
        println!(
            "batch {batches}: {} cases run — journal at {} deltas ({} bytes)",
            report.outcomes.len(),
            journal.appended(),
            std::fs::metadata(&journal_path).unwrap().len(),
        );
    }
    let durable = explorer.store();
    drop(journal);
    drop(explorer);
    println!("\n*** kill: the exploring process is gone; only the journal file remains ***\n");

    // Phase 2: a fresh process recovers the journal.  Torn tails would be
    // truncated here; what comes back is exactly the last durable state.
    let (mut journal, recovered) = Journal::open(&journal_path).unwrap();
    assert_eq!(recovered, durable, "recovery is byte-identical to the pre-kill state");
    println!(
        "recovered batch index {} with {} frontier cells pending; {} bytes of journal",
        recovered.batch_index,
        recovered.frontier.len(),
        std::fs::metadata(&journal_path).unwrap().len(),
    );

    // Phase 3: resume and finish, journaling onward from a compacted base.
    let mut resumed = lfi.resume_exploration(&recovered, &["libc.so.6"]).unwrap();
    journal.compact(&recovered).unwrap();
    let mut crash_batch = None;
    while let Some(_report) = resumed.step_workload(&writer) {
        journal.append(&resumed.take_delta(), || resumed.store()).unwrap();
        batches += 1;
        if crash_batch.is_none() && resumed.crash_found() {
            crash_batch = Some(batches);
            println!("batch {batches}: found the seeded crash cluster");
        }
    }
    let summary = resumed.coverage_summary();
    println!(
        "\nfinished after {batches} batches: {} cells executed of {} universe, {} triggered, frontier drained to {}",
        summary.executed, summary.universe, summary.triggered, summary.frontier_remaining,
    );
    assert_eq!(summary.frontier_remaining, 0);
    assert!(resumed.crash_found(), "the EIO-on-close crash survives the kill+resume");

    // The journal now holds the finished state: one more recovery proves it.
    drop(journal);
    let (_, final_state) = Journal::open(&journal_path).unwrap();
    assert_eq!(final_state, resumed.store(), "the finished run is durable");
    println!(
        "journal recovers the finished exploration: {} bytes on disk",
        std::fs::metadata(&journal_path).unwrap().len()
    );

    std::fs::remove_dir_all(&dir).ok();
}

//! Coverage-guided exploration of the libc-120 corpus: instead of running
//! the full exhaustive campaign, the `Explorer` probes which functions the
//! workload actually reaches, prunes the rest of the fault space, and
//! escalates around the first crash — then snapshots its state to a
//! resumable XML `ExplorationStore`.
//!
//! Run with `cargo run --example explore_library`.

use lfi::controller::FnWorkload;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::ExplorationStore;
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
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

/// A log-structured writer that survives every documented failure but dies
/// on the §3.3 undocumented EIO from `close` (unflushed data lost).
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
    // Profile the corpus libc (120 exports) against the synthetic kernel.
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 120).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));

    let exhaustive = lfi.campaign(&Exhaustive, &["libc.so.6"]).unwrap().case_list().len();
    println!("exhaustive campaign over libc-120: {exhaustive} test cases");

    // The explorer walks the same fault space adaptively.
    let mut explorer = lfi
        .explore(&Exhaustive, &["libc.so.6"])
        .unwrap()
        .seed(2009)
        .batch_size(12)
        .halt_on_crash(true);
    println!("fault-space universe: {} cells", explorer.universe_len());

    // The log-structured writer as a shared, named Workload: the explorer
    // consumes each batch campaign's event stream while this object drives
    // every case.
    let writer = FnWorkload::shared("log-writer", setup, workload);
    let report = explorer.run_workload(&writer);

    let coverage = report.coverage;
    println!(
        "\nexplored in {} batches: {} cases run ({:.0}% of exhaustive), {} injections",
        explorer.batch_index(),
        report.cases_executed,
        report.cases_executed as f64 * 100.0 / exhaustive as f64,
        report.injections_performed,
    );
    println!(
        "coverage: {} cells triggered, {} planned-but-unreached, {} of 120 functions pruned by the probe",
        coverage.triggered, coverage.unreached, coverage.pruned_functions,
    );

    println!("\n== outcome clusters ==");
    for cluster in &report.clusters {
        println!(
            "  {} x{} via {}() cell (call #{}, retval {}, errno {:?}) — e.g. {}",
            cluster.outcome,
            cluster.count,
            cluster.function,
            cluster.example.call_ordinal,
            cluster.example.retval,
            cluster.example.errno,
            cluster.example_case,
        );
    }
    let crash = report.crash_clusters().next().expect("the seeded EIO-on-close crash is found");
    assert_eq!(crash.function.as_str(), "close");
    assert_eq!(crash.example.errno, Some(5), "the undocumented EIO");
    assert!(
        (report.cases_executed as usize) * 4 <= exhaustive,
        "adaptive exploration stays within a quarter of the exhaustive budget"
    );

    // Snapshot the full exploration state; a later process resumes from the
    // XML with `Lfi::resume_exploration` and continues deterministically.
    let store = explorer.store();
    let xml = store.to_xml();
    println!("\nexploration store: {} bytes of XML (round-trips losslessly)", xml.len());
    assert_eq!(ExplorationStore::from_xml(&xml).unwrap(), store);
    let resumed = lfi.resume_exploration(&store, &["libc.so.6"]).unwrap();
    println!(
        "resumed explorer: batch index {}, {} cells still on the frontier",
        resumed.batch_index(),
        resumed.frontier_len(),
    );
}

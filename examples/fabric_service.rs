//! The campaign fabric as a long-running service: three tenants share one
//! work-stealing worker fleet — the §6.1 Pidgin login and MySQL suite from
//! the apps registry plus an explore-style sweep of a log-structured writer
//! — while a wire client watches over TCP, a rules monitor reads one job's
//! event stream over its own TCP client, and every job's state stays
//! checkpointable as a resumable `ExplorationStore`.
//!
//! Run with `cargo run --example fabric_service`.

use std::time::Duration;

use lfi::apps::workloads;
use lfi::controller::FnWorkload;
use lfi::explore::OutcomeClass;
use lfi::fabric::{FabricClient, JobEventKind, JobId, JobSpec};
use lfi::rules::{Action, Cmp, Condition, JobMonitor, Metric, Rule, RuleSet};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};
use lfi::Lfi;

fn writer_setup() -> Process {
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

/// The log-structured writer from the explore example: survives documented
/// failures, dies on the undocumented EIO from `close`.
fn writer_run(process: &mut Process) -> ExitStatus {
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

/// One fault cell per `(function, ordinal)` pair, all with the same action.
fn sweep(function: &str, ordinals: std::ops::RangeInclusive<u64>, retval: i64, errno: i64) -> Vec<PlanEntry> {
    ordinals
        .map(|ordinal| PlanEntry {
            function: function.into(),
            trigger: Trigger::on_call(ordinal),
            action: FaultAction::return_value(retval).with_errno(errno),
        })
        .collect()
}

fn plan_of(entries: Vec<PlanEntry>) -> Plan {
    entries.into_iter().fold(Plan::new(), Plan::entry)
}

fn main() {
    // The fleet: four workers, the apps registry plus the local writer.
    let fabric = Lfi::new()
        .fabric()
        .workers(4)
        .registry(workloads::registry())
        .register(FnWorkload::new("log-writer", writer_setup, writer_run))
        .build();
    println!("fabric up: workloads {:?}", fabric.workload_names());

    // Three tenants, submitted back to back; the scheduler shares the
    // fleet's worker time between them instead of running them in order.
    let pidgin = fabric
        .submit(JobSpec::new("pidgin-eintr", "pidgin-login", plan_of(sweep("write", 1..=4, -1, 4))))
        .expect("pidgin-login is registered");
    let mysql = fabric
        .submit(
            JobSpec::new("mysql-enomem", "mysql-suite", plan_of(sweep("malloc", 21..=26, 0, 12)))
                .weight(2) // the long suite gets a double share of worker time
                .halt_on_crash(),
        )
        .expect("mysql-suite is registered");
    let writer = {
        let mut entries = sweep("open", 1..=1, -1, 13);
        entries.extend(sweep("write", 1..=4, -1, 5));
        entries.extend(sweep("fsync", 1..=1, -1, 5));
        entries.extend(sweep("close", 1..=2, -1, 5));
        fabric
            .submit(JobSpec::new("writer-sweep", "log-writer", plan_of(entries)).lease_batch(3))
            .expect("log-writer is registered")
    };
    let jobs: [(JobId, &str); 3] = [(pidgin, "pidgin-eintr"), (mysql, "mysql-enomem"), (writer, "writer-sweep")];

    // Tail every job's event stream (cursor-polled, so nothing is missed or
    // re-read) until all three are terminal.
    let mut cursors = [0u64; 3];
    let mut quiet = [0usize; 3];
    loop {
        let mut all_terminal = true;
        for (slot, (job, label)) in jobs.iter().enumerate() {
            let (next, events) = fabric.events(*job, cursors[slot], 64).expect("submitted job");
            cursors[slot] = next;
            for event in events {
                match event.kind {
                    JobEventKind::State(state) => println!("[{label}] -> {state}"),
                    JobEventKind::Finished { case, outcome, .. } if outcome != OutcomeClass::Success => {
                        println!("[{label}] {case}: {outcome}");
                    }
                    JobEventKind::Requeued { cells } => println!("[{label}] {cells} cells requeued"),
                    _ => quiet[slot] += 1,
                }
            }
            all_terminal &= fabric.status(*job).expect("submitted job").state.is_terminal();
        }
        if all_terminal {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("(plus {} quieter events across the three streams)", quiet.iter().sum::<usize>());

    // A wire client sees the same state over plain TCP.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let guard = fabric.serve_tcp(listener).expect("server thread");
    let mut client = FabricClient::tcp(guard.addr()).expect("connect");
    println!("\n== status over tcp ({}) ==", guard.addr());
    for (job, name, state) in client.jobs().expect("job listing") {
        let snapshot = client.status(job).expect("status");
        println!(
            "  job {job} {name}: {state}, {}/{} cells finished, {} crashes, {} clusters",
            snapshot.progress.finished, snapshot.cases, snapshot.progress.crashes, snapshot.clusters,
        );
    }
    let checkpoint = client.checkpoint(writer).expect("checkpoint over the wire");
    println!(
        "writer-sweep checkpoint: {} executed / {} frontier cells, {} bytes of resumable XML",
        checkpoint.executed.len(),
        checkpoint.frontier.len(),
        checkpoint.to_xml().len(),
    );

    // A rules monitor on the writer sweep, over a TCP client of its own:
    // one `emit` decision for every event that lands a crash.
    let crash_landed = Condition::RateOfChange { metric: Metric::Crashes, window: 1, cmp: Cmp::Gt, value: 0.0 };
    let count = Action::EmitMetric { name: "writer/crashes".into(), value: 1.0 };
    let set = RuleSet::new().rule(Rule::global("count-crashes", crash_landed, [count]));
    let mut monitor = JobMonitor::new(FabricClient::tcp(guard.addr()).expect("connect"), writer, set);
    while monitor.poll(64).expect("the server answers") > 0 {}
    let engine = monitor.engine();
    println!(
        "writer-sweep monitor: {} decisions over {} events, {} crashes in {} clusters",
        engine.decisions().len(),
        monitor.cursor(),
        engine.state().crashes,
        engine.state().clusters(),
    );
    guard.stop();

    // Drain the fleet and fold every tenant's final report.
    println!("\n== final reports ==");
    for report in fabric.drain() {
        println!(
            "  {} ({}): {}/{} executed, {} triggered, {} crashes, {} failures, {} skipped",
            report.name,
            report.state,
            report.coverage.executed,
            report.coverage.universe,
            report.coverage.triggered,
            report.coverage.crashes,
            report.coverage.failures,
            report.coverage.skipped,
        );
        for cluster in &report.clusters {
            println!(
                "    {} x{} via {}() (call #{}, errno {:?}) — e.g. {}",
                cluster.outcome,
                cluster.count,
                cluster.function,
                cluster.example.call_ordinal,
                cluster.example.errno,
                cluster.example_case,
            );
        }
    }
}

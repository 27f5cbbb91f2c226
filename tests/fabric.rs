//! Integration coverage for the campaign fabric: crash-safe lease handoff
//! under a mid-batch worker death, worker-time fairness across unequal
//! tenants, the short lane beside a busy worker, the wire protocol over
//! both transports, the bound on wire lines, server shutdown with peers
//! and monitors still connected, journal recovery of killed and cancelled
//! jobs, and checkpoint/restore of a half-finished job into a fresh fabric.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lfi::controller::{FnWorkload, TestCase, Workload};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::ExplorationStore;
use lfi::fabric::{Fabric, FabricClient, JobEventKind, JobSpec, JobState, Request, Response, MAX_LINE_BYTES};
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::rules::{Action, Condition, JobMonitor, Metric, Rule, RuleSet};
use lfi::runtime::{ExitStatus, NativeLibrary, PooledProcess, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};
use lfi::Lfi;

fn reader_process() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    process
}

/// Calls `read` four times; any injected failure exits 1, clean runs exit 0.
fn read_four(process: &mut Process) -> ExitStatus {
    for _ in 0..4 {
        if process.call("read", &[3, 0, 8]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

/// `read` faults at every ordinal in `1..=ordinals` for each given errno:
/// `ordinals * errnos.len()` deterministic cells.
fn read_plan(ordinals: u64, errnos: &[i64]) -> Plan {
    let mut plan = Plan::new();
    for ordinal in 1..=ordinals {
        for &errno in errnos {
            plan = plan.entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(ordinal),
                action: FaultAction::return_value(-1).with_errno(errno),
            });
        }
    }
    plan
}

/// The named reader workload, with a panic trap: the `runs`-th workload run
/// panics (once) while `armed` — the fabric's crash boundary sees a worker
/// die mid-lease.
fn flaky_reader(
    armed: bool,
    panic_at: usize,
) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
    let armed = Arc::new(AtomicBool::new(armed));
    let runs = Arc::new(AtomicUsize::new(0));
    FnWorkload::new("flaky-reader", reader_process, move |process: &mut Process| {
        let n = runs.fetch_add(1, Ordering::SeqCst);
        if n == panic_at && armed.swap(false, Ordering::SeqCst) {
            panic!("simulated worker death mid-lease");
        }
        read_four(process)
    })
}

/// How long a held run waits for the test before giving up (a failing test
/// drops its [`Hold`], which releases the run at once).
const HOLD_LIMIT: Duration = Duration::from_secs(60);

/// The test's side of a held run: the run announces itself on `parked` and
/// then waits until `release` is sent (or dropped).
struct Hold {
    parked: Receiver<()>,
    release: Sender<()>,
}

impl Hold {
    /// Blocks until the held run has parked; the job's progress is then
    /// pinned at exactly the runs before it.
    fn wait_parked(&self) {
        self.parked.recv_timeout(HOLD_LIMIT).expect("the held run parks");
    }

    /// Lets the held run (and every later one) proceed.
    fn release(self) {
        let _ = self.release.send(());
    }
}

/// The named reader workload whose `hold_at`-th run (counting from 0)
/// parks until the test releases it.  With one fabric worker this stops a
/// job at an exact point of its progress, independent of how fast leases
/// execute.
fn held_reader(
    name: &str,
    hold_at: usize,
) -> (FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync>, Hold) {
    held(name, hold_at, read_four)
}

/// [`held_reader`] over any `run`.
fn held(
    name: &str,
    hold_at: usize,
    run: fn(&mut Process) -> ExitStatus,
) -> (FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync>, Hold) {
    let runs = AtomicUsize::new(0);
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let gate = Mutex::new((parked_tx, release_rx));
    let workload = FnWorkload::new(name, reader_process, move |process: &mut Process| {
        if runs.fetch_add(1, Ordering::SeqCst) == hold_at {
            let gate = gate.lock().expect("only the held run takes the gate");
            let _ = gate.0.send(());
            let _ = gate.1.recv_timeout(HOLD_LIMIT);
        }
        run(process)
    });
    (workload, Hold { parked, release })
}

#[test]
fn killed_worker_loses_no_cell_and_double_counts_none() {
    // 12 cells: a one-cell probe, then leases of the cap of 4; the 6th
    // workload run (the first of the third lease) kills its worker.  The
    // lease goes unacked, its cells return to the frontier, and the job
    // still completes.
    let run_to_completion = |armed: bool| {
        let fabric = Fabric::builder().workers(1).register(flaky_reader(armed, 5)).build();
        let job = fabric
            .submit(JobSpec::new("handoff", "flaky-reader", read_plan(4, &[5, 9, 11])).lease_batch(4))
            .expect("workload registered");
        assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
        let snapshot = fabric.status(job).expect("job exists");
        let report = fabric.report(job).expect("job exists");
        let checkpoint = fabric.checkpoint(job).expect("job exists");
        drop(fabric);
        (snapshot, report, checkpoint.to_xml())
    };

    let (killed_snapshot, killed_report, killed_xml) = run_to_completion(true);
    let (clean_snapshot, clean_report, clean_xml) = run_to_completion(false);

    // The interrupted run really was interrupted...
    assert!(killed_snapshot.requeued >= 1, "the dead worker's lease was requeued");
    assert_eq!(clean_snapshot.requeued, 0);
    assert!(killed_snapshot.progress.started > clean_snapshot.progress.started, "requeued cells re-ran");

    // ...yet no cell was lost or double-counted: coverage, clusters and the
    // serialized checkpoint are byte-identical to the uninterrupted run.
    assert_eq!(killed_report.coverage.universe, 12);
    assert_eq!(killed_report.coverage.executed, 12);
    assert_eq!(killed_report.coverage.triggered, 12);
    assert_eq!(killed_report.coverage.failures, 12);
    assert_eq!(killed_report, clean_report);
    assert_eq!(killed_xml, clean_xml);
}

#[test]
fn small_tenants_are_not_starved_by_large_ones() {
    // A 1000-cell sweep is submitted first and would monopolize a naive
    // FIFO fleet; deficit scheduling interleaves the 10-cell smoke job.  The
    // evidence is recorded inside the workloads: how many sweep cases had
    // run when the smoke job's last case ran — not a status read after the
    // smoke job's completion wakes the test, which fast leases can outrun.
    let sweep_runs = Arc::new(AtomicUsize::new(0));
    let sweep_at_smoke_end = Arc::new(AtomicUsize::new(usize::MAX));
    let sweep = {
        let sweep_runs = Arc::clone(&sweep_runs);
        FnWorkload::new("sweep-reader", reader_process, move |process: &mut Process| {
            sweep_runs.fetch_add(1, Ordering::SeqCst);
            read_four(process)
        })
    };
    let smoke = {
        let smoke_runs = AtomicUsize::new(0);
        let sweep_at_smoke_end = Arc::clone(&sweep_at_smoke_end);
        FnWorkload::new("smoke-reader", reader_process, move |process: &mut Process| {
            if smoke_runs.fetch_add(1, Ordering::SeqCst) + 1 == 10 {
                sweep_at_smoke_end.store(sweep_runs.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            read_four(process)
        })
    };
    let fabric = Fabric::builder().workers(2).register(sweep).register(smoke).build();
    let big = fabric
        .submit(JobSpec::new("sweep", "sweep-reader", read_plan(250, &[5, 9, 11, 22])))
        .expect("workload registered");
    let small = fabric
        .submit(JobSpec::new("smoke", "smoke-reader", read_plan(10, &[5])))
        .expect("workload registered");

    assert_eq!(fabric.wait_job(small, Duration::from_secs(60)), Some(JobState::Done));
    let big_finished = sweep_at_smoke_end.load(Ordering::SeqCst);
    assert!(
        big_finished < 500,
        "the small job finished while the big one was at {big_finished}/1000 — fair shares, not FIFO"
    );

    // No need to run the sweep to the end: cancel is part of the contract.
    assert_eq!(fabric.cancel(big), Some(JobState::Cancelled));
    assert!(fabric.wait_idle(Duration::from_secs(60)));
    let report = fabric.report(big).expect("job exists");
    assert_eq!(report.state, JobState::Cancelled);
    assert_eq!(report.coverage.executed + report.coverage.skipped, 1000, "every cell accounted for");
}

/// The reader, napping `nap` in each case; `peak` records the most of its
/// cases that ran at once.
fn napping_reader(
    name: &str,
    nap: Duration,
    peak: &Arc<AtomicUsize>,
) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
    let running = AtomicUsize::new(0);
    let peak = Arc::clone(peak);
    FnWorkload::new(name, reader_process, move |process: &mut Process| {
        peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        std::thread::sleep(nap);
        running.fetch_sub(1, Ordering::SeqCst);
        read_four(process)
    })
}

#[test]
fn a_one_worker_fabric_serves_a_short_job_on_its_lane_and_never_runs_a_job_twice_at_once() {
    // The only worker parks inside the long job's probe; the short job
    // still completes, on the lane.  Then two more tenants and the long job
    // share the worker and the lane, and no job ever has two cases running.
    let (long, hold) = held_reader("long-reader", 0);
    let peaks: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let fabric = Fabric::builder()
        .workers(1)
        .register(long)
        .register(napping_reader("short-reader", Duration::from_micros(100), &peaks[0]))
        .register(napping_reader("mid-reader", Duration::from_millis(1), &peaks[1]))
        .register(napping_reader("fine-reader", Duration::from_micros(200), &peaks[2]))
        .build();
    let long = fabric
        .submit(JobSpec::new("long", "long-reader", read_plan(10, &[5, 9])))
        .expect("workload registered");
    hold.wait_parked();
    let short = fabric
        .submit(JobSpec::new("short", "short-reader", read_plan(16, &[5, 9])))
        .expect("workload registered");
    assert_eq!(fabric.wait_job(short, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(fabric.status(long).expect("job exists").progress.finished, 0, "the worker is still parked");
    hold.release();

    let others = [("mid", "mid-reader", 30), ("fine", "fine-reader", 60)].map(|(name, workload, cells)| {
        fabric
            .submit(JobSpec::new(name, workload, read_plan(cells, &[5])))
            .expect("workload registered")
    });
    for job in [long].into_iter().chain(others) {
        assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    }
    let peaks: Vec<usize> = peaks.iter().map(|peak| peak.load(Ordering::SeqCst)).collect();
    assert_eq!(peaks, [1, 1, 1], "the most cases of one job that ran at once");
}

#[test]
fn an_inert_fabric_runs_nothing() {
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = {
        let runs = Arc::clone(&runs);
        FnWorkload::new("reader", reader_process, move |process: &mut Process| {
            runs.fetch_add(1, Ordering::SeqCst);
            read_four(process)
        })
    };
    let fabric = Fabric::builder().workers(0).register(counted).build();
    let job = fabric
        .submit(JobSpec::new("staged", "reader", read_plan(4, &[5])))
        .expect("workload registered");
    assert_eq!(fabric.wait_job(job, Duration::from_millis(200)), Some(JobState::Queued));
    assert_eq!(runs.load(Ordering::SeqCst), 0);
    let snapshot = fabric.status(job).expect("job exists");
    assert_eq!((snapshot.pending, snapshot.outstanding, snapshot.progress.started), (4, 0, 0));
}

#[test]
fn cheap_tenant_is_served_by_worker_time_not_cell_count() {
    // One worker.  The first tenant's cells each hold it for ~20 ms; a
    // 32-cell tenant of microsecond cells is submitted right behind it.
    // Charged by worker time, the cheap tenant is done after at most the
    // expensive cell already running and the next — counted by cell, it
    // would trail a whole lease of expensive cells per lease of its own.
    // The expensive cells sleep rather than spin: the fabric charges the
    // worker's wall time either way, and a sleeping cell leaves the CPU to
    // the tests running beside this one.
    const HOLD: Duration = Duration::from_millis(20);
    let expensive_runs = Arc::new(AtomicUsize::new(0));
    let expensive_at_cheap_end = Arc::new(AtomicUsize::new(usize::MAX));
    let expensive = {
        let expensive_runs = Arc::clone(&expensive_runs);
        FnWorkload::new("slow-reader", reader_process, move |process: &mut Process| {
            expensive_runs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(HOLD);
            read_four(process)
        })
    };
    let cheap = {
        let cheap_runs = AtomicUsize::new(0);
        let expensive_at_cheap_end = Arc::clone(&expensive_at_cheap_end);
        FnWorkload::new("cheap-reader", reader_process, move |process: &mut Process| {
            if cheap_runs.fetch_add(1, Ordering::SeqCst) + 1 == 32 {
                expensive_at_cheap_end.store(expensive_runs.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            read_four(process)
        })
    };
    let fabric = Fabric::builder().workers(1).register(expensive).register(cheap).build();
    let slow = fabric
        .submit(JobSpec::new("slow", "slow-reader", read_plan(8, &[5, 9])))
        .expect("workload registered");
    let fast = fabric
        .submit(JobSpec::new("fast", "cheap-reader", read_plan(16, &[5, 9])))
        .expect("workload registered");

    assert_eq!(fabric.wait_job(fast, Duration::from_secs(60)), Some(JobState::Done));
    let expensive_ran = expensive_at_cheap_end.load(Ordering::SeqCst);
    assert!(expensive_ran <= 2, "{expensive_ran} expensive cells ran before the cheap tenant's last");

    assert_eq!(fabric.cancel(slow), Some(JobState::Cancelled));
    assert!(fabric.wait_idle(Duration::from_secs(60)));
    let report = fabric.report(slow).expect("job exists");
    assert_eq!(report.coverage.executed + report.coverage.skipped, 16, "every cell accounted for");
}

#[test]
fn wire_protocol_round_trips_over_duplex_and_tcp() {
    let fabric = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();

    // In-process duplex transport.
    let mut duplex = fabric.connect();
    duplex.ping().expect("pong");
    let job = duplex
        .submit(JobSpec::new("wired", "reader", read_plan(2, &[5])))
        .expect("submit over the wire");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    let status = duplex.status(job).expect("status over the wire");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.progress.finished, 2);
    assert_eq!(duplex.status(job).expect("snapshots are stable"), fabric.status(job).expect("job exists"));
    let (next, events) = duplex.events(job, 0, 64).expect("events over the wire");
    assert_eq!(next, events.len() as u64, "dense sequence from 0");
    assert!(events.iter().any(|e| matches!(e.kind, JobEventKind::State(JobState::Done))));
    assert!(events.iter().any(|e| matches!(&e.kind, JobEventKind::Finished { injections: 1, .. })));
    let checkpoint = duplex.checkpoint(job).expect("checkpoint over the wire");
    assert_eq!(checkpoint.to_xml(), fabric.checkpoint(job).expect("job exists").to_xml());
    let listed = duplex.jobs().expect("job listing");
    assert_eq!(listed, vec![(job, "wired".to_owned(), JobState::Done)]);

    // Plain TCP, same protocol.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let guard = fabric.serve_tcp(listener).expect("server thread");
    let mut tcp = lfi::fabric::FabricClient::tcp(guard.addr()).expect("connect");
    tcp.ping().expect("pong over TCP");
    assert!(tcp.submit(JobSpec::new("nope", "unregistered", Plan::new())).is_err(), "unknown workload is an error");
    let second = tcp
        .submit(JobSpec::new("tcp-job", "reader", read_plan(1, &[5])))
        .expect("submit over TCP");
    assert_ne!(second, job, "ids are never reused");
    assert_eq!(tcp.cancel(second).map(|s| s.is_terminal()), Ok(true), "cancel lands before or after execution");
    tcp.drain().expect("drain over TCP");
    assert!(fabric.is_draining());
    guard.stop();
    let reports = fabric.drain();
    assert_eq!(reports.len(), 2);
}

#[test]
fn oversize_wire_lines_get_an_error_and_the_server_keeps_serving() {
    // The largest request the repository sends — an exhaustive libc-120
    // submit, plan escaped — fits the bound with room to spare.
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 120).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    let plan = lfi.scenario(&Exhaustive, &["libc.so.6"]).expect("libc profiles");
    let spec = JobSpec::new("libc-120-exhaustive", "reader", plan);
    let submit = Request::Submit { spec: spec.clone() }.encode();
    assert!(submit.len() * 4 <= MAX_LINE_BYTES, "a {}-byte submit line", submit.len());

    let fabric = Fabric::builder()
        .workers(0)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let guard = fabric
        .serve_tcp(std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port"))
        .expect("server");

    // One byte over the bound: an `error` response, then the server closes.
    let mut peer = std::net::TcpStream::connect(guard.addr()).expect("connect");
    let mut oversize = vec![b'x'; MAX_LINE_BYTES + 1];
    oversize.push(b'\n');
    peer.write_all(&oversize).expect("send the oversize line");
    let mut reader = BufReader::new(peer);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a response line");
    match Response::parse(reply.trim_end()) {
        Ok(Response::Error { message }) => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert_eq!(reader.read(&mut [0u8; 16]).expect("orderly close"), 0, "the server closed the connection");

    // Other connections are still served, the big submit included.
    let mut client = FabricClient::tcp(guard.addr()).expect("connect again");
    client.ping().expect("pong after the oversize peer");
    let job = client.submit(spec).expect("the exhaustive submit fits");
    assert_eq!(client.status(job).expect("status").progress.finished, 0);
    guard.stop();
    drop(client);
}

/// Dropping the server guard closes connections whose peers are still
/// connected instead of waiting for them to hang up.
#[test]
fn dropping_the_server_guard_closes_connected_peers() {
    let fabric = Fabric::builder().workers(0).build();
    let guard = fabric
        .serve_tcp(std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port"))
        .expect("server");
    let mut client = FabricClient::tcp(guard.addr()).expect("connect");
    client.ping().expect("pong");

    let (dropped_tx, dropped_rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(guard);
        let _ = dropped_tx.send(());
    });
    dropped_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the guard drops while a peer is connected");
    dropper.join().expect("dropping the guard does not panic");
    assert!(client.ping().is_err(), "the server closed the connection");
}

#[test]
fn a_monitor_whose_server_is_gone_gets_an_error_not_an_empty_page() {
    let fabric = Fabric::builder()
        .workers(0)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let job = fabric
        .submit(JobSpec::new("watched", "reader", read_plan(2, &[5])))
        .expect("workload registered");
    let guard = fabric
        .serve_tcp(std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port"))
        .expect("server");
    let mut monitor = JobMonitor::new(FabricClient::tcp(guard.addr()).expect("connect"), job, RuleSet::new());
    assert_eq!(monitor.poll(64), Ok(1), "the job's queued state");
    assert_eq!(monitor.poll(64), Ok(0), "then the stream head");
    drop(guard);
    assert!(monitor.poll(64).is_err(), "a closed connection is no stream head");
    assert_eq!(monitor.cursor(), 1);
}

#[test]
fn journaled_job_survives_a_kill_and_recovers_byte_identically() {
    let reader = || FnWorkload::new("reader", reader_process, read_four);
    let dir = std::env::temp_dir().join(format!("lfi-fabric-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("resumable.journal");
    // 40 cells in leases of 1, so the journal accumulates enough acks to
    // cross its compaction threshold while the job completes.
    let spec = || JobSpec::new("resumable", "reader", read_plan(10, &[5, 9, 11, 22])).lease_batch(1);

    // Live fabric: journal from submission, make partial progress, quiesce,
    // then "die" without draining or checkpointing by hand.  The seventh
    // case holds the only worker until the job is paused, so the kill
    // lands mid-run however fast leases execute.
    let (held, hold) = held_reader("reader", 6);
    let first = Fabric::builder().workers(1).register(held).build();
    let job = first.submit(spec()).expect("workload registered");
    first.journal_job(job, &path).expect("journal attaches");
    hold.wait_parked();
    first.pause(job);
    hold.release();
    assert!(first.wait_idle(Duration::from_secs(60)), "outstanding leases settle after pause");
    assert_eq!(first.journal_error(job), None);
    let live = first.checkpoint(job).expect("job exists");
    let done_before_kill = first.status(job).expect("job exists").progress.finished;
    assert!(done_before_kill < 40, "the kill lands mid-run");
    drop(first);

    // An inert fabric (zero workers) recovers the journal without running
    // anything: the recovered state is byte-identical to the last durable
    // checkpoint of the dead fabric.
    let inert = Fabric::builder().workers(0).register(reader()).build();
    let recovered = inert.recover_job(spec(), &path).expect("journal recovers");
    let store = inert.checkpoint(recovered).expect("job exists");
    assert_eq!(store, live);
    assert_eq!(store.to_xml(), live.to_xml());
    assert_eq!(
        inert.status(recovered).expect("job exists").progress.finished,
        done_before_kill,
        "every journaled ack replayed, nothing else"
    );
    drop(inert);

    // A working fabric recovers the same journal and finishes the job,
    // journaling (and compacting) as it goes.
    let second = Fabric::builder().workers(2).register(reader()).build();
    let resumed = second.recover_job(spec(), &path).expect("journal recovers");
    assert_eq!(second.wait_job(resumed, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(second.journal_error(resumed), None);
    let report = second.report(resumed).expect("job exists");
    assert_eq!(report.coverage.executed, 40, "union of pre-kill and post-recovery work");
    let final_xml = second.checkpoint(resumed).expect("job exists").to_xml();
    drop(second);

    // The journal now holds the finished job; a third recovery and a clean
    // uninterrupted run both reproduce the same final checkpoint bytes.
    let third = Fabric::builder().workers(0).register(reader()).build();
    let done = third.recover_job(spec(), &path).expect("finished journal recovers");
    assert_eq!(third.status(done).expect("job exists").state, JobState::Done);
    assert_eq!(third.checkpoint(done).expect("job exists").to_xml(), final_xml);
    drop(third);

    let clean = Fabric::builder().workers(1).register(reader()).build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(clean.checkpoint(clean_job).expect("job exists").to_xml(), final_xml);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cancelled_journaled_job_recovers_its_skipped_cells_as_skipped() {
    let dir = std::env::temp_dir().join(format!("lfi-fabric-cancel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cancelled.journal");
    let spec = || JobSpec::new("cancelled", "reader", read_plan(10, &[5, 9, 11, 22])).lease_batch(1);

    // The seventh case holds the only worker while the job is cancelled:
    // the 33 pending cells are skipped at once, and the held lease lands
    // afterwards as the seventh executed cell.
    let (held, hold) = held_reader("reader", 6);
    let live_fabric = Fabric::builder().workers(1).register(held).build();
    let job = live_fabric.submit(spec()).expect("workload registered");
    live_fabric.journal_job(job, &path).expect("journal attaches");
    hold.wait_parked();
    assert_eq!(live_fabric.cancel(job), Some(JobState::Cancelled));
    hold.release();
    assert!(live_fabric.wait_idle(Duration::from_secs(60)), "the held lease settles after the cancel");
    assert_eq!(live_fabric.journal_error(job), None);
    let live = live_fabric.checkpoint(job).expect("job exists");
    assert_eq!((live.frontier.len(), live.executed.len(), live.unreached.len()), (0, 7, 33));
    drop(live_fabric);

    // Recovery reproduces the cancel: the skipped cells stay skipped
    // instead of coming back as pending work.
    let inert = Fabric::builder()
        .workers(0)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let recovered = inert.recover_job(spec(), &path).expect("journal recovers");
    assert_eq!(inert.checkpoint(recovered).expect("job exists").to_xml(), live.to_xml());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_restores_into_a_fresh_fabric() {
    // Run a job partially, pause it, checkpoint it, and hand the XML to a
    // second fabric — the union of both runs covers every cell exactly once.
    // The first case holds the only worker until the job is paused, so
    // exactly the job's first lease — its one-cell probe — runs before the
    // checkpoint.
    let spec = || JobSpec::new("resumable", "reader", read_plan(4, &[5, 9, 11])).lease_batch(4);

    let (held, hold) = held_reader("reader", 0);
    let first = Fabric::builder().workers(1).register(held).build();
    let job = first.submit(spec()).expect("workload registered");
    hold.wait_parked();
    assert!(first.pause(job).is_some());
    hold.release();
    assert!(first.wait_idle(Duration::from_secs(60)), "outstanding leases settle after pause");
    let parked = first.status(job).expect("job exists");
    assert!(!parked.state.is_terminal(), "paused, not finished");
    assert_eq!(parked.outstanding, 0);
    let xml = first.checkpoint(job).expect("job exists").to_xml();
    drop(first);

    let store = ExplorationStore::from_xml(&xml).expect("checkpoint parses");
    assert_eq!(store.executed.len() + store.frontier.len(), 12, "the checkpoint partitions the universe");
    assert_eq!(store.executed.len(), 1, "exactly the first lease (1 cell) ran before the pause");

    let second_runs = Arc::new(AtomicUsize::new(0));
    let counted = {
        let second_runs = Arc::clone(&second_runs);
        FnWorkload::new("reader", reader_process, move |process: &mut Process| {
            second_runs.fetch_add(1, Ordering::SeqCst);
            read_four(process)
        })
    };
    let second = Fabric::builder().workers(2).register(counted).build();
    let restored = second.submit_restored(spec(), &store).expect("workload registered");
    assert_eq!(second.wait_job(restored, Duration::from_secs(60)), Some(JobState::Done));
    let report = second.report(restored).expect("job exists");
    assert_eq!(report.coverage.universe, 12);
    assert_eq!(report.coverage.executed, 12, "base + resumed work covers every cell");
    assert_eq!(report.coverage.skipped, 0);
    let resumed = second.status(restored).expect("job exists");
    // The restored job's progress counts the checkpoint's cells too; the
    // second fabric's own runs are what shows no cell ran twice.
    assert_eq!(resumed.progress.finished, 12);
    assert_eq!(second_runs.load(Ordering::SeqCst) + store.executed.len(), 12, "no cell ran twice");

    // The stitched-together checkpoint equals one from an uninterrupted run.
    let final_xml = second.checkpoint(restored).expect("job exists").to_xml();
    drop(second);
    let clean = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(clean.checkpoint(clean_job).expect("job exists").to_xml(), final_xml);
}

/// The reader with a health check that vetoes every prepared process.
struct VetoedReader;

impl Workload for VetoedReader {
    fn name(&self) -> &str {
        "vetoed-reader"
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        reader_process().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        read_four(process)
    }

    fn health_check(&self, _process: &mut Process) -> bool {
        false
    }
}

#[test]
fn a_vetoed_cell_is_skipped_for_good_instead_of_leased_again() {
    let fabric = Fabric::builder().workers(1).register(VetoedReader).build();
    let job = fabric
        .submit(JobSpec::new("vetoed", "vetoed-reader", read_plan(3, &[5])))
        .expect("workload registered");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(10)), Some(JobState::Done));
    let snapshot = fabric.status(job).expect("job exists");
    assert_eq!((snapshot.progress.started, snapshot.requeued), (3, 0), "each cell is leased once");
    let checkpoint = fabric.checkpoint(job).expect("job exists");
    assert_eq!((checkpoint.executed.len(), checkpoint.unreached.len(), checkpoint.frontier.len()), (0, 3, 0));
}

/// Like [`read_four`], but a third read failing with EIO crashes the case.
fn read_four_crashing_on_the_third_eio(process: &mut Process) -> ExitStatus {
    for call in 1..=4 {
        if process.call("read", &[3, 0, 8]).unwrap_or(-1) < 0 {
            return match (call, process.state().errno()) {
                (3, 5) => ExitStatus::Crashed(Signal::Segv),
                _ => ExitStatus::Exited(1),
            };
        }
    }
    ExitStatus::Exited(0)
}

#[test]
fn a_job_monitor_controls_its_job_and_names_the_crashing_cell() {
    // Eight one-cell leases in cell order: the fifth run, read-c3-r-1-e5,
    // crashes, and the sixth parks while the monitor reads the stream.
    let watch = |control: Action| {
        let (workload, hold) = held("reader", 5, read_four_crashing_on_the_third_eio);
        let fabric = Fabric::builder().workers(1).register(workload).build();
        let job = fabric
            .submit(JobSpec::new("watched", "reader", read_plan(4, &[5, 9])).lease_batch(1))
            .expect("workload registered");
        hold.wait_parked();
        let set = RuleSet::new()
            .rule(
                Rule::per_symbol(
                    "escalate",
                    Condition::at_least(Metric::CrashClusters, 1.0),
                    [Action::EscalateSiblings],
                )
                .once(),
            )
            .rule(Rule::global("control", Condition::at_least(Metric::Crashes, 1.0), [control]).once());
        let mut monitor = JobMonitor::new(fabric.connect(), job, set);
        while monitor.poll(64).expect("the in-process client answers") > 0 {}
        let state = fabric.status(job).expect("job exists").state;
        hold.release();
        (state, monitor.engine().decision_log())
    };

    let (state, log) = watch(Action::Pause);
    assert_eq!(state, JobState::Paused, "{log}");
    assert!(log.contains("sym=read action=escalate-siblings cell=read@3 ret=-1 errno=5"), "{log}");
    let (state, log) = watch(Action::Cancel);
    assert_eq!(state, JobState::Cancelled, "{log}");
}

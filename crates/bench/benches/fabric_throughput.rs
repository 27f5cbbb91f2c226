//! Throughput of the campaign fabric against the pre-fabric baseline, and
//! its fairness when tenants' per-cell costs are skewed:
//!
//! * `multiplexed_3jobs` — three 16-cell jobs submitted together to one
//!   fabric with four workers; the worker-time scheduler interleaves their
//!   leases over the shared fleet;
//! * `back_to_back`      — the same 48 cells as three sequential
//!   `Campaign::run_workload` calls at parallelism 4, i.e. what three
//!   tenants would pay queuing for the machine one after another;
//! * `skewed_small_job`  — one worker; a tenant of 5 ms cells is submitted
//!   ahead of a tenant of 32 cheap cells; time from submission until the
//!   cheap tenant is `Done`;
//! * `skewed_drain`      — the same two tenants, submission to full drain.
//!
//! The acceptance bars: multiplexing stays close to the back-to-back
//! baseline (CI gates at 1.35x in fast mode) — the lease bookkeeping, event
//! fan-in and checkpoint-grade accounting must cost little next to the
//! per-case work; and the cheap tenant is served by worker time, finishing
//! in a fraction of the drain (CI gates `skewed_small_job × 3 ≤
//! skewed_drain`) rather than behind every expensive cell.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::{Campaign, FnWorkload, TestCase};
use lfi_fabric::{Fabric, JobId, JobSpec, JobState};
use lfi_runtime::{ExitStatus, NativeLibrary, Process};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// Cells per job, jobs per round, and dispatched calls per case: enough
/// per-case dispatch work that the numbers reflect scheduling overhead
/// amortized over real cases.
const CELLS_PER_JOB: u64 = 16;
const JOBS: usize = 3;
const CALLS_PER_CASE: i64 = 200;
const WORKERS: usize = 4;

/// Worker time each cell of the skewed benches' expensive tenant spins for,
/// and the two tenants' sizes.
const SPIN_CELL: Duration = Duration::from_millis(5);
const SPIN_CELLS: u64 = 8;
const CHEAP_CELLS: u64 = 32;

fn setup() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    process
}

fn workload(process: &mut Process) -> ExitStatus {
    let mut failures = 0;
    for i in 0..CALLS_PER_CASE {
        if process.call("read", &[3, 0, i & 0xff]).unwrap_or(-1) < 0 {
            failures += 1;
        }
    }
    ExitStatus::Exited(failures.min(1))
}

/// The expensive tenant's workload: every case spins for [`SPIN_CELL`].
fn spin_workload(process: &mut Process) -> ExitStatus {
    let spun = Instant::now();
    while spun.elapsed() < SPIN_CELL {
        std::hint::spin_loop();
    }
    workload(process)
}

/// A one-worker fabric with the expensive tenant submitted ahead of the
/// cheap one.
fn skewed_fabric() -> (Fabric, JobId) {
    let fabric = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("spinner", setup, spin_workload))
        .register(FnWorkload::new("reader", setup, workload))
        .build();
    fabric.submit(JobSpec::new("expensive", "spinner", job_plan(SPIN_CELLS))).unwrap();
    let cheap = fabric.submit(JobSpec::new("cheap", "reader", job_plan(CHEAP_CELLS))).unwrap();
    (fabric, cheap)
}

/// One job's faultload: `cells` cells on distinct call ordinals.
fn job_plan(cells: u64) -> Plan {
    (1..=cells).fold(Plan::new(), |plan, ordinal| {
        plan.entry(PlanEntry {
            function: "read".into(),
            trigger: Trigger::on_call(ordinal),
            action: FaultAction::return_value(-1).with_errno(5),
        })
    })
}

/// The same cells as explicit campaign test cases (the baseline path).
fn job_cases() -> Vec<TestCase> {
    (1..=CELLS_PER_JOB)
        .map(|ordinal| {
            TestCase::new(
                format!("case-{ordinal:02}"),
                Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(ordinal),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
            )
        })
        .collect()
}

fn bench_fabric_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_throughput");
    group.sample_size(10);

    group.bench_function("multiplexed_3jobs", |b| {
        b.iter(|| {
            let fabric = Fabric::builder()
                .workers(WORKERS)
                .register(FnWorkload::new("reader", setup, workload))
                .build();
            for tenant in 0..JOBS {
                fabric
                    .submit(JobSpec::new(format!("tenant-{tenant}"), "reader", job_plan(CELLS_PER_JOB)))
                    .unwrap();
            }
            let reports = fabric.drain();
            assert_eq!(reports.len(), JOBS);
            let executed: usize = reports.iter().map(|r| r.coverage.executed).sum();
            assert_eq!(executed, JOBS * CELLS_PER_JOB as usize);
            black_box(executed)
        })
    });

    group.bench_function("back_to_back", |b| {
        b.iter(|| {
            let mut executed = 0usize;
            for _ in 0..JOBS {
                let report = Campaign::new()
                    .cases(job_cases())
                    .parallelism(WORKERS)
                    .run_workload(FnWorkload::new("reader", setup, workload));
                executed += report.outcomes.len();
            }
            assert_eq!(executed, JOBS * CELLS_PER_JOB as usize);
            black_box(executed)
        })
    });

    group.bench_function("skewed_small_job", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let started = Instant::now();
                let (fabric, cheap) = skewed_fabric();
                assert_eq!(fabric.wait_job(cheap, Duration::from_secs(60)), Some(JobState::Done));
                total += started.elapsed();
                // Dropping the fabric cancels the expensive tenant, untimed.
            }
            total
        })
    });

    group.bench_function("skewed_drain", |b| {
        b.iter(|| {
            let (fabric, _) = skewed_fabric();
            let executed: usize = fabric.drain().iter().map(|r| r.coverage.executed).sum();
            assert_eq!(executed, (SPIN_CELLS + CHEAP_CELLS) as usize);
            black_box(executed)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fabric_throughput);
criterion_main!(benches);

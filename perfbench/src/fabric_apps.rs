//! `fabric-apps`: three tenants of different sizes on one fabric over the
//! `lfi_apps` registry, each journaled from submission, then recovered from
//! their journals into a fresh fabric.
//!
//! Per-case application work dominates (arena checkout, then hundreds to
//! thousands of calls through single-fault stubs); scheduling, leases and
//! journal appends are the shared overhead.  The store is used here as an
//! append-only writer plus a replaying reader, unlike its snapshot use in
//! `profile-survey`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi_controller::{TestCase, Workload, WorkloadRegistry};
use lfi_fabric::{Fabric, FabricHandle, JobEventKind, JobId, JobSpec, JobState};
use lfi_runtime::{ExitStatus, PooledProcess, Process};
use lfi_scenario::Plan;

use crate::hunt::{exhaustive_cells, libc_facade};
use crate::measure::{ms_since, per, Bench, Clock, Ctx, Measured, Named};
use crate::stats::{median, percentile, Stream};

/// The tenants in submission order, largest first, with the number of
/// exhaustive-plan cells each draws: `(registry workload, cells)`.  The
/// last one is the smallest by work, whose latency shows fairness.
pub const TENANTS: [(&str, usize); 3] = [("mysql-suite", 4), ("apache-static", 24), ("pidgin-login", 128)];

/// How long a round may take before the run gives up on it.
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);

/// A registry workload behind a wrapper that times its hooks (traced run).
struct TimedWorkload {
    inner: Arc<dyn Workload>,
    setup: Clock,
    health: Clock,
    run: Clock,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&self, case: &TestCase) -> PooledProcess {
        self.setup.time(|| self.inner.setup(case))
    }

    fn health_check(&self, process: &mut Process) -> bool {
        self.health.time(|| self.inner.health_check(process))
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        self.run.time(|| self.inner.run(process))
    }

    fn teardown(&self, process: &mut Process) {
        self.inner.teardown(process);
    }
}

/// The registry, the tenants' plans and their journal paths.
pub struct State {
    registry: WorkloadRegistry,
    plans: Vec<Plan>,
    journals: Vec<PathBuf>,
}

/// What one round measured, or why it failed.
struct Round {
    cells: usize,
    drain_ms: f64,
    small_ms: f64,
    recover_ms: f64,
    failed_cells: usize,
    attach_ms: f64,
    checkpoint_ms: f64,
    requeued: u64,
    journal_bytes: f64,
    journal_open_ms: f64,
}

fn spec(index: usize, plan: &Plan) -> JobSpec {
    let (workload, _) = TENANTS[index];
    JobSpec::new(format!("tenant-{workload}"), workload, plan.clone())
}

/// Whether `job` acked every one of its `cells` exactly once and ended
/// `Done` with a healthy journal.
fn job_ok(handle: &FabricHandle, job: JobId, cells: usize) -> bool {
    let (Some(status), Some(report)) = (handle.status(job), handle.report(job)) else {
        return false;
    };
    let Some((_, events)) = handle.events(job, 0, usize::MAX) else {
        return false;
    };
    let mut finished: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            JobEventKind::Finished { case, .. } => Some(case.as_str()),
            _ => None,
        })
        .collect();
    finished.sort_unstable();
    finished.dedup();
    status.state == JobState::Done
        && status.progress.finished == cells
        && status.requeued == 0
        && report.coverage.universe == cells
        && report.coverage.executed == cells
        && report.coverage.skipped == 0
        && finished.len() == cells
        && handle.journal_error(job).is_none()
}

fn round(state: &State, registry: &WorkloadRegistry, workers: usize, traced: bool) -> Round {
    let fabric = Fabric::builder().workers(workers).registry(registry.clone()).build();
    let handle = fabric.handle();
    let mut attach_ms = 0.0;
    let started = Instant::now();
    let mut jobs = Vec::new();
    for (index, plan) in state.plans.iter().enumerate() {
        let job = handle.submit(spec(index, plan)).expect("registry workload");
        let attach = Instant::now();
        handle.journal_job(job, &state.journals[index]).expect("journal file");
        attach_ms += ms_since(attach);
        jobs.push(job);
    }
    let small = *jobs.last().expect("three tenants");
    let small_done = handle.wait_job(small, ROUND_TIMEOUT);
    let small_ms = ms_since(started);
    fabric.drain();
    let drain_ms = ms_since(started);

    let cells: Vec<usize> = state.plans.iter().map(Plan::len).collect();
    let mut failed_cells = 0;
    let mut requeued = 0;
    let mut live = Vec::new();
    let checkpoint = Instant::now();
    for &job in &jobs {
        live.push(handle.checkpoint(job).map(|store| store.to_xml()));
    }
    let checkpoint_ms = ms_since(checkpoint);
    for (index, &job) in jobs.iter().enumerate() {
        requeued += handle.status(job).map_or(0, |s| s.requeued);
        if !job_ok(&handle, job, cells[index]) || (job == small && small_done != Some(JobState::Done)) {
            failed_cells += cells[index];
        }
    }

    let journal_bytes: f64 = state
        .journals
        .iter()
        .map(|path| std::fs::metadata(path).map_or(0.0, |m| m.len() as f64))
        .sum();
    let fresh = Fabric::builder().workers(workers).registry(registry.clone()).build();
    let recovered_handle = fresh.handle();
    let recover = Instant::now();
    let recovered: Vec<_> = state
        .plans
        .iter()
        .enumerate()
        .map(|(index, plan)| recovered_handle.recover_job(spec(index, plan), &state.journals[index]))
        .collect();
    let recover_ms = ms_since(recover);
    for (index, job) in recovered.into_iter().enumerate() {
        let same = job.ok().and_then(|job| recovered_handle.checkpoint(job)).map(|store| store.to_xml());
        if same.is_none() || same != live[index] {
            failed_cells += cells[index];
        }
    }
    fresh.drain();
    // Timed after recovery, so both read the journals from the page cache.
    let mut journal_open_ms = 0.0;
    if traced {
        let open = Instant::now();
        for path in &state.journals {
            let _ = lfi_store::Journal::open(path).expect("journal reopens");
        }
        journal_open_ms = ms_since(open);
    }
    Round {
        cells: cells.iter().sum(),
        drain_ms,
        small_ms,
        recover_ms,
        failed_cells: failed_cells.min(cells.iter().sum()),
        attach_ms,
        checkpoint_ms,
        requeued,
        journal_bytes,
        journal_open_ms,
    }
}

/// The marker type of the workload.
pub struct FabricApps;

impl Bench for FabricApps {
    type State = State;

    fn setup(ctx: &Ctx) -> State {
        let lfi = libc_facade();
        let cells = exhaustive_cells(&lfi);
        let mut stream = Stream::new(ctx.seed, 3);
        let plans = TENANTS
            .iter()
            .map(|&(_, count)| {
                stream
                    .sample(cells.len(), count)
                    .into_iter()
                    .fold(Plan::new(), |plan, i| plan.entry(cells[i].plan_entry()))
            })
            .collect();
        let journals = TENANTS.iter().map(|(name, _)| ctx.work_dir.join(format!("{name}.journal"))).collect();
        let state = State { registry: lfi_apps::workloads::registry(), plans, journals };
        // Warm-up round: fills every workload's process arena.
        round(&state, &state.registry, ctx.workers, false);
        state
    }

    fn measure(state: &mut State, ctx: &Ctx, budget: Duration, traced: bool) -> Measured {
        let timed: Vec<Arc<TimedWorkload>> = if traced {
            TENANTS
                .iter()
                .map(|(name, _)| {
                    Arc::new(TimedWorkload {
                        inner: state.registry.get(name).expect("registry workload"),
                        setup: Clock::default(),
                        health: Clock::default(),
                        run: Clock::default(),
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let registry = if traced {
            let mut registry = WorkloadRegistry::new();
            for workload in &timed {
                registry.register_arc(Arc::clone(workload) as Arc<dyn Workload>);
            }
            registry
        } else {
            state.registry.clone()
        };

        let mut out = Measured::default();
        let mut rounds = Vec::new();
        let started = Instant::now();
        while out.attempted == 0 || started.elapsed() < budget {
            let round = round(state, &registry, ctx.workers, traced);
            out.attempted += round.cells as u64;
            out.failed += round.failed_cells as u64;
            if round.failed_cells == 0 {
                rounds.push(round);
            }
        }
        out.wall_ms = ms_since(started);
        let count = rounds.len() as f64;
        let drain_total_ms: f64 = rounds.iter().map(|r| r.drain_ms).sum();
        let rates: Vec<f64> = rounds.iter().map(|r| r.cells as f64 / r.drain_ms * 1e3).collect();
        let recover_ms: Vec<f64> = rounds.iter().map(|r| r.recover_ms).collect();
        out.latency_ms = rounds.iter().map(|r| r.small_ms).collect();
        out.work_per_s = median(&rates);
        out.op_ms_mean = per(drain_total_ms, count);
        out.named = vec![
            Named::new("fabric_cells_per_s", out.work_per_s, "cells/s", format!("median of {} rounds", rounds.len())),
            Named::new("fabric_small_job_s", median(&out.latency_ms) / 1e3, "s", "p50"),
            Named::new("fabric_small_job_s_p90", percentile(&out.latency_ms, 90.0) / 1e3, "s", "p90"),
            Named::new("fabric_recover_ms", median(&recover_ms), "ms", "p50, three journals"),
        ];
        if traced {
            let app_ms: f64 = timed.iter().map(|w| w.setup.total_ms() + w.health.total_ms() + w.run.total_ms()).sum();
            let busy_ms = drain_total_ms * ctx.workers as f64;
            out.unaccounted = Some(per(busy_ms - app_ms, busy_ms));
            let jobs = count * TENANTS.len() as f64;
            let mut layers = Vec::new();
            for workload in &timed {
                let [setup, health, run] = match workload.name() {
                    "pidgin-login" => {
                        ["apps.pidgin-login.setup_us", "apps.pidgin-login.health_us", "apps.pidgin-login.run_us"]
                    }
                    "mysql-suite" => {
                        ["apps.mysql-suite.setup_us", "apps.mysql-suite.health_us", "apps.mysql-suite.run_us"]
                    }
                    "apache-static" => {
                        ["apps.apache-static.setup_us", "apps.apache-static.health_us", "apps.apache-static.run_us"]
                    }
                    other => unreachable!("{other} is not a tenant"),
                };
                layers.push((setup, workload.setup.mean_us()));
                layers.push((health, workload.health.mean_us()));
                layers.push((run, workload.run.mean_us()));
            }
            let sum = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
            layers.extend([
                ("fabric.overhead_ms", per(busy_ms - app_ms, count)),
                ("fabric.journal_attach_ms", per(sum(|r| r.attach_ms), jobs)),
                ("fabric.checkpoint_ms", per(sum(|r| r.checkpoint_ms), jobs)),
                ("fabric.requeued", per(sum(|r| r.requeued as f64), count)),
                ("store.journal_bytes", per(sum(|r| r.journal_bytes), count)),
                ("store.journal_open_ms", per(sum(|r| r.journal_open_ms), count)),
                ("fabric.replay_ms", per(sum(|r| r.recover_ms) - sum(|r| r.journal_open_ms), count)),
            ]);
            out.layers = layers;
        }
        out
    }
}

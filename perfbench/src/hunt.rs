//! `hunt-libc`: repeated explorer hunts for a seeded crash cell on libc-120.
//!
//! Each hunt draws a crash cell (function, errno, nth call) from the
//! exhaustive plan's cells and a synthetic workload that calls a seed-chosen
//! subset of exports, and runs `Lfi::explore(&Exhaustive, ..)` with
//! `halt_on_crash` until the crash cluster appears.  Cases are tiny, so the
//! per-batch fixed costs dominate: the probe batch, one campaign session per
//! batch, the plan rebuild and the outcome fold.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi_controller::{Campaign, CampaignReport, FnWorkload, TestCase, Workload};
use lfi_core::Lfi;
use lfi_corpus::{build_kernel, build_libc_scaled};
use lfi_explore::Explorer;
use lfi_isa::Platform;
use lfi_profiler::ProfilerOptions;
use lfi_runtime::{ExitStatus, NativeLibrary, Process, Signal, Symbol};
use lfi_scenario::{Exhaustive, FaultCell};

use crate::measure::{ms_since, per, span, Bench, Clock, Ctx, Measured, Named};
use crate::stats::{median, percentile, Stream};

/// The library under test.
pub const LIBC: &str = "libc.so.6";
/// Exports of the scaled libc (the ROADMAP's libc-120 corpus).
pub const EXPORTS: usize = 120;
/// Calls the synthetic workload makes to each of its functions per case;
/// every drawn crash cell has an ordinal no larger than this.
pub const CALLS_PER_FUNCTION: u64 = 10;
/// Exports one synthetic workload calls.
pub const FUNCTIONS_PER_HUNT: usize = 8;
/// Distinct hunts drawn per seed.  A run completes at least one pass over
/// them, so the tail percentiles have their ten samples beyond, and the
/// mix is large enough that the seed barely moves the means.
pub const HUNTS: usize = 2000;
/// What the synthetic libc returns on success; cells injecting this value
/// would be indistinguishable from success and are never drawn.
pub const SUCCESS: i64 = 0x5eed;

/// One hunt's inputs.
#[derive(Debug, Clone)]
pub struct HuntSpec {
    /// The cell whose injection crashes the workload.
    pub crash: FaultCell,
    /// The exports the workload calls, `crash.function` among them.
    pub functions: Vec<Symbol>,
    /// The explorer's seed.
    pub explorer_seed: u64,
}

/// A facade over libc-120 with the kernel image, heuristics on.
pub fn libc_facade() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, EXPORTS).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    lfi
}

/// The cells of the exhaustive plan over libc, in plan order.
pub fn exhaustive_cells(lfi: &Lfi) -> Vec<FaultCell> {
    lfi.exhaustive_scenario(&[LIBC]).expect("libc profiles").compile().cells()
}

/// Draws `count` hunts from `cells` with the seed's stream.
pub fn draw_hunts(cells: &[FaultCell], seed: u64, count: usize) -> Vec<HuntSpec> {
    let candidates: Vec<FaultCell> = cells
        .iter()
        .copied()
        .filter(|c| c.call_ordinal <= CALLS_PER_FUNCTION && c.retval != SUCCESS)
        .collect();
    let mut functions: Vec<Symbol> = cells.iter().map(|c| c.function).collect();
    functions.sort_by_key(|f| f.as_str());
    functions.dedup();
    let mut stream = Stream::new(seed, 2);
    (0..count)
        .map(|_| {
            let crash = candidates[stream.below(candidates.len())];
            let mut chosen = vec![crash.function];
            for index in stream.sample(functions.len(), FUNCTIONS_PER_HUNT) {
                if chosen.len() < FUNCTIONS_PER_HUNT && !chosen.contains(&functions[index]) {
                    chosen.push(functions[index]);
                }
            }
            chosen.sort_by_key(|f| f.as_str());
            HuntSpec { crash, functions: chosen, explorer_seed: stream.next_u64() }
        })
        .collect()
}

/// The time the synthetic workload's setup and run closures take, summed
/// over the worker threads that call them (traced run only).
#[derive(Debug, Default)]
pub struct CaseClocks {
    setup: Clock,
    run: Clock,
}

/// The synthetic workload of one hunt: a libc whose `functions` succeed,
/// called `CALLS_PER_FUNCTION` times each, round-robin, per case.  The case
/// crashes exactly when the crash cell's fault arrives; any other fault
/// fails it.
pub fn synthetic(spec: &HuntSpec, clocks: Option<Arc<CaseClocks>>) -> Arc<dyn Workload> {
    let library = spec
        .functions
        .iter()
        .fold(NativeLibrary::builder(LIBC), |b, &f| b.function_sym(f, |_| SUCCESS))
        .build();
    let functions = spec.functions.clone();
    let crash = spec.crash;
    let setup_clocks = clocks.clone();
    FnWorkload::shared(
        "hunt-synthetic",
        move || {
            span(setup_clocks.as_deref().map(|c| &c.setup), || {
                let mut process = Process::new();
                process.load(library.clone());
                process
            })
        },
        move |process: &mut Process| span(clocks.as_deref().map(|c| &c.run), || run_case(process, &functions, crash)),
    )
}

fn run_case(process: &mut Process, functions: &[Symbol], crash: FaultCell) -> ExitStatus {
    let mut failed = false;
    for call in 1..=CALLS_PER_FUNCTION {
        for &function in functions {
            let ret = process.call_sym(function, &[call as i64]).unwrap_or(-1);
            if ret == SUCCESS {
                continue;
            }
            let is_crash_cell = function == crash.function
                && call == crash.call_ordinal
                && ret == crash.retval
                && crash.errno.is_none_or(|errno| process.state().errno() == errno);
            if is_crash_cell {
                return ExitStatus::Crashed(Signal::Segv);
            }
            failed = true;
        }
    }
    ExitStatus::Exited(i32::from(failed))
}

/// The layer spans of the traced hunts.
#[derive(Debug, Default)]
struct HuntTrace {
    profiles_of: Clock,
    new: Clock,
    probe: Clock,
    step: Clock,
    batch: Clock,
    universe: f64,
    pruned: f64,
}

/// Runs one hunt to its crash: the explorer and the batch reports.
fn hunt(
    lfi: &Lfi,
    spec: &HuntSpec,
    workload: &Arc<dyn Workload>,
    mut trace: Option<&mut HuntTrace>,
) -> (Explorer, Vec<CampaignReport>) {
    let mut explorer = span(trace.as_deref().map(|t| &t.new), || {
        lfi.explore(&Exhaustive, &[LIBC])
            .expect("libc profiles")
            .seed(spec.explorer_seed)
            .halt_on_crash(true)
    });
    let mut batches = Vec::new();
    while !explorer.crash_found() {
        let started = Instant::now();
        let Some(report) = explorer.step_workload(workload) else {
            break;
        };
        if let Some(t) = trace.as_deref_mut() {
            let elapsed = started.elapsed();
            t.step.add(elapsed);
            if batches.is_empty() {
                t.probe.add(elapsed);
                let universe = explorer.universe_len() as f64;
                t.universe += universe;
                t.pruned += per(universe - explorer.frontier_len() as f64, universe);
            } else {
                t.batch.add(elapsed);
            }
        }
        batches.push(report);
    }
    (explorer, batches)
}

/// Whether the hunt found exactly the seeded cell, and its replay plan
/// crashes a one-case campaign.
fn check(explorer: &Explorer, batches: &[CampaignReport], spec: &HuntSpec, workload: &Arc<dyn Workload>) -> bool {
    let crashes: Vec<_> = explorer.clusters().iter().filter(|c| c.is_crash()).collect();
    let [cluster] = crashes.as_slice() else { return false };
    if cluster.example != spec.crash {
        return false;
    }
    let Some(outcome) = batches.iter().flat_map(|b| &b.outcomes).find(|o| o.name == cluster.example_case) else {
        return false;
    };
    let replay = Campaign::new()
        .case(TestCase::new("replay", outcome.replay.clone()))
        .start_arc(Arc::clone(workload))
        .into_report();
    replay.outcomes.len() == 1 && replay.outcomes[0].status.is_crash()
}

/// The facade with its store warm, and the seed's hunts.
pub struct State {
    lfi: Lfi,
    specs: Vec<HuntSpec>,
    workloads: Vec<Arc<dyn Workload>>,
}

/// The marker type of the workload.
pub struct HuntLibc;

impl Bench for HuntLibc {
    type State = State;

    fn setup(ctx: &Ctx) -> State {
        let lfi = libc_facade();
        let cells = exhaustive_cells(&lfi);
        let specs = draw_hunts(&cells, ctx.seed, HUNTS);
        let workloads = specs.iter().map(|spec| synthetic(spec, None)).collect::<Vec<_>>();
        // Warm-up hunts: thread and allocator start-up.
        for (spec, workload) in specs.iter().zip(&workloads).take(20) {
            hunt(&lfi, spec, workload, None);
        }
        State { lfi, specs, workloads }
    }

    fn measure(state: &mut State, _ctx: &Ctx, budget: Duration, traced: bool) -> Measured {
        let clocks = traced.then(|| Arc::new(CaseClocks::default()));
        let traced_workloads: Vec<Arc<dyn Workload>> = match &clocks {
            Some(clocks) => state.specs.iter().map(|spec| synthetic(spec, Some(Arc::clone(clocks)))).collect(),
            None => Vec::new(),
        };
        let workloads = if traced { &traced_workloads } else { &state.workloads };
        let mut trace = traced.then(HuntTrace::default);
        let mut out = Measured::default();
        let mut cases_total = 0u64;
        let mut first_pass_cases = Vec::new();
        let started = Instant::now();
        let mut index = 0;
        while index < state.specs.len() || started.elapsed() < budget {
            let spec = &state.specs[index % state.specs.len()];
            let workload = &workloads[index % state.specs.len()];
            if let Some(t) = trace.as_mut() {
                t.profiles_of.time(|| state.lfi.profiles_of(&[LIBC]).expect("libc profiles"));
            }
            out.attempted += 1;
            let t0 = Instant::now();
            let (explorer, batches) = hunt(&state.lfi, spec, workload, trace.as_mut());
            let elapsed = ms_since(t0);
            // The replay runs on the untraced workload: its case is no step's.
            if check(&explorer, &batches, spec, &state.workloads[index % state.specs.len()]) {
                out.latency_ms.push(elapsed);
                cases_total += explorer.cases_executed();
                if index < state.specs.len() {
                    first_pass_cases.push(explorer.cases_executed() as f64);
                }
            } else {
                out.failed += 1;
            }
            index += 1;
        }
        out.wall_ms = ms_since(started);
        let hunt_total_ms: f64 = out.latency_ms.iter().sum();
        let hunts = out.latency_ms.len() as f64;
        out.work_per_s = per(cases_total as f64, hunt_total_ms / 1e3);
        out.op_ms_mean = per(hunt_total_ms, hunts);
        out.named = vec![
            Named::new("hunt_ms_p50", median(&out.latency_ms), "ms", format!("{} hunts", out.latency_ms.len())),
            Named::new("hunt_ms_p90", percentile(&out.latency_ms, 90.0), "ms", "p90"),
            Named::new("hunt_cases_p50", median(&first_pass_cases), "cases", format!("first {} hunts", HUNTS)),
            Named::new("hunt_cases_per_s", out.work_per_s, "cases/s", "cases executed per second of hunting"),
        ];
        if let (Some(t), Some(clocks)) = (trace, clocks) {
            let closures_ms = clocks.setup.total_ms() + clocks.run.total_ms();
            let accounted_ms = t.new.total_ms() + t.step.total_ms();
            out.unaccounted = Some(per(hunt_total_ms - accounted_ms, hunt_total_ms));
            out.layers = vec![
                ("core.profiles_of_ms", per(t.profiles_of.total_ms(), t.profiles_of.count() as f64)),
                ("explore.new_ms", per(t.new.total_ms(), hunts)),
                ("scenario.cells", per(t.universe, hunts)),
                ("explore.probe_ms", per(t.probe.total_ms(), hunts)),
                ("explore.pruned_ratio", per(t.pruned, hunts)),
                ("explore.step_ms", per(t.step.total_ms(), hunts)),
                ("explore.batches", per(t.step.count() as f64, hunts)),
                ("explore.batch_us", t.batch.mean_us()),
                ("runtime.setup_us", clocks.setup.mean_us()),
                ("runtime.workload_us", clocks.run.mean_us()),
                ("explore.overhead_ms", per(t.step.total_ms() - closures_ms, hunts)),
                ("explore.useful_ratio", per(hunts, cases_total as f64)),
            ];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawn_crash_cells_are_in_the_universe_and_reached_by_their_workload() {
        let lfi = libc_facade();
        let cells = exhaustive_cells(&lfi);
        for seed in [1, 2, 2009] {
            for spec in draw_hunts(&cells, seed, 40) {
                assert!(cells.contains(&spec.crash), "{:?} is an exhaustive-plan cell", spec.crash);
                assert!(spec.functions.contains(&spec.crash.function));
                assert!(spec.functions.len() <= FUNCTIONS_PER_HUNT);
                assert!(spec.crash.call_ordinal <= CALLS_PER_FUNCTION);
                // The workload reaches the cell: injecting it crashes a case,
                // and a clean case succeeds.
                let workload = synthetic(&spec, None);
                let report = Campaign::new()
                    .case(TestCase::new("clean", lfi_scenario::Plan::new()))
                    .case(TestCase::new("crash", lfi_scenario::Plan::new().entry(spec.crash.plan_entry())))
                    .start_arc(workload)
                    .into_report();
                assert!(report.outcomes[0].status.is_success());
                assert!(report.outcomes[1].status.is_crash(), "{:?} crashes its workload", spec.crash);
            }
        }
    }

    #[test]
    fn hunts_repeat_per_seed() {
        let lfi = libc_facade();
        let cells = exhaustive_cells(&lfi);
        let cases = |seed| {
            draw_hunts(&cells, seed, 10)
                .iter()
                .map(|spec| {
                    let workload = synthetic(spec, None);
                    let (explorer, batches) = hunt(&lfi, spec, &workload, None);
                    assert!(check(&explorer, &batches, spec, &workload));
                    explorer.cases_executed()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(cases(7), cases(7));
    }
}

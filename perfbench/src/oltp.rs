//! `oltp-triggers`: the paper's Table 4.  SysBench read/write OLTP on two
//! MySQL servers in one run, transaction blocks interleaved: one without
//! LFI, one with a 1000-trigger `TriggerLoad` plan over the ten most-called
//! libc functions preloaded through `Injector::synthesize_interceptor`.
//!
//! No campaign, session, explorer or fabric code runs: the cost is runtime
//! dispatch plus the general trigger-evaluation path of the injector, which
//! no other workload takes (their single-cell plans compile to the
//! specialized stub).

use std::time::{Duration, Instant};

use lfi_apps::mysql::sysbench::{run_transaction, OltpMode};
use lfi_apps::{base_process, new_world, MysqlServer, World};
use lfi_controller::Injector;
use lfi_runtime::Process;
use lfi_scenario::{ScenarioGenerator, TriggerLoad};

use crate::hunt::{libc_facade, LIBC};
use crate::measure::{ms_since, per, Bench, Ctx, Measured, Named};
use crate::stats::{median, percentile, tail_percentile, Stream};

/// The ten most-called libc functions of the OLTP workload (Table 4).
pub const TOP_FUNCTIONS: [&str; 10] =
    ["send", "malloc", "free", "write", "read", "recv", "fsync", "open", "close", "socket"];
/// Triggers in the LFI side's plan.
pub const TRIGGERS: usize = 1000;
/// Transactions per side before the other side runs its block.
const BLOCK: usize = 8;
/// Rows loaded and transactions run on each side before timing starts.
const ROWS: i64 = 100;
const WARM_UP_TXNS: u64 = 50;

/// One MySQL server with its process and simulated world.
struct Side {
    _world: World,
    process: Process,
    server: MysqlServer,
    next_txn: u64,
}

impl Side {
    fn start(interceptor: Option<lfi_runtime::NativeLibrary>) -> Side {
        let world = new_world();
        let mut process = base_process(&world, false);
        if let Some(interceptor) = interceptor {
            process.preload(interceptor);
        }
        let mut server = MysqlServer::start(&mut process);
        for row in 0..ROWS {
            let _ = server.insert(&mut process, row, true);
        }
        let mut side = Side { _world: world, process, server, next_txn: 0 };
        for _ in 0..WARM_UP_TXNS {
            side.transaction();
        }
        side
    }

    /// Runs the next transaction: its wall time in ns, or `None` when it did
    /// not complete.
    fn transaction(&mut self) -> Option<f64> {
        let txn = self.next_txn;
        self.next_txn += 1;
        let started = Instant::now();
        let done = run_transaction(&mut self.server, &mut self.process, OltpMode::ReadWrite, txn).is_ok();
        let ns = started.elapsed().as_secs_f64() * 1e9;
        done.then_some(ns)
    }
}

/// The two servers, the injector behind the LFI side, and set-up spans.
pub struct State {
    base: Side,
    lfi: Side,
    injector: Injector,
    plan_entries: usize,
    triggerload_ms: f64,
    synthesize_us: f64,
}

/// The marker type of the workload.
pub struct OltpTriggers;

impl Bench for OltpTriggers {
    type State = State;

    fn setup(ctx: &Ctx) -> State {
        let lfi = libc_facade();
        let profiles = lfi.profiles_of(&[LIBC]).expect("libc profiles");
        let generate = Instant::now();
        let plan = TriggerLoad::new(TOP_FUNCTIONS, TRIGGERS, Stream::new(ctx.seed, 4).next_u64()).generate(&profiles);
        let triggerload_ms = ms_since(generate);
        let plan_entries = plan.len();
        let synthesize = Instant::now();
        let injector = Injector::new(plan);
        let interceptor = injector.synthesize_interceptor();
        let synthesize_us = ms_since(synthesize) * 1e3;
        State {
            base: Side::start(None),
            lfi: Side::start(Some(interceptor)),
            injector,
            plan_entries,
            triggerload_ms,
            synthesize_us,
        }
    }

    fn measure(state: &mut State, _ctx: &Ctx, budget: Duration, traced: bool) -> Measured {
        let mut out = Measured::default();
        let calls_before = if traced { state.injector.log().intercepted_calls } else { 0 };
        let (mut base_ns, mut lfi_ns) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut block = 0usize;
        while out.attempted == 0 || started.elapsed() < budget {
            // Alternate which side leads, so neither always runs second.
            let order = if block.is_multiple_of(2) { [false, true] } else { [true, false] };
            for with_lfi in order {
                let (side, samples) =
                    if with_lfi { (&mut state.lfi, &mut lfi_ns) } else { (&mut state.base, &mut base_ns) };
                for _ in 0..BLOCK {
                    out.attempted += 1;
                    match side.transaction() {
                        Some(ns) => samples.push(ns),
                        None => out.failed += 1,
                    }
                }
            }
            block += 1;
        }
        out.wall_ms = ms_since(started);
        if state.plan_entries != TRIGGERS {
            // A wrong plan voids the whole run.
            out.failed = out.attempted;
            base_ns.clear();
            lfi_ns.clear();
        }
        let lfi_total_ns: f64 = lfi_ns.iter().sum();
        let base_total_ns: f64 = base_ns.iter().sum();
        let lfi_tps = per(lfi_ns.len() as f64, lfi_total_ns / 1e9);
        let base_tps = per(base_ns.len() as f64, base_total_ns / 1e9);
        let lfi_us: Vec<f64> = lfi_ns.iter().map(|ns| ns / 1e3).collect();
        let tail = tail_percentile(lfi_us.len()).unwrap_or(50.0);
        out.work_per_s = lfi_tps;
        out.latency_ms = lfi_us.iter().map(|us| us / 1e3).collect();
        out.op_ms_mean = per(lfi_total_ns / 1e6, lfi_ns.len() as f64);
        out.named = vec![
            Named::new("oltp_txn_per_s", lfi_tps, "txn/s", format!("{} txns with 1000 triggers", lfi_ns.len())),
            Named::new("oltp_txn_us_p50", median(&lfi_us), "us", "p50"),
            Named::new("oltp_txn_us_p99", percentile(&lfi_us, tail), "us", format!("p{tail}")),
            Named::new("oltp_slowdown", per(base_tps, lfi_tps), "x", format!("no-LFI {base_tps:.1} txn/s")),
        ];
        if traced {
            let log = state.injector.log();
            let calls = log.intercepted_calls.saturating_sub(calls_before) as f64;
            let calls_per_txn = per(calls, lfi_ns.len() as f64);
            out.layers = vec![
                ("scenario.triggerload_ms", state.triggerload_ms),
                ("controller.synthesize_us", state.synthesize_us),
                ("runtime.calls_per_txn", calls_per_txn),
                ("runtime.ns_per_call_lfi", per(lfi_total_ns, calls)),
                ("runtime.ns_per_call_base", per(base_total_ns, calls_per_txn * base_ns.len() as f64)),
                ("controller.injections", log.injection_count() as f64),
            ];
        }
        out
    }
}

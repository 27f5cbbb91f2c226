//! Closed-loop campaign control: a rule set — crash-cluster escalation plus
//! the canonical per-symbol circuit breaker — drives the explorer against
//! the §6.1 MySQL test-suite workload, with the explorer's built-in
//! refinement heuristic switched off.  Every decision the engine takes is
//! audited on a byte-stable decision log, and the run's vitals stream into
//! a structured metrics sink.
//!
//! Run with `cargo run --example closed_loop`.

use std::sync::Arc;

use lfi::apps::workloads::MysqlSuite;
use lfi::controller::Workload;
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::isa::Platform;
use lfi::profile::FaultProfile;
use lfi::profiler::ProfilerOptions;
use lfi::rules::{Action, CircuitBreaker, Condition, Metric, Rule, RuleSet};
use lfi::scenario::generator::{Composite, Exhaustive, Filtered, ScenarioGenerator};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};
use lfi::Lfi;

/// A workload-specific generator: starve the allocator at every call depth
/// up to `depth`, the §6.1 construction that flushes out the suite's
/// unchecked allocations (the first sits at call #25).
struct AllocationStress {
    depth: u64,
}

impl ScenarioGenerator for AllocationStress {
    fn name(&self) -> &str {
        "allocation-stress"
    }

    fn description(&self) -> String {
        format!("malloc returns NULL/ENOMEM once at each call ordinal 1..={}", self.depth)
    }

    fn generate(&self, _profiles: &[FaultProfile]) -> Plan {
        let mut plan = Plan::new();
        for ordinal in 1..=self.depth {
            plan.entries.push(PlanEntry {
                function: "malloc".into(),
                trigger: Trigger::on_call(ordinal),
                action: FaultAction::return_value(0).with_errno(12),
            });
        }
        plan
    }
}

fn main() {
    // Profile the libc the simulated MySQL server runs over.
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, 80).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));

    // The faultload: allocator starvation at 40 call depths, composed with
    // the exhaustive plan over the I/O surface the suite exercises.
    let faultload = Composite::new()
        .push(AllocationStress { depth: 40 })
        .push(Filtered::new(Exhaustive).allow(["read", "write", "fsync", "send", "recv"]));

    // The policy: surface a crashing symbol's sibling faults once; trip its
    // circuit breaker on the first crash cluster (muting the symbol); probe
    // again after 40 quiet events — if the symbol still crashes, the breaker
    // re-opens; and stop the whole campaign once six crashes are on record.
    let set = RuleSet::new()
        .rule(
            Rule::per_symbol(
                "escalate-on-crash",
                Condition::at_least(Metric::CrashClusters, 1.0),
                [Action::EscalateSiblings],
            )
            .once(),
        )
        .rule(Rule::global("crash-budget", Condition::at_least(Metric::Crashes, 6.0), [Action::Cancel]))
        .machine(CircuitBreaker::tripping_after(1).cooldown(40));

    let mut closed = lfi
        .rules(&faultload, &["libc.so.6"], set)
        .expect("libc profiles")
        .configure(|e| e.seed(2009).batch_size(10).case_budget(120));
    println!("fault-space universe: {} cells", closed.explorer().universe_len());

    // The §6.1 regression suite as the application under test.
    let suite: Arc<dyn Workload> = Arc::new(MysqlSuite::with_cases(60));
    let report = closed.run_workload(&suite);

    println!(
        "\nran {} cases / {} injections in {} batches; {} crash cluster(s)",
        report.cases_executed,
        report.injections_performed,
        closed.explorer().batch_index(),
        report.crash_clusters().count(),
    );
    for cluster in report.crash_clusters() {
        println!(
            "  {} x{} via {}() (call #{}, retval {})",
            cluster.outcome, cluster.count, cluster.function, cluster.example.call_ordinal, cluster.example.retval,
        );
    }

    println!("\n== decision log (byte-identical across fixed-seed reruns) ==");
    print!("{}", closed.decision_log());
    closed.engine_mut().export_vitals();
    let engine = closed.engine();
    let muted: Vec<&str> = engine.muted().collect();
    println!("\nmuted symbols: {muted:?}");

    println!("\n== metrics (NDJSON) ==");
    for line in engine.sink().to_ndjson().lines() {
        if line.contains("rules/") || line.contains("breaker/") || line.contains("campaign/crashes") {
            println!("{line}");
        }
    }

    // The closed loop found the allocation crashes and benched the fragile
    // symbol — the breaker's mute provably suppresses further injections.
    let crash = report.crash_clusters().next().expect("the unchecked allocations crash the suite");
    assert_eq!(crash.function.as_str(), "malloc");
    let log = closed.decision_log();
    assert!(log.contains("machine/circuit-breaker:Closed->Open"), "breaker tripped:\n{log}");
    assert!(log.contains("rule/escalate-on-crash"), "escalation fired:\n{log}");
    assert!(engine.is_muted("malloc") || engine.halted(), "malloc benched or campaign stopped");
    assert!(!engine.decisions().is_empty());
}

//! The benchmark gate table and the `benchdiff` binary that enforces it.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use lfi_bench::{Gate, GATES, REQUIRED};

/// The gates the CI bench job enforced before the table existed, as
/// `(num_factor, numerator, den_factor, denominator)`: each holds when
/// `num_factor × numerator ≤ den_factor × denominator`.
const OLD_GATES: [(f64, &str, f64, &str); 9] = [
    (1.0, "campaign_stream/streaming_report", 1.25, "campaign_stream/blocking_run"),
    (1.0, "fabric_throughput/multiplexed_3jobs", 1.35, "fabric_throughput/back_to_back"),
    (3.0, "case_setup/arena_cycle", 1.0, "case_setup/cold_build"),
    (1.0, "rules_overhead/active", 1.25, "rules_overhead/passive"),
    (4.0, "store_scale/binary_load", 1.0, "store_scale/xml_load"),
    (10.0, "store_scale/delta_append", 1.0, "store_scale/snapshot_write"),
    (1.0, "campaign_stream/blocking_run", 1.25, "campaign_stream/inline_loop"),
    (1.0, "explorer_convergence/explore-to-crash", 1.0, "explorer_convergence/exhaustive-to-crash"),
    (3.0, "fabric_throughput/skewed_small_job", 1.0, "fabric_throughput/skewed_drain"),
];

/// Gates added to the table since, in the same form.
const ADDED_GATES: [(f64, &str, f64, &str); 2] = [
    (1.0, "dispatch_hot_path/passthrough_presym", 2.6, "dispatch_hot_path/uninstrumented_presym"),
    (1.0, "campaign_stream/callback_drain", 1.25, "campaign_stream/blocking_run"),
];

/// The names the old presence checks matched by prefix.
const OLD_PREFIXES: [&str; 21] = [
    "dispatch_hot_path/",
    "profiler_throughput/",
    "explorer_convergence/",
    "campaign_stream/blocking_run",
    "campaign_stream/streaming_report",
    "campaign_stream/streaming_drain",
    "campaign_stream/inline_loop",
    "fabric_throughput/multiplexed_3jobs",
    "fabric_throughput/back_to_back",
    "case_setup/cold_build",
    "case_setup/arena_cycle",
    "rules_overhead/passive",
    "rules_overhead/active",
    "store_scale/snapshot_write",
    "store_scale/binary_load",
    "store_scale/xml_load",
    "store_scale/delta_append",
    "store_scale/fold_delta",
    "store_scale/compact",
    "store_scale/fabric_ack_append",
    "store_scale/fabric_recover",
];

/// The names the old presence checks matched exactly.
const OLD_NAMES: [&str; 6] = [
    "campaign_stream/blocking_run",
    "campaign_stream/inline_loop",
    "explorer_convergence/explore-to-crash",
    "explorer_convergence/exhaustive-to-crash",
    "fabric_throughput/skewed_small_job",
    "fabric_throughput/skewed_drain",
];

/// Every bench name the table requires, gated or not.
fn required_names() -> Vec<&'static str> {
    let gated = GATES.iter().flat_map(|gate| [gate.numerator, gate.denominator]);
    REQUIRED.iter().copied().chain(gated).collect()
}

#[test]
fn the_table_keeps_every_old_gate_at_its_old_bar() {
    assert_eq!(GATES.len(), OLD_GATES.len() + ADDED_GATES.len());
    for (num_factor, numerator, den_factor, denominator) in OLD_GATES.into_iter().chain(ADDED_GATES) {
        let gate = GATES
            .iter()
            .find(|gate| gate.numerator == numerator && gate.denominator == denominator)
            .unwrap_or_else(|| panic!("no gate {numerator} against {denominator}"));
        assert_eq!((gate.num_factor, gate.den_factor), (num_factor, den_factor), "{}", gate.name);
        assert_eq!(gate.rounds, numerator.starts_with("rules_overhead/"), "{}", gate.name);
    }
    let names: Vec<&str> = GATES.iter().map(|gate| gate.name).collect();
    assert!(names.iter().enumerate().all(|(i, name)| !names[..i].contains(name)), "gate names are unique");

    let required = required_names();
    for prefix in OLD_PREFIXES {
        assert!(required.iter().any(|name| name.starts_with(prefix)), "nothing required under {prefix}");
    }
    for name in OLD_NAMES {
        assert!(required.contains(&name), "{name} is not required");
    }
    for name in [
        "dispatch_hot_path/passthrough_presym",
        "dispatch_hot_path/uninstrumented_presym",
        "campaign_stream/callback_drain",
    ] {
        assert!(REQUIRED.contains(&name), "{name} is not in REQUIRED");
    }
}

/// A passing synthetic run: every required name once (gated rounds
/// benches three times), with values that clear every gate.
fn passing_run() -> Vec<(String, f64)> {
    let mut lines = Vec::new();
    for name in required_names() {
        if lines.iter().any(|(bench, _)| bench == name) {
            continue;
        }
        let repeats = if name.starts_with("rules_overhead/") { 3 } else { 1 };
        let ns = match GATES.iter().find(|gate| gate.numerator == name && gate.num_factor > 1.0) {
            Some(gate) => 1e6 / gate.num_factor / 2.0,
            None if name == "explorer_convergence/explore-to-crash" => 0.5e6,
            None => 1e6,
        };
        lines.extend((0..repeats).map(|_| (name.to_owned(), ns)));
    }
    lines
}

fn ndjson(lines: &[(String, f64)]) -> String {
    ndjson_with_means(lines, |_, median| median)
}

/// The NDJSON of `lines`, each value a median, with the mean
/// (`ns_per_iter`) and max each line carries set by `mean`.
fn ndjson_with_means(lines: &[(String, f64)], mean: impl Fn(&str, f64) -> f64) -> String {
    lines
        .iter()
        .map(|(bench, median)| {
            let mean = mean(bench, *median);
            let max = mean.max(*median);
            format!("{{\"bench\":\"{bench}\",\"ns_per_iter\":{mean:.1},\"min_ns\":{median:.1},\"median_ns\":{median:.1},\"max_ns\":{max:.1},\"iterations\":1}}\n")
        })
        .collect()
}

/// Runs the `benchdiff` binary on `text`: its exit success and stdout.
/// Each call writes its own file, since the tests run in parallel.
fn run_benchdiff(name: &str, text: &str) -> (bool, String) {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("lfi-benchdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}-{name}", CALLS.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&path, text).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_benchdiff")).arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    (output.status.success(), String::from_utf8(output.stdout).unwrap())
}

/// The report's baseline-ratio line for `bench`.
fn baseline_line<'r>(report: &'r str, bench: &str) -> Option<&'r str> {
    report.lines().find(|line| line.split_whitespace().next() == Some(bench))
}

fn failures(report: &str) -> Vec<&str> {
    report.lines().filter(|line| line.starts_with("FAIL")).collect()
}

#[test]
fn a_passing_run_passes_and_lists_every_bench() {
    let (ok, report) = run_benchdiff("pass.ndjson", &ndjson(&passing_run()));
    assert!(ok, "{report}");
    assert!(failures(&report).is_empty(), "{report}");
    for gate in &GATES {
        assert!(report.contains(&format!("ok   {}:", gate.name)), "{report}");
    }
    for name in required_names() {
        assert!(baseline_line(&report, name).is_some(), "{name} has no baseline line:\n{report}");
    }
}

/// Each gate fails alone when its numerator is pushed past its bar, and the
/// failure names it.
#[test]
fn each_gate_fails_alone_and_is_named() {
    for gate in &GATES {
        let Gate { numerator, num_factor, den_factor, .. } = *gate;
        let run = passing_run();
        let den = run.iter().find(|(bench, _)| bench == gate.denominator).unwrap().1;
        let over = den * den_factor / num_factor * 1.01;
        let run: Vec<_> = run
            .into_iter()
            .map(|(bench, ns)| if bench == numerator { (bench, over) } else { (bench, ns) })
            .collect();
        let (ok, report) = run_benchdiff(&format!("{}.ndjson", gate.name), &ndjson(&run));
        assert!(!ok, "{}: a violating run passed:\n{report}", gate.name);
        let failed: Vec<_> = failures(&report).into_iter().filter(|line| !line.contains(gate.name)).collect();
        assert!(failed.is_empty(), "{}: other failures {failed:?}", gate.name);
        assert!(!failures(&report).is_empty(), "{}: no FAIL line:\n{report}", gate.name);
    }
}

/// A gate reads each line's median: a numerator whose mean breaks the bar
/// (one slow sample) passes while its median holds, and fails once its
/// median breaks the bar.
#[test]
fn gates_compare_medians_not_means() {
    let gate = GATES.iter().find(|gate| gate.name == "streaming-vs-blocking").unwrap();
    let run = passing_run();
    let den = run.iter().find(|(bench, _)| bench == gate.denominator).unwrap().1;
    let bar = den * gate.den_factor / gate.num_factor;
    let slow_mean = |bench: &str, median: f64| if bench == gate.numerator { bar * 1.5 } else { median };
    let (ok, report) = run_benchdiff("slow-mean.ndjson", &ndjson_with_means(&run, slow_mean));
    assert!(ok, "a mean over the bar failed a median under it:\n{report}");

    let run: Vec<_> = run
        .into_iter()
        .map(|(bench, ns)| if bench == gate.numerator { (bench, bar * 1.01) } else { (bench, ns) })
        .collect();
    let (ok, report) = run_benchdiff("slow-median.ndjson", &ndjson_with_means(&run, |_, median| median * 0.5));
    assert!(!ok, "a median over the bar passed:\n{report}");
    assert!(report.contains(&format!("FAIL {}", gate.name)), "{report}");
}

#[test]
fn rounds_compare_minima_and_other_gated_benches_appear_once() {
    // One slow round of `active` does not fail the gate: its minimum does.
    let mut run = passing_run();
    let active = run.iter().position(|(bench, _)| bench == "rules_overhead/active").unwrap();
    run[active].1 *= 10.0;
    let (ok, report) = run_benchdiff("one-slow-round.ndjson", &ndjson(&run));
    assert!(ok, "{report}");
    for line in run.iter_mut().filter(|(bench, _)| bench == "rules_overhead/active") {
        line.1 *= 10.0;
    }
    let (ok, report) = run_benchdiff("slow-rounds.ndjson", &ndjson(&run));
    assert!(!ok && report.contains("FAIL active-vs-passive-rules"), "{report}");

    let mut run = passing_run();
    run.push(("case_setup/cold_build".to_owned(), 1e6));
    let (ok, report) = run_benchdiff("twice.ndjson", &ndjson(&run));
    assert!(!ok, "{report}");
    assert!(report.contains("FAIL arena-vs-cold-build: case_setup/cold_build appears 2 times"), "{report}");
}

#[test]
fn a_missing_bench_or_a_malformed_line_fails_loudly() {
    for name in ["store_scale/compact", "case_setup/cold_build"] {
        let run: Vec<_> = passing_run().into_iter().filter(|(bench, _)| bench != name).collect();
        let (ok, report) = run_benchdiff("missing.ndjson", &ndjson(&run));
        assert!(!ok, "{report}");
        assert!(failures(&report).iter().any(|line| line.contains("missing bench") && line.contains(name)), "{report}");
    }

    let good = ndjson(&passing_run());
    for (bad, error) in [
        ("{\"bench\":\"x/y\",\"ns_per_iter\":", "unexpected end of input"),
        ("{\"bench\":\"x/y\"}", "no positive `median_ns` field"),
        ("{\"median_ns\":5.0}", "no string `bench` field"),
        ("{\"bench\":\"x/y\",\"median_ns\":-1}", "no positive `median_ns` field"),
        ("{\"bench\":\"x/y\",\"ns_per_iter\":5.0}", "no positive `median_ns` field"),
        ("not json", "expected a value"),
    ] {
        let text = format!("{good}{bad}\n");
        let line = text.lines().count();
        let (ok, report) = run_benchdiff("malformed.ndjson", &text);
        assert!(!ok, "{bad}: {report}");
        assert!(report.contains(&format!("FAIL line {line}: {error}")), "{bad}: {report}");
    }
    let (ok, report) = run_benchdiff("empty.ndjson", "");
    assert!(!ok && report.contains("FAIL missing bench"), "{report}");
}

/// The committed baseline parses and has a median for every required
/// bench, so each bench's ratio prints.
#[test]
fn the_baseline_covers_every_required_bench() {
    let (_, report) = run_benchdiff("pass.ndjson", &ndjson(&passing_run()));
    assert!(!report.contains("FAIL baseline"), "{report}");
    for name in required_names() {
        let line = baseline_line(&report, name).unwrap();
        assert!(!line.ends_with('-'), "{name} has no baseline median: {line}");
    }
}

//! The one benchmark gate table and its checker.
//!
//! `cargo bench --workspace` with `LFI_BENCH_JSON=<file>` makes every bench
//! append one NDJSON line (`{"bench":"group/label",…,"median_ns":…,…}`, see
//! the criterion shim).  [`benchdiff`] reads those lines and checks them
//! against [`GATES`] and [`REQUIRED`]; it also prints each bench's ratio to
//! the committed `BENCH_BASELINE.json`, which informs and never gates.
//!
//! A gate compares `median_ns`, the median of a bench's timed samples, so one
//! preempted sample cannot move it the way it moves their mean
//! (`ns_per_iter`).  A gated bench must emit exactly one line per run, except
//! on a gate with `rounds`, whose benches emit one line per round and are
//! compared by the minimum of their medians.

use crate::json::Json;

/// One ratio gate: it holds when
/// `num_factor × numerator ≤ den_factor × denominator`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The name a failure reports.
    pub name: &'static str,
    /// The bench on the left of the inequality.
    pub numerator: &'static str,
    /// The left multiplier.
    pub num_factor: f64,
    /// The bench on the right of the inequality.
    pub denominator: &'static str,
    /// The right multiplier.
    pub den_factor: f64,
    /// Both benches emit one line per round, and the gate compares each
    /// side's minimum, which cancels CPU frequency drift between rounds.
    pub rounds: bool,
}

const fn gate(
    name: &'static str,
    num_factor: f64,
    numerator: &'static str,
    den_factor: f64,
    denominator: &'static str,
) -> Gate {
    Gate { name, numerator, num_factor, denominator, den_factor, rounds: false }
}

/// Every ratio gate.  The bars are the acceptance bars measured on full
/// multi-sample runs, loosened for fast mode's single sample where noted.
pub const GATES: [Gate; 11] = [
    // A streaming session, collapsed or drained through a callback, costs
    // what the blocking wrapper costs (bar 1.05x; noise allowance to 1.25x).
    gate("streaming-vs-blocking", 1.0, "campaign_stream/streaming_report", 1.25, "campaign_stream/blocking_run"),
    gate("callback-drain-vs-blocking", 1.0, "campaign_stream/callback_drain", 1.25, "campaign_stream/blocking_run"),
    // A serial session costs what the hand-rolled per-case loop costs
    // (bar 1.05x; noise allowance to 1.25x).
    gate("session-vs-inline-loop", 1.0, "campaign_stream/blocking_run", 1.25, "campaign_stream/inline_loop"),
    // Three jobs multiplexed over one fleet cost what the same cells run
    // back to back cost (bar 1.15x; noise allowance to 1.35x).
    gate(
        "multiplexed-vs-back-to-back",
        1.0,
        "fabric_throughput/multiplexed_3jobs",
        1.35,
        "fabric_throughput/back_to_back",
    ),
    // Charged by worker time, a cheap tenant queued behind a slow one
    // finishes in under a third of the full drain.
    gate("small-tenant-vs-drain", 3.0, "fabric_throughput/skewed_small_job", 1.0, "fabric_throughput/skewed_drain"),
    // An arena checkout/return cycle is cheaper than a cold process build
    // (bar 5x; noise allowance to 3x).
    gate("arena-vs-cold-build", 3.0, "case_setup/arena_cycle", 1.0, "case_setup/cold_build"),
    // Active rules cost little over the passive state collector
    // (bar 1.10x; noise allowance to 1.25x).
    Gate {
        rounds: true,
        ..gate("active-vs-passive-rules", 1.0, "rules_overhead/active", 1.25, "rules_overhead/passive")
    },
    // A binary snapshot decodes faster than the XML parse of the same store
    // (bar 5x; noise allowance to 4x).
    gate("binary-vs-xml-load", 4.0, "store_scale/binary_load", 1.0, "store_scale/xml_load"),
    // An O(delta) journal append is cheaper than a full snapshot write.
    gate("append-vs-snapshot", 10.0, "store_scale/delta_append", 1.0, "store_scale/snapshot_write"),
    // The explorer reaches the seeded crash before the exhaustive sweep.
    gate(
        "explore-vs-exhaustive",
        1.0,
        "explorer_convergence/explore-to-crash",
        1.0,
        "explorer_convergence/exhaustive-to-crash",
    ),
    // A pass-through call through a one-cell interceptor costs a small
    // multiple of a bare call: one more chain hop and the stub's trigger
    // check (worst of ten fast-mode runs 2.11x; bar 2.6x).
    gate(
        "interception-vs-bare-dispatch",
        1.0,
        "dispatch_hot_path/passthrough_presym",
        2.6,
        "dispatch_hot_path/uninstrumented_presym",
    ),
];

/// Benches a run must contain besides the gated ones.
pub const REQUIRED: [&str; 17] = [
    "dispatch_hot_path/uninstrumented",
    "dispatch_hot_path/passthrough",
    "dispatch_hot_path/triggered",
    "dispatch_hot_path/uninstrumented_presym",
    "dispatch_hot_path/passthrough_presym",
    "profiler_throughput/libc-cold",
    "profiler_throughput/libc-warm",
    "profiler_throughput/libc-store",
    "profiler_throughput/profile_all-cold",
    "profiler_throughput/profile_all-warm",
    "explorer_convergence/store-roundtrip",
    "campaign_stream/streaming_drain",
    "campaign_stream/callback_drain",
    "store_scale/fold_delta",
    "store_scale/compact",
    "store_scale/fabric_ack_append",
    "store_scale/fabric_recover",
];

/// Checks one run's NDJSON against [`GATES`] and [`REQUIRED`], and lists
/// each bench's ratio to `baseline` (a `BENCH_BASELINE.json` document).
/// `Ok` holds the report of a passing run; `Err` holds the report of a
/// failing one, each failure on one line starting `FAIL`.  A malformed
/// line or baseline is a failure.
pub fn benchdiff(ndjson: &str, baseline: &str) -> Result<String, String> {
    let mut report = Vec::new();
    // Per bench name, in first-seen order: its `median_ns` values.
    let mut runs: Vec<(String, Vec<f64>)> = Vec::new();
    for (number, line) in ndjson.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()) {
        match bench_line(line) {
            Ok((bench, ns)) => match runs.iter_mut().find(|(name, _)| *name == bench) {
                Some((_, values)) => values.push(ns),
                None => runs.push((bench, vec![ns])),
            },
            Err(error) => report.push(format!("FAIL line {}: {error}: {line}", number + 1)),
        }
    }
    let values = |bench: &str| runs.iter().find(|(name, _)| name == bench).map(|(_, values)| values);
    let min = |bench: &str| values(bench).map(|v| v.iter().copied().fold(f64::INFINITY, f64::min));

    for bench in REQUIRED.iter().filter(|bench| values(bench).is_none()) {
        report.push(format!("FAIL missing bench {bench}"));
    }
    for gate in &GATES {
        for bench in [gate.numerator, gate.denominator] {
            match values(bench).map(Vec::len) {
                None => report.push(format!("FAIL {}: missing bench {bench}", gate.name)),
                Some(lines) if lines > 1 && !gate.rounds => {
                    report.push(format!("FAIL {}: {bench} appears {lines} times, once expected", gate.name))
                }
                _ => {}
            }
        }
        let (Some(num), Some(den)) = (min(gate.numerator), min(gate.denominator)) else {
            continue;
        };
        report.push(format!(
            "{} {}: {} x {} ({:.3} us) <= {} x {} ({:.3} us)",
            if gate.num_factor * num <= gate.den_factor * den { "ok  " } else { "FAIL" },
            gate.name,
            gate.num_factor,
            gate.numerator,
            num / 1e3,
            gate.den_factor,
            gate.denominator,
            den / 1e3,
        ));
    }

    match Json::parse(baseline) {
        Ok(baseline) => {
            report.push(format!("\n{:<48} {:>12} {:>12} {:>7}", "bench (us)", "this run", "baseline", "ratio"));
            for (bench, _) in &runs {
                let now = min(bench).unwrap_or_default() / 1e3;
                let base = baseline.get("benches").and_then(|b| b.get(bench)).and_then(|b| b.get("median_ns"));
                report.push(match base.and_then(Json::as_f64).map(|ns| ns / 1e3) {
                    Some(base) => format!("{bench:<48} {now:>12.3} {base:>12.3} {:>7.2}", now / base),
                    None => format!("{bench:<48} {now:>12.3} {:>12} {:>7}", "-", "-"),
                });
            }
        }
        Err(error) => report.push(format!("FAIL baseline: {error}")),
    }

    let failures = report.iter().filter(|line| line.starts_with("FAIL")).count();
    if failures > 0 {
        report.push(format!("{failures} failure(s)"));
    }
    let text = report.join("\n") + "\n";
    if failures == 0 {
        Ok(text)
    } else {
        Err(text)
    }
}

/// One NDJSON line's bench name and `median_ns`.
fn bench_line(line: &str) -> Result<(String, f64), String> {
    let value = Json::parse(line)?;
    let bench = value.get("bench").and_then(Json::as_str).ok_or("no string `bench` field")?;
    match value.get("median_ns").and_then(Json::as_f64) {
        Some(ns) if ns.is_finite() && ns > 0.0 => Ok((bench.to_owned(), ns)),
        _ => Err("no positive `median_ns` field".to_owned()),
    }
}

//! The LFI repository benchmark: one binary, four workloads.
//!
//! ```text
//! perfbench --workload <profile-survey|hunt-libc|fabric-apps|oltp-triggers|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) spends half its time untraced and half with spans around
//! every call into a layer, and prints the per-layer metrics plus the
//! tracing overhead.  The last line of standard output is the JSON result;
//! the lines before it are the human-readable report.  See `README.md`.

mod fabric_apps;
mod hunt;
mod measure;
mod oltp;
mod profile_survey;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{layer_unit, Bench, Ctx, Measured, END_TO_END, LAYERS};
use stats::{failed_ratio, median, percentile, quartiles};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["profile-survey", "hunt-libc", "fabric-apps", "oltp-triggers"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The seed used when none is given.
const DEFAULT_SEED: u64 = 2009;
/// The seed a performance claim must also hold on, never used while tuning.
const HELD_OUT_SEED: u64 = 4099;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// One workload's result: the JSON fields plus the report lines.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Outcome {
    match name {
        "profile-survey" => run::<profile_survey::ProfileSurvey>(name, ctx, trace),
        "hunt-libc" => run::<hunt::HuntLibc>(name, ctx, trace),
        "fabric-apps" => run::<fabric_apps::FabricApps>(name, ctx, trace),
        "oltp-triggers" => run::<oltp::OltpTriggers>(name, ctx, trace),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn run<B: Bench>(name: &str, ctx: &Ctx, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(B::setup(ctx));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let setup = median(&setup_s);
    println!("== {name}  seed={}  seconds={}  trace={}", ctx.seed, ctx.budget.as_secs_f64(), u8::from(trace));
    line("setup_s", setup, "s", &format!("median of {SETUPS} set-ups"));
    if !trace {
        let measured = B::measure(&mut state, ctx, ctx.budget, false);
        print_end_to_end(&measured);
        let metrics = END_TO_END
            .iter()
            .map(|&(metric, unit)| {
                let value = match metric {
                    "setup_s" => setup,
                    "work_per_s" => measured.work_per_s,
                    "latency_ms_p50" => median(&measured.latency_ms),
                    "latency_ms_p90" => percentile(&measured.latency_ms, 90.0),
                    _ => unreachable!("every end-to-end metric is measured"),
                };
                (metric.to_owned(), value, unit)
            })
            .collect();
        return Outcome { attempted: measured.attempted, failed: measured.failed, metrics };
    }
    let half = ctx.budget / 2;
    let untraced = B::measure(&mut state, ctx, half, false);
    let traced = B::measure(&mut state, ctx, half, true);
    print_end_to_end(&traced);
    let overhead_ms = traced.op_ms_mean - untraced.op_ms_mean;
    println!("   traced phase wall {:.1} ms", traced.wall_ms);
    for (layer, value) in &traced.layers {
        line(layer, *value, layer_unit(layer).unwrap_or("?"), "");
    }
    if let Some(unaccounted) = traced.unaccounted {
        line("unaccounted", unaccounted * 100.0, "%", "of the wall time no layer span covers");
    }
    line(
        "tracing_overhead",
        overhead_ms,
        "ms",
        &format!("per operation: traced {:.4} ms, untraced {:.4} ms", traced.op_ms_mean, untraced.op_ms_mean),
    );
    let mut layers = traced.layers;
    layers.extend([
        ("trace.wall_ms", traced.wall_ms),
        ("trace.unaccounted_ratio", traced.unaccounted.unwrap_or(0.0)),
        ("trace.overhead_ms", overhead_ms),
    ]);
    let metrics = LAYERS
        .iter()
        .map(|&(layer, unit)| {
            let value = layers.iter().find(|(n, _)| *n == layer).map_or(0.0, |(_, v)| *v);
            (layer.to_owned(), value, unit)
        })
        .collect();
    Outcome { attempted: untraced.attempted + traced.attempted, failed: untraced.failed + traced.failed, metrics }
}

fn print_end_to_end(measured: &Measured) {
    for named in &measured.named {
        line(named.name, named.value, named.unit, &named.note);
    }
    let (q1, q3) = quartiles(&measured.latency_ms);
    line("latency_ms_iqr", q3 - q1, "ms", &format!("q1 {q1:.6}, q3 {q3:.6}, n={}", measured.latency_ms.len()));
    line(
        "failed_ratio",
        failed_ratio(measured.failed, measured.attempted),
        "ratio",
        &format!("{} of {} operations", measured.failed, measured.attempted),
    );
}

fn line(name: &str, value: f64, unit: &str, note: &str) {
    println!("   {name:<34} {value:>16.6} {unit:<8} {note}");
}

/// A JSON number: every digit as measured, never NaN or infinity.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn provenance(args: &Args, workers: usize) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    let quote = |text: String| format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"provenance\": {{\"nproc\": {workers}, \"commit\": {}, \"source_sha256\": {}, \"rustc\": {}, \
         \"profile\": \"{}\", \"fabric_workers\": {workers}, \"profiler_pool\": {workers}, \"workload\": {}, \
         \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}}}}}",
        quote(env("PERFBENCH_COMMIT")),
        quote(env("PERFBENCH_SOURCE")),
        quote(env("PERFBENCH_RUSTC")),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        quote(args.workload.clone()),
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let work_dir = PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(error) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {error}", work_dir.display());
        return ExitCode::from(2);
    }
    let ctx =
        Ctx { seed: args.seed, budget: Duration::from_secs_f64(args.seconds), workers, work_dir: work_dir.clone() };
    println!("{}", provenance(&args, workers));

    let names: Vec<&str> = if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        let outcome = run_workload(name, &ctx, args.trace);
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (metric, value, unit) in outcome.metrics {
            let key = if names.len() > 1 { format!("{name}.{metric}") } else { metric };
            metrics.push((key, value, unit));
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this binary prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"name\": ").count(), END_TO_END.len() + LAYERS.len() + WORKLOADS.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")), "BENCHMARK.json lacks {workload}");
        }
    }
}

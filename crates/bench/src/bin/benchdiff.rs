//! Checks one `cargo bench --workspace` run against the benchmark gates.
//!
//! ```text
//! LFI_BENCH_FAST=1 LFI_BENCH_JSON=$PWD/bench-lines.ndjson cargo bench --workspace
//! benchdiff bench-lines.ndjson
//! ```
//!
//! Prints every gate and each bench's ratio to `BENCH_BASELINE.json`, and
//! exits non-zero if a gate fails, a required bench is missing or a line
//! is malformed (see [`lfi_bench::benchdiff()`]).

use std::process::ExitCode;

/// The committed baseline, read at build time.
const BASELINE: &str = include_str!("../../../../BENCH_BASELINE.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: benchdiff <bench-lines.ndjson>");
        return ExitCode::from(2);
    };
    let ndjson = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("benchdiff: cannot read {path}: {error}");
            return ExitCode::from(2);
        }
    };
    match lfi_bench::benchdiff(&ndjson, BASELINE) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            print!("{report}");
            ExitCode::FAILURE
        }
    }
}

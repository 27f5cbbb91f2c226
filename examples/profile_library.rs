//! Profile the corpus libc against the synthetic kernel image and show what
//! the paper's §3.3 shows: the `close` fault profile (return value -1 with
//! several errno alternatives, including the EIO value missing from BSD man
//! pages) and the other documentation mismatches.
//!
//! Run with `cargo run --example profile_library`.

use std::sync::Arc;

use lfi::core::experiments;
use lfi::corpus::{build_kernel, build_libc_scaled, libc_errno_documentation};
use lfi::isa::Platform;
use lfi::profiler::{Profiler, ProfilerOptions};

fn main() {
    let platform = Platform::LinuxX86;
    let libc = build_libc_scaled(platform, 120);

    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(libc.compiled.object.clone());
    profiler.set_kernel(build_kernel(platform));

    let report = profiler.profile_library("libc.so.6").expect("libc profiles");
    println!(
        "profiled {} exported functions ({} bytes of text) in {:.2} ms; longest propagation chain: {} hops",
        report.stats.functions_analyzed,
        report.stats.code_size_bytes,
        report.stats.duration.as_secs_f64() * 1000.0,
        report.stats.max_propagation_hops,
    );

    // A second call replays the shared AnalysisDb: no disassembly, every
    // resolution served from the memo.
    let warm = profiler.profile_library("libc.so.6").expect("libc profiles");
    assert_eq!(warm.profile, report.profile);
    println!(
        "warm repeat in {:.2} ms: {} resolution-cache hits, {} disassemblies",
        warm.stats.duration.as_secs_f64() * 1000.0,
        warm.stats.resolution_cache_hits,
        warm.stats.disasm_cache_misses,
    );

    // The §3.3 close() snippet.
    let close = report.profile.function("close").expect("close is exported");
    println!("\n== close() fault profile ==");
    for error in &close.error_returns {
        println!("  retval {}", error.retval);
        for effect in &error.side_effects {
            println!("    side effect: {} {}@{:#x} = {}", effect.kind, effect.module, effect.offset, effect.value);
        }
    }
    println!("\nBSD-style documentation for close(): {:?}", libc_errno_documentation().get("close").unwrap());

    // The doc-mismatch sweep (close/EIO, modify_ldt/ENOMEM, htmlParseDocument/1).
    let findings = experiments::doc_mismatches(1);
    println!("\n{}", experiments::render_doc_mismatches(&findings));

    // And the profile itself, as XML, for two functions.
    let mut narrowed = Arc::unwrap_or_clone(report.profile);
    narrowed.retain_functions(&["close", "read"]);
    println!("== profile excerpt (XML) ==\n{}", narrowed.to_xml());
}

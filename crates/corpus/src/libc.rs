//! The corpus's GNU-libc-like library (plus the Apache Portable Runtime
//! libraries used by the §6.4 overhead experiment) and their documentation
//! models, including the deliberate man-page omissions the paper calls out.

use std::collections::BTreeSet;

use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi_isa::Platform;

use crate::kernel::{syscall_by_name, SYSCALL_TABLE};
use crate::truth::{error_map, CorpusLibrary, ErrorCodeMap};

/// Number of exported functions in the corpus libc, matching the figure the
/// paper quotes for GNU libc in §6.4.
pub const LIBC_EXPORTS: usize = 1535;

/// Builds a smaller libc with the same named functions but fewer synthetic
/// filler exports — used by tests that do not need the full 1535 functions.
pub fn build_libc_scaled(platform: Platform, exports: usize) -> CorpusLibrary {
    let mut spec = LibrarySpec::new("libc.so.6", platform).dependency("kernel.img");
    let mut documentation = ErrorCodeMap::new();
    let mut execution_truth = ErrorCodeMap::new();

    // Thin wrappers over every system call: `read`, `write`, `close`, …
    // Each returns -1 and lets the kernel-provided errno flow through the
    // §3.2 negate-and-store idiom.
    for syscall in SYSCALL_TABLE {
        spec = spec.function(
            FunctionSpec::scalar(syscall.name, 3)
                .success(0)
                .fault(FaultSpec::via_syscall(syscall.num)),
        );
        documentation.insert(syscall.name.to_owned(), BTreeSet::from([-1]));
        execution_truth.insert(syscall.name.to_owned(), BTreeSet::from([-1]));
    }

    // Variants that the ready-made scenarios reference.
    for (name, base) in [
        ("open64", "open"),
        ("readdir", "getdents"),
        ("readdir64", "getdents"),
        ("pread", "read"),
        ("pwrite", "write"),
        ("sendto", "send"),
        ("recvfrom", "recv"),
        ("getaddrinfo", "connect"),
    ] {
        let syscall = syscall_by_name(base).expect("base syscall exists");
        spec = spec.function(FunctionSpec::scalar(name, 4).success(0).fault(FaultSpec::via_syscall(syscall.num)));
        documentation.insert(name.to_owned(), BTreeSet::from([-1]));
        execution_truth.insert(name.to_owned(), BTreeSet::from([-1]));
    }

    // Memory allocators: pointer-returning, fail with a null pointer and
    // ENOMEM.
    for name in ["malloc", "calloc", "realloc", "posix_memalign"] {
        spec = spec.function(
            FunctionSpec::pointer(name, 2)
                .success(0x10000)
                .fault(FaultSpec::returning(0).with_errno(12)),
        );
        documentation.insert(name.to_owned(), BTreeSet::from([0]));
        execution_truth.insert(name.to_owned(), BTreeSet::from([0]));
    }

    // A handful of infallible helpers (no error returns at all).
    spec = spec
        .function(FunctionSpec::scalar("getpid", 0).success(1234))
        .function(FunctionSpec::void("free", 1))
        .function(FunctionSpec::scalar("strlen", 1).success(0))
        .function(FunctionSpec::scalar("isatty", 1).boolean_predicate());

    // Synthetic filler exports to reach the requested export count, each with
    // a small direct error set, padded so the library's code segment is large
    // (profiling time in §6.2 scales with code size).
    let named_so_far = spec.function_count();
    for index in 0..exports.saturating_sub(named_so_far) {
        let name = format!("libc_internal_{index:04}");
        let code = -((index % 37) as i64 + 1);
        spec = spec.function(FunctionSpec::scalar(&name, 2).success(0).fault(FaultSpec::returning(code)).padded(24));
        documentation.insert(name.clone(), BTreeSet::from([code]));
        execution_truth.insert(name, BTreeSet::from([code]));
    }

    let compiled = LibraryCompiler::new().compile(&spec);
    CorpusLibrary { compiled, documentation, execution_truth }
}

/// The errno values the (BSD-flavoured) documentation lists for a few libc
/// functions — deliberately missing values the binary can actually produce,
/// reproducing the §3.1/§3.3 anecdotes:
///
/// * `close` is documented to set only EBADF and EINTR, but the Linux kernel
///   can also produce EIO;
/// * `modify_ldt` is documented with EFAULT, EINVAL and ENOSYS, but ENOMEM is
///   also possible.
pub fn libc_errno_documentation() -> ErrorCodeMap {
    error_map(&[
        ("close", &[9, 4]),
        ("modify_ldt", &[14, 22, 38]),
        ("read", &[9, 4, 5, 11, 14, 22]),
        ("write", &[9, 4, 5, 11, 14, 22, 28, 32]),
    ])
}

/// The errno values each libc wrapper can actually set, derived from the
/// kernel's syscall table.
pub fn libc_errno_truth() -> ErrorCodeMap {
    let mut map = ErrorCodeMap::new();
    for syscall in SYSCALL_TABLE {
        map.insert(syscall.name.to_owned(), syscall.errors.iter().copied().collect());
    }
    map
}

/// Builds the corpus libapr (Apache Portable Runtime) at the given scale.
pub fn build_apr_scaled(platform: Platform, exports: usize) -> CorpusLibrary {
    build_prefixed_library("libapr-1.so.0", "apr", platform, exports)
}

/// Builds the corpus libaprutil at the given scale.
pub fn build_aprutil_scaled(platform: Platform, exports: usize) -> CorpusLibrary {
    build_prefixed_library("libaprutil-1.so.0", "apu", platform, exports)
}

fn build_prefixed_library(library: &str, prefix: &str, platform: Platform, exports: usize) -> CorpusLibrary {
    let mut spec = LibrarySpec::new(library, platform).dependency("libc.so.6");
    let mut documentation = ErrorCodeMap::new();
    let mut execution_truth = ErrorCodeMap::new();

    // A few well-known APR entry points the Apache workload calls by name.
    for name in [
        format!("{prefix}_file_read"),
        format!("{prefix}_file_write"),
        format!("{prefix}_socket_recv"),
        format!("{prefix}_socket_send"),
        format!("{prefix}_palloc"),
        format!("{prefix}_pool_create"),
    ] {
        spec = spec.function(FunctionSpec::scalar(&name, 3).success(0).fault(FaultSpec::returning(-1).with_errno(5)));
        documentation.insert(name.clone(), BTreeSet::from([-1]));
        execution_truth.insert(name, BTreeSet::from([-1]));
    }

    let named = spec.function_count();
    for index in 0..exports.saturating_sub(named) {
        let name = format!("{prefix}_fn_{index:04}");
        let code = -((index % 23) as i64 + 1);
        spec = spec.function(FunctionSpec::scalar(&name, 2).success(0).fault(FaultSpec::returning(code)).padded(12));
        documentation.insert(name.clone(), BTreeSet::from([code]));
        execution_truth.insert(name, BTreeSet::from([code]));
    }

    let compiled = LibraryCompiler::new().compile(&spec);
    CorpusLibrary { compiled, documentation, execution_truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::build_kernel;
    use lfi_profile::SideEffectKind;
    use lfi_profiler::{Profiler, ProfilerOptions};

    #[test]
    fn scaled_libc_has_the_requested_export_count() {
        let libc = build_libc_scaled(Platform::LinuxX86, 120);
        assert_eq!(libc.compiled.object.export_count(), 120);
        assert!(libc.compiled.object.symbol_by_name("read").is_some());
        assert!(libc.compiled.object.symbol_by_name("malloc").is_some());
        assert!(libc.compiled.object.validate().is_ok());
    }

    #[test]
    fn full_scale_constants_match_the_paper() {
        assert_eq!(LIBC_EXPORTS, 1535);
    }

    #[test]
    fn profiling_libc_reproduces_the_close_eio_doc_mismatch() {
        let libc = build_libc_scaled(Platform::LinuxX86, 80);
        let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
        profiler.add_library(libc.compiled.object.clone());
        profiler.set_kernel(build_kernel(Platform::LinuxX86));
        let report = profiler.profile_library("libc.so.6").unwrap();

        let close = report.profile.function("close").unwrap();
        let errno_found: BTreeSet<i64> = close
            .error_returns
            .iter()
            .flat_map(|r| r.side_effects.iter())
            .filter(|s| s.kind == SideEffectKind::Tls)
            .map(|s| s.value)
            .collect();
        let documented = libc_errno_documentation().remove("close").unwrap();
        // The profiler finds EIO (5) even though the documentation omits it.
        assert!(errno_found.contains(&5));
        assert!(!documented.contains(&5));
        let undocumented: BTreeSet<i64> = errno_found.difference(&documented).copied().collect();
        assert_eq!(undocumented, BTreeSet::from([5]));
    }

    #[test]
    fn errno_truth_covers_every_syscall_wrapper() {
        let truth = libc_errno_truth();
        assert!(truth.get("close").unwrap().contains(&5));
        assert!(truth.get("modify_ldt").unwrap().contains(&12));
        assert_eq!(truth.len(), SYSCALL_TABLE.len());
    }

    #[test]
    fn apr_libraries_scale_and_carry_named_entry_points() {
        let apr = build_apr_scaled(Platform::LinuxX86, 60);
        let aprutil = build_aprutil_scaled(Platform::LinuxX86, 40);
        assert_eq!(apr.compiled.object.export_count(), 60);
        assert_eq!(aprutil.compiled.object.export_count(), 40);
        assert!(apr.compiled.object.symbol_by_name("apr_file_read").is_some());
        assert!(aprutil.compiled.object.symbol_by_name("apu_palloc").is_some());
    }

    #[test]
    fn malloc_documents_the_null_pointer_failure() {
        let libc = build_libc_scaled(Platform::LinuxX86, 80);
        assert!(libc.documentation.get("malloc").unwrap().contains(&0));
        assert!(libc.execution_truth.get("malloc").unwrap().contains(&0));
    }
}

//! The synthetic kernel image.
//!
//! libc and libstdc++ "wrap kernel system calls, so many dependent functions
//! reside in the kernel.  LFI therefore performs static analysis on the
//! kernel image as well" (§3.1).  This module builds that kernel image: one
//! `sys_<number>` entry point per system call, each returning 0 on success or
//! one of a set of negative errno constants on failure, following the Linux
//! convention the paper's §3.2 listing relies on.

use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi_isa::Platform;
use lfi_objfile::SharedObject;

/// One system call: its number, name and the errno values its handler can
/// produce (positive errno values; the handler returns their negation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SyscallSpec {
    /// System call number.
    pub num: u32,
    /// Conventional name (e.g. `read`).
    pub name: &'static str,
    /// Positive errno values the call can fail with.
    pub errors: &'static [i64],
}

/// The system call table shared by the corpus's libc wrappers.
///
/// Error sets follow the Linux man pages closely enough for the doc-mismatch
/// experiments: `close` (syscall 3) can fail with EBADF, EINTR *and* EIO even
/// though BSD documentation only lists the first two (§3.3).
pub(crate) const SYSCALL_TABLE: &[SyscallSpec] = &[
    SyscallSpec { num: 0, name: "read", errors: &[9, 4, 5, 11, 14, 22] },
    SyscallSpec { num: 1, name: "write", errors: &[9, 4, 5, 11, 14, 22, 28, 32] },
    SyscallSpec { num: 2, name: "open", errors: &[13, 17, 2, 24, 23, 12, 20, 28] },
    SyscallSpec { num: 3, name: "close", errors: &[9, 4, 5] },
    SyscallSpec { num: 4, name: "stat", errors: &[13, 9, 14, 2, 12, 20] },
    SyscallSpec { num: 5, name: "fstat", errors: &[9, 14, 12] },
    SyscallSpec { num: 6, name: "lseek", errors: &[9, 22, 29] },
    SyscallSpec { num: 7, name: "mmap", errors: &[13, 9, 22, 12, 19] },
    SyscallSpec { num: 8, name: "brk", errors: &[12] },
    SyscallSpec { num: 9, name: "socket", errors: &[13, 24, 23, 105, 12, 22] },
    SyscallSpec { num: 10, name: "connect", errors: &[13, 11, 9, 111, 4, 115, 110] },
    SyscallSpec { num: 11, name: "accept", errors: &[11, 9, 104, 24, 23, 12] },
    SyscallSpec { num: 12, name: "send", errors: &[11, 9, 104, 4, 12, 32, 107] },
    SyscallSpec { num: 13, name: "recv", errors: &[11, 9, 104, 4, 12, 107] },
    SyscallSpec { num: 14, name: "unlink", errors: &[13, 16, 5, 2, 30] },
    SyscallSpec { num: 15, name: "rename", errors: &[13, 16, 22, 2, 28, 30] },
    SyscallSpec { num: 16, name: "fsync", errors: &[9, 5, 22, 28] },
    SyscallSpec { num: 17, name: "ftruncate", errors: &[9, 4, 5, 22, 27] },
    SyscallSpec { num: 18, name: "pipe", errors: &[24, 23, 14] },
    SyscallSpec { num: 19, name: "select", errors: &[9, 4, 22, 12] },
    SyscallSpec { num: 20, name: "poll", errors: &[14, 4, 22, 12] },
    SyscallSpec { num: 21, name: "getdents", errors: &[9, 14, 22, 20] },
    SyscallSpec { num: 22, name: "modify_ldt", errors: &[14, 22, 38, 12] },
    SyscallSpec { num: 23, name: "bind", errors: &[13, 22, 98, 9] },
    SyscallSpec { num: 24, name: "listen", errors: &[9, 95, 98] },
];

/// Looks up a system call by conventional name.
pub(crate) fn syscall_by_name(name: &str) -> Option<&'static SyscallSpec> {
    SYSCALL_TABLE.iter().find(|s| s.name == name)
}

/// Builds the kernel image for a platform: one exported `sys_<num>` function
/// per table entry, returning 0 on success and `-errno` on each failure path.
pub fn build_kernel(platform: Platform) -> SharedObject {
    let mut spec = LibrarySpec::new("kernel.img", platform);
    for syscall in SYSCALL_TABLE {
        let mut function = FunctionSpec::scalar(format!("sys_{}", syscall.num), 6).success(0);
        for error in syscall.errors {
            function = function.fault(FaultSpec::returning(-error));
        }
        spec = spec.function(function);
    }
    LibraryCompiler::new().compile(&spec).object
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profiler::Profiler;

    #[test]
    fn table_lookups() {
        assert_eq!(syscall_by_name("close").unwrap().num, 3);
        assert!(syscall_by_name("frobnicate").is_none());
        // Numbers are unique.
        let mut nums: Vec<u32> = SYSCALL_TABLE.iter().map(|s| s.num).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), SYSCALL_TABLE.len());
    }

    #[test]
    fn kernel_exports_one_entry_point_per_syscall() {
        let kernel = build_kernel(Platform::LinuxX86);
        assert_eq!(kernel.export_count(), SYSCALL_TABLE.len());
        assert!(kernel.symbol_by_name("sys_3").is_some());
        assert!(kernel.validate().is_ok());
    }

    #[test]
    fn profiling_the_kernel_finds_the_negative_error_constants() {
        let kernel = build_kernel(Platform::LinuxX86);
        let mut profiler = Profiler::new();
        profiler.add_library(kernel);
        let report = profiler.profile_library("kernel.img").unwrap();
        let close_handler = report.profile.function("sys_3").unwrap();
        let values = close_handler.error_values();
        for errno in syscall_by_name("close").unwrap().errors {
            assert!(values.contains(&-errno), "missing -{errno}");
        }
    }

    #[test]
    fn close_error_set_includes_the_undocumented_eio() {
        // EIO (5) is the value BSD man pages omit; the kernel must produce it
        // so the doc-mismatch experiment has something to find.
        assert!(syscall_by_name("close").unwrap().errors.contains(&5));
    }
}

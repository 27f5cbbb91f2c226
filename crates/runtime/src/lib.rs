//! # lfi-runtime — the simulated process the LFI controller instruments
//!
//! The real LFI controller shims a synthesized interceptor library between a
//! program and its shared libraries using `LD_PRELOAD` (Linux/Solaris) or
//! `CreateRemoteThread`/`LoadLibrary` (Windows).  This crate provides the
//! process model that substitution needs: libraries are sets of named
//! behaviours ([`NativeLibrary`]), a [`Process`] resolves symbols by load
//! order (preloads first, so interceptors shadow originals), a shadowed
//! definition stays reachable via [`CallContext::call_next`] (the
//! `dlsym(RTLD_NEXT)` path of the paper's stub), and the process carries the
//! `errno`/TLS/global state and call stack that fault side effects and
//! stack-trace triggers operate on.
//!
//! ```
//! use lfi_runtime::{NativeLibrary, Process};
//!
//! let mut process = Process::new();
//! process.load(NativeLibrary::builder("libc.so.6").constant("getpid", 42).build());
//! assert_eq!(process.call("getpid", &[]).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
mod error;
mod library;
mod process;
mod status;

pub use arena::{ArenaStats, PooledProcess, PreparedProcess, ProcessArena};
pub use error::RuntimeError;
pub use lfi_intern::{Symbol, SymbolTable};
pub use library::{NativeLibrary, NativeLibraryBuilder};
pub use process::{CallContext, FnPtr, Process, ProcessSnapshot, ProcessState, DEFAULT_CALL_LOG_CAPACITY};
pub use status::{ExitStatus, Signal};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Process>();
        assert_send_sync::<NativeLibrary>();
        assert_send_sync::<RuntimeError>();
        assert_send_sync::<ExitStatus>();
    }
}

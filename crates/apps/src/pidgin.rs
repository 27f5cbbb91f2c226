//! The Pidgin-like instant-messenger client and the DNS-resolver bug LFI
//! found in it (§6.1).
//!
//! Structure of the real bug, reproduced here: Pidgin forks a DNS-resolver
//! child that answers resolution requests over a pipe.  For each request the
//! child writes a status word, then the size of the resolved address, then
//! the address bytes — *without checking whether the writes succeed*.  If a
//! write fails or is short, the stream read by the parent shifts: the parent
//! reads a status (fine), then reads what it believes is the size but is
//! actually data from a later message — a very large value — and calls
//! `malloc` with it.  The allocation fails and the client dies with SIGABRT.

use lfi_runtime::{ExitStatus, Process, Signal};

/// Status word the resolver child writes for a successful resolution.
const STATUS_OK: i64 = 0;
/// Size, in bytes, of a resolved IPv4 address record.
const ADDR_SIZE: i64 = 16;
/// The "address bytes" payload (a value recognisably larger than any sane
/// allocation size, so a misaligned read of it forces the allocation
/// failure).
const ADDR_PAYLOAD: i64 = 0xC0A8_0101_0000;

/// The simulated Pidgin client.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PidginApp {
    /// Number of host names the login sequence resolves.
    pub dns_requests: usize,
}

impl PidginApp {
    /// A client whose login resolves the default number of host names.
    pub(crate) fn new() -> Self {
        Self { dns_requests: 4 }
    }

    /// The resolver child: services every request by writing status, size and
    /// payload to the pipe, ignoring write failures (the bug).
    fn resolver_child(&self, process: &mut Process, pipe: i64) {
        process.push_frame("dns_resolver_child");
        for _ in 0..self.dns_requests {
            // The child does not look at the results of these writes.
            let _ = process.call("write", &[pipe, STATUS_OK, 8]);
            let _ = process.call("write", &[pipe, ADDR_SIZE, 8]);
            let _ = process.call("write", &[pipe, ADDR_PAYLOAD, ADDR_SIZE]);
        }
        process.pop_frame();
    }

    /// The parent: reads each response, allocates room for the address and
    /// copies it.  A failed allocation aborts the process (g_malloc style).
    fn parent_read_responses(&self, process: &mut Process, pipe: i64) -> ExitStatus {
        process.push_frame("refresh_files");
        for _ in 0..self.dns_requests {
            let status = match process.call("read", &[pipe]) {
                Ok(value) => value,
                Err(_) => return ExitStatus::Exited(1),
            };
            if status != STATUS_OK {
                // Read error or resolver-reported failure: handled gracefully.
                process.pop_frame();
                return ExitStatus::Exited(1);
            }
            let size = process.call("read", &[pipe]).unwrap_or(-1);
            if size < 0 {
                process.pop_frame();
                return ExitStatus::Exited(1);
            }
            // The unchecked assumption: `size` is a small address length.
            let buffer = process.call("malloc", &[size]).unwrap_or(0);
            if buffer == 0 {
                // g_malloc aborts when the allocation fails.
                process.pop_frame();
                return ExitStatus::Crashed(Signal::Abort);
            }
            let _address = process.call("read", &[pipe]).unwrap_or(0);
            let _ = process.call("free", &[buffer, size]);
        }
        process.pop_frame();
        ExitStatus::Exited(0)
    }

    /// Runs the login sequence: create the resolver pipe, run the child, then
    /// let the parent consume the responses.  The pipe lives in the shared
    /// [`SimWorld`](crate::SimWorld) the process's native libc was built
    /// over, so the process is all the state the login needs.
    pub(crate) fn login(&self, process: &mut Process) -> ExitStatus {
        let pipe = match process.call("pipe", &[]) {
            Ok(fd) if fd >= 0 => fd,
            _ => return ExitStatus::Exited(1),
        };
        self.resolver_child(process, pipe);
        let status = self.parent_read_responses(process, pipe);
        let _ = process.call("close", &[pipe]);
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{base_process, new_world};

    #[test]
    fn login_succeeds_without_fault_injection() {
        let world = new_world();
        let mut process = base_process(&world, false);
        let status = PidginApp::new().login(&mut process);
        assert_eq!(status, ExitStatus::Exited(0));
    }

    #[test]
    fn dropping_the_size_write_crashes_with_sigabrt() {
        // Simulate the injected fault by making the second write of the first
        // request fail: preload a tiny interceptor that drops it.
        use lfi_runtime::NativeLibrary;
        let world = new_world();
        let mut process = base_process(&world, false);
        let drop_second_write = NativeLibrary::builder("inject.so")
            .function("write", {
                let counter = std::sync::atomic::AtomicU64::new(0);
                move |ctx| {
                    let count = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if count == 2 {
                        ctx.set_errno(4);
                        -1
                    } else {
                        ctx.call_next().unwrap_or(-1)
                    }
                }
            })
            .build();
        process.preload(drop_second_write);
        let status = PidginApp::new().login(&mut process);
        assert_eq!(status, ExitStatus::Crashed(Signal::Abort));
    }

    #[test]
    fn dropping_a_status_write_is_handled_gracefully() {
        use lfi_runtime::NativeLibrary;
        let world = new_world();
        let mut process = base_process(&world, false);
        let drop_first_write = NativeLibrary::builder("inject.so")
            .function("write", {
                let counter = std::sync::atomic::AtomicU64::new(0);
                move |ctx| {
                    let count = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if count == 1 {
                        ctx.set_errno(4);
                        -1
                    } else {
                        ctx.call_next().unwrap_or(-1)
                    }
                }
            })
            .build();
        process.preload(drop_first_write);
        let status = PidginApp::new().login(&mut process);
        // The parent notices the bogus status word and backs out cleanly —
        // no crash, just a failed login.
        assert_eq!(status, ExitStatus::Exited(1));
    }
}

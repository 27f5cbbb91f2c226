//! The Apache-httpd-like server and the AB-like load generator used by the
//! §6.4 overhead experiment (Table 3).
//!
//! Requests come in two flavours matching the paper's two workloads: *static
//! HTML*, which touches the C library a handful of times per request, and
//! *PHP*, which "performs many more library calls than the former, which
//! implies that the triggers have to be evaluated considerably more times."

use std::time::Instant;

use lfi_runtime::Process;

use crate::native::service_work;

/// CPU work units burned per static-HTML request (kernel + socket work a real
/// server performs besides the library calls themselves).
const STATIC_REQUEST_WORK: u64 = 60_000;
/// CPU work units burned per PHP request (script interpretation dominates).
const PHP_REQUEST_WORK: u64 = 700_000;

/// The two workloads of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A static HTML page: open, read, send, close.
    StaticHtml,
    /// A PHP page: pools, many buffered reads/writes, session allocation.
    Php,
}

/// The simulated Apache httpd server.
#[derive(Debug)]
pub struct ApacheServer {
    client_fd: i64,
    document_fd: i64,
}

impl ApacheServer {
    /// Starts the server: opens the listening socket and the document root
    /// (streams in the process's [`SimWorld`](crate::SimWorld)).
    pub fn start(process: &mut Process) -> ApacheServer {
        let client_fd = process.call("socket", &[]).unwrap_or(-1);
        let document_fd = process.call("open", &[]).unwrap_or(-1);
        ApacheServer { client_fd, document_fd }
    }

    /// Handles one request; returns the number of bytes "sent" (negative when
    /// the request failed but the server survived).
    pub fn handle_request(&mut self, process: &mut Process, kind: RequestKind) -> i64 {
        match kind {
            RequestKind::StaticHtml => self.handle_static(process),
            RequestKind::Php => self.handle_php(process),
        }
    }

    fn handle_static(&mut self, process: &mut Process) -> i64 {
        process.push_frame("ap_process_request");
        service_work(STATIC_REQUEST_WORK);
        let fd = process.call("open", &[]).unwrap_or(-1);
        if fd < 0 {
            process.pop_frame();
            return -1;
        }
        let _content = process.call("read", &[fd]).unwrap_or(-1);
        let sent = process.call("send", &[self.client_fd, 200, 4096]).unwrap_or(-1);
        let _ = process.call("close", &[fd]);
        process.pop_frame();
        sent
    }

    fn handle_php(&mut self, process: &mut Process) -> i64 {
        process.push_frame("ap_process_request");
        process.push_frame("php_execute_script");
        service_work(PHP_REQUEST_WORK);
        let pool = process.call("apr_palloc", &[8192]).unwrap_or(0);
        if pool == 0 {
            process.pop_frame();
            process.pop_frame();
            return -1;
        }
        let mut produced = 0i64;
        // The script performs many buffered reads and writes through APR and
        // allocates session state as it goes.
        for chunk in 0..12 {
            let _ = process.call("apr_file_read", &[self.document_fd]);
            let session = process.call("malloc", &[256]).unwrap_or(0);
            if session != 0 {
                let _ = process.call("free", &[session, 256]);
            }
            produced += process.call("apr_socket_send", &[self.client_fd, chunk, 512]).unwrap_or(0).max(0);
        }
        let _ = process.call("apu_brigade_write", &[self.client_fd, 1, 128]);
        let _ = process.call("free", &[pool, 8192]);
        process.pop_frame();
        process.pop_frame();
        produced
    }
}

/// The AB-like load generator.
pub mod ab {
    use super::{ApacheServer, RequestKind};
    use lfi_runtime::Process;
    use std::time::Duration;

    /// The result of one AB run, matching what Table 3 reports (completion
    /// time of 1,000 requests).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct AbReport {
        /// Requests issued.
        pub requests: u64,
        /// Requests that completed with a positive byte count.
        pub completed: u64,
        /// Total wall-clock time.
        pub elapsed: Duration,
    }

    impl AbReport {
        /// Completion time in seconds.
        pub fn completion_seconds(&self) -> f64 {
            self.elapsed.as_secs_f64()
        }
    }

    /// Runs `requests` requests of the given kind against the server.
    pub fn run_ab(server: &mut ApacheServer, process: &mut Process, kind: RequestKind, requests: u64) -> AbReport {
        let start = super::Instant::now();
        let mut completed = 0;
        for _ in 0..requests {
            if server.handle_request(process, kind) >= 0 {
                completed += 1;
            }
        }
        AbReport { requests, completed, elapsed: start.elapsed() }
    }
}

/// The libc/APR functions Apache calls most, in descending call-frequency
/// order — the "top-10 / top-100 / top-300 most-called functions" the paper
/// attaches triggers to.  The list cycles for indices past its length.
pub fn most_called_functions(top: usize) -> Vec<&'static str> {
    const RANKED: &[&str] = &[
        "send",
        "read",
        "apr_socket_send",
        "apr_file_read",
        "malloc",
        "free",
        "open",
        "close",
        "apr_palloc",
        "recv",
        "write",
        "apu_brigade_write",
        "socket",
        "stat",
        "lseek",
        "select",
        "poll",
        "fsync",
        "getaddrinfo",
        "connect",
    ];
    (0..top).map(|i| RANKED[i % RANKED.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::ab::run_ab;
    use super::*;
    use crate::native::{base_process, new_world};

    fn server_and_process() -> (ApacheServer, Process) {
        let world = new_world();
        let mut process = base_process(&world, true);
        let server = ApacheServer::start(&mut process);
        (server, process)
    }

    #[test]
    fn both_workloads_complete_without_injection() {
        let (mut server, mut process) = server_and_process();
        assert!(server.handle_request(&mut process, RequestKind::StaticHtml) > 0);
        assert!(server.handle_request(&mut process, RequestKind::Php) > 0);
    }

    #[test]
    fn php_requests_make_many_more_library_calls_than_static_ones() {
        let (mut server, mut process) = server_and_process();
        process.state_mut().set_call_log_enabled(true);
        server.handle_request(&mut process, RequestKind::StaticHtml);
        let static_calls = process.state().call_log().len();
        process.state_mut().clear_call_log();
        server.handle_request(&mut process, RequestKind::Php);
        let php_calls = process.state().call_log().len();
        assert!(static_calls >= 4);
        assert!(php_calls > static_calls * 5, "php {php_calls} vs static {static_calls}");
    }

    #[test]
    fn ab_reports_completion_time_and_counts() {
        let (mut server, mut process) = server_and_process();
        let report = run_ab(&mut server, &mut process, RequestKind::StaticHtml, 200);
        assert_eq!(report.requests, 200);
        assert_eq!(report.completed, 200);
        assert!(report.completion_seconds() >= 0.0);
    }

    #[test]
    fn most_called_list_cycles_past_its_length() {
        assert_eq!(most_called_functions(10).len(), 10);
        let top300 = most_called_functions(300);
        assert_eq!(top300.len(), 300);
        assert_eq!(top300[0], top300[20]);
        assert!(most_called_functions(3).contains(&"send"));
    }

    #[test]
    fn failed_open_degrades_gracefully() {
        use lfi_runtime::NativeLibrary;
        let (mut server, mut process) = server_and_process();
        process.preload(
            NativeLibrary::builder("inject.so")
                .function("open", |ctx| {
                    ctx.set_errno(24);
                    -1
                })
                .build(),
        );
        assert_eq!(server.handle_request(&mut process, RequestKind::StaticHtml), -1);
    }
}

//! The MySQL-like database server: a small storage engine with its own test
//! suite, basic-block coverage counters (§6.1) and the OLTP operations driven
//! by the SysBench-like workload (§6.4, Table 4).

use lfi_runtime::{Process, Signal};

use crate::coverage::CoverageMap;
use crate::native::service_work;

/// CPU work units burned per point select (B-tree descent, row copy).
const SELECT_WORK: u64 = 45_000;
/// CPU work units burned per update (index maintenance, undo logging).
const UPDATE_WORK: u64 = 70_000;
/// CPU work units burned per insert.
const INSERT_WORK: u64 = 55_000;
/// CPU work units burned per log flush.
const FLUSH_WORK: u64 = 90_000;

/// The server's modules and their (normal, error-handling) basic-block
/// counts.  The test suite exercises every normal block of every module
/// except `replication`; error-handling blocks only run when a library call
/// fails, which regular testing never provokes — that is the coverage gap LFI
/// closes.
pub(crate) const MODULES: &[(&str, usize, usize)] = &[
    ("parser", 40, 8),
    ("optimizer", 30, 6),
    ("executor", 48, 14),
    ("innodb", 56, 16),
    ("innodb_ibuf", 22, 3),
    ("net", 30, 10),
    ("replication", 14, 10),
];

/// Result of one SQL operation: `Ok(rows)` or a fatal signal.
pub(crate) type QueryResult = Result<i64, Signal>;

/// The report produced by a test-suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Number of test cases executed.
    pub cases: usize,
    /// Number of cases that died with SIGSEGV.
    pub crashes: usize,
    /// Coverage accumulated over the run.
    pub coverage: CoverageMap,
}

impl SuiteReport {
    /// Overall basic-block coverage, in [0, 1].
    pub fn overall_coverage(&self) -> f64 {
        self.coverage.overall()
    }
}

/// The simulated MySQL server.
#[derive(Debug)]
pub struct MysqlServer {
    coverage: CoverageMap,
    table: Vec<i64>,
    data_fd: i64,
    log_fd: i64,
    client_fd: i64,
}

impl MysqlServer {
    /// Starts the server: opens the data file, redo log and a client socket,
    /// and registers every basic block with the coverage map.  The streams
    /// live in the [`SimWorld`](crate::SimWorld) the process's native libc
    /// was built over.
    pub fn start(process: &mut Process) -> MysqlServer {
        let mut coverage = CoverageMap::new();
        for (module, ok, err) in MODULES {
            for i in 0..*ok {
                coverage.register(module, &format!("ok_{i}"));
            }
            for i in 0..*err {
                coverage.register(module, &format!("err_{i}"));
            }
        }
        let data_fd = process.call("open", &[]).unwrap_or(-1);
        let log_fd = process.call("open", &[]).unwrap_or(-1);
        let client_fd = process.call("socket", &[]).unwrap_or(-1);
        MysqlServer { coverage, table: Vec::new(), data_fd, log_fd, client_fd }
    }

    /// The coverage accumulated so far.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    fn hit_ok(&mut self, module: &str, start: usize, end: usize) {
        for i in start..end {
            self.coverage.hit(module, &format!("ok_{i}"));
        }
    }

    fn hit_error_block(&mut self, module: &str, errno: i64) {
        let err_count = MODULES.iter().find(|(m, _, _)| *m == module).map_or(1, |(_, _, e)| *e);
        let index = (errno.unsigned_abs() as usize) % err_count.max(1);
        self.coverage.hit(module, &format!("err_{index}"));
    }

    /// INSERT: allocate a row buffer, append the row, write it to the redo
    /// log.  `checked` decides whether the allocation result is validated
    /// (the ~12 unchecked call sites are what crashed with SIGSEGV in §6.1).
    pub fn insert(&mut self, process: &mut Process, value: i64, checked: bool) -> QueryResult {
        service_work(INSERT_WORK);
        self.hit_ok("parser", 0, 14);
        self.hit_ok("executor", 0, 16);
        let errno_before = process.state().errno();
        let buffer = process.call("malloc", &[64]).unwrap_or(0);
        if buffer == 0 {
            if !checked {
                // Unchecked allocation: the row pointer is dereferenced.
                return Err(Signal::Segv);
            }
            self.hit_error_block("executor", process.state().errno().max(1));
            return Ok(-1);
        }
        let _ = errno_before;
        self.table.push(value);
        let written = process.call("write", &[self.log_fd, value, 64]).unwrap_or(-1);
        let _ = process.call("free", &[buffer, 64]);
        self.hit_ok("innodb", 0, 18);
        if written < 0 {
            self.hit_error_block("innodb", process.state().errno().max(1));
            self.hit_error_block("innodb_ibuf", 0);
            return Ok(-1);
        }
        Ok(1)
    }

    /// SELECT: allocate a result buffer, look the row up, send it to the
    /// client.
    pub(crate) fn point_select(&mut self, process: &mut Process, key: i64) -> QueryResult {
        service_work(SELECT_WORK);
        self.hit_ok("parser", 14, 28);
        self.hit_ok("optimizer", 0, 18);
        self.hit_ok("executor", 16, 32);
        let buffer = process.call("malloc", &[128]).unwrap_or(0);
        if buffer == 0 {
            self.hit_error_block("executor", process.state().errno().max(1));
            return Ok(-1);
        }
        let row = self
            .table
            .get((key.unsigned_abs() as usize) % self.table.len().max(1))
            .copied()
            .unwrap_or(0);
        let sent = process.call("send", &[self.client_fd, row, 128]).unwrap_or(-1);
        let _ = process.call("free", &[buffer, 128]);
        self.hit_ok("net", 0, 15);
        if sent < 0 {
            self.hit_error_block("net", process.state().errno().max(1));
            return Ok(-1);
        }
        Ok(1)
    }

    /// UPDATE: read the page, rewrite it and append to the redo log.
    pub(crate) fn update(&mut self, process: &mut Process, key: i64, value: i64) -> QueryResult {
        service_work(UPDATE_WORK);
        self.hit_ok("parser", 28, 40);
        self.hit_ok("optimizer", 18, 30);
        self.hit_ok("executor", 32, 48);
        self.hit_ok("innodb", 18, 40);
        let read = process.call("read", &[self.data_fd]).unwrap_or(-1);
        if read < 0 && process.state().errno() != 11 {
            self.hit_error_block("innodb", process.state().errno().max(1));
            return Ok(-1);
        }
        let slot_index = (key.unsigned_abs() as usize) % self.table.len().max(1);
        if let Some(slot) = self.table.get_mut(slot_index) {
            *slot = value;
        }
        let written = process.call("write", &[self.log_fd, value, 64]).unwrap_or(-1);
        if written < 0 {
            self.hit_error_block("innodb", process.state().errno().max(1));
            self.hit_error_block("innodb_ibuf", 1);
            return Ok(-1);
        }
        Ok(1)
    }

    /// FLUSH: fsync the redo log through the insert-buffer merge path.
    pub(crate) fn flush(&mut self, process: &mut Process) -> QueryResult {
        service_work(FLUSH_WORK);
        self.hit_ok("innodb_ibuf", 0, 22);
        self.hit_ok("innodb", 40, 56);
        let synced = process.call("fsync", &[self.log_fd]).unwrap_or(-1);
        if synced < 0 {
            self.hit_error_block("innodb_ibuf", process.state().errno().max(1));
            self.hit_error_block("innodb_ibuf", 2);
            self.hit_error_block("innodb", process.state().errno().max(1) + 1);
            return Ok(-1);
        }
        Ok(0)
    }

    /// Serve one client round-trip (exercises the network module).
    pub(crate) fn serve_client(&mut self, process: &mut Process) -> QueryResult {
        self.hit_ok("net", 15, 30);
        let received = process.call("recv", &[self.client_fd]).unwrap_or(-1);
        if received < 0 && process.state().errno() != 11 {
            self.hit_error_block("net", process.state().errno().max(1));
            return Ok(-1);
        }
        Ok(0)
    }

    /// Runs the server's own regression test suite: `cases` test cases mixing
    /// inserts, selects, updates and periodic flushes.  Every 7th case
    /// contains one of the unchecked allocations (the call sites behind the
    /// SIGSEGV crashes of §6.1).
    pub fn run_test_suite(&mut self, process: &mut Process, cases: usize) -> SuiteReport {
        let mut crashes = 0;
        for case in 0..cases {
            let checked = case % 7 != 6;
            let mut crashed = false;
            for op in 0..6 {
                let result = match op {
                    0 | 1 => self.insert(process, (case * 10 + op) as i64, checked),
                    2 | 3 => self.point_select(process, case as i64),
                    4 => self.update(process, case as i64, op as i64),
                    _ => self.serve_client(process),
                };
                if result.is_err() {
                    crashed = true;
                    break;
                }
            }
            if case % 10 == 9 && !crashed {
                let _ = self.flush(process);
            }
            if crashed {
                crashes += 1;
            }
        }
        SuiteReport { cases, crashes, coverage: self.coverage.clone() }
    }
}

/// The SysBench-OLTP-like workload of Table 4.
pub mod sysbench {
    use std::time::Instant;

    use super::{MysqlServer, QueryResult};
    use lfi_runtime::Process;

    /// Workload flavour: read-only or read-write transactions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OltpMode {
        /// Point selects only.
        ReadOnly,
        /// Selects plus updates, inserts and a log flush.
        ReadWrite,
    }

    /// The result of an OLTP run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct OltpReport {
        /// Transactions completed.
        pub transactions: u64,
        /// Wall-clock duration of the run, in seconds.
        pub elapsed_seconds: f64,
    }

    impl OltpReport {
        /// Transactions per second, the figure Table 4 reports.
        pub fn throughput(&self) -> f64 {
            if self.elapsed_seconds == 0.0 {
                0.0
            } else {
                self.transactions as f64 / self.elapsed_seconds
            }
        }
    }

    /// Executes one transaction.
    pub fn run_transaction(server: &mut MysqlServer, process: &mut Process, mode: OltpMode, txn: u64) -> QueryResult {
        match mode {
            OltpMode::ReadOnly => {
                for i in 0..10 {
                    server.point_select(process, (txn as i64) + i)?;
                }
            }
            OltpMode::ReadWrite => {
                for i in 0..10 {
                    server.point_select(process, (txn as i64) + i)?;
                }
                for i in 0..4 {
                    server.update(process, (txn as i64) + i, i)?;
                }
                server.insert(process, txn as i64, true)?;
                server.flush(process)?;
            }
        }
        Ok(1)
    }

    /// Runs `transactions` transactions and measures throughput.
    pub fn run_oltp(server: &mut MysqlServer, process: &mut Process, mode: OltpMode, transactions: u64) -> OltpReport {
        let start = Instant::now();
        let mut completed = 0;
        for txn in 0..transactions {
            if run_transaction(server, process, mode, txn).is_ok() {
                completed += 1;
            }
        }
        OltpReport { transactions: completed, elapsed_seconds: start.elapsed().as_secs_f64() }
    }
}

#[cfg(test)]
mod tests {
    use super::sysbench::{run_oltp, OltpMode};
    use super::*;
    use crate::native::{base_process, new_world};
    use lfi_runtime::NativeLibrary;

    fn server_and_process() -> (MysqlServer, lfi_runtime::Process, crate::native::World) {
        let world = new_world();
        let mut process = base_process(&world, false);
        let server = MysqlServer::start(&mut process);
        (server, process, world)
    }

    #[test]
    fn clean_test_suite_reaches_the_paper_baseline_coverage() {
        let (mut server, mut process, _world) = server_and_process();
        let report = server.run_test_suite(&mut process, 200);
        assert_eq!(report.crashes, 0);
        let coverage = report.overall_coverage();
        // The paper reports 73%; the simulated suite lands in the same band
        // because error-handling blocks are never reached without injection.
        assert!(coverage > 0.70 && coverage < 0.76, "coverage {coverage}");
        assert!((report.coverage.module("innodb_ibuf") - 0.88).abs() < 0.01);
        assert_eq!(report.coverage.module("replication"), 0.0);
    }

    #[test]
    fn injected_faults_raise_coverage_and_can_crash_unchecked_paths() {
        let (mut server, mut process, _world) = server_and_process();
        // Deterministic "injector": every 13th write and every 3rd fsync and
        // every 29th malloc fails.
        let interceptor = NativeLibrary::builder("inject.so")
            .function("write", {
                let count = std::sync::atomic::AtomicU64::new(0);
                move |ctx| {
                    let count = count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if count.is_multiple_of(13) {
                        ctx.set_errno(5);
                        -1
                    } else {
                        ctx.call_next().unwrap_or(-1)
                    }
                }
            })
            .function("fsync", {
                let count = std::sync::atomic::AtomicU64::new(0);
                move |ctx| {
                    let count = count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if count.is_multiple_of(3) {
                        ctx.set_errno(28);
                        -1
                    } else {
                        ctx.call_next().unwrap_or(-1)
                    }
                }
            })
            .function("malloc", {
                let count = std::sync::atomic::AtomicU64::new(0);
                move |ctx| {
                    let count = count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if count.is_multiple_of(29) {
                        ctx.set_errno(12);
                        0
                    } else {
                        ctx.call_next().unwrap_or(0)
                    }
                }
            })
            .build();
        process.preload(interceptor);
        let report = server.run_test_suite(&mut process, 200);
        let coverage = report.overall_coverage();
        assert!(coverage >= 0.74, "coverage {coverage}");
        assert!(report.coverage.module("innodb_ibuf") > 0.95);
        assert!(report.crashes > 0);
    }

    #[test]
    fn read_write_transactions_do_more_library_work_than_read_only() {
        let (mut server, mut process, _world) = server_and_process();
        for i in 0..10 {
            server.insert(&mut process, i, true).unwrap();
        }
        process.state_mut().set_call_log_enabled(true);
        run_oltp(&mut server, &mut process, OltpMode::ReadOnly, 5);
        let read_only_calls = process.state().call_log().len();
        process.state_mut().clear_call_log();
        run_oltp(&mut server, &mut process, OltpMode::ReadWrite, 5);
        let read_write_calls = process.state().call_log().len();
        assert!(read_write_calls > read_only_calls);
    }

    #[test]
    fn oltp_reports_throughput() {
        let (mut server, mut process, _world) = server_and_process();
        for i in 0..10 {
            server.insert(&mut process, i, true).unwrap();
        }
        let report = run_oltp(&mut server, &mut process, OltpMode::ReadOnly, 50);
        assert_eq!(report.transactions, 50);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn module_table_is_consistent() {
        let total_err: usize = MODULES.iter().map(|(_, _, e)| e).sum();
        let total_ok: usize = MODULES.iter().map(|(_, o, _)| o).sum();
        assert!(total_ok + total_err > 300);
        // The ibuf module has the 88% → 100% headroom the paper reports.
        let (_, ok, err) = MODULES.iter().find(|(m, _, _)| *m == "innodb_ibuf").unwrap();
        assert!((*ok as f64 / (*ok + *err) as f64 - 0.88).abs() < 0.005);
    }
}

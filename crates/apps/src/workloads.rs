//! The simulated applications as first-class [`Workload`]s, plus the
//! [`registry`] that collects them for named lookup.
//!
//! Each workload owns a [`ProcessArena`]: processes (a fresh [`SimWorld`]
//! with the native libraries loaded over it — the paper's developer-provided
//! start script) are built once and checked out per campaign case.  Returning
//! a checkout restores the process to its post-build snapshot and resets its
//! world via [`SimWorld::reset`], so every case still runs against pristine
//! application state while skipping the library-construction cost.  Each
//! pooled process closes over its *own* world, which is what lets the same
//! shared workload object drive concurrent cases; cloning a workload shares
//! its arena.
//!
//! [`SimWorld`]: crate::SimWorld
//! [`SimWorld::reset`]: crate::SimWorld::reset

use lfi_controller::{TestCase, Workload, WorkloadRegistry};
use lfi_runtime::{ExitStatus, PooledProcess, PreparedProcess, Process, ProcessArena, Signal};

use crate::apache::ab::run_ab;
use crate::apache::{ApacheServer, RequestKind};
use crate::mysql::MysqlServer;
use crate::native::{base_process, lock_world, new_world};
use crate::pidgin::PidginApp;

/// Builds the arena shared by an app workload's cases: every pooled process
/// gets its own fresh world (library closures capture it), and the reset hook
/// rewinds that world whenever the process returns to the pool.
fn app_arena(with_apr: bool) -> ProcessArena {
    ProcessArena::new(move || {
        let world = new_world();
        let process = base_process(&world, with_apr);
        PreparedProcess::with_reset(process, move |_| lock_world(&world).reset())
    })
}

/// Resolves every named function passively (no calls are dispatched, so the
/// interceptor's call ordinals are untouched) — the shared health-check
/// primitive of the app workloads.
fn resolves_all(process: &mut Process, functions: &[&str]) -> bool {
    functions.iter().all(|function| process.fnptr(function).is_ok())
}

/// The §6.1 Pidgin login sequence: resolver child + parent over a pipe,
/// with the unchecked-write bug intact.
#[derive(Debug, Clone)]
pub struct PidginLogin {
    /// Host names the login resolves (the number of resolver round trips).
    pub dns_requests: usize,
    arena: ProcessArena,
}

impl PidginLogin {
    /// The default login (4 resolutions, the Pidgin app's default).
    pub fn new() -> Self {
        Self::with_dns_requests(PidginApp::new().dns_requests)
    }

    /// A login resolving `dns_requests` host names.
    pub(crate) fn with_dns_requests(dns_requests: usize) -> Self {
        Self { dns_requests, arena: app_arena(false) }
    }
}

impl Default for PidginLogin {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for PidginLogin {
    fn name(&self) -> &str {
        "pidgin-login"
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        self.arena.checkout()
    }

    fn health_check(&self, process: &mut Process) -> bool {
        resolves_all(process, &["pipe", "read", "write", "malloc", "free", "close"])
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        PidginApp { dns_requests: self.dns_requests }.login(process)
    }
}

/// The §6.1 MySQL regression test suite, folded to an exit status: SIGSEGV
/// when any unchecked allocation crashed a test case, success otherwise.
#[derive(Debug, Clone)]
pub struct MysqlSuite {
    /// Test cases the suite runs per campaign case.
    pub cases: usize,
    arena: ProcessArena,
}

impl MysqlSuite {
    /// The default suite length (200 cases, the §6.1 configuration).
    pub fn new() -> Self {
        Self::with_cases(200)
    }

    /// A suite running `cases` test cases per campaign case.
    pub fn with_cases(cases: usize) -> Self {
        Self { cases, arena: app_arena(false) }
    }
}

impl Default for MysqlSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for MysqlSuite {
    fn name(&self) -> &str {
        "mysql-suite"
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        self.arena.checkout()
    }

    fn health_check(&self, process: &mut Process) -> bool {
        resolves_all(process, &["open", "socket", "read", "write", "send", "recv", "malloc", "free", "fsync"])
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        let mut server = MysqlServer::start(process);
        let report = server.run_test_suite(process, self.cases);
        if report.crashes > 0 {
            ExitStatus::Crashed(Signal::Segv)
        } else {
            ExitStatus::Exited(0)
        }
    }
}

/// The §6.4 Apache + AB load: a burst of requests of one kind, failing the
/// case when any request fails.
#[derive(Debug, Clone)]
pub(crate) struct ApacheLoad {
    name: String,
    /// The request flavour (static HTML or PHP).
    pub kind: RequestKind,
    /// Requests per campaign case.
    pub requests: u64,
    arena: ProcessArena,
}

impl ApacheLoad {
    /// A load of `requests` requests of the given kind.  The workload name
    /// is derived from the kind (`apache-static` / `apache-php`).
    pub(crate) fn new(kind: RequestKind, requests: u64) -> Self {
        let name = match kind {
            RequestKind::StaticHtml => "apache-static".to_owned(),
            RequestKind::Php => "apache-php".to_owned(),
        };
        Self { name, kind, requests, arena: app_arena(true) }
    }
}

impl Workload for ApacheLoad {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        self.arena.checkout()
    }

    fn health_check(&self, process: &mut Process) -> bool {
        resolves_all(process, &["socket", "open", "read", "send", "close", "apr_palloc", "apr_file_read"])
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        let mut server = ApacheServer::start(process);
        let report = run_ab(&mut server, process, self.kind, self.requests);
        if report.completed == report.requests {
            ExitStatus::Exited(0)
        } else {
            ExitStatus::Exited(1)
        }
    }
}

/// The registry of every simulated-application workload, keyed by name:
/// `pidgin-login`, `mysql-suite`, `apache-static`, `apache-php`.
///
/// ```
/// let registry = lfi_apps::workloads::registry();
/// let pidgin = registry.get("pidgin-login").expect("registered");
/// assert_eq!(pidgin.name(), "pidgin-login");
/// ```
pub fn registry() -> WorkloadRegistry {
    let mut registry = WorkloadRegistry::new();
    registry.register(PidginLogin::new());
    registry.register(MysqlSuite::new());
    registry.register(ApacheLoad::new(RequestKind::StaticHtml, 200));
    registry.register(ApacheLoad::new(RequestKind::Php, 50));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_controller::Campaign;
    use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

    #[test]
    fn registry_collects_every_app_workload() {
        let registry = registry();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            vec!["apache-php", "apache-static", "mysql-suite", "pidgin-login"]
        );
        for name in registry.names() {
            let workload = registry.get(name).expect("listed workloads resolve");
            let case = TestCase::new("health", Plan::new());
            let mut process = workload.setup(&case);
            assert!(workload.health_check(&mut process), "{name} health check on a pristine process");
        }
    }

    #[test]
    fn arena_checkouts_leave_no_state_behind() {
        let workload = PidginLogin::new();
        let case = TestCase::new("reuse", Plan::new());
        {
            let mut process = workload.setup(&case);
            assert!(workload.run(&mut process).is_success());
        }
        // The second case draws the same pooled process; the restore + world
        // reset must make it indistinguishable from a fresh build: errno is
        // clear and the first descriptor opened is 3 again.
        let mut process = workload.setup(&case);
        assert_eq!(process.state().errno(), 0, "process state rewound");
        assert_eq!(process.call("pipe", &[]).unwrap(), 3, "world descriptors rewound");
        assert_eq!(workload.arena.stats().builds, 1, "one build served both cases");
    }

    #[test]
    fn pidgin_login_workload_succeeds_clean_and_crashes_under_the_size_write_fault() {
        let baseline = Campaign::new()
            .case(TestCase::new("clean-login", Plan::new()))
            .run_workload(PidginLogin::new());
        assert!(baseline.outcomes[0].status.is_success());

        // The §6.1 fault: drop the resolver child's second write (the size
        // word) — the parent misreads the stream and g_malloc aborts.
        let fault = Plan::new().entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::on_call(2),
            action: FaultAction::return_value(-1).with_errno(4),
        });
        let report = Campaign::new()
            .case(TestCase::new("drop-size-write", fault))
            .run_workload(PidginLogin::new());
        assert_eq!(report.outcomes[0].status, ExitStatus::Crashed(Signal::Abort));
        assert!(!report.outcomes[0].replay.is_empty());
    }

    #[test]
    fn mysql_suite_workload_crashes_only_under_allocation_faults() {
        let report = Campaign::new()
            .case(TestCase::new("clean-suite", Plan::new()))
            .case(TestCase::new(
                "oom-suite",
                // Each suite case performs 4 allocations (2 inserts, 2
                // selects) and every 7th case leaves its inserts unchecked;
                // starving the 25th allocation hits case 6's first insert —
                // an unchecked call site that dereferences the null row
                // buffer (the §6.1 SIGSEGV).
                Plan::new().entry(PlanEntry {
                    function: "malloc".into(),
                    trigger: Trigger::on_call(25),
                    action: FaultAction::return_value(0).with_errno(12),
                }),
            ))
            .run_workload(MysqlSuite::with_cases(60));
        assert!(report.outcomes[0].status.is_success());
        assert_eq!(report.crashes().count(), 1);
    }

    #[test]
    fn apache_workloads_survive_clean_load_and_report_failed_requests() {
        let report = Campaign::new()
            .case(TestCase::new("clean-burst", Plan::new()))
            .case(TestCase::new(
                "failed-open",
                Plan::new().entry(PlanEntry {
                    function: "open".into(),
                    trigger: Trigger::on_call(2),
                    action: FaultAction::return_value(-1).with_errno(24),
                }),
            ))
            .run_workload(ApacheLoad::new(RequestKind::StaticHtml, 20));
        assert!(report.outcomes[0].status.is_success());
        assert_eq!(report.outcomes[1].status, ExitStatus::Exited(1), "one dropped request fails the burst");

        let php = Campaign::new()
            .case(TestCase::new("php-burst", Plan::new()))
            .run_workload(ApacheLoad::new(RequestKind::Php, 10));
        assert!(php.outcomes[0].status.is_success());
    }
}

//! What a workload reports, the metric catalogue `BENCHMARK.json` mirrors,
//! and the span clock of the traced run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, whatever its workload:
/// `(name, unit)`.  Each workload gives them its own unit of work (see
/// `perfbench/README.md`); `failed ÷ attempted` travels in the result's
/// `failed` and `attempted` fields.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("work_per_s", "1/s"), ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms")];

/// The per-layer metrics every traced run reports: `(name, unit)`.  A
/// workload that never enters a layer reports 0 for it.
pub const LAYERS: &[(&str, &str)] = &[
    // profile-survey
    ("profiler.profile_all_ms", "ms"),
    ("profiler.fns_analyzed", "count"),
    ("profiler.memo_hit_ratio", "ratio"),
    ("disasm.cache_misses", "count"),
    ("store.profile_save_ms", "ms"),
    ("store.profile_bytes", "bytes"),
    ("store.profile_load_ms", "ms"),
    ("profile.replay_ms", "ms"),
    // hunt-libc
    ("core.profiles_of_ms", "ms"),
    ("explore.new_ms", "ms"),
    ("scenario.cells", "count"),
    ("explore.probe_ms", "ms"),
    ("explore.pruned_ratio", "ratio"),
    ("explore.step_ms", "ms"),
    ("explore.batches", "count"),
    ("explore.batch_us", "us"),
    ("runtime.setup_us", "us"),
    ("runtime.workload_us", "us"),
    ("explore.overhead_ms", "ms"),
    ("explore.useful_ratio", "ratio"),
    // fabric-apps
    ("apps.pidgin-login.setup_us", "us"),
    ("apps.pidgin-login.health_us", "us"),
    ("apps.pidgin-login.run_us", "us"),
    ("apps.mysql-suite.setup_us", "us"),
    ("apps.mysql-suite.health_us", "us"),
    ("apps.mysql-suite.run_us", "us"),
    ("apps.apache-static.setup_us", "us"),
    ("apps.apache-static.health_us", "us"),
    ("apps.apache-static.run_us", "us"),
    ("fabric.overhead_ms", "ms"),
    ("fabric.journal_attach_ms", "ms"),
    ("fabric.checkpoint_ms", "ms"),
    ("fabric.requeued", "count"),
    ("store.journal_bytes", "bytes"),
    ("store.journal_open_ms", "ms"),
    ("fabric.replay_ms", "ms"),
    // oltp-triggers
    ("scenario.triggerload_ms", "ms"),
    ("controller.synthesize_us", "us"),
    ("runtime.calls_per_txn", "count"),
    ("runtime.ns_per_call_lfi", "ns"),
    ("runtime.ns_per_call_base", "ns"),
    ("controller.injections", "count"),
    // every workload: the traced run's own accounting
    ("trace.wall_ms", "ms"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The unit of a per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, unit)| *unit)
}

/// One run's inputs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the measured phase lasts (halved between the untraced and
    /// the traced phase of a traced run).
    pub budget: Duration,
    /// Cores (`available_parallelism`): the fabric's fleet size, and the
    /// bound the profiler puts on its own pool.
    pub workers: usize,
    /// Scratch directory for stores and journals, inside the checkout.
    pub work_dir: PathBuf,
}

/// An issue-named end-to-end figure printed in the human-readable report.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or other context.
    pub note: String,
}

impl Named {
    /// A named figure.
    pub fn new(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self { name, value, unit, note: note.into() }
    }
}

/// What one measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed (they contribute no timing).
    pub failed: u64,
    /// Units of work completed per second.
    pub work_per_s: f64,
    /// Wall time of each checked operation, in ms.
    pub latency_ms: Vec<f64>,
    /// Mean wall time of the workload's repeated operation, in ms: the base
    /// of the tracing overhead.
    pub op_ms_mean: f64,
    /// Wall time of the measured phase, in ms.
    pub wall_ms: f64,
    /// Share of the wall time no traced layer span covers (hunt-libc and
    /// fabric-apps).
    pub unaccounted: Option<f64>,
    /// The workload's issue-named figures.
    pub named: Vec<Named>,
    /// Per-layer figures (traced phase only).
    pub layers: Vec<(&'static str, f64)>,
}

/// A benchmark workload: set up once per set-up sample, then measured in a
/// closed loop.
pub trait Bench {
    /// The state the measured phase runs on.
    type State;

    /// Builds the inputs from `ctx.seed` and warms what users would find
    /// warm (stores, arenas); timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Self::State;

    /// Runs the closed loop for `budget`, checking every output.  `traced`
    /// adds the per-layer spans.
    fn measure(state: &mut Self::State, ctx: &Ctx, budget: Duration, traced: bool) -> Measured;
}

/// A span accumulator: total time and count, shareable with the worker
/// threads that run campaign cases.
#[derive(Debug, Default)]
pub struct Clock {
    nanos: AtomicU64,
    count: AtomicU64,
}

impl Clock {
    /// Times `f` into the clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add(start.elapsed());
        value
    }

    /// Adds one span of length `span`.
    pub fn add(&self, span: Duration) {
        self.nanos
            .fetch_add(u64::try_from(span.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total time, in ms.
    pub fn total_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean span, in µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ms() * 1e3, self.count() as f64)
    }
}

/// Times `f` into `clock` when tracing, and runs it bare otherwise.
pub fn span<T>(clock: Option<&Clock>, f: impl FnOnce() -> T) -> T {
    match clock {
        Some(clock) => clock.time(f),
        None => f(),
    }
}

/// `total / count`, 0 when nothing was counted.
pub fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

//! # lfi-controller — the LFI controller (§5 of the paper)
//!
//! The controller takes fault profiles plus a fault scenario and drives the
//! injection: it synthesizes an interceptor library with one stub per
//! intercepted function, shims it in front of the original libraries
//! (`LD_PRELOAD` in the paper, [`lfi_runtime::Process::preload`] here),
//! evaluates triggers on every call, injects return values / errno / side
//! effects / argument modifications, and records a log from which replay
//! scripts are distilled.
//!
//! * [`Injector`] — trigger evaluation and injection engine, plus interceptor
//!   synthesis.
//! * [`TestLog`] / [`InjectionRecord`] — the §5.2 log and its replay plan.
//! * [`Workload`] — the application under test as a first-class object
//!   (§5's start script + workload pair), with the [`FnWorkload`] closure
//!   adapter and the [`WorkloadRegistry`] for named lookup.
//! * [`Campaign`] — the fluent campaign builder: test cases (hand-made or
//!   from a [`lfi_scenario::generator::ScenarioGenerator`]), an optional
//!   stop at the first crash, and parallel test-case execution over
//!   independent processes.  [`Campaign::start`] returns a streaming [`CampaignRun`]
//!   session of [`CaseEvent`]s with a [`CancelHandle`].  That stream is the
//!   one way to observe a campaign: closed-loop controllers consume it and
//!   cancel through the handle, and the [`CampaignReport`] is folded from
//!   it.  The blocking `run*` entry points are thin wrappers over it.
//! * [`stubsrc`] — the generated C stub text, for parity with the paper's
//!   Figure 3 pipeline.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod campaign;
mod injector;
mod log;
mod session;
pub mod stubsrc;
mod workload;

pub use campaign::{Campaign, CampaignReport, TestCase, TestOutcome};
pub use injector::Injector;
pub use log::{InjectionRecord, TestLog};
pub use session::{CampaignRun, CancelHandle, CaseEvent, SkipReason};
pub use workload::{FnWorkload, Workload, WorkloadRegistry};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Injector>();
        assert_send_sync::<TestLog>();
        assert_send_sync::<CampaignReport>();
        assert_send_sync::<TestCase>();
        assert_send_sync::<Campaign>();
        fn assert_send<T: Send>() {}
        // The session handle owns the event receiver, so it is Send (movable
        // to a consumer thread) but not Sync; the cancel handle is both.
        assert_send::<CampaignRun>();
        assert_send_sync::<CancelHandle>();
        assert_send_sync::<CaseEvent>();
        assert_send_sync::<WorkloadRegistry>();
    }
}

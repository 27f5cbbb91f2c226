//! # lfi-scenario — the fault-scenario ("faultload") language of §4
//!
//! A fault injection scenario pairs *triggers* (call counts, stack traces,
//! probabilities) with *faults* (injected return values, errno, side effects,
//! argument modifications).  This crate defines the plan data model
//! ([`Plan`]), its XML dialect (round-tripping the exact snippets shown in
//! the paper), the pluggable scenario generators ([`generator`], built around
//! the [`ScenarioGenerator`] trait), the ready-made libc scenarios of §4
//! ([`ready_made`]), and the [`FaultSpace`] — a plan's sorted, deduplicated
//! fault cells, which the explorer and the fabric both walk.
//!
//! ```
//! use lfi_profile::{ErrorReturn, FaultProfile, FunctionProfile};
//! use lfi_scenario::generator::{Exhaustive, ScenarioGenerator};
//! use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
//!
//! // Hand-written plans and generated plans share one data model.
//! let plan = Plan::new().entry(PlanEntry {
//!     function: "readdir64".into(),
//!     trigger: Trigger::on_call(5),
//!     action: FaultAction::return_value(0).with_errno(9),
//! });
//! let xml = plan.to_xml();
//! assert_eq!(Plan::from_xml(&xml).unwrap(), plan);
//!
//! let mut profile = FaultProfile::new("libdemo.so");
//! profile.push_function(FunctionProfile {
//!     name: "demo_read".into(),
//!     error_returns: vec![ErrorReturn::bare(-1)],
//! });
//! let generated = Exhaustive.generate(std::slice::from_ref(&profile));
//! assert_eq!(generated.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod compiled;
pub mod errno;
mod error;
pub mod generator;
mod plan;
pub mod ready_made;
mod space;

pub use compiled::{CompiledChoice, CompiledEntry, CompiledFunction, CompiledPlan, CompiledSideEffect, FaultCell};
pub use error::ScenarioError;
pub use generator::{Composite, Exhaustive, Filtered, Random, ReadyMade, ScenarioGenerator, TriggerLoad};
pub use lfi_intern::Symbol;
pub use plan::{ArgModification, ArgOp, FaultAction, Plan, PlanEntry, Trigger};
pub use space::FaultSpace;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Plan>();
        assert_send_sync::<PlanEntry>();
        assert_send_sync::<Trigger>();
        assert_send_sync::<FaultAction>();
        assert_send_sync::<ScenarioError>();
    }
}

//! # lfi-profile — library fault profiles and their XML representation
//!
//! The output of the LFI profiler is a *fault profile* per analyzed library
//! (§3.3): for every exported function, the set of possible error return
//! values, each with the side effects (errno-style TLS writes, globals,
//! output arguments) that accompany it.  The paper uses "a general XML format
//! that is both human-readable and easy to parse"; this crate defines the
//! data model ([`FaultProfile`]) and a faithful XML round-trip for it, plus
//! the small in-tree XML reader/writer ([`xml`]) shared with the scenario
//! language in `lfi-scenario`.  It also holds the bounded worker pool
//! ([`run_pooled`]) on which the profiler analyzes functions and `lfi-store`
//! decodes a profile snapshot's entries.
//!
//! ```
//! use lfi_profile::{ErrorReturn, FaultProfile, FunctionProfile, SideEffect, SideEffectKind};
//!
//! let mut profile = FaultProfile::new("libc.so.6");
//! profile.push_function(FunctionProfile {
//!     name: "close".into(),
//!     error_returns: vec![ErrorReturn {
//!         retval: -1,
//!         side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, -9)],
//!     }],
//! });
//! let xml = profile.to_xml();
//! let parsed = FaultProfile::from_xml(&xml).unwrap();
//! assert_eq!(profile, parsed);
//! # drop(SideEffectKind::Tls);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod pool;
mod profile;
mod store;
pub mod xml;

pub use error::ProfileError;
pub use pool::run_pooled;
pub use profile::{ErrorReturn, FaultProfile, FunctionProfile, SideEffect, SideEffectKind};
pub use store::{ProfileKey, ProfileStore};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultProfile>();
        assert_send_sync::<ProfileStore>();
        assert_send_sync::<ProfileKey>();
        assert_send_sync::<FunctionProfile>();
        assert_send_sync::<ErrorReturn>();
        assert_send_sync::<SideEffect>();
        assert_send_sync::<ProfileError>();
    }
}

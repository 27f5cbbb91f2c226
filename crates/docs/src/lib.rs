//! # lfi-docs — structured library documentation, its parser, and combined profiles
//!
//! The LFI profiler works from binaries precisely because documentation is an
//! unreliable oracle (§3.1): man pages can be vague, defer to other pages, or
//! omit error codes entirely.  The paper nevertheless uses documentation in
//! two ways — as the scalable ground truth for the Table 2 accuracy
//! evaluation ("we wrote documentation parsers for each of the measured
//! libraries", §6.3) and as an optional *additional* source that "can be
//! combined with LFI's static analysis to yield higher accuracy".
//!
//! This crate provides all three pieces:
//!
//! * [`ManPage`] / [`DocumentationSet`] — a structured reference-manual model
//!   and renderer, including the imperfections real manuals have
//!   ([`ReturnValueStyle::Vague`], [`ReturnValueStyle::CrossReference`],
//!   spurious values);
//! * [`DocParser`] — a parser that recovers error return values, errno
//!   constants and cross-references from rendered pages and flags what it
//!   cannot recover;
//! * [`CombinedProfile`] — the union of a static-analysis
//!   [`FaultProfile`](lfi_profile::FaultProfile) and parsed documentation,
//!   with per-value [`Provenance`].
//!
//! ```
//! use lfi_docs::{CombinedProfile, DocParser, DocumentationSet, ManPage};
//! use lfi_profile::{ErrorReturn, FaultProfile, FunctionProfile};
//!
//! // A static profile that found close() → -1 …
//! let mut statics = FaultProfile::new("libc.so.6");
//! statics.push_function(FunctionProfile {
//!     name: "close".into(),
//!     error_returns: vec![ErrorReturn::bare(-1)],
//! });
//!
//! // … and a manual that additionally documents close() → -2.
//! let mut manual = DocumentationSet::new("libc.so.6");
//! manual.push(ManPage::new("libc.so.6", "close").with_error_return(-1).with_error_return(-2));
//! let parsed = DocParser::new().parse_set("libc.so.6", &manual.render()).unwrap();
//!
//! let combined = CombinedProfile::combine(&statics, &parsed);
//! assert_eq!(combined.error_sets()["close"].len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod combine;
mod error;
mod manpage;
mod parser;

pub use combine::{CombinedProfile, Provenance, ProvenanceCounts};
pub use error::DocError;
pub use manpage::{DocumentationSet, ManPage, ReturnValueStyle, StylePolicy};
pub use parser::{DocParser, ParsedDocumentation, ParsedPage};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ManPage>();
        assert_send_sync::<DocumentationSet>();
        assert_send_sync::<DocParser>();
        assert_send_sync::<ParsedDocumentation>();
        assert_send_sync::<CombinedProfile>();
        assert_send_sync::<DocError>();
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use crate::{DocParser, DocumentationSet, StylePolicy};

    fn error_map_strategy() -> impl Strategy<Value = BTreeMap<String, BTreeSet<i64>>> {
        prop::collection::btree_map("[a-z][a-z0-9_]{1,12}", prop::collection::btree_set(-5000i64..-1, 1..6), 1..20)
    }

    proptest! {
        /// A losslessly rendered manual parses back to exactly the same
        /// per-function error sets.
        #[test]
        fn perfect_manual_round_trips(map in error_map_strategy(), seed in 0u64..1000) {
            let set = DocumentationSet::from_error_map("libprop.so", &map, StylePolicy::perfect(), seed);
            let parsed = DocParser::new().parse_set("libprop.so", &set.render()).unwrap();
            prop_assert_eq!(parsed.error_sets(), map);
        }

        /// Whatever the policy, parsing never invents values that are in
        /// neither the truth map nor the deliberately spurious set, and
        /// resolving cross-references never fails for generated manuals.
        #[test]
        fn realistic_manual_never_invents_values(map in error_map_strategy(), seed in 0u64..1000) {
            let set = DocumentationSet::from_error_map("libprop.so", &map, StylePolicy::realistic(), seed);
            let mut parsed = DocParser::new().parse_set("libprop.so", &set.render()).unwrap();
            parsed.resolve_cross_references().unwrap();
            let all_truth: BTreeSet<i64> = map.values().flatten().copied().collect();
            let all_spurious: BTreeSet<i64> = set.pages.iter().flat_map(|p| p.spurious_returns.iter().copied()).collect();
            for values in parsed.error_sets().values() {
                for value in values {
                    prop_assert!(
                        all_truth.contains(value) || all_spurious.contains(value),
                        "parsed value {} appears in no page's source data", value
                    );
                }
            }
        }
    }
}

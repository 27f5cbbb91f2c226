//! Ground-truth bookkeeping for corpus libraries.
//!
//! Every corpus library is generated together with two per-function error
//! maps: what its *documentation* claims (the man-page model the paper
//! compares against in Table 2) and what the code can *actually* return
//! (execution truth, used for the libpcre-style manual-inspection
//! experiment).  Because the corpus generates both from the same blueprint,
//! doc omissions and phantom paths are placed deliberately rather than
//! discovered by accident.

use std::collections::{BTreeMap, BTreeSet};

use lfi_asm::CompiledLibrary;

/// Per-function error-code map, structurally identical to
/// `lfi_profiler::GroundTruth`.
pub(crate) type ErrorCodeMap = BTreeMap<String, BTreeSet<i64>>;

/// A corpus library: the compiled binary plus its documentation and execution
/// ground truth.
#[derive(Debug, Clone)]
pub struct CorpusLibrary {
    /// The compiled library (object + per-path metadata).
    pub compiled: CompiledLibrary,
    /// The error codes the (imperfect) documentation lists per function.
    pub documentation: ErrorCodeMap,
    /// The error codes each function can actually return at run time.
    pub execution_truth: ErrorCodeMap,
}

impl CorpusLibrary {
    /// The library's file name.
    pub fn name(&self) -> &str {
        self.compiled.object.name()
    }

    /// Error codes actually returnable but missing from the documentation —
    /// the `close()`-EIO / `modify_ldt`-ENOMEM class of omissions (§3.1,
    /// §3.3).
    pub fn undocumented_behaviour(&self) -> ErrorCodeMap {
        difference(&self.execution_truth, &self.documentation)
    }
}

fn difference(a: &ErrorCodeMap, b: &ErrorCodeMap) -> ErrorCodeMap {
    let mut out = ErrorCodeMap::new();
    for (function, values) in a {
        let empty = BTreeSet::new();
        let other = b.get(function).unwrap_or(&empty);
        let diff: BTreeSet<i64> = values.difference(other).copied().collect();
        if !diff.is_empty() {
            out.insert(function.clone(), diff);
        }
    }
    out
}

/// Convenience builder for error-code maps.
pub fn error_map(entries: &[(&str, &[i64])]) -> ErrorCodeMap {
    entries
        .iter()
        .map(|(name, values)| ((*name).to_owned(), values.iter().copied().collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
    use lfi_isa::Platform;

    #[test]
    fn difference_maps_capture_doc_gaps() {
        let compiled = LibraryCompiler::new().compile(
            &LibrarySpec::new("libdoc.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("close", 1).success(0).fault(FaultSpec::returning(-1))),
        );
        let library = CorpusLibrary {
            compiled,
            documentation: error_map(&[("close", &[-1]), ("close_range", &[-1])]),
            execution_truth: error_map(&[("close", &[-1, -2])]),
        };
        assert_eq!(library.name(), "libdoc.so");
        assert_eq!(library.compiled.object.export_count(), 1);
        let undocumented = library.undocumented_behaviour();
        assert_eq!(undocumented.get("close").unwrap(), &BTreeSet::from([-2]));
        let impossible = difference(&library.documentation, &library.execution_truth);
        assert!(impossible.contains_key("close_range"));
        assert!(!impossible.contains_key("close"));
    }
}

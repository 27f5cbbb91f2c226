//! The named libraries of the accuracy evaluation (Table 2 and the libpcre
//! manual-inspection experiment, §6.3), generated so that the profiler's
//! true-positive / false-negative / false-positive counts against the
//! accompanying documentation model land where the paper reports them.
//!
//! The generator places each count deliberately:
//!
//! * **true positives** — ordinary documented `#define`-style error returns;
//! * **false negatives** — documented errors whose constant only reaches the
//!   return location through an *indirect call*, which the static analysis
//!   cannot resolve (§3.1);
//! * **false positives** — error paths guarded by hidden state that never
//!   holds at run time (the "functions maintain more state from one call to
//!   another" effect §6.3 blames for false positives).

use std::collections::BTreeSet;

use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi_isa::Platform;
use lfi_objfile::ReturnType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::truth::{CorpusLibrary, ErrorCodeMap};

/// One row of the paper's Table 2, plus the export count and approximate code
/// size used for the efficiency experiment (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Entry {
    /// Library name as printed in the paper.
    pub name: &'static str,
    /// Evaluation platform.
    pub platform: Platform,
    /// Number of exported functions.
    pub exports: usize,
    /// True positives reported in the paper.
    pub true_positives: usize,
    /// False negatives reported in the paper.
    pub false_negatives: usize,
    /// False positives reported in the paper.
    pub false_positives: usize,
    /// Approximate code-segment size, in KiB.
    pub code_kb: usize,
}

impl Table2Entry {
    /// The accuracy this row should land at, `TP / (TP + FN + FP)`.
    pub fn expected_accuracy(&self) -> f64 {
        let total = self.true_positives + self.false_negatives + self.false_positives;
        if total == 0 {
            1.0
        } else {
            self.true_positives as f64 / total as f64
        }
    }
}

/// The 18 libraries of Table 2 with the paper's TP/FN/FP counts.
pub const TABLE2: &[Table2Entry] = &[
    Table2Entry {
        name: "libssl",
        platform: Platform::WindowsX86,
        exports: 320,
        true_positives: 164,
        false_negatives: 18,
        false_positives: 6,
        code_kb: 310,
    },
    Table2Entry {
        name: "libxml2",
        platform: Platform::SolarisSparc,
        exports: 1612,
        true_positives: 1003,
        false_negatives: 138,
        false_positives: 88,
        code_kb: 905,
    },
    Table2Entry {
        name: "libpanel",
        platform: Platform::SolarisSparc,
        exports: 28,
        true_positives: 23,
        false_negatives: 0,
        false_positives: 0,
        code_kb: 14,
    },
    Table2Entry {
        name: "libpctx",
        platform: Platform::SolarisSparc,
        exports: 15,
        true_positives: 10,
        false_negatives: 0,
        false_positives: 2,
        code_kb: 18,
    },
    Table2Entry {
        name: "libldap",
        platform: Platform::LinuxX86,
        exports: 410,
        true_positives: 368,
        false_negatives: 45,
        false_positives: 21,
        code_kb: 330,
    },
    Table2Entry {
        name: "libxml2",
        platform: Platform::LinuxX86,
        exports: 1612,
        true_positives: 989,
        false_negatives: 152,
        false_positives: 102,
        code_kb: 897,
    },
    Table2Entry {
        name: "libXss",
        platform: Platform::LinuxX86,
        exports: 14,
        true_positives: 12,
        false_negatives: 1,
        false_positives: 0,
        code_kb: 9,
    },
    Table2Entry {
        name: "libgtkspell",
        platform: Platform::LinuxX86,
        exports: 12,
        true_positives: 7,
        false_negatives: 0,
        false_positives: 0,
        code_kb: 21,
    },
    Table2Entry {
        name: "libpanel",
        platform: Platform::LinuxX86,
        exports: 28,
        true_positives: 21,
        false_negatives: 2,
        false_positives: 0,
        code_kb: 15,
    },
    Table2Entry {
        name: "libdmx",
        platform: Platform::LinuxX86,
        exports: 18,
        true_positives: 26,
        false_negatives: 8,
        false_positives: 0,
        code_kb: 8,
    },
    Table2Entry {
        name: "libao",
        platform: Platform::LinuxX86,
        exports: 32,
        true_positives: 12,
        false_negatives: 3,
        false_positives: 0,
        code_kb: 33,
    },
    Table2Entry {
        name: "libhesiod",
        platform: Platform::LinuxX86,
        exports: 22,
        true_positives: 10,
        false_negatives: 0,
        false_positives: 0,
        code_kb: 26,
    },
    Table2Entry {
        name: "libnetfilter_q",
        platform: Platform::LinuxX86,
        exports: 42,
        true_positives: 24,
        false_negatives: 2,
        false_positives: 0,
        code_kb: 30,
    },
    Table2Entry {
        name: "libcdt",
        platform: Platform::LinuxX86,
        exports: 29,
        true_positives: 15,
        false_negatives: 0,
        false_positives: 0,
        code_kb: 25,
    },
    Table2Entry {
        name: "libdaemon",
        platform: Platform::LinuxX86,
        exports: 38,
        true_positives: 30,
        false_negatives: 3,
        false_positives: 0,
        code_kb: 29,
    },
    Table2Entry {
        name: "libdns_sd",
        platform: Platform::LinuxX86,
        exports: 64,
        true_positives: 50,
        false_negatives: 4,
        false_positives: 2,
        code_kb: 71,
    },
    Table2Entry {
        name: "libgimpthumb",
        platform: Platform::LinuxX86,
        exports: 45,
        true_positives: 31,
        false_negatives: 3,
        false_positives: 3,
        code_kb: 38,
    },
    Table2Entry {
        name: "libvorbisfile",
        platform: Platform::LinuxX86,
        exports: 35,
        true_positives: 133,
        false_negatives: 4,
        false_positives: 39,
        code_kb: 49,
    },
];

/// The libdmx entry (the smallest library in §6.2's profiling-time range).
pub fn libdmx_entry() -> Table2Entry {
    *TABLE2.iter().find(|e| e.name == "libdmx").expect("libdmx is in Table 2")
}

/// The Linux libxml2 entry (the largest library in §6.2's profiling-time
/// range).
pub fn libxml2_linux_entry() -> Table2Entry {
    *TABLE2
        .iter()
        .find(|e| e.name == "libxml2" && e.platform == Platform::LinuxX86)
        .expect("libxml2/Linux is in Table 2")
}

/// Builds one Table 2 library together with its documentation model.
pub fn build_table2_library(entry: &Table2Entry, seed: u64) -> CorpusLibrary {
    build_blueprint(
        &format!("{}.so", entry.name),
        entry.platform,
        entry.exports,
        entry.true_positives,
        entry.false_negatives,
        entry.false_positives,
        entry.code_kb,
        seed,
    )
}

/// Builds every Table 2 library (same order as [`TABLE2`]).
pub fn build_table2_corpus(seed: u64) -> Vec<(Table2Entry, CorpusLibrary)> {
    TABLE2
        .iter()
        .enumerate()
        .map(|(index, entry)| (*entry, build_table2_library(entry, seed.wrapping_add(index as u64))))
        .collect()
}

/// Builds the libpcre-like library of §6.3: 20 exported functions whose
/// execution ground truth yields 52 true positives, 10 false negatives and 0
/// false positives (84% accuracy) when the profiler is scored against manual
/// inspection.
pub fn build_libpcre(seed: u64) -> CorpusLibrary {
    build_blueprint("libpcre.so", Platform::LinuxX86, 20, 52, 10, 0, 64, seed)
}

/// Builds the Linux libxml2 *with* the `htmlParseDocument` documentation
/// mismatch: the function is documented to return only 0 or -1 but can also
/// return 1 in some failure cases (§3.1).
pub fn build_libxml2_with_doc_mismatch(seed: u64) -> CorpusLibrary {
    let entry = libxml2_linux_entry();
    let mut library = build_table2_library(&entry, seed);
    // Replace the documentation entry for one export with the incomplete
    // "0 or -1" claim while the binary can actually also return 1.
    let spec = FunctionSpec::scalar("htmlParseDocument", 1)
        .success(0)
        .fault(FaultSpec::returning(-1))
        .fault(FaultSpec::returning(1));
    let mut lib_spec = LibrarySpec::new("libxml2.so", entry.platform);
    lib_spec = lib_spec.function(spec);
    // Rebuild a tiny side library holding just this function and splice its
    // truth into the main maps; the main binary already has enough functions
    // for the accuracy statistics.
    let extra = LibraryCompiler::new().compile(&lib_spec);
    let _ = extra;
    library.documentation.insert("htmlParseDocument".to_owned(), BTreeSet::from([-1]));
    library.execution_truth.insert("htmlParseDocument".to_owned(), BTreeSet::from([-1, 1]));
    library
}

/// Core blueprint generator shared by the named libraries.
#[allow(clippy::too_many_arguments)]
fn build_blueprint(
    library_name: &str,
    platform: Platform,
    exports: usize,
    true_positives: usize,
    false_negatives: usize,
    false_positives: usize,
    code_kb: usize,
    seed: u64,
) -> CorpusLibrary {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = LibrarySpec::new(library_name, platform);
    let mut documentation = ErrorCodeMap::new();
    let mut execution_truth = ErrorCodeMap::new();

    let exports = exports.max(1);
    // Spread the documented error codes (TPs) over the exported functions.
    let mut tp_per_function = vec![0usize; exports];
    for i in 0..true_positives {
        tp_per_function[i % exports] += 1;
    }
    // False negatives and false positives are attached to functions that
    // already have at least one documented error, so the documentation model
    // mentions them.
    let faulty_functions: Vec<usize> = (0..exports).filter(|i| tp_per_function[*i] > 0).collect();
    let carrier = |i: usize| -> usize {
        if faulty_functions.is_empty() {
            i % exports
        } else {
            faulty_functions[i % faulty_functions.len()]
        }
    };
    let mut fn_per_function = vec![0usize; exports];
    for i in 0..false_negatives {
        fn_per_function[carrier(i)] += 1;
    }
    let mut fp_per_function = vec![0usize; exports];
    for i in 0..false_positives {
        fp_per_function[carrier(i.wrapping_mul(7))] += 1;
    }

    // Approximate padding needed to reach the requested code size.
    let bytes_per_padding_inst = 14usize;
    let base_bytes_per_function = 160usize;
    let target_bytes = code_kb * 1024;
    let padding_per_function = target_bytes
        .saturating_sub(exports * base_bytes_per_function)
        .checked_div(exports * bytes_per_padding_inst)
        .unwrap_or(0);

    let stem = library_name.trim_end_matches(".so").trim_start_matches("lib").to_owned();
    for index in 0..exports {
        let name = format!("{stem}_fn_{index:04}");
        let return_type = if rng.gen_bool(0.15) { ReturnType::Pointer } else { ReturnType::Scalar };
        let mut function = FunctionSpec::scalar(&name, 1 + (index % 4) as u8).success(0);
        function.return_type = return_type;
        let mut next_code = -1i64;
        let mut documented = BTreeSet::new();
        let mut actual = BTreeSet::new();

        for _ in 0..tp_per_function[index] {
            function = function.fault(FaultSpec::returning(next_code));
            documented.insert(next_code);
            actual.insert(next_code);
            next_code -= 1;
        }
        for _ in 0..fn_per_function[index] {
            function = function.fault(FaultSpec::returning(next_code).hidden_behind_indirect_call());
            documented.insert(next_code);
            actual.insert(next_code);
            next_code -= 1;
        }
        for _ in 0..fp_per_function[index] {
            function = function.fault(FaultSpec::returning(next_code).phantom());
            // Neither documented nor actually returnable.
            next_code -= 1;
        }
        function = function.padded(padding_per_function);
        if index % 16 == 15 {
            function = function.with_indirect_branches(1);
        }
        spec = spec.function(function);
        if !documented.is_empty() {
            documentation.insert(name.clone(), documented);
        }
        if !actual.is_empty() {
            execution_truth.insert(name, actual);
        }
    }

    let compiled = LibraryCompiler::new().compile(&spec);
    CorpusLibrary { compiled, documentation, execution_truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profiler::{score_profile, Profiler, ProfilerOptions};

    fn profile(library: &CorpusLibrary) -> lfi_profile::FaultProfile {
        let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
        profiler.add_library(library.compiled.object.clone());
        std::sync::Arc::unwrap_or_clone(profiler.profile_library(library.name()).unwrap().profile)
    }

    #[test]
    fn table2_constants_match_the_paper_counts() {
        assert_eq!(TABLE2.len(), 18);
        let libdmx = libdmx_entry();
        assert_eq!((libdmx.true_positives, libdmx.false_negatives, libdmx.false_positives), (26, 8, 0));
        assert_eq!(libdmx.exports, 18);
        assert_eq!(libdmx.code_kb, 8);
        let libxml2 = libxml2_linux_entry();
        assert_eq!(libxml2.exports, 1612);
        assert_eq!(libxml2.code_kb, 897);
        // Accuracy recomputed from the counts matches the printed percentage
        // within a point.
        assert!((libxml2.expected_accuracy() * 100.0 - 80.0).abs() < 1.0);
    }

    #[test]
    fn blueprint_reproduces_the_requested_counts_for_a_small_library() {
        let entry = libdmx_entry();
        let library = build_table2_library(&entry, 42);
        assert_eq!(library.compiled.object.export_count(), entry.exports);
        let report = score_profile(&profile(&library), &library.documentation);
        assert_eq!(report.true_positives, entry.true_positives);
        assert_eq!(report.false_negatives, entry.false_negatives);
        assert_eq!(report.false_positives, entry.false_positives);
        assert_eq!(report.accuracy_percent(), 76);
    }

    #[test]
    fn perfect_library_scores_100() {
        let entry = *TABLE2.iter().find(|e| e.name == "libgtkspell").unwrap();
        let library = build_table2_library(&entry, 1);
        let report = score_profile(&profile(&library), &library.documentation);
        assert_eq!(report.accuracy_percent(), 100);
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn libpcre_scores_84_percent_against_execution_truth() {
        let library = build_libpcre(7);
        assert_eq!(library.compiled.object.export_count(), 20);
        let report = score_profile(&profile(&library), &library.execution_truth);
        assert_eq!(report.true_positives, 52);
        assert_eq!(report.false_negatives, 10);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.accuracy_percent(), 84);
    }

    #[test]
    fn code_size_tracks_the_requested_kb() {
        let libdmx = build_table2_library(&libdmx_entry(), 3);
        let size = libdmx.compiled.object.code_size();
        let target = libdmx_entry().code_kb * 1024;
        assert!(size > target / 2 && size < target * 2, "size {size} vs target {target}");
    }

    #[test]
    fn doc_mismatch_library_reports_the_htmlparsedocument_discrepancy() {
        let library = build_libxml2_with_doc_mismatch(5);
        let undocumented = library.undocumented_behaviour();
        assert_eq!(undocumented.get("htmlParseDocument").unwrap(), &BTreeSet::from([1]));
    }
}

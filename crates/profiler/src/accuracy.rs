//! Accuracy scoring for the profiler (§6.3).
//!
//! Accuracy is defined in the paper as `TP / (TP + FN + FP)`: a *true
//! positive* is an error return code the profiler correctly found, a *false
//! negative* is a returnable error it missed, and a *false positive* is a
//! reported code that cannot actually be returned.  The ground truth can be
//! either library documentation (Table 2) or execution-derived truth (the
//! libpcre manual-inspection experiment).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lfi_profile::FaultProfile;

/// The error codes each function of a library can actually return, according
/// to some ground truth (documentation or execution).
pub type GroundTruth = BTreeMap<String, BTreeSet<i64>>;

/// Per-library accuracy figures, in the shape of the paper's Table 2 rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyReport {
    /// Error codes correctly found.
    pub true_positives: usize,
    /// Returnable errors the profiler missed.
    pub false_negatives: usize,
    /// Reported codes that cannot actually be returned.
    pub false_positives: usize,
}

impl AccuracyReport {
    /// The paper's accuracy metric `TP / (TP + FN + FP)`, in [0, 1].
    /// Returns 1.0 for the degenerate empty case.
    pub fn accuracy(&self) -> f64 {
        let total = self.true_positives + self.false_negatives + self.false_positives;
        if total == 0 {
            1.0
        } else {
            self.true_positives as f64 / total as f64
        }
    }

    /// Accuracy as a rounded percentage, as printed in Table 2.
    pub fn accuracy_percent(&self) -> u32 {
        (self.accuracy() * 100.0).round() as u32
    }

    /// Merges another report into this one (for multi-library aggregates).
    pub fn absorb(&mut self, other: AccuracyReport) {
        self.true_positives += other.true_positives;
        self.false_negatives += other.false_negatives;
        self.false_positives += other.false_positives;
    }
}

impl fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}% ({} TPs, {} FNs, {} FPs)",
            self.accuracy_percent(),
            self.true_positives,
            self.false_negatives,
            self.false_positives
        )
    }
}

/// Extracts the per-function error-code sets found by the profiler.
pub(crate) fn profile_error_sets(profile: &FaultProfile) -> GroundTruth {
    profile.functions.iter().map(|f| (f.name.clone(), f.error_values())).collect()
}

/// Scores a profile against ground truth.
///
/// Only functions present in the ground truth participate; functions the
/// profiler saw but the ground truth does not mention are ignored, mirroring
/// the paper's comparison against (partial) documentation.
pub fn score_profile(profile: &FaultProfile, truth: &GroundTruth) -> AccuracyReport {
    let found = profile_error_sets(profile);
    score_sets(&found, truth)
}

/// Scores already-extracted per-function error sets against ground truth.
pub fn score_sets(found: &GroundTruth, truth: &GroundTruth) -> AccuracyReport {
    let mut report = AccuracyReport::default();
    for (function, truth_values) in truth {
        let empty = BTreeSet::new();
        let found_values = found.get(function).unwrap_or(&empty);
        report.true_positives += found_values.intersection(truth_values).count();
        report.false_negatives += truth_values.difference(found_values).count();
        report.false_positives += found_values.difference(truth_values).count();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profile::{ErrorReturn, FunctionProfile};

    fn truth_of(entries: &[(&str, &[i64])]) -> GroundTruth {
        entries
            .iter()
            .map(|(name, values)| ((*name).to_owned(), values.iter().copied().collect()))
            .collect()
    }

    fn profile_of(entries: &[(&str, &[i64])]) -> FaultProfile {
        let mut profile = FaultProfile::new("libx.so");
        for (name, values) in entries {
            profile.push_function(FunctionProfile {
                name: (*name).to_owned(),
                error_returns: values.iter().map(|v| ErrorReturn::bare(*v)).collect(),
            });
        }
        profile
    }

    #[test]
    fn perfect_match_scores_100() {
        let profile = profile_of(&[("f", &[-1, -2]), ("g", &[-3])]);
        let truth = truth_of(&[("f", &[-1, -2]), ("g", &[-3])]);
        let report = score_profile(&profile, &truth);
        assert_eq!(report, AccuracyReport { true_positives: 3, false_negatives: 0, false_positives: 0 });
        assert_eq!(report.accuracy_percent(), 100);
    }

    #[test]
    fn misses_and_extras_are_counted() {
        let profile = profile_of(&[("f", &[-1, -9]), ("g", &[])]);
        let truth = truth_of(&[("f", &[-1, -2]), ("g", &[-3])]);
        let report = score_profile(&profile, &truth);
        assert_eq!(report.true_positives, 1);
        assert_eq!(report.false_negatives, 2); // -2 and -3 missed
        assert_eq!(report.false_positives, 1); // -9 cannot happen
        assert_eq!(report.accuracy_percent(), 25);
    }

    #[test]
    fn functions_not_in_truth_are_ignored() {
        let profile = profile_of(&[("undocumented", &[-1])]);
        let truth = truth_of(&[("f", &[-1])]);
        let report = score_profile(&profile, &truth);
        assert_eq!(report.true_positives, 0);
        assert_eq!(report.false_negatives, 1);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn libpcre_shape_matches_the_paper_formula() {
        // 52 TPs, 10 FNs, 0 FPs → 84% (the §6.3 manual-inspection figure).
        let report = AccuracyReport { true_positives: 52, false_negatives: 10, false_positives: 0 };
        assert_eq!(report.accuracy_percent(), 84);
        assert!(report.to_string().contains("84%"));
    }

    #[test]
    fn absorb_aggregates_counts() {
        let mut total = AccuracyReport::default();
        total.absorb(AccuracyReport { true_positives: 2, false_negatives: 1, false_positives: 0 });
        total.absorb(AccuracyReport { true_positives: 3, false_negatives: 0, false_positives: 1 });
        assert_eq!(total, AccuracyReport { true_positives: 5, false_negatives: 1, false_positives: 1 });
    }

    #[test]
    fn empty_report_is_perfect() {
        assert_eq!(AccuracyReport::default().accuracy(), 1.0);
    }
}

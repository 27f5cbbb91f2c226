//! # lfi-corpus — the synthetic library corpus for the LFI reproduction
//!
//! The paper's evaluation runs over real binaries: GNU libc, libxml2,
//! libpcre, the Apache Portable Runtime, a Linux kernel image, and the
//! sweep over more than 20,000 functions from Ubuntu development packages.
//! Those binaries are not available here, so this crate *generates* a corpus
//! with the same shape (see DESIGN.md §2 for the substitution argument):
//!
//! * [`kernel`] — the kernel image whose `sys_<n>` handlers produce the
//!   negative errno constants libc propagates (§3.1);
//! * [`libc`] — a 1535-export libc with real POSIX entry points, the APR
//!   libraries of §6.4, and the documentation models containing the paper's
//!   deliberate man-page omissions (`close`/EIO, `modify_ldt`/ENOMEM);
//! * [`named`] — the 18 libraries of Table 2 plus libpcre, generated so the
//!   profiler's TP/FN/FP counts land where the paper reports them, and the
//!   `htmlParseDocument` doc mismatch;
//! * [`survey`] — the >20,000-function corpus behind Table 1;
//! * [`truth`] — documentation and execution ground-truth bookkeeping.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod kernel;
pub mod libc;
pub mod named;
pub mod survey;
pub mod truth;

pub use kernel::build_kernel;
pub use libc::{build_libc_scaled, libc_errno_documentation, libc_errno_truth};
pub use named::{build_libpcre, build_table2_corpus, build_table2_library, Table2Entry, TABLE2};
pub use survey::{survey_corpus, survey_profiles, DetailChannel, SurveyConfig, Table1Cell, TABLE1_EXPECTED};
pub use truth::{error_map, CorpusLibrary};

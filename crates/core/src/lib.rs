//! # lfi-core — the LFI facade and the evaluation experiments
//!
//! This crate ties the reproduction together.  [`Lfi`] is the user-facing
//! entry point mirroring the tool's two-step workflow (§2): register the
//! target application's libraries (and optionally a kernel image), profile
//! them, and drive the whole pipeline — any
//! [`ScenarioGenerator`](lfi_scenario::generator::ScenarioGenerator) through
//! [`Lfi::scenario`], or a ready-to-run campaign through [`Lfi::campaign`].
//! The [`experiments`] module contains the drivers that regenerate every
//! table and figure of the paper's evaluation; the `repro` binary in
//! `lfi-bench` runs them.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
mod facade;

pub use facade::{Lfi, LfiError};

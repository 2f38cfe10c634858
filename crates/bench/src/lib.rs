//! # wsd-bench
//!
//! The evaluation harness that regenerates every table and figure of the
//! WSD paper (§V). Each experiment is a binary under `src/bin/` — one
//! per table/figure, named after it (`table2`, `fig2a`, …) — built on
//! the shared machinery here:
//!
//! * [`args`] — the common CLI surface (`--reps`, `--scale`, `--quick`…).
//! * [`metrics`] — ARE / MARE (§V-A).
//! * [`runner`] — workload construction (stream + exact timeline) and
//!   repeated, thread-parallel accuracy runs plus serial timing runs.
//! * [`policies`] — train-or-load cache for WSD-L policies (Table I
//!   train/test pairing).
//! * [`experiments`] — the drivers shared by several tables.
//! * [`table`] — paper-style sectioned table rendering + CSV export.
//!
//! README's *Experiments* section shows how to run the binaries.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod experiments;
pub mod metrics;
pub mod policies;
pub mod runner;
pub mod table;

pub use args::Args;
pub use runner::{run_cell, run_once, AlgoSpec, CellResult, Workload};
pub use table::Table;

//! # adaptnoc-benchmark
//!
//! The repository's one benchmark: five named workloads, end-to-end
//! metrics from an untraced run, and a per-layer ledger from a separate
//! traced run of the same inputs, measured from outside the crates by
//! timing calls into their public functions. `README.md` beside this
//! package is the glossary; `BENCHMARK.json` at the repository root is
//! the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod calib;
pub mod cli;
pub mod digest;
pub mod metrics;
pub mod procfs;
pub mod stats;
pub mod trace;
pub mod workloads;

//! # vexus-bench
//!
//! The experiment harness reproducing every figure and quantitative claim
//! of the VEXUS paper (the README's Experiments section is the index).
//! It prints the paper's tables; it is not where numbers or invariants
//! live — wall-clock belongs to `benchmark/`, invariants to `cargo test`.
//!
//! * [`workloads`] — shared engines/datasets the experiments run on,
//! * [`experiments`] — one function per experiment id (`f1`, `f2`, `d1`,
//!   `c1`…`c12`), each printing the table/series the paper reports,
//! * `benches/` — criterion micro-benchmarks per hot path,
//! * `src/bin/experiments.rs` — CLI: `experiments [id…]` runs everything or
//!   a subset.

pub mod experiments;
pub mod workloads;

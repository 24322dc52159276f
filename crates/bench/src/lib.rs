//! # vexus-bench
//!
//! The paper record. PAPER.md is a stub, so the figures and quantitative
//! claims of the VEXUS paper survive here, as fifteen typed, seeded
//! experiment results (the README's Experiments section is the index).
//! This crate is not where numbers live — wall-clock belongs to
//! `benchmark/` — and it asserts nothing itself: the claims are asserted
//! on its result structs by the root package's `tests/paper_claims.rs`.
//!
//! * [`workloads`] — the two standard engines, built once per process,
//! * [`experiments`] — one function per experiment id (`f1`, `f2`, `d1`,
//!   `c1`…`c12`), each returning the result struct whose `Display` is the
//!   table the paper reports, and the registry of all fifteen,
//! * `src/bin/experiments.rs` (root package) — CLI: `experiments [id…]`
//!   prints everything or a subset and writes `f2`'s SVG renders.

pub mod experiments;
pub mod workloads;

//! # crowd-bench
//!
//! Deterministic baselines for the reproduction. The `bench` binary (see
//! [`pipeline`]) counts the comparisons of the Phase-1 filter, 2-MaxFind
//! and the full two-phase run per catalog size; `serve_load` (see
//! [`serve_load`]) drives crowd-serve through load scenarios. Each writes
//! a `{"meta": …}` report that is committed (`BENCH_results.json`,
//! `SERVE_results.json`) and diffed in CI. Neither measures time: the
//! repeated, spread-aware timings live in the repository benchmark under
//! `perfbench/`, which imports [`serve_load::bench_config`] and
//! [`serve_load::DEFAULT_SEED`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod serve_load;

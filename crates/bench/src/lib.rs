//! # crowd-bench
//!
//! Benchmark pipelines for the reproduction. The `bench` binary (see
//! [`pipeline`]) times the Phase-1 filter, 2-MaxFind and the full two-phase
//! run per catalog size; `serve_load` (see [`serve_load`]) drives
//! crowd-serve through load scenarios. Each writes a report whose
//! deterministic metadata half is committed (`BENCH_results.json`,
//! `SERVE_results.json`) and diffed in CI. Repeated, spread-aware timings
//! live in the repository benchmark under `perfbench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod serve_load;

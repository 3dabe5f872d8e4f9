//! # crowd-bench
//!
//! Benchmark pipelines for the reproduction. The `bench` binary (see
//! [`pipeline`]) times the Phase-1 filter, 2-MaxFind and the full two-phase
//! run per catalog size; `serve_load` (see [`serve_load`]) drives
//! crowd-serve through load scenarios. Each writes a report whose
//! deterministic metadata half is committed (`BENCH_results.json`,
//! `SERVE_results.json`) and diffed in CI.
//!
//! The `benches/` targets (`cargo bench -p crowd-bench`) are smoke runs,
//! not statistical benchmarks: the workspace's `criterion` stand-in runs
//! each registered closure once and prints its wall time, so they prove
//! every figure/table harness and core algorithm still executes at a
//! reduced scale. Repeated, spread-aware timings live in the repository
//! benchmark under `perfbench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod serve_load;

use crowd_core::element::Instance;
use crowd_core::model::{ExpertModel, TiePolicy};
use crowd_core::oracle::SimulatedOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A planted benchmark instance with its oracle, at the paper's default
/// worker parameters.
pub fn bench_oracle(
    n: usize,
    un: usize,
    ue: usize,
    seed: u64,
) -> (Instance, SimulatedOracle<StdRng>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let planted = crowd_datasets::synthetic::planted_instance(n, un, ue, &mut rng);
    let model = ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);
    let oracle = SimulatedOracle::new(
        planted.instance.clone(),
        model,
        StdRng::seed_from_u64(seed ^ 1),
    );
    (planted.instance, oracle)
}

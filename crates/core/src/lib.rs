//! # crowd-core
//!
//! A faithful implementation of *"The Importance of Being Expert: Efficient
//! Max-Finding in Crowdsourcing"* (Anagnostopoulos, Becchetti, Fazzone,
//! Mele, Riondato — SIGMOD 2015).
//!
//! The paper models crowdsourced pairwise comparisons with the **threshold
//! error model** `T(δ, ε)` and two worker classes — cheap *naïve* workers
//! and scarce, expensive *experts* (`δe ≪ δn`) — and gives a two-phase
//! algorithm that finds an element within `2δe` of the maximum using an
//! asymptotically optimal number of comparisons from each class.
//!
//! ## Crate map
//!
//! * [`element`] — elements, values, instances, ranks.
//! * [`model`] — the probabilistic and threshold error models, the
//!   two-class expert model, and tie policies for the arbitrary regime.
//! * [`oracle`] — comparison oracles: the simulated workforce, comparison
//!   counting, memoization, and the "simulated expert by 7 naïve votes"
//!   construction.
//! * [`tournament`] — all-play-all tournaments (Lemmas 1–2 machinery).
//! * [`algorithms`] — Algorithms 1, 2, 3, 5 and the paper's baselines.
//! * [`estimation`] — Algorithm 4: estimating `un(n)` and `perr` from gold
//!   data.
//! * [`multiclass`] — the paper's future-work extension: `k` worker
//!   classes on an expertise ladder and a cascaded filter.
//! * [`cost`] — the monetary cost model `C(n) = xe·ce + xn·cn`.
//! * [`bounds`] — the paper's closed-form upper/lower bounds.
//! * [`budget`] — budget-optimal majority voting (the Mo et al. problem
//!   from the related work).
//! * [`equiv`] — the differential-equivalence harness: prove two oracle
//!   drives issue the byte-identical comparison sequence.
//! * [`replay`] — record every judgment an oracle gives into a
//!   serializable log.
//! * [`stats`] — aggregation helpers for experiments.
//! * [`trace`] — comparison-level tracing: the round/phase event and
//!   fault vocabulary, plus the per-thread work tally.
//!
//! ## Quick start
//!
//! ```
//! use crowd_core::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1000 elements with uniform random values.
//! let mut rng = StdRng::seed_from_u64(7);
//! let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 1000) as f64).collect();
//! let instance = Instance::new(values);
//!
//! // Naïve workers cannot tell elements closer than 20 apart; experts
//! // discern down to 2. Nobody errs above their threshold.
//! let model = ExpertModel::exact(20.0, 2.0, TiePolicy::UniformRandom);
//! let un = instance.indistinguishable_from_max(20.0);
//! let mut oracle = SimulatedOracle::new(instance.clone(), model, StdRng::seed_from_u64(8));
//!
//! let outcome = expert_max_find(
//!     &mut oracle,
//!     &instance.ids(),
//!     &ExpertMaxConfig::new(un),
//!     &mut rng,
//! );
//!
//! // The returned element is within 2·δe of the true maximum …
//! assert!(instance.max_value() - instance.value(outcome.winner) <= 2.0 * 2.0);
//! // … and the expensive experts saw only the small candidate set.
//! assert!(outcome.total_comparisons.expert < outcome.total_comparisons.naive);
//!
//! // Bill the run: naïve comparisons cost 1, expert ones 50.
//! let bill = CostModel::with_ratio(50.0).cost(outcome.total_comparisons);
//! assert!(bill > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod bounds;
pub mod budget;
pub mod cost;
pub mod element;
pub mod equiv;
pub mod estimation;
pub mod model;
pub mod multiclass;
pub mod oracle;
pub mod replay;
pub mod stats;
pub mod tournament;
pub mod trace;

/// One-stop imports for typical users of the crate.
pub mod prelude {
    pub use crate::algorithms::{
        all_play_all_max, expert_max_find, expert_rank, filter_candidates, linear_scan_max,
        majority_compare, near_sort, randomized_max_find, top_k_find, try_expert_max_find,
        try_filter_candidates, two_max_find, two_max_find_expert, two_max_find_naive,
        ExpertMaxConfig, ExpertMaxOutcome, FilterConfig, FilterOutcome, Phase2, RandomizedConfig,
        TopKConfig,
    };
    pub use crate::budget::{budgeted_max_scan, plan_votes, VotePlan};
    pub use crate::cost::CostModel;
    pub use crate::element::{ElementId, Instance, Value};
    pub use crate::equiv::{assert_oracles_equal, drive_batched, drive_scalar};
    pub use crate::estimation::{estimate_perr, estimate_un, EstimationConfig, TrainingSet};
    pub use crate::model::{
        ErrorModel, ExpertModel, ProbabilisticModel, ThresholdModel, TiePolicy, WorkerClass,
    };
    pub use crate::multiclass::{
        cascade_max_find, CascadeOutcome, ClassSpec, ExpertiseLadder, LadderOracle,
        MultiClassOracle,
    };
    pub use crate::oracle::{
        ComparisonCounts, ComparisonOracle, FnOracle, MajorityOracle, MemoOracle, ModelOracle,
        OracleError, PerfectOracle, SimulatedExpertOracle, SimulatedOracle, TryFnOracle,
    };
    pub use crate::replay::{JudgmentLog, RecordingOracle};
    pub use crate::tournament::Tournament;
    pub use crate::trace::{FaultCounts, FaultKind, FaultTally, TraceEvent, TracePhase};
}

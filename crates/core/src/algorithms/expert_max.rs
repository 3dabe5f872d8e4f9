//! Algorithm 1 — the expert-aware two-phase max-finding algorithm
//! (paper Section 4.1).
//!
//! 1. **Phase 1** (naïve workers): run the tournament filter
//!    ([`filter_candidates`](super::filter_candidates)) to shrink `L` to a
//!    candidate set `S` with `M ∈ S` and `|S| <= 2·un(n) − 1`, at
//!    `O(n·un(n))` naïve comparisons.
//! 2. **Phase 2** (expert workers): run a near-max algorithm on `S`.
//!    [`Phase2::TwoMaxFind`] gives the best guarantee (`d(M, e) <= 2δe`,
//!    `O(un^{3/2})` expert comparisons, used by the paper's experiments);
//!    [`Phase2::Randomized`] gives the asymptotically optimal `Θ(un)`
//!    comparisons with `d(M, e) <= 3δe` whp (used by the paper's analysis);
//!    [`Phase2::AllPlayAll`] is the naive `Θ(un²)` option the paper
//!    dismisses.
//!
//! Both comparison budgets are optimal up to constants: `Ω(n·un/4)` naïve
//! comparisons are necessary (Corollary 1) and `Ω(un)` expert comparisons
//! are necessary — see [`crate::bounds`].

use super::filter::{filter_candidates_checked, FilterConfig, FilterOutcome};
use super::randomized::{randomized_max_find, RandomizedConfig};
use super::two_maxfind::two_max_find;
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{
    ComparisonCounts, ComparisonOracle, CountsRegression, FuseOracle, OracleError,
};
use crate::tournament::Tournament;
use crate::trace::{TraceEvent, TracePhase};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Which algorithm runs the expert phase on the candidate set `S`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Phase2 {
    /// Algorithm 3, deterministic, `d(M, e) <= 2δe`, `O(|S|^{3/2})`
    /// comparisons. The paper's practical choice.
    #[default]
    TwoMaxFind,
    /// Algorithm 5, randomized, `d(M, e) <= 3δe` whp, `Θ(|S|)` comparisons.
    /// The paper's analytical choice.
    Randomized(RandomizedConfig),
    /// All-play-all on `S`, `d(M, e) <= 2δe`, `Θ(|S|²)` comparisons.
    /// Dominated by [`Phase2::TwoMaxFind`]; kept as a baseline.
    AllPlayAll,
}

/// Configuration for [`expert_max_find`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpertMaxConfig {
    /// The `un(n)` parameter handed to Phase 1 (possibly an estimate; see
    /// [`crate::estimation`]).
    pub un: usize,
    /// The expert-phase algorithm.
    pub phase2: Phase2,
    /// Appendix A global-loss-counter optimization for Phase 1.
    pub track_global_losses: bool,
}

impl ExpertMaxConfig {
    /// The paper's experimental configuration: plain Phase 1 and 2-MaxFind.
    pub fn new(un: usize) -> Self {
        ExpertMaxConfig {
            un,
            phase2: Phase2::TwoMaxFind,
            track_global_losses: false,
        }
    }

    /// Selects the expert-phase algorithm.
    pub fn with_phase2(mut self, phase2: Phase2) -> Self {
        self.phase2 = phase2;
        self
    }

    /// Enables the Appendix A optimization in Phase 1.
    pub fn with_global_losses(mut self) -> Self {
        self.track_global_losses = true;
        self
    }
}

/// The result of a full two-phase run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpertMaxOutcome {
    /// The element returned as (an approximation of) the maximum.
    pub winner: ElementId,
    /// The Phase-1 candidate set handed to the experts.
    pub candidates: Vec<ElementId>,
    /// Phase-1 statistics.
    pub phase1: FilterOutcome,
    /// Comparisons used by Phase 2 (expert class).
    pub phase2_comparisons: ComparisonCounts,
    /// Total comparisons across both phases.
    pub total_comparisons: ComparisonCounts,
}

/// Runs Algorithm 1: filter with naïve workers, then select with experts.
///
/// `rng` is consumed only by [`Phase2::Randomized`]; the other phase-2
/// options are deterministic given the oracle's answers.
///
/// ```
/// use crowd_core::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let instance = Instance::new((0..400).map(|i| ((i * 61) % 400) as f64).collect());
/// let model = ExpertModel::exact(8.0, 1.0, TiePolicy::UniformRandom);
/// let un = instance.indistinguishable_from_max(8.0);
/// let mut oracle = SimulatedOracle::new(instance.clone(), model, StdRng::seed_from_u64(1));
/// let mut rng = StdRng::seed_from_u64(2);
///
/// let out = expert_max_find(&mut oracle, &instance.ids(), &ExpertMaxConfig::new(un), &mut rng);
/// assert!(instance.max_value() - instance.value(out.winner) <= 2.0); // within 2·δe
/// assert!(out.candidates.len() <= 2 * un); // Lemma 3
/// ```
///
/// # Panics
///
/// Panics if `elements` is empty or `config.un == 0`.
pub fn expert_max_find<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut R,
) -> ExpertMaxOutcome {
    expert_max_find_checked(oracle, elements, config, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// The two-phase body behind both [`expert_max_find`] and
/// [`try_expert_max_find`]: identical comparison sequence, but the phase
/// snapshot bookkeeping reports a [`CountsRegression`] as a value instead
/// of unwinding, so fallible job drivers can return it.
fn expert_max_find_checked<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut R,
) -> Result<ExpertMaxOutcome, CountsRegression> {
    assert!(
        !elements.is_empty(),
        "max-finding needs at least one element"
    );
    let start = oracle.counts();

    // Phase 1: naïve filtering.
    let mut filter_cfg = FilterConfig::new(config.un);
    filter_cfg.track_global_losses = config.track_global_losses;
    oracle.observe(TraceEvent::PhaseStart(TracePhase::Filter));
    let phase1 = filter_candidates_checked(oracle, elements, &filter_cfg)?;
    oracle.observe(TraceEvent::PhaseEnd(TracePhase::Filter));
    let candidates = phase1.survivors.clone();
    assert!(
        !candidates.is_empty(),
        "phase 1 returned no candidates — un(n) was severely underestimated"
    );

    // Phase 2: expert selection on S.
    let before_phase2 = oracle.counts();
    oracle.observe(TraceEvent::PhaseStart(TracePhase::Expert));
    let winner = match config.phase2 {
        Phase2::TwoMaxFind => two_max_find(oracle, WorkerClass::Expert, &candidates).winner,
        Phase2::Randomized(rc) => {
            randomized_max_find(oracle, WorkerClass::Expert, &candidates, &rc, rng).winner
        }
        Phase2::AllPlayAll => Tournament::all_play_all(oracle, WorkerClass::Expert, &candidates)
            .champion()
            .expect("candidates are non-empty"),
    };
    oracle.observe(TraceEvent::PhaseEnd(TracePhase::Expert));
    let end = oracle.counts();

    Ok(ExpertMaxOutcome {
        winner,
        candidates,
        phase1,
        phase2_comparisons: end.delta_since(before_phase2)?,
        total_comparisons: end.delta_since(start)?,
    })
}

/// Fallible twin of [`expert_max_find`]: surfaces the first
/// [`OracleError`] instead of fabricating answers.
///
/// Like [`super::filter::try_filter_candidates`], the run proceeds behind a
/// [`FuseOracle`], which answers every query after a mid-run outage
/// without asking a worker. Both phases still terminate: Phase 1 by
/// Lemma 2's counting argument, Phase 2 because it asks a bounded number
/// of comparisons (2-MaxFind memoizes its answers, so each champion's
/// eliminations stick) whatever the answers. The fabricated outcome is
/// then discarded in favour of the error.
///
/// # Errors
///
/// Returns the first error the oracle's
/// [`try_compare`](ComparisonOracle::try_compare) reported, in either
/// phase, or [`OracleError::CountsRegressed`] if the stack's tally went
/// backwards mid-run (a broken decorator — reported, not unwound).
pub fn try_expert_max_find<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut R,
) -> Result<ExpertMaxOutcome, OracleError> {
    let mut fuse = FuseOracle::new(oracle);
    let out = expert_max_find_checked(&mut fuse, elements, config, rng);
    match (fuse.take_error(), out) {
        (Some(err), _) => Err(err),
        (None, Err(regression)) => Err(OracleError::CountsRegressed(regression)),
        (None, Ok(out)) => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::model::{ExpertModel, TiePolicy};
    use crate::oracle::{PerfectOracle, SimulatedOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    fn threshold_oracle(
        inst: &Instance,
        delta_n: f64,
        delta_e: f64,
        seed: u64,
    ) -> SimulatedOracle<StdRng> {
        let model = ExpertModel::exact(delta_n, delta_e, TiePolicy::UniformRandom);
        SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn perfect_workers_find_the_exact_max() {
        let inst = uniform_instance(500, 1);
        let mut o = PerfectOracle::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(5), &mut rng);
        assert_eq!(out.winner, inst.max_element());
    }

    #[test]
    fn within_two_delta_e_with_two_maxfind() {
        for seed in 0..15 {
            let inst = uniform_instance(400, seed);
            let (dn, de) = (25.0, 5.0);
            let un = inst.indistinguishable_from_max(dn);
            let mut o = threshold_oracle(&inst, dn, de, seed + 500);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(un), &mut rng);
            let gap = inst.max_value() - inst.value(out.winner);
            assert!(gap <= 2.0 * de, "seed {seed}: gap {gap} > 2δe");
        }
    }

    #[test]
    fn comparison_budget_split_between_phases() {
        let inst = uniform_instance(1000, 3);
        let (dn, de) = (20.0, 2.0);
        let un = inst.indistinguishable_from_max(dn).max(1);
        let mut o = threshold_oracle(&inst, dn, de, 7);
        let mut rng = StdRng::seed_from_u64(4);
        let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(un), &mut rng);

        // Phase 1 uses only naïve workers, phase 2 only experts.
        assert_eq!(out.phase1.comparisons.expert, 0);
        assert_eq!(out.phase2_comparisons.naive, 0);
        assert_eq!(
            out.total_comparisons,
            out.phase1.comparisons + out.phase2_comparisons
        );
        // Theorem 1 budgets.
        assert!(out.phase1.comparisons.naive <= (4 * 1000 * un) as u64);
        let s = out.candidates.len();
        assert!(
            out.phase2_comparisons.expert <= (2.0 * (s as f64).powf(1.5)).ceil() as u64,
            "phase 2 used {} comparisons on |S| = {s}",
            out.phase2_comparisons.expert
        );
    }

    #[test]
    fn candidate_set_respects_lemma_3() {
        let inst = uniform_instance(800, 5);
        let (dn, de) = (30.0, 3.0);
        let un = inst.indistinguishable_from_max(dn).max(1);
        let mut o = threshold_oracle(&inst, dn, de, 11);
        let mut rng = StdRng::seed_from_u64(6);
        let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(un), &mut rng);
        assert!(out.candidates.len() <= 2 * un);
        assert!(out.candidates.contains(&inst.max_element()));
    }

    #[test]
    fn all_phase2_options_return_good_elements() {
        let inst = uniform_instance(600, 8);
        let (dn, de) = (25.0, 5.0);
        let un = inst.indistinguishable_from_max(dn).max(1);
        for (phase2, factor) in [
            (Phase2::TwoMaxFind, 2.0),
            (
                Phase2::Randomized(RandomizedConfig::default().with_group_size(8)),
                3.0,
            ),
            (Phase2::AllPlayAll, 2.0),
        ] {
            let mut o = threshold_oracle(&inst, dn, de, 13);
            let mut rng = StdRng::seed_from_u64(9);
            let cfg = ExpertMaxConfig::new(un).with_phase2(phase2);
            let out = expert_max_find(&mut o, &inst.ids(), &cfg, &mut rng);
            let gap = inst.max_value() - inst.value(out.winner);
            assert!(gap <= factor * de, "{phase2:?}: gap {gap} > {factor}·δe");
        }
    }

    #[test]
    fn global_losses_option_plumbs_through() {
        let inst = uniform_instance(300, 10);
        let mut o = PerfectOracle::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = ExpertMaxConfig::new(4).with_global_losses();
        let out = expert_max_find(&mut o, &inst.ids(), &cfg, &mut rng);
        assert_eq!(out.winner, inst.max_element());
    }

    #[test]
    fn small_inputs() {
        let inst = Instance::new(vec![1.0, 3.0, 2.0]);
        let mut o = PerfectOracle::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(12);
        let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(2), &mut rng);
        assert_eq!(out.winner, ElementId(1));
        // n < 2·un: phase 1 is a no-op, everything goes to the experts.
        assert_eq!(out.phase1.comparisons.total(), 0);
        assert_eq!(out.candidates.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_input_panics() {
        let mut o = PerfectOracle::new(Instance::new(vec![1.0]));
        let mut rng = StdRng::seed_from_u64(1);
        expert_max_find(&mut o, &[], &ExpertMaxConfig::new(1), &mut rng);
    }

    #[test]
    fn try_variant_matches_infallible_run_when_nothing_fails() {
        let inst = uniform_instance(400, 21);
        let (dn, de) = (25.0, 5.0);
        let un = inst.indistinguishable_from_max(dn).max(1);
        let mut o = threshold_oracle(&inst, dn, de, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let plain = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(un), &mut rng);
        let mut o2 = threshold_oracle(&inst, dn, de, 22);
        let mut rng2 = StdRng::seed_from_u64(23);
        let fallible =
            try_expert_max_find(&mut o2, &inst.ids(), &ExpertMaxConfig::new(un), &mut rng2)
                .unwrap();
        assert_eq!(plain, fallible);
    }

    #[test]
    fn try_variant_surfaces_expert_phase_outages() {
        use crate::oracle::TryFnOracle;
        // Naïve answers flow; the expert pool is empty from the start. The
        // error must surface once phase 2 begins.
        let inst = uniform_instance(300, 24);
        let mut truth = PerfectOracle::new(inst.clone());
        let mut flaky = TryFnOracle::new(move |class, k, j| match class {
            WorkerClass::Naive => Ok(truth.compare(class, k, j)),
            WorkerClass::Expert => Err(OracleError::WorkforceDepleted { class }),
        });
        let mut rng = StdRng::seed_from_u64(25);
        let err = try_expert_max_find(&mut flaky, &inst.ids(), &ExpertMaxConfig::new(3), &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            OracleError::WorkforceDepleted {
                class: WorkerClass::Expert
            }
        );
    }
}

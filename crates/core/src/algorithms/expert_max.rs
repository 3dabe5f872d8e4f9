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

use super::filter::{FilterConfig, FilterOutcome, FilterSteps};
use super::randomized::{Randomized, RandomizedConfig};
use super::steps::{run, run_infallible, Games, Plan, Step, Steps};
use super::two_maxfind::TwoMaxFind;
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle, CountsRegression, OracleError};
use crate::tournament::AllPlayAll;
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

/// Phase 2's plan, by [`Phase2`].
#[derive(Debug, Clone)]
enum Expert<R> {
    TwoMaxFind(TwoMaxFind),
    Randomized(Randomized<R>),
    AllPlayAll(AllPlayAll),
}

impl<R: RngCore> Plan for Expert<R> {
    fn plan(
        &mut self,
        ids: &[ElementId],
        a_won: &[bool],
        next: &mut Vec<(u32, u32)>,
    ) -> Option<Vec<u32>> {
        match self {
            Expert::TwoMaxFind(p) => p.plan(ids, a_won, next),
            Expert::Randomized(p) => p.plan(ids, a_won, next),
            Expert::AllPlayAll(p) => p.plan(ids, a_won, next),
        }
    }

    fn memoizes(&self) -> bool {
        matches!(self, Expert::TwoMaxFind(_))
    }
}

/// One stage of Algorithm 1's script.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Snapshot,
    Event(TraceEvent),
    Filter,
    Expert,
}

/// What Algorithm 1 asks, in order: the phases bracketed by their events,
/// with a tally snapshot before, between and after them.
const SCRIPT: [Stage; 9] = [
    Stage::Snapshot,
    Stage::Event(TraceEvent::PhaseStart(TracePhase::Filter)),
    Stage::Filter,
    Stage::Event(TraceEvent::PhaseEnd(TracePhase::Filter)),
    Stage::Snapshot,
    Stage::Event(TraceEvent::PhaseStart(TracePhase::Expert)),
    Stage::Expert,
    Stage::Event(TraceEvent::PhaseEnd(TracePhase::Expert)),
    Stage::Snapshot,
];

/// Algorithm 1 as a sans-IO step machine (see [`Steps`]): it owns the
/// run's state and RNG, and asks for exactly the oracle traffic of
/// [`expert_max_find`], in order:
///
/// 1. a [`Step::Snapshot`], then `PhaseStart(Filter)`;
/// 2. Phase 1: per filter round a [`TraceEvent::RoundStart`], one naïve
///    batch per tournament row, then [`TraceEvent::RoundStats`] and
///    [`TraceEvent::RoundEnd`];
/// 3. `PhaseEnd(Filter)`, a snapshot, `PhaseStart(Expert)`;
/// 4. Phase 2: one expert batch per comparison (2-MaxFind asks none
///    twice), since each may depend on the answer before it;
/// 5. `PhaseEnd(Expert)`, a last snapshot, and [`Step::Done`], after which
///    [`finish`](Self::finish) gives the outcome.
///
/// It is `Clone` when the RNG is: clones fed the same answers end equal,
/// and clones fed different answers part only from there.
#[derive(Debug, Clone)]
pub struct ExpertMaxSteps<'a, R> {
    phase2: Phase2,
    /// Moved into Phase 2 when it is [`Phase2::Randomized`].
    rng: Option<R>,
    /// Phase 1 while it runs; dropped with its `O(n)` state when Phase 2,
    /// which holds Phase 1's outcome, starts.
    filter: Option<FilterSteps<'a>>,
    expert: Option<(FilterOutcome, Games<Expert<R>>)>,
    /// The snapshots so far.
    counts: Vec<ComparisonCounts>,
    /// Position in [`SCRIPT`].
    at: usize,
}

impl<'a, R: RngCore> ExpertMaxSteps<'a, R> {
    /// Starts Algorithm 1 over `elements`; `rng` is consumed only by
    /// [`Phase2::Randomized`].
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or `config.un == 0`.
    pub fn new(elements: &'a [ElementId], config: &ExpertMaxConfig, rng: R) -> Self {
        assert!(
            !elements.is_empty(),
            "max-finding needs at least one element"
        );
        let mut filter = FilterConfig::new(config.un);
        filter.track_global_losses = config.track_global_losses;
        ExpertMaxSteps {
            phase2: config.phase2,
            rng: Some(rng),
            filter: Some(FilterSteps::new(elements, &filter)),
            expert: None,
            counts: Vec::with_capacity(3),
            at: 0,
        }
    }

    /// The outcome of a run that reached [`Step::Done`].
    ///
    /// # Errors
    ///
    /// Returns [`CountsRegression`] if the snapshots went backwards (a
    /// broken oracle stack).
    ///
    /// # Panics
    ///
    /// Panics if the run is not done.
    pub fn finish(self) -> Result<ExpertMaxOutcome, CountsRegression> {
        let &[start, between, end] = self.counts.as_slice() else {
            panic!("the run is not done");
        };
        let (mut phase1, expert) = self.expert.expect("Phase 2 ran");
        phase1.comparisons = between.delta_since(start)?;
        Ok(ExpertMaxOutcome {
            winner: expert.finish().champion().expect("S is non-empty"),
            candidates: phase1.survivors.clone(),
            phase1,
            phase2_comparisons: end.delta_since(between)?,
            total_comparisons: end.delta_since(start)?,
        })
    }

    /// Phase 1's outcome (its tally is filled in by
    /// [`finish`](Self::finish)) and Phase 2 on the candidate set `S`.
    fn expert(&mut self) -> (FilterOutcome, Games<Expert<R>>) {
        let filter = self.filter.take().expect("Phase 1 ran");
        let phase1 = filter.finish(ComparisonCounts::zero());
        let candidates = &phase1.survivors;
        assert!(
            !candidates.is_empty(),
            "phase 1 returned no candidates — un(n) was severely underestimated"
        );
        let s = candidates.len();
        let plan = match self.phase2 {
            Phase2::TwoMaxFind => Expert::TwoMaxFind(TwoMaxFind::new(s)),
            Phase2::Randomized(rc) => {
                let rng = self.rng.take().expect("Phase 2 starts once");
                Expert::Randomized(Randomized::new(s, &rc, rng))
            }
            Phase2::AllPlayAll => Expert::AllPlayAll(AllPlayAll),
        };
        let games = Games::new(WorkerClass::Expert, candidates, plan);
        (phase1, games)
    }
}

impl<R: RngCore> Steps for ExpertMaxSteps<'_, R> {
    fn step(&mut self) -> Step {
        loop {
            let step = match SCRIPT.get(self.at) {
                None => return Step::Done,
                Some(Stage::Snapshot) => return Step::Snapshot,
                Some(&Stage::Event(event)) => {
                    self.at += 1;
                    return Step::Event(event);
                }
                Some(Stage::Filter) => self.filter.as_mut().expect("Phase 1 runs").step(),
                Some(Stage::Expert) => {
                    if self.expert.is_none() {
                        self.expert = Some(self.expert());
                    }
                    self.expert.as_mut().expect("Phase 2 is on").1.step()
                }
            };
            if step != Step::Done {
                return step;
            }
            self.at += 1;
        }
    }

    fn batch(&self) -> &[(ElementId, ElementId)] {
        match (&self.expert, &self.filter) {
            (Some((_, expert)), _) => expert.batch(),
            (None, filter) => filter.as_ref().expect("Phase 1 runs").batch(),
        }
    }

    fn answer(&mut self, winners: &[ElementId]) {
        match (&mut self.expert, &mut self.filter) {
            (Some((_, expert)), _) => expert.answer(winners),
            (None, filter) => filter.as_mut().expect("Phase 1 runs").answer(winners),
        }
    }

    fn snapshot(&mut self, counts: ComparisonCounts) {
        assert!(
            matches!(SCRIPT.get(self.at), Some(Stage::Snapshot)),
            "no snapshot was asked"
        );
        self.counts.push(counts);
        self.at += 1;
    }
}

/// Runs Algorithm 1: filter with naïve workers, then select with experts.
///
/// This drives an [`ExpertMaxSteps`] over `oracle`: each Phase-1 tournament
/// row is one [`compare_batch`](ComparisonOracle::compare_batch) call, and
/// each Phase-2 comparison is a call of its own. `rng` is consumed only by
/// [`Phase2::Randomized`]; the other phase-2 options are deterministic
/// given the oracle's answers.
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
    let mut steps = ExpertMaxSteps::new(elements, config, rng);
    run_infallible(&mut steps, oracle);
    steps.finish().unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`expert_max_find`]: the same calls, each through
/// [`try_compare_batch`](ComparisonOracle::try_compare_batch), until the
/// first error, which it returns at once. Nothing after the failing call
/// reaches the oracle — no comparison and no [`TraceEvent`], so a listener
/// such as `crowd_obs::ObservedOracle` reports no round or phase the run
/// did not finish.
///
/// # Errors
///
/// Returns the first error the oracle reported, in either phase, or
/// [`OracleError::CountsRegressed`] if the stack's tally went backwards
/// mid-run (a broken decorator — reported, not unwound).
pub fn try_expert_max_find<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut R,
) -> Result<ExpertMaxOutcome, OracleError> {
    let mut steps = ExpertMaxSteps::new(elements, config, rng);
    run(&mut steps, oracle, |o, class, pairs, winners| {
        o.try_compare_batch(class, pairs, winners)
    })?;
    steps.finish().map_err(OracleError::CountsRegressed)
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

    /// One entry of a machine's transcript: a step, with its batch.
    type Entry = (Step, Vec<(ElementId, ElementId)>);

    /// Whether a worker of `class` cannot tell `k` and `j` apart.
    fn tied(inst: &Instance, class: WorkerClass, (k, j): (ElementId, ElementId)) -> bool {
        let delta = if class == WorkerClass::Naive {
            8.0
        } else {
            2.0
        };
        (inst.value(k) - inst.value(j)).abs() <= delta
    }

    /// Threshold workers without randomness: a tied pair goes to the
    /// smaller id, any other to the larger value.
    fn answer(inst: &Instance, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        match tied(inst, class, (k, j)) {
            true => k.min(j),
            false if inst.value(k) > inst.value(j) => k,
            false => j,
        }
    }

    /// Drives `steps` to the end with [`answer`]; the first batch's
    /// answers come from `first` instead when it is given.
    fn drive<R: RngCore>(
        steps: &mut ExpertMaxSteps<'_, R>,
        inst: &Instance,
        mut first: Option<Vec<ElementId>>,
    ) -> Vec<Entry> {
        let mut transcript = Vec::new();
        let mut counts = ComparisonCounts::zero();
        loop {
            let step = steps.step();
            transcript.push((step, steps.batch().to_vec()));
            match step {
                Step::Compare(class) => {
                    let winners = first.take().unwrap_or_else(|| {
                        let pairs = steps.batch();
                        pairs
                            .iter()
                            .map(|&(k, j)| answer(inst, class, k, j))
                            .collect()
                    });
                    counts.record_many(class, winners.len() as u64);
                    steps.answer(&winners);
                }
                Step::Snapshot => steps.snapshot(counts),
                Step::Event(_) => {}
                Step::Done => return transcript,
            }
        }
    }

    #[test]
    fn clones_fed_the_same_answers_end_equal_and_part_only_after_a_changed_one() {
        let inst = Instance::new((0..200).map(|i| ((i * 37) % 200) as f64 * 0.5).collect());
        let ids = inst.ids();
        let mut diverged = 0;
        for phase2 in [
            Phase2::TwoMaxFind,
            Phase2::Randomized(RandomizedConfig::default().with_group_size(4)),
            Phase2::AllPlayAll,
        ] {
            let config = ExpertMaxConfig::new(6).with_phase2(phase2);
            let fresh = || ExpertMaxSteps::new(&ids, &config, StdRng::seed_from_u64(7));
            let mut whole = fresh();
            let reference = drive(&mut whole, &inst, None);
            let outcome = whole.finish().unwrap();

            // Clone at a Phase-1 batch and at a Phase-2 batch, each holding
            // an indistinguishable pair.
            let holds_tie = |(step, pairs): &Entry, class| {
                *step == Step::Compare(class) && pairs.iter().any(|&p| tied(&inst, class, p))
            };
            for class in [WorkerClass::Naive, WorkerClass::Expert] {
                let at = reference
                    .iter()
                    .position(|e| holds_tie(e, class))
                    .expect("a tied batch");
                let mut original = fresh();
                for _ in 0..at {
                    let step = original.step();
                    let pairs = original.batch().to_vec();
                    match step {
                        Step::Compare(c) => original.answer(
                            &pairs
                                .iter()
                                .map(|&(k, j)| answer(&inst, c, k, j))
                                .collect::<Vec<_>>(),
                        ),
                        Step::Snapshot => original.snapshot(ComparisonCounts::zero()),
                        _ => {}
                    }
                }
                // The same answers from here on: the clone ends equal.
                let mut twin = original.clone();
                let mut changed = original.clone();
                let tail = drive(&mut twin, &inst, None);
                assert_eq!(tail, reference[at..], "{phase2:?}, {class}");
                assert_eq!(twin.finish().unwrap().winner, outcome.winner);

                // One indistinguishable pair answered the other way: the
                // transcripts agree through that batch.
                assert_eq!(changed.step(), Step::Compare(class));
                let pairs = changed.batch().to_vec();
                let flip = pairs.iter().position(|&p| tied(&inst, class, p));
                let flip = flip.expect("the batch holds a tied pair");
                let mut winners: Vec<ElementId> = pairs
                    .iter()
                    .map(|&(k, j)| answer(&inst, class, k, j))
                    .collect();
                let (k, j) = pairs[flip];
                winners[flip] = if winners[flip] == k { j } else { k };
                let tail = drive(&mut changed, &inst, Some(winners));
                assert_eq!(tail[0], reference[at], "{phase2:?}, {class}");
                let winner = changed.finish().unwrap().winner;
                if tail[1..] != reference[at + 1..] || winner != outcome.winner {
                    diverged += 1;
                }
                // The original is untouched by its clones.
                assert_eq!(drive(&mut original, &inst, None), reference[at..]);
            }
        }
        assert!(diverged > 0, "no changed answer mattered");
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

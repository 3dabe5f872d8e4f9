//! The step-machine drivers against the loops they replaced.
//!
//! Each `reference_*` function below is the straight-line driver that ran
//! Algorithm 1 and its parts before they became step machines: the
//! Phase-1 row loop, 2-MaxFind with its run-local memo, Algorithm 5 and
//! the all-play-all tournament, each calling the oracle directly (Phase 2
//! through the scalar `compare`). Every test drives the new entry point
//! and its reference over same-seeded oracles through
//! [`assert_oracles_equal`], behind a [`CallLog`] that records each oracle
//! call's class and pair count and every observed event, and asks for the
//! same pair stream, argument order, batch boundaries, events and outcome.

use crowd_core::algorithms::{
    expert_max_find, filter_candidates, randomized_max_find, try_expert_max_find,
    try_filter_candidates, two_max_find, ExpertMaxConfig, ExpertMaxOutcome, FilterConfig,
    FilterOutcome, FilterRounds, Phase2, RandomizedConfig, RandomizedOutcome, TwoMaxFindOutcome,
};
use crowd_core::element::{ElementId, Instance};
use crowd_core::equiv::assert_oracles_equal;
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError, SimulatedOracle};
use crowd_core::tournament::Tournament;
use crowd_core::trace::{TraceEvent, TracePhase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// One thing a driver did to the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// An oracle call: its class and pair count (a scalar call is one).
    Ask(WorkerClass, usize),
    Event(TraceEvent),
}

/// Records every [`Call`] into a shared log, and fails the `fail_at`-th
/// oracle call (1-based) with [`OracleError::Unanswered`] before asking.
struct CallLog<O> {
    inner: O,
    calls: Rc<RefCell<Vec<Call>>>,
    asked: usize,
    fail_at: Option<usize>,
}

impl<O: ComparisonOracle> CallLog<O> {
    fn asked(&mut self, class: WorkerClass, pairs: usize) -> Result<(), OracleError> {
        self.calls.borrow_mut().push(Call::Ask(class, pairs));
        self.asked += 1;
        match self.fail_at {
            Some(k) if k == self.asked => Err(OracleError::Unanswered { attempts: k as u32 }),
            _ => Ok(()),
        }
    }
}

impl<O: ComparisonOracle> ComparisonOracle for CallLog<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j).expect("no failure planned")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        self.asked(class, 1)?;
        Ok(self.inner.compare(class, k, j))
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.try_compare_batch(class, pairs, winners)
            .expect("no failure planned");
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        self.asked(class, pairs.len())?;
        self.inner.compare_batch(class, pairs, winners);
        Ok(())
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: TraceEvent) {
        self.calls.borrow_mut().push(Call::Event(event));
        self.inner.observe(event);
    }
}

// ---- the reference drivers --------------------------------------------

/// Algorithm 2's row loop: each tournament row one `compare_batch` call.
fn reference_filter<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> FilterOutcome {
    let start = oracle.counts();
    let mut rounds = FilterRounds::new(elements, config);
    while let Some(round) = rounds.next_round() {
        oracle.observe(TraceEvent::RoundStart(round));
        let groups: Vec<Vec<u32>> = rounds.groups().map(<[u32]>::to_vec).collect();
        let mut tally = rounds.tally();
        for group in &groups {
            let mut pairs = Vec::new();
            rounds.push_pairs(group, &mut pairs);
            let mut answers = Vec::new();
            let mut rest = pairs.as_slice();
            for a in 0..group.len() - 1 {
                let (row, tail) = rest.split_at(group.len() - a - 1);
                oracle.compare_batch(WorkerClass::Naive, row, &mut answers);
                rest = tail;
            }
            tally.score(group, &answers);
        }
        rounds.absorb(&mut tally);
        let stats = rounds.end_round();
        oracle.observe(stats);
        oracle.observe(TraceEvent::RoundEnd(round));
    }
    rounds.finish(oracle.counts() - start)
}

/// All-play-all through the scalar `compare`: the players and their wins.
fn reference_all_play_all<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    players: &[ElementId],
) -> Vec<u32> {
    let mut wins = vec![0u32; players.len()];
    for i in 0..players.len() {
        for j in (i + 1)..players.len() {
            assert_ne!(players[i], players[j], "duplicate player in tournament");
            if oracle.compare(class, players[i], players[j]) == players[i] {
                wins[i] += 1;
            } else {
                wins[j] += 1;
            }
        }
    }
    wins
}

/// The earliest position with the most (`most`) or the fewest wins.
fn extreme(wins: &[u32], most: bool) -> usize {
    let mut best = 0;
    for (i, &w) in wins.iter().enumerate().skip(1) {
        if (most && w > wins[best]) || (!most && w < wins[best]) {
            best = i;
        }
    }
    best
}

/// 2-MaxFind's run-local memo over input indices.
struct RunMemo<'a, O> {
    oracle: &'a mut O,
    class: WorkerClass,
    ids: &'a [ElementId],
    memo: HashMap<(u32, u32), u32>,
}

impl<O: ComparisonOracle> RunMemo<'_, O> {
    fn compare(&mut self, a: u32, b: u32) -> u32 {
        let key = (a.min(b), a.max(b));
        if let Some(&w) = self.memo.get(&key) {
            return w;
        }
        let (k, j) = (self.ids[a as usize], self.ids[b as usize]);
        let w = if self.oracle.compare(self.class, k, j) == k {
            a
        } else {
            b
        };
        self.memo.insert(key, w);
        w
    }

    fn play_all(&mut self, group: &[u32]) -> Vec<u32> {
        let mut wins = vec![0; group.len()];
        for a in 0..group.len() {
            for b in (a + 1)..group.len() {
                if self.compare(group[a], group[b]) == group[a] {
                    wins[a] += 1;
                } else {
                    wins[b] += 1;
                }
            }
        }
        wins
    }
}

fn reference_two_max_find<O: ComparisonOracle>(
    oracle: &mut O,
    class: WorkerClass,
    elements: &[ElementId],
) -> TwoMaxFindOutcome {
    let start = oracle.counts();
    let s = elements.len();
    let t = (s as f64).sqrt().ceil() as usize;
    let mut memo = RunMemo {
        oracle,
        class,
        ids: elements,
        memo: HashMap::new(),
    };
    let mut candidates: Vec<u32> = (0..s as u32).collect();
    let mut rounds = 0;
    while candidates.len() > t {
        let group: Vec<u32> = candidates[..t].to_vec();
        let x = group[extreme(&memo.play_all(&group), true)];
        candidates.retain(|&e| e == x || memo.compare(x, e) == e);
        rounds += 1;
    }
    let wins = memo.play_all(&candidates);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| wins[b].cmp(&wins[a]).then(a.cmp(&b)));
    let final_ranking: Vec<(ElementId, u32)> = order
        .into_iter()
        .map(|i| (elements[candidates[i] as usize], wins[i]))
        .collect();
    TwoMaxFindOutcome {
        winner: final_ranking[0].0,
        rounds,
        final_ranking,
        comparisons: oracle.counts() - start,
    }
}

fn reference_randomized<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    class: WorkerClass,
    elements: &[ElementId],
    config: &RandomizedConfig,
    rng: &mut R,
) -> RandomizedOutcome {
    let start = oracle.counts();
    let s = elements.len();
    let sample_size = (s as f64).powf(0.3).ceil() as usize;
    let mut survivors: Vec<ElementId> = elements.to_vec();
    let mut witnesses: HashSet<ElementId> = HashSet::new();
    let mut rounds = 0;
    while survivors.len() >= sample_size.max(1) && survivors.len() > 1 {
        for &e in survivors.choose_multiple(rng, sample_size.min(survivors.len())) {
            witnesses.insert(e);
        }
        survivors.shuffle(rng);
        let mut removed: HashSet<ElementId> = HashSet::new();
        for group in survivors.chunks(config.group_size()) {
            if group.len() >= 2 {
                let wins = reference_all_play_all(oracle, class, group);
                removed.insert(group[extreme(&wins, false)]);
            }
        }
        if removed.is_empty() {
            break;
        }
        survivors.retain(|e| !removed.contains(e));
        rounds += 1;
    }
    witnesses.extend(&survivors);
    let mut w: Vec<ElementId> = witnesses.into_iter().collect();
    w.sort_unstable();
    let wins = reference_all_play_all(oracle, class, &w);
    RandomizedOutcome {
        winner: w[extreme(&wins, true)],
        rounds,
        witness_size: w.len(),
        comparisons: oracle.counts() - start,
    }
}

fn reference_expert_max_find<O: ComparisonOracle, R: RngCore>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut R,
) -> ExpertMaxOutcome {
    let start = oracle.counts();
    let mut filter_cfg = FilterConfig::new(config.un);
    filter_cfg.track_global_losses = config.track_global_losses;
    oracle.observe(TraceEvent::PhaseStart(TracePhase::Filter));
    let phase1 = reference_filter(oracle, elements, &filter_cfg);
    oracle.observe(TraceEvent::PhaseEnd(TracePhase::Filter));
    let candidates = phase1.survivors.clone();
    let before_phase2 = oracle.counts();
    oracle.observe(TraceEvent::PhaseStart(TracePhase::Expert));
    let expert = WorkerClass::Expert;
    let winner = match config.phase2 {
        Phase2::TwoMaxFind => reference_two_max_find(oracle, expert, &candidates).winner,
        Phase2::Randomized(rc) => {
            reference_randomized(oracle, expert, &candidates, &rc, rng).winner
        }
        Phase2::AllPlayAll => {
            let wins = reference_all_play_all(oracle, expert, &candidates);
            candidates[extreme(&wins, true)]
        }
    };
    oracle.observe(TraceEvent::PhaseEnd(TracePhase::Expert));
    let end = oracle.counts();
    ExpertMaxOutcome {
        winner,
        candidates,
        phase1,
        phase2_comparisons: end - before_phase2,
        total_comparisons: end - start,
    }
}

// ---- configurations ---------------------------------------------------

const POLICIES: [TiePolicy; 5] = [
    TiePolicy::UniformRandom,
    TiePolicy::Persistent,
    TiePolicy::FavorLower,
    TiePolicy::FavorHigher,
    TiePolicy::FavorSmallerId,
];

/// One configuration: the instance, its workers and Algorithm 1's knobs.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    values: Vec<f64>,
    policy: TiePolicy,
    epsilon: f64,
    config: ExpertMaxConfig,
}

impl Case {
    /// The input, in a seeded order: positions and ids disagree.
    fn ids(&self) -> Vec<ElementId> {
        let mut ids: Vec<ElementId> = (0..self.values.len() as u32).map(ElementId).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(!self.seed));
        ids
    }

    /// A same-seeded oracle behind a fresh call log (which fails its
    /// `fail_at`-th call, if set).
    fn oracle(&self, fail_at: Option<usize>) -> (CallLog<SimulatedOracle<StdRng>>, Calls) {
        let model = ExpertModel::new(40.0, self.epsilon, 8.0, self.epsilon, self.policy);
        let inner = SimulatedOracle::new(
            Instance::new(self.values.clone()),
            model,
            StdRng::seed_from_u64(self.seed),
        );
        let calls = Rc::new(RefCell::new(Vec::new()));
        let log = CallLog {
            inner,
            calls: calls.clone(),
            asked: 0,
            fail_at,
        };
        (log, Calls(calls))
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x5eed)
    }
}

/// A handle on a [`CallLog`]'s calls, kept by the driving closure.
#[derive(Clone)]
struct Calls(Rc<RefCell<Vec<Call>>>);

impl Calls {
    fn get(&self) -> Vec<Call> {
        self.0.borrow().clone()
    }
}

/// Every configuration the gate covers: un from 1 to 8; n = 1, one n in
/// `[2, 2·un)` and a few hundred; global losses on and off; every
/// [`Phase2`]; every tie policy and ε > 0 cycling through them.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut index = 0usize;
    for un in 1..=8usize {
        let mut sizes = vec![1, 170 + 23 * un];
        if un >= 2 {
            sizes.push(2 + (un * 7) % (2 * un - 2));
        }
        for n in sizes {
            for global in [false, true] {
                for phase2 in [
                    Phase2::TwoMaxFind,
                    Phase2::Randomized(RandomizedConfig::default()),
                    Phase2::Randomized(RandomizedConfig::default().with_group_size(2 + un % 4)),
                    Phase2::AllPlayAll,
                ] {
                    index += 1;
                    let seed = index as u64 * 0x9E37_79B9;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let values = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
                    let mut config = ExpertMaxConfig::new(un).with_phase2(phase2);
                    config.track_global_losses = global;
                    out.push(Case {
                        seed,
                        values,
                        policy: POLICIES[index % POLICIES.len()],
                        epsilon: if index % 3 == 0 { 0.1 } else { 0.0 },
                        config,
                    });
                }
            }
        }
    }
    out
}

// ---- the gates --------------------------------------------------------

#[test]
fn algorithm_1_issues_the_reference_calls_in_every_configuration() {
    for case in cases() {
        let ids = case.ids();
        let reference = |o: &mut _, calls: &Calls| {
            let out = reference_expert_max_find(o, &ids, &case.config, &mut case.rng());
            (out, calls.get())
        };
        let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
        assert_oracles_equal(
            a,
            b,
            |o| {
                (
                    expert_max_find(o, &ids, &case.config, &mut case.rng()),
                    calls_a.get(),
                )
            },
            |o| reference(o, &calls_b),
        );
        let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
        assert_oracles_equal(
            a,
            b,
            |o| {
                let out = try_expert_max_find(o, &ids, &case.config, &mut case.rng());
                (out.expect("nothing fails"), calls_a.get())
            },
            |o| reference(o, &calls_b),
        );
    }
}

#[test]
fn the_filter_issues_the_reference_calls_in_every_configuration() {
    for case in cases() {
        let ids = case.ids();
        let mut config = FilterConfig::new(case.config.un);
        config.track_global_losses = case.config.track_global_losses;
        for fallible in [false, true] {
            let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
            assert_oracles_equal(
                a,
                b,
                |o| {
                    let out = if fallible {
                        try_filter_candidates(o, &ids, &config).expect("nothing fails")
                    } else {
                        filter_candidates(o, &ids, &config)
                    };
                    (out, calls_a.get())
                },
                |o| (reference_filter(o, &ids, &config), calls_b.get()),
            );
        }
    }
}

/// The standalone Phase-2 entry points, on up to 60 players (Phase 2's
/// inputs are candidate sets of at most `2·un − 1`).
#[test]
fn phase_2_algorithms_issue_the_reference_calls() {
    for case in cases() {
        let ids = case.ids();
        let players = &ids[..ids.len().min(60)];
        let class = WorkerClass::Expert;
        let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
        assert_oracles_equal(
            a,
            b,
            |o| (two_max_find(o, class, players), calls_a.get()),
            |o| (reference_two_max_find(o, class, players), calls_b.get()),
        );
        let rc = match case.config.phase2 {
            Phase2::Randomized(rc) => rc,
            _ => RandomizedConfig::default().with_group_size(3),
        };
        let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
        assert_oracles_equal(
            a,
            b,
            |o| {
                let out = randomized_max_find(o, class, players, &rc, &mut case.rng());
                (out, calls_a.get())
            },
            |o| {
                let out = reference_randomized(o, class, players, &rc, &mut case.rng());
                (out, calls_b.get())
            },
        );
        let ((a, calls_a), (b, calls_b)) = (case.oracle(None), case.oracle(None));
        assert_oracles_equal(
            a,
            b,
            |o| {
                let t = Tournament::all_play_all(o, class, players);
                let wins: Vec<u32> = (0..t.len()).map(|i| t.wins(i)).collect();
                (wins, calls_a.get())
            },
            |o| (reference_all_play_all(o, class, players), calls_b.get()),
        );
    }
}

/// An oracle that fails at seeded call `k`: the fallible drivers make
/// exactly the reference's calls up to and including the `k`-th oracle
/// call — its events included, nothing after — and return that error.
#[test]
fn fallible_drivers_stop_at_the_failing_call() {
    for case in cases() {
        let ids = case.ids();
        let mut config = FilterConfig::new(case.config.un);
        config.track_global_losses = case.config.track_global_losses;
        let (mut o, calls) = case.oracle(None);
        reference_expert_max_find(&mut o, &ids, &case.config, &mut case.rng());
        let expert_calls = calls.get();
        let (mut o, calls) = case.oracle(None);
        reference_filter(&mut o, &ids, &config);
        let filter_calls = calls.get();

        for (fallible_expert, reference) in [(true, expert_calls), (false, filter_calls)] {
            let asks = reference.iter().filter(|c| matches!(c, Call::Ask(..)));
            let total = asks.count();
            if total == 0 {
                continue;
            }
            let k = StdRng::seed_from_u64(case.seed).gen_range(1..=total);
            let (mut o, calls) = case.oracle(Some(k));
            let err = if fallible_expert {
                try_expert_max_find(&mut o, &ids, &case.config, &mut case.rng()).unwrap_err()
            } else {
                try_filter_candidates(&mut o, &ids, &config).unwrap_err()
            };
            assert_eq!(err, OracleError::Unanswered { attempts: k as u32 });
            let kth = reference
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c, Call::Ask(..)))
                .nth(k - 1)
                .expect("k is at most the number of calls")
                .0;
            assert_eq!(calls.get(), reference[..=kth], "{case:?}, k = {k}");
        }
    }
}

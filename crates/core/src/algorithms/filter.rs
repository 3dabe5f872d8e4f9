//! Algorithm 2 — Phase 1: filter a candidate set with naïve workers.
//!
//! Given `L` of size `n` and the parameter `un(n) = o(n)`, the filter
//! repeatedly partitions the surviving elements into groups of
//! `g = 4·un(n)`, plays an all-play-all tournament inside each group, and
//! keeps only elements winning at least `g − un(n)` games (a smaller last
//! group is kept whole when `|G_ℓ| <= un(n)`, else filtered with threshold
//! `|G_ℓ| − un(n)`). It stops when fewer than `2·un(n)` elements survive.
//!
//! **Lemma 3**: the output `S` satisfies `M ∈ S` and `|S| <= 2·un(n) − 1`,
//! using at most `4·n·un(n)` naïve comparisons. The bound `M ∈ S` holds
//! because, by Lemma 1, `M` never loses more than `un(n) − 1` comparisons to
//! distinct opponents; termination and `|S| <= 2·un(n) − 1` follow from
//! Lemma 2, a counting argument independent of worker behaviour — the filter
//! terminates even against a fully adversarial oracle.
//!
//! **Call shape.** Each tournament row — `group[a]` against every later
//! member `group[a+1..]` — goes to the oracle as one
//! [`compare_batch`](ComparisonOracle::compare_batch) call, so a group of
//! size `|G|` costs `|G| − 1` calls of at most `4·un(n) − 1` pairs each, and
//! no call spans two groups. The pair sequence, its order and each pair's
//! argument order are those of the plain `(a, b)` double loop; only the
//! call boundaries differ. A platform underneath therefore runs one job (and
//! a journal one frame pair) per row instead of per comparison, while rows
//! stay small enough to keep per-call latency low.
//!
//! The Appendix A optimization is available via
//! [`FilterConfig::track_global_losses`]: an element may lose at most
//! `un(n)` comparisons in a single group, but across rounds its distinct
//! losses can exceed `un(n)`, proving (Lemma 1) it cannot be the maximum;
//! tracking a global per-element loss counter lets the filter discard such
//! elements early and terminate sooner.

use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{
    ComparisonCounts, ComparisonOracle, CountsRegression, FuseOracle, OracleError,
};
use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration for the Phase-1 filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// The parameter `un(n)`: (an upper bound on) the number of elements
    /// naïve-indistinguishable from the maximum, including the maximum
    /// itself. Overestimating costs money but never correctness;
    /// underestimating can evict the maximum (Section 5.2).
    pub un: usize,
    /// Enables the Appendix A global-loss-counter optimization.
    pub track_global_losses: bool,
}

impl FilterConfig {
    /// Plain Algorithm 2 with the given `un(n)` and no optimizations.
    pub fn new(un: usize) -> Self {
        FilterConfig {
            un,
            track_global_losses: false,
        }
    }

    /// Enables the global-loss-counter optimization.
    pub fn with_global_losses(mut self) -> Self {
        self.track_global_losses = true;
        self
    }
}

/// The result of running the Phase-1 filter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterOutcome {
    /// The candidate set `S` (contains `M` whenever workers follow the
    /// threshold model and `un` was not underestimated).
    pub survivors: Vec<ElementId>,
    /// Number of filtering rounds (iterations of the outer loop).
    pub rounds: usize,
    /// Survivor-set size after each round, starting from `n`.
    pub sizes: Vec<usize>,
    /// Naïve comparisons performed by the filter (from oracle snapshots).
    pub comparisons: ComparisonCounts,
}

/// Runs Algorithm 2 over `elements` using naïve workers from `oracle`.
///
/// Returns the candidate set and statistics. If `|elements| < 2·un` the
/// while-loop never runs and all elements survive (the set is already small
/// enough for the expert phase).
///
/// ```
/// use crowd_core::prelude::*;
///
/// let instance = Instance::new((0..200).map(|i| i as f64).collect());
/// let mut oracle = PerfectOracle::new(instance.clone());
/// let out = filter_candidates(&mut oracle, &instance.ids(), &FilterConfig::new(4));
/// assert!(out.survivors.contains(&instance.max_element()));
/// assert!(out.survivors.len() <= 2 * 4 - 1);              // Lemma 3 size bound
/// assert!(out.comparisons.naive <= 4 * 200 * 4);          // Lemma 3 cost bound
/// ```
///
/// # Panics
///
/// Panics if `config.un == 0` (the maximum is always indistinguishable from
/// itself, so `un(n) >= 1`) or if `elements` contains duplicates.
pub fn filter_candidates<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> FilterOutcome {
    filter_candidates_checked(oracle, elements, config).unwrap_or_else(|e| panic!("{e}"))
}

/// The filter body behind both [`filter_candidates`] and
/// [`try_filter_candidates`]: identical comparison sequence, but the
/// outcome's snapshot bookkeeping reports a [`CountsRegression`] as a
/// value instead of unwinding, so fallible job drivers can return it.
pub(crate) fn filter_candidates_checked<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, CountsRegression> {
    assert!(
        config.un >= 1,
        "un(n) >= 1: the maximum is indistinguishable from itself"
    );
    debug_assert!(
        elements.iter().collect::<HashSet<_>>().len() == elements.len(),
        "input elements must be distinct"
    );

    let start = oracle.counts();
    let un = config.un;
    let g = 4 * un;
    let n = elements.len();

    // The arena: elements are referred to by their dense position in the
    // input slice for the rest of the run. `wins` is one flat tally shared
    // by every group (a group resets only its own slots before playing),
    // and `losses[i]` is the capped set of distinct opponents slot `i` has
    // lost to (Appendix A) — capped at `un + 1` entries because the pruning
    // predicate `|losses| <= un` cannot change after that.
    let ids = elements;
    let mut wins: Vec<u32> = vec![0; n];
    let mut losses: Vec<Vec<u32>> = if config.track_global_losses {
        vec![Vec::new(); n]
    } else {
        Vec::new()
    };

    let mut survivors: Vec<u32> = (0..n as u32).collect();
    let mut sizes = vec![survivors.len()];
    let mut rounds = 0usize;
    let mut next: Vec<u32> = Vec::new();
    let mut champions: Vec<u32> = Vec::new();
    // The row buffers, sized once: a row holds at most `g − 1` pairs.
    let mut pairs: Vec<(ElementId, ElementId)> = Vec::with_capacity(g);
    let mut answers: Vec<ElementId> = Vec::with_capacity(g);

    while survivors.len() >= 2 * un {
        oracle.observe(TraceEvent::RoundStart(rounds as u32));
        next.clear();
        champions.clear();
        let groups = survivors.len().div_ceil(g);

        for ci in 0..groups {
            let group = &survivors[ci * g..((ci + 1) * g).min(survivors.len())];
            let is_last = ci == groups - 1;
            if is_last && group.len() <= un {
                // Too small a group to certify losses; keep it whole.
                next.extend_from_slice(group);
                champions.extend_from_slice(group);
                continue;
            }
            for &i in group {
                wins[i as usize] = 0;
            }
            // One oracle call per tournament row: `group[a]` against every
            // later member, in the scalar loop's `(a, b)` order.
            for (a, &i) in group.iter().enumerate() {
                let row = &group[a + 1..];
                if row.is_empty() {
                    break;
                }
                let k = ids[i as usize];
                pairs.clear();
                pairs.extend(row.iter().map(|&j| (k, ids[j as usize])));
                answers.clear();
                oracle.compare_batch(WorkerClass::Naive, &pairs, &mut answers);
                for (&j, &winner) in row.iter().zip(&answers) {
                    let (wi, li) = if winner == k { (i, j) } else { (j, i) };
                    wins[wi as usize] += 1;
                    if config.track_global_losses {
                        let set = &mut losses[li as usize];
                        if set.len() <= un && !set.contains(&wi) {
                            set.push(wi);
                        }
                    }
                }
            }
            // A smaller last group is filtered with its own size: Lemma 3
            // needs "at most un(n) losses within the group", i.e. at least
            // |G| − un wins, not g − un.
            let threshold = (group.len() - un) as u32;
            let before = next.len();
            next.extend(
                group
                    .iter()
                    .copied()
                    .filter(|&i| wins[i as usize] >= threshold),
            );
            debug_assert!(
                next.len() - before < 2 * un,
                "Lemma 2 violated: {} winners with >= {threshold} wins among {}",
                next.len() - before,
                group.len()
            );
            champions.extend(champion_of(group, &wins));
        }

        if config.track_global_losses {
            // Lemma 1: an element with more than `un` distinct losses cannot
            // be the maximum in a global all-play-all tournament.
            next.retain(|&i| losses[i as usize].len() <= un);
        }

        if next.is_empty() {
            // Only possible when un(n) was underestimated: no element of any
            // group reached `g - un` wins (or global-loss pruning removed
            // them all). The M ∈ S guarantee is already forfeit in this
            // regime, so degrade gracefully — keep each group's champion
            // instead of returning an empty candidate set. Section 5.2
            // studies exactly this regime.
            std::mem::swap(&mut next, &mut champions);
        }

        assert!(
            next.len() < survivors.len(),
            "filter round failed to shrink the survivor set (Lemma 2 violated)"
        );
        std::mem::swap(&mut survivors, &mut next);
        sizes.push(survivors.len());
        oracle.observe(TraceEvent::RoundStats {
            round: rounds as u32,
            groups: groups as u32,
            survivors: survivors.len() as u64,
        });
        oracle.observe(TraceEvent::RoundEnd(rounds as u32));
        rounds += 1;
    }

    Ok(FilterOutcome {
        survivors: survivors.into_iter().map(|i| ids[i as usize]).collect(),
        rounds,
        sizes,
        comparisons: oracle.counts().delta_since(start)?,
    })
}

/// The group member with the most wins (ties: earliest in group order), or
/// `None` for an empty group — the arena twin of
/// [`Tournament::champion`](crate::tournament::Tournament::champion).
fn champion_of(group: &[u32], wins: &[u32]) -> Option<u32> {
    let (mut best, mut best_wins) = (None, 0u32);
    for &i in group {
        let w = wins[i as usize];
        if best.is_none() || w > best_wins {
            best = Some(i);
            best_wins = w;
        }
    }
    best
}

/// Fallible twin of [`filter_candidates`]: surfaces the first
/// [`OracleError`] the oracle reports instead of fabricating answers.
///
/// Internally the run proceeds behind a [`FuseOracle`], which forwards each
/// tournament row as one [`try_compare_batch`](ComparisonOracle::try_compare_batch);
/// once the fuse blows — possibly mid-row, keeping the purchased prefix —
/// remaining comparisons are answered from a consistent fabricated total
/// order (free of charge), which keeps Lemma 2's termination argument
/// intact — the filter always finishes, and the fabricated outcome is then
/// discarded in favour of the error.
///
/// # Errors
///
/// Returns the first error the oracle's
/// [`try_compare`](ComparisonOracle::try_compare) reported, or
/// [`OracleError::CountsRegressed`] if the stack's tally went backwards
/// mid-run (a broken decorator — reported, not unwound).
pub fn try_filter_candidates<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, OracleError> {
    let mut fuse = FuseOracle::new(oracle);
    let out = filter_candidates_checked(&mut fuse, elements, config);
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
    use rand::SeedableRng;

    fn uniform_instance(n: usize, seed: u64) -> Instance {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    #[test]
    fn perfect_workers_small_un() {
        let inst = uniform_instance(200, 1);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        assert!(out.survivors.len() < 2 * 3);
        assert!(out.survivors.contains(&inst.max_element()));
        assert!(out.comparisons.naive <= 4 * 200 * 3);
        assert_eq!(out.comparisons.expert, 0);
    }

    #[test]
    fn contains_max_under_threshold_model() {
        for seed in 0..10 {
            let inst = uniform_instance(300, seed);
            let delta_n = 20.0;
            let un = inst.indistinguishable_from_max(delta_n);
            let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::UniformRandom);
            let mut o =
                SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed + 100));
            let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
            assert!(
                out.survivors.contains(&inst.max_element()),
                "seed {seed}: M evicted with true un = {un}"
            );
            assert!(out.survivors.len() <= 2 * un.max(1), "|S| too large");
        }
    }

    #[test]
    fn contains_max_under_adversarial_ties() {
        // FavorLower is the worst case: indistinguishable elements always
        // beat M. M still survives because it loses at most un - 1 games
        // per round.
        let inst = uniform_instance(400, 7);
        let delta_n = 30.0;
        let un = inst.indistinguishable_from_max(delta_n);
        let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::FavorLower);
        let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(8));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
        assert!(out.survivors.contains(&inst.max_element()));
    }

    #[test]
    fn small_input_passes_through() {
        let inst = uniform_instance(5, 2);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(10));
        assert_eq!(out.survivors, inst.ids());
        assert_eq!(out.rounds, 0);
        assert_eq!(out.comparisons.total(), 0);
    }

    #[test]
    fn short_final_group_threshold_scales_to_group_size() {
        // n = 20, un = 3 → g = 12: the last group holds only 8 elements.
        // Lemma 3 requires "at most un(n) losses within the group", so the
        // survival threshold there is |G| − un = 5 wins. A threshold built
        // from the full group size (g − un = 9) is unreachable in an
        // 8-element group and would evict the champion planted at id 15.
        let mut values: Vec<f64> = (0..20).map(f64::from).collect();
        values[15] = 1000.0;
        let inst = Instance::new(values);
        assert_eq!(inst.max_element(), ElementId(15));
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        assert!(
            out.survivors.contains(&ElementId(15)),
            "champion in the short final group was evicted: {:?}",
            out.survivors
        );
        assert!(out.survivors.len() < 2 * 3);
    }

    #[test]
    fn comparison_bound_lemma_3() {
        for (n, un) in [(100, 2), (500, 5), (1000, 10), (2000, 25)] {
            let inst = uniform_instance(n, n as u64);
            let mut o = PerfectOracle::new(inst.clone());
            let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
            assert!(
                out.comparisons.naive <= (4 * n * un) as u64,
                "n={n}, un={un}: {} comparisons",
                out.comparisons.naive
            );
        }
    }

    #[test]
    fn sizes_are_recorded_and_decreasing() {
        let inst = uniform_instance(1000, 3);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(5));
        assert_eq!(out.sizes[0], 1000);
        assert_eq!(*out.sizes.last().unwrap(), out.survivors.len());
        for w in out.sizes.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(out.rounds, out.sizes.len() - 1);
    }

    #[test]
    #[should_panic(expected = "un(n) >= 1")]
    fn zero_un_panics() {
        let inst = uniform_instance(10, 4);
        let mut o = PerfectOracle::new(inst.clone());
        filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(0));
    }

    #[test]
    fn global_losses_never_evict_max_and_never_cost_more() {
        for seed in 0..8 {
            let inst = uniform_instance(600, seed + 50);
            let delta_n = 15.0;
            let un = inst.indistinguishable_from_max(delta_n);
            let mk_oracle = |s| {
                let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::Persistent);
                SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(s))
            };

            let mut plain_o = mk_oracle(seed);
            let plain = filter_candidates(&mut plain_o, &inst.ids(), &FilterConfig::new(un));

            let mut opt_o = mk_oracle(seed);
            let opt = filter_candidates(
                &mut opt_o,
                &inst.ids(),
                &FilterConfig::new(un).with_global_losses(),
            );

            assert!(opt.survivors.contains(&inst.max_element()), "seed {seed}");
            assert!(plain.survivors.contains(&inst.max_element()), "seed {seed}");
            // Lemma 3's size bound holds with or without the optimization.
            assert!(opt.survivors.len() <= 2 * un.max(1), "seed {seed}");
        }
    }

    #[test]
    fn cyclic_outcomes_under_underestimation_fall_back_to_champions() {
        // With un = 1 (severe underestimation) a cyclic group can leave no
        // element with g - un = 3 wins; the filter must not return an empty
        // set — it keeps the group champion instead.
        use crate::oracle::FnOracle;
        let beats = |a: u32, b: u32| -> bool {
            // Cycle 0>1>2>3>0 plus diagonals 0>2 and 3>1: max wins = 2 < 3.
            matches!((a, b), (0, 1) | (1, 2) | (2, 3) | (3, 0) | (0, 2) | (3, 1))
        };
        let mut o = FnOracle::new(
            move |_, k: ElementId, j: ElementId| {
                if beats(k.0, j.0) {
                    k
                } else {
                    j
                }
            },
        );
        let ids: Vec<ElementId> = (0..4).map(ElementId).collect();
        let out = filter_candidates(&mut o, &ids, &FilterConfig::new(1));
        assert_eq!(
            out.survivors,
            vec![ElementId(0)],
            "champion fallback expected"
        );
    }

    #[test]
    fn global_loss_pruning_can_force_the_champion_fallback() {
        // Appendix A pruning removes elements with more than `un` distinct
        // cumulative losses; this construction makes it remove *every*
        // threshold winner of round 2, so the fallback must keep the round
        // champion rather than return an empty set.
        //
        // n = 24, un = 3, g = 12: round 1 plays {0..11} and {12..23} with
        // threshold 9; exactly {0, 1, 2} and {12, 13, 14} reach 9 wins,
        // carrying 2 distinct losses each (0: {1,2}, 1: {2,3}, 2: {3,4},
        // mirrored +12). Round 2 plays the 6 survivors with threshold 3;
        // the answers below give wins (0,1,12,13) = 3 and (2,14) = (2,1),
        // and hand each 3-win element exactly 2 *new* distinct losses —
        // cumulative 4 > un, so pruning empties the winner set.
        use crate::oracle::FnOracle;
        use std::collections::HashSet;

        // Round 1, within one group (local ids, a < b): winner of (a, b).
        fn round1(a: u32, b: u32) -> u32 {
            match (a, b) {
                (0, 1) => 1,
                (0, 2) | (1, 2) => 2,
                (0, _) => 0,
                (1, 3) => 3,
                (1, _) => 1,
                (2, 3) => 3,
                (2, 4) => 4,
                (2, _) => 2,
                // Among the rest, the higher id wins (so none reaches 9).
                (_, b) => b,
            }
        }

        // Round 2, on the survivor set (global ids, a < b): winner of (a, b).
        fn round2(a: u32, b: u32) -> u32 {
            match (a, b) {
                (0, 1) | (0, 2) | (0, 14) => 0,
                (0, 12) | (12, 13) | (12, 14) => 12,
                (0, 13) | (1, 13) | (13, 14) => 13,
                (1, 2) | (1, 12) | (1, 14) => 1,
                (2, 12) | (2, 13) => 2,
                (2, 14) => 14,
                other => panic!("unexpected round-2 pair {other:?}"),
            }
        }

        let survivors_r1 = [0u32, 1, 2, 12, 13, 14];
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut oracle = FnOracle::new(move |_, k: ElementId, j: ElementId| {
            let (a, b) = (k.0.min(j.0), k.0.max(j.0));
            let repeat = !seen.insert((a, b));
            let both_survive = survivors_r1.contains(&a) && survivors_r1.contains(&b);
            let cross_group = (a < 12) != (b < 12);
            let winner = if both_survive && (cross_group || repeat) {
                round2(a, b)
            } else {
                let base = if a >= 12 { 12 } else { 0 };
                base + round1(a - base, b - base)
            };
            if winner == k.0 {
                k
            } else {
                j
            }
        });

        let ids: Vec<ElementId> = (0..24).map(ElementId).collect();
        let out = filter_candidates(
            &mut oracle,
            &ids,
            &FilterConfig::new(3).with_global_losses(),
        );
        assert_eq!(out.rounds, 2);
        assert_eq!(out.sizes, vec![24, 6, 1]);
        assert_eq!(
            out.survivors,
            vec![ElementId(0)],
            "pruning emptied round 2; the fallback must keep its champion"
        );

        // The same answers without pruning keep all four threshold winners
        // — the fallback never fires on the plain path here.
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut plain_oracle = FnOracle::new(move |_, k: ElementId, j: ElementId| {
            let (a, b) = (k.0.min(j.0), k.0.max(j.0));
            let repeat = !seen.insert((a, b));
            let both_survive = survivors_r1.contains(&a) && survivors_r1.contains(&b);
            let cross_group = (a < 12) != (b < 12);
            let winner = if both_survive && (cross_group || repeat) {
                round2(a, b)
            } else {
                let base = if a >= 12 { 12 } else { 0 };
                base + round1(a - base, b - base)
            };
            if winner == k.0 {
                k
            } else {
                j
            }
        });
        let plain = filter_candidates(&mut plain_oracle, &ids, &FilterConfig::new(3));
        assert_eq!(plain.rounds, 2);
        assert_eq!(
            plain.survivors,
            vec![ElementId(0), ElementId(1), ElementId(12), ElementId(13)]
        );
    }

    #[test]
    fn try_filter_matches_infallible_run_when_nothing_fails() {
        let inst = uniform_instance(200, 11);
        let mut o = PerfectOracle::new(inst.clone());
        let plain = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        let mut o2 = PerfectOracle::new(inst.clone());
        let fallible = try_filter_candidates(&mut o2, &inst.ids(), &FilterConfig::new(3)).unwrap();
        assert_eq!(plain, fallible);
    }

    #[test]
    fn try_filter_surfaces_a_mid_run_outage_and_terminates() {
        use crate::oracle::{OracleError, TryFnOracle};
        // The oracle dies after 100 honest answers; the run must neither
        // panic nor livelock, and the error must surface.
        let inst = uniform_instance(300, 12);
        let mut inner = PerfectOracle::new(inst.clone());
        let mut left = 100u32;
        let mut flaky = TryFnOracle::new(move |class, k, j| {
            if left == 0 {
                return Err(OracleError::WorkforceDepleted { class });
            }
            left -= 1;
            Ok(inner.compare(class, k, j))
        });
        let err =
            try_filter_candidates(&mut flaky, &inst.ids(), &FilterConfig::new(3)).unwrap_err();
        assert!(matches!(err, OracleError::WorkforceDepleted { .. }));
    }

    /// Records the pairs of every call that reaches the wrapped oracle (a
    /// scalar `compare` is a one-pair call).
    struct CallLog<O> {
        inner: O,
        calls: Vec<Vec<(ElementId, ElementId)>>,
    }

    impl<O> CallLog<O> {
        fn new(inner: O) -> Self {
            CallLog {
                inner,
                calls: Vec::new(),
            }
        }
    }

    impl<O: ComparisonOracle> ComparisonOracle for CallLog<O> {
        fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
            self.calls.push(vec![(k, j)]);
            self.inner.compare(class, k, j)
        }

        fn compare_batch(
            &mut self,
            class: WorkerClass,
            pairs: &[(ElementId, ElementId)],
            winners: &mut Vec<ElementId>,
        ) {
            if !pairs.is_empty() {
                self.calls.push(pairs.to_vec());
            }
            self.inner.compare_batch(class, pairs, winners);
        }

        fn counts(&self) -> ComparisonCounts {
            self.inner.counts()
        }
    }

    /// Σ over the filtered groups of every round of (|G| − 1): the rows.
    fn rows_played(out: &FilterOutcome, un: usize) -> usize {
        let g = 4 * un;
        let mut rows = 0;
        for &size in &out.sizes[..out.rounds] {
            let groups = size.div_ceil(g);
            for ci in 0..groups {
                let len = g.min(size - ci * g);
                if ci + 1 < groups || len > un {
                    rows += len - 1;
                }
            }
        }
        rows
    }

    fn threshold_oracle(inst: &Instance, seed: u64) -> SimulatedOracle<StdRng> {
        let model = ExpertModel::exact(20.0, 1.0, TiePolicy::UniformRandom);
        SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn one_oracle_call_per_tournament_row() {
        let un = 3;
        let g = 4 * un;
        let inst = uniform_instance(500, 21);
        let mut o = CallLog::new(threshold_oracle(&inst, 22));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
        assert!(out.rounds >= 2);
        assert_eq!(o.calls.len(), rows_played(&out, un));

        // A call is one row — `group[a]` against `group[a+1..]` — so the
        // rows of a group shrink by one member per call, and a group's
        // first row names the whole group.
        let mut heads: Vec<Vec<ElementId>> = Vec::new();
        let mut prev: Option<&Vec<(ElementId, ElementId)>> = None;
        for call in &o.calls {
            assert!(call.len() < g, "a row holds at most 4·un − 1 pairs");
            let k = call[0].0;
            assert!(call.iter().all(|&(a, _)| a == k), "a call mixes rows");
            let rest: Vec<ElementId> = call.iter().map(|&(_, b)| b).collect();
            match prev.filter(|p| p.len() > 1) {
                Some(p) => {
                    let tail: Vec<ElementId> = p.iter().map(|&(_, b)| b).collect();
                    assert_eq!(k, tail[0], "a row continues its group");
                    assert_eq!(rest, tail[1..], "a row continues its group");
                }
                None => heads.push(std::iter::once(k).chain(rest).collect()),
            }
            prev = Some(call);
        }
        // Round 0 plays the input in chunks of g: its group heads are them.
        let ids = inst.ids();
        let chunks: Vec<&[ElementId]> = ids.chunks(g).collect();
        assert!(500 % g > un, "the short last group is filtered too");
        assert!(heads.len() > chunks.len(), "later rounds add heads");
        for (head, chunk) in heads.iter().zip(&chunks) {
            assert_eq!(head.as_slice(), *chunk);
        }
    }

    #[test]
    fn row_batching_matches_a_scalar_only_oracle() {
        use crate::oracle::FnOracle;
        let inst = uniform_instance(700, 23);
        for config in [
            FilterConfig::new(4),
            FilterConfig::new(4).with_global_losses(),
        ] {
            let mut batched = CallLog::new(threshold_oracle(&inst, 24));
            let rows = filter_candidates(&mut batched, &inst.ids(), &config);

            // `FnOracle` implements only `compare`: its batch entry is the
            // scalar loop, so the inner oracle sees one call per pair.
            let mut scalar_inner = threshold_oracle(&inst, 24);
            let mut scalar_log = Vec::new();
            let mut scalar = FnOracle::new(|c, k, j| {
                scalar_log.push((k, j));
                scalar_inner.compare(c, k, j)
            });
            let pairs = filter_candidates(&mut scalar, &inst.ids(), &config);

            assert_eq!(rows, pairs, "{config:?}");
            let flat: Vec<_> = batched.calls.concat();
            assert_eq!(flat, scalar_log, "same pairs, order and orientation");
            assert!(batched.calls.len() < flat.len() / 5);
        }
    }

    #[test]
    fn try_filter_keeps_a_mid_row_prefix_and_terminates() {
        use crate::oracle::{FuseOracle, OracleError};
        // A platform-like oracle: perfect workers answer (the larger id
        // wins — the opposite of the fuse's fabricated smaller-id order)
        // until `left` runs out mid-batch; the answered prefix is appended
        // before the error, as a platform that dead-letters a unit does.
        struct DeadLettersMidRow {
            left: usize,
            counts: ComparisonCounts,
            failed_call: Option<Vec<(ElementId, ElementId)>>,
        }
        impl ComparisonOracle for DeadLettersMidRow {
            fn compare(&mut self, _: WorkerClass, _: ElementId, _: ElementId) -> ElementId {
                unreachable!("the filter only batches")
            }
            fn try_compare_batch(
                &mut self,
                class: WorkerClass,
                pairs: &[(ElementId, ElementId)],
                winners: &mut Vec<ElementId>,
            ) -> Result<(), OracleError> {
                assert!(self.failed_call.is_none(), "no call after the failure");
                let answered = pairs.len().min(self.left);
                self.left -= answered;
                self.counts.record_many(class, answered as u64);
                winners.extend(pairs[..answered].iter().map(|&(k, j)| k.max(j)));
                if answered < pairs.len() {
                    self.failed_call = Some(pairs.to_vec());
                    return Err(OracleError::Unanswered { attempts: 4 });
                }
                Ok(())
            }
            fn counts(&self) -> ComparisonCounts {
                self.counts
            }
        }
        let platform = || DeadLettersMidRow {
            left: 100,
            counts: ComparisonCounts::zero(),
            failed_call: None,
        };
        let ids: Vec<ElementId> = (0..300).map(ElementId).collect();
        let config = FilterConfig::new(3);

        let err = try_filter_candidates(&mut platform(), &ids, &config).unwrap_err();
        assert_eq!(err, OracleError::Unanswered { attempts: 4 });

        // Rows of 11, 10, 9, … pairs: group 0 (ids 0..12) buys 66 answers
        // and group 1 (ids 12..24) 11 + 10 + 9 = 30 more, so the outage
        // hits row `15 vs 16..=23` after 4 of its 8 pairs.
        let mut fuse = FuseOracle::new(platform());
        let out = filter_candidates_checked(&mut fuse, &ids, &config).unwrap();
        assert!(out.survivors.len() < 2 * 3, "the run terminates normally");
        assert!(fuse.blown());
        assert_eq!(fuse.counts().naive, 100, "nothing is bought after the blow");
        let e = ElementId;
        for b in 16..20 {
            assert_eq!(
                fuse.compare(WorkerClass::Naive, e(15), e(b)),
                e(b),
                "the purchased prefix stays memoized"
            );
        }
        for b in 20..24 {
            assert_eq!(fuse.compare(WorkerClass::Naive, e(15), e(b)), e(15));
        }
        let failed = fuse.into_inner().failed_call.expect("the outage hit a row");
        assert_eq!(failed, (16..24).map(|b| (e(15), e(b))).collect::<Vec<_>>());
    }

    #[test]
    fn underestimated_un_may_evict_max_but_still_terminates() {
        // With un = 1 and many indistinguishable elements, M can be evicted
        // — the Section 5.2 phenomenon. The run must still terminate with a
        // small survivor set.
        let values: Vec<f64> = (0..100).map(|i| 1000.0 - (i as f64) * 0.01).collect();
        let inst = Instance::new(values);
        let model = ExpertModel::exact(50.0, 0.0, TiePolicy::FavorLower);
        let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(5));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(1));
        assert!(out.survivors.len() <= 1);
    }
}

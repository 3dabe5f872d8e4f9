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
//! **One implementation of the rounds.** [`FilterRounds`] owns the round
//! state and every rule above — grouping, the kept-whole tail, thresholds,
//! global-loss pruning, the champion fallback and the Lemma 2 checks — and
//! [`GroupTally`] scores a group from its answers. Each entry point only
//! decides how a round's games get answered:
//!
//! * A step machine asks for each tournament row — `group[a]` against
//!   every later member `group[a+1..]` — as one batch, and tallies it as it
//!   is answered; Phase 1 of
//!   [`ExpertMaxSteps`](super::ExpertMaxSteps) is that machine.
//!   [`filter_candidates`] answers each row with one
//!   [`compare_batch`](ComparisonOracle::compare_batch) call, and
//!   [`try_filter_candidates`] with one
//!   [`try_compare_batch`](ComparisonOracle::try_compare_batch) call,
//!   stopping at the first error. A group of size `|G|` costs `|G| − 1`
//!   calls of at most `4·un(n) − 1` pairs each, and no call spans two
//!   groups. The pair sequence, its order and each pair's argument order
//!   are those of the plain `(a, b)` double loop; only the call boundaries
//!   differ. A platform underneath therefore runs one job (and a journal
//!   one frame pair) per row instead of per comparison, while rows stay
//!   small enough to keep per-call latency low.
//! * `crowd_platform::batched_filter` submits all of a round's rows as one
//!   platform job.
//! * `crowd_experiments::parallel_filter_candidates` fans a round's groups
//!   out over worker threads, one coordinate-seeded oracle per group.
//!
//! The Appendix A optimization is available via
//! [`FilterConfig::track_global_losses`]: an element may lose at most
//! `un(n)` comparisons in a single group, but across rounds its distinct
//! losses can exceed `un(n)`, proving (Lemma 1) it cannot be the maximum;
//! tracking a global per-element loss counter lets the filter discard such
//! elements early and terminate sooner.

use super::steps::{run, run_infallible, Step, Steps};
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
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

/// Algorithm 2's round state: the survivors, the size trace and the
/// Appendix A loss sets, plus every rule that turns a round's tallies into
/// the next survivor set.
///
/// Elements are referred to by their dense position (`u32`) in the input
/// slice. While [`next_round`](Self::next_round) names a round, a caller
/// scores every group of [`groups`](Self::groups) into
/// [`tally`](Self::tally)s merged back with [`absorb`](Self::absorb), then
/// calls [`end_round`](Self::end_round); [`finish`](Self::finish) yields
/// the outcome. The caller decides only how each group's games get
/// answered.
#[derive(Debug, Clone)]
pub struct FilterRounds<'a> {
    ids: &'a [ElementId],
    un: usize,
    track_global_losses: bool,
    survivors: Vec<u32>,
    sizes: Vec<usize>,
    rounds: usize,
    /// `losses[i]`: the distinct opponents position `i` lost to, capped at
    /// `un + 1` entries because the pruning predicate `|losses| <= un`
    /// cannot change after that. Empty unless tracking global losses.
    losses: Vec<Vec<u32>>,
    /// The round's threshold winners and champions so far, in group order.
    round: GroupTally<'a>,
}

impl<'a> FilterRounds<'a> {
    /// Starts Algorithm 2 over `elements`, all of which survive round zero.
    ///
    /// # Panics
    ///
    /// Panics if `config.un == 0` (the maximum is always indistinguishable
    /// from itself, so `un(n) >= 1`); in debug builds, also if `elements`
    /// contains duplicates.
    pub fn new(elements: &'a [ElementId], config: &FilterConfig) -> Self {
        assert!(
            config.un >= 1,
            "un(n) >= 1: the maximum is indistinguishable from itself"
        );
        debug_assert!(
            elements.iter().collect::<HashSet<_>>().len() == elements.len(),
            "input elements must be distinct"
        );
        let n = elements.len();
        let track = config.track_global_losses;
        FilterRounds {
            ids: elements,
            un: config.un,
            track_global_losses: track,
            survivors: (0..n as u32).collect(),
            sizes: vec![n],
            rounds: 0,
            losses: vec![Vec::new(); if track { n } else { 0 }],
            round: GroupTally::new(elements, config.un, track),
        }
    }

    /// The index of the round to play next, or `None` once fewer than
    /// `2·un` elements survive.
    pub fn next_round(&self) -> Option<u32> {
        (self.survivors.len() >= 2 * self.un).then_some(self.rounds as u32)
    }

    /// The groups this round plays, in order: consecutive survivors in
    /// groups of `g = 4·un`, without a last group of at most `un` members —
    /// too small to certify losses, it is kept whole by
    /// [`end_round`](Self::end_round).
    pub fn groups(&self) -> std::slice::Chunks<'_, u32> {
        self.survivors[..self.played()].chunks(4 * self.un)
    }

    /// Length of the survivor prefix this round plays: all but a kept-whole
    /// tail.
    fn played(&self) -> usize {
        let tail = self.survivors.len() % (4 * self.un);
        self.survivors.len() - if tail <= self.un { tail } else { 0 }
    }

    /// Appends `group`'s tournament to `out` in row order: `group[a]`
    /// against every later member, for each `a`.
    pub fn push_pairs(&self, group: &[u32], out: &mut Vec<(ElementId, ElementId)>) {
        // Resolved once, so the O(|G|²) pass reads a dense local table
        // instead of gathering `ids[group[b]]` per pair.
        let members: Vec<ElementId> = group.iter().map(|&i| self.ids[i as usize]).collect();
        for (a, &head) in members.iter().enumerate() {
            out.extend(members[a + 1..].iter().map(|&b| (head, b)));
        }
    }

    /// An empty tally for scoring groups off the round state (e.g. on
    /// another thread); merge it back with [`absorb`](Self::absorb).
    pub fn tally(&self) -> GroupTally<'a> {
        GroupTally::new(self.ids, self.un, self.track_global_losses)
    }

    /// Merges a tally of consecutive groups, scored off the round state,
    /// into the round. Tallies must be absorbed in group order; `tally` is
    /// left empty for reuse.
    pub fn absorb(&mut self, tally: &mut GroupTally<'a>) {
        self.round.winners.append(&mut tally.winners);
        self.round.champions.append(&mut tally.champions);
        record_losses(&mut self.losses, &mut tally.games, self.un);
    }

    /// Closes the round once every played group has been scored: keeps the
    /// kept-whole tail, prunes elements with more than `un` distinct losses
    /// (Appendix A), falls back to the group champions if nothing survived,
    /// and returns the round's [`TraceEvent::RoundStats`].
    ///
    /// # Panics
    ///
    /// Panics if the round failed to shrink the survivor set (Lemma 2
    /// violated — impossible unless a group was left unscored).
    pub fn end_round(&mut self) -> TraceEvent {
        let groups = self.survivors.len().div_ceil(4 * self.un);
        let tail = &self.survivors[self.played()..];
        let next = &mut self.round.winners;
        next.extend_from_slice(tail);
        self.round.champions.extend_from_slice(tail);
        if self.track_global_losses {
            // Lemma 1: an element with more than `un` distinct losses cannot
            // be the maximum in a global all-play-all tournament.
            next.retain(|&i| self.losses[i as usize].len() <= self.un);
        }
        if next.is_empty() {
            // Only possible when un(n) was underestimated: no element of any
            // group reached `g - un` wins (or global-loss pruning removed
            // them all). The M ∈ S guarantee is already forfeit in this
            // regime, so degrade gracefully — keep each group's champion
            // instead of returning an empty candidate set. Section 5.2
            // studies exactly this regime.
            std::mem::swap(next, &mut self.round.champions);
        }
        assert!(
            next.len() < self.survivors.len(),
            "filter round failed to shrink the survivor set (Lemma 2 violated)"
        );
        std::mem::swap(&mut self.survivors, next);
        next.clear();
        self.round.champions.clear();
        self.sizes.push(self.survivors.len());
        self.rounds += 1;
        TraceEvent::RoundStats {
            round: self.rounds as u32 - 1,
            groups: groups as u32,
            survivors: self.survivors.len() as u64,
        }
    }

    /// The run's outcome, with `comparisons` as its comparison tally.
    pub fn finish(self, comparisons: ComparisonCounts) -> FilterOutcome {
        let ids = self.ids;
        FilterOutcome {
            survivors: self.survivors.iter().map(|&i| ids[i as usize]).collect(),
            rounds: self.rounds,
            sizes: self.sizes,
            comparisons,
        }
    }
}

/// Adds each `(winner, loser)` game to the loser's capped loss set, leaving
/// `games` empty.
fn record_losses(losses: &mut [Vec<u32>], games: &mut Vec<(u32, u32)>, un: usize) {
    for (winner, loser) in games.drain(..) {
        let set = &mut losses[loser as usize];
        if set.len() <= un && !set.contains(&winner) {
            set.push(winner);
        }
    }
}

/// Scores tournament groups: each group's wins, then its threshold
/// winners (at least `|G| − un` wins) and its champion (most wins, ties to
/// the earliest member), appended in group order.
#[derive(Debug, Clone)]
pub struct GroupTally<'a> {
    ids: &'a [ElementId],
    un: usize,
    track_global_losses: bool,
    /// Row buffer, sized once: a row holds at most `4·un − 1` pairs.
    pairs: Vec<(ElementId, ElementId)>,
    /// Wins of the group being scored, by position in the group.
    wins: Vec<u32>,
    winners: Vec<u32>,
    champions: Vec<u32>,
    /// `(winner, loser)` games, kept only when tracking global losses.
    games: Vec<(u32, u32)>,
}

impl<'a> GroupTally<'a> {
    fn new(ids: &'a [ElementId], un: usize, track_global_losses: bool) -> Self {
        GroupTally {
            ids,
            un,
            track_global_losses,
            pairs: Vec::with_capacity(4 * un),
            wins: Vec::with_capacity(4 * un),
            winners: Vec::new(),
            champions: Vec::new(),
            games: Vec::new(),
        }
    }

    /// Scores `group` from the front of `answers`, which holds its
    /// tournament's winners in row order (as
    /// [`FilterRounds::push_pairs`] lays the pairs out), and returns the
    /// answers after them.
    pub fn score<'w>(&mut self, group: &[u32], answers: &'w [ElementId]) -> &'w [ElementId] {
        self.start(group.len());
        let mut rest = answers;
        for a in 0..group.len() - 1 {
            let (row, tail) = rest.split_at(group.len() - a - 1);
            self.row(group, a, row);
            rest = tail;
        }
        self.close(group);
        rest
    }

    fn start(&mut self, len: usize) {
        self.wins.clear();
        self.wins.resize(len, 0);
    }

    /// Tallies row `a` — `group[a]` against `group[a+1..]` — from its
    /// winners.
    fn row(&mut self, group: &[u32], a: usize, answers: &[ElementId]) {
        let head = self.ids[group[a] as usize];
        let (head_wins, opponents) = self.wins[a..].split_first_mut().expect("a row has a head");
        debug_assert_eq!(answers.len(), opponents.len(), "one winner per pair");
        if self.track_global_losses {
            for ((w, &winner), &j) in opponents.iter_mut().zip(answers).zip(&group[a + 1..]) {
                if winner == head {
                    *head_wins += 1;
                    self.games.push((group[a], j));
                } else {
                    *w += 1;
                    self.games.push((j, group[a]));
                }
            }
        } else {
            // The hot shape: tallying a 50/50 data-dependent winner with a
            // branch mispredicts constantly, so count both sides
            // arithmetically over bounds-check-free row slices (which also
            // lets the compiler vectorize the row compare).
            let mut won = 0u32;
            for (w, &winner) in opponents.iter_mut().zip(answers) {
                let head_won = u32::from(winner == head);
                won += head_won;
                *w += 1 - head_won;
            }
            *head_wins += won;
        }
    }

    /// Appends the scored group's threshold winners and champion.
    fn close(&mut self, group: &[u32]) {
        // A smaller last group is filtered with its own size: Lemma 3
        // needs "at most un(n) losses within the group", i.e. at least
        // |G| − un wins, not g − un.
        let threshold = (group.len() - self.un) as u32;
        let before = self.winners.len();
        self.winners.extend(
            group
                .iter()
                .zip(&self.wins)
                .filter(|&(_, &w)| w >= threshold)
                .map(|(&i, _)| i),
        );
        debug_assert!(
            self.winners.len() - before < 2 * self.un,
            "Lemma 2 violated: {} winners with >= {threshold} wins among {}",
            self.winners.len() - before,
            group.len()
        );
        // The earliest most-winning member, matching
        // [`Tournament::champion`](crate::tournament::Tournament::champion).
        let mut champion = (group[0], self.wins[0]);
        for (&i, &w) in group.iter().zip(&self.wins).skip(1) {
            if w > champion.1 {
                champion = (i, w);
            }
        }
        self.champions.push(champion.0);
    }
}

/// Algorithm 2 as a step machine over [`FilterRounds`]: one tournament row
/// — `group[a]` against every later member `group[a+1..]` — per batch,
/// tallied as it is answered.
#[derive(Debug, Clone)]
pub(crate) struct FilterSteps<'a> {
    rounds: FilterRounds<'a>,
    /// The round being played; the group's survivor positions and next row.
    round: Option<u32>,
    group: std::ops::Range<usize>,
    row: usize,
    /// The round's [`TraceEvent::RoundEnd`], due after its stats.
    round_end: Option<TraceEvent>,
}

impl<'a> FilterSteps<'a> {
    pub(crate) fn new(elements: &'a [ElementId], config: &FilterConfig) -> Self {
        FilterSteps {
            rounds: FilterRounds::new(elements, config),
            round: None,
            group: 0..0,
            row: 0,
            round_end: None,
        }
    }

    pub(crate) fn finish(self, comparisons: ComparisonCounts) -> FilterOutcome {
        self.rounds.finish(comparisons)
    }
}

impl Steps for FilterSteps<'_> {
    fn step(&mut self) -> Step {
        if let Some(event) = self.round_end.take() {
            return Step::Event(event);
        }
        let r = &mut self.rounds;
        let Some(round) = self.round else {
            let Some(round) = r.next_round() else {
                return Step::Done;
            };
            self.round = Some(round);
            self.group = 0..0;
            return Step::Event(TraceEvent::RoundStart(round));
        };
        loop {
            let group = &r.survivors[self.group.clone()];
            if self.row + 1 < group.len() {
                let head = r.ids[group[self.row] as usize];
                let rest = group[self.row + 1..]
                    .iter()
                    .map(|&j| (head, r.ids[j as usize]));
                r.round.pairs.clear();
                r.round.pairs.extend(rest);
                return Step::Compare(WorkerClass::Naive);
            }
            if !group.is_empty() {
                r.round.close(group);
                record_losses(&mut r.losses, &mut r.round.games, r.un);
            }
            let (start, played) = (self.group.end, r.played());
            if start == played {
                self.round = None;
                self.round_end = Some(TraceEvent::RoundEnd(round));
                return Step::Event(r.end_round());
            }
            self.group = start..played.min(start + 4 * r.un);
            self.row = 0;
            r.round.start(self.group.len());
        }
    }

    fn batch(&self) -> &[(ElementId, ElementId)] {
        &self.rounds.round.pairs
    }

    fn answer(&mut self, winners: &[ElementId]) {
        let r = &mut self.rounds;
        assert_eq!(winners.len(), r.round.pairs.len(), "one winner per pair");
        r.round
            .row(&r.survivors[self.group.clone()], self.row, winners);
        self.row += 1;
    }
}

/// Runs Algorithm 2 over `elements` using naïve workers from `oracle`.
///
/// Each tournament row — `group[a]` against every later member — is one
/// [`compare_batch`](ComparisonOracle::compare_batch) call (see the
/// module docs).
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
    let mut steps = FilterSteps::new(elements, config);
    let start = oracle.counts();
    run_infallible(&mut steps, oracle);
    let comparisons = oracle.counts().delta_since(start);
    steps.finish(comparisons.unwrap_or_else(|e| panic!("{e}")))
}

/// Fallible twin of [`filter_candidates`]: the same rows, each one
/// [`try_compare_batch`](ComparisonOracle::try_compare_batch) call, until
/// the first error, which it returns at once. Nothing after that row
/// reaches the oracle — no comparison and no [`TraceEvent`].
///
/// # Errors
///
/// Returns the first error the oracle's
/// [`try_compare_batch`](ComparisonOracle::try_compare_batch) reported, or
/// [`OracleError::CountsRegressed`] if the stack's tally went backwards
/// mid-run (a broken decorator — reported, not unwound).
pub fn try_filter_candidates<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, OracleError> {
    let mut steps = FilterSteps::new(elements, config);
    let start = oracle.counts();
    run(&mut steps, oracle, |o, class, pairs, winners| {
        o.try_compare_batch(class, pairs, winners)
    })?;
    let comparisons = oracle.counts().delta_since(start);
    Ok(steps.finish(comparisons.map_err(OracleError::CountsRegressed)?))
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
        use crate::oracle::OracleError;
        // A platform-like oracle: perfect workers answer (the larger id
        // wins) until `left` runs out mid-batch; the answered prefix is
        // appended before the error, as a platform that dead-letters a
        // unit does.
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
        let mut platform = DeadLettersMidRow {
            left: 100,
            counts: ComparisonCounts::zero(),
            failed_call: None,
        };
        let ids: Vec<ElementId> = (0..300).map(ElementId).collect();

        let err = try_filter_candidates(&mut platform, &ids, &FilterConfig::new(3)).unwrap_err();
        assert_eq!(err, OracleError::Unanswered { attempts: 4 });

        // Rows of 11, 10, 9, … pairs: group 0 (ids 0..12) buys 66 answers
        // and group 1 (ids 12..24) 11 + 10 + 9 = 30 more, so the outage
        // hits row `15 vs 16..=23` after 4 of its 8 pairs.
        assert_eq!(platform.counts.naive, 100, "nothing is bought after it");
        let e = ElementId;
        let failed = platform.failed_call.expect("the outage hit a row");
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

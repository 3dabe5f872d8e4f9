//! All-play-all (round-robin) tournaments.
//!
//! The filtering phase (Algorithm 2) and both second-phase algorithms are
//! built out of all-play-all tournaments: each element of a group is compared
//! against every other, and elements are selected by their number of wins.
//! Two combinatorial facts drive the paper's analysis:
//!
//! * **Lemma 1** — in an all-play-all tournament over `L`, the maximum `M`
//!   wins at least `n − un(n)` comparisons (it beats everything farther than
//!   `δn` away);
//! * **Lemma 2** — at most `2r − 1` elements can win at least `|A| − r`
//!   comparisons each, *regardless of the error model* (it is a counting
//!   argument over the `|A| choose 2` games).

use crate::algorithms::steps::{run_infallible, Games, Plan};
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::ComparisonOracle;

/// The outcome of an all-play-all tournament: per-element win counts, in the
/// order of the input slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tournament {
    pub(crate) players: Vec<ElementId>,
    pub(crate) wins: Vec<u32>,
    /// Every game as `(winner, loser)`, in play order.
    pub(crate) games: Vec<(ElementId, ElementId)>,
}

impl Tournament {
    /// Plays an all-play-all tournament among `players`, with every
    /// comparison performed by a worker of `class` through `oracle`, one
    /// game per [`compare_batch`](ComparisonOracle::compare_batch) call.
    ///
    /// Performs exactly `|players| · (|players| − 1) / 2` oracle queries
    /// (fewer reach actual workers if the oracle memoizes).
    ///
    /// # Panics
    ///
    /// Panics if `players` contains duplicate ids (each pair must be a pair
    /// of distinct elements).
    pub fn all_play_all<O: ComparisonOracle>(
        oracle: &mut O,
        class: WorkerClass,
        players: &[ElementId],
    ) -> Self {
        let mut steps = Games::new(class, players, AllPlayAll);
        run_infallible(&mut steps, oracle);
        steps.finish()
    }

    /// Every game played, as `(winner, loser)` pairs in play order.
    pub fn results(&self) -> &[(ElementId, ElementId)] {
        &self.games
    }

    /// The participants, in input order.
    pub fn players(&self) -> &[ElementId] {
        &self.players
    }

    /// Win count of the `i`-th participant.
    pub fn wins(&self, i: usize) -> u32 {
        self.wins[i]
    }

    /// Win count of a participant by id, if present.
    pub fn wins_of(&self, e: ElementId) -> Option<u32> {
        self.players
            .iter()
            .position(|&p| p == e)
            .map(|i| self.wins[i])
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.players.len()
    }

    /// True if the tournament had no participants.
    pub fn is_empty(&self) -> bool {
        self.players.is_empty()
    }

    /// Elements that won at least `min_wins` comparisons, in input order.
    ///
    /// By Lemma 2, if `min_wins = |A| − r` then at most `2r − 1` elements
    /// are returned (checked by a debug assertion).
    pub fn winners_with_at_least(&self, min_wins: u32) -> Vec<ElementId> {
        let selected: Vec<ElementId> = self
            .players
            .iter()
            .zip(&self.wins)
            .filter(|&(_, &w)| w >= min_wins)
            .map(|(&p, _)| p)
            .collect();
        #[cfg(debug_assertions)]
        {
            let n = self.players.len() as u32;
            if min_wins <= n {
                let r = n - min_wins;
                debug_assert!(
                    (selected.len() as u32) < 2 * r.max(1),
                    "Lemma 2 violated: {} winners with >= {} wins among {}",
                    selected.len(),
                    min_wins,
                    n
                );
            }
        }
        selected
    }

    /// An element with the most wins (ties: the earliest in input order, so
    /// "ties broken arbitrarily" is at least deterministic).
    ///
    /// Returns `None` on an empty tournament.
    pub fn champion(&self) -> Option<ElementId> {
        let (mut best, mut best_wins) = (None, 0u32);
        for (&p, &w) in self.players.iter().zip(&self.wins) {
            if best.is_none() || w > best_wins {
                best = Some(p);
                best_wins = w;
            }
        }
        best
    }

    /// An element with the *fewest* wins (ties: earliest in input order) —
    /// the "minimal element" removed by the randomized second-phase
    /// algorithm (Algorithm 5, step 5).
    pub fn weakest(&self) -> Option<ElementId> {
        let (mut worst, mut worst_wins) = (None, u32::MAX);
        for (&p, &w) in self.players.iter().zip(&self.wins) {
            if worst.is_none() || w < worst_wins {
                worst = Some(p);
                worst_wins = w;
            }
        }
        worst
    }

    /// Participants sorted by decreasing wins (ties by input order).
    /// This is the "ranking of the last round" reported in the paper's
    /// Tables 1 and 2.
    pub fn ranking(&self) -> Vec<(ElementId, u32)> {
        let mut order: Vec<usize> = (0..self.players.len()).collect();
        order.sort_by(|&a, &b| self.wins[b].cmp(&self.wins[a]).then(a.cmp(&b)));
        order
            .into_iter()
            .map(|i| (self.players[i], self.wins[i]))
            .collect()
    }

    /// Total number of games played: `len · (len − 1) / 2`.
    pub fn games(&self) -> u64 {
        let n = self.players.len() as u64;
        n * (n.saturating_sub(1)) / 2
    }
}

/// One all-play-all among every player, as a [`Plan`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllPlayAll;

impl Plan for AllPlayAll {
    fn plan(&mut self, ids: &[ElementId], _: &[bool], _: &mut Vec<(u32, u32)>) -> Option<Vec<u32>> {
        Some((0..ids.len() as u32).collect())
    }
}

/// Number of comparisons an all-play-all tournament over `n` elements costs.
pub fn all_play_all_cost(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::oracle::PerfectOracle;

    fn ids(v: &[u32]) -> Vec<ElementId> {
        v.iter().copied().map(ElementId).collect()
    }

    fn perfect(values: Vec<f64>) -> PerfectOracle {
        PerfectOracle::new(Instance::new(values))
    }

    #[test]
    fn perfect_tournament_ranks_by_value() {
        let mut o = perfect(vec![3.0, 1.0, 4.0, 2.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0, 1, 2, 3]));
        assert_eq!(t.wins(0), 2);
        assert_eq!(t.wins(1), 0);
        assert_eq!(t.wins(2), 3);
        assert_eq!(t.wins(3), 1);
        assert_eq!(t.champion(), Some(ElementId(2)));
        assert_eq!(t.weakest(), Some(ElementId(1)));
    }

    #[test]
    fn game_and_cost_accounting() {
        let mut o = perfect(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Expert, &ids(&[0, 1, 2, 3, 4]));
        assert_eq!(t.games(), 10);
        assert_eq!(o.counts().expert, 10);
        assert_eq!(o.counts().naive, 0);
        assert_eq!(all_play_all_cost(5), 10);
        assert_eq!(all_play_all_cost(0), 0);
        assert_eq!(all_play_all_cost(1), 0);
    }

    #[test]
    fn winners_with_at_least_filters() {
        let mut o = perfect(vec![3.0, 1.0, 4.0, 2.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0, 1, 2, 3]));
        // wins: e0=2, e1=0, e2=3, e3=1; threshold |A| - r = 4 - 2 = 2.
        assert_eq!(t.winners_with_at_least(2), ids(&[0, 2]));
        assert_eq!(t.winners_with_at_least(4), Vec::<ElementId>::new());
        assert_eq!(t.winners_with_at_least(0), ids(&[0, 1, 2, 3]));
    }

    #[test]
    fn ranking_orders_by_wins() {
        let mut o = perfect(vec![3.0, 1.0, 4.0, 2.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0, 1, 2, 3]));
        let r = t.ranking();
        assert_eq!(r[0], (ElementId(2), 3));
        assert_eq!(r[1], (ElementId(0), 2));
        assert_eq!(r[3], (ElementId(1), 0));
    }

    #[test]
    fn singleton_and_empty_tournaments() {
        let mut o = perfect(vec![1.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0]));
        assert_eq!(t.games(), 0);
        assert_eq!(t.champion(), Some(ElementId(0)));
        assert_eq!(t.winners_with_at_least(0), ids(&[0]));

        let e = Tournament::all_play_all(&mut o, WorkerClass::Naive, &[]);
        assert!(e.is_empty());
        assert_eq!(e.champion(), None);
        assert_eq!(e.weakest(), None);
    }

    #[test]
    fn wins_of_by_id() {
        let mut o = perfect(vec![3.0, 1.0, 4.0]);
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0, 1, 2]));
        assert_eq!(t.wins_of(ElementId(2)), Some(2));
        assert_eq!(t.wins_of(ElementId(7)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate player")]
    fn duplicate_players_panic() {
        let mut o = perfect(vec![1.0, 2.0]);
        Tournament::all_play_all(&mut o, WorkerClass::Naive, &ids(&[0, 0]));
    }

    #[test]
    fn lemma_1_maximum_wins_enough() {
        // Threshold workers with adversarial ties: M still wins everything
        // farther than δn away.
        use crate::model::{ExpertModel, TiePolicy};
        use crate::oracle::SimulatedOracle;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let values: Vec<f64> = (0..40).map(|i| i as f64).collect(); // max = 39
        let inst = Instance::new(values);
        let delta_n = 5.0;
        let un = inst.indistinguishable_from_max(delta_n); // 6 (incl. M)
        let model = ExpertModel::exact(delta_n, 0.0, TiePolicy::FavorLower);
        let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(1));
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &inst.ids());
        let m_wins = t.wins_of(inst.max_element()).unwrap();
        assert!(
            m_wins as usize >= inst.n() - un,
            "Lemma 1: M won {m_wins} < n - un = {}",
            inst.n() - un
        );
    }

    #[test]
    fn lemma_2_bound_holds_under_adversarial_answers() {
        // Even with an oracle that always favours the smaller id, at most
        // 2r - 1 elements can reach |A| - r wins.
        use crate::oracle::FnOracle;
        let mut o = FnOracle::new(|_, k: ElementId, j: ElementId| if k < j { k } else { j });
        let players = ids(&(0..30).collect::<Vec<_>>());
        let t = Tournament::all_play_all(&mut o, WorkerClass::Naive, &players);
        for r in 1..=15u32 {
            let winners = t.winners_with_at_least(30 - r);
            assert!(
                (winners.len() as u32) < 2 * r,
                "r = {r}: {} winners",
                winners.len()
            );
        }
    }
}

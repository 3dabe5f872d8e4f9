//! Step machines: the algorithms with the oracle taken out.
//!
//! A step machine owns a run's state and says at each [`Steps::step`] what
//! it needs next; it never calls an oracle. [`run`] is the one loop that
//! drives a machine over an oracle: every driver of Algorithm 1 and of its
//! phases is that loop.

use super::two_maxfind::Memo;
use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{ComparisonCounts, ComparisonOracle};
use crate::tournament::Tournament;
use crate::trace::TraceEvent;
use std::collections::HashSet;

/// What a step machine needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Forward this event to the oracle's
    /// [`observe`](ComparisonOracle::observe).
    Event(TraceEvent),
    /// Ask workers of this class to answer [`Steps::batch`], then hand the
    /// winners to [`Steps::answer`].
    Compare(WorkerClass),
    /// Hand the oracle's [`counts`](ComparisonOracle::counts) to
    /// [`Steps::snapshot`].
    Snapshot,
    /// The run is over.
    Done,
}

/// A resumable run that asks for its comparisons instead of making them.
pub trait Steps {
    /// Advances to the next thing the run needs. After a
    /// [`Step::Compare`], call [`answer`](Self::answer) before stepping
    /// again.
    fn step(&mut self) -> Step;

    /// The pairs the last [`Step::Compare`] asked about, `(k, j)` in the
    /// argument order the workers see.
    fn batch(&self) -> &[(ElementId, ElementId)];

    /// Takes one winner per pair of [`batch`](Self::batch), in order.
    ///
    /// # Panics
    ///
    /// Panics if `winners` does not hold exactly one winner per pair.
    fn answer(&mut self, winners: &[ElementId]);

    /// Takes the tally a [`Step::Snapshot`] asked for. Machines that never
    /// ask ignore it.
    fn snapshot(&mut self, counts: ComparisonCounts) {
        let _ = counts;
    }
}

/// Drives `steps` over `oracle` until it is done: forwards each event,
/// answers each batch through `ask` (into an empty buffer) and reports each
/// snapshot. Returns the first error `ask` reports, at once: nothing more
/// reaches the oracle, events included.
pub(crate) fn run<S: Steps + ?Sized, O: ComparisonOracle + ?Sized, E>(
    steps: &mut S,
    oracle: &mut O,
    mut ask: impl FnMut(
        &mut O,
        WorkerClass,
        &[(ElementId, ElementId)],
        &mut Vec<ElementId>,
    ) -> Result<(), E>,
) -> Result<(), E> {
    let mut winners = Vec::new();
    loop {
        match steps.step() {
            Step::Event(event) => oracle.observe(event),
            Step::Compare(class) => {
                winners.clear();
                ask(oracle, class, steps.batch(), &mut winners)?;
                steps.answer(&winners);
            }
            Step::Snapshot => steps.snapshot(oracle.counts()),
            Step::Done => return Ok(()),
        }
    }
}

/// [`run`] through the infallible
/// [`compare_batch`](ComparisonOracle::compare_batch).
pub(crate) fn run_infallible<S: Steps + ?Sized, O: ComparisonOracle + ?Sized>(
    steps: &mut S,
    oracle: &mut O,
) {
    let Ok(()) = run(steps, oracle, |o, class, pairs, winners| {
        o.compare_batch(class, pairs, winners);
        Ok::<(), std::convert::Infallible>(())
    });
}

/// A Phase-2 algorithm in terms of [`Games`]: lists of games, each planned
/// once the previous list is answered, ending in a final all-play-all.
pub(crate) trait Plan {
    /// Plans the games after the last list (whose games' first players
    /// won where `a_won` is set) into `next`, or returns the players of
    /// the final all-play-all.
    fn plan(
        &mut self,
        ids: &[ElementId],
        a_won: &[bool],
        next: &mut Vec<(u32, u32)>,
    ) -> Option<Vec<u32>>;

    /// Whether a game already answered this run is answered from memory
    /// instead of asked again.
    fn memoizes(&self) -> bool {
        false
    }
}

/// A [`Plan`]'s run as a step machine: each game is one batch of one pair,
/// in plan order.
#[derive(Debug, Clone)]
pub(crate) struct Games<P> {
    class: WorkerClass,
    /// The players; games name them by index.
    ids: Vec<ElementId>,
    pub(crate) plan: P,
    /// The list being played, `(a, b)` asked as `(ids[a], ids[b])`, and
    /// whether `a` won each game answered so far.
    pub(crate) games: Vec<(u32, u32)>,
    pub(crate) a_won: Vec<bool>,
    memo: Option<Memo>,
    /// The final all-play-all's players, once planned.
    last: Option<Vec<u32>>,
    pair: [(ElementId, ElementId); 1],
}

impl<P: Plan> Games<P> {
    /// # Panics
    ///
    /// Panics if `players` holds duplicates.
    pub(crate) fn new(class: WorkerClass, players: &[ElementId], plan: P) -> Self {
        assert!(
            players.iter().collect::<HashSet<_>>().len() == players.len(),
            "duplicate player in tournament"
        );
        Games {
            class,
            ids: players.to_vec(),
            memo: plan.memoizes().then(|| Memo::new(players.len())),
            plan,
            games: Vec::new(),
            a_won: Vec::new(),
            last: None,
            pair: [(ElementId(0), ElementId(0))],
        }
    }

    /// The final all-play-all, once the run is done.
    pub(crate) fn finish(self) -> Tournament {
        let players = self.last.expect("the run is done");
        let id = |i: u32| self.ids[i as usize];
        let games = self.games.iter().zip(&self.a_won);
        Tournament {
            wins: tally(players.len(), &self.a_won),
            players: players.iter().map(|&i| id(i)).collect(),
            games: games
                .map(|(&(a, b), &a_won)| {
                    if a_won {
                        (id(a), id(b))
                    } else {
                        (id(b), id(a))
                    }
                })
                .collect(),
        }
    }
}

impl<P: Plan> Steps for Games<P> {
    fn step(&mut self) -> Step {
        loop {
            while let Some(&(a, b)) = self.games.get(self.a_won.len()) {
                match self.memo.as_ref().and_then(|memo| memo.get(a, b)) {
                    Some(w) => self.a_won.push(w == a),
                    None => {
                        self.pair = [(self.ids[a as usize], self.ids[b as usize])];
                        return Step::Compare(self.class);
                    }
                }
            }
            if self.last.is_some() {
                return Step::Done;
            }
            self.games.clear();
            let last = self.plan.plan(&self.ids, &self.a_won, &mut self.games);
            self.a_won.clear();
            if let Some(players) = last {
                round_robin(&players, &mut self.games);
                self.last = Some(players);
            }
        }
    }

    fn batch(&self) -> &[(ElementId, ElementId)] {
        &self.pair
    }

    fn answer(&mut self, winners: &[ElementId]) {
        let &[w] = winners else {
            panic!("one winner per pair");
        };
        let (a, b) = self.games[self.a_won.len()];
        let a_won = w == self.ids[a as usize];
        if let Some(memo) = &mut self.memo {
            memo.set(a, b, if a_won { a } else { b });
        }
        self.a_won.push(a_won);
    }
}

/// Appends the all-play-all among `players`: each against every later one,
/// row by row.
pub(crate) fn round_robin(players: &[u32], games: &mut Vec<(u32, u32)>) {
    for (i, &a) in players.iter().enumerate() {
        games.extend(players[i + 1..].iter().map(|&b| (a, b)));
    }
}

/// Wins by position in an all-play-all among `n` players, from its games'
/// `a_won` flags in [`round_robin`] order.
pub(crate) fn tally(n: usize, a_won: &[bool]) -> Vec<u32> {
    let mut wins = vec![0; n];
    let mut games = a_won.iter();
    for a in 0..n {
        for b in a + 1..n {
            wins[if *games.next().expect("every game answered") {
                a
            } else {
                b
            }] += 1;
        }
    }
    wins
}

/// The earliest position with the most wins ("ties broken arbitrarily",
/// but deterministically). `wins` must be non-empty.
pub(crate) fn champion(wins: &[u32]) -> usize {
    let best = wins
        .iter()
        .enumerate()
        .min_by_key(|&(_, &w)| std::cmp::Reverse(w));
    best.expect("a player").0
}

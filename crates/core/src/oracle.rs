//! Comparison oracles: the only channel between algorithms and workers.
//!
//! The algorithms of Section 4 never see element values. They ask an oracle
//! "which of `k`, `j` wins, according to a worker of class `c`?" and the
//! oracle answers; every answer is tallied by class so that the cost model
//! of Section 3.4 (`C(n) = xe·ce + xn·cn`) can be applied afterwards.
//!
//! The main implementation, [`SimulatedOracle`], drives an
//! [`ExpertModel`] over an
//! [`Instance`]. Decorators provide:
//!
//! * [`MemoOracle`] — the Appendix A optimization "avoid repeating the
//!   comparison of two elements multiple times by the same type of workers"
//!   (the algorithm keeps an `n × n` table of first answers);
//! * [`SimulatedExpertOracle`] — the Section 5.3 construction that answers
//!   each *expert* query with the majority of `k` naïve judgments (the
//!   paper uses `k = 7`), which works on wisdom-of-crowds tasks like DOTS
//!   and fails on expertise tasks like CARS.

use crate::element::{ElementId, Instance};
use crate::model::{ErrorModel, ExpertModel, WorkerClass};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::{Add, AddAssign, Sub};

/// Tally of comparisons performed, by worker class.
///
/// These are the `xn(n)` and `xe(n)` of the paper's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComparisonCounts {
    /// Comparisons answered by naïve workers.
    pub naive: u64,
    /// Comparisons answered by expert workers.
    pub expert: u64,
}

impl ComparisonCounts {
    /// A zero tally.
    pub const fn zero() -> Self {
        ComparisonCounts {
            naive: 0,
            expert: 0,
        }
    }

    /// The count for one class.
    pub fn of(&self, class: WorkerClass) -> u64 {
        match class {
            WorkerClass::Naive => self.naive,
            WorkerClass::Expert => self.expert,
        }
    }

    /// Records one comparison by `class`.
    ///
    /// This is the single chokepoint every worker-performed comparison
    /// passes through (decorators answering for free never call it), so it
    /// also adds to the current thread's tally (see
    /// [`tallied`](crate::trace::tallied)).
    pub fn record(&mut self, class: WorkerClass) {
        self.record_many(class, 1);
    }

    /// Records `n` comparisons by `class` in one step.
    ///
    /// Equivalent to calling [`record`](Self::record) `n` times, but the
    /// thread's tally is updated once for the whole delta — this is what
    /// lets batch oracles amortize tally bookkeeping per batch.
    #[inline]
    pub fn record_many(&mut self, class: WorkerClass, n: u64) {
        let delta = match class {
            WorkerClass::Naive => ComparisonCounts {
                naive: n,
                expert: 0,
            },
            WorkerClass::Expert => ComparisonCounts {
                naive: 0,
                expert: n,
            },
        };
        *self += delta;
        crate::trace::COMPARISONS.set(crate::trace::COMPARISONS.get() + delta);
    }

    /// Total comparisons across both classes.
    pub fn total(&self) -> u64 {
        self.naive + self.expert
    }

    /// Per-class difference `self - rhs`, or `None` if `rhs` exceeds
    /// `self` in either class (the snapshots were diffed in the wrong
    /// order, or across different oracles).
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        Some(ComparisonCounts {
            naive: self.naive.checked_sub(rhs.naive)?,
            expert: self.expert.checked_sub(rhs.expert)?,
        })
    }

    /// Per-class difference `self - rhs`, clamping each class at zero.
    ///
    /// Prefer this (or [`checked_sub`](Self::checked_sub)) over the `-`
    /// operator outside tests: production snapshot diffs over
    /// user-composed oracle stacks should degrade to a zero tally, not
    /// panic.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        ComparisonCounts {
            naive: self.naive.saturating_sub(rhs.naive),
            expert: self.expert.saturating_sub(rhs.expert),
        }
    }

    /// The delta accumulated since an `earlier` snapshot of the same
    /// tally, as a structured result: `Ok(self - earlier)` when the pair
    /// is monotone, [`CountsRegression`] otherwise.
    ///
    /// This is the phase-bookkeeping form of [`checked_sub`]: algorithm
    /// outcomes diff a before/after snapshot pair to report per-phase
    /// comparison budgets, and a regression there means the oracle's
    /// [`counts`](ComparisonOracle::counts) went backwards mid-run — a
    /// broken decorator, not a worker fault. Fallible job drivers surface
    /// it as [`OracleError::CountsRegressed`] instead of unwinding.
    ///
    /// [`checked_sub`]: Self::checked_sub
    ///
    /// # Errors
    ///
    /// Returns [`CountsRegression`] when `earlier` exceeds `self` in
    /// either class.
    pub fn delta_since(self, earlier: Self) -> Result<Self, CountsRegression> {
        self.checked_sub(earlier).ok_or(CountsRegression {
            before: earlier,
            after: self,
        })
    }
}

/// A comparison tally that went backwards across a snapshot pair: the
/// "after" snapshot is smaller than the "before" in at least one class.
///
/// Only a buggy oracle stack can produce this ([`ComparisonOracle::counts`]
/// is monotone for every oracle in this workspace), so it is reported as a
/// structured error rather than silently clamped — but also rather than
/// unwinding from deep inside a tournament loop mid-job. See
/// [`ComparisonCounts::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountsRegression {
    /// The earlier snapshot.
    pub before: ComparisonCounts,
    /// The later — yet smaller — snapshot.
    pub after: ComparisonCounts,
}

impl std::fmt::Display for CountsRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "comparison tally regressed mid-run: {}n+{}e before, {}n+{}e after \
             (snapshots diffed in the wrong order, or across different oracles?)",
            self.before.naive, self.before.expert, self.after.naive, self.after.expert
        )
    }
}

impl std::error::Error for CountsRegression {}

impl Add for ComparisonCounts {
    type Output = ComparisonCounts;
    fn add(self, rhs: Self) -> Self {
        ComparisonCounts {
            naive: self.naive + rhs.naive,
            expert: self.expert + rhs.expert,
        }
    }
}

impl AddAssign for ComparisonCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.naive += rhs.naive;
        self.expert += rhs.expert;
    }
}

impl Sub for ComparisonCounts {
    type Output = ComparisonCounts;
    /// Difference of two tallies — used to isolate the comparisons of one
    /// phase by snapshotting before and after.
    ///
    /// This is the *loud* variant: algorithm internals use it where a
    /// snapshot pair is monotone by construction (same oracle, later minus
    /// earlier) and an underflow would mean a bug worth crashing on, and
    /// tests use it to pin that contract. Code diffing snapshots across
    /// user-composed oracle stacks should use
    /// [`ComparisonCounts::saturating_sub`] or
    /// [`ComparisonCounts::checked_sub`] instead.
    ///
    /// # Panics
    ///
    /// Panics when `rhs` exceeds `self` in either class: a snapshot diff
    /// taken in the wrong order (or across different oracles) would
    /// otherwise wrap around to a huge bogus tally.
    fn sub(self, rhs: Self) -> Self {
        let checked = |class: &str, a: u64, b: u64| {
            a.checked_sub(b).unwrap_or_else(|| {
                panic!(
                    "ComparisonCounts subtraction underflow: {a} {class} - {b} {class} \
                     (snapshots diffed in the wrong order, or across different oracles?)"
                )
            })
        };
        ComparisonCounts {
            naive: checked("naive", self.naive, rhs.naive),
            expert: checked("expert", self.expert, rhs.expert),
        }
    }
}

/// An irrecoverable fault while obtaining a comparison answer.
///
/// Simulated oracles never fail, but an oracle backed by a live platform
/// can: every worker of a class may have dropped out, or a unit may
/// exhaust its retry budget.
/// [`ComparisonOracle::try_compare`] surfaces these instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// No eligible worker of `class` remains to answer the comparison.
    WorkforceDepleted {
        /// The class whose pool is empty (or too small for the schedule).
        class: WorkerClass,
    },
    /// The comparison unit exhausted its retries without enough answers.
    Unanswered {
        /// Judgment attempts made before giving up (including retries).
        attempts: u32,
    },
    /// The run cannot go on answering: a resumed run's journal diverged
    /// from the crashed run's (the platform crate's `resume_job`), or a
    /// test oracle simulates a crash. Recovery replays the journal
    /// instead of re-purchasing answered comparisons.
    Interrupted,
    /// The oracle's comparison tally went backwards across a phase
    /// snapshot — a broken decorator stack, surfaced as a structured
    /// error by the fallible drivers instead of an unwind mid-job.
    CountsRegressed(CountsRegression),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::WorkforceDepleted { class } => {
                write!(f, "no eligible {class} workers remain")
            }
            OracleError::Unanswered { attempts } => {
                write!(f, "comparison unanswered after {attempts} attempts")
            }
            OracleError::Interrupted => write!(f, "the run was interrupted by a crash"),
            OracleError::CountsRegressed(regression) => write!(f, "{regression}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A source of pairwise-comparison answers.
///
/// `compare(class, k, j)` returns the element a worker of `class` declares
/// the winner. Implementations must:
///
/// * return either `k` or `j`;
/// * tally every *worker-performed* comparison in [`counts`](Self::counts)
///   (a memoizing decorator answers repeats for free and does not tally
///   them — no worker was paid).
pub trait ComparisonOracle {
    /// Ask one worker of `class` to compare distinct elements `k` and `j`.
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId;

    /// Fallible variant of [`compare`](Self::compare): oracles backed by a
    /// fault-prone workforce return an [`OracleError`] instead of
    /// fabricating an answer or panicking.
    ///
    /// The default implementation wraps `compare` and never fails, so
    /// existing infallible oracles need no changes. Decorators forward it
    /// inward so errors surface through any stack.
    ///
    /// # Errors
    ///
    /// Implementations return an [`OracleError`] when no worker can answer.
    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        Ok(self.compare(class, k, j))
    }

    /// Ask workers of `class` to compare every pair in `pairs`, appending
    /// one winner per pair to `winners`, in input order.
    ///
    /// This is the batch-first entry point of the oracle API: semantically
    /// it *is* `for (k, j) in pairs { winners.push(self.compare(..)) }` —
    /// the default implementation is exactly that loop, so every oracle
    /// keeps working unchanged. Implementations that override it must
    /// issue the byte-identical comparison sequence (same answers, same
    /// tallies, same RNG consumption as the scalar loop) and may only
    /// amortize *bookkeeping* across the batch: tally deltas, event
    /// emission, budget checks, billing. The
    /// [`equiv`](crate::equiv) harness exists to pin that contract.
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        winners.reserve(pairs.len());
        for &(k, j) in pairs {
            let winner = self.compare(class, k, j);
            winners.push(winner);
        }
    }

    /// Fallible variant of [`compare_batch`](Self::compare_batch).
    ///
    /// Appends winners in input order until the first failure; on `Err`,
    /// `winners` holds the answers obtained before the fault. Those
    /// comparisons were already purchased, so implementations must append
    /// the completed prefix rather than discard it — recovery and billing
    /// rely on never buying the same answer twice.
    ///
    /// # Errors
    ///
    /// Returns the first [`OracleError`] encountered.
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        winners.reserve(pairs.len());
        for &(k, j) in pairs {
            let winner = self.try_compare(class, k, j)?;
            winners.push(winner);
        }
        Ok(())
    }

    /// Comparisons performed so far, by class.
    fn counts(&self) -> ComparisonCounts;

    /// Receives round/phase boundary events from the algorithms.
    ///
    /// A no-op by default; decorators forward it inward so a listener
    /// (e.g. `crowd_obs::ObservedOracle`) hears the events wherever it sits
    /// in the stack.
    fn observe(&mut self, event: crate::trace::TraceEvent) {
        let _ = event;
    }
}

/// Blanket impl so that algorithms taking `&mut O: ComparisonOracle` can be
/// handed `&mut &mut oracle` by composing code.
impl<O: ComparisonOracle + ?Sized> ComparisonOracle for &mut O {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        (**self).compare(class, k, j)
    }
    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        (**self).try_compare(class, k, j)
    }
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        (**self).compare_batch(class, pairs, winners);
    }
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        (**self).try_compare_batch(class, pairs, winners)
    }
    fn counts(&self) -> ComparisonCounts {
        (**self).counts()
    }
    fn observe(&mut self, event: crate::trace::TraceEvent) {
        (**self).observe(event);
    }
}

/// An oracle that simulates the two-class threshold workforce of Section 3.3
/// over a ground-truth [`Instance`].
///
/// Generic over *how* the instance is held: by default it is owned
/// (`B = Instance`, cloned by the caller if shared), which keeps every
/// algorithm signature lifetime-free. Hot paths that mint one oracle per
/// tournament group — the parallel filter's per-group factories — pass
/// `&Instance` instead, so constructing an oracle is O(1) rather than a
/// full copy of the ground-truth values.
#[derive(Debug)]
pub struct SimulatedOracle<R: RngCore, B: Borrow<Instance> = Instance> {
    instance: B,
    model: ExpertModel,
    rng: R,
    counts: ComparisonCounts,
}

impl<R: RngCore, B: Borrow<Instance>> SimulatedOracle<R, B> {
    /// Builds an oracle over `instance` with the given workforce `model`.
    ///
    /// `instance` may be owned (`Instance`) or borrowed (`&Instance`);
    /// see the type-level docs for when each is appropriate.
    pub fn new(instance: B, model: ExpertModel, rng: R) -> Self {
        SimulatedOracle {
            instance,
            model,
            rng,
            counts: ComparisonCounts::zero(),
        }
    }

    /// The ground-truth instance this oracle simulates workers over.
    pub fn instance(&self) -> &Instance {
        self.instance.borrow()
    }

    /// The workforce model.
    pub fn model(&self) -> &ExpertModel {
        &self.model
    }
}

impl<R: RngCore, B: Borrow<Instance>> ComparisonOracle for SimulatedOracle<R, B> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        assert_ne!(
            k, j,
            "a worker is never handed two copies of the same element"
        );
        self.counts.record(class);
        let instance = self.instance.borrow();
        let (vk, vj) = (instance.value(k), instance.value(j));
        self.model.compare(class, k, vk, j, vj, &mut self.rng)
    }

    /// One tally delta for the whole batch; the per-pair answers consume
    /// the RNG in exactly the order the scalar loop would (the answering
    /// itself runs through the model's monomorphic, branch-free
    /// [`ExpertModel::compare_many`] run).
    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        // The scalar path asserts per comparison; here a separate release
        // pass over the whole batch would re-read every pair once just to
        // re-check what the filter construction already guarantees, so the
        // check is debug-only on the batch path.
        debug_assert!(
            pairs.iter().all(|&(k, j)| k != j),
            "a worker is never handed two copies of the same element"
        );
        self.counts.record_many(class, pairs.len() as u64);
        let instance = self.instance.borrow();
        self.model.compare_many(
            class,
            pairs,
            |id| instance.value(id),
            winners,
            &mut self.rng,
        );
    }

    /// A simulated worker always answers: [`compare_batch`](Self::compare_batch).
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        self.compare_batch(class, pairs, winners);
        Ok(())
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

/// Memoizing decorator: per worker class, the first answer for each
/// unordered pair is remembered and repeats are answered for free.
///
/// This realizes the Appendix A optimization and, importantly, makes worker
/// behaviour *consistent*: algorithms like
/// [`two_max_find`](crate::algorithms::two_max_find) rely on a repeated
/// question getting the same answer to guarantee progress.
#[derive(Debug)]
pub struct MemoOracle<O> {
    inner: O,
    memo: HashMap<(WorkerClass, ElementId, ElementId), ElementId>,
    /// Queries answered from the memo (no worker involved, no cost).
    hits: u64,
}

impl<O: ComparisonOracle> MemoOracle<O> {
    /// Wraps `inner` with a fresh memo table.
    pub fn new(inner: O) -> Self {
        MemoOracle {
            inner,
            memo: HashMap::new(),
            hits: 0,
        }
    }

    /// Number of queries answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Consumes the decorator, returning the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: ComparisonOracle> ComparisonOracle for MemoOracle<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let key = if k < j { (class, k, j) } else { (class, j, k) };
        if let Some(&winner) = self.memo.get(&key) {
            self.hits += 1;
            return winner;
        }
        let winner = self.inner.compare(class, k, j);
        self.memo.insert(key, winner);
        winner
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let key = if k < j { (class, k, j) } else { (class, j, k) };
        if let Some(&winner) = self.memo.get(&key) {
            self.hits += 1;
            return Ok(winner);
        }
        let winner = self.inner.try_compare(class, k, j)?;
        self.memo.insert(key, winner);
        Ok(winner)
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crate::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

/// Decorator that *simulates* experts by majority vote of naïve workers
/// (paper Section 5.3: "simulating each expert query by 7 naïve queries and
/// selecting the answer that received most votes").
///
/// Expert queries are translated into `votes` fresh naïve judgments; the
/// [`majority`] wins (with odd `votes`, ties cannot occur). Naïve queries
/// pass through unchanged. The tally consequently contains only naïve
/// comparisons: that is the point — no experts exist.
#[derive(Debug)]
pub struct SimulatedExpertOracle<O> {
    inner: O,
    votes: u32,
}

impl<O: ComparisonOracle> SimulatedExpertOracle<O> {
    /// Simulates each expert query with `votes` naïve judgments.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is even or zero (the paper uses 7; an odd count
    /// guarantees a strict majority).
    pub fn new(inner: O, votes: u32) -> Self {
        assert!(votes % 2 == 1, "vote count must be odd to avoid ties");
        SimulatedExpertOracle { inner, votes }
    }

    /// The paper's configuration: 7 naïve votes per expert query.
    pub fn paper_default(inner: O) -> Self {
        Self::new(inner, 7)
    }

    /// Consumes the decorator, returning the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: ComparisonOracle> ComparisonOracle for SimulatedExpertOracle<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        match class {
            WorkerClass::Naive => self.inner.compare(WorkerClass::Naive, k, j),
            WorkerClass::Expert => {
                let mut k_wins = 0u32;
                for _ in 0..self.votes {
                    if self.inner.compare(WorkerClass::Naive, k, j) == k {
                        k_wins += 1;
                    }
                }
                majority(k, j, k_wins, self.votes - k_wins)
            }
        }
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        match class {
            WorkerClass::Naive => self.inner.try_compare(WorkerClass::Naive, k, j),
            WorkerClass::Expert => {
                let mut k_wins = 0u32;
                for _ in 0..self.votes {
                    if self.inner.try_compare(WorkerClass::Naive, k, j)? == k {
                        k_wins += 1;
                    }
                }
                Ok(majority(k, j, k_wins, self.votes - k_wins))
            }
        }
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crate::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

/// The majority answer to a comparison of `k` and `j` that drew `k_votes`
/// votes for `k` and `j_votes` for `j`; a tie goes to the lower id.
///
/// Every aggregate over several judgments of one pair uses this rule:
/// [`MajorityOracle`], [`SimulatedExpertOracle`],
/// [`majority_compare`](crate::algorithms::majority_compare),
/// [`majority_prefix_correct`](crate::algorithms::majority_prefix_correct),
/// and the platform's and the service shards' votes.
///
/// ```
/// use crowd_core::element::ElementId;
/// use crowd_core::oracle::majority;
///
/// assert_eq!(majority(ElementId(4), ElementId(2), 2, 1), ElementId(4));
/// assert_eq!(majority(ElementId(4), ElementId(2), 1, 1), ElementId(2));
/// ```
#[inline]
pub fn majority(k: ElementId, j: ElementId, k_votes: u32, j_votes: u32) -> ElementId {
    if k_votes > j_votes || (k_votes == j_votes && k < j) {
        k
    } else {
        j
    }
}

/// Decorator aggregating every comparison over several independent
/// judgments by majority vote, per class.
///
/// Crowdsourcing platforms collect multiple judgments per unit and report
/// the aggregate (CrowdFlower "requested at least 21 answers" per pair in
/// the paper's calibration jobs); this decorator models that: a single
/// logical comparison fans out to `votes` worker judgments on the inner
/// oracle, all of which are tallied/paid. Majority ties break towards the
/// smaller id; use odd vote counts to avoid them.
#[derive(Debug)]
pub struct MajorityOracle<O> {
    inner: O,
    naive_votes: u32,
    expert_votes: u32,
}

impl<O: ComparisonOracle> MajorityOracle<O> {
    /// Aggregates naïve comparisons over `naive_votes` judgments and expert
    /// comparisons over `expert_votes`.
    ///
    /// # Panics
    ///
    /// Panics if either vote count is zero.
    pub fn new(inner: O, naive_votes: u32, expert_votes: u32) -> Self {
        assert!(
            naive_votes > 0 && expert_votes > 0,
            "vote counts must be positive"
        );
        MajorityOracle {
            inner,
            naive_votes,
            expert_votes,
        }
    }

    /// Consumes the decorator, returning the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: ComparisonOracle> ComparisonOracle for MajorityOracle<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let votes = match class {
            WorkerClass::Naive => self.naive_votes,
            WorkerClass::Expert => self.expert_votes,
        };
        let mut k_wins = 0u32;
        for _ in 0..votes {
            if self.inner.compare(class, k, j) == k {
                k_wins += 1;
            }
        }
        majority(k, j, k_wins, votes - k_wins)
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let votes = match class {
            WorkerClass::Naive => self.naive_votes,
            WorkerClass::Expert => self.expert_votes,
        };
        let mut k_wins = 0u32;
        for _ in 0..votes {
            if self.inner.try_compare(class, k, j)? == k {
                k_wins += 1;
            }
        }
        Ok(majority(k, j, k_wins, votes - k_wins))
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crate::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

/// An oracle driving two arbitrary [`ErrorModel`]s — one per worker class —
/// over a ground-truth instance.
///
/// [`SimulatedOracle`] is the common case (both classes are threshold
/// workers); `ModelOracle` admits any model implementation, e.g. the
/// empirically calibrated DOTS/CARS worker models of `crowd-datasets`.
#[derive(Debug)]
pub struct ModelOracle<MN, ME, R> {
    instance: Instance,
    naive: MN,
    expert: ME,
    rng: R,
    counts: ComparisonCounts,
}

impl<MN: ErrorModel, ME: ErrorModel, R: RngCore> ModelOracle<MN, ME, R> {
    /// Builds an oracle whose naïve workers follow `naive` and experts
    /// follow `expert`.
    pub fn new(instance: Instance, naive: MN, expert: ME, rng: R) -> Self {
        ModelOracle {
            instance,
            naive,
            expert,
            rng,
            counts: ComparisonCounts::zero(),
        }
    }

    /// The ground-truth instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

impl<MN: ErrorModel, ME: ErrorModel, R: RngCore> ComparisonOracle for ModelOracle<MN, ME, R> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        assert_ne!(
            k, j,
            "a worker is never handed two copies of the same element"
        );
        self.counts.record(class);
        let (vk, vj) = (self.instance.value(k), self.instance.value(j));
        match class {
            WorkerClass::Naive => self.naive.compare(k, vk, j, vj, &mut self.rng),
            WorkerClass::Expert => self.expert.compare(k, vk, j, vj, &mut self.rng),
        }
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.counts.record_many(class, pairs.len() as u64);
        winners.reserve(pairs.len());
        for &(k, j) in pairs {
            assert_ne!(
                k, j,
                "a worker is never handed two copies of the same element"
            );
            let (vk, vj) = (self.instance.value(k), self.instance.value(j));
            winners.push(match class {
                WorkerClass::Naive => self.naive.compare(k, vk, j, vj, &mut self.rng),
                WorkerClass::Expert => self.expert.compare(k, vk, j, vj, &mut self.rng),
            });
        }
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

/// An oracle backed by a closure over ground truth — handy for tests and for
/// adversarial responders that need full control over every answer.
///
/// The closure receives `(class, k, j)` and must return `k` or `j`.
pub struct FnOracle<F> {
    f: F,
    counts: ComparisonCounts,
}

impl<F: FnMut(WorkerClass, ElementId, ElementId) -> ElementId> FnOracle<F> {
    /// Builds an oracle that delegates every comparison to `f`.
    pub fn new(f: F) -> Self {
        FnOracle {
            f,
            counts: ComparisonCounts::zero(),
        }
    }
}

impl<F: FnMut(WorkerClass, ElementId, ElementId) -> ElementId> ComparisonOracle for FnOracle<F> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        assert_ne!(
            k, j,
            "a worker is never handed two copies of the same element"
        );
        self.counts.record(class);
        let winner = (self.f)(class, k, j);
        debug_assert!(winner == k || winner == j, "oracle must answer k or j");
        winner
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

/// The fallible sibling of [`FnOracle`]: the closure may refuse to answer.
///
/// The closure receives `(class, k, j)` and returns `Ok(k)`, `Ok(j)`, or an
/// [`OracleError`]. Failed attempts are not billed (no count is recorded).
/// Calling the infallible [`compare`](ComparisonOracle::compare) on a
/// refusing closure panics — drive it through `try_compare`, e.g. with
/// [`try_expert_max_find`](crate::algorithms::try_expert_max_find), which
/// stops at the first refusal and returns it.
pub struct TryFnOracle<F> {
    f: F,
    counts: ComparisonCounts,
}

impl<F: FnMut(WorkerClass, ElementId, ElementId) -> Result<ElementId, OracleError>> TryFnOracle<F> {
    /// Builds an oracle that delegates every comparison to `f`.
    pub fn new(f: F) -> Self {
        TryFnOracle {
            f,
            counts: ComparisonCounts::zero(),
        }
    }
}

impl<F: FnMut(WorkerClass, ElementId, ElementId) -> Result<ElementId, OracleError>> ComparisonOracle
    for TryFnOracle<F>
{
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j)
            .expect("TryFnOracle refused to answer — use try_compare")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        assert_ne!(
            k, j,
            "a worker is never handed two copies of the same element"
        );
        let winner = (self.f)(class, k, j)?;
        self.counts.record(class);
        debug_assert!(winner == k || winner == j, "oracle must answer k or j");
        Ok(winner)
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

/// A perfect oracle over an instance: both classes always return the truly
/// larger element (value ties broken by smaller id). Useful as a baseline
/// and in tests.
#[derive(Debug)]
pub struct PerfectOracle {
    instance: Instance,
    counts: ComparisonCounts,
}

impl PerfectOracle {
    /// Builds a perfect oracle over `instance`.
    pub fn new(instance: Instance) -> Self {
        PerfectOracle {
            instance,
            counts: ComparisonCounts::zero(),
        }
    }
}

impl ComparisonOracle for PerfectOracle {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        assert_ne!(
            k, j,
            "a worker is never handed two copies of the same element"
        );
        self.counts.record(class);
        crate::model::true_winner(k, self.instance.value(k), j, self.instance.value(j))
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.counts.record_many(class, pairs.len() as u64);
        winners.reserve(pairs.len());
        for &(k, j) in pairs {
            assert_ne!(
                k, j,
                "a worker is never handed two copies of the same element"
            );
            winners.push(crate::model::true_winner(
                k,
                self.instance.value(k),
                j,
                self.instance.value(j),
            ));
        }
    }

    fn counts(&self) -> ComparisonCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TiePolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance() -> Instance {
        Instance::new(vec![10.0, 20.0, 30.0, 31.0])
    }

    fn oracle(seed: u64) -> SimulatedOracle<StdRng> {
        // δn = 5 (30 and 31 naïve-indistinguishable), δe = 0.5.
        let model = ExpertModel::exact(5.0, 0.5, TiePolicy::UniformRandom);
        SimulatedOracle::new(instance(), model, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn counts_arithmetic() {
        let mut c = ComparisonCounts::zero();
        c.record(WorkerClass::Naive);
        c.record(WorkerClass::Naive);
        c.record(WorkerClass::Expert);
        assert_eq!(c.naive, 2);
        assert_eq!(c.expert, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.of(WorkerClass::Naive), 2);
        let d = c + c;
        assert_eq!(d.total(), 6);
        assert_eq!((d - c).total(), 3);
        let mut e = c;
        e += c;
        assert_eq!(e, d);
    }

    #[test]
    fn checked_and_saturating_sub_handle_underflow() {
        let small = ComparisonCounts {
            naive: 1,
            expert: 5,
        };
        let big = ComparisonCounts {
            naive: 3,
            expert: 7,
        };
        assert_eq!(
            big.checked_sub(small),
            Some(ComparisonCounts {
                naive: 2,
                expert: 2
            })
        );
        assert_eq!(small.checked_sub(big), None);
        // Mixed direction: naive underflows, expert does not.
        let mixed = ComparisonCounts {
            naive: 4,
            expert: 6,
        };
        assert_eq!(mixed.checked_sub(big), None);
        assert_eq!(
            mixed.saturating_sub(big),
            ComparisonCounts {
                naive: 1,
                expert: 0
            }
        );
        assert_eq!(big.saturating_sub(small), big.checked_sub(small).unwrap());
    }

    #[test]
    fn snapshot_diff_isolates_a_phase() {
        // The before/after snapshot pattern used by filter_candidates and
        // expert_max_find.
        let mut o = oracle(30);
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        let before = o.counts();
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(2));
        o.compare(WorkerClass::Expert, ElementId(2), ElementId(3));
        let phase = o.counts() - before;
        assert_eq!(
            phase,
            ComparisonCounts {
                naive: 1,
                expert: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "subtraction underflow")]
    fn snapshot_diff_in_wrong_order_panics() {
        let mut o = oracle(31);
        let before = o.counts();
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        let _ = before - o.counts(); // wrong order: would wrap to u64::MAX
    }

    #[test]
    fn simulated_oracle_counts_by_class() {
        let mut o = oracle(1);
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(2));
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(3));
        o.compare(WorkerClass::Expert, ElementId(2), ElementId(3));
        assert_eq!(o.counts().naive, 2);
        assert_eq!(o.counts().expert, 1);
    }

    #[test]
    fn simulated_oracle_respects_class_thresholds() {
        let mut o = oracle(2);
        // d(0, 2) = 20 > δn: naïve workers answer correctly (ε = 0).
        for _ in 0..20 {
            assert_eq!(
                o.compare(WorkerClass::Naive, ElementId(0), ElementId(2)),
                ElementId(2)
            );
        }
        // d(2, 3) = 1 > δe: experts answer correctly.
        for _ in 0..20 {
            assert_eq!(
                o.compare(WorkerClass::Expert, ElementId(2), ElementId(3)),
                ElementId(3)
            );
        }
    }

    #[test]
    #[should_panic(expected = "same element")]
    fn self_comparison_panics() {
        oracle(3).compare(WorkerClass::Naive, ElementId(1), ElementId(1));
    }

    #[test]
    fn memo_answers_repeats_for_free() {
        let mut o = MemoOracle::new(oracle(4));
        let first = o.compare(WorkerClass::Naive, ElementId(2), ElementId(3));
        for _ in 0..10 {
            assert_eq!(
                o.compare(WorkerClass::Naive, ElementId(2), ElementId(3)),
                first
            );
            assert_eq!(
                o.compare(WorkerClass::Naive, ElementId(3), ElementId(2)),
                first
            );
        }
        assert_eq!(o.counts().naive, 1, "only the first query reaches a worker");
        assert_eq!(o.hits(), 20);
    }

    #[test]
    fn memo_is_per_class() {
        let mut o = MemoOracle::new(oracle(5));
        o.compare(WorkerClass::Naive, ElementId(2), ElementId(3));
        o.compare(WorkerClass::Expert, ElementId(2), ElementId(3));
        assert_eq!(o.counts().naive, 1);
        assert_eq!(o.counts().expert, 1);
        assert_eq!(o.hits(), 0);
    }

    #[test]
    fn simulated_expert_uses_naive_majority() {
        // Experts simulated by 7 naïve votes: the tally must contain only
        // naïve comparisons, 7 per expert query.
        let mut o = SimulatedExpertOracle::paper_default(oracle(6));
        o.compare(WorkerClass::Expert, ElementId(0), ElementId(2));
        assert_eq!(o.counts().naive, 7);
        assert_eq!(o.counts().expert, 0);
        // d(0, 2) = 20 > δn, so the majority is unanimous and correct.
        let w = o.compare(WorkerClass::Expert, ElementId(0), ElementId(2));
        assert_eq!(w, ElementId(2));
    }

    #[test]
    fn simulated_expert_plateaus_below_naive_threshold() {
        // d(2, 3) = 1 <= δn = 5: naïve votes are coin flips, so the
        // simulated expert is right only ~half the time — the CARS effect.
        let mut o = SimulatedExpertOracle::paper_default(oracle(7));
        let trials = 2_000;
        let correct = (0..trials)
            .filter(|_| o.compare(WorkerClass::Expert, ElementId(2), ElementId(3)) == ElementId(3))
            .count();
        let acc = correct as f64 / trials as f64;
        assert!((acc - 0.5).abs() < 0.05, "simulated-expert accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn simulated_expert_rejects_even_votes() {
        SimulatedExpertOracle::new(oracle(8), 6);
    }

    #[test]
    fn majority_oracle_aggregates_and_counts_all_votes() {
        use crate::model::ProbabilisticModel;
        // Naïve workers err 30% of the time; a 21-vote majority is nearly
        // always right.
        let inner = ModelOracle::new(
            instance(),
            ProbabilisticModel::new(0.3),
            ProbabilisticModel::perfect(),
            StdRng::seed_from_u64(20),
        );
        let mut o = MajorityOracle::new(inner, 21, 1);
        let correct = (0..100)
            .filter(|_| o.compare(WorkerClass::Naive, ElementId(0), ElementId(2)) == ElementId(2))
            .count();
        assert!(correct >= 95, "majority accuracy too low: {correct}/100");
        assert_eq!(o.counts().naive, 2100, "every judgment is paid for");
        o.compare(WorkerClass::Expert, ElementId(0), ElementId(1));
        assert_eq!(o.counts().expert, 1);
        let _ = o.into_inner();
    }

    #[test]
    fn majority_picks_the_larger_count_and_breaks_ties_to_the_lower_id() {
        let (lo, hi) = (ElementId(2), ElementId(4));
        for k_votes in 0..=8u32 {
            for j_votes in 0..=8u32 {
                for (k, j) in [(lo, hi), (hi, lo)] {
                    let want = if k_votes > j_votes || (k_votes == j_votes && k < j) {
                        k
                    } else {
                        j
                    };
                    assert_eq!(
                        majority(k, j, k_votes, j_votes),
                        want,
                        "{k_votes}–{j_votes} for ({k:?}, {j:?})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "vote counts must be positive")]
    fn majority_oracle_rejects_zero_votes() {
        MajorityOracle::new(oracle(21), 0, 1);
    }

    #[test]
    fn model_oracle_dispatches_per_class() {
        use crate::model::ProbabilisticModel;
        // Naïve workers always err (p = 1), experts never do.
        let mut o = ModelOracle::new(
            instance(),
            ProbabilisticModel::new(1.0),
            ProbabilisticModel::perfect(),
            StdRng::seed_from_u64(10),
        );
        assert_eq!(
            o.compare(WorkerClass::Naive, ElementId(0), ElementId(1)),
            ElementId(0)
        );
        assert_eq!(
            o.compare(WorkerClass::Expert, ElementId(0), ElementId(1)),
            ElementId(1)
        );
        assert_eq!(o.counts().naive, 1);
        assert_eq!(o.counts().expert, 1);
        assert_eq!(o.instance().n(), 4);
    }

    #[test]
    fn fn_oracle_delegates_and_counts() {
        let mut o = FnOracle::new(|_, k, _j| k);
        assert_eq!(
            o.compare(WorkerClass::Naive, ElementId(5), ElementId(9)),
            ElementId(5)
        );
        assert_eq!(o.counts().naive, 1);
    }

    #[test]
    fn perfect_oracle_is_always_right() {
        let mut o = PerfectOracle::new(instance());
        assert_eq!(
            o.compare(WorkerClass::Naive, ElementId(2), ElementId(3)),
            ElementId(3)
        );
        assert_eq!(
            o.compare(WorkerClass::Expert, ElementId(0), ElementId(1)),
            ElementId(1)
        );
        assert_eq!(o.counts().total(), 2);
    }

    #[test]
    fn mut_ref_forwarding() {
        let mut o = oracle(9);
        let r = &mut o;
        r.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        assert_eq!(o.counts().naive, 1);
    }

    /// A test oracle that answers `budget` queries, then fails forever.
    struct FlakyOracle {
        budget: u64,
        counts: ComparisonCounts,
    }

    impl FlakyOracle {
        fn new(budget: u64) -> Self {
            FlakyOracle {
                budget,
                counts: ComparisonCounts::zero(),
            }
        }
    }

    impl ComparisonOracle for FlakyOracle {
        fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
            self.try_compare(class, k, j)
                .expect("budget exhausted — use try_compare")
        }

        fn try_compare(
            &mut self,
            class: WorkerClass,
            k: ElementId,
            j: ElementId,
        ) -> Result<ElementId, OracleError> {
            if self.budget == 0 {
                return Err(OracleError::WorkforceDepleted { class });
            }
            self.budget -= 1;
            self.counts.record(class);
            Ok(if k > j { k } else { j })
        }

        fn counts(&self) -> ComparisonCounts {
            self.counts
        }
    }

    #[test]
    fn try_compare_default_wraps_compare() {
        let mut o = oracle(40);
        let w = o
            .try_compare(WorkerClass::Naive, ElementId(0), ElementId(2))
            .unwrap();
        assert_eq!(w, ElementId(2));
        assert_eq!(o.counts().naive, 1);
    }

    #[test]
    fn try_compare_forwards_through_decorators() {
        // Memo over a flaky oracle: the memoized pair survives the outage.
        let mut o = MemoOracle::new(FlakyOracle::new(1));
        let w = o
            .try_compare(WorkerClass::Naive, ElementId(1), ElementId(2))
            .unwrap();
        assert_eq!(w, ElementId(2));
        // Repeat: memo hit, no worker needed even though the pool is gone.
        assert_eq!(
            o.try_compare(WorkerClass::Naive, ElementId(2), ElementId(1)),
            Ok(ElementId(2))
        );
        assert_eq!(o.hits(), 1);
        // A fresh pair now fails, and the failure is typed.
        assert_eq!(
            o.try_compare(WorkerClass::Naive, ElementId(3), ElementId(4)),
            Err(OracleError::WorkforceDepleted {
                class: WorkerClass::Naive
            })
        );
    }

    #[test]
    fn try_compare_surfaces_mid_vote_failures() {
        // An expert query = 7 naive votes; the pool dies after 3.
        let mut o = SimulatedExpertOracle::paper_default(FlakyOracle::new(3));
        let err = o
            .try_compare(WorkerClass::Expert, ElementId(0), ElementId(1))
            .unwrap_err();
        assert_eq!(
            err,
            OracleError::WorkforceDepleted {
                class: WorkerClass::Naive
            }
        );
        assert_eq!(o.counts().naive, 3, "the three completed votes are paid");
    }

    #[test]
    fn oracle_error_displays() {
        assert!(OracleError::WorkforceDepleted {
            class: WorkerClass::Expert
        }
        .to_string()
        .contains("expert"));
        assert!(OracleError::Unanswered { attempts: 4 }
            .to_string()
            .contains('4'));
    }
}

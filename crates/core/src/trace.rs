//! Comparison-level tracing vocabulary and thread-level tallies.
//!
//! * [`TraceEvent`] — the round and phase boundary events that
//!   [`filter_candidates`](crate::algorithms::filter_candidates) and
//!   [`expert_max_find`](crate::algorithms::expert_max_find) emit through
//!   [`ComparisonOracle::observe`](crate::oracle::ComparisonOracle::observe).
//!   Decorators listen to them: `crowd_obs::ObservedOracle` turns them into
//!   events, spans and metrics.
//! * [`tallied`] — the work a closure performed on the current thread:
//!   every worker-performed comparison recorded anywhere in the process
//!   (the single chokepoint is [`ComparisonCounts::record_many`]) and
//!   every fault recorded through [`FaultCounts::record`] also lands in a
//!   plain per-thread [`Tally`] that needs no installing. Scopes nest.
//!   Parallel runners hand work back across threads: each worker's tally
//!   is [`credit`]ed to the thread that joined it. [`isolated`] measures
//!   a closure's work without crediting it to the enclosing scopes.
//!
//! The fault vocabulary ([`FaultKind`], [`FaultCounts`], the degraded
//! and dead-letter reasons) lives here too, shared by the platform, serve
//! and observability layers.
//!
//! Neither mechanism changes algorithm behaviour or existing signatures:
//! `observe` has a no-op default, and the tally only adds to thread-local
//! counters.

use crate::model::WorkerClass;
use crate::oracle::ComparisonCounts;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// The two phases of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracePhase {
    /// Phase 1: the naïve tournament filter (Algorithm 2).
    Filter,
    /// Phase 2: expert selection on the candidate set.
    Expert,
}

/// Boundary events emitted by the algorithms through
/// [`ComparisonOracle::observe`](crate::oracle::ComparisonOracle::observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A phase of Algorithm 1 begins.
    PhaseStart(TracePhase),
    /// The matching phase ends.
    PhaseEnd(TracePhase),
    /// Filter round `r` (0-based) begins.
    RoundStart(u32),
    /// Filter round `r` ends.
    RoundEnd(u32),
    /// Summary of a finished filter round, emitted between the round's
    /// work and its [`RoundEnd`](TraceEvent::RoundEnd): how many tournament
    /// groups it played and how many elements survived. Listeners that
    /// snapshotted
    /// [`ComparisonOracle::counts`](crate::oracle::ComparisonOracle::counts)
    /// at [`RoundStart`](TraceEvent::RoundStart) can attribute the round's
    /// comparison cost by diffing here.
    RoundStats {
        /// Round index (0-based), matching the bracketing start/end events.
        round: u32,
        /// Tournament groups the round played.
        groups: u32,
        /// Elements surviving the round.
        survivors: u64,
    },
}

/// The kinds of faults and recovery actions the platform layer can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A worker dropped out of the campaign before judging anything.
    Dropout,
    /// A worker abandoned an assigned judgment mid-job.
    Abandon,
    /// A worker transiently failed to answer one judgment.
    NoAnswer,
    /// An assigned judgment exceeded the timeout and was written off.
    Timeout,
    /// A judgment was re-assigned to a different worker.
    Retry,
    /// A unit exhausted its retries and was dead-lettered.
    DeadLetter,
    /// An expert job fell back to boosted naïve majority voting.
    ExpertFallback,
}

impl FaultKind {
    /// All kinds, in declaration order — handy for iteration in reports.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Dropout,
        FaultKind::Abandon,
        FaultKind::NoAnswer,
        FaultKind::Timeout,
        FaultKind::Retry,
        FaultKind::DeadLetter,
        FaultKind::ExpertFallback,
    ];
}

/// Why a unit was dead-lettered — the distinction dashboards need to tell
/// a quarantine storm from a small pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeadLetterReason {
    /// Every retry was attempted and none produced a usable judgment.
    RetriesExhausted,
    /// Healthy workers exist, but each one already touched the unit (the
    /// distinct-workers-per-unit invariant forbids re-use).
    NoFreshWorkers,
    /// Every eligible worker was unhealthy — excluded or quarantined by a
    /// circuit breaker — when the retry looked for a fresh assignee.
    NoHealthyWorkers,
}

impl DeadLetterReason {
    /// All reasons, in declaration order.
    pub const ALL: [DeadLetterReason; 3] = [
        DeadLetterReason::RetriesExhausted,
        DeadLetterReason::NoFreshWorkers,
        DeadLetterReason::NoHealthyWorkers,
    ];
}

/// Why a job completed in degraded mode instead of the full two-phase
/// protocol. A degraded result is still an answer — the service contract
/// is "correct or *explicitly* degraded", never a panic or a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradedReason {
    /// The job's logical-clock deadline lapsed before it finished.
    DeadlineLapsed,
    /// No healthy expert remained, so the verification phase fell back to
    /// vote-boosted naïve majorities.
    ExpertExhausted,
    /// The tenant's comparison budget ran out mid-job.
    BudgetExhausted,
    /// One or more comparisons dead-lettered and their outcomes were
    /// defaulted deterministically.
    DeadLetters,
}

impl DegradedReason {
    /// All reasons, in declaration order.
    pub const ALL: [DegradedReason; 4] = [
        DegradedReason::DeadlineLapsed,
        DegradedReason::ExpertExhausted,
        DegradedReason::BudgetExhausted,
        DegradedReason::DeadLetters,
    ];
}

/// Per-kind fault tallies for one worker class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTally {
    /// Workers that dropped out before judging.
    pub dropouts: u64,
    /// Judgments abandoned mid-job.
    pub abandons: u64,
    /// Transient no-answer faults.
    pub no_answers: u64,
    /// Judgments written off after exceeding the timeout.
    pub timeouts: u64,
    /// Judgments re-assigned to a different worker.
    pub retries: u64,
    /// Units dead-lettered after exhausting retries.
    pub dead_letters: u64,
    /// Jobs degraded to boosted naïve majority voting.
    pub expert_fallbacks: u64,
}

impl FaultTally {
    /// All-zero tally.
    pub const fn zero() -> Self {
        FaultTally {
            dropouts: 0,
            abandons: 0,
            no_answers: 0,
            timeouts: 0,
            retries: 0,
            dead_letters: 0,
            expert_fallbacks: 0,
        }
    }

    /// Increments the counter for `kind`.
    pub fn record(&mut self, kind: FaultKind) {
        *self.slot(kind) += 1;
    }

    /// The count for `kind`.
    pub fn of(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Dropout => self.dropouts,
            FaultKind::Abandon => self.abandons,
            FaultKind::NoAnswer => self.no_answers,
            FaultKind::Timeout => self.timeouts,
            FaultKind::Retry => self.retries,
            FaultKind::DeadLetter => self.dead_letters,
            FaultKind::ExpertFallback => self.expert_fallbacks,
        }
    }

    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        FaultKind::ALL.iter().map(|k| self.of(*k)).sum()
    }

    fn slot(&mut self, kind: FaultKind) -> &mut u64 {
        match kind {
            FaultKind::Dropout => &mut self.dropouts,
            FaultKind::Abandon => &mut self.abandons,
            FaultKind::NoAnswer => &mut self.no_answers,
            FaultKind::Timeout => &mut self.timeouts,
            FaultKind::Retry => &mut self.retries,
            FaultKind::DeadLetter => &mut self.dead_letters,
            FaultKind::ExpertFallback => &mut self.expert_fallbacks,
        }
    }
}

impl std::ops::Add for FaultTally {
    type Output = FaultTally;
    fn add(mut self, rhs: FaultTally) -> FaultTally {
        self += rhs;
        self
    }
}

impl std::ops::AddAssign for FaultTally {
    fn add_assign(&mut self, rhs: FaultTally) {
        for kind in FaultKind::ALL {
            *self.slot(kind) += rhs.of(kind);
        }
    }
}

/// Fault tallies split by worker class — the fault-side twin of
/// [`ComparisonCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Faults on naïve-class judgments and workers.
    pub naive: FaultTally,
    /// Faults on expert-class judgments and workers.
    pub expert: FaultTally,
}

impl FaultCounts {
    /// All-zero counts.
    pub const fn zero() -> Self {
        FaultCounts {
            naive: FaultTally::zero(),
            expert: FaultTally::zero(),
        }
    }

    /// Records one fault here *and* in this thread's tally (see
    /// [`tallied`]) — the chokepoint the platform and serve layers call
    /// when they inject or handle a fault. The twin of
    /// [`ComparisonCounts::record`].
    #[inline]
    pub fn record(&mut self, class: WorkerClass, kind: FaultKind) {
        self.by_class_mut(class).record(kind);
        FAULTS.with_borrow_mut(|thread| thread.by_class_mut(class).record(kind));
    }

    /// The tally for `class`.
    pub fn by_class(&self, class: WorkerClass) -> &FaultTally {
        match class {
            WorkerClass::Naive => &self.naive,
            WorkerClass::Expert => &self.expert,
        }
    }

    /// Sum over both classes and all kinds.
    pub fn total(&self) -> u64 {
        self.naive.total() + self.expert.total()
    }

    fn by_class_mut(&mut self, class: WorkerClass) -> &mut FaultTally {
        match class {
            WorkerClass::Naive => &mut self.naive,
            WorkerClass::Expert => &mut self.expert,
        }
    }
}

impl std::ops::Add for FaultCounts {
    type Output = FaultCounts;
    fn add(self, rhs: FaultCounts) -> FaultCounts {
        FaultCounts {
            naive: self.naive + rhs.naive,
            expert: self.expert + rhs.expert,
        }
    }
}

/// Work performed on one thread: worker-performed comparisons and
/// recorded faults, by class — what [`tallied`] returns and [`credit`]
/// hands back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Comparisons recorded through [`ComparisonCounts::record_many`].
    pub comparisons: ComparisonCounts,
    /// Faults recorded through [`FaultCounts::record`].
    pub faults: FaultCounts,
}

thread_local! {
    /// Comparisons recorded on this thread; fed by
    /// [`ComparisonCounts::record_many`].
    pub(crate) static COMPARISONS: Cell<ComparisonCounts> =
        const { Cell::new(ComparisonCounts::zero()) };
    /// Faults recorded on this thread; fed by [`FaultCounts::record`].
    /// Updated in place: copying the whole 112-byte tally out of a `Cell`
    /// and back on every fault slowed the serve benchmark's p99 step.
    static FAULTS: RefCell<FaultCounts> = const { RefCell::new(FaultCounts::zero()) };
}

/// Takes this thread's tally, leaving it at zero.
fn take() -> Tally {
    Tally {
        comparisons: COMPARISONS.replace(ComparisonCounts::zero()),
        faults: FAULTS.replace(FaultCounts::zero()),
    }
}

/// Runs `f` and returns what it performed on this thread, plus whatever
/// it [`credit`]ed from threads it joined. Calls nest: the work also
/// stays in any enclosing `tallied` scope. If `f` panics, the work done
/// on this thread before the call is dropped from its tally.
pub fn tallied<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let (out, tally) = isolated(f);
    credit(tally);
    (out, tally)
}

/// Runs `f` and returns what it performed on this thread, like
/// [`tallied`], but keeps that work out of the thread's tally: enclosing
/// `tallied` scopes never see it. For work whose every other record is
/// dropped too, such as a check that repeats a run inside
/// `crowd_obs::record_segment`. If `f` panics, the work done on this
/// thread before the call is dropped from its tally.
pub fn isolated<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = take();
    let out = f();
    let tally = take();
    credit(before);
    (out, tally)
}

/// Adds `tally` to this thread's — how a caller takes over the work done
/// on threads it spawned and joined. Sums commute, so the order in which
/// workers are credited does not matter.
pub fn credit(tally: Tally) {
    COMPARISONS.set(COMPARISONS.get() + tally.comparisons);
    FAULTS.with_borrow_mut(|faults| *faults = *faults + tally.faults);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{expert_max_find, filter_candidates, ExpertMaxConfig, FilterConfig};
    use crate::element::ElementId;
    use crate::element::Instance;
    use crate::oracle::{ComparisonOracle, PerfectOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(n: usize) -> Instance {
        Instance::new((0..n).map(|i| ((i * 37) % n) as f64).collect())
    }

    /// Logs every event it observes with the comparison tally at that
    /// moment.
    struct Listener<O> {
        inner: O,
        events: Vec<(TraceEvent, ComparisonCounts)>,
    }

    impl<O> Listener<O> {
        fn new(inner: O) -> Self {
            Listener {
                inner,
                events: Vec::new(),
            }
        }

        fn at(&self, event: TraceEvent) -> ComparisonCounts {
            self.events
                .iter()
                .find(|(e, _)| *e == event)
                .unwrap_or_else(|| panic!("{event:?} not observed"))
                .1
        }
    }

    impl<O: ComparisonOracle> ComparisonOracle for Listener<O> {
        fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
            self.inner.compare(class, k, j)
        }

        fn counts(&self) -> ComparisonCounts {
            self.inner.counts()
        }

        fn observe(&mut self, event: TraceEvent) {
            self.events.push((event, self.inner.counts()));
        }
    }

    #[test]
    fn filter_rounds_partition_the_comparisons() {
        let inst = instance(300);
        let mut o = Listener::new(PerfectOracle::new(inst.clone()));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(4));
        // Each round is bracketed start → stats → end.
        assert_eq!(o.events.len(), 3 * out.rounds);
        let mut attributed = 0;
        for (r, round) in o.events.chunks(3).enumerate() {
            let (start, stats, end) = (round[0], round[1], round[2]);
            assert_eq!(start.0, TraceEvent::RoundStart(r as u32));
            assert!(
                matches!(stats.0, TraceEvent::RoundStats { round, survivors, .. }
                    if round == r as u32 && survivors == out.sizes[r + 1] as u64),
                "{stats:?}"
            );
            assert_eq!(end.0, TraceEvent::RoundEnd(r as u32));
            let spent = end.1.saturating_sub(start.1);
            assert_eq!(spent.expert, 0);
            attributed += spent.naive;
        }
        assert_eq!(attributed, out.comparisons.naive);
    }

    #[test]
    fn phases_split_by_worker_class() {
        let inst = instance(400);
        let mut o = Listener::new(PerfectOracle::new(inst.clone()));
        let mut rng = StdRng::seed_from_u64(3);
        let out = expert_max_find(&mut o, &inst.ids(), &ExpertMaxConfig::new(5), &mut rng);
        let phase = |p| {
            o.at(TraceEvent::PhaseEnd(p))
                .saturating_sub(o.at(TraceEvent::PhaseStart(p)))
        };
        let (filter, expert) = (phase(TracePhase::Filter), phase(TracePhase::Expert));
        assert_eq!(filter, out.phase1.comparisons);
        assert_eq!(expert, out.phase2_comparisons);
        assert_eq!(filter.expert, 0);
        assert_eq!(expert.naive, 0);
        // Rounds nest inside the filter phase.
        let pos = |e| o.events.iter().position(|&(x, _)| x == e).unwrap();
        let start = pos(TraceEvent::PhaseStart(TracePhase::Filter));
        let end = pos(TraceEvent::PhaseEnd(TracePhase::Filter));
        assert!(end > start + 1);
        assert!(o.events[start + 1..end].iter().all(|(e, _)| matches!(
            e,
            TraceEvent::RoundStart(_) | TraceEvent::RoundStats { .. } | TraceEvent::RoundEnd(_)
        )));
    }

    #[test]
    fn tallied_scopes_nest() {
        let inst = instance(8);
        let ids = inst.ids();
        let mut o = PerfectOracle::new(inst);
        // Work before the scope is not the scope's.
        o.compare(WorkerClass::Expert, ids[5], ids[6]);
        let (inner, outer) = tallied(|| {
            let ((), inner) = tallied(|| {
                o.compare(WorkerClass::Naive, ids[0], ids[1]);
            });
            o.compare(WorkerClass::Expert, ids[0], ids[2]);
            inner
        });
        assert_eq!(
            inner.comparisons,
            ComparisonCounts {
                naive: 1,
                expert: 0
            }
        );
        assert_eq!(
            outer.comparisons,
            ComparisonCounts {
                naive: 1,
                expert: 1
            }
        );
        // A later scope starts from zero.
        o.compare(WorkerClass::Naive, ids[3], ids[4]);
        let ((), empty) = tallied(|| ());
        assert_eq!(empty, Tally::default());
    }

    #[test]
    fn isolated_work_stays_out_of_enclosing_scopes() {
        let record = |n: u64| {
            ComparisonCounts::zero().record_many(WorkerClass::Naive, n);
            FaultCounts::zero().record(WorkerClass::Expert, FaultKind::Timeout);
        };
        let ((), outer) = tallied(|| {
            record(2);
            let ((), inner) = isolated(|| record(5));
            assert_eq!(inner.comparisons.naive, 5);
            assert_eq!(inner.faults.total(), 1);
            record(3);
        });
        assert_eq!(outer.comparisons.naive, 5, "only the 2 + 3 outside");
        assert_eq!(outer.faults.total(), 2);
    }

    #[test]
    fn credit_hands_worker_tallies_back_to_the_joiner() {
        let work = || {
            let inst = instance(4);
            let mut o = PerfectOracle::new(inst.clone());
            o.compare(WorkerClass::Naive, inst.ids()[0], inst.ids()[1]);
            FaultCounts::zero().record(WorkerClass::Naive, FaultKind::Retry);
        };
        let ((), tally) = tallied(|| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..2).map(|_| s.spawn(|| tallied(work).1)).collect();
                for worker in workers {
                    credit(worker.join().unwrap());
                }
            });
        });
        assert_eq!(tally.comparisons.naive, 2);
        assert_eq!(tally.faults.naive.retries, 2);
        assert_eq!(tally.faults.total(), 2);
    }

    #[test]
    fn fault_record_lands_in_the_thread_tally_once() {
        let mut counts = FaultCounts::zero();
        let ((), tally) = tallied(|| {
            counts.record(WorkerClass::Naive, FaultKind::Timeout);
            counts.record(WorkerClass::Naive, FaultKind::Retry);
            counts.record(WorkerClass::Expert, FaultKind::ExpertFallback);
        });
        assert_eq!(tally.faults, counts);
        assert_eq!(tally.faults.naive.timeouts, 1);
        assert_eq!(tally.faults.expert.expert_fallbacks, 1);
        assert_eq!(tally.comparisons, ComparisonCounts::zero());
        // A later scope sees only its own faults.
        let ((), later) = tallied(|| counts.record(WorkerClass::Naive, FaultKind::Dropout));
        assert_eq!(later.faults.total(), 1);
        assert_eq!(counts.total(), 4);
    }

    #[test]
    fn fault_tally_arithmetic_and_iteration() {
        let mut a = FaultTally::zero();
        a.record(FaultKind::Dropout);
        a.record(FaultKind::Dropout);
        a.record(FaultKind::DeadLetter);
        let mut b = FaultTally::zero();
        b.record(FaultKind::NoAnswer);
        let sum = a + b;
        assert_eq!(sum.of(FaultKind::Dropout), 2);
        assert_eq!(sum.of(FaultKind::DeadLetter), 1);
        assert_eq!(sum.of(FaultKind::NoAnswer), 1);
        assert_eq!(sum.total(), 4);
        assert_eq!(FaultKind::ALL.len(), 7);

        let counts = FaultCounts {
            naive: a,
            expert: b,
        } + FaultCounts::zero();
        assert_eq!(counts.by_class(WorkerClass::Naive).total(), 3);
        assert_eq!(counts.by_class(WorkerClass::Expert).total(), 1);
    }

    #[test]
    fn fault_counts_serialize() {
        let mut counts = FaultCounts::zero();
        counts.record(WorkerClass::Naive, FaultKind::Retry);
        let json = serde_json::to_string(&counts).unwrap();
        assert!(json.contains("retries"), "{json}");
        assert!(json.contains("dead_letters"), "{json}");
    }
}

//! Comparison-level tracing vocabulary and thread-level tallies.
//!
//! * [`TraceEvent`] — the round/phase boundary and fault events that
//!   [`filter_candidates`](crate::algorithms::filter_candidates),
//!   [`expert_max_find`](crate::algorithms::expert_max_find) and the
//!   platform layer emit through
//!   [`ComparisonOracle::observe`](crate::oracle::ComparisonOracle::observe).
//!   Decorators listen to them: `crowd_obs::ObservedOracle` turns them into
//!   events, spans and metrics.
//! * [`TallySink`] — a thread-safe comparison counter that can be
//!   *installed* on the current thread ([`install_sink`]); while installed,
//!   every worker-performed comparison recorded anywhere in the process on
//!   that thread (the single chokepoint is
//!   [`ComparisonCounts::record`]) is also added to the sink. Sinks nest:
//!   an experiment-level sink and a trial-level sink both see the same
//!   comparison. Parallel runners capture the caller's sink stack with
//!   [`current_sinks`] and re-install it on their worker threads
//!   ([`install_sinks`]) so fan-out attributes work to the right owner.
//!
//! Neither mechanism changes algorithm behaviour or existing signatures:
//! `observe` has a no-op default, and sinks only add to atomic counters.

use crate::model::WorkerClass;
use crate::oracle::ComparisonCounts;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// A fault was injected or handled somewhere below this oracle.
    Fault {
        /// The worker class the faulting judgment was assigned to.
        class: WorkerClass,
        /// What went wrong (or what recovery fired).
        kind: FaultKind,
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
/// a quarantine storm from a small pool or an exhausted campaign budget.
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
    /// The campaign or tenant budget refused to fund further attempts.
    BudgetExhausted,
}

impl DeadLetterReason {
    /// All reasons, in declaration order.
    pub const ALL: [DeadLetterReason; 4] = [
        DeadLetterReason::RetriesExhausted,
        DeadLetterReason::NoFreshWorkers,
        DeadLetterReason::NoHealthyWorkers,
        DeadLetterReason::BudgetExhausted,
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
    pub fn zero() -> Self {
        Self::default()
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
    pub fn zero() -> Self {
        Self::default()
    }

    /// Records one fault *and* feeds every installed [`TallySink`] — the
    /// chokepoint the platform layer calls when it injects or handles a
    /// fault. The twin of [`ComparisonCounts::record`].
    pub fn record(&mut self, class: WorkerClass, kind: FaultKind) {
        self.add(class, kind);
        note_fault(class, kind);
    }

    /// Plain increment without sink feeding — for decorators tallying
    /// faults they merely *observed* (already recorded at the source).
    pub fn add(&mut self, class: WorkerClass, kind: FaultKind) {
        self.by_class_mut(class).record(kind);
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

/// A thread-safe per-class comparison (and fault) tally fed by
/// [`ComparisonCounts::record`] / [`FaultCounts::record`] while installed
/// on a thread.
#[derive(Debug, Default)]
pub struct TallySink {
    naive: AtomicU64,
    expert: AtomicU64,
    faults: Mutex<FaultCounts>,
}

impl TallySink {
    /// A fresh zero tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one comparison of `class`.
    pub fn add(&self, class: WorkerClass) {
        self.add_many(class, 1);
    }

    /// Adds `n` comparisons of `class` in one atomic step — the bulk feed
    /// used by [`ComparisonCounts::record_many`] so a batch costs one
    /// `fetch_add` per sink instead of one per comparison.
    pub fn add_many(&self, class: WorkerClass, n: u64) {
        match class {
            WorkerClass::Naive => self.naive.fetch_add(n, Ordering::Relaxed),
            WorkerClass::Expert => self.expert.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Adds one fault of `kind` on a `class` judgment or worker.
    pub fn add_fault(&self, class: WorkerClass, kind: FaultKind) {
        self.faults
            .lock()
            .expect("fault tally lock poisoned")
            .add(class, kind);
    }

    /// The comparison tally so far.
    pub fn counts(&self) -> ComparisonCounts {
        ComparisonCounts {
            naive: self.naive.load(Ordering::Relaxed),
            expert: self.expert.load(Ordering::Relaxed),
        }
    }

    /// The fault tally so far.
    pub fn faults(&self) -> FaultCounts {
        *self.faults.lock().expect("fault tally lock poisoned")
    }
}

thread_local! {
    static SINKS: RefCell<Vec<Arc<TallySink>>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the sinks its [`install_sink`]/[`install_sinks`] call pushed,
/// when dropped. Not `Send`: the guard must drop on the installing thread.
#[derive(Debug)]
pub struct SinkGuard {
    installed: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        SINKS.with(|s| {
            let mut stack = s.borrow_mut();
            let keep = stack.len().saturating_sub(self.installed);
            stack.truncate(keep);
        });
    }
}

/// Installs `sink` on the current thread until the guard drops; every
/// comparison recorded meanwhile is added to it (and to any sinks already
/// installed below it).
#[must_use = "the sink uninstalls when the guard drops"]
pub fn install_sink(sink: Arc<TallySink>) -> SinkGuard {
    SINKS.with(|s| s.borrow_mut().push(sink));
    SinkGuard {
        installed: 1,
        _not_send: PhantomData,
    }
}

/// Installs a whole stack of sinks at once — how a worker thread inherits
/// its spawner's attribution context (see [`current_sinks`]).
#[must_use = "the sinks uninstall when the guard drops"]
pub fn install_sinks(sinks: &[Arc<TallySink>]) -> SinkGuard {
    SINKS.with(|s| s.borrow_mut().extend(sinks.iter().cloned()));
    SinkGuard {
        installed: sinks.len(),
        _not_send: PhantomData,
    }
}

/// The sinks installed on the current thread, bottom-up — capture before
/// spawning workers, re-install on each with [`install_sinks`].
pub fn current_sinks() -> Vec<Arc<TallySink>> {
    SINKS.with(|s| s.borrow().clone())
}

/// Feeds `n` recorded comparisons to every installed sink in one pass.
/// Called from [`ComparisonCounts::record_many`], the chokepoint every
/// worker-performed comparison passes through — batch oracles pay the
/// thread-local lookup once per batch rather than once per comparison.
pub(crate) fn note_comparisons(class: WorkerClass, n: u64) {
    SINKS.with(|s| {
        for sink in s.borrow().iter() {
            sink.add_many(class, n);
        }
    });
}

/// Feeds one recorded fault to every installed sink. Called from
/// [`FaultCounts::record`], the chokepoint the platform layer reports
/// injected and handled faults through.
pub(crate) fn note_fault(class: WorkerClass, kind: FaultKind) {
    SINKS.with(|s| {
        for sink in s.borrow().iter() {
            sink.add_fault(class, kind);
        }
    });
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
    fn sinks_nest_and_uninstall() {
        use crate::model::WorkerClass;
        let outer = Arc::new(TallySink::new());
        let inner = Arc::new(TallySink::new());
        let inst = instance(8);
        let mut o = PerfectOracle::new(inst.clone());
        {
            let _g1 = install_sink(outer.clone());
            {
                let _g2 = install_sink(inner.clone());
                o.compare(WorkerClass::Naive, inst.ids()[0], inst.ids()[1]);
            }
            o.compare(WorkerClass::Expert, inst.ids()[0], inst.ids()[2]);
        }
        // After both guards drop, nothing is attributed any more.
        o.compare(WorkerClass::Naive, inst.ids()[3], inst.ids()[4]);
        assert_eq!(
            inner.counts(),
            ComparisonCounts {
                naive: 1,
                expert: 0
            }
        );
        assert_eq!(
            outer.counts(),
            ComparisonCounts {
                naive: 1,
                expert: 1
            }
        );
        assert!(current_sinks().is_empty());
    }

    #[test]
    fn worker_threads_inherit_the_captured_stack() {
        use crate::model::WorkerClass;
        let sink = Arc::new(TallySink::new());
        let _g = install_sink(sink.clone());
        let captured = current_sinks();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let captured = captured.clone();
                s.spawn(move || {
                    let _g = install_sinks(&captured);
                    let inst = instance(4);
                    let mut o = PerfectOracle::new(inst.clone());
                    o.compare(WorkerClass::Naive, inst.ids()[0], inst.ids()[1]);
                });
            }
        });
        assert_eq!(sink.counts().naive, 2);
    }

    #[test]
    fn fault_record_feeds_sinks_and_observe_tallies_without_double_count() {
        use crate::model::WorkerClass;
        let sink = Arc::new(TallySink::new());
        let inst = instance(4);
        let mut o = Listener::new(PerfectOracle::new(inst));
        let mut counts = FaultCounts::zero();
        {
            let _g = install_sink(sink.clone());
            // The platform-side pattern: record at the source (feeds the
            // sink), then notify decorators via observe (plain add).
            counts.record(WorkerClass::Naive, FaultKind::Timeout);
            counts.record(WorkerClass::Naive, FaultKind::Retry);
            counts.record(WorkerClass::Expert, FaultKind::ExpertFallback);
            for kind in [FaultKind::Timeout, FaultKind::Retry] {
                o.observe(TraceEvent::Fault {
                    class: WorkerClass::Naive,
                    kind,
                });
            }
            o.observe(TraceEvent::Fault {
                class: WorkerClass::Expert,
                kind: FaultKind::ExpertFallback,
            });
        }
        // Sink saw each fault exactly once (record feeds it, observe does not).
        assert_eq!(sink.faults(), counts);
        assert_eq!(sink.faults().naive.timeouts, 1);
        assert_eq!(sink.faults().naive.retries, 1);
        assert_eq!(sink.faults().expert.expert_fallbacks, 1);
        // The listener heard each fault once, via observe.
        let heard: Vec<TraceEvent> = o.events.iter().map(|&(e, _)| e).collect();
        assert_eq!(
            heard,
            [
                (WorkerClass::Naive, FaultKind::Timeout),
                (WorkerClass::Naive, FaultKind::Retry),
                (WorkerClass::Expert, FaultKind::ExpertFallback),
            ]
            .map(|(class, kind)| TraceEvent::Fault { class, kind })
        );
        assert_eq!(counts.total(), 3);
        // After the guard drops, records no longer reach the sink.
        counts.record(WorkerClass::Naive, FaultKind::Dropout);
        assert_eq!(sink.faults().total(), 3);
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
        counts.add(WorkerClass::Naive, FaultKind::Retry);
        let json = serde_json::to_string(&counts).unwrap();
        assert!(json.contains("retries"), "{json}");
        assert!(json.contains("dead_letters"), "{json}");
    }
}

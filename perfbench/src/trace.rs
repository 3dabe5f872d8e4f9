//! Tracing from outside the program: the [`Timed`] oracle decorator placed
//! at each public oracle boundary, and the in-memory [`SpanLog`] the traced
//! runs fill and write out as `trace.jsonl`.
//!
//! A comparison through the simulated kernel costs about as much as one
//! clock read, so timing every call would mostly measure the clock.
//! [`Timed`] therefore counts every call but times one in [`STRIDE`], and
//! scales the sampled time by the pairs it stands for. An unsampled call
//! costs two additions and a mask test; the split of the counts by phase
//! happens at phase boundaries. What the instrumentation itself adds —
//! the clock read inside every sampled interval, and a nested decorator's
//! overhead inside its parent's — is measured on the host by
//! [`Overhead::measure`] and subtracted.

use crate::harness::{nanos, quantile};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_core::trace::{TraceEvent, TracePhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One call in this many is timed. A power of two: the sampling test is a
/// mask, not a division.
pub const STRIDE: u64 = 64;

/// Calls, pairs and sampled time of one layer within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    /// Calls into the layer.
    pub calls: u64,
    /// Comparison pairs those calls carried.
    pub pairs: u64,
    /// Calls that were timed.
    pub timed_calls: u64,
    /// Pairs the timed calls carried.
    pub timed_pairs: u64,
    /// Wall nanoseconds of the timed calls.
    pub timed_ns: u64,
    /// Start of the first timed call.
    pub first: Option<Instant>,
    /// End of the last timed call.
    pub last: Option<Instant>,
}

/// Phase slots: outside any phase, Phase 1 (filter), Phase 2 (expert).
pub const PHASES: [&str; 3] = ["outside", "phase1", "phase2"];

fn phase_slot(phase: TracePhase) -> usize {
    match phase {
        TracePhase::Filter => 1,
        TracePhase::Expert => 2,
    }
}

/// What a [`Timed`] decorator measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// The layer's name, after the module it wraps.
    pub layer: &'static str,
    /// Which call indices (modulo [`STRIDE`]) were timed.
    pub offset: u64,
    /// Per phase slot (see [`PHASES`]).
    pub acc: [Acc; 3],
    /// Phase start and end marks, per phase slot.
    pub marks: [(Option<Instant>, Option<Instant>); 3],
    /// `(class, pairs)` of every call, when segment capture is on.
    pub segments: Option<Vec<(WorkerClass, usize)>>,
}

impl LayerStats {
    /// Calls and pairs summed over every phase.
    pub fn total(&self) -> Acc {
        let mut t = Acc::default();
        for a in &self.acc {
            t.calls += a.calls;
            t.pairs += a.pairs;
            t.timed_calls += a.timed_calls;
            t.timed_pairs += a.timed_pairs;
            t.timed_ns += a.timed_ns;
        }
        t
    }
}

/// What the instrumentation costs per call on this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// One `Instant::now()` read: about what a sampled interval contains
    /// besides the work.
    pub timer_ns: f64,
    /// An unsampled call through [`Timed`], over the bare call.
    pub unsampled_ns: f64,
    /// A sampled call through [`Timed`], over the bare call.
    pub sampled_ns: f64,
}

/// An oracle that does nothing, to price the decorator around it.
struct Noop;

impl ComparisonOracle for Noop {
    fn compare(&mut self, _: WorkerClass, k: ElementId, _: ElementId) -> ElementId {
        k
    }

    fn counts(&self) -> ComparisonCounts {
        ComparisonCounts::zero()
    }
}

/// Median nanoseconds per call of `o.compare` over repeated loops.
fn per_call_ns<O: ComparisonOracle>(o: &mut O) -> f64 {
    const CALLS: u32 = 200_000;
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(o.compare(
                    WorkerClass::Naive,
                    black_box(ElementId(i)),
                    ElementId(i + 1),
                ));
            }
            nanos(t0.elapsed()) as f64 / f64::from(CALLS)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5)
}

impl Overhead {
    /// Measures the three costs.
    pub fn measure() -> Overhead {
        let bare = per_call_ns(&mut Noop);
        let never = per_call_ns(&mut Timed::sampling(
            Noop,
            "calibration",
            u64::MAX,
            u64::MAX,
        ));
        let always = per_call_ns(&mut Timed::sampling(Noop, "calibration", 0, 0));
        Overhead {
            timer_ns: crate::harness::timer_overhead_ns(),
            unsampled_ns: (never - bare).max(0.0),
            sampled_ns: (always - bare).max(0.0),
        }
    }

    /// Estimated busy nanoseconds of the calls in `a`: each sampled
    /// interval less one clock read and `nested_ns` (what a decorator
    /// below added inside it), scaled from the sampled pairs to all pairs.
    pub fn busy_ns(&self, a: &Acc, nested_ns: f64) -> f64 {
        if a.timed_pairs == 0 {
            return 0.0;
        }
        let sampled =
            (a.timed_ns as f64 - (self.timer_ns + nested_ns) * a.timed_calls as f64).max(0.0);
        sampled * a.pairs as f64 / a.timed_pairs as f64
    }

    /// Nanoseconds a decorator added to its callers' wall time over the
    /// calls in `a`.
    pub fn added_ns(&self, a: &Acc) -> f64 {
        (a.calls - a.timed_calls) as f64 * self.unsampled_ns
            + a.timed_calls as f64 * self.sampled_ns
    }

    /// What a decorator below a parent added inside each of the parent's
    /// sampled intervals: its sampled cost when both sample the same
    /// calls, its unsampled cost otherwise.
    pub fn nested_ns(&self, parent: &LayerStats, child: &LayerStats) -> f64 {
        if parent.offset == child.offset {
            self.sampled_ns
        } else {
            self.unsampled_ns
        }
    }
}

/// Oracle decorator that counts every call into the wrapped layer, times
/// one call in [`STRIDE`], and attributes both to the algorithm phase the
/// [`TraceEvent::PhaseStart`]/[`TraceEvent::PhaseEnd`] events passing
/// through [`observe`](ComparisonOracle::observe) announce. Transparent:
/// every call and event is forwarded unchanged.
#[derive(Debug)]
pub struct Timed<O> {
    inner: O,
    mask: u64,
    offset: u64,
    calls: u64,
    pairs: u64,
    phase: usize,
    settled: (u64, u64),
    stats: LayerStats,
}

impl<O: ComparisonOracle> Timed<O> {
    /// Wraps `inner` as layer `layer`, timing calls whose index is
    /// `offset` modulo [`STRIDE`].
    pub fn new(inner: O, layer: &'static str, offset: u64) -> Self {
        Timed::sampling(inner, layer, STRIDE - 1, offset % STRIDE)
    }

    /// Times calls whose index masked by `mask` equals `offset`.
    fn sampling(inner: O, layer: &'static str, mask: u64, offset: u64) -> Self {
        Timed {
            inner,
            mask,
            offset,
            calls: 0,
            pairs: 0,
            phase: 0,
            settled: (0, 0),
            stats: LayerStats {
                layer,
                offset,
                acc: [Acc::default(); 3],
                marks: [(None, None); 3],
                segments: None,
            },
        }
    }

    /// Also records `(class, pairs)` of every call, so the call stream can
    /// be driven again batch for batch.
    pub fn with_segments(mut self) -> Self {
        self.stats.segments = Some(Vec::new());
        self
    }

    /// The wrapped oracle.
    pub fn get_ref(&self) -> &O {
        &self.inner
    }

    /// Consumes the decorator.
    pub fn into_parts(mut self) -> (O, LayerStats) {
        self.settle();
        (self.inner, self.stats)
    }

    /// Books the calls since the last phase boundary to the current phase.
    fn settle(&mut self) {
        let acc = &mut self.stats.acc[self.phase];
        acc.calls += self.calls - self.settled.0;
        acc.pairs += self.pairs - self.settled.1;
        self.settled = (self.calls, self.pairs);
    }

    #[inline]
    fn begin(&mut self, class: WorkerClass, pairs: usize) -> Option<Instant> {
        if let Some(segments) = &mut self.stats.segments {
            segments.push((class, pairs));
        }
        let timed = self.calls & self.mask == self.offset;
        self.calls += 1;
        self.pairs += pairs as u64;
        timed.then(Instant::now)
    }

    #[inline]
    fn end(&mut self, started: Option<Instant>, pairs: usize) {
        let Some(t0) = started else { return };
        let t1 = Instant::now();
        let acc = &mut self.stats.acc[self.phase];
        acc.timed_calls += 1;
        acc.timed_pairs += pairs as u64;
        acc.timed_ns += nanos(t1 - t0);
        acc.first.get_or_insert(t0);
        acc.last = Some(t1);
    }
}

impl<O: ComparisonOracle> ComparisonOracle for Timed<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let t = self.begin(class, 1);
        let winner = self.inner.compare(class, k, j);
        self.end(t, 1);
        winner
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let t = self.begin(class, 1);
        let winner = self.inner.try_compare(class, k, j);
        self.end(t, 1);
        winner
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        let t = self.begin(class, pairs.len());
        self.inner.compare_batch(class, pairs, winners);
        self.end(t, pairs.len());
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        let t = self.begin(class, pairs.len());
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        self.end(t, pairs.len());
        outcome
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PhaseStart(phase) => {
                self.settle();
                self.phase = phase_slot(phase);
                self.stats.marks[self.phase].0 = Some(Instant::now());
            }
            TraceEvent::PhaseEnd(phase) => {
                self.settle();
                self.stats.marks[phase_slot(phase)].1 = Some(Instant::now());
                self.phase = 0;
            }
            _ => {}
        }
        self.inner.observe(event);
    }
}

/// One span: a run, phase or tick, or the aggregate of one layer's calls
/// under a parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id, unique within the log.
    pub id: u64,
    /// The parent span's id, 0 for a root.
    pub parent: u64,
    /// The layer the span's time belongs to.
    pub layer: &'static str,
    /// What the span covers, e.g. `sample3`, `phase1`, `tick812`.
    pub name: String,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Time the layer was busy within the span; for an aggregate span the
    /// summed (or sample-estimated) time of its calls.
    pub busy_ns: u64,
    /// Calls or work items the span covers.
    pub count: u64,
}

/// Spans kept in memory, written out when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's origin to `at` (0 before the origin).
    pub fn offset(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.origin))
    }

    /// Appends a span and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: String,
        start: Instant,
        end: Instant,
        busy_ns: u64,
        count: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            busy_ns,
            count,
        };
        self.spans.push(span);
        id
    }

    /// The spans, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy time per layer.
    pub fn busy_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0) += s.busy_ns;
        }
        out
    }

    /// Summed self time per layer: each span's busy time less its
    /// children's busy time. Signed, because sampled child estimates can
    /// exceed a parent's measured time by the sampling error.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, i64> {
        let mut children = vec![0i64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize] += s.busy_ns as i64;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0) += s.busy_ns as i64 - children[s.id as usize];
        }
        out
    }

    /// The spans of the first `roots` root spans (a root and everything
    /// pushed after it up to the next root), as JSON lines.
    pub fn to_jsonl(&self, roots: usize) -> String {
        let mut out = String::new();
        let mut seen = 0;
        for s in &self.spans {
            if s.parent == 0 {
                seen += 1;
                if seen > roots {
                    break;
                }
            }
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.busy_ns, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::element::Instance;
    use crowd_core::equiv::{assert_oracles_equal, drive_batched};
    use crowd_core::model::{ExpertModel, TiePolicy};
    use crowd_core::oracle::SimulatedOracle;
    use crowd_platform::{
        CheckpointPolicy, JournaledOracle, Platform, PlatformConfig, RetryPolicy, WorkerPool,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance(n: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(9);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    /// A seeded stream of distinct-element pairs with uneven batch
    /// segments, including empty ones.
    fn stream(n: u32, len: usize) -> (Vec<(ElementId, ElementId)>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(17);
        let pairs = (0..len)
            .map(|_| {
                let k = rng.gen_range(0..n);
                let j = (k + 1 + rng.gen_range(0..n - 1)) % n;
                (ElementId(k), ElementId(j))
            })
            .collect();
        let segments = (0..len / 3).map(|i| [1, 0, 7, 3, 64][i % 5]).collect();
        (pairs, segments)
    }

    fn simulated(inst: &Instance) -> SimulatedOracle<StdRng> {
        let model = ExpertModel::exact(40.0, 2.0, TiePolicy::UniformRandom);
        SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(5))
    }

    fn journaled(inst: &Instance) -> JournaledOracle<StdRng> {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(25, 40.0, 0.0);
        pool.hire_expert_panel(4, 2.0, 0.0);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(crowd_experiments::fault_sweep::fault_config(0.01), 77)
            .with_retry(RetryPolicy::paper_default().with_max_retries(4))
            .with_expert_fallback(3);
        let platform = Platform::new(inst.clone(), pool, config, StdRng::seed_from_u64(3));
        JournaledOracle::new(platform, "timed", 3, CheckpointPolicy::every(4))
    }

    #[test]
    fn timed_is_transparent_over_the_simulated_oracle() {
        let inst = instance(200);
        let (pairs, segments) = stream(200, 3_000);
        for class in [WorkerClass::Naive, WorkerClass::Expert] {
            let (log, winners) = assert_oracles_equal(
                Timed::new(simulated(&inst), "simulated", 0),
                simulated(&inst),
                |o| drive_batched(o, class, &pairs, &segments),
                |o| drive_batched(o, class, &pairs, &segments),
            );
            assert_eq!(log.len(), pairs.len());
            assert_eq!(winners.len(), pairs.len());
        }
    }

    #[test]
    fn timed_is_transparent_over_the_journaled_oracle() {
        let inst = instance(120);
        let (pairs, segments) = stream(120, 600);
        let (log, _) = assert_oracles_equal(
            Timed::new(journaled(&inst), "journaled", 5),
            journaled(&inst),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &segments),
            |o| drive_batched(o, WorkerClass::Naive, &pairs, &segments),
        );
        assert_eq!(log.len(), pairs.len());
    }

    #[test]
    fn timed_counts_every_call_and_samples_one_in_stride() {
        let inst = instance(100);
        let mut o = Timed::new(simulated(&inst), "simulated", 3).with_segments();
        for i in 0..(2 * STRIDE as u32) {
            o.compare(
                WorkerClass::Naive,
                ElementId(i % 50),
                ElementId(50 + i % 50),
            );
        }
        let mut winners = Vec::new();
        o.compare_batch(
            WorkerClass::Expert,
            &[(ElementId(1), ElementId(2)), (ElementId(3), ElementId(4))],
            &mut winners,
        );
        let (_, stats) = o.into_parts();
        let t = stats.total();
        assert_eq!(t.calls, 2 * STRIDE + 1);
        assert_eq!(t.pairs, 2 * STRIDE + 2);
        // Calls 3 and 3 + STRIDE are timed.
        assert_eq!(t.timed_calls, 2);
        assert_eq!(t.timed_pairs, 2);
        let segments = stats.segments.expect("capture on");
        assert_eq!(segments.len(), 2 * STRIDE as usize + 1);
        assert_eq!(segments.last(), Some(&(WorkerClass::Expert, 2)));
    }

    #[test]
    fn phase_events_route_calls_to_their_phase() {
        let inst = instance(50);
        let mut o = Timed::new(simulated(&inst), "simulated", 0);
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        o.observe(TraceEvent::PhaseStart(TracePhase::Filter));
        o.compare(WorkerClass::Naive, ElementId(0), ElementId(1));
        o.compare(WorkerClass::Naive, ElementId(2), ElementId(1));
        o.observe(TraceEvent::PhaseEnd(TracePhase::Filter));
        o.observe(TraceEvent::PhaseStart(TracePhase::Expert));
        o.compare(WorkerClass::Expert, ElementId(0), ElementId(1));
        o.observe(TraceEvent::PhaseEnd(TracePhase::Expert));
        o.compare(WorkerClass::Naive, ElementId(3), ElementId(1));
        let (_, s) = o.into_parts();
        assert_eq!(
            s.acc.map(|a| a.calls),
            [2, 2, 1],
            "outside, phase 1, phase 2"
        );
        assert!(s.marks[1].0.is_some() && s.marks[1].1.is_some());
        assert!(s.marks[2].0 <= s.marks[2].1);
    }

    #[test]
    fn busy_estimate_scales_sampled_time_and_subtracts_the_clock() {
        let a = Acc {
            calls: 100,
            pairs: 200,
            timed_calls: 2,
            timed_pairs: 4,
            timed_ns: 1_040,
            first: None,
            last: None,
        };
        let ov = Overhead {
            timer_ns: 20.0,
            unsampled_ns: 2.0,
            sampled_ns: 50.0,
        };
        // (1040 - 2·20) ns for 4 pairs, scaled to 200 pairs.
        assert_eq!(ov.busy_ns(&a, 0.0), 50_000.0);
        // A nested decorator's 50 ns per sampled call comes off too.
        assert_eq!(ov.busy_ns(&a, 50.0), 45_000.0);
        assert_eq!(ov.busy_ns(&Acc::default(), 20.0), 0.0);
        // 98 unsampled calls at 2 ns, 2 sampled at 50 ns.
        assert_eq!(ov.added_ns(&a), 296.0);
    }

    #[test]
    fn overhead_is_measured_and_nesting_picks_the_right_cost() {
        let ov = Overhead::measure();
        assert!(ov.timer_ns >= 0.0 && ov.unsampled_ns >= 0.0);
        assert!(ov.sampled_ns >= ov.unsampled_ns, "{ov:?}");
        let inst = instance(10);
        let (_, outer) = Timed::new(simulated(&inst), "observed", 0).into_parts();
        let (_, paired) = Timed::new(simulated(&inst), "simulated", 0).into_parts();
        let (_, disjoint) = Timed::new(simulated(&inst), "simulated", STRIDE / 2).into_parts();
        assert_eq!(ov.nested_ns(&outer, &paired), ov.sampled_ns);
        assert_eq!(ov.nested_ns(&outer, &disjoint), ov.unsampled_ns);
    }

    #[test]
    fn self_time_is_busy_time_less_children() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        let run = log.push(0, "run", "sample0".into(), t, t, 1_000, 1);
        let phase = log.push(run, "algorithms", "phase1".into(), t, t, 900, 1);
        log.push(phase, "observed", "agg".into(), t, t, 600, 10);
        let busy = log.busy_by_layer();
        assert_eq!(busy["observed"], 600);
        let own = log.self_by_layer();
        assert_eq!(own["run"], 100);
        assert_eq!(own["algorithms"], 300);
        assert_eq!(own["observed"], 600);
        log.push(0, "run", "sample1".into(), t, t, 10, 1);
        let jsonl = log.to_jsonl(1);
        assert_eq!(jsonl.lines().count(), 3);
        assert_eq!(log.to_jsonl(2).lines().count(), 4);
        assert!(jsonl.contains("\"parent\":2,\"layer\":\"observed\""));
    }
}

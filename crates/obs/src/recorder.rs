//! The thread-local recorder stack: where events and metric updates land.
//!
//! A [`Recorder`] is installed on the current thread for a scope
//! ([`install_recorder`]), and every [`emit`]/[`counter_add`]/
//! [`gauge_set`]/[`observe`] call made anywhere on that thread while it is
//! installed lands in it (and in any recorders installed below it).
//!
//! Parallel fan-out must keep order. Unlike `crowd_core::trace`'s work
//! tally, a commutative sum credited back in any order, an event log is
//! *ordered*, so workers must not interleave. Instead, a worker wraps each
//! work item in [`record_segment`], which masks whatever is installed and
//! captures the item's output into a private [`Segment`]; the caller then
//! [`replay`]s the segments in input order after the join. The result is byte-identical to running the items
//! serially, at any worker count.
//!
//! Metric updates come in two forms that land in the same cells. Hot
//! sites hold pre-registered handles and call [`CounterId::add`],
//! [`GaugeId::set`] or [`HistogramId::observe`]: one thread-local lookup,
//! then one uncontended lock and one indexed write per installed
//! recorder. Per-judgment values are batched per job or pair and
//! flushed through [`HistogramId::observe_each`], which pays that walk
//! and lock once per batch. Cold sites may call [`counter_add`], [`gauge_set`] or
//! [`observe`] with a name and labels, which resolve the series through
//! the process-wide interner first (see [`crate::metrics`]'s rules).

use crate::event::{Event, EventLog};
use crate::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use crate::span::{Span, SpanLog};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// A collection point for events, spans, and metrics, scoped to a thread
/// via [`install_recorder`].
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
    spans: Mutex<Vec<Span>>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push_event(&self, event: Event) {
        self.events
            .lock()
            .expect("recorder event buffer poisoned")
            .push(event);
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("recorder event buffer poisoned")
            .clone()
    }

    /// The recorded events as a sequence-numbered [`EventLog`] — the
    /// logical clock is assigned here, at serialization time.
    pub fn log(&self) -> EventLog {
        EventLog::from_events(self.events())
    }

    /// Appends one causal span.
    pub fn push_span(&self, span: Span) {
        self.spans
            .lock()
            .expect("recorder span buffer poisoned")
            .push(span);
    }

    /// The spans recorded so far, in emission order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("recorder span buffer poisoned")
            .clone()
    }

    /// The recorded spans as a canonically sorted [`SpanLog`] — sorting
    /// happens here, so the serialized log is order-insensitive.
    pub fn span_log(&self) -> SpanLog {
        SpanLog::from_spans(self.spans())
    }

    /// The recorder's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drains the recorder into a [`Segment`], leaving it empty.
    fn take_segment(&self) -> Segment {
        let events =
            std::mem::take(&mut *self.events.lock().expect("recorder event buffer poisoned"));
        let spans = std::mem::take(&mut *self.spans.lock().expect("recorder span buffer poisoned"));
        let metrics = self.metrics.take();
        Segment {
            events,
            spans,
            metrics,
        }
    }
}

/// One work item's buffered observability output: the events it emitted,
/// in order, plus its spans and metric updates. Produced by
/// [`record_segment`] on a worker thread, spliced back with [`replay`] on
/// the caller's.
#[derive(Debug, Default)]
pub struct Segment {
    events: Vec<Event>,
    spans: Vec<Span>,
    metrics: MetricsRegistry,
}

impl Segment {
    /// True when the segment recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.spans.is_empty() && self.metrics.is_empty()
    }
}

thread_local! {
    static RECORDERS: RefCell<Vec<Arc<Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the recorders its [`install_recorder`]/[`install_recorders`]
/// call pushed, when dropped. Not `Send`: the guard must drop on the
/// installing thread.
#[derive(Debug)]
pub struct RecorderGuard {
    installed: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        RECORDERS.with(|r| {
            let mut stack = r.borrow_mut();
            let keep = stack.len().saturating_sub(self.installed);
            stack.truncate(keep);
        });
    }
}

/// Installs `recorder` on the current thread until the guard drops; every
/// event and metric update made meanwhile lands in it (and in any
/// recorders already installed below it).
#[must_use = "the recorder uninstalls when the guard drops"]
pub fn install_recorder(recorder: Arc<Recorder>) -> RecorderGuard {
    RECORDERS.with(|r| r.borrow_mut().push(recorder));
    RecorderGuard {
        installed: 1,
        _not_send: PhantomData,
    }
}

/// Installs a whole stack of recorders at once.
#[must_use = "the recorders uninstall when the guard drops"]
pub fn install_recorders(recorders: &[Arc<Recorder>]) -> RecorderGuard {
    RECORDERS.with(|r| r.borrow_mut().extend(recorders.iter().cloned()));
    RecorderGuard {
        installed: recorders.len(),
        _not_send: PhantomData,
    }
}

/// The recorders installed on the current thread, bottom-up. A parallel
/// runner checks this before fan-out: when empty, per-item capture can be
/// skipped entirely.
pub fn current_recorders() -> Vec<Arc<Recorder>> {
    RECORDERS.with(|r| r.borrow().clone())
}

/// Appends `event` to every installed recorder. A no-op (and cheap) when
/// none is installed.
pub fn emit(event: Event) {
    RECORDERS.with(|r| {
        for rec in r.borrow().iter() {
            rec.push_event(event.clone());
        }
    });
}

/// Appends `span` to every installed recorder. Spans need no emission
/// ordering — [`SpanLog`] sorts canonically — but they ride the same
/// segment capture/replay machinery so parallel fan-out stays
/// byte-identical.
pub fn emit_span(span: Span) {
    RECORDERS.with(|r| {
        for rec in r.borrow().iter() {
            rec.push_span(span);
        }
    });
}

/// Applies `update` to the metrics of every installed recorder.
fn each_registry(update: impl Fn(&MetricsRegistry)) {
    RECORDERS.with(|r| {
        for rec in r.borrow().iter() {
            update(&rec.metrics);
        }
    });
}

/// Resolves a series by name, only when a recorder is installed, and
/// applies `update` with its handle to every installed recorder.
fn resolve_then<H: Copy>(resolve: impl FnOnce() -> H, update: impl Fn(&MetricsRegistry, H)) {
    RECORDERS.with(|r| {
        let recorders = r.borrow();
        if recorders.is_empty() {
            return;
        }
        let id = resolve();
        for rec in recorders.iter() {
            update(&rec.metrics, id);
        }
    });
}

impl CounterId {
    /// Adds `v` to this counter in every installed recorder.
    pub fn add(self, v: u64) {
        each_registry(|m| m.add(self, v));
    }
}

impl GaugeId {
    /// Raises this high-watermark gauge to `v` in every installed
    /// recorder.
    pub fn set(self, v: i64) {
        each_registry(|m| m.raise(self, v));
    }
}

impl HistogramId {
    /// Records `value` into this histogram in every installed recorder.
    pub fn observe(self, value: u64) {
        each_registry(|m| m.record(self, value));
    }

    /// Records every value of `values` into this histogram in every
    /// installed recorder: one stack walk and one lock per recorder for
    /// the whole batch, into the same cells a loop of
    /// [`observe`](Self::observe) fills. Histogram cells are order-free
    /// sums, so the exposition is the same either way; an empty slice
    /// touches nothing.
    pub fn observe_each(self, values: &[u64]) {
        each_registry(|m| m.record_each(self, values));
    }
}

/// Adds `v` to the counter `name{labels}` in every installed recorder.
/// Resolves the series only when a recorder is installed.
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    resolve_then(|| CounterId::new(name, labels), |m, id| m.add(id, v));
}

/// Raises the high-watermark gauge `name{labels}` in every installed
/// recorder.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: i64) {
    resolve_then(|| GaugeId::new(name, labels), |m, id| m.raise(id, v));
}

/// Records `value` into the histogram `name{labels}` (with the
/// [`DEFAULT_BUCKETS`](crate::DEFAULT_BUCKETS) layout) in every installed
/// recorder.
pub fn observe(name: &str, labels: &[(&str, &str)], value: u64) {
    resolve_then(
        || HistogramId::new(name, labels),
        |m, id| m.record(id, value),
    );
}

/// Restores the masked recorder stack even if the closure panics.
struct MaskGuard {
    saved: Vec<Arc<Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for MaskGuard {
    fn drop(&mut self) {
        RECORDERS.with(|r| *r.borrow_mut() = std::mem::take(&mut self.saved));
    }
}

/// Runs `f` with the current thread's recorder stack **masked** by one
/// fresh recorder, and returns `f`'s result together with everything it
/// recorded.
///
/// This is the worker half of deterministic parallel capture: each work
/// item records into its own segment, and the caller splices the segments
/// back in input order with [`replay`]. Masking (rather than pushing)
/// keeps the item's output out of any recorder already installed on the
/// thread — the output reaches those recorders exactly once, via replay.
pub fn record_segment<T>(f: impl FnOnce() -> T) -> (T, Segment) {
    let fresh = Arc::new(Recorder::new());
    let saved = RECORDERS.with(|r| std::mem::replace(&mut *r.borrow_mut(), vec![fresh.clone()]));
    let _restore = MaskGuard {
        saved,
        _not_send: PhantomData,
    };
    let result = f();
    drop(_restore);
    (result, fresh.take_segment())
}

/// Splices a captured [`Segment`] into every recorder installed on the
/// current thread: its events append in their recorded order, its metrics
/// merge ([`MetricsRegistry::merge_from`]).
pub fn replay(segment: Segment) {
    RECORDERS.with(|r| {
        for rec in r.borrow().iter() {
            for event in &segment.events {
                rec.push_event(event.clone());
            }
            for span in &segment.spans {
                rec.push_span(*span);
            }
            rec.metrics.merge_from(&segment.metrics);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SampleValue;
    use crate::span::Stage;

    fn ev(name: &str) -> Event {
        Event::RunStarted {
            name: name.to_string(),
        }
    }

    fn sp(job: u64) -> Span {
        Span {
            tenant: 0,
            job,
            stage: Stage::ShardExec,
            start: job,
            end: job + 1,
            ticks: 1,
        }
    }

    #[test]
    fn emit_feeds_every_installed_recorder_in_nesting_order() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        {
            let _g1 = install_recorder(outer.clone());
            emit(ev("a"));
            {
                let _g2 = install_recorder(inner.clone());
                emit(ev("b"));
            }
            emit(ev("c"));
        }
        emit(ev("after")); // nothing installed: dropped
        assert_eq!(outer.events(), vec![ev("a"), ev("b"), ev("c")]);
        assert_eq!(inner.events(), vec![ev("b")]);
    }

    #[test]
    fn metric_helpers_feed_every_installed_recorder() {
        let rec = Arc::new(Recorder::new());
        {
            let _g = install_recorder(rec.clone());
            counter_add("c_total", &[], 2);
            gauge_set("g", &[], 9);
            observe("h", &[], 3);
        }
        counter_add("c_total", &[], 100); // dropped
        let snap = rec.metrics().snapshot();
        assert_eq!(snap[0].value, SampleValue::Counter { value: 2 });
        assert_eq!(snap[1].value, SampleValue::Gauge { value: 9 });
        let SampleValue::Histogram { count, .. } = snap[2].value else {
            panic!("histogram expected");
        };
        assert_eq!(count, 1);
    }

    #[test]
    fn record_segment_masks_the_outer_stack_until_replay() {
        let outer = Arc::new(Recorder::new());
        let _g = install_recorder(outer.clone());
        let ((), seg) = record_segment(|| {
            emit(ev("inside"));
            emit_span(sp(7));
            counter_add("k", &[], 1);
        });
        // Nothing leaked while the segment was recording.
        assert!(outer.events().is_empty());
        assert!(outer.spans().is_empty());
        assert!(outer.metrics().is_empty());
        // The mask is gone: direct emission works again.
        emit(ev("direct"));
        replay(seg);
        assert_eq!(outer.events(), vec![ev("direct"), ev("inside")]);
        assert_eq!(outer.spans(), vec![sp(7)]);
        assert_eq!(
            outer.metrics().snapshot()[0].value,
            SampleValue::Counter { value: 1 }
        );
    }

    #[test]
    fn taking_a_segment_drains_the_recorder() {
        let rec = Recorder::new();
        rec.push_event(ev("e"));
        rec.push_span(sp(1));
        rec.metrics().counter_add("drained_total", &[], 3);
        let seg = rec.take_segment();
        assert!(!seg.is_empty());
        assert!(rec.events().is_empty());
        assert!(rec.spans().is_empty());
        assert!(rec.metrics().is_empty());
        assert!(rec.take_segment().is_empty());
    }

    #[test]
    fn record_segment_restores_the_stack_on_panic() {
        let outer = Arc::new(Recorder::new());
        let _g = install_recorder(outer.clone());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = record_segment(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        emit(ev("after-panic"));
        assert_eq!(outer.events(), vec![ev("after-panic")]);
    }

    #[test]
    fn parallel_capture_replayed_in_input_order_matches_serial() {
        let items: Vec<usize> = (0..8).collect();
        let work = |i: usize| {
            emit(ev(&format!("item-{i}")));
            emit_span(sp(i as u64));
            counter_add("items_total", &[], 1);
            observe("item_value", &[], i as u64);
            i * 2
        };

        // Serial reference.
        let serial = Arc::new(Recorder::new());
        {
            let _g = install_recorder(serial.clone());
            for &i in &items {
                work(i);
            }
        }

        // Parallel: capture segments on worker threads, replay in input
        // order on the caller (worker threads start with an empty stack,
        // exactly like `engine::parallel_map` workers do).
        let parallel = Arc::new(Recorder::new());
        {
            let _g = install_recorder(parallel.clone());
            let slot_cells: Vec<Mutex<Option<Segment>>> =
                items.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for (i, &item) in items.iter().enumerate() {
                    let cell = &slot_cells[i];
                    s.spawn(move || {
                        let (_out, seg) = record_segment(|| work(item));
                        *cell.lock().unwrap() = Some(seg);
                    });
                }
            });
            for cell in slot_cells {
                replay(cell.into_inner().unwrap().expect("segment captured"));
            }
        }

        assert_eq!(serial.log().to_jsonl(), parallel.log().to_jsonl());
        assert_eq!(serial.span_log().to_jsonl(), parallel.span_log().to_jsonl());
        assert_eq!(
            serde_json::to_string(&serial.metrics().snapshot()).unwrap(),
            serde_json::to_string(&parallel.metrics().snapshot()).unwrap()
        );
    }
}

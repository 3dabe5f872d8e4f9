//! The thread-local recorder stack: where events and metric updates land.
//!
//! A [`Recorder`] is installed on the current thread for a scope
//! ([`install_recorder`]), and every [`emit`]/[`emit_span`]/
//! [`counter_add`]/[`gauge_set`]/[`observe`] call made anywhere on that
//! thread while it is installed lands in it (and in any recorders
//! installed below it).
//!
//! Writes do not touch the recorders directly. Each thread keeps one
//! pending log in front of its stack: events and spans are appended to it
//! as compact records (see `codec`) in fixed
//! [`SEGMENT_BYTES`](crate::segments::SEGMENT_BYTES) segments,
//! and metric updates go into plain per-thread cells. So an update takes
//! no lock and walks no stack, and the log never regrows. The pending
//! writes move into every installed recorder at the thread's **flush
//! points**:
//!
//! * a stack boundary: [`install_recorder`]/[`install_recorders`], a
//!   [`RecorderGuard`] dropping, [`record_segment`] masking the stack and
//!   restoring it, and [`replay`];
//! * a read on the writing thread: [`Recorder::events`],
//!   [`Recorder::log`], [`Recorder::spans`], [`Recorder::span_log`] and
//!   [`Recorder::metrics`] flush the calling thread first.
//!
//! Between two flush points the stack is fixed, so every pending write
//! belongs to exactly the recorders installed when it was made. The last
//! recorder of the stack takes the pending log's full segments by move;
//! the others get a copy. A recorder sees a thread's writes once that
//! thread crosses a flush point: read it on the thread that writes it, or
//! after that thread's guard drops.
//!
//! Parallel fan-out must keep order. Unlike `crowd_core::trace`'s work
//! tally, a commutative sum credited back in any order, an event log is
//! *ordered*, so workers must not interleave. Instead, a worker wraps each
//! work item in [`record_segment`], which masks whatever is installed and
//! captures the item's output into a private [`Segment`]; the caller then
//! [`replay`]s the segments in input order after the join, splicing their
//! bytes. The result is byte-identical to running the items serially, at
//! any worker count.
//!
//! Metric updates come in two forms that land in the same cells. Hot
//! sites hold pre-registered handles and call [`CounterId::add`],
//! [`GaugeId::set`], [`HistogramId::observe`] or, for a batch of
//! per-judgment values, [`HistogramId::observe_each`]: one thread-local
//! access and one indexed write. Cold sites may call [`counter_add`],
//! [`gauge_set`] or [`observe`] with a name and labels, which resolve the
//! series through the process-wide interner first (see
//! [`crate::metrics`]'s rules).

use crate::codec::{self, Record, Records};
use crate::event::{Event, EventLog};
use crate::metrics::{CounterId, GaugeId, HistogramId, LocalCells, MetricsRegistry};
use crate::segments::Segments;
use crate::span::{Span, SpanLog};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

/// A collection point for events, spans, and metrics, scoped to a thread
/// via [`install_recorder`].
#[derive(Debug, Default)]
pub struct Recorder {
    /// Events and spans in emission order, as `codec` records.
    log: Mutex<Segments>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_log(&self) -> MutexGuard<'_, Segments> {
        self.log.lock().expect("recorder log poisoned")
    }

    /// The decoded records, after flushing the calling thread's writes.
    fn records<T>(&self, pick: impl FnMut(Record) -> Option<T>) -> Vec<T> {
        flush_this_thread();
        let log = self.lock_log();
        Records::new(log.chunks()).filter_map(pick).collect()
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.records(|r| match r {
            Record::Event(e) => Some(e),
            Record::Span(_) => None,
        })
    }

    /// The recorded events as a sequence-numbered [`EventLog`] — the
    /// logical clock is assigned here, at serialization time.
    pub fn log(&self) -> EventLog {
        EventLog::from_events(self.events())
    }

    /// The spans recorded so far, in emission order.
    pub fn spans(&self) -> Vec<Span> {
        self.records(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
    }

    /// The recorded spans as a canonically sorted [`SpanLog`] — sorting
    /// happens here, so the serialized log is order-insensitive.
    pub fn span_log(&self) -> SpanLog {
        SpanLog::from_spans(self.spans())
    }

    /// The recorder's metrics registry, after flushing the calling
    /// thread's updates.
    pub fn metrics(&self) -> &MetricsRegistry {
        flush_this_thread();
        &self.metrics
    }

    /// Bytes the recorder's event and span log holds, after flushing the
    /// calling thread's writes.
    pub fn log_bytes(&self) -> usize {
        flush_this_thread();
        self.lock_log().len()
    }

    /// Drains the recorder into a [`Segment`], leaving it empty.
    fn take_segment(&self) -> Segment {
        let mut log = std::mem::take(&mut *self.lock_log());
        log.shrink_to_fit();
        Segment {
            log,
            metrics: self.metrics.take(),
        }
    }
}

/// One work item's buffered observability output: the events and spans
/// it emitted, in order, plus its metric updates. Produced by
/// [`record_segment`] on a worker thread, spliced back with [`replay`] on
/// the caller's.
#[derive(Debug, Default)]
pub struct Segment {
    log: Segments,
    metrics: MetricsRegistry,
}

impl Segment {
    /// True when the segment recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty() && self.metrics.is_empty()
    }
}

/// A thread's recorder stack and the writes it has not yet flushed to it.
struct Local {
    /// The installed recorders, bottom-up.
    stack: Vec<Arc<Recorder>>,
    /// Events and spans since the last flush point.
    log: Segments,
    /// Metric updates since the last flush point.
    cells: LocalCells,
    /// Reused buffer one record is encoded into.
    scratch: Vec<u8>,
}

impl Local {
    /// Appends one record, when a recorder is installed to receive it.
    fn write(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.stack.is_empty() {
            return;
        }
        self.scratch.clear();
        encode(&mut self.scratch);
        self.log.extend(&self.scratch);
    }

    /// Moves the pending writes into every installed recorder: a copy of
    /// the log to all but the last, the log itself to the last.
    fn flush(&mut self) {
        let Some((last, below)) = self.stack.split_last() else {
            return;
        };
        if !self.log.is_empty() {
            for rec in below {
                rec.lock_log().extend_from(&self.log);
            }
            last.lock_log().append(&mut self.log);
        }
        if !self.cells.is_clean() {
            for rec in &self.stack {
                rec.metrics.absorb(&self.cells);
            }
            self.cells.reset();
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            log: Segments::new(),
            cells: LocalCells::new(),
            scratch: Vec::new(),
        })
    };
}

/// Runs `f` on this thread's stack and pending writes.
fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> T {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Flushes this thread's pending writes into its installed recorders. A
/// no-op while the thread-local is being torn down.
fn flush_this_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Uninstalls the recorders its [`install_recorder`]/[`install_recorders`]
/// call pushed, when dropped, after flushing the thread's writes into
/// them. Not `Send`: the guard must drop on the installing thread.
#[derive(Debug)]
pub struct RecorderGuard {
    installed: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        with_local(|l| {
            l.flush();
            let keep = l.stack.len().saturating_sub(self.installed);
            l.stack.truncate(keep);
        });
    }
}

/// Installs `recorder` on the current thread until the guard drops; every
/// event and metric update made meanwhile lands in it (and in any
/// recorders already installed below it).
#[must_use = "the recorder uninstalls when the guard drops"]
pub fn install_recorder(recorder: Arc<Recorder>) -> RecorderGuard {
    install_recorders(std::slice::from_ref(&recorder))
}

/// Installs a whole stack of recorders at once.
#[must_use = "the recorders uninstall when the guard drops"]
pub fn install_recorders(recorders: &[Arc<Recorder>]) -> RecorderGuard {
    with_local(|l| {
        l.flush();
        l.stack.extend(recorders.iter().cloned());
    });
    RecorderGuard {
        installed: recorders.len(),
        _not_send: PhantomData,
    }
}

/// The recorders installed on the current thread, bottom-up. A parallel
/// runner checks this before fan-out: when empty, per-item capture can be
/// skipped entirely.
pub fn current_recorders() -> Vec<Arc<Recorder>> {
    with_local(|l| l.stack.clone())
}

/// Appends `event` to every installed recorder. A no-op (and cheap) when
/// none is installed.
pub fn emit(event: Event) {
    with_local(|l| l.write(|out| codec::encode_event(&event, out)));
}

/// Appends `span` to every installed recorder. Spans need no emission
/// ordering — [`SpanLog`] sorts canonically — but they ride the same
/// segment capture/replay machinery so parallel fan-out stays
/// byte-identical.
pub fn emit_span(span: Span) {
    with_local(|l| l.write(|out| codec::encode_span(&span, out)));
}

/// Applies `update` to this thread's pending cells, only when a recorder
/// is installed to receive it.
fn update_cells(update: impl FnOnce(&mut LocalCells)) {
    with_local(|l| {
        if !l.stack.is_empty() {
            update(&mut l.cells);
        }
    });
}

impl CounterId {
    /// Adds `v` to this counter in every installed recorder.
    pub fn add(self, v: u64) {
        update_cells(|c| c.add(self, v));
    }
}

impl GaugeId {
    /// Raises this high-watermark gauge to `v` in every installed
    /// recorder.
    pub fn set(self, v: i64) {
        update_cells(|c| c.raise(self, v));
    }
}

impl HistogramId {
    /// Records `value` into this histogram in every installed recorder.
    pub fn observe(self, value: u64) {
        self.observe_each(&[value]);
    }

    /// Records every value of `values` into this histogram in every
    /// installed recorder, into the same cells a loop of
    /// [`observe`](Self::observe) fills. Histogram cells are order-free
    /// sums, so the exposition is the same either way; an empty slice
    /// touches nothing.
    pub fn observe_each(self, values: &[u64]) {
        update_cells(|c| c.record_each(self, values));
    }
}

/// Adds `v` to the counter `name{labels}` in every installed recorder.
/// Resolves the series only when a recorder is installed.
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    update_cells(|c| c.add(CounterId::new(name, labels), v));
}

/// Raises the high-watermark gauge `name{labels}` in every installed
/// recorder.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: i64) {
    update_cells(|c| c.raise(GaugeId::new(name, labels), v));
}

/// Records `value` into the histogram `name{labels}` (with the
/// [`DEFAULT_BUCKETS`](crate::DEFAULT_BUCKETS) layout) in every installed
/// recorder.
pub fn observe(name: &str, labels: &[(&str, &str)], value: u64) {
    update_cells(|c| c.record_each(HistogramId::new(name, labels), &[value]));
}

/// Restores the masked recorder stack even if the closure panics,
/// flushing the masked item's writes first.
struct MaskGuard {
    saved: Vec<Arc<Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for MaskGuard {
    fn drop(&mut self) {
        with_local(|l| {
            l.flush();
            l.stack = std::mem::take(&mut self.saved);
        });
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
    let saved = with_local(|l| {
        l.flush();
        std::mem::replace(&mut l.stack, vec![fresh.clone()])
    });
    let _restore = MaskGuard {
        saved,
        _not_send: PhantomData,
    };
    let result = f();
    drop(_restore);
    (result, fresh.take_segment())
}

/// Splices a captured [`Segment`] into every recorder installed on the
/// current thread, after the thread's own pending writes: its events and
/// spans append in their recorded order, its metrics merge
/// ([`MetricsRegistry::merge_from`]). The last recorder takes the
/// segment's bytes by move.
pub fn replay(mut segment: Segment) {
    with_local(|l| {
        l.flush();
        let Some((last, below)) = l.stack.split_last() else {
            return;
        };
        for rec in below {
            rec.lock_log().extend_from(&segment.log);
            rec.metrics.merge_from(&segment.metrics);
        }
        last.lock_log().append(&mut segment.log);
        last.metrics.merge_from(&segment.metrics);
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
        let rec = Arc::new(Recorder::new());
        {
            let _g = install_recorder(rec.clone());
            emit(ev("e"));
            emit_span(sp(1));
            counter_add("drained_total", &[], 3);
        }
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

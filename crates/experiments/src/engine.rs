//! Deterministic parallel execution of independent work items.
//!
//! Everything the experiments fan out — whole experiments in
//! [`run_experiments`](crate::run_experiments), seed replications in
//! [`harness::average_rank`](crate::harness::average_rank) — is a list of
//! items whose results depend only on the item (each carries its own seed),
//! never on execution order. [`parallel_map`] exploits that: items are
//! claimed from a shared counter by up to [`jobs`] scoped threads
//! (`std::thread::scope`, no dependencies) and results land in
//! per-item slots, so the returned `Vec` is in input order and
//! **byte-identical** to what a serial run produces, at any job count.
//!
//! The job count is a process-wide setting (`--jobs N` on the `repro`
//! binary): `0` (the default) means one thread per available core,
//! `1` forces the serial path (no threads are spawned at all).
//!
//! Each worker thread's work tally ([`crowd_core::trace::tallied`]) is
//! [`credit`](crowd_core::trace::credit)ed to the caller after the join, so
//! comparison and fault totals keep attributing to the experiment that
//! logically owns the work even when several experiments run concurrently.
//! Tallies are commutative sums, so the order of the hand-back is free.
//!
//! [`Recorder`](crowd_obs::Recorder) output is ordered, so it is handed
//! back in input order instead. When the caller has recorders installed,
//! each item runs inside [`crowd_obs::record_segment`] on its worker
//! thread and the captured segments are [`crowd_obs::replay`]ed in input
//! order after the join — so the caller's event log (and metrics) are
//! byte-identical to the serial run's, at any job count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `0` = use all available cores.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count; `0` restores the default
/// (one worker per available core).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker count: the value of [`set_jobs`], or the number of
/// available cores when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Maps `f` over `items` on up to [`jobs`] threads, returning results in
/// input order.
///
/// With one worker (or one item) this runs inline on the calling thread —
/// exactly the serial loop. With more, items are claimed in order from an
/// atomic counter; because `f(item)` must not depend on execution order
/// (every experiment seeds its own RNGs), the output is identical either
/// way.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller (from the serial path
/// directly, from the parallel path when the thread scope joins).
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    // Spawning more CPU-bound workers than the machine has cores is pure
    // scheduling overhead (the work is deterministic either way), so the
    // requested job count is capped at the available parallelism.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = jobs().min(items.len()).min(cores);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Observability capture: when the caller has recorders installed, each
    // item's events and metrics are buffered in a per-item segment on the
    // worker thread and replayed below in input order, so the caller's
    // event log is byte-identical to a serial run. With no recorder
    // installed (the common case) nothing is captured at all.
    let capture = !crowd_obs::current_recorders().is_empty();
    let next = AtomicUsize::new(0);
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let segments: Vec<Mutex<Option<crowd_obs::Segment>>> =
        work.iter().map(|_| Mutex::new(None)).collect();

    let run_worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= work.len() {
            break;
        }
        let item = work[i]
            .lock()
            .expect("work slot poisoned")
            .take()
            .expect("each index is claimed exactly once");
        let result = if capture {
            let (result, segment) = crowd_obs::record_segment(|| f(item));
            *segments[i].lock().expect("segment slot poisoned") = Some(segment);
            result
        } else {
            f(item)
        };
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| crowd_core::trace::tallied(run_worker).1))
            .collect();
        for handle in handles {
            let tally = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            crowd_core::trace::credit(tally);
        }
    });

    if capture {
        for segment in segments {
            if let Some(segment) = segment.into_inner().expect("segment slot poisoned") {
                crowd_obs::replay(segment);
            }
        }
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index stored a result")
        })
        .collect()
}

#[cfg(test)]
/// Serializes tests that touch the process-wide job count.
pub(crate) static JOBS_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::model::WorkerClass;
    use std::sync::Arc;

    #[test]
    fn results_are_in_input_order() {
        let _l = JOBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(items.clone(), |x| x * x);
        set_jobs(4);
        let parallel = parallel_map(items, |x| x * x);
        set_jobs(0);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = parallel_map(Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn jobs_defaults_to_available_cores() {
        let _l = JOBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }

    #[test]
    fn recorder_capture_is_byte_identical_across_job_counts() {
        use crowd_obs::{install_recorder, Event, Recorder, SampleValue};
        let _l = JOBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let work = |i: u32| {
            crowd_obs::emit(Event::RunStarted {
                name: format!("item-{i}"),
            });
            crowd_obs::counter_add("engine_items_total", &[], 1);
            crowd_obs::observe("engine_item_value", &[], u64::from(i));
            i * 3
        };

        let run_with = |jobs: usize| {
            set_jobs(jobs);
            let rec = Arc::new(Recorder::new());
            let out = {
                let _g = install_recorder(rec.clone());
                parallel_map((0..16u32).collect(), work)
            };
            set_jobs(0);
            (out, rec)
        };

        let (out1, rec1) = run_with(1);
        let (out4, rec4) = run_with(4);
        assert_eq!(out1, out4);
        assert_eq!(rec1.log().to_jsonl(), rec4.log().to_jsonl());
        assert_eq!(rec1.metrics().snapshot(), rec4.metrics().snapshot());
        assert_eq!(
            rec4.metrics().snapshot()[1].value,
            SampleValue::Counter { value: 16 }
        );
    }

    #[test]
    fn worker_tallies_reach_the_caller() {
        use crowd_core::element::Instance;
        use crowd_core::oracle::{ComparisonOracle, PerfectOracle};
        use crowd_core::trace::{tallied, FaultCounts, FaultKind};
        let _l = JOBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(4);
        let ((), tally) = tallied(|| {
            let _ = parallel_map((0..8u32).collect(), |_| {
                let inst = Instance::new(vec![1.0, 2.0, 3.0]);
                let mut o = PerfectOracle::new(inst.clone());
                o.compare(WorkerClass::Naive, inst.ids()[0], inst.ids()[1]);
                FaultCounts::zero().record(WorkerClass::Expert, FaultKind::Timeout);
            });
        });
        set_jobs(0);
        assert_eq!(tally.comparisons.naive, 8);
        assert_eq!(tally.faults.expert.timeouts, 8);
    }
}

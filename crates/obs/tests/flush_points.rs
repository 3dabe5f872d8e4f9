//! The recorder's visibility contract.
//!
//! A thread's events, spans and metric updates wait in its pending log
//! and move into the installed recorders at flush points: installs, guard
//! drops, `record_segment`'s mask and unmask, `replay`, and reads made on
//! the writing thread. So a recorder read on its installing thread
//! mid-run, or on any thread once the writer's guard has dropped, sees
//! every write in order, whatever is nested inside the stack.

use crowd_obs::{
    counter_add, emit, emit_span, install_recorder, record_segment, replay, Event, Recorder,
    SampleValue, Span, Stage,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

fn ev(name: &str) -> Event {
    Event::RunStarted {
        name: name.to_string(),
    }
}

fn evs(names: &[&str]) -> Vec<Event> {
    names.iter().map(|n| ev(n)).collect()
}

fn sp(job: u64) -> Span {
    Span {
        tenant: 1,
        job,
        stage: Stage::ShardExec,
        start: job,
        end: job + 1,
        ticks: 1,
    }
}

fn count(rec: &Recorder) -> u64 {
    match rec.metrics().snapshot().as_slice() {
        [] => 0,
        [sample] => match sample.value {
            SampleValue::Counter { value } => value,
            ref other => panic!("not a counter: {other:?}"),
        },
        more => panic!("one series expected: {more:?}"),
    }
}

/// Emits `name` and counts it.
fn write(name: &str) {
    emit(ev(name));
    counter_add("contract_writes_total", &[], 1);
}

#[test]
fn every_write_is_seen_in_order_at_each_flush_point() {
    let outer = Arc::new(Recorder::new());
    let inner = Arc::new(Recorder::new());
    let nested = Arc::new(Recorder::new());
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let (finish_tx, finish_rx) = mpsc::channel::<()>();

    let writer = {
        let (outer, inner, nested) = (outer.clone(), inner.clone(), nested.clone());
        thread::spawn(move || {
            let outer_guard = install_recorder(outer.clone());
            write("a");
            // A read on the installing thread flushes it first.
            assert_eq!(outer.events(), evs(&["a"]));
            assert_eq!(count(&outer), 1);
            {
                let _inner_guard = install_recorder(inner.clone());
                write("b");
                emit_span(sp(1));
                let ((), segment) = record_segment(|| {
                    write("c");
                    let _nested_guard = install_recorder(nested.clone());
                    write("d");
                    emit_span(sp(2));
                });
                // Masked: the segment's writes are nowhere yet but in
                // the recorder installed inside it.
                assert_eq!(inner.events(), evs(&["b"]));
                assert_eq!(outer.events(), evs(&["a", "b"]));
                assert_eq!(nested.events(), evs(&["d"]));
                write("e");
                replay(segment);
                write("f");
                assert_eq!(inner.events(), evs(&["b", "e", "c", "d", "f"]));
                assert_eq!(inner.spans(), vec![sp(1), sp(2)]);
                assert_eq!(count(&inner), 5);
            }
            write("g");
            assert_eq!(outer.events(), evs(&["a", "b", "e", "c", "d", "f", "g"]));
            drop(outer_guard);
            // Nothing is installed: this write goes nowhere.
            write("dropped");
            dropped_tx.send(()).expect("reader waits");
            finish_rx.recv().expect("reader answers");
        })
    };

    // The writer is still alive, its guards dropped: everything is in.
    dropped_rx.recv().expect("writer reports");
    assert_eq!(outer.events(), evs(&["a", "b", "e", "c", "d", "f", "g"]));
    assert_eq!(outer.spans(), vec![sp(1), sp(2)]);
    assert_eq!(count(&outer), 7);
    assert_eq!(inner.events(), evs(&["b", "e", "c", "d", "f"]));
    assert_eq!(count(&inner), 5);
    assert_eq!(nested.events(), evs(&["d"]));
    assert_eq!(nested.spans(), vec![sp(2)]);
    assert_eq!(count(&nested), 1);
    finish_tx.send(()).expect("writer waits");
    writer.join().expect("writer's checks pass");
    assert_eq!(
        count(&outer),
        7,
        "the write after the guard dropped is lost"
    );
}

#[test]
fn a_write_reaches_every_recorder_installed_when_it_was_made() {
    let bottom = Arc::new(Recorder::new());
    let top = Arc::new(Recorder::new());
    let _b = install_recorder(bottom.clone());
    write("1");
    let t = install_recorder(top.clone());
    write("2");
    // Reading the bottom recorder flushes the pending write into both.
    assert_eq!(bottom.events(), evs(&["1", "2"]));
    write("3");
    drop(t);
    write("4");
    assert_eq!(top.events(), evs(&["2", "3"]));
    assert_eq!(bottom.events(), evs(&["1", "2", "3", "4"]));
    assert_eq!((count(&bottom), count(&top)), (4, 2));
}

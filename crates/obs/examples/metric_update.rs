//! Prices one metric update: the string API against pre-registered
//! handles, through an installed recorder holding ~30 live series.
//!
//! ```text
//! cargo run --release -p crowd-obs --example metric_update [-- ITERATIONS]
//! ```
//!
//! Prints nanoseconds per update for a histogram observe and a
//! two-label counter add, each by name and by handle, and per value for
//! a handle's `observe_each` over 8-value batches (how the platform
//! flushes a job's latencies). Timings depend on the machine; compare
//! runs made on one host.

use crowd_core::model::WorkerClass;
use crowd_core::trace::{DeadLetterReason, FaultKind};
use crowd_obs::{install_recorder, names, series, Recorder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs `update` for `iterations` values and returns ns per call.
fn ns_per_update(iterations: u64, mut update: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        update(black_box(i & 1023));
    }
    started.elapsed().as_nanos() as f64 / iterations as f64
}

fn main() {
    let iterations: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("ITERATIONS is a positive integer"))
        .unwrap_or(20_000_000);
    let recorder = Arc::new(Recorder::new());
    let _guard = install_recorder(recorder.clone());

    // Touch the platform's per-class series, as a fault-injected run does.
    for class in WorkerClass::ALL {
        series::latency_steps(class).observe(1);
        series::retry_depth(class).observe(1);
        for kind in FaultKind::ALL {
            series::faults(class, kind).add(1);
        }
        for reason in DeadLetterReason::ALL {
            series::dead_letters(class, reason).add(1);
        }
    }
    series::retry_depth_max().set(1);
    for counter in [
        series::cache_hits(),
        series::cache_misses(),
        series::cache_evictions(),
    ] {
        counter.add(1);
    }
    let live = recorder.metrics().snapshot().len();

    let class = crowd_obs::class_label(WorkerClass::Naive);
    let kind = crowd_obs::kind_label(FaultKind::Timeout);
    let latency = series::latency_steps(WorkerClass::Naive);
    let faults = series::faults(WorkerClass::Naive, FaultKind::Timeout);
    let rows = [
        (
            "string observe",
            ns_per_update(iterations, |v| {
                crowd_obs::observe(names::LATENCY_STEPS, &[("class", class)], v)
            }),
        ),
        (
            "handle observe",
            ns_per_update(iterations, |v| latency.observe(v)),
        ),
        (
            "handle observe_each (8/batch)",
            ns_per_update(iterations / 8, |v| {
                latency.observe_each(&std::array::from_fn::<u64, 8, _>(|i| v + i as u64))
            }) / 8.0,
        ),
        (
            "string counter_add (2 labels)",
            ns_per_update(iterations, |v| {
                crowd_obs::counter_add(names::FAULTS_TOTAL, &[("kind", kind), ("class", class)], v)
            }),
        ),
        (
            "handle counter add",
            ns_per_update(iterations, |v| faults.add(v)),
        ),
    ];
    println!("{live} live series, {iterations} updates per row");
    for (what, ns) in rows {
        println!("{what:<30} {ns:>7.1} ns/update");
    }
}

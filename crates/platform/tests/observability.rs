//! Integration tests of the platform's observability instrumentation: the
//! events and metrics a platform job feeds into `crowd-obs` recorders.

use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_obs::{names, render_json, render_prometheus, Event, Recorder};
use crowd_platform::{
    FaultConfig, LatencyModel, Platform, PlatformConfig, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn pool_with(naive: usize, experts: usize) -> WorkerPool {
    let mut p = WorkerPool::new();
    p.hire_naive_crowd(naive, 5.0, 0.05);
    p.hire_expert_panel(experts, 0.5, 0.0);
    p
}

fn pairs(n: usize, count: usize) -> Vec<(ElementId, ElementId)> {
    (0..count)
        .map(|i| {
            let a = (i % n) as u32;
            let b = ((i + 1) % n) as u32;
            (ElementId(a), ElementId(b))
        })
        .collect()
}

/// Runs the same small campaign under `config` with a recorder installed
/// and returns the (event log JSONL, Prometheus text, metrics JSON) it
/// produced.
fn run_recorded(config: PlatformConfig, seed: u64) -> (String, String, String) {
    let n = 12;
    let instance = Instance::new((0..n).map(|i| i as f64 * 3.0).collect());
    let rec = Arc::new(Recorder::new());
    {
        let _g = crowd_obs::install_recorder(rec.clone());
        let mut platform = Platform::new(
            instance,
            pool_with(8, 3),
            config,
            StdRng::seed_from_u64(seed),
        );
        platform
            .submit_comparisons(&pairs(n, 6), WorkerClass::Naive)
            .unwrap();
        platform
            .submit_comparisons(&pairs(n, 3), WorkerClass::Expert)
            .unwrap();
    }
    let snapshot = rec.metrics().snapshot();
    (
        rec.log().to_jsonl(),
        render_prometheus(&snapshot),
        render_json(&snapshot),
    )
}

/// A `FaultPlan` whose every rate is zero must be observationally
/// indistinguishable from the fault-free platform: same event log, byte
/// for byte, and the same metric expositions.
#[test]
fn zero_rate_fault_plan_is_byte_identical_to_fault_free() {
    let fault_free = PlatformConfig::paper_default().without_gold();
    let zero_rate = PlatformConfig::paper_default().without_gold().with_faults(
        FaultConfig::none()
            .with_dropout(0.0)
            .with_abandon(0.0)
            .with_no_answer(0.0)
            .with_latency(LatencyModel::Instant),
        0xDEAD_BEEF, // an armed plan with nothing to arm it with
    );
    let (log_a, prom_a, json_a) = run_recorded(fault_free, 7);
    let (log_b, prom_b, json_b) = run_recorded(zero_rate, 7);
    assert_eq!(log_a, log_b, "event logs must be byte-identical");
    assert_eq!(prom_a, prom_b, "metric expositions must be byte-identical");
    assert_eq!(json_a, json_b, "metric JSON twins must be byte-identical");
    // And neither log reports any fault.
    assert!(!log_a.contains("FaultObserved"), "{log_a}");
    assert!(!log_a.contains("RetryScheduled"), "{log_a}");
    assert!(!log_a.contains("DeadLettered"), "{log_a}");
}

/// Under an aggressive fault plan, the recorder's fault counter reconciles
/// exactly with the platform's own `FaultCounts` tally.
#[test]
fn fault_counter_reconciles_with_platform_tally() {
    let n = 12;
    let instance = Instance::new((0..n).map(|i| i as f64 * 3.0).collect());
    let config = PlatformConfig::paper_default().without_gold().with_faults(
        FaultConfig::none()
            .with_dropout(0.1)
            .with_abandon(0.15)
            .with_no_answer(0.2)
            .with_latency(LatencyModel::Geometric { p: 0.5, cap: 8 })
            .with_timeout_steps(3),
        99,
    );
    let rec = Arc::new(Recorder::new());
    let fault_total = {
        let _g = crowd_obs::install_recorder(rec.clone());
        let mut platform = Platform::new(
            instance,
            pool_with(10, 3),
            config,
            StdRng::seed_from_u64(21),
        );
        for round in 0..4 {
            let _ = platform.submit_comparisons(&pairs(n, 5 + round), WorkerClass::Naive);
        }
        platform.fault_counts().total()
    };
    assert!(fault_total > 0, "the plan must actually inject faults");
    let counter_total: u64 = rec
        .metrics()
        .snapshot()
        .iter()
        .filter(|s| s.name == names::FAULTS_TOTAL)
        .map(|s| match &s.value {
            crowd_obs::SampleValue::Counter { value } => *value,
            other => panic!("crowd_faults_total must be a counter, got {other:?}"),
        })
        .sum();
    assert_eq!(counter_total, fault_total);
    // Retries carry their attempt number and backoff; the generic fault
    // event never duplicates them.
    let log = rec.log();
    let retries = log
        .events()
        .filter(|e| matches!(e, Event::RetryScheduled { .. }))
        .count() as u64;
    let fault_observed_retries = log
        .events()
        .filter(|e| {
            matches!(
                e,
                Event::FaultObserved {
                    kind: crowd_core::trace::FaultKind::Retry,
                    ..
                }
            )
        })
        .count();
    assert_eq!(fault_observed_retries, 0);
    let tally = {
        // Re-derive the per-kind retry tally from the counter labels.
        rec.metrics()
            .snapshot()
            .iter()
            .filter(|s| s.name == names::FAULTS_TOTAL)
            .filter(|s| {
                s.labels
                    .iter()
                    .any(|l| l.name == "kind" && l.value == "retry")
            })
            .map(|s| match &s.value {
                crowd_obs::SampleValue::Counter { value } => *value,
                _ => 0,
            })
            .sum::<u64>()
    };
    assert_eq!(retries, tally);
}

/// Usable judgments land in the per-class latency histogram; dead-lettered
/// units land in the dead-letter counter and event stream.
#[test]
fn latency_and_dead_letter_instrumentation() {
    let n = 12;
    let instance = Instance::new((0..n).map(|i| i as f64 * 3.0).collect());
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(
            FaultConfig::none()
                .with_no_answer(0.5)
                .with_latency(LatencyModel::Geometric { p: 0.6, cap: 5 }),
            4242,
        )
        .with_retry(RetryPolicy::paper_default().with_max_retries(0));
    let rec = Arc::new(Recorder::new());
    {
        let _g = crowd_obs::install_recorder(rec.clone());
        let mut platform =
            Platform::new(instance, pool_with(8, 3), config, StdRng::seed_from_u64(17));
        let _ = platform.submit_comparisons(&pairs(n, 8), WorkerClass::Naive);
    }
    let snap = rec.metrics().snapshot();
    let latency = snap.iter().find(|s| s.name == names::LATENCY_STEPS);
    let dead = snap.iter().find(|s| s.name == names::DEAD_LETTERS_TOTAL);
    let dead_events = rec
        .log()
        .events()
        .filter(|e| matches!(e, Event::DeadLettered { .. }))
        .count();
    // With a 50% no-answer rate and no retries some units must die; the
    // ones that answered still record latencies.
    assert!(latency.is_some(), "latency histogram expected: {snap:?}");
    match dead {
        Some(sample) => {
            let crowd_obs::SampleValue::Counter { value } = sample.value else {
                panic!("dead-letter metric must be a counter");
            };
            assert_eq!(value as usize, dead_events);
            assert!(dead_events > 0);
        }
        None => assert_eq!(dead_events, 0),
    }
}

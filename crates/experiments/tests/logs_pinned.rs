//! Pins span and event logs across commits.
//!
//! CI diffs `spans.jsonl` and `events.jsonl` between job counts at one
//! commit, which cannot see a change that moves both sides alike — a
//! stage-attribution rewrite that goes wrong the same way at every job
//! count, say. These tests run quick experiments and pin the FNV-1a hash
//! and byte length of their logs: `serve_sweep`'s span and event logs,
//! and `fault_sweep`'s event log. The latter holds every fault, retry and
//! dead letter its trials' platforms report through `try_expert_max_find`,
//! which stops at the first error and asks no worker after it: a driver
//! that kept asking would move it. A deliberate change to a log updates
//! its pin and says why.
//!
//! The batch stack's write-ahead journal is pinned the same way, over a
//! fault sweep trial platform under a `JournaledOracle`. Its `Completed`
//! records hold each batch's workers and fault stream position, so a
//! change to any fault fate (a latency that moves a timeout, a retry or a
//! reassignment) moves its bytes.

use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig};
use crowd_experiments::fault_sweep::trial_platform;
use crowd_experiments::{run_experiments, Scale};
use crowd_platform::journal::fnv1a64;
use crowd_platform::{CheckpointPolicy, JournaledOracle};

/// Runs one quick experiment into a fresh temp dir and returns the
/// `"<hash> (<len> bytes)"` pin of each named log.
fn pins<const N: usize>(experiment: &str, files: [&str; N]) -> [String; N] {
    let dir = std::env::temp_dir().join(format!(
        "crowd_logs_pin_{experiment}_{}",
        std::process::id()
    ));
    run_experiments(&[experiment.to_string()], &Scale::quick(), &dir).expect("experiment runs");
    let pins = files.map(|file| {
        let bytes = std::fs::read(dir.join(file)).expect("log written");
        format!("{:#018x} ({} bytes)", fnv1a64(&bytes), bytes.len())
    });
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    pins
}

#[test]
fn quick_serve_sweep_writes_pinned_span_and_event_logs() {
    let [spans, events] = pins("serve_sweep", ["spans.jsonl", "events.jsonl"]);
    assert_eq!(spans, "0x7cbb013cbab89315 (482919 bytes)");
    assert_eq!(events, "0x75f0e5622b5720a7 (768297 bytes)");
}

#[test]
fn quick_fault_sweep_writes_a_pinned_event_log() {
    let [events] = pins("fault_sweep", ["events.jsonl"]);
    assert_eq!(events, "0xe468e42f43177f89 (773274 bytes)");
}

/// Runs Algorithm 1 over trial `t` of the fault sweep's platform at `rate`
/// (n = 600, un = 6), journaled at every batch, and returns the journal's
/// pin and whether the run finished.
fn journal_pin(rate: f64, t: u64) -> (String, bool) {
    let base_seed = 0xFA0;
    let (planted, platform, mut rng) = trial_platform(600, 6, rate, base_seed, t);
    let mut oracle = JournaledOracle::new(
        platform,
        "fault_sweep",
        base_seed,
        CheckpointPolicy::every_batch(),
    );
    let finished = try_expert_max_find(
        &mut oracle,
        &planted.instance.ids(),
        &ExpertMaxConfig::new(6),
        &mut rng,
    )
    .is_ok();
    oracle.finish();
    let bytes = oracle.journal().durable().to_vec();
    let pin = format!("{:#018x} ({} bytes)", fnv1a64(&bytes), bytes.len());
    (pin, finished)
}

#[test]
fn faulty_batch_journals_are_pinned() {
    // 765 batches; no-answers, timeouts and retries, no dead letter.
    assert_eq!(
        journal_pin(0.01, 0),
        ("0x46a2b4196398dfe6 (319080 bytes)".to_string(), true)
    );
    // Every trial at 20% dead-letters within a few dozen batches; this
    // one lasts 40, the longest of the first 24.
    assert_eq!(
        journal_pin(0.2, 22),
        ("0xd4e3b9a52393c520 (15991 bytes)".to_string(), false)
    );
}

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

use crowd_experiments::{run_experiments, Scale};
use crowd_platform::journal::fnv1a64;

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

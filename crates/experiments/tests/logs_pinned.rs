//! Pins the serve stack's span and event logs across commits.
//!
//! CI diffs `spans.jsonl` and `events.jsonl` between job counts at one
//! commit, which cannot see a change that moves both sides alike — a
//! stage-attribution rewrite that goes wrong the same way at every job
//! count, say. This test runs quick `serve_sweep` and pins the FNV-1a
//! hash and byte length of both logs. A deliberate change to either log
//! updates the pins and says why.

use crowd_experiments::{run_experiments, Scale};
use crowd_platform::journal::fnv1a64;

#[test]
fn quick_serve_sweep_writes_pinned_span_and_event_logs() {
    let dir = std::env::temp_dir().join(format!("crowd_logs_pin_{}", std::process::id()));
    run_experiments(&["serve_sweep".to_string()], &Scale::quick(), &dir).expect("experiment runs");
    let hash = |file: &str| {
        let bytes = std::fs::read(dir.join(file)).expect("log written");
        format!("{:#018x} ({} bytes)", fnv1a64(&bytes), bytes.len())
    };
    let (spans, events) = (hash("spans.jsonl"), hash("events.jsonl"));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_eq!(spans, "0x7cbb013cbab89315 (482919 bytes)");
    assert_eq!(events, "0x75f0e5622b5720a7 (768297 bytes)");
}

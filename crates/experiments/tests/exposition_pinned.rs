//! Pins the metrics exposition across commits.
//!
//! CI diffs `metrics.prom` between job counts at one commit, which
//! cannot see a change that moves both sides alike. This test runs the
//! two experiments that drive the platform and the service hardest at
//! the quick scale and pins the FNV-1a hash of both exposition files, so
//! any drift in names, labels, values, bucket layouts or ordering fails
//! here. A deliberate change to the exposition updates the pins and says
//! why.

use crowd_experiments::{run_experiments, Scale};
use crowd_platform::journal::fnv1a64;

#[test]
fn quick_fault_and_serve_sweeps_expose_pinned_metrics() {
    let dir = std::env::temp_dir().join(format!("crowd_exposition_pin_{}", std::process::id()));
    let names = ["fault_sweep".to_string(), "serve_sweep".to_string()];
    run_experiments(&names, &Scale::quick(), &dir).expect("experiments run");
    let hash = |file: &str| {
        let bytes = std::fs::read(dir.join(file)).expect("exposition written");
        format!("{:#018x} ({} bytes)", fnv1a64(&bytes), bytes.len())
    };
    let (prom, json) = (hash("metrics.prom"), hash("metrics.json"));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_eq!(prom, "0x6c3d1614463287ed (23321 bytes)");
    assert_eq!(json, "0x2708ca87b5d4fffd (31495 bytes)");
}

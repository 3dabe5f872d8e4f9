//! End-to-end observability determinism: the event log and metric
//! expositions written by `run_experiments` must be byte-identical at any
//! `--jobs` count, parse back through the public `crowd-obs` read API, and
//! reconcile with the manifest's comparison tallies.

use crowd_obs::{Event, EventLog};
use std::path::Path;

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn observability_outputs_are_byte_identical_and_reconcile() {
    use crowd_experiments::{engine, run_experiments, Scale};

    // fig3 exercises the nested trial fan-out through `ObservedOracle`;
    // fault_sweep exercises the platform's fault/retry event emitters.
    let names = vec!["fig3".to_string(), "fault_sweep".to_string()];
    let scale = Scale::quick();
    let base = std::env::temp_dir().join(format!("crowd_obs_det_{}", std::process::id()));
    let serial_dir = base.join("jobs1");
    let parallel_dir = base.join("jobs4");

    engine::set_jobs(1);
    run_experiments(&names, &scale, &serial_dir).expect("serial run succeeds");
    engine::set_jobs(4);
    run_experiments(&names, &scale, &parallel_dir).expect("parallel run succeeds");
    engine::set_jobs(0);

    for file in ["events.jsonl", "metrics.prom", "metrics.json"] {
        assert_eq!(
            read(&serial_dir, file),
            read(&parallel_dir, file),
            "{file} differs between --jobs 1 and --jobs 4"
        );
    }

    // The log parses back through the public read API, in seq order, and
    // brackets the experiments in selection order.
    let log = EventLog::from_jsonl(&read(&serial_dir, "events.jsonl")).expect("log parses");
    assert!(log
        .records
        .iter()
        .enumerate()
        .all(|(i, r)| r.seq == i as u64));
    let started: Vec<&str> = log
        .events()
        .filter_map(|e| match e {
            Event::RunStarted { name } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(started, ["fig3", "fault_sweep"]);

    // fig3's trials run through `ObservedOracle`, so per-round survivor
    // counts must be present and shrinking within each filter phase.
    let rounds: Vec<(u32, u64)> = log
        .events()
        .filter_map(|e| match e {
            Event::RoundCompleted {
                round, survivors, ..
            } => Some((*round, *survivors)),
            _ => None,
        })
        .collect();
    assert!(!rounds.is_empty(), "RoundCompleted events expected");

    // Each RunFinished must reconcile exactly with the manifest's tally for
    // the same experiment — two independently serialized views of one
    // work tally.
    let manifest = serde_json::from_str_value(&read(&serial_dir, "manifest.json")).unwrap();
    let experiments: Vec<serde::Value> = serde::field(&manifest, "experiments").unwrap();
    for entry in &experiments {
        let name: String = serde::field(entry, "name").unwrap();
        let comparisons: serde::Value = serde::field(entry, "comparisons").unwrap();
        let naive: u64 = serde::field(&comparisons, "naive").unwrap();
        let expert: u64 = serde::field(&comparisons, "expert").unwrap();
        let finished = log
            .events()
            .find_map(|e| match e {
                Event::RunFinished {
                    name: n,
                    comparisons_by_class,
                    ..
                } if *n == name => Some(*comparisons_by_class),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no RunFinished for {name}"));
        assert_eq!((finished.naive, finished.expert), (naive, expert), "{name}");
    }

    // The exposition carries the same totals: crowd_comparisons_total
    // summed over classes and experiments equals the manifest's grand total.
    let metrics = read(&serial_dir, "metrics.prom");
    assert!(metrics.contains("# TYPE crowd_comparisons_total counter"));
    let counter_sum: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("crowd_comparisons_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparsable sample line: {l}"))
        })
        .sum();
    let manifest_sum: u64 = experiments
        .iter()
        .map(|e| {
            let c: serde::Value = serde::field(e, "comparisons").unwrap();
            let naive: u64 = serde::field(&c, "naive").unwrap();
            let expert: u64 = serde::field(&c, "expert").unwrap();
            naive + expert
        })
        .sum();
    assert_eq!(counter_sum, manifest_sum);
    // fault_sweep must have fed the fault counter through the same pipe.
    assert!(metrics.contains("crowd_faults_total{"), "{metrics}");

    std::fs::remove_dir_all(&base).unwrap();
}

//! Parallel determinism: the experiment engine must produce byte-identical
//! tables, CSVs and summaries at any `--jobs` count. Only the manifest's
//! wall-clock fields may differ between runs.

use crowd_experiments::{engine, run_experiments, Scale};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// Serializes the tests that set the process-wide job count, which
/// `cargo test` would otherwise run on parallel threads.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Reads every deterministic output file (markdown + CSV) under `dir`.
fn deterministic_outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".csv") || name.ends_with(".md") {
            files.insert(name, std::fs::read(&path).expect("readable output"));
        }
    }
    files
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let _jobs = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // fig3 exercises the nested fan-out (experiments over threads, trials
    // over threads inside each); table1 adds a platform-driven experiment.
    let names = vec!["fig3".to_string(), "table1".to_string()];
    let scale = Scale::quick();
    let base = std::env::temp_dir().join(format!("crowd_determinism_{}", std::process::id()));
    let serial_dir = base.join("jobs1");
    let parallel_dir = base.join("jobs4");

    engine::set_jobs(1);
    run_experiments(&names, &scale, &serial_dir).expect("serial run succeeds");
    engine::set_jobs(4);
    run_experiments(&names, &scale, &parallel_dir).expect("parallel run succeeds");
    engine::set_jobs(0);

    let serial = deterministic_outputs(&serial_dir);
    let parallel = deterministic_outputs(&parallel_dir);
    assert!(
        serial.keys().any(|k| k.ends_with(".csv")),
        "the run must produce CSV files"
    );
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "both runs must produce the same set of files"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }

    // The manifest exists in both runs and records the job count; its
    // deterministic fields (comparisons) must also agree.
    for (dir, jobs) in [(&serial_dir, 1u64), (&parallel_dir, 4u64)] {
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let parsed = serde_json::from_str_value(&manifest).unwrap();
        let recorded: u64 = serde::field(&parsed, "jobs").unwrap();
        assert_eq!(recorded, jobs);
    }
    let comparisons = |dir: &Path| -> Vec<(String, u64, u64)> {
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let parsed = serde_json::from_str_value(&manifest).unwrap();
        let experiments: Vec<serde::Value> = serde::field(&parsed, "experiments").unwrap();
        experiments
            .iter()
            .map(|e| {
                let c: serde::Value = serde::field(e, "comparisons").unwrap();
                (
                    serde::field(e, "name").unwrap(),
                    serde::field(&c, "naive").unwrap(),
                    serde::field(&c, "expert").unwrap(),
                )
            })
            .collect()
    };
    assert_eq!(comparisons(&serial_dir), comparisons(&parallel_dir));

    std::fs::remove_dir_all(&base).unwrap();
}

/// Reads the per-experiment fault tallies out of a run's `manifest.json`.
fn manifest_faults(dir: &Path) -> Vec<(String, String)> {
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let parsed = serde_json::from_str_value(&manifest).unwrap();
    let experiments: Vec<serde::Value> = serde::field(&parsed, "experiments").unwrap();
    experiments
        .iter()
        .map(|e| {
            let faults: serde::Value = serde::field(e, "faults").unwrap();
            (
                serde::field(e, "name").unwrap(),
                serde_json::to_string(&faults).unwrap(),
            )
        })
        .collect()
}

#[test]
fn fault_sweep_replays_byte_identically_at_any_job_count() {
    let _jobs = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The fault path adds new nondeterminism hazards: fault fates, retry
    // ordering, dead-letter bookkeeping. A fixed FaultPlan seed must make
    // all of it replayable — identical CSVs *and* identical fault tallies
    // in the manifest, retries included, at --jobs 1 and --jobs 4.
    let names = vec!["fault_sweep".to_string()];
    let scale = Scale::quick();
    let base = std::env::temp_dir().join(format!("crowd_fault_det_{}", std::process::id()));
    let serial_dir = base.join("jobs1");
    let parallel_dir = base.join("jobs4");

    engine::set_jobs(1);
    run_experiments(&names, &scale, &serial_dir).expect("serial fault sweep succeeds");
    engine::set_jobs(4);
    run_experiments(&names, &scale, &parallel_dir).expect("parallel fault sweep succeeds");
    engine::set_jobs(0);

    let serial = deterministic_outputs(&serial_dir);
    let parallel = deterministic_outputs(&parallel_dir);
    assert!(
        serial.contains_key("fault_sweep.csv"),
        "the sweep must write its CSV: {:?}",
        serial.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }

    let serial_faults = manifest_faults(&serial_dir);
    assert_eq!(
        serial_faults,
        manifest_faults(&parallel_dir),
        "fault tallies must replay identically at any job count"
    );
    // The sweep's nonzero rates must actually exercise the fault machinery.
    let manifest = std::fs::read_to_string(serial_dir.join("manifest.json")).unwrap();
    let parsed = serde_json::from_str_value(&manifest).unwrap();
    let experiments: Vec<serde::Value> = serde::field(&parsed, "experiments").unwrap();
    let faults: serde::Value = serde::field(&experiments[0], "faults").unwrap();
    let naive: serde::Value = serde::field(&faults, "naive").unwrap();
    let retries: u64 = serde::field(&naive, "retries").unwrap();
    assert!(retries > 0, "the sweep should record naive retries");

    std::fs::remove_dir_all(&base).unwrap();
}

//! Replay a structured event log: read an `events.jsonl` produced by a
//! `repro` run (or record one in-process when no path is given) and print a
//! per-round cost/survivor table — post-hoc run analysis from the log
//! alone, no re-execution. Given a `spans.jsonl` too (written next to
//! `events.jsonl`), it also prints where the serve jobs' latency ticks
//! went, stage by stage.
//!
//! ```text
//! cargo run --release --example obs_replay [-- results/events.jsonl [results/spans.jsonl]]
//! ```

use crowd_core::algorithms::{expert_max_find, ExpertMaxConfig};
use crowd_core::element::Instance;
use crowd_core::oracle::{ComparisonOracle, PerfectOracle};
use crowd_obs::{
    stage_label, Event, EventLog, ObservedOracle, Recorder, SpanLog, Stage, StageAccum,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Records a small in-process run so the example works standalone,
/// returning the event log and span log as JSONL.
fn record_demo_log() -> (String, String) {
    let instance = Instance::new((0..240).map(|i| (i * 83 % 997) as f64).collect());
    let rec = Arc::new(Recorder::new());
    {
        let _guard = crowd_obs::install_recorder(rec.clone());
        crowd_obs::emit(Event::RunStarted {
            name: "obs_replay_demo".to_string(),
        });
        let mut oracle = ObservedOracle::new(PerfectOracle::new(instance.clone()));
        let mut rng = StdRng::seed_from_u64(11);
        let out = expert_max_find(
            &mut oracle,
            &instance.ids(),
            &ExpertMaxConfig::new(6),
            &mut rng,
        );
        let counts = oracle.counts();
        println!(
            "recorded demo run: winner {} (true rank {})",
            out.winner,
            instance.rank(out.winner)
        );
        crowd_obs::emit(Event::RunFinished {
            name: "obs_replay_demo".to_string(),
            comparisons_by_class: counts,
            faults: 0,
        });
        // A hand-built span tree, so the standalone demo exercises the
        // span path too: one job that queued two ticks, executed three,
        // and retried one.
        let mut stages = StageAccum::new();
        for tick in 2..5 {
            stages.record(Stage::ShardExec, tick);
        }
        stages.record(Stage::Retry, 5);
        for span in stages.job_spans(0, 0, 0, 2, 6) {
            crowd_obs::emit_span(span);
        }
    }
    (rec.log().to_jsonl(), rec.span_log().to_jsonl())
}

fn main() {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let (jsonl, spans_jsonl) = match std::env::args().nth(1) {
        Some(path) => (
            read(&path),
            std::env::args()
                .nth(2)
                .map(|p| read(&p))
                .unwrap_or_default(),
        ),
        None => record_demo_log(),
    };

    let log = EventLog::from_jsonl(&jsonl).expect("well-formed event log");
    println!("{} records in the log\n", log.len());

    // ----- Per-round cost/survivor table, straight from the log. -----
    println!("| seq | round | groups | survivors | naive cmp | expert cmp |");
    println!("|----:|------:|-------:|----------:|----------:|-----------:|");
    let mut rounds = 0u64;
    for record in &log.records {
        if let Event::RoundCompleted {
            round,
            groups,
            survivors,
            comparisons_by_class,
        } = &record.event
        {
            rounds += 1;
            println!(
                "| {} | {round} | {groups} | {survivors} | {} | {} |",
                record.seq, comparisons_by_class.naive, comparisons_by_class.expert
            );
        }
    }

    // ----- Run-level summary from the bracketing events. -----
    for event in log.events() {
        match event {
            Event::RunStarted { name } => println!("\nrun started: {name}"),
            Event::RunFinished {
                name,
                comparisons_by_class,
                faults,
            } => println!(
                "run finished: {name} — {} naive + {} expert comparisons, {faults} faults",
                comparisons_by_class.naive, comparisons_by_class.expert
            ),
            _ => {}
        }
    }
    let faults = log
        .events()
        .filter(|e| matches!(e, Event::FaultObserved { .. }))
        .count();
    println!("\n{rounds} filter rounds, {faults} fault events");

    // ----- Stage-level latency attribution from the span log. -----
    let spans = SpanLog::from_jsonl(&spans_jsonl).expect("well-formed span log");
    if spans.is_empty() {
        println!("no spans (the run completed no serve jobs)");
        return;
    }
    match spans.reconcile() {
        Ok(()) => println!("\n{} spans, books balance:", spans.len()),
        Err(bad) => println!("\n{} spans, {} jobs UNBALANCED:", spans.len(), bad.len()),
    }
    let mut ticks_by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut jobs = 0u64;
    for span in &spans.spans {
        match span.stage {
            Stage::Admission => jobs += 1,
            Stage::Completion => {}
            stage => *ticks_by_stage.entry(stage_label(stage)).or_insert(0) += span.ticks,
        }
    }
    println!("| stage | ticks |");
    println!("|-------|------:|");
    for (stage, ticks) in &ticks_by_stage {
        println!("| {stage} | {ticks} |");
    }
    println!(
        "{jobs} traced jobs, {} latency ticks attributed",
        ticks_by_stage.values().sum::<u64>()
    );
}

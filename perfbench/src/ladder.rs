//! The layer ladder: one recorded pair stream priced at every hop between
//! the kernel and the service.
//!
//! The stream is `maxfind_platform`'s first input as Algorithm 1 asked it,
//! call by call. Each rung answers the same stream (same pairs, same call
//! boundaries) and reports nanoseconds per comparison; the hop metrics are
//! the marginal cost of each rung over the one below:
//!
//! | rung | what answers |
//! |---|---|
//! | `model` | `ExpertModel::compare_many`, no oracle |
//! | `simulated` | `SimulatedOracle` |
//! | `observed` | `ObservedOracle<SimulatedOracle>` |
//! | `platform` | `PlatformOracle` on the workload's platform |
//! | `journaled` | `JournaledOracle` on the same platform |
//! | `shard` | `WorkerShard::execute_pair`, one pair at a time, per answer |
//! | `service` | `serve_steady`'s `CrowdServe::step` time per charged comparison |
//!
//! Before pricing, the ladder checks that the rungs which must agree do:
//! `PlatformOracle` and `JournaledOracle` on one platform seed, and every
//! oracle rung with and without [`Timed`].

use crate::harness::{nanos_since, quantile};
use crate::maxfind::{kernel_oracle, platform, MaxfindShape};
use crate::report::{metric, Metric};
use crate::trace::Timed;
use crate::{serve, Config};
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig};
use crowd_core::element::ElementId;
use crowd_core::equiv::{assert_oracles_equal, drive_batched};
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::ComparisonOracle;
use crowd_core::replay::RecordingOracle;
use crowd_datasets::synthetic::PlantedInstance;
use crowd_obs::{install_recorder, ObservedOracle, Recorder};
use crowd_platform::serve::WorkerShard;
use crowd_platform::{CheckpointPolicy, JournaledOracle, PlatformOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Judgments per pair on the shard rung: the arrival plans' vote count.
const SHARD_VOTES: u32 = 3;

/// Pairs per logical tick on the shard rung: a naive shard's window over
/// [`SHARD_VOTES`].
const SHARD_PAIRS_PER_TICK: u64 = 12;

/// A recorded call stream: the pairs, and per call its class and length.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Every pair, in call order.
    pub pairs: Vec<(ElementId, ElementId)>,
    /// Maximal same-class runs: class, first pair, and call lengths.
    pub runs: Vec<(WorkerClass, usize, Vec<usize>)>,
}

impl Stream {
    /// Builds the stream from a judgment log's pairs and the per-call
    /// `(class, pairs)` segments a [`Timed`] captured.
    ///
    /// # Errors
    ///
    /// When the segments do not cover the pairs exactly.
    pub fn new(
        pairs: Vec<(ElementId, ElementId)>,
        classes: &[WorkerClass],
        segments: &[(WorkerClass, usize)],
    ) -> Result<Stream, String> {
        let mut runs: Vec<(WorkerClass, usize, Vec<usize>)> = Vec::new();
        let mut at = 0usize;
        for &(class, len) in segments {
            let Some(covered) = classes.get(at..at + len) else {
                return Err(format!(
                    "segment at pair {at} overruns {} pairs",
                    classes.len()
                ));
            };
            if covered.iter().any(|&c| c != class) {
                return Err(format!("segment at pair {at} mixes classes"));
            }
            match runs.last_mut() {
                Some((c, _, lens)) if *c == class => lens.push(len),
                _ => runs.push((class, at, vec![len])),
            }
            at += len;
        }
        if at != pairs.len() {
            return Err(format!("segments cover {at} of {} pairs", pairs.len()));
        }
        Ok(Stream { pairs, runs })
    }

    /// Drives the whole stream through `oracle`, call for call.
    pub fn drive<O: ComparisonOracle>(&self, oracle: &mut O) -> Vec<ElementId> {
        let mut winners = Vec::with_capacity(self.pairs.len());
        for (class, first, lens) in &self.runs {
            let len: usize = lens.iter().sum();
            let run = &self.pairs[*first..first + len];
            winners.extend(drive_batched(oracle, *class, run, lens));
        }
        winners
    }

    /// `(class, pair)` in call order.
    pub fn classed(&self) -> impl Iterator<Item = (WorkerClass, (ElementId, ElementId))> + '_ {
        self.runs.iter().flat_map(move |(class, first, lens)| {
            let len: usize = lens.iter().sum();
            self.pairs[*first..first + len]
                .iter()
                .map(move |&p| (*class, p))
        })
    }
}

/// Records the platform workload's stream on `planted` with oracle seed
/// `seed`.
///
/// # Errors
///
/// When the run errs or the stream does not reassemble.
pub fn record(planted: &PlantedInstance, seed: u64, un: usize) -> Result<Stream, String> {
    let _g = install_recorder(Arc::new(Recorder::new()));
    let journaled = JournaledOracle::new(
        platform(planted, seed),
        "perf",
        seed,
        CheckpointPolicy::every(4),
    );
    let mut rec = RecordingOracle::new(Timed::new(journaled, "journaled", 0).with_segments());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    try_expert_max_find(
        &mut rec,
        &planted.instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    )
    .map_err(|e| format!("recording run erred: {e}"))?;
    let (log, timed) = rec.into_parts();
    let (_, stats) = timed.into_parts();
    let judgments = log.judgments();
    Stream::new(
        judgments.iter().map(|j| (j.k, j.j)).collect(),
        &judgments.iter().map(|j| j.class).collect::<Vec<_>>(),
        &stats.segments.unwrap_or_default(),
    )
}

/// Median nanoseconds of `drive(make())` over repetitions: at least one,
/// then more until `budget_ns` is spent or five were taken. `make` runs
/// outside the clock, with a fresh Recorder installed for the drive.
fn time_rung<X>(
    budget_ns: u64,
    mut make: impl FnMut() -> X,
    mut drive: impl FnMut(X) -> u64,
) -> (f64, u64) {
    let mut samples = Vec::new();
    let mut spent = 0u64;
    let mut work = 0u64;
    while samples.is_empty() || (samples.len() < 5 && spent < budget_ns) {
        let x = make();
        let _g = install_recorder(Arc::new(Recorder::new()));
        let t0 = Instant::now();
        work = black_box(drive(x));
        let ns = nanos_since(t0);
        spent += ns;
        samples.push(ns as f64);
    }
    samples.sort_by(f64::total_cmp);
    (quantile(&samples, 0.5), work)
}

/// Runs `f`, turning an equivalence panic into an error naming `what`.
fn agree(what: &str, f: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} disagree: {msg}")
    })
}

/// Records the stream, checks the rungs agree, and prices every rung.
///
/// # Errors
///
/// When recording fails or two rungs that must agree do not.
pub fn ladder(
    planted: &PlantedInstance,
    seed: u64,
    shape: &MaxfindShape,
    cfg: &Config,
) -> Result<Vec<Metric>, String> {
    let stream = record(planted, seed, shape.un)?;
    let n = stream.pairs.len() as f64;
    let inst = &planted.instance;
    let model = || ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);
    let simulated = || kernel_oracle(planted, seed);
    let observed = || ObservedOracle::new(kernel_oracle(planted, seed));
    let bare = || PlatformOracle::new(platform(planted, seed));
    let journaled = || {
        JournaledOracle::new(
            platform(planted, seed),
            "perf",
            seed,
            CheckpointPolicy::every(4),
        )
    };

    // Rungs that must agree.
    {
        let _g = install_recorder(Arc::new(Recorder::new()));
        agree("PlatformOracle and JournaledOracle", || {
            assert_oracles_equal(
                bare(),
                journaled(),
                |o| stream.drive(o),
                |o| stream.drive(o),
            );
        })?;
        agree("Timed and bare SimulatedOracle", || {
            assert_oracles_equal(
                Timed::new(simulated(), "simulated", 0),
                simulated(),
                |o| stream.drive(o),
                |o| stream.drive(o),
            );
        })?;
        agree("Timed and bare ObservedOracle", || {
            assert_oracles_equal(
                Timed::new(observed(), "observed", 0),
                observed(),
                |o| stream.drive(o),
                |o| stream.drive(o),
            );
        })?;
        agree("Timed and bare PlatformOracle", || {
            assert_oracles_equal(
                Timed::new(bare(), "platform", 0),
                bare(),
                |o| stream.drive(o),
                |o| stream.drive(o),
            );
        })?;
        agree("Timed and bare JournaledOracle", || {
            assert_oracles_equal(
                Timed::new(journaled(), "journaled", 0),
                journaled(),
                |o| stream.drive(o),
                |o| stream.drive(o),
            );
        })?;
    }

    // One repetition per rung at smoke scale; otherwise up to five, within
    // 0.3 s per rung.
    let budget = if cfg.smoke { 0 } else { 300_000_000 };
    let per_cmp = |(ns, _): (f64, u64)| ns / n;
    let model_ns = per_cmp(time_rung(
        budget,
        || (model(), StdRng::seed_from_u64(seed), Vec::with_capacity(1)),
        |(mut m, mut rng, mut winners): (ExpertModel, StdRng, Vec<ElementId>)| {
            let value = |id: ElementId| inst.value(id);
            let mut done = 0u64;
            for (class, first, lens) in &stream.runs {
                let mut at = *first;
                for &len in lens {
                    winners.clear();
                    m.compare_many(
                        *class,
                        &stream.pairs[at..at + len],
                        value,
                        &mut winners,
                        &mut rng,
                    );
                    done += winners.len() as u64;
                    at += len;
                }
            }
            done
        },
    ));
    let simulated_ns = per_cmp(time_rung(budget, simulated, |mut o| {
        stream.drive(&mut o).len() as u64
    }));
    let observed_ns = per_cmp(time_rung(budget, observed, |mut o| {
        stream.drive(&mut o).len() as u64
    }));
    let platform_ns = per_cmp(time_rung(budget, bare, |mut o| {
        stream.drive(&mut o).len() as u64
    }));
    let journaled_ns = per_cmp(time_rung(budget, journaled, |mut o| {
        let w = stream.drive(&mut o).len() as u64;
        o.finish();
        w
    }));

    // Shard rung: naive pairs alternate over the service config's two
    // naive shards, expert pairs go to its expert shard.
    let config = crowd_bench::serve_load::bench_config();
    let shard_seed = crate::replay::mix(cfg.seed ^ 0x5E);
    let (shard_ns, answers) = time_rung(
        budget,
        || -> Vec<WorkerShard> {
            config
                .shards
                .iter()
                .enumerate()
                .map(|(i, spec)| WorkerShard::new(i as u32, *spec, shard_seed))
                .collect()
        },
        |mut shards: Vec<WorkerShard>| {
            let naive: Vec<usize> = (0..shards.len())
                .filter(|&i| shards[i].class() == WorkerClass::Naive)
                .collect();
            let expert = (0..shards.len()).find(|&i| shards[i].class() == WorkerClass::Expert);
            let mut answers = 0u64;
            for (i, (class, (k, j))) in stream.classed().enumerate() {
                let s = match (class, expert) {
                    (WorkerClass::Expert, Some(e)) => e,
                    _ => naive[i % naive.len()],
                };
                let out = shards[s].execute_pair(
                    i as u64 / SHARD_PAIRS_PER_TICK,
                    k,
                    inst.value(k),
                    j,
                    inst.value(j),
                    SHARD_VOTES,
                    config.retry.max_retries,
                    &config.breaker,
                );
                answers += u64::from(out.answers);
            }
            answers
        },
    );
    let shard_ns = if answers == 0 {
        0.0
    } else {
        shard_ns / answers as f64
    };
    let service_ns = serve::steady_step_ns_per_cmp(cfg)?;

    let rungs = [
        ("ladder.model", "ladder.model", model_ns),
        ("ladder.simulated", "ladder.simulated_hop", simulated_ns),
        ("ladder.observed", "ladder.observed_hop", observed_ns),
        ("ladder.platform", "ladder.platform_hop", platform_ns),
        ("ladder.journaled", "ladder.journaled_hop", journaled_ns),
        ("ladder.shard", "ladder.shard_hop", shard_ns),
        ("ladder.service", "ladder.service_hop", service_ns),
    ];
    let mut out = Vec::new();
    let mut below = None;
    for (name, hop, ns) in rungs {
        out.push(metric(name, ns, "ns"));
        if let Some(prev) = below {
            out.push(metric(hop, ns - prev, "ns"));
        }
        below = Some(ns);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stream_reassembles_its_calls_by_class() {
        let p = |k: u32, j: u32| (ElementId(k), ElementId(j));
        let pairs = vec![p(0, 1), p(2, 3), p(4, 5), p(0, 2), p(1, 3)];
        let classes = [
            WorkerClass::Naive,
            WorkerClass::Naive,
            WorkerClass::Naive,
            WorkerClass::Expert,
            WorkerClass::Naive,
        ];
        let segments = [
            (WorkerClass::Naive, 2),
            (WorkerClass::Naive, 1),
            (WorkerClass::Expert, 1),
            (WorkerClass::Naive, 1),
        ];
        let s = Stream::new(pairs.clone(), &classes, &segments).expect("consistent");
        assert_eq!(
            s.runs,
            vec![
                (WorkerClass::Naive, 0, vec![2, 1]),
                (WorkerClass::Expert, 3, vec![1]),
                (WorkerClass::Naive, 4, vec![1]),
            ]
        );
        let replayed: Vec<_> = s.classed().collect();
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[3], (WorkerClass::Expert, p(0, 2)));
        assert!(Stream::new(pairs.clone(), &classes, &segments[..3]).is_err());
        let mixed = [(WorkerClass::Naive, 4), (WorkerClass::Naive, 1)];
        assert!(Stream::new(pairs.clone(), &classes, &mixed).is_err());
        let overrun = [(WorkerClass::Naive, 6)];
        assert!(Stream::new(pairs, &classes, &overrun).is_err());
    }
}

//! Serve-layer attribution by journal replay.
//!
//! `CrowdServe::step` calls its shards, cache and journal from inside, out
//! of reach of an outside timer. Its durable journal records every tick's
//! dispatches (`TickScheduled`), cache hits (`TickCached`) and outcome
//! (`TickCompleted`), so the traced run replays that journal through fresh
//! instances of the same public types — [`WorkerShard::execute_pair`],
//! [`JudgmentCache::lookup`]/[`JudgmentCache::insert`] and
//! [`Journal::append_json`]/[`Journal::flush`] — in the original tick
//! order, timing each call.
//!
//! The replay is audited. Every tick's replayed answers and shard
//! sequence numbers must equal its `TickCompleted` record; the replayed
//! cache's hits, insertions and evictions must equal the service's
//! [`CacheStats`]; the re-appended journal must equal the original byte
//! for byte. Misses are only a lower bound: a pair the dispatcher looked
//! up but did not dispatch that tick (deficit or window exhausted) leaves
//! no journal record.
//!
//! Which worker class a cache hit was looked up under is not journaled,
//! so each job's knockout tournament is replayed alongside through the
//! public [`ActiveJob`] state machine, which yields the class of every
//! pair exactly as the dispatcher saw it.

use crate::harness::nanos;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::DegradedReason;
use crowd_platform::journal::JOURNAL_VERSION;
use crowd_platform::serve::{
    ActiveJob, ArrivalPlan, CacheHitRecord, CacheStats, CompletedJob, DispatchRecord, JobId,
    JudgmentCache, ServeConfig, WorkerShard, SHARD_TIE_POLICY,
};
use crowd_platform::Journal;
use serde::Deserialize;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// SplitMix64's finalizer — the mixer the service derives its shard seed
/// with (`mix(seed ^ 0x5E)`). The audit catches any drift: shards seeded
/// differently cannot reproduce the journaled sequence numbers.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The service journal's record vocabulary, mirrored for decoding. Every
/// field is declared so a record decodes whole, read or not.
#[allow(dead_code)]
#[derive(Debug, Clone, PartialEq, Deserialize)]
enum Frame {
    Started {
        version: u32,
        seed: u64,
        config_digest: u64,
    },
    TickScheduled {
        tick: u64,
        dispatches: Vec<DispatchRecord>,
    },
    TickCached {
        tick: u64,
        hits: Vec<CacheHitRecord>,
    },
    TickCompleted {
        tick: u64,
        shard_seqs: Vec<u64>,
        answers: u64,
        charged: Vec<(u32, u64)>,
        completed: Vec<CompletedJob>,
    },
}

/// One tick's journal frames, raw JSON kept for re-appending.
#[derive(Debug, Default)]
struct TickFrames {
    cached: Option<(String, Vec<CacheHitRecord>)>,
    scheduled: Option<(String, Vec<DispatchRecord>)>,
    completed: Option<(String, Vec<u64>, u64)>,
}

/// Replayed time of one tick, per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickCost {
    /// The tick.
    pub tick: u64,
    /// Nanoseconds in `execute_pair`.
    pub shard_ns: u64,
    /// Pairs executed.
    pub pairs: u64,
    /// Nanoseconds in cache lookups and inserts.
    pub cache_ns: u64,
    /// Cache calls.
    pub cache_calls: u64,
    /// Nanoseconds in journal appends and flushes.
    pub journal_ns: u64,
    /// Journal calls.
    pub journal_calls: u64,
    /// Replay start and end of the tick.
    pub started: Option<Instant>,
    /// See `started`.
    pub ended: Option<Instant>,
}

/// What the replay measured, with its audit already passed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayStats {
    /// Per replayed tick, in tick order.
    pub ticks: Vec<TickCost>,
    /// Lookups replayed: every hit, and the miss before every dispatch.
    pub lookups: u64,
    /// Nanoseconds in lookups.
    pub lookup_ns: u64,
    /// Inserts, timed (eviction included).
    pub inserts: u64,
    /// Nanoseconds in inserts.
    pub insert_ns: u64,
    /// Pairs executed on shards.
    pub pairs: u64,
    /// Judgment assignments those pairs made.
    pub attempts: u64,
    /// Usable judgments they collected.
    pub answers: u64,
    /// Nanoseconds in `execute_pair`.
    pub shard_ns: u64,
    /// Journal appends plus flushes.
    pub journal_calls: u64,
    /// Nanoseconds in them.
    pub journal_ns: u64,
    /// The replayed cache's counters.
    pub cache: CacheStats,
}

/// Replays `durable` (the journal of one `CrowdServe` run over `plan`
/// with `config` and `seed`) and audits it against the run's
/// `cache_stats`. `timer_ns` is subtracted once per timed call.
///
/// # Errors
///
/// A description of the first audit mismatch.
pub fn replay_serve_journal(
    config: &ServeConfig,
    seed: u64,
    plan: &ArrivalPlan,
    durable: &[u8],
    service_cache: CacheStats,
    timer_ns: f64,
) -> Result<ReplayStats, String> {
    let decoded = Journal::decode_json(durable);
    if decoded.torn_tail || decoded.valid_bytes != durable.len() {
        return Err("journal does not decode cleanly".into());
    }
    let mut frames = decoded.frames.into_iter();
    let (header, _) = frames.next().ok_or("empty journal")?;
    match serde_json::from_str::<Frame>(&header) {
        Ok(Frame::Started {
            version,
            seed: s,
            config_digest,
        }) if version == JOURNAL_VERSION && s == seed && config_digest == config.digest() => {}
        other => return Err(format!("bad journal header: {other:?}")),
    }
    let mut ticks: BTreeMap<u64, TickFrames> = BTreeMap::new();
    for (json, _) in frames {
        let frame: Frame =
            serde_json::from_str(&json).map_err(|e| format!("undecodable frame: {e:?}"))?;
        match frame {
            Frame::Started { .. } => return Err("second journal header".into()),
            Frame::TickCached { tick, hits } => {
                ticks.entry(tick).or_default().cached = Some((json, hits));
            }
            Frame::TickScheduled { tick, dispatches } => {
                ticks.entry(tick).or_default().scheduled = Some((json, dispatches));
            }
            Frame::TickCompleted {
                tick,
                shard_seqs,
                answers,
                ..
            } => {
                ticks.entry(tick).or_default().completed = Some((json, shard_seqs, answers));
            }
        }
    }

    let mut shards: Vec<WorkerShard> = config
        .shards
        .iter()
        .enumerate()
        .map(|(i, spec)| WorkerShard::new(i as u32, *spec, mix(seed ^ 0x5E)))
        .collect();
    let mut cache = JudgmentCache::new(config.cache);
    let mut journal = Journal::new();
    journal.append_json(&header);
    journal.flush();
    let mut jobs: BTreeMap<u64, ActiveJob> = BTreeMap::new();
    let mut stats = ReplayStats::default();
    let max_retries = config.retry.max_retries;
    let clock = |t0: Instant| nanos(t0.elapsed()).saturating_sub(timer_ns as u64);

    for (tick, frames) in ticks {
        let mut cost = TickCost {
            tick,
            started: Some(Instant::now()),
            ..TickCost::default()
        };
        let hits = frames.cached.as_ref().map_or(&[][..], |(_, h)| h);
        let dispatches = frames.scheduled.as_ref().map_or(&[][..], |(_, d)| d);
        let hit_classes = walk_jobs(tick, hits, dispatches, config, plan, &shards, &mut jobs)?;

        // 1. Lookups, in dispatch order: hits, then the misses that
        // preceded each dispatch. A miss leaves the cache unchanged, so
        // only the hits' relative order matters.
        for (hit, class) in hits.iter().zip(&hit_classes) {
            let job = &jobs[&hit.job];
            let (vk, vj) = (job.values[hit.k as usize], job.values[hit.j as usize]);
            let t0 = Instant::now();
            let got = cache.lookup(vk, vj, *class, SHARD_TIE_POLICY, hit.votes, tick);
            cost.cache_ns += clock(t0);
            cost.cache_calls += 1;
            stats.lookups += 1;
            if got != Some(hit.winner == hit.k) {
                return Err(format!(
                    "tick {tick}: journaled hit {hit:?} replayed as {got:?}"
                ));
            }
        }
        for d in dispatches {
            let job = &jobs[&d.job];
            let (vk, vj) = (job.values[d.k as usize], job.values[d.j as usize]);
            let class = shards[d.shard as usize].class();
            let t0 = Instant::now();
            let got = cache.lookup(vk, vj, class, SHARD_TIE_POLICY, d.votes, tick);
            cost.cache_ns += clock(t0);
            cost.cache_calls += 1;
            stats.lookups += 1;
            if got.is_some() {
                return Err(format!("tick {tick}: dispatched pair {d:?} hits on replay"));
            }
        }
        stats.lookup_ns += cost.cache_ns;

        // 2. The write-ahead half, flushed before execution.
        let wal: Vec<&String> = [
            frames.cached.as_ref().map(|(j, _)| j),
            frames.scheduled.as_ref().map(|(j, _)| j),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !wal.is_empty() {
            let t0 = Instant::now();
            for json in &wal {
                journal.append_json(json);
            }
            journal.flush();
            cost.journal_ns += clock(t0);
            cost.journal_calls += wal.len() as u64 + 1;
        }

        // 3. Execution in dispatch order; clean verdicts feed the cache.
        let mut answers = 0u64;
        for d in dispatches {
            let job = jobs.get_mut(&d.job).expect("walked above");
            let (vk, vj) = (job.values[d.k as usize], job.values[d.j as usize]);
            let shard = &mut shards[d.shard as usize];
            let t0 = Instant::now();
            let out = shard.execute_pair(
                tick,
                ElementId(d.k),
                vk,
                ElementId(d.j),
                vj,
                d.votes,
                max_retries,
                &config.breaker,
            );
            cost.shard_ns += clock(t0);
            cost.pairs += 1;
            stats.attempts += u64::from(out.attempts);
            stats.answers += u64::from(out.answers);
            answers += u64::from(out.answers);
            if out.dead.is_none() && out.answers >= d.votes {
                if let Some(w) = out.winner {
                    let class = shard.class();
                    let t0 = Instant::now();
                    cache.insert(
                        vk,
                        vj,
                        class,
                        SHARD_TIE_POLICY,
                        w == ElementId(d.k),
                        d.votes,
                        tick,
                    );
                    let ns = clock(t0);
                    cost.cache_ns += ns;
                    cost.cache_calls += 1;
                    stats.insert_ns += ns;
                    stats.inserts += 1;
                }
            }
            job.feed((ElementId(d.k), ElementId(d.j)), out.winner);
        }
        for id in hits
            .iter()
            .map(|h| h.job)
            .chain(dispatches.iter().map(|d| d.job))
        {
            if jobs.get(&id).is_some_and(ActiveJob::is_done) {
                jobs.remove(&id);
            }
        }
        stats.pairs += cost.pairs;
        stats.shard_ns += cost.shard_ns;

        // 4. The tick's outcome record, audited, then made durable.
        if let Some((json, shard_seqs, journaled)) = &frames.completed {
            let seqs: Vec<u64> = shards.iter().map(WorkerShard::seq).collect();
            if answers != *journaled || seqs != *shard_seqs {
                return Err(format!(
                    "tick {tick}: replayed answers {answers} seqs {seqs:?}, \
                     journaled {journaled} {shard_seqs:?}"
                ));
            }
            let t0 = Instant::now();
            journal.append_json(json);
            journal.flush();
            cost.journal_ns += clock(t0);
            cost.journal_calls += 2;
        } else if !dispatches.is_empty() {
            return Err(format!("tick {tick}: dispatches without an outcome record"));
        }
        stats.journal_ns += cost.journal_ns;
        stats.journal_calls += cost.journal_calls;
        cost.ended = Some(Instant::now());
        stats.ticks.push(cost);
    }

    if journal.durable() != durable {
        return Err(format!(
            "re-appended journal differs: {} bytes vs {}",
            journal.durable().len(),
            durable.len()
        ));
    }
    let replayed = cache.stats();
    if (replayed.hits, replayed.insertions, replayed.evictions)
        != (
            service_cache.hits,
            service_cache.insertions,
            service_cache.evictions,
        )
        || replayed.misses > service_cache.misses
    {
        return Err(format!(
            "replayed cache {replayed:?} vs service {service_cache:?}"
        ));
    }
    stats.cache = replayed;
    Ok(stats)
}

/// Walks each job named in a tick through its knockout tournament, in the
/// dispatcher's per-job order, and returns the worker class every hit was
/// looked up under. A job's hits and dispatches are consumed in the order
/// its `peek_pair` presents them; after its first dispatch of a tick no
/// round can roll (a pair is in flight), so the class is fixed from then
/// on. Dispatched pairs stay in flight until execution feeds them.
fn walk_jobs(
    tick: u64,
    hits: &[CacheHitRecord],
    dispatches: &[DispatchRecord],
    config: &ServeConfig,
    plan: &ArrivalPlan,
    shards: &[WorkerShard],
    jobs: &mut BTreeMap<u64, ActiveJob>,
) -> Result<Vec<WorkerClass>, String> {
    let mut by_job: BTreeMap<u64, (VecDeque<usize>, VecDeque<&DispatchRecord>)> = BTreeMap::new();
    for (i, h) in hits.iter().enumerate() {
        by_job.entry(h.job).or_default().0.push_back(i);
    }
    for d in dispatches {
        by_job.entry(d.job).or_default().1.push_back(d);
    }
    let mut classes = vec![WorkerClass::Naive; hits.len()];
    for (id, (mut job_hits, mut job_dispatches)) in by_job {
        let job = jobs.entry(id).or_insert_with(|| {
            ActiveJob::new(
                JobId(id),
                plan.spec(id),
                0,
                0,
                u64::MAX,
                config.finalists,
                config.fallback_votes,
            )
        });
        while !job_hits.is_empty() || !job_dispatches.is_empty() {
            let Some(pair) = job.peek_pair() else {
                return Err(format!("tick {tick}: job {id} has no pair ready"));
            };
            let at = |k: u32, j: u32| (ElementId(k), ElementId(j)) == pair;
            let (class, votes) = job.class_and_votes();
            if let Some(&i) = job_hits.front().filter(|&&i| at(hits[i].k, hits[i].j)) {
                let hit = &hits[i];
                if hit.votes != votes {
                    // Only an expert pair falling back to the crowd
                    // changes a job's vote requirement.
                    job.mark_degraded(DegradedReason::ExpertExhausted);
                }
                let (class, votes) = job.class_and_votes();
                if hit.votes != votes {
                    return Err(format!("tick {tick}: hit {hit:?} at {votes} votes"));
                }
                classes[i] = class;
                job.next_pair();
                job.feed(pair, Some(ElementId(hit.winner)));
                job_hits.pop_front();
            } else if let Some(d) = job_dispatches.front().filter(|d| at(d.k, d.j)) {
                if shards[d.shard as usize].class() != class {
                    job.mark_degraded(DegradedReason::ExpertExhausted);
                }
                job.next_pair();
                job_dispatches.pop_front();
            } else {
                return Err(format!(
                    "tick {tick}: job {id} presents {pair:?}, journal disagrees"
                ));
            }
        }
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_bench::serve_load::bench_config;
    use crowd_platform::serve::CrowdServe;

    /// Runs `plan` through a fresh service and returns its journal and
    /// cache counters.
    fn serve(plan: &ArrivalPlan, seed: u64) -> (Vec<u8>, CacheStats) {
        let mut service = CrowdServe::new(bench_config(), seed).expect("valid config");
        service.run(plan, 20_000).expect("no chaos plan");
        (service.journal().durable().to_vec(), service.cache_stats())
    }

    fn plan(rate_num: u64, overlap: u32) -> ArrivalPlan {
        ArrivalPlan::new(91, rate_num, 2, 300, 2)
            .with_catalog(4, 9)
            .with_deadline(40)
            .with_overlap(overlap, 12)
    }

    #[test]
    fn a_300_job_journal_replays_exactly() {
        let config = bench_config();
        for (rate, overlap) in [(1, 50), (12, 0)] {
            let plan = plan(rate, overlap);
            let (journal, cache) = serve(&plan, 45_223);
            let stats = replay_serve_journal(&config, 45_223, &plan, &journal, cache, 0.0)
                .expect("the audit passes");
            assert_eq!(stats.cache.hits, cache.hits);
            assert_eq!(stats.cache.insertions, cache.insertions);
            assert_eq!(stats.cache.evictions, cache.evictions);
            assert!(stats.cache.misses <= cache.misses);
            assert!(stats.pairs > 0 && stats.answers >= stats.pairs);
            assert_eq!(stats.lookups, stats.cache.lookups);
            if overlap > 0 {
                assert!(cache.hits > 0, "50% overlap must hit");
            }
        }
    }

    #[test]
    fn the_audit_catches_a_mismatch() {
        let config = bench_config();
        let plan = plan(1, 50);
        let (journal, cache) = serve(&plan, 45_223);
        let wrong_cache = CacheStats {
            evictions: cache.evictions + 1,
            ..cache
        };
        assert!(replay_serve_journal(&config, 45_223, &plan, &journal, wrong_cache, 0.0).is_err());
        // Another seed seeds other shards: the header check refuses it.
        assert!(replay_serve_journal(&config, 7, &plan, &journal, cache, 0.0).is_err());
        // Another plan carries other values: the cache replay diverges.
        let other = ArrivalPlan { seed: 92, ..plan };
        assert!(replay_serve_journal(&config, 45_223, &other, &journal, cache, 0.0).is_err());
        // A torn tail is refused.
        let torn = &journal[..journal.len() - 3];
        assert!(replay_serve_journal(&config, 45_223, &plan, torn, cache, 0.0).is_err());
    }

    #[test]
    fn mix_is_splitmix64() {
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }
}

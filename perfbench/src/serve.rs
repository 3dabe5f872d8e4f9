//! The two service workloads: `CrowdServe` under steady load with a full
//! judgment cache (`serve_steady`) and under 4x overload (`serve_overload`).
//!
//! Load is open loop in logical time: the arrival plan offers its jobs at
//! their tick whatever the service state, so the queue can grow and shed.
//! In wall time the ticks run back to back — each tick's `submit`s, then
//! its `step` — so there is no generator lateness to report. A tick is
//! the service's step; a job's wall latency runs from the start of its
//! submission tick to the end of its completion tick.

use crate::harness::{
    nanos, percentile, quantile, replay_samples, run_samples, setup_seconds, timer_overhead_ns,
    vm_hwm_mb, BestOf, Sample, SamplePlan, Slot, Summary,
};
use crate::replay::{mix, replay_serve_journal, ReplayStats};
use crate::report::{metric, violation, Metric, Report, Violation};
use crate::trace::SpanLog;
use crate::{heap, Config};
use crowd_bench::serve_load::bench_config;
use crowd_obs::{install_recorder, Recorder};
use crowd_platform::serve::{Admission, ArrivalPlan, CacheStats, CrowdServe, JobSpec};
use std::sync::Arc;
use std::time::Instant;

/// After the last arrival, drain completion is checked every this many
/// ticks (the check builds a full report, so it stays off the hot path).
const DRAIN_CHECK: usize = 8;

/// A service that has not drained this many ticks after its last arrival
/// is stuck.
const MAX_DRAIN: usize = 100_000;

/// One service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeShape {
    /// Workload name.
    pub name: &'static str,
    /// Arrival-rate numerator (jobs per `rate_den` ticks).
    pub rate_num: u64,
    /// Arrival-rate denominator.
    pub rate_den: u64,
    /// Jobs offered per pass.
    pub total_jobs: u64,
    /// Percent of each catalog drawn from the shared 12-item universe.
    pub overlap_percent: u32,
}

/// One job per two ticks, 50% catalog overlap: the cache fills and then
/// serves about a third of lookups while evicting on almost every insert.
pub const STEADY: ServeShape = ServeShape {
    name: "serve_steady",
    rate_num: 1,
    rate_den: 2,
    total_jobs: 20_000,
    overlap_percent: 50,
};

/// Six jobs per tick (`serve_load`'s 4x tier), no overlap: admission and
/// shedding dominate, and the cache inserts and evicts but never hits.
pub const OVERLOAD: ServeShape = ServeShape {
    name: "serve_overload",
    rate_num: 6,
    rate_den: 1,
    total_jobs: 60_000,
    overlap_percent: 0,
};

/// Warmup passes; the timed passes repeat its input.
const WARMUP: usize = 1;

impl ServeShape {
    /// The arrival plan of input `input` at scale `divisor`, with
    /// `serve_load`'s catalog, deadline and universe settings.
    pub fn plan(&self, seed: u64, input: usize, divisor: usize) -> ArrivalPlan {
        ArrivalPlan::new(
            seed ^ (input as u64).wrapping_mul(0x9E37_79B9),
            self.rate_num,
            self.rate_den,
            (self.total_jobs / divisor as u64).max(1),
            2,
        )
        .with_catalog(4, 9)
        .with_deadline(40)
        .with_overlap(self.overlap_percent, 12)
    }

    /// Builds input `input`: every tick's arrivals, the service, and
    /// optionally a Recorder.
    pub fn prepare(&self, seed: u64, input: usize, divisor: usize, recorder: bool) -> Prepared {
        let plan = self.plan(seed, input, divisor);
        let mut arrivals = Vec::new();
        for t in 0.. {
            arrivals.push(plan.arrivals_at(t));
            if plan.exhausted(t) {
                break;
            }
        }
        Prepared {
            arrivals,
            service: CrowdServe::new(bench_config(), seed).expect("the bench config is valid"),
            recorder: recorder.then(|| Arc::new(Recorder::new())),
        }
    }
}

/// Everything one pass needs, built before the clock starts.
pub struct Prepared {
    arrivals: Vec<Vec<JobSpec>>,
    service: CrowdServe,
    recorder: Option<Arc<Recorder>>,
}

/// The deterministic outcome of a pass: equal for every pass of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeDet {
    /// Ticks run.
    pub ticks: u64,
    /// Jobs offered.
    pub offered: u64,
    /// Jobs admitted, at once or from the queue.
    pub admitted: u64,
    /// Jobs shed.
    pub shed: u64,
    /// Jobs completed without degradation.
    pub completed_ok: u64,
    /// Jobs completed degraded.
    pub degraded: u64,
    /// Comparisons charged.
    pub comparisons: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Durable journal bytes.
    pub journal_bytes: u64,
    /// Submissions answered `Admitted`.
    pub admitted_now: u64,
    /// Submissions answered `Queued`.
    pub queued: u64,
    /// Submissions answered `Rejected`.
    pub rejected: u64,
}

/// What a traced pass adds.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Wall nanoseconds of each `step` call.
    pub step_ns: Vec<u64>,
    /// Wall nanoseconds of each `submit` call.
    pub submit_ns: Vec<u64>,
    /// Submissions per tick.
    pub submits: Vec<u32>,
    /// The pass's durable journal.
    pub journal: Vec<u8>,
}

/// What one pass reported.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// The deterministic outcome.
    pub det: ServeDet,
    /// Start and end of every tick; emptied once folded into the
    /// workload's [`BestOf`].
    pub marks: Vec<(Instant, Instant)>,
    /// Submission and completion tick of every completed job, in report
    /// order; the same in every pass, so kept for the warmup pass only.
    pub job_spans: Vec<(u64, u64)>,
    /// Ticks jobs spent in the system, summed (queued or active, the
    /// submission and completion ticks included).
    pub job_ticks: u64,
    /// The service's cache counters.
    pub cache: CacheStats,
    /// Events the installed recorder collected (traced passes).
    pub events: Option<usize>,
    /// Traced passes only.
    pub traced: Option<TracedPass>,
}

impl PassOut {
    /// Wall nanoseconds of every tick.
    pub fn tick_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.marks.iter().map(|&(a, c)| nanos(c - a))
    }
}

/// True once every offered job was shed or completed.
fn drained(service: &CrowdServe) -> bool {
    service
        .report()
        .tenants
        .iter()
        .all(|t| t.offered == t.shed + t.completed_ok + t.degraded)
}

/// Runs one pass: every tick submits its arrivals then steps, until the
/// plan is exhausted and the service has drained. The measured wall time
/// is the sum of the ticks; drain checks sit between ticks, unmeasured.
pub fn run_pass(p: Prepared, traced: bool) -> Result<(u64, PassOut), String> {
    let Prepared {
        mut arrivals,
        mut service,
        recorder,
    } = p;
    let _guard = recorder.as_ref().map(|r| install_recorder(r.clone()));
    let horizon = arrivals.len();
    let mut marks = Vec::with_capacity(horizon + 64);
    let mut det = ServeDet::default();
    let mut tp = traced.then(|| TracedPass {
        step_ns: Vec::with_capacity(horizon + 64),
        submit_ns: Vec::new(),
        submits: Vec::with_capacity(horizon + 64),
        journal: Vec::new(),
    });
    let mut t = 0usize;
    loop {
        let a = Instant::now();
        let batch = arrivals.get_mut(t).map(std::mem::take).unwrap_or_default();
        let submits = batch.len() as u32;
        for spec in batch {
            let s0 = tp.as_ref().map(|_| Instant::now());
            let admission = service
                .submit(spec)
                .map_err(|e| format!("tick {t}: submit failed: {e}"))?;
            if let (Some(tp), Some(s0)) = (tp.as_mut(), s0) {
                tp.submit_ns.push(nanos(s0.elapsed()));
            }
            match admission {
                Admission::Admitted(_) => det.admitted_now += 1,
                Admission::Queued(_) => det.queued += 1,
                Admission::Rejected { .. } => det.rejected += 1,
            }
        }
        let b = Instant::now();
        service
            .step()
            .map_err(|e| format!("tick {t}: step failed: {e}"))?;
        let c = Instant::now();
        if let Some(tp) = tp.as_mut() {
            tp.step_ns.push(nanos(c - b));
            tp.submits.push(submits);
        }
        marks.push((a, c));
        t += 1;
        if t >= horizon && (t - horizon) % DRAIN_CHECK == 0 && drained(&service) {
            break;
        }
        if t > horizon + MAX_DRAIN {
            return Err(format!(
                "not drained {MAX_DRAIN} ticks after the last arrival"
            ));
        }
    }
    let wall: u64 = marks.iter().map(|&(a, c)| nanos(c - a)).sum();
    let report = service.report();
    for tenant in &report.tenants {
        det.offered += tenant.offered;
        det.admitted += tenant.admitted;
        det.shed += tenant.shed;
        det.completed_ok += tenant.completed_ok;
        det.degraded += tenant.degraded;
    }
    det.ticks = report.ticks;
    det.comparisons = report.comparisons;
    det.cache_hits = report.cache_hits;
    det.journal_bytes = service.journal().durable().len() as u64;
    if det.jobs() != report.jobs.len() as u64 {
        return Err(format!(
            "{} jobs reported, {} counted",
            report.jobs.len(),
            det.jobs()
        ));
    }
    let mut job_spans = Vec::with_capacity(report.jobs.len());
    let mut job_ticks = 0u64;
    for job in &report.jobs {
        if job.completed >= marks.len() as u64 || job.submitted > job.completed {
            return Err(format!("job {} outside the ticks run", job.job));
        }
        job_spans.push((job.submitted, job.completed));
        job_ticks += job.latency_ticks() + 1;
    }
    if let Some(tp) = tp.as_mut() {
        tp.journal = service.journal().durable().to_vec();
    }
    Ok((
        wall,
        PassOut {
            det,
            marks,
            job_spans,
            job_ticks,
            cache: service.cache_stats(),
            events: if traced {
                recorder.map(|r| r.events().len())
            } else {
                None
            },
            traced: tp,
        },
    ))
}

impl ServeDet {
    /// Jobs completed, degraded or not.
    pub fn jobs(&self) -> u64 {
        self.completed_ok + self.degraded
    }

    /// The service's accounting identities.
    fn check(&self) -> Result<(), (&'static str, String)> {
        if self.offered != self.admitted + self.shed {
            return Err(("offered_is_admitted_plus_shed", format!("{self:?}")));
        }
        if self.admitted != self.completed_ok + self.degraded {
            return Err(("admitted_is_completed", format!("{self:?}")));
        }
        if self.admitted_now + self.queued + self.rejected != self.offered
            || self.rejected != self.shed
        {
            return Err(("admission_answers", format!("{self:?}")));
        }
        Ok(())
    }
}

/// Checks every pass against the accounting identities and against the
/// reference pass of the same input.
fn check_passes(
    w: &'static str,
    check: &'static str,
    reference: &[Sample<PassOut>],
    passes: &[Sample<PassOut>],
) -> Result<(), Violation> {
    for s in passes {
        s.out
            .det
            .check()
            .map_err(|(name, detail)| violation(w, name, detail))?;
        let r = reference
            .iter()
            .find(|r| r.input == s.input)
            .ok_or_else(|| violation(w, check, format!("no reference for input {}", s.input)))?;
        if r.out.det != s.out.det {
            return Err(violation(
                w,
                check,
                format!("input {}: {:?} vs {:?}", s.input, s.out.det, r.out.det),
            ));
        }
    }
    Ok(())
}

/// `serve_steady`'s `step` time per charged comparison: the top rung of
/// the layer ladder.
///
/// # Errors
///
/// When the pass fails.
pub fn steady_step_ns_per_cmp(cfg: &Config) -> Result<f64, String> {
    let p = STEADY.prepare(cfg.seed, 0, cfg.divisor(), true);
    let (_, out) = run_pass(p, true)?;
    let step: u64 = out.traced.map_or(0, |t| t.step_ns.iter().sum());
    Ok(if out.det.comparisons == 0 {
        0.0
    } else {
        step as f64 / out.det.comparisons as f64
    })
}

/// Runs a service workload: the untraced measurement, then with
/// `cfg.trace` the traced passes with their journal replay, and the
/// recorder-off passes.
pub fn workload(shape: &ServeShape, cfg: &Config) -> Result<(Report, Option<SpanLog>), Violation> {
    let w = shape.name;
    let divisor = cfg.divisor();
    let plan = SamplePlan {
        warmup: WARMUP,
        min_samples: if cfg.smoke { 1 } else { 2 },
        max_samples: 10_000,
        seconds: cfg.measure_seconds(),
    };
    let setup =
        |recorder: bool| move |input: usize| shape.prepare(cfg.seed, input, divisor, recorder);
    let runner = |traced: bool| move |_: Slot, p: Prepared| run_pass(p, traced);
    // Each tick's fastest timed repeat. A timed pass's ticks are folded in
    // as it ends, so memory does not grow with the passes.
    let mut best = BestOf::default();
    let (warm, timed) = run_samples(&plan, setup(true), |slot, p| {
        let (ns, mut out) = run_pass(p, false)?;
        if slot.timed {
            let ticks: Vec<u64> = out.tick_ns().collect();
            best.observe(&ticks).map_err(|e| format!("ticks: {e}"))?;
            out.marks = Vec::new();
            out.job_spans = Vec::new();
        }
        Ok((ns, out))
    })
    .map_err(|e| violation(w, "pass", e))?;
    check_passes(w, "warmup_counts", &warm, &warm)?;
    check_passes(w, "counts_repeat", &warm, &timed)?;
    let peak_heap = heap::peak_mb();

    // Every pass runs the same ticks, so a job's latency is priced at its
    // ticks' fastest repeats: from its submission tick's start to its
    // completion tick's end.
    let ticks = best.units();
    let mut elapsed = Vec::with_capacity(ticks.len() + 1);
    elapsed.push(0u64);
    for &ns in ticks {
        elapsed.push(elapsed[elapsed.len() - 1] + ns);
    }
    let reference = &warm[0].out;
    let job_ms: Vec<f64> = reference
        .job_spans
        .iter()
        .map(|&(a, c)| (elapsed[c as usize + 1] - elapsed[a as usize]) as f64 / 1e6)
        .collect();
    let tick_us: Vec<f64> = ticks.iter().map(|&ns| ns as f64 / 1e3).collect();
    let pass_ms: Vec<f64> = timed.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let setup_ms: Vec<f64> = timed.iter().map(|s| s.setup_ns as f64 / 1e6).collect();
    let tick_summary = Summary::of(&tick_us).expect("a pass runs at least one tick");
    let jobs = Summary::of(&job_ms)
        .ok_or_else(|| violation(w, "completions", "no job completed".into()))?;
    let total_ns = best.total_ns() as f64;
    let d = &reference.det;
    let mut report = Report {
        workload: w,
        attempted: timed.iter().map(|s| s.out.det.offered).sum(),
        failed: 0,
        ..Report::default()
    };
    report.end_to_end = vec![
        metric("cmp_per_s", d.comparisons as f64 * 1e9 / total_ns, "1/s"),
        metric("jobs_per_s", d.jobs() as f64 * 1e9 / total_ns, "1/s"),
        metric("job_ms_p50", jobs.median, "ms"),
        metric("step_us_p50", tick_summary.median, "us"),
        metric("step_us_p99", percentile(&tick_us, 0.99), "us"),
        metric(
            "ok_share",
            d.completed_ok as f64 / d.offered as f64,
            "share",
        ),
        metric("setup_s", setup_seconds(&timed), "s"),
        metric("peak_heap_mb", peak_heap, "MB"),
    ];
    report.timings = vec![
        ("job_ms_best", jobs, "ms"),
        ("tick_us_best", tick_summary, "us"),
        ("pass_ms_each", Summary::of(&pass_ms).expect("timed"), "ms"),
        (
            "setup_ms_each",
            Summary::of(&setup_ms).expect("timed"),
            "ms",
        ),
    ];
    report.notes = vec![
        format!(
            "samples warmup={} timed={} offered={} ticks={} seed={} vm_hwm_mb={:.1}",
            warm.len(),
            timed.len(),
            d.offered,
            d.ticks,
            cfg.seed,
            vm_hwm_mb().unwrap_or(0.0)
        ),
        format!(
            "pass admitted={} shed={} completed_ok={} degraded={} comparisons={} cache_hits={}",
            d.admitted, d.shed, d.completed_ok, d.degraded, d.comparisons, d.cache_hits
        ),
    ];
    if !cfg.trace {
        return Ok((report, None));
    }

    let timer = timer_overhead_ns();
    let mut spans = SpanLog::new();
    let traced = replay_samples(&timed, setup(true), runner(true))
        .map_err(|e| violation(w, "traced_pass", e))?;
    check_passes(w, "traced_counts", &timed, &traced)?;
    let quiet = replay_samples(&timed, setup(false), runner(false))
        .map_err(|e| violation(w, "recorder_off_pass", e))?;
    check_passes(w, "recorder_off_counts", &timed, &quiet)?;

    let config = bench_config();
    let mut replays = Vec::with_capacity(traced.len());
    for s in &traced {
        let tp = s.out.traced.as_ref().expect("traced pass");
        let plan = shape.plan(cfg.seed, s.input, divisor);
        let stats = replay_serve_journal(&config, cfg.seed, &plan, &tp.journal, s.out.cache, timer)
            .map_err(|e| violation(w, "journal_replay_audit", e))?;
        push_pass_spans(&mut spans, s, tp, &stats);
        replays.push(stats);
    }
    report.per_layer = layer_metrics(&traced, &replays, &spans);
    let wall = |v: &[Sample<PassOut>]| v.iter().map(|s| s.wall_ns as f64).sum::<f64>();
    let events = traced
        .iter()
        .map(|s| s.out.events.unwrap_or(0) as f64)
        .sum::<f64>()
        / traced.len() as f64;
    report.per_layer.extend([
        metric(
            "obs.overhead_share",
            wall(&timed) / wall(&quiet) - 1.0,
            "share",
        ),
        metric("obs.events", events, "count"),
        metric(
            "trace.overhead_share",
            wall(&traced) / wall(&timed) - 1.0,
            "share",
        ),
    ]);
    let misses: u64 = replays.iter().map(|r| r.cache.misses).sum();
    report.notes.push(format!(
        "trace timer_ns={timer:.1} replay_audit=ok replayed_misses_lower_bound={misses} shard_seed={:#x}",
        mix(cfg.seed ^ 0x5E)
    ));
    Ok((report, Some(spans)))
}

/// One pass's spans: the pass, each tick (submits plus `step`), under
/// each tick the aggregate of its `submit` calls and the replayed shard,
/// cache and journal time.
fn push_pass_spans(spans: &mut SpanLog, s: &Sample<PassOut>, tp: &TracedPass, stats: &ReplayStats) {
    let marks = &s.out.marks;
    let (Some(first), Some(last)) = (marks.first(), marks.last()) else {
        return;
    };
    let pass = spans.push(
        0,
        "run",
        format!("sample{}", s.input),
        first.0,
        last.1,
        s.wall_ns,
        marks.len() as u64,
    );
    let mut submit_at = 0usize;
    let mut replayed = stats.ticks.iter().peekable();
    for (t, &(a, c)) in marks.iter().enumerate() {
        let n = tp.submits[t] as usize;
        let tick = spans.push(
            pass,
            "service",
            format!("t{t}"),
            a,
            c,
            nanos(c - a),
            n as u64,
        );
        if n > 0 {
            let ns: u64 = tp.submit_ns[submit_at..submit_at + n].iter().sum();
            spans.push(tick, "admission", format!("t{t}"), a, c, ns, n as u64);
            submit_at += n;
        }
        while let Some(cost) = replayed.next_if(|cost| cost.tick <= t as u64) {
            if cost.tick != t as u64 {
                continue;
            }
            let (r0, r1) = (cost.started.unwrap_or(a), cost.ended.unwrap_or(c));
            for (layer, busy, count) in [
                ("shard", cost.shard_ns, cost.pairs),
                ("cache", cost.cache_ns, cost.cache_calls),
                ("journal", cost.journal_ns, cost.journal_calls),
            ] {
                if count > 0 {
                    spans.push(tick, layer, format!("t{t}"), r0, r1, busy, count);
                }
            }
        }
    }
}

/// Per-layer metrics of the service layers.
fn layer_metrics(
    traced: &[Sample<PassOut>],
    replays: &[ReplayStats],
    spans: &SpanLog,
) -> Vec<Metric> {
    let passes = traced.len() as f64;
    let tps: Vec<&TracedPass> = traced
        .iter()
        .filter_map(|s| s.out.traced.as_ref())
        .collect();
    let mut submit: Vec<f64> = tps
        .iter()
        .flat_map(|t| t.submit_ns.iter().map(|&ns| ns as f64))
        .collect();
    submit.sort_by(f64::total_cmp);
    let mut step_us: Vec<f64> = tps
        .iter()
        .flat_map(|t| t.step_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    step_us.sort_by(f64::total_cmp);
    let q = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { quantile(v, p) };
    let per_pass =
        |f: &dyn Fn(&PassOut) -> u64| traced.iter().map(|s| f(&s.out)).sum::<u64>() as f64 / passes;
    let total = |f: &dyn Fn(&ReplayStats) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let ticks = per_pass(&|o| o.det.ticks) * passes;
    let step_total: f64 = tps
        .iter()
        .flat_map(|t| t.step_ns.iter())
        .map(|&ns| ns as f64)
        .sum();
    let service_self = spans.self_by_layer().get("service").copied().unwrap_or(0) as f64;
    let lookups: u64 = traced.iter().map(|s| s.out.cache.lookups).sum();
    let hits: u64 = traced.iter().map(|s| s.out.cache.hits).sum();
    vec![
        metric("serve.submit_ns_p50", q(&submit, 0.5), "ns"),
        metric("serve.admitted", per_pass(&|o| o.det.admitted_now), "count"),
        metric("serve.queued", per_pass(&|o| o.det.queued), "count"),
        metric("serve.shed", per_pass(&|o| o.det.shed), "count"),
        metric(
            "cache.lookup_ns",
            ratio(total(&|r| r.lookup_ns), total(&|r| r.lookups)),
            "ns",
        ),
        metric(
            "cache.insert_ns",
            ratio(total(&|r| r.insert_ns), total(&|r| r.inserts)),
            "ns",
        ),
        metric(
            "cache.hit_share",
            ratio(hits as f64, lookups as f64),
            "share",
        ),
        metric("cache.evictions", per_pass(&|o| o.cache.evictions), "count"),
        metric(
            "shard.ns_per_pair",
            ratio(total(&|r| r.shard_ns), total(&|r| r.pairs)),
            "ns",
        ),
        metric(
            "shard.retry_share",
            ratio(
                total(&|r| r.attempts) - total(&|r| r.answers),
                total(&|r| r.attempts),
            ),
            "share",
        ),
        metric(
            "journal.append_us_per_tick",
            ratio(total(&|r| r.journal_ns), ticks) / 1e3,
            "us",
        ),
        metric(
            "journal.bytes_per_job",
            ratio(
                per_pass(&|o| o.det.journal_bytes),
                per_pass(&|o| o.det.jobs()),
            ),
            "B",
        ),
        metric("serve.step_us_p50", q(&step_us, 0.5), "us"),
        metric("serve.step_us_p99", q(&step_us, 0.99), "us"),
        metric("serve.self_share", ratio(service_self, step_total), "share"),
        metric(
            "serve.active_jobs_mean",
            ratio(per_pass(&|o| o.job_ticks), per_pass(&|o| o.det.ticks)),
            "count",
        ),
    ]
}

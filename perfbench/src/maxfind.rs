//! The two batch workloads: Algorithm 1 over the simulated kernel
//! (`maxfind_kernel`) and over the fault-injected, journaled platform
//! (`maxfind_platform`). Both are closed loops with one caller: a run
//! starts when the previous one returns.

use crate::harness::{
    nanos, percentile, replay_samples, run_samples, setup_seconds, vm_hwm_mb, BestOf, Sample,
    SamplePlan, Slot, Summary,
};
use crate::report::{metric, violation, Metric, Report, Violation};
use crate::trace::{Acc, LayerStats, Overhead, SpanLog, Timed, PHASES, STRIDE};
use crate::{heap, ladder, Config};
use crowd_core::algorithms::{
    expert_max_find, try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome,
};
use crowd_core::element::ElementId;
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError, SimulatedOracle};
use crowd_core::trace::TraceEvent;
use crowd_datasets::synthetic::PlantedInstance;
use crowd_experiments::fault_sweep::{fault_config, EXPERT_POOL, NAIVE_POOL};
use crowd_experiments::harness::planted_for;
use crowd_obs::{install_recorder, ObservedOracle, Recorder};
use crowd_platform::{
    CheckpointPolicy, JournaledOracle, Platform, PlatformConfig, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The fault rate the platform workload injects.
pub const FAULT_RATE: f64 = 0.01;

/// Oracle decorator that stamps the clock each time another `step`
/// comparisons have been asked, so a run yields per-step wall times. A
/// step is the max-find counterpart of a service tick, and the unit whose
/// fastest repeat the workload reports (see [`BestOf`]).
#[derive(Debug)]
pub struct StepClock<O> {
    inner: O,
    step: u64,
    pairs: u64,
    next: u64,
    marks: Vec<Instant>,
}

impl<O: ComparisonOracle> StepClock<O> {
    /// Wraps `inner`, with room for `expected_pairs / step` marks.
    pub fn new(inner: O, step: u64, expected_pairs: u64) -> Self {
        StepClock {
            inner,
            step,
            pairs: 0,
            next: step,
            marks: Vec::with_capacity((expected_pairs / step) as usize + 1),
        }
    }

    fn advance(&mut self, n: usize) {
        self.pairs += n as u64;
        if self.pairs >= self.next {
            self.marks.push(Instant::now());
            self.next = (self.pairs / self.step + 1) * self.step;
        }
    }

    /// Consumes the clock: the wrapped oracle and the step marks.
    pub fn into_parts(self) -> (O, Vec<Instant>) {
        (self.inner, self.marks)
    }
}

/// Wall nanoseconds of every step from `start` to `end`: one per mark,
/// and the last, partial step up to `end`. They sum to `end - start`.
pub fn step_ns(start: Instant, marks: &[Instant], end: Instant) -> Vec<u64> {
    let mut prev = start;
    marks
        .iter()
        .chain([&end])
        .map(|&m| {
            let d = nanos(m.saturating_duration_since(prev));
            prev = prev.max(m);
            d
        })
        .collect()
}

impl<O: ComparisonOracle> ComparisonOracle for StepClock<O> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        let w = self.inner.compare(class, k, j);
        self.advance(1);
        w
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let w = self.inner.try_compare(class, k, j);
        self.advance(1);
        w
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.inner.compare_batch(class, pairs, winners);
        self.advance(pairs.len());
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        self.advance(pairs.len());
        outcome
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: TraceEvent) {
        self.inner.observe(event);
    }
}

/// Which oracle sits under the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottom {
    /// `SimulatedOracle`: the threshold-model kernel, no platform.
    Kernel,
    /// `JournaledOracle` over a fault-injected `Platform`.
    Platform,
}

impl Bottom {
    /// The layer name the bottom oracle's time is attributed to.
    pub fn layer(self) -> &'static str {
        match self {
            Bottom::Kernel => "simulated",
            Bottom::Platform => "journaled",
        }
    }

    /// Which calls the bottom layer's [`Timed`] samples. Kernel calls cost
    /// the same, so the two layers sample disjoint calls and the outer one
    /// never contains the inner one's clock reads. Platform calls vary by
    /// orders of magnitude (retries, journal growth), so both layers
    /// sample the same calls and the observed layer's time is a paired
    /// difference.
    pub fn timed_offset(self) -> u64 {
        match self {
            Bottom::Kernel => STRIDE / 2,
            Bottom::Platform => 0,
        }
    }
}

/// One max-find workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxfindShape {
    /// Workload name.
    pub name: &'static str,
    /// Elements per instance.
    pub n: usize,
    /// Planted `un(n)`.
    pub un: usize,
    /// Planted `ue(n)`.
    pub ue: usize,
    /// Warmup runs (and distinct inputs).
    pub warmup: usize,
    /// Comparisons per step.
    pub step_pairs: u64,
    /// The oracle under the algorithm.
    pub bottom: Bottom,
    /// A Recorder is installed in the measured runs.
    pub recorder: bool,
}

/// Alg 1 through the `harness::run_trial` stack, no recorder. A step of
/// 1024 comparisons takes about 10 µs, a thousand clock reads.
pub const KERNEL: MaxfindShape = MaxfindShape {
    name: "maxfind_kernel",
    n: 100_000,
    un: 47,
    ue: 11,
    warmup: 3,
    step_pairs: 1024,
    bottom: Bottom::Kernel,
    recorder: false,
};

/// Alg 1 through `ObservedOracle<JournaledOracle>` on the fault sweep's
/// platform at a 1% fault rate, with a Recorder installed. Steps of 128
/// comparisons give a run about 1 850 of them, enough for a p99.
pub const PLATFORM: MaxfindShape = MaxfindShape {
    name: "maxfind_platform",
    n: 5_000,
    un: 18,
    ue: 4,
    warmup: 1,
    step_pairs: 128,
    bottom: Bottom::Platform,
    recorder: true,
};

/// Everything one run needs, built before the clock starts.
pub struct Prepared {
    planted: PlantedInstance,
    ids: Vec<ElementId>,
    config: ExpertMaxConfig,
    rng: StdRng,
    bottom: BottomOracle,
    recorder: Option<Arc<Recorder>>,
}

// One per prepared input, moved out before the clock starts.
#[allow(clippy::large_enum_variant)]
enum BottomOracle {
    Kernel(SimulatedOracle<StdRng>),
    Platform(JournaledOracle<StdRng>),
}

/// Seeds of input `input`: the planted instance and the oracle stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seeds {
    /// Seed the planted instance is drawn from (via `planted_for`).
    pub instance: u64,
    /// Seed of the oracle (platform) stack; Phase 2 draws from it `^ 0x5eed`.
    pub oracle: u64,
}

impl MaxfindShape {
    /// Elements at scale `divisor` (1 for the real run, 50 for smoke).
    pub fn n_at(&self, divisor: usize) -> usize {
        (self.n / divisor).max(4 * self.un)
    }

    /// The seeds of input `input` under workload seed `seed`: the kernel
    /// follows `harness::average_rank`, the platform `fault_sweep::run_trial`.
    pub fn seeds(&self, seed: u64, input: usize) -> Seeds {
        let t = input as u64;
        match self.bottom {
            Bottom::Kernel => Seeds {
                instance: seed,
                oracle: seed ^ (t * 7 + 1),
            },
            Bottom::Platform => Seeds {
                instance: seed ^ 0xFA,
                oracle: seed ^ (t.wrapping_mul(0x9E37) << 16) ^ (FAULT_RATE.to_bits() >> 12),
            },
        }
    }

    /// The planted instance of input `input`.
    pub fn planted(&self, seed: u64, input: usize, divisor: usize) -> PlantedInstance {
        let s = self.seeds(seed, input);
        planted_for(
            self.n_at(divisor),
            self.un,
            self.ue,
            s.instance,
            input as u64,
        )
    }

    /// Builds input `input`: instance, element ids and the oracle stack.
    pub fn prepare(&self, seed: u64, input: usize, divisor: usize, recorder: bool) -> Prepared {
        let planted = self.planted(seed, input, divisor);
        let s = self.seeds(seed, input);
        let bottom = match self.bottom {
            Bottom::Kernel => BottomOracle::Kernel(kernel_oracle(&planted, s.oracle)),
            Bottom::Platform => BottomOracle::Platform(JournaledOracle::new(
                platform(&planted, s.oracle),
                "perf",
                s.oracle,
                CheckpointPolicy::every(4),
            )),
        };
        Prepared {
            ids: planted.instance.ids(),
            config: ExpertMaxConfig::new(self.un.max(1)),
            rng: StdRng::seed_from_u64(s.oracle ^ 0x5eed),
            planted,
            bottom,
            recorder: recorder.then(|| Arc::new(Recorder::new())),
        }
    }
}

/// The kernel's bottom oracle, exactly as `harness::run_trial` builds it.
pub fn kernel_oracle(planted: &PlantedInstance, seed: u64) -> SimulatedOracle<StdRng> {
    let model = ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);
    SimulatedOracle::new(planted.instance.clone(), model, StdRng::seed_from_u64(seed))
}

/// The fault sweep's trial platform at [`FAULT_RATE`]: 25 naive and 4
/// expert workers, 4 retries, expert fallback at 3 votes.
pub fn platform(planted: &PlantedInstance, seed: u64) -> Platform<StdRng> {
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(NAIVE_POOL, planted.delta_n, 0.0);
    pool.hire_expert_panel(EXPERT_POOL, planted.delta_e, 0.0);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(fault_config(FAULT_RATE), seed ^ 0xFA117)
        .with_retry(RetryPolicy::paper_default().with_max_retries(4))
        .with_expert_fallback(3);
    Platform::new(
        planted.instance.clone(),
        pool,
        config,
        StdRng::seed_from_u64(seed),
    )
}

/// The deterministic outcome of a run: equal for every run of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Det {
    /// Comparisons charged, by class.
    pub counts: ComparisonCounts,
    /// The returned element.
    pub winner: ElementId,
    /// Durable journal bytes (platform).
    pub journal_bytes: u64,
    /// Judgments re-assigned after a fault (platform).
    pub retries: u64,
    /// Units given up on (platform).
    pub dead_letters: u64,
}

/// What one run reported.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// The deterministic outcome.
    pub det: Det,
    /// Per-step wall nanoseconds, covering the run ([`step_ns`]); emptied
    /// once folded into the workload's [`BestOf`].
    pub steps: Vec<u64>,
    /// Events the installed recorder collected, if any.
    pub events: Option<usize>,
    /// Traced runs: the outer (observed) and inner (bottom) layers.
    pub layers: Option<(LayerStats, LayerStats)>,
    /// Start and end of the measured region.
    pub span: (Instant, Instant),
}

/// Runs Algorithm 1 on a prepared input: untraced, or with [`Timed`]
/// around the `ObservedOracle` boundary (offset 0) and around the bottom
/// oracle (offset [`Bottom::timed_offset`]).
pub fn run(shape: &MaxfindShape, p: Prepared, traced: bool) -> Result<(u64, RunOut), String> {
    let Prepared {
        planted,
        ids,
        config,
        mut rng,
        bottom,
        recorder,
    } = p;
    let _guard = recorder.as_ref().map(|r| install_recorder(r.clone()));
    let (start, end, outcome, steps, det_tail, layers) = match bottom {
        BottomOracle::Kernel(o) => drive(o, shape, traced, &ids, &config, &mut rng, |_| (0, 0, 0)),
        BottomOracle::Platform(o) => drive(
            o,
            shape,
            traced,
            &ids,
            &config,
            &mut rng,
            |j: &mut JournaledOracle<StdRng>| {
                j.finish();
                let p = j.platform();
                let faults = p.fault_counts();
                (
                    j.journal().durable().len() as u64,
                    faults.naive.retries + faults.expert.retries,
                    p.dead_letters().len() as u64,
                )
            },
        ),
    };
    let outcome = outcome.map_err(|e| format!("run erred: {e}"))?;
    check_guarantees(shape, &planted, &outcome)?;
    let (journal_bytes, retries, dead_letters) = det_tail;
    Ok((
        nanos(end - start),
        RunOut {
            det: Det {
                counts: outcome.total_comparisons,
                winner: outcome.winner,
                journal_bytes,
                retries,
                dead_letters,
            },
            steps,
            events: recorder.map(|r| r.events().len()),
            layers,
            span: (start, end),
        },
    ))
}

type Driven<T> = (
    Instant,
    Instant,
    Result<ExpertMaxOutcome, OracleError>,
    Vec<u64>,
    T,
    Option<(LayerStats, LayerStats)>,
);

/// Builds the stack over `bottom` (with [`Timed`] layers when `traced`),
/// runs the algorithm, and lets `finish` close the bottom oracle (inside
/// the measured region) and report on it.
fn drive<O: ComparisonOracle, T>(
    bottom: O,
    shape: &MaxfindShape,
    traced: bool,
    ids: &[ElementId],
    config: &ExpertMaxConfig,
    rng: &mut StdRng,
    finish: impl FnOnce(&mut O) -> T,
) -> Driven<T> {
    fn alg<O: ComparisonOracle>(
        o: &mut O,
        shape: &MaxfindShape,
        ids: &[ElementId],
        config: &ExpertMaxConfig,
        rng: &mut StdRng,
    ) -> Result<ExpertMaxOutcome, OracleError> {
        if shape.bottom == Bottom::Platform {
            try_expert_max_find(o, ids, config, rng)
        } else {
            Ok(expert_max_find(o, ids, config, rng))
        }
    }
    let expected = (4 * ids.len() * shape.un) as u64;
    if traced {
        let inner = Timed::new(bottom, shape.bottom.layer(), shape.bottom.timed_offset());
        let mut stack = StepClock::new(
            Timed::new(ObservedOracle::new(inner), "observed", 0),
            shape.step_pairs,
            expected,
        );
        let start = Instant::now();
        let outcome = alg(&mut stack, shape, ids, config, rng);
        let (timed, marks) = stack.into_parts();
        let (observed, outer) = timed.into_parts();
        let (mut b, inner) = observed.into_inner().into_parts();
        let tail = finish(&mut b);
        let end = Instant::now();
        let steps = step_ns(start, &marks, end);
        (start, end, outcome, steps, tail, Some((outer, inner)))
    } else {
        let mut stack = StepClock::new(ObservedOracle::new(bottom), shape.step_pairs, expected);
        let start = Instant::now();
        let outcome = alg(&mut stack, shape, ids, config, rng);
        let (observed, marks) = stack.into_parts();
        let mut b = observed.into_inner();
        let tail = finish(&mut b);
        let end = Instant::now();
        (start, end, outcome, step_ns(start, &marks, end), tail, None)
    }
}

/// The paper's guarantees as run-time checks. Theorem 2 (2-MaxFind):
/// the winner is within `2·δe` of the maximum. Lemma 3: the maximum
/// survives Phase 1, at most `2·un − 1` candidates remain, and on the
/// kernel (where every comparison asked is charged once) Phase 1 asks at
/// most `4·n·un` naive comparisons.
fn check_guarantees(
    shape: &MaxfindShape,
    planted: &PlantedInstance,
    out: &ExpertMaxOutcome,
) -> Result<(), String> {
    let inst = &planted.instance;
    let gap = inst.max_value() - inst.value(out.winner);
    if gap > 2.0 * planted.delta_e {
        return Err(format!(
            "theorem2: winner {} is {gap} below the max, 2·δe = {}",
            out.winner,
            2.0 * planted.delta_e
        ));
    }
    if !out.candidates.contains(&inst.max_element()) {
        return Err("lemma3: the maximum did not survive phase 1".into());
    }
    if inst.n() >= 2 * shape.un && out.candidates.len() > 2 * shape.un - 1 {
        return Err(format!(
            "lemma3: {} candidates, bound 2·un − 1 = {}",
            out.candidates.len(),
            2 * shape.un - 1
        ));
    }
    let bound = 4 * inst.n() as u64 * shape.un as u64;
    if shape.bottom == Bottom::Kernel && out.phase1.comparisons.naive > bound {
        return Err(format!(
            "lemma3: {} naive comparisons, bound 4·n·un = {bound}",
            out.phase1.comparisons.naive
        ));
    }
    Ok(())
}

/// Checks that every sample reproduced the deterministic outcome the
/// reference sample of the same input produced.
fn check_same(
    w: &'static str,
    check: &'static str,
    reference: &[Sample<RunOut>],
    samples: &[Sample<RunOut>],
) -> Result<(), Violation> {
    for s in samples {
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

/// Runs a max-find workload: the untraced measurement, then with
/// `cfg.trace` the traced run, the recorder-toggled run, and (on the
/// platform workload) the layer ladder.
pub fn workload(
    shape: &MaxfindShape,
    cfg: &Config,
) -> Result<(Report, Option<SpanLog>), Violation> {
    let w = shape.name;
    let divisor = cfg.divisor();
    let plan = SamplePlan {
        warmup: shape.warmup,
        min_samples: if cfg.smoke { 1 } else { 2 } * shape.warmup,
        max_samples: 100_000,
        seconds: cfg.measure_seconds(),
    };
    let setup =
        |recorder: bool| move |input: usize| shape.prepare(cfg.seed, input, divisor, recorder);
    let runner = |traced: bool| move |_: Slot, p: Prepared| run(shape, p, traced);
    // Per input, each step's fastest timed repeat. A timed sample's steps
    // are folded in as it ends, so memory does not grow with the samples.
    let mut best = vec![BestOf::default(); shape.warmup];
    let (warm, timed) = run_samples(&plan, setup(shape.recorder), |slot, p| {
        let (ns, mut out) = run(shape, p, false)?;
        if slot.timed {
            best[slot.input]
                .observe(&out.steps)
                .map_err(|e| format!("steps: {e}"))?;
            out.steps = Vec::new();
        }
        Ok((ns, out))
    })
    .map_err(|e| violation(w, "run", e))?;
    check_same(w, "counts_repeat", &warm, &timed)?;
    let peak_heap = heap::peak_mb();

    let mut report = Report {
        workload: w,
        attempted: timed.len() as u64,
        failed: 0,
        ..Report::default()
    };
    // Every input, priced at its steps' fastest repeats: `min_samples`
    // gives each input at least one timed repeat.
    let priced: Vec<(u64, &BestOf)> = warm
        .iter()
        .zip(&best)
        .map(|(s, b)| (s.out.det.counts.total(), b))
        .collect();
    let run_ns: Vec<f64> = priced.iter().map(|(_, b)| b.total_ns() as f64).collect();
    let total_ns: f64 = run_ns.iter().sum();
    let charged: u64 = priced.iter().map(|(c, _)| c).sum();
    let best_ms: Vec<f64> = run_ns.iter().map(|ns| ns / 1e6).collect();
    let step_us: Vec<f64> = priced
        .iter()
        .flat_map(|(_, b)| b.units().iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let sample_ms: Vec<f64> = timed.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let setup_ms: Vec<f64> = timed.iter().map(|s| s.setup_ns as f64 / 1e6).collect();
    let runs = Summary::of(&best_ms).expect("at least one timed sample");
    let steps = Summary::of(&step_us).expect("a run has at least one step");
    report.end_to_end = vec![
        metric("cmp_per_s", charged as f64 * 1e9 / total_ns, "1/s"),
        metric("jobs_per_s", priced.len() as f64 * 1e9 / total_ns, "1/s"),
        metric("job_ms_p50", runs.median, "ms"),
        metric("step_us_p50", steps.median, "us"),
        metric("step_us_p99", percentile(&step_us, 0.99), "us"),
        // Every run met the guarantees checked above, or the workload
        // failed before reaching this line.
        metric("ok_share", 1.0, "share"),
        metric("setup_s", setup_seconds(&timed), "s"),
        metric("peak_heap_mb", peak_heap, "MB"),
    ];
    report.timings = vec![
        ("job_ms_best", runs, "ms"),
        ("step_us_best", steps, "us"),
        ("job_ms_each", Summary::of(&sample_ms).expect("timed"), "ms"),
        (
            "setup_ms_each",
            Summary::of(&setup_ms).expect("timed"),
            "ms",
        ),
    ];
    report.notes = vec![
        format!(
            "samples warmup={} timed={} repeats_per_input={:?} n={} un={} ue={} seed={}",
            warm.len(),
            timed.len(),
            best.iter().map(BestOf::repeats).collect::<Vec<_>>(),
            shape.n_at(divisor),
            shape.un,
            shape.ue,
            cfg.seed
        ),
        format!(
            "comparisons_per_run={} step_pairs={} vm_hwm_mb={:.1}",
            charged / priced.len() as u64,
            shape.step_pairs,
            vm_hwm_mb().unwrap_or(0.0)
        ),
    ];
    if !cfg.trace {
        return Ok((report, None));
    }

    // The traced run replays the same inputs with Timed in the stack.
    let ov = Overhead::measure();
    let mut spans = SpanLog::new();
    let traced = replay_samples(&timed, setup(shape.recorder), runner(true))
        .map_err(|e| violation(w, "traced_run", e))?;
    check_same(w, "traced_counts", &timed, &traced)?;
    // The same inputs with the recorder toggled.
    let toggled = replay_samples(&timed, setup(!shape.recorder), runner(false))
        .map_err(|e| violation(w, "recorder_toggled_run", e))?;
    check_same(w, "recorder_toggled_counts", &timed, &toggled)?;

    for s in &traced {
        push_run_spans(&mut spans, shape, s, &ov);
    }
    let wall = |v: &[Sample<RunOut>]| v.iter().map(|s| s.wall_ns as f64).sum::<f64>();
    let (with_rec, without_rec) = if shape.recorder {
        (&timed, &toggled)
    } else {
        (&toggled, &timed)
    };
    let events = with_rec
        .iter()
        .map(|s| s.out.events.unwrap_or(0) as f64)
        .sum::<f64>()
        / with_rec.len() as f64;
    let mut layers = layer_metrics(shape, &traced, &spans);
    layers.push(metric(
        "obs.overhead_share",
        wall(with_rec) / wall(without_rec) - 1.0,
        "share",
    ));
    layers.push(metric("obs.events", events, "count"));
    let ladder_metrics = if shape.bottom == Bottom::Platform {
        let planted = shape.planted(cfg.seed, 0, divisor);
        let seeds = shape.seeds(cfg.seed, 0);
        ladder::ladder(&planted, seeds.oracle, shape, cfg).map_err(|e| violation(w, "ladder", e))?
    } else {
        Vec::new()
    };
    let rung = |name: &str| {
        ladder_metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (platform_ns, journaled_ns) = (rung("ladder.platform"), rung("ladder.journaled"));
    let platform_totals = traced.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, s| {
        let d = &s.out.det;
        (
            acc.0 + d.retries,
            acc.1 + d.counts.total(),
            acc.2 + d.dead_letters,
            acc.3 + d.journal_bytes,
        )
    });
    let is_platform = shape.bottom == Bottom::Platform;
    let per_run = |v: u64| v as f64 / traced.len() as f64;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.extend([
        metric("platform.ns_per_cmp", platform_ns, "ns"),
        metric(
            "platform.retried_share",
            share(platform_totals.0, platform_totals.1),
            "share",
        ),
        metric("platform.dead_letters", per_run(platform_totals.2), "count"),
        metric(
            "journal.self_ns_per_cmp",
            if is_platform {
                journaled_ns - platform_ns
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "journal.bytes_per_cmp",
            share(platform_totals.3, platform_totals.1),
            "B",
        ),
    ]);
    layers.extend(ladder_metrics);
    layers.push(metric(
        "trace.overhead_share",
        wall(&traced) / wall(&timed) - 1.0,
        "share",
    ));
    report.per_layer = layers;
    report.notes.push(format!(
        "trace timer_ns={:.1} unsampled_ns={:.2} sampled_ns={:.1} stride={STRIDE} transparency=ok",
        ov.timer_ns, ov.unsampled_ns, ov.sampled_ns
    ));
    Ok((report, Some(spans)))
}

/// One run's spans: the run, its phases, and under each phase the
/// aggregate of the observed boundary's calls, under which sits the
/// aggregate of the bottom oracle's calls. Busy times are corrected for
/// what the [`Timed`] layers themselves added (see [`Overhead`]).
fn push_run_spans(spans: &mut SpanLog, shape: &MaxfindShape, s: &Sample<RunOut>, ov: &Overhead) {
    let (start, end) = s.out.span;
    let Some((outer, inner)) = &s.out.layers else {
        return;
    };
    let added = |slot: usize| ov.added_ns(&outer.acc[slot]) + ov.added_ns(&inner.acc[slot]);
    let instrumented: f64 = (0..PHASES.len()).map(added).sum();
    let run = spans.push(
        0,
        "run",
        format!("sample{}", s.input),
        start,
        end,
        (nanos(end - start) as f64 - instrumented).max(0.0) as u64,
        1,
    );
    let nested = ov.nested_ns(outer, inner);
    for (slot, phase) in PHASES.iter().enumerate() {
        let acc = &outer.acc[slot];
        let parent = match outer.marks[slot] {
            (Some(a), Some(b)) => spans.push(
                run,
                "algorithms",
                phase.to_string(),
                a,
                b,
                (nanos(b - a) as f64 - added(slot)).max(0.0) as u64,
                acc.calls,
            ),
            _ => run,
        };
        if acc.calls == 0 {
            continue;
        }
        let bounds = |a: &Acc| (a.first.unwrap_or(start), a.last.unwrap_or(start));
        let (a0, a1) = bounds(acc);
        let observed = spans.push(
            parent,
            "observed",
            phase.to_string(),
            a0,
            a1,
            ov.busy_ns(acc, nested) as u64,
            acc.calls,
        );
        let iacc = &inner.acc[slot];
        let (b0, b1) = bounds(iacc);
        spans.push(
            observed,
            shape.bottom.layer(),
            phase.to_string(),
            b0,
            b1,
            ov.busy_ns(iacc, 0.0) as u64,
            iacc.calls,
        );
    }
}

/// Per-layer metrics of the max-find layers, from the traced runs' spans.
fn layer_metrics(shape: &MaxfindShape, traced: &[Sample<RunOut>], spans: &SpanLog) -> Vec<Metric> {
    let busy = spans.busy_by_layer();
    let own = spans.self_by_layer();
    let run_ns = busy.get("run").copied().unwrap_or(0) as f64;
    let algorithms_self =
        (own.get("run").copied().unwrap_or(0) + own.get("algorithms").copied().unwrap_or(0)) as f64;
    let (calls, pairs) = traced.iter().filter_map(|s| s.out.layers.as_ref()).fold(
        (0u64, 0u64),
        |(c, p), (outer, _)| {
            let t = outer.total();
            (c + t.calls, p + t.pairs)
        },
    );
    let phase_ms = |slot: usize| {
        let v: Vec<f64> = spans
            .spans()
            .iter()
            .filter(|s| s.layer == "algorithms" && s.name == PHASES[slot])
            .map(|s| s.busy_ns as f64 / 1e6)
            .collect();
        Summary::of(&v).map_or(0.0, |s| s.median)
    };
    let per_pair = |ns: f64| if pairs == 0 { 0.0 } else { ns / pairs as f64 };
    let simulated = if shape.bottom == Bottom::Kernel {
        per_pair(busy.get("simulated").copied().unwrap_or(0) as f64)
    } else {
        0.0
    };
    vec![
        metric("algorithms.phase1_ms", phase_ms(1), "ms"),
        metric("algorithms.phase2_ms", phase_ms(2), "ms"),
        metric(
            "algorithms.self_share",
            if run_ns > 0.0 {
                algorithms_self / run_ns
            } else {
                0.0
            },
            "share",
        ),
        metric("simulated.ns_per_cmp", simulated, "ns"),
        metric("oracle.calls", calls as f64 / traced.len() as f64, "count"),
        metric(
            "oracle.pairs_per_call",
            if calls == 0 {
                0.0
            } else {
                pairs as f64 / calls as f64
            },
            "count",
        ),
        metric(
            "observed.self_ns_per_cmp",
            per_pair(own.get("observed").copied().unwrap_or(0) as f64),
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::algorithms::FilterOutcome;
    use crowd_experiments::fault_sweep;
    use crowd_experiments::harness::{run_trial, Approach};

    #[test]
    fn the_kernel_stack_is_run_trials_stack() {
        let shape = MaxfindShape { n: 3_000, ..KERNEL };
        for input in 0..2 {
            let planted = shape.planted(7, input, 1);
            let reference = run_trial(
                Approach::Alg1,
                &planted,
                shape.un,
                shape.seeds(7, input).oracle,
            );
            for traced in [false, true] {
                let (_, out) = run(&shape, shape.prepare(7, input, 1, false), traced)
                    .expect("kernel runs meet the guarantees");
                assert_eq!(out.det.counts, reference.counts);
                assert_eq!(planted.instance.rank(out.det.winner), reference.rank);
                assert_eq!(out.layers.is_some(), traced);
                assert!(!out.steps.is_empty());
            }
        }
    }

    #[test]
    fn the_platform_stack_is_the_fault_sweeps_trial_plus_a_journal() {
        let shape = MaxfindShape {
            n: 600,
            un: 6,
            ue: 1,
            ..PLATFORM
        };
        let reference = fault_sweep::run_trial(600, 6, FAULT_RATE, 11, 0);
        assert!(reference.found_max && !reference.failed);
        let (_, out) = run(&shape, shape.prepare(11, 0, 1, true), false).expect("run succeeds");
        let faults = reference.faults.naive.retries + reference.faults.expert.retries;
        assert_eq!(out.det.retries, faults);
        assert_eq!(out.det.dead_letters, reference.dead_letters);
        assert!(out.det.journal_bytes > 0);
        assert!(out.events.is_some_and(|e| e > 0));
    }

    #[test]
    fn the_guarantees_reject_a_far_winner() {
        let planted = KERNEL.planted(3, 0, 50);
        let inst = &planted.instance;
        let worst = inst
            .ids()
            .into_iter()
            .min_by(|a, b| inst.value(*a).total_cmp(&inst.value(*b)))
            .expect("non-empty");
        let out = ExpertMaxOutcome {
            winner: worst,
            candidates: vec![inst.max_element()],
            phase1: FilterOutcome {
                survivors: vec![inst.max_element()],
                rounds: 1,
                sizes: vec![inst.n(), 1],
                comparisons: ComparisonCounts::zero(),
            },
            phase2_comparisons: ComparisonCounts::zero(),
            total_comparisons: ComparisonCounts::zero(),
        };
        let err = check_guarantees(&KERNEL, &planted, &out).expect_err("far winner");
        assert!(err.starts_with("theorem2"), "{err}");
        let lost = ExpertMaxOutcome {
            winner: inst.max_element(),
            candidates: vec![worst],
            ..out
        };
        let err = check_guarantees(&KERNEL, &planted, &lost).expect_err("max filtered out");
        assert!(err.starts_with("lemma3"), "{err}");
    }

    #[test]
    fn step_clock_marks_every_step_and_the_steps_cover_the_run() {
        let planted = KERNEL.planted(5, 0, 50);
        let step = 64u64;
        let mut clock = StepClock::new(kernel_oracle(&planted, 1), step, 0);
        let start = Instant::now();
        for i in 0..(2 * step + 10) as u32 {
            clock.compare(
                WorkerClass::Naive,
                ElementId(i % 100),
                ElementId(100 + i % 100),
            );
        }
        let mut winners = Vec::new();
        let batch = vec![(ElementId(0), ElementId(1)); step as usize];
        clock.compare_batch(WorkerClass::Naive, &batch, &mut winners);
        let (_, marks) = clock.into_parts();
        assert_eq!(marks.len(), 3);
        let end = Instant::now();
        let steps = step_ns(start, &marks, end);
        // Three full steps and the partial one up to `end`.
        assert_eq!(steps.len(), 4);
        assert_eq!(steps.iter().sum::<u64>(), nanos(end - start));
    }
}

//! Deterministic fault injection: dropout, abandonment, latency, and
//! transient no-answer faults.
//!
//! The paper's CrowdFlower campaigns lived with unreliable workers; this
//! module gives the simulator the same messy reality under full control.
//! A [`FaultPlan`] decides every fault *statelessly*: each decision is a
//! pure hash of `(plan seed, decision salt, worker id, sequence number)`,
//! never a draw from the platform's RNG. Two consequences:
//!
//! * **Zero-fault invisibility** — with all rates at zero the plan makes
//!   no decisions at all, the platform's RNG stream is untouched, and
//!   every output byte matches a build without the fault layer.
//! * **Replayability** — the same `FaultPlan` seed replays the same
//!   dropouts, abandonments, and latencies regardless of thread count or
//!   job interleaving, so fault sweeps stay byte-identical at any
//!   `--jobs` value.

use crate::worker::WorkerId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::{FaultCounts, FaultKind};
use crowd_obs::{series, Event};
use serde::{Deserialize, Serialize};

/// Per-judgment latency model, in physical steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every judgment lands in the step it was assigned (the pre-fault
    /// behaviour).
    Instant,
    /// Geometric latency: each step the answer fails to arrive with
    /// probability `1 - p`, capped at `cap` extra steps. `p = 1` degrades
    /// to [`LatencyModel::Instant`].
    Geometric {
        /// Per-step arrival probability, in `(0, 1]`.
        p: f64,
        /// Upper bound on the extra steps a judgment may take.
        cap: u64,
    },
}

impl LatencyModel {
    /// True if the model can never delay a judgment.
    pub fn is_instant(&self) -> bool {
        match self {
            LatencyModel::Instant => true,
            LatencyModel::Geometric { p, cap } => *p >= 1.0 || *cap == 0,
        }
    }
}

/// Fault rates and knobs for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a worker drops out of the campaign entirely
    /// before judging anything.
    pub dropout: f64,
    /// Per-judgment probability that the assigned worker abandons the
    /// job mid-flight (no answer, and the worker walks away from the
    /// rest of her batch too).
    pub abandon: f64,
    /// Per-judgment probability of a transient no-answer fault (the
    /// worker stays; only this judgment is lost).
    pub no_answer: f64,
    /// Latency distribution for judgments that do arrive.
    pub latency: LatencyModel,
    /// Judgments arriving more than this many physical steps late are
    /// written off as timed out. `u64::MAX` disables timeouts.
    pub timeout_steps: u64,
}

impl FaultConfig {
    /// No faults at all — the exact pre-fault-layer behaviour.
    pub fn none() -> Self {
        FaultConfig {
            dropout: 0.0,
            abandon: 0.0,
            no_answer: 0.0,
            latency: LatencyModel::Instant,
            timeout_steps: u64::MAX,
        }
    }

    /// Sets the per-worker dropout probability.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout = p;
        self
    }

    /// Sets the per-judgment abandonment probability.
    pub fn with_abandon(mut self, p: f64) -> Self {
        self.abandon = p;
        self
    }

    /// Sets the per-judgment transient no-answer probability.
    pub fn with_no_answer(mut self, p: f64) -> Self {
        self.no_answer = p;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the timeout, in physical steps.
    pub fn with_timeout_steps(mut self, steps: u64) -> Self {
        self.timeout_steps = steps;
        self
    }

    /// True if no knob can ever produce a fault or delay.
    pub fn is_none(&self) -> bool {
        self.dropout == 0.0
            && self.abandon == 0.0
            && self.no_answer == 0.0
            && self.latency.is_instant()
    }

    /// The first knob out of its range, as the field's path and why.
    fn check(&self) -> Result<(), (&'static str, String)> {
        for (name, p) in [
            ("dropout", self.dropout),
            ("abandon", self.abandon),
            ("no_answer", self.no_answer),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err((name, format!("{name} rate must be a probability, got {p}")));
            }
        }
        match self.latency {
            LatencyModel::Geometric { p, .. } if !(p > 0.0 && p <= 1.0) => Err((
                "latency.Geometric.p",
                format!("geometric arrival probability must be in (0, 1], got {p}"),
            )),
            _ => Ok(()),
        }
    }

    fn validate(&self) {
        if let Err((_, why)) = self.check() {
            panic!("{why}");
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the fault plan decides for one assigned judgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JudgeFate {
    /// The worker answers, `latency` physical steps late.
    Answer {
        /// Extra physical steps before the answer lands.
        latency: u64,
    },
    /// The worker abandons the judgment (and the rest of her batch).
    Abandon,
    /// A transient fault eats this one judgment; the worker stays.
    NoAnswer,
}

/// A seeded, stateless oracle over every fault decision of a campaign.
///
/// Serializes as its config and seed; the per-plan constants every
/// decision reuses are derived from them again on deserializing.
///
/// # Latency without a logarithm
///
/// A geometric latency comes from a 53-bit draw `m`: with `u = m / 2⁵³`
/// it is `floor(ln(1 − u) / ln(1 − p))`, capped. `1 − u` is exact and
/// falls as `m` rises, so the latency is a non-decreasing step function of
/// `m`: latency `s` begins at one crossing draw. The plan keeps the first
/// four crossings, up to the cap, and [`fate`](FaultPlan::fate) counts
/// the ones a draw has passed with integer compares. A count below four
/// is the latency; a draw past the fourth crossing (about 1% of draws at
/// `p ≈ 0.68`) takes the formula. The table is exact, not an
/// approximation of the formula, because each crossing is found by
/// evaluating the formula itself: a bracket around the closed-form
/// estimate `2⁵³·(1 − (1 − p)^s)` is halved down to the least draw whose
/// latency is at least `s`, in two or three `ln` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    /// The first link of each decision stream, which depends only on the
    /// seed and the salt: `mix(seed ^ salt·GOLDEN)` per [`SALTS`] entry.
    links: [u64; 4],
    /// `ln(1 - p)` of a geometric latency model (0 for any other model).
    ln_miss: f64,
    /// `delay_from[s - 1]`: the least latency draw whose latency is at
    /// least `s`, or [`DRAWS`] when no draw's is.
    delay_from: [u64; DELAY_STEPS],
}

/// A [`FaultPlan`]'s serialized form.
#[derive(Serialize, Deserialize)]
struct PlanSpec {
    config: FaultConfig,
    seed: u64,
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> serde::Value {
        PlanSpec {
            config: self.config,
            seed: self.seed,
        }
        .to_value()
    }
}

impl Deserialize for FaultPlan {
    /// Rebuilds the plan, refusing a config that [`FaultPlan::new`] would
    /// panic on: the error names the field out of range.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let spec = PlanSpec::from_value(v)?;
        spec.config
            .check()
            .map_err(|(field, why)| serde::Error(format!("field \"config.{field}\": {why}")))?;
        Ok(FaultPlan::derive(spec.config, spec.seed))
    }
}

// Decision salts: distinct streams per decision kind, indexed by the
// `LINK_*` constants.
const SALTS: [u64; 4] = [0xD0, 0xAB, 0x07, 0x1A];
const LINK_DROPOUT: usize = 0;
const LINK_ABANDON: usize = 1;
const LINK_NO_ANSWER: usize = 2;
const LINK_LATENCY: usize = 3;

/// The golden-ratio multiplier that spreads each stream word.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The number of 53-bit draws: each draw is below it.
const DRAWS: u64 = 1 << 53;

/// The latency crossings a [`FaultPlan`] keeps. At `p ≈ 0.68`, about 1% of
/// judgments are this many steps late or later.
const DELAY_STEPS: usize = 4;

impl FaultPlan {
    /// Builds a plan over `config`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `config` is not a probability.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        config.validate();
        FaultPlan::derive(config, seed)
    }

    /// The plan over `config` and `seed`, with its per-plan constants.
    fn derive(config: FaultConfig, seed: u64) -> Self {
        let ln_miss = match config.latency {
            LatencyModel::Geometric { p, .. } => (1.0 - p).ln(),
            LatencyModel::Instant => 0.0,
        };
        let mut plan = FaultPlan {
            config,
            seed,
            links: SALTS.map(|salt| mix(seed ^ salt.wrapping_mul(GOLDEN))),
            ln_miss,
            delay_from: [DRAWS; DELAY_STEPS],
        };
        let cap = match config.latency {
            LatencyModel::Geometric { cap, .. } if !config.latency.is_instant() => cap,
            _ => 0,
        };
        for s in 1..=cap.min(DELAY_STEPS as u64) {
            plan.delay_from[s as usize - 1] = plan.least_draw_delayed(s);
        }
        plan
    }

    /// The least draw whose latency is at least `s`, or [`DRAWS`] when no
    /// draw's is. It starts from the closed form's estimate: the latency
    /// reaches `s` where `1 − m/2⁵³ ≤ (1 − p)^s`. A bracket then widens
    /// from the estimate by doubling steps until it holds the crossing, and
    /// is halved down to it. The estimate is within a draw or two of the
    /// crossing, so this costs two or three `ln` calls.
    fn least_draw_delayed(&self, s: u64) -> u64 {
        let end = DRAWS as i64;
        // The draws `-1` and `end` stand for "below every draw" and "no
        // draw": one falls short of `s`, the other reaches it.
        let reaches = |m: i64| m >= end || (m >= 0 && self.formula_latency(m as u64) >= s);
        let estimate = ((1.0 - (s as f64 * self.ln_miss).exp()) * DRAWS as f64).ceil();
        // `as` saturates, and takes NaN to 0.
        let mut hi = (estimate as i64).clamp(0, end);
        let (mut lo, mut step) = (hi - 1, 1);
        while !reaches(hi) {
            lo = hi;
            hi = (hi + step).min(end);
            step *= 2;
        }
        while reaches(lo) {
            hi = lo;
            lo = (lo - step).max(-1);
            step *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi as u64
    }

    /// A plan that injects nothing (any seed would do).
    pub fn none() -> Self {
        FaultPlan::new(FaultConfig::none(), 0)
    }

    /// The plan's fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True if this plan can never produce a fault or delay.
    pub fn is_none(&self) -> bool {
        self.config.is_none()
    }

    /// Decides, once and forever, whether `worker` drops out of the
    /// campaign before judging anything.
    pub fn dropped_out(&self, worker: WorkerId) -> bool {
        self.draws(LINK_DROPOUT)
            && unit_f64(draw(self.key(LINK_DROPOUT, worker), 0)) < self.config.dropout
    }

    /// Decides the fate of the `seq`-th judgment the campaign hands to
    /// `worker`. `seq` must be a per-campaign monotone counter so repeats
    /// of the same logical pair get independent fates. Each stream's key
    /// is mixed on the way, and only for the streams the fate draws from;
    /// the crate's executors keep each worker's keys instead and skip
    /// that mix.
    pub fn fate(&self, worker: WorkerId, seq: u64) -> JudgeFate {
        self.decide(seq, |link| self.key(link, worker))
    }

    /// `worker`'s key on every per-judgment stream this plan draws from;
    /// the streams it never draws from are left unmixed.
    pub(crate) fn fate_keys(&self, worker: WorkerId) -> FateKeys {
        let mut keys = [0; 4];
        for link in [LINK_ABANDON, LINK_NO_ANSWER, LINK_LATENCY] {
            if self.draws(link) {
                keys[link] = self.key(link, worker);
            }
        }
        FateKeys(keys)
    }

    /// [`fate`](Self::fate) for the worker whose [`fate_keys`](Self::fate_keys)
    /// are `keys`: one SplitMix64 call per draw instead of two.
    pub(crate) fn keyed_fate(&self, keys: &FateKeys, seq: u64) -> JudgeFate {
        self.decide(seq, |link| keys.0[link])
    }

    /// True when the plan can draw from stream `link`.
    fn draws(&self, link: usize) -> bool {
        match link {
            LINK_ABANDON => self.config.abandon > 0.0,
            LINK_NO_ANSWER => self.config.no_answer > 0.0,
            LINK_LATENCY => self.delay_from[0] != DRAWS,
            _ => self.config.dropout > 0.0,
        }
    }

    /// The fate of draw `seq` on the streams whose keys `key` gives.
    fn decide(&self, seq: u64, key: impl Fn(usize) -> u64) -> JudgeFate {
        if self.draws(LINK_ABANDON) && unit_f64(draw(key(LINK_ABANDON), seq)) < self.config.abandon
        {
            return JudgeFate::Abandon;
        }
        if self.draws(LINK_NO_ANSWER)
            && unit_f64(draw(key(LINK_NO_ANSWER), seq)) < self.config.no_answer
        {
            return JudgeFate::NoAnswer;
        }
        if !self.draws(LINK_LATENCY) {
            // No draw delays: skip drawing.
            return JudgeFate::Answer { latency: 0 };
        }
        JudgeFate::Answer {
            latency: self.latency(draw(key(LINK_LATENCY), seq)),
        }
    }

    /// The latency of draw `m`: the crossings it has passed, or the
    /// formula past the table.
    fn latency(&self, m: u64) -> u64 {
        let steps = self.delay_from.iter().filter(|&&from| m >= from).count();
        if steps < DELAY_STEPS {
            steps as u64
        } else {
            self.formula_latency(m)
        }
    }

    /// The latency of draw `m` by inverse-transform sampling of the
    /// geometric distribution of failures before the first success.
    fn formula_latency(&self, m: u64) -> u64 {
        let LatencyModel::Geometric { cap, .. } = self.config.latency else {
            return 0;
        };
        let u = m as f64 * (1.0 / DRAWS as f64);
        let steps = ((1.0 - u).ln() / self.ln_miss).floor();
        if steps.is_finite() && steps >= 0.0 {
            (steps as u64).min(cap)
        } else {
            cap
        }
    }

    /// `worker`'s key on stream `link`, the second link of the stream
    /// `x = seed`, then `x = mix(x ^ word·GOLDEN)` for the words `(salt,
    /// worker, seq)`: the first is cached in [`FaultPlan::links`].
    fn key(&self, link: usize, worker: WorkerId) -> u64 {
        mix(self.links[link] ^ u64::from(worker.0).wrapping_mul(GOLDEN))
    }
}

/// One worker's keys on a [`FaultPlan`]'s per-judgment streams, indexed by
/// the `LINK_*` constants; the dropout slot and the streams the plan never
/// draws from hold 0. They depend only on the plan and the worker, so an
/// executor computes them once per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FateKeys([u64; 4]);

/// The 53-bit draw below [`DRAWS`] at position `seq` of the stream keyed
/// `key`.
fn draw(key: u64, seq: u64) -> u64 {
    mix(key ^ seq.wrapping_mul(GOLDEN)) >> 11
}

/// A 53-bit draw as a uniform value in `[0, 1)`.
fn unit_f64(m: u64) -> f64 {
    m as f64 * (1.0 / DRAWS as f64)
}

/// Records one fault in `counts` and mirrors it into the observability
/// layer: every kind bumps the
/// [`crowd_faults_total`](crowd_obs::names::FAULTS_TOTAL) counter, and the
/// plain kinds emit an [`Event::FaultObserved`]. Retries and dead letters
/// skip the generic event: their call sites emit the richer
/// [`Event::RetryScheduled`] or [`Event::DeadLettered`] instead, so a log
/// never reports the same incident twice. The platform and the service
/// shards both report through here.
pub(crate) fn report_fault(counts: &mut FaultCounts, class: WorkerClass, kind: FaultKind) {
    counts.record(class, kind);
    series::faults(class, kind).add(1);
    match kind {
        FaultKind::Retry | FaultKind::DeadLetter => {}
        _ => crowd_obs::emit(Event::FaultObserved { class, kind }),
    }
}

/// SplitMix64 finalizer: avalanche a 64-bit word. Shared by every
/// stateless decision stream in the platform — fault fates here, breaker
/// cooldown jitter and per-judgment RNG seeds in [`crate::serve`] — so
/// "seeded and stateless" means one function everywhere.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_fault_free() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for w in 0..100 {
            assert!(!plan.dropped_out(WorkerId(w)));
            for seq in 0..20 {
                assert_eq!(
                    plan.fate(WorkerId(w), seq),
                    JudgeFate::Answer { latency: 0 }
                );
            }
        }
    }

    #[test]
    fn decisions_are_replayable_and_seed_dependent() {
        let config = FaultConfig::none()
            .with_dropout(0.3)
            .with_abandon(0.2)
            .with_no_answer(0.2)
            .with_latency(LatencyModel::Geometric { p: 0.5, cap: 8 });
        let a = FaultPlan::new(config, 42);
        let b = FaultPlan::new(config, 42);
        let c = FaultPlan::new(config, 43);
        let mut diverged = false;
        for w in 0..50 {
            assert_eq!(a.dropped_out(WorkerId(w)), b.dropped_out(WorkerId(w)));
            for seq in 0..10 {
                assert_eq!(a.fate(WorkerId(w), seq), b.fate(WorkerId(w), seq));
                diverged |= a.fate(WorkerId(w), seq) != c.fate(WorkerId(w), seq);
            }
        }
        assert!(diverged, "different seeds must give different plans");
    }

    #[test]
    fn dropout_rate_is_roughly_respected() {
        let plan = FaultPlan::new(FaultConfig::none().with_dropout(0.25), 7);
        let dropped = (0..10_000)
            .filter(|w| plan.dropped_out(WorkerId(*w)))
            .count();
        assert!(
            (2_000..3_000).contains(&dropped),
            "25% of 10k workers expected to drop, got {dropped}"
        );
    }

    #[test]
    fn fate_rates_are_roughly_respected() {
        let plan = FaultPlan::new(
            FaultConfig::none().with_abandon(0.1).with_no_answer(0.1),
            11,
        );
        let mut abandons = 0usize;
        let mut no_answers = 0usize;
        for w in 0..100 {
            for seq in 0..100 {
                match plan.fate(WorkerId(w), seq) {
                    JudgeFate::Abandon => abandons += 1,
                    JudgeFate::NoAnswer => no_answers += 1,
                    JudgeFate::Answer { latency } => assert_eq!(latency, 0),
                }
            }
        }
        assert!((700..1_300).contains(&abandons), "{abandons}");
        // no-answer is checked after abandon, so its effective rate is
        // 0.1 · 0.9 = 9%.
        assert!((600..1_200).contains(&no_answers), "{no_answers}");
    }

    #[test]
    fn geometric_latency_is_capped_and_varied() {
        let plan = FaultPlan::new(
            FaultConfig::none().with_latency(LatencyModel::Geometric { p: 0.4, cap: 6 }),
            3,
        );
        let mut seen = std::collections::HashSet::new();
        for w in 0..50 {
            for seq in 0..50 {
                match plan.fate(WorkerId(w), seq) {
                    JudgeFate::Answer { latency } => {
                        assert!(latency <= 6);
                        seen.insert(latency);
                    }
                    other => panic!("latency-only plan produced {other:?}"),
                }
            }
        }
        assert!(seen.len() > 3, "latencies should vary, saw {seen:?}");
        assert!(seen.contains(&0), "zero latency must be possible");
    }

    /// The uncached draw: every link of the `(salt, worker, seq)` stream
    /// hashed from the seed on each call.
    fn reference_unit(seed: u64, salt: u64, worker: u64, seq: u64) -> f64 {
        let mut x = seed;
        for word in [salt, worker, seq] {
            x = mix(x ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The latency of a uniform draw `u` by the closed form, with
    /// `ln(1 - p)` recomputed per judgment.
    fn reference_latency(latency: LatencyModel, u: f64) -> u64 {
        match latency {
            LatencyModel::Geometric { p, cap } if p < 1.0 && cap > 0 => {
                let steps = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                if steps.is_finite() && steps >= 0.0 {
                    (steps as u64).min(cap)
                } else {
                    cap
                }
            }
            _ => 0,
        }
    }

    /// The uncached fate: every draw hashed from the seed, and the latency
    /// by the closed form.
    fn reference_fate(config: &FaultConfig, seed: u64, worker: u64, seq: u64) -> JudgeFate {
        if config.abandon > 0.0 && reference_unit(seed, 0xAB, worker, seq) < config.abandon {
            return JudgeFate::Abandon;
        }
        if config.no_answer > 0.0 && reference_unit(seed, 0x07, worker, seq) < config.no_answer {
            return JudgeFate::NoAnswer;
        }
        let latency = reference_latency(config.latency, reference_unit(seed, 0x1A, worker, seq));
        JudgeFate::Answer { latency }
    }

    fn geometric(p: f64, cap: u64) -> FaultConfig {
        FaultConfig::none().with_latency(LatencyModel::Geometric { p, cap })
    }

    /// Every shape the crossing table takes: no latency (`Instant`, cap 0,
    /// `p = 1`), fewer crossings than [`DELAY_STEPS`] (cap 1, cap 3), a
    /// cap past the table, the fault sweep's rates 1% (`p ≈ 0.68`) and 20%
    /// (`p ≈ 0.33`), and `p` near either end of `(0, 1]`.
    fn latency_configs() -> Vec<FaultConfig> {
        vec![
            FaultConfig::none(),
            FaultConfig::none()
                .with_dropout(0.3)
                .with_abandon(0.2)
                .with_no_answer(0.2)
                .with_latency(LatencyModel::Geometric { p: 0.5, cap: 8 }),
            FaultConfig::none()
                .with_abandon(0.01)
                .with_latency(LatencyModel::Geometric { p: 0.05, cap: 40 }),
            FaultConfig::none()
                .with_dropout(1.0)
                .with_no_answer(0.9)
                .with_latency(LatencyModel::Geometric { p: 1.0, cap: 3 }),
            geometric(0.7, 0),
            geometric(0.4, 1),
            geometric(0.2, 3),
            geometric(1.0 - 0.01f64.powf(0.25), 8),
            geometric(1.0 - 0.2f64.powf(0.25), 8),
            geometric(1e-9, 5),
            geometric(1e-9, u64::MAX),
            geometric(1.0 - 1e-12, 8),
            geometric(0.999_999, 8),
            geometric(1.0 - f64::EPSILON, 2),
        ]
    }

    #[test]
    fn the_crossing_table_holds_each_latencys_least_draw() {
        let draws = DRAWS as i64;
        for config in latency_configs() {
            let plan = FaultPlan::new(config, 5);
            let f = |m: i64| reference_latency(config.latency, m as f64 / DRAWS as f64);
            let kept = match config.latency {
                LatencyModel::Geometric { cap, .. } if !config.latency.is_instant() => {
                    cap.min(DELAY_STEPS as u64) as usize
                }
                _ => 0,
            };
            for (i, &from) in plan.delay_from.iter().enumerate() {
                let s = i as u64 + 1;
                if i >= kept {
                    assert_eq!(from, DRAWS, "{config:?}: no crossing past the cap");
                    continue;
                }
                // f(M_s − 1) < s ≤ f(M_s), the draws before 0 and from
                // DRAWS on standing for "none".
                let m = from as i64;
                assert!(m == 0 || f(m - 1) < s, "{config:?}: s {s} at {m}");
                assert!(m == draws || f(m) >= s, "{config:?}: s {s} at {m}");
                // The step function is monotone around the crossing.
                let window = (m - (1 << 16)).max(0)..(m + (1 << 16)).min(draws);
                let mut last = f(window.start);
                for d in window.skip(1) {
                    let now = f(d);
                    assert!(now >= last, "{config:?}: f falls at draw {d}");
                    last = now;
                }
            }
            assert!(
                plan.delay_from.windows(2).all(|w| w[0] <= w[1]),
                "{config:?}: {:?}",
                plan.delay_from
            );
        }
    }

    /// Both the fate that mixes its keys and the one handed cached keys.
    #[test]
    fn table_fates_equal_the_formula_on_a_million_draws_per_config() {
        for config in latency_configs() {
            let plan = FaultPlan::new(config, 0x5EED);
            let keys: Vec<FateKeys> = (0..97).map(|w| plan.fate_keys(WorkerId(w))).collect();
            for i in 0..1_000_000u64 {
                let (w, seq) = (i % 97, i / 97);
                let expected = reference_fate(&config, 0x5EED, w, seq);
                let fates = [
                    plan.fate(WorkerId(w as u32), seq),
                    plan.keyed_fate(&keys[w as usize], seq),
                ];
                assert_eq!(fates, [expected; 2], "{config:?} worker {w} seq {seq}");
            }
        }
    }

    #[test]
    fn fate_keys_mix_only_the_streams_a_fate_draws() {
        let drawn = |plan: &FaultPlan| plan.fate_keys(WorkerId(3)).0.map(|key| key != 0);
        assert_eq!(drawn(&FaultPlan::none()), [false; 4]);
        let latency_only = FaultPlan::new(geometric(0.5, 4), 1);
        assert_eq!(drawn(&latency_only), [false, false, false, true]);
        let every_rate = FaultPlan::new(
            FaultConfig::none()
                .with_dropout(0.1)
                .with_abandon(0.1)
                .with_no_answer(0.1),
            1,
        );
        assert_eq!(drawn(&every_rate), [false, true, true, false]);
    }

    #[test]
    fn cached_links_decide_exactly_as_the_uncached_formula() {
        let configs = latency_configs();
        let seeds = [0, 1, 42, 0xFA, u64::MAX, 0x9E37_79B9_7F4A_7C15];
        let mut latencies = 0usize;
        for config in &configs {
            for &seed in &seeds {
                let plan = FaultPlan::new(*config, seed);
                for w in (0..40).chain([u32::MAX - 1, u32::MAX]) {
                    let dropped = config.dropout > 0.0
                        && reference_unit(seed, 0xD0, u64::from(w), 0) < config.dropout;
                    assert_eq!(
                        plan.dropped_out(WorkerId(w)),
                        dropped,
                        "{config:?} {seed} {w}"
                    );
                    for seq in (0..60).chain([1 << 40, u64::MAX]) {
                        let fate = plan.fate(WorkerId(w), seq);
                        assert_eq!(
                            fate,
                            reference_fate(config, seed, u64::from(w), seq),
                            "{config:?} seed {seed} worker {w} seq {seq}"
                        );
                        latencies += usize::from(
                            matches!(fate, JudgeFate::Answer { latency } if latency > 0),
                        );
                    }
                }
            }
        }
        assert!(
            latencies > 1000,
            "the geometric configs must delay: {latencies}"
        );
    }

    #[test]
    fn a_plan_serializes_as_its_config_and_seed() {
        let plan = FaultPlan::new(
            FaultConfig::none().with_latency(LatencyModel::Geometric { p: 0.4, cap: 6 }),
            9,
        );
        let json = serde_json::to_string(&plan).unwrap();
        assert!(
            json.starts_with("{\"config\":") && json.ends_with(",\"seed\":9}"),
            "{json}"
        );
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    /// A serialized plan with `latency` and the rates `rates` (dropout,
    /// abandon, no-answer) spliced in.
    fn plan_json(rates: [f64; 3], latency: &str) -> String {
        format!(
            "{{\"config\":{{\"dropout\":{},\"abandon\":{},\"no_answer\":{},\
             \"latency\":{latency},\"timeout_steps\":3}},\"seed\":9}}",
            rates[0], rates[1], rates[2]
        )
    }

    #[test]
    fn decoding_refuses_a_plan_new_would_panic_on() {
        let valid = r#"{"Geometric":{"p":0.5,"cap":7}}"#;
        let cases = [
            (
                plan_json([0.0; 3], r#"{"Geometric":{"p":-0.5,"cap":7}}"#),
                "config.latency.Geometric.p",
            ),
            (
                plan_json([0.0; 3], r#"{"Geometric":{"p":1.5,"cap":7}}"#),
                "config.latency.Geometric.p",
            ),
            (plan_json([-0.1, 0.0, 0.0], valid), "config.dropout"),
            (plan_json([0.0, 1.1, 0.0], valid), "config.abandon"),
            (plan_json([0.0, 0.0, -0.1], valid), "config.no_answer"),
            (plan_json([1.1, 0.0, 0.0], valid), "config.dropout"),
        ];
        for (json, field) in cases {
            let err = serde_json::from_str::<FaultPlan>(&json).expect_err(&json);
            assert!(err.to_string().contains(field), "{json}: {err}");
        }
        let plan: FaultPlan = serde_json::from_str(&plan_json([0.1, 1.0, 0.0], valid)).unwrap();
        assert_eq!(
            plan,
            FaultPlan::new(
                FaultConfig::none()
                    .with_dropout(0.1)
                    .with_abandon(1.0)
                    .with_latency(LatencyModel::Geometric { p: 0.5, cap: 7 })
                    .with_timeout_steps(3),
                9
            )
        );
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<FaultPlan>(&json).unwrap(), plan);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_rate_panics() {
        FaultPlan::new(FaultConfig::none().with_dropout(1.5), 0);
    }

    #[test]
    fn config_serializes() {
        let config = FaultConfig::none()
            .with_dropout(0.1)
            .with_latency(LatencyModel::Geometric { p: 0.5, cap: 4 });
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("dropout"), "{json}");
        assert!(json.contains("Geometric"), "{json}");
    }
}

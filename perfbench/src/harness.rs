//! Sampling and statistics: warmup plus timed samples, order statistics
//! with spread, the tail-percentile rule, and the host fingerprint every
//! result carries.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nanoseconds elapsed since `since`, saturating at `u64::MAX`.
pub fn nanos_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds in a duration, saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted` by linear
/// interpolation between the closest ranks. `sorted` must be non-empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The `p`-quantile of unsorted, non-empty `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p)
}

/// Candidate tail percentiles, in tenths of a percent, highest first.
const TAIL_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile (in tenths of a percent) that has at least ten
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn reportable_tail(n: usize) -> Option<u64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&p| n as u64 * (1000 - p) / 1000 >= 10)
}

/// Order statistics of one timing, in the timing's own unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// The highest reportable percentile (tenths of a percent) and its
    /// value; see [`reportable_tail`].
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = quantile(&sorted, 0.5);
        let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median,
            q3: quantile(&sorted, 0.75),
            mad: quantile(&deviations, 0.5),
            tail: reportable_tail(sorted.len()).map(|p| (p, quantile(&sorted, p as f64 / 1000.0))),
        })
    }

    /// One human-readable line: count, min, quartiles, MAD and the tail.
    pub fn line(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{}={v:.4}", format_permille(p)),
            None => " tail=n/a".to_string(),
        };
        format!(
            "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} mad={:.4}{tail} {unit}",
            self.n, self.min, self.q1, self.median, self.q3, self.mad
        )
    }
}

/// `990` → `"99"`, `999` → `"99.9"`.
fn format_permille(p: u64) -> String {
    if p % 10 == 0 {
        (p / 10).to_string()
    } else {
        format!("{}.{}", p / 10, p % 10)
    }
}

/// How many samples a workload takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePlan {
    /// Untimed samples first; their inputs are the ones the timed samples
    /// cycle through.
    pub warmup: usize,
    /// Timed samples always taken, whatever the time budget.
    pub min_samples: usize,
    /// Timed samples never exceeded.
    pub max_samples: usize,
    /// Timed samples continue until their summed wall time reaches this.
    pub seconds: f64,
}

impl SamplePlan {
    /// The input index sample `s` (warmup samples first) runs on: the
    /// timed samples cycle through the warmup inputs, so each of them can
    /// be checked against the warmup sample that ran the same input.
    pub fn input_of(&self, s: usize) -> usize {
        s % self.warmup.max(1)
    }
}

/// Which sample a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The input it runs on.
    pub input: usize,
    /// A timed sample (or a replay of one), not a warmup.
    pub timed: bool,
}

/// The fastest time of every unit of work over its repeats.
///
/// The timed samples repeat identical work — the same input, the same
/// comparisons or ticks, as the correctness gates check — so each unit
/// (a block of comparisons, a service tick) is timed once per repeat.
/// Another tenant of the host can only add time to a unit, so its fastest
/// repeat is its cost with the least interference. Medians and tails are
/// then taken over units: the slow units the program itself makes still
/// count, a slow stretch of the host does not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BestOf {
    best: Vec<u64>,
    repeats: usize,
}

impl BestOf {
    /// Folds in one repeat's per-unit times.
    ///
    /// # Errors
    ///
    /// When the repeat has another number of units than the earlier ones:
    /// the work was not identical.
    pub fn observe(&mut self, times: &[u64]) -> Result<(), String> {
        if self.repeats == 0 {
            self.best = times.to_vec();
        } else if times.len() != self.best.len() {
            return Err(format!(
                "a repeat had {} units, earlier repeats {}",
                times.len(),
                self.best.len()
            ));
        } else {
            for (b, &t) in self.best.iter_mut().zip(times) {
                *b = (*b).min(t);
            }
        }
        self.repeats += 1;
        Ok(())
    }

    /// Each unit's fastest time, in unit order.
    pub fn units(&self) -> &[u64] {
        &self.best
    }

    /// The fastest times summed: the work at every unit's best.
    pub fn total_ns(&self) -> u64 {
        self.best.iter().sum()
    }

    /// Repeats folded in.
    pub fn repeats(&self) -> usize {
        self.repeats
    }
}

/// One measured sample.
#[derive(Debug, Clone)]
pub struct Sample<O> {
    /// Which input the sample ran on.
    pub input: usize,
    /// Wall nanoseconds spent building the input and the stack.
    pub setup_ns: u64,
    /// Wall nanoseconds of the measured work.
    pub wall_ns: u64,
    /// What the workload reported.
    pub out: O,
}

/// The warmup samples, then the timed ones.
pub type WarmAndTimed<O> = (Vec<Sample<O>>, Vec<Sample<O>>);

/// Runs `setup` then `run` for each warmup and timed sample. `run`
/// returns the measured wall nanoseconds with its output, so a workload
/// can leave bookkeeping between its steps out of the measurement.
pub fn run_samples<I, O, E>(
    plan: &SamplePlan,
    mut setup: impl FnMut(usize) -> I,
    mut run: impl FnMut(Slot, I) -> Result<(u64, O), E>,
) -> Result<WarmAndTimed<O>, E> {
    let mut one = |s: usize| -> Result<Sample<O>, E> {
        let input = plan.input_of(s);
        let started = Instant::now();
        let prepared = setup(input);
        let setup_ns = nanos_since(started);
        let slot = Slot {
            input,
            timed: s >= plan.warmup,
        };
        let (wall_ns, out) = run(slot, prepared)?;
        Ok(Sample {
            input,
            setup_ns,
            wall_ns,
            out,
        })
    };
    let mut warm = Vec::with_capacity(plan.warmup);
    for s in 0..plan.warmup {
        warm.push(one(s)?);
    }
    let mut timed: Vec<Sample<O>> = Vec::new();
    let mut spent = 0u64;
    while timed.len() < plan.max_samples
        && (timed.len() < plan.min_samples || (spent as f64) < plan.seconds * 1e9)
    {
        let sample = one(plan.warmup + timed.len())?;
        spent = spent.saturating_add(sample.wall_ns);
        timed.push(sample);
    }
    Ok((warm, timed))
}

/// Re-runs the inputs of `timed` in order — the traced and recorder-off
/// passes replay exactly the samples the untimed measurement took.
pub fn replay_samples<I, O, T, E>(
    timed: &[Sample<T>],
    mut setup: impl FnMut(usize) -> I,
    mut run: impl FnMut(Slot, I) -> Result<(u64, O), E>,
) -> Result<Vec<Sample<O>>, E> {
    timed
        .iter()
        .map(|s| {
            let started = Instant::now();
            let prepared = setup(s.input);
            let setup_ns = nanos_since(started);
            let slot = Slot {
                input: s.input,
                timed: true,
            };
            let (wall_ns, out) = run(slot, prepared)?;
            Ok(Sample {
                input: s.input,
                setup_ns,
                wall_ns,
                out,
            })
        })
        .collect()
}

/// The `setup_s` a workload reports: each input's fastest set-up over the
/// timed samples, median over inputs, in seconds.
pub fn setup_seconds<O>(timed: &[Sample<O>]) -> f64 {
    let mut best: BTreeMap<usize, u64> = BTreeMap::new();
    for s in timed {
        let b = best.entry(s.input).or_insert(u64::MAX);
        *b = (*b).min(s.setup_ns);
    }
    let mut secs: Vec<f64> = best.values().map(|&ns| ns as f64 / 1e9).collect();
    secs.sort_by(f64::total_cmp);
    quantile(&secs, 0.5)
}

/// The cost of one `Instant::now()` read, in nanoseconds: the median gap
/// between back-to-back reads. A timed interval contains about one read,
/// so sampled timings subtract it.
pub fn timer_overhead_ns() -> f64 {
    let mut gaps: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            nanos(b - a) as f64
        })
        .collect();
    gaps.sort_by(f64::total_cmp);
    quantile(&gaps, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Printed as
/// a note: it also moves with the allocator's choice between heap and
/// `mmap` for large blocks, so the metric is the counted peak heap.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Build profile.
    pub profile: &'static str,
    /// Worker threads a workload runs on.
    pub jobs: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu: String,
}

/// Threads every workload runs on: the measured code is single-threaded.
pub const JOBS: usize = 1;

impl Fingerprint {
    /// Reads the fingerprint of the current host.
    pub fn current() -> Fingerprint {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERF_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            jobs: JOBS,
            kernel: if kernel.is_empty() {
                "unknown".to_string()
            } else {
                kernel
            },
            cpu,
        }
    }

    /// The fingerprint as one `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "nproc={} rustc=\"{}\" profile={} jobs={} kernel={} cpu=\"{}\"",
            self.nproc, self.rustc, self.profile, self.jobs, self.kernel, self.cpu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_mad_on_a_known_vector() {
        let s = Summary::of(&[7.0, 1.0, 3.0, 5.0, 9.0]).expect("non-empty");
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 3.0, 5.0, 7.0));
        // |x - 5| = 4, 2, 0, 2, 4 -> median 2.
        assert_eq!(s.mad, 2.0);
        // Four samples interpolate between the middle pair.
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).expect("non-empty");
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert_eq!(even.q3, 3.25);
        assert_eq!(even.mad, 1.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn thirty_samples_report_the_median_but_not_p90() {
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        // p90 leaves 3 samples beyond it and p75 leaves 7: only the median
        // has ten or more.
        assert_eq!(reportable_tail(30), Some(500));
        assert_eq!(s.tail, Some((500, 15.5)));
        assert!(s.line("ms").contains(" p50="));
        assert!(!s.line("ms").contains("p90"));
    }

    #[test]
    fn tail_rule_thresholds() {
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(500));
        assert_eq!(reportable_tail(40), Some(750));
        assert_eq!(reportable_tail(100), Some(900));
        assert_eq!(reportable_tail(999), Some(950));
        assert_eq!(reportable_tail(1000), Some(990));
        assert_eq!(reportable_tail(10_000), Some(999));
        let s = Summary::of(&[2.0; 19]).expect("non-empty");
        assert!(s.line("us").contains("tail=n/a"));
    }

    #[test]
    fn samples_cycle_through_the_warmup_inputs() {
        let plan = SamplePlan {
            warmup: 3,
            min_samples: 5,
            max_samples: 5,
            seconds: 0.0,
        };
        let (warm, timed) = run_samples(
            &plan,
            |input| input * 10,
            |slot: Slot, prepared| Ok::<_, ()>((1, (slot, prepared))),
        )
        .expect("infallible");
        let inputs: Vec<usize> = warm.iter().chain(&timed).map(|s| s.input).collect();
        assert_eq!(inputs, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        assert!(warm.iter().all(|s| !s.out.0.timed));
        assert!(timed
            .iter()
            .all(|s| s.out.0.timed && s.out.1 == s.input * 10));
        let again = replay_samples(&timed, |i| i, |slot: Slot, p| Ok::<_, ()>((1, (slot, p))))
            .expect("infallible");
        assert_eq!(
            again.iter().map(|s| s.input).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1]
        );
        assert!(again.iter().all(|s| s.out.0.timed));
    }

    #[test]
    fn best_of_keeps_each_units_fastest_repeat() {
        let mut b = BestOf::default();
        b.observe(&[5, 9, 7]).expect("first repeat");
        b.observe(&[6, 3, 8]).expect("same units");
        b.observe(&[4, 30, 7]).expect("same units");
        assert_eq!(b.units(), &[4, 3, 7]);
        assert_eq!(b.total_ns(), 14);
        assert_eq!(b.repeats(), 3);
        assert!(b.observe(&[1, 1]).is_err(), "other work");
        assert_eq!(b.repeats(), 3);
    }

    #[test]
    fn setup_is_the_median_over_inputs_of_each_inputs_fastest() {
        let sample = |input, setup_ns| Sample {
            input,
            setup_ns,
            wall_ns: 1,
            out: (),
        };
        let timed = [
            sample(0, 9_000),
            sample(1, 2_000),
            sample(2, 5_000),
            sample(0, 1_000),
            sample(1, 4_000),
            sample(2, 3_000),
        ];
        // Bests 1, 2 and 3 µs.
        assert_eq!(setup_seconds(&timed), 2e-6);
    }

    #[test]
    fn the_time_budget_stops_sampling_after_the_minimum() {
        let plan = SamplePlan {
            warmup: 1,
            min_samples: 2,
            max_samples: 100,
            seconds: 1e-6,
        };
        let (_, timed) =
            run_samples(&plan, |_| (), |_: Slot, ()| Ok::<_, ()>((1_000, ()))).expect("infallible");
        assert_eq!(timed.len(), 2);
    }

    #[test]
    fn fingerprint_names_the_host() {
        let f = Fingerprint::current();
        assert!(f.nproc >= 1);
        assert_eq!(f.jobs, 1);
        let line = f.line();
        for key in ["nproc=", "rustc=", "profile=", "jobs=", "kernel=", "cpu="] {
            assert!(line.contains(key), "{line}");
        }
        assert!(timer_overhead_ns() >= 0.0);
    }
}

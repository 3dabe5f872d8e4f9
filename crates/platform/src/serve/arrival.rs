//! Seeded synthetic arrival processes for the service.
//!
//! An [`ArrivalPlan`] turns `(seed, rate, tick)` into the exact list of
//! jobs submitted at that tick — statelessly, the way [`FaultPlan`](crate::fault::FaultPlan)
//! (crate::fault::FaultPlan) decides fates. A plan replays the same
//! offered load no matter how the service interleaves execution, which is
//! what makes overload experiments and kill+resume runs comparable
//! byte-for-byte.
//!
//! The rate is a rational `rate_num / rate_den` in jobs per tick, so
//! "2× capacity" sweeps can dial fractional rates without floating-point
//! accumulation: job `i` arrives at the first tick `t` with
//! `⌊(t+1)·num/den⌋ > i`.

use crate::fault::mix;
use crate::serve::job::JobSpec;
use crate::serve::tenant::TenantId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Phase-1 votes per comparison of every planned job.
pub const VOTES: u32 = 3;

/// Phase-2 votes per comparison of every planned job.
pub const EXPERT_VOTES: u32 = 3;

/// A deterministic open-loop arrival process over a tenant population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalPlan {
    /// Seed for tenant assignment, catalog sizes, and values.
    pub seed: u64,
    /// Arrival-rate numerator (jobs per `rate_den` ticks).
    pub rate_num: u64,
    /// Arrival-rate denominator.
    pub rate_den: u64,
    /// Total jobs the plan offers before going quiet.
    pub total_jobs: u64,
    /// Tenants to spread jobs across (round-robin-ish via hashing).
    pub tenants: u32,
    /// Smallest catalog a job may carry.
    pub catalog_min: u32,
    /// Largest catalog a job may carry.
    pub catalog_max: u32,
    /// Per-job deadline, in ticks after admission.
    pub deadline_ticks: u64,
    /// Percentage (0–100) of each catalog drawn from the shared item
    /// universe instead of fresh per-job values. Zero leaves every spec
    /// bit-identical to a plan without overlap.
    pub overlap_percent: u32,
    /// Size of the shared item universe overlapping catalogs draw from.
    pub shared_universe: u32,
}

impl ArrivalPlan {
    /// A plan offering `total_jobs` at `rate_num / rate_den` jobs per
    /// tick across `tenants` tenants, with sane protocol defaults.
    pub fn new(seed: u64, rate_num: u64, rate_den: u64, total_jobs: u64, tenants: u32) -> Self {
        ArrivalPlan {
            seed,
            rate_num,
            rate_den: rate_den.max(1),
            total_jobs,
            tenants: tenants.max(1),
            catalog_min: 4,
            catalog_max: 12,
            deadline_ticks: 64,
            overlap_percent: 0,
            shared_universe: 16,
        }
    }

    /// Dials how much of each catalog is drawn from a shared item
    /// universe of `universe` distinct values (`percent` clamped to
    /// 0–100, `universe` to ≥ 1). Jobs sharing universe items give a
    /// cross-job judgment cache something to reuse; `percent = 0` is
    /// exactly the no-overlap plan.
    pub fn with_overlap(mut self, percent: u32, universe: u32) -> Self {
        self.overlap_percent = percent.min(100);
        self.shared_universe = universe.max(1);
        self
    }

    /// Sets the catalog-size range (clamped to `min ≥ 1`, `max ≥ min`).
    pub fn with_catalog(mut self, min: u32, max: u32) -> Self {
        self.catalog_min = min.max(1);
        self.catalog_max = max.max(self.catalog_min);
        self
    }

    /// Sets the per-job deadline.
    pub fn with_deadline(mut self, ticks: u64) -> Self {
        self.deadline_ticks = ticks;
        self
    }

    /// Jobs that have arrived strictly before `tick`.
    fn count_before(&self, tick: u64) -> u64 {
        (tick.saturating_mul(self.rate_num) / self.rate_den).min(self.total_jobs)
    }

    /// The specs arriving exactly at `tick`, in arrival order.
    pub fn arrivals_at(&self, tick: u64) -> Vec<JobSpec> {
        (self.count_before(tick)..self.count_before(tick + 1))
            .map(|idx| self.spec(idx))
            .collect()
    }

    /// True when every job has arrived by `tick` (inclusive).
    pub fn exhausted(&self, tick: u64) -> bool {
        self.count_before(tick + 1) >= self.total_jobs
    }

    /// The `idx`-th job of the plan (stateless, so any tick's arrivals
    /// can be recomputed during resume without replaying the stream).
    pub fn spec(&self, idx: u64) -> JobSpec {
        let tenant =
            TenantId((mix(self.seed ^ idx.rotate_left(7) ^ 0x7E) % u64::from(self.tenants)) as u32);
        let span = u64::from(self.catalog_max - self.catalog_min + 1);
        let n = self.catalog_min + (mix(self.seed ^ idx.rotate_left(23) ^ 0xCA) % span) as u32;
        let mut rng =
            StdRng::seed_from_u64(mix(self.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        // Overlap: replace a prefix with consecutive items from the
        // shared universe. The prefix length is capped at the universe
        // size so one catalog never repeats an item (bit-equal values
        // are an id tie-break, not a reusable judgment). The fresh
        // values are drawn first, above, so `overlap_percent = 0`
        // leaves the spec bit-identical to a plan without overlap.
        let shared = (n.saturating_mul(self.overlap_percent) / 100).min(self.shared_universe);
        if shared > 0 {
            let universe = u64::from(self.shared_universe);
            let start = mix(self.seed ^ idx.rotate_left(11) ^ 0xB5) % universe;
            for (slot, value) in values.iter_mut().take(shared as usize).enumerate() {
                *value = self.universe_value((start + slot as u64) % universe);
            }
        }
        JobSpec {
            tenant,
            values,
            votes: VOTES,
            expert_votes: EXPERT_VOTES,
            deadline_ticks: self.deadline_ticks,
        }
    }

    /// The bit-exact value of shared-universe item `u`: distinct per
    /// item (10.0 spacing dominates the sub-1.0 seeded jitter), and a
    /// pure function of `(seed, u)` so every job that draws item `u`
    /// carries the identical f64 bits — the property the judgment
    /// cache's content keying relies on.
    fn universe_value(&self, u: u64) -> f64 {
        (u as f64) * 10.0
            + ((mix(self.seed ^ u.wrapping_mul(0xA24B_AED4_963E_E407)) % 1000) as f64) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spread_and_complete() {
        let plan = ArrivalPlan::new(1, 3, 2, 10, 2);
        let mut seen = 0u64;
        let mut by_tick = Vec::new();
        for t in 0..20 {
            let batch = plan.arrivals_at(t);
            by_tick.push(batch.len());
            seen += batch.len() as u64;
        }
        assert_eq!(seen, 10, "every job arrives exactly once");
        assert!(plan.exhausted(19));
        assert!(!plan.exhausted(2));
        // 1.5 jobs/tick → alternating 1-and-2 batches until exhausted.
        assert_eq!(&by_tick[..7], &[1, 2, 1, 2, 1, 2, 1]);
    }

    #[test]
    fn specs_are_deterministic_and_within_bounds() {
        let plan = ArrivalPlan::new(9, 1, 1, 50, 3).with_catalog(2, 5);
        for idx in 0..50 {
            let a = plan.spec(idx);
            let b = plan.spec(idx);
            assert_eq!(a, b, "stateless respec must be identical");
            assert!((2..=5).contains(&(a.values.len() as u32)));
            assert!(a.tenant.0 < 3);
        }
        let tenants: std::collections::BTreeSet<u32> =
            (0..50).map(|i| plan.spec(i).tenant.0).collect();
        assert_eq!(tenants.len(), 3, "all tenants receive load");
    }

    #[test]
    fn zero_overlap_is_bit_identical_to_a_plan_without_overlap() {
        let base = ArrivalPlan::new(7, 1, 1, 40, 2);
        let zero = base.with_overlap(0, 8);
        for idx in 0..40 {
            let (a, b) = (base.spec(idx), zero.spec(idx));
            assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "job {idx}: value bits must match");
            }
        }
    }

    #[test]
    fn overlapping_jobs_share_bit_identical_universe_values() {
        let plan = ArrivalPlan::new(7, 1, 1, 60, 2)
            .with_catalog(4, 6)
            .with_overlap(100, 6);
        // With a 6-item universe and 100% overlap, every catalog value is
        // a universe item; collect the distinct bit patterns seen.
        let mut bits = std::collections::BTreeSet::new();
        for idx in 0..60 {
            for v in plan.spec(idx).values {
                bits.insert(v.to_bits());
            }
        }
        assert_eq!(bits.len(), 6, "all values drawn from the 6-item universe");
    }

    #[test]
    fn overlap_prefix_never_repeats_an_item_within_a_job() {
        let plan = ArrivalPlan::new(3, 1, 1, 30, 2)
            .with_catalog(4, 12)
            .with_overlap(100, 5);
        for idx in 0..30 {
            let spec = plan.spec(idx);
            let distinct: std::collections::BTreeSet<u64> =
                spec.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                distinct.len(),
                spec.values.len(),
                "job {idx}: catalog values must be pairwise distinct"
            );
        }
    }

    #[test]
    fn seed_changes_the_offered_load() {
        let a = ArrivalPlan::new(1, 1, 1, 20, 2);
        let b = ArrivalPlan::new(2, 1, 1, 20, 2);
        assert!(
            (0..20).any(|i| a.spec(i) != b.spec(i)),
            "different seeds must offer different jobs"
        );
    }
}

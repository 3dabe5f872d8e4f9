//! Platform activity reports: the requester-facing view of a campaign.
//!
//! Crowdsourcing platforms give requesters dashboards — spend so far,
//! per-worker contribution and trust, class breakdowns. [`CampaignReport`]
//! assembles that view from a [`Platform`]'s ledger, trust tracker and
//! counters, and renders it as text for logs and examples.

use crate::platform::Platform;
use crate::worker::WorkerId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::FaultCounts;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-worker line of a campaign report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerLine {
    /// The worker.
    pub id: WorkerId,
    /// Her class.
    pub class: WorkerClass,
    /// Labour channel.
    pub channel: String,
    /// Money earned.
    pub earned: f64,
    /// Gold questions seen / answered correctly.
    pub gold: (u32, u32),
    /// Whether her responses are currently used.
    pub trusted: bool,
}

/// A snapshot of a platform campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Total money spent.
    pub total_spent: f64,
    /// Spend per class (naïve, expert).
    pub spent_by_class: (f64, f64),
    /// Judgments paid for.
    pub judgments: u64,
    /// Logical steps (jobs) executed.
    pub logical_steps: u64,
    /// Physical steps elapsed.
    pub physical_steps: u64,
    /// Fault tallies (dropouts, timeouts, retries, …) per worker class.
    pub faults: FaultCounts,
    /// Units the platform gave up on after exhausting their retries.
    pub dead_letters: u64,
    /// True when any job degraded service (dead-lettered units or
    /// expert-depletion fallback); results may be weaker than the paper's
    /// guarantees promise.
    pub degraded: bool,
    /// Per-worker lines, highest earner first.
    pub workers: Vec<WorkerLine>,
}

impl CampaignReport {
    /// Builds the report from a platform.
    pub fn from_platform<R: RngCore>(platform: &Platform<R>) -> Self {
        let mut workers: Vec<WorkerLine> = (0..platform.pool().len() as u32)
            .map(WorkerId)
            .map(|id| {
                let profile = platform.pool().worker(id).profile();
                let rec = platform.trust().record_of(id);
                WorkerLine {
                    id,
                    class: profile.class,
                    channel: profile.channel.clone(),
                    earned: platform.ledger().earned_by(id),
                    gold: (rec.seen, rec.correct),
                    trusted: platform.trust().is_trusted(id),
                }
            })
            .collect();
        workers.sort_by(|a, b| b.earned.total_cmp(&a.earned).then(a.id.cmp(&b.id)));
        CampaignReport {
            total_spent: platform.ledger().total(),
            spent_by_class: (
                platform.ledger().spent_on(WorkerClass::Naive),
                platform.ledger().spent_on(WorkerClass::Expert),
            ),
            judgments: platform.ledger().judgments(),
            logical_steps: platform.logical_steps(),
            physical_steps: platform.physical_clock(),
            faults: platform.fault_counts(),
            dead_letters: platform.dead_letters().len() as u64,
            degraded: platform.degraded(),
            workers,
        }
    }

    /// Workers flagged by quality control.
    pub fn excluded(&self) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| !w.trusted)
            .map(|w| w.id)
            .collect()
    }

    /// The busiest (highest-earning) worker, if any work happened.
    pub fn top_earner(&self) -> Option<&WorkerLine> {
        self.workers.first().filter(|w| w.earned > 0.0)
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: ${:.2} spent (${:.2} naive / ${:.2} expert) over {} judgments, {} jobs, {} physical steps",
            self.total_spent,
            self.spent_by_class.0,
            self.spent_by_class.1,
            self.judgments,
            self.logical_steps,
            self.physical_steps,
        )?;
        let faults = self.faults.naive + self.faults.expert;
        if faults.total() > 0 || self.dead_letters > 0 || self.degraded {
            writeln!(
                f,
                "  faults: {} dropouts, {} abandons, {} no-answers, {} timeouts, {} retries, {} dead-lettered units{}",
                faults.dropouts,
                faults.abandons,
                faults.no_answers,
                faults.timeouts,
                faults.retries,
                self.dead_letters,
                if self.degraded { "  (DEGRADED)" } else { "" },
            )?;
        }
        for w in &self.workers {
            writeln!(
                f,
                "  {} [{} @{}] earned ${:.2}, gold {}/{}{}",
                w.id,
                w.class,
                w.channel,
                w.earned,
                w.gold.1,
                w.gold.0,
                if w.trusted { "" } else { "  (EXCLUDED)" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crate::worker::{Behavior, SpamStrategy};
    use crowd_core::element::{ElementId, Instance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn campaign() -> CampaignReport {
        let instance = Instance::new((0..30).map(|i| i as f64 * 10.0).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(4, 0.0, 0.0);
        pool.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(SpamStrategy::AlwaysSecond),
        );
        pool.hire_expert_panel(2, 0.0, 0.0);
        let mut cfg = PlatformConfig::paper_default();
        cfg.gold_fraction = 0.5;
        let mut platform = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(1));
        platform.set_gold_pairs(vec![
            (ElementId(29), ElementId(0)),
            (ElementId(28), ElementId(1)),
        ]);
        for i in 0..40u32 {
            platform
                .submit_comparisons(
                    &[(ElementId(i % 20), ElementId(i % 20 + 5))],
                    WorkerClass::Naive,
                )
                .unwrap();
        }
        platform
            .submit_comparisons(&[(ElementId(0), ElementId(29))], WorkerClass::Expert)
            .unwrap();
        CampaignReport::from_platform(&platform)
    }

    #[test]
    fn totals_are_consistent() {
        let r = campaign();
        assert!(r.total_spent > 0.0);
        let worker_sum: f64 = r.workers.iter().map(|w| w.earned).sum();
        assert!(
            (worker_sum - r.total_spent).abs() < 1e-6,
            "per-worker pay must sum to the total"
        );
        assert!((r.spent_by_class.0 + r.spent_by_class.1 - r.total_spent).abs() < 1e-6);
        assert!(r.judgments > 40);
        assert!(r.logical_steps >= 41);
    }

    #[test]
    fn workers_sorted_by_earnings() {
        let r = campaign();
        for w in r.workers.windows(2) {
            assert!(w[0].earned >= w[1].earned);
        }
        assert!(r.top_earner().is_some());
    }

    #[test]
    fn spammer_appears_excluded() {
        let r = campaign();
        let spam = r
            .workers
            .iter()
            .find(|w| w.channel == "spam")
            .expect("hired");
        assert!(!spam.trusted, "the spammer should be flagged: {spam:?}");
        assert!(r.excluded().contains(&spam.id));
    }

    #[test]
    fn display_renders_every_worker() {
        let r = campaign();
        let text = r.to_string();
        assert!(text.contains("campaign: $"));
        assert!(text.contains("(EXCLUDED)"));
        // A fault-free campaign prints no fault line.
        assert!(!text.contains("faults:"), "{text}");
        assert_eq!(text.lines().count(), 1 + r.workers.len());
    }

    #[test]
    fn fault_free_campaign_reports_clean_bill() {
        let r = campaign();
        assert_eq!(r.faults.total(), 0);
        assert_eq!(r.dead_letters, 0);
        assert!(!r.degraded);
    }

    #[test]
    fn faulty_campaign_surfaces_tallies_and_degradation() {
        use crate::fault::FaultConfig;
        use crate::retry::RetryPolicy;

        let instance = Instance::new((0..10).map(|i| i as f64).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(3, 0.0, 0.0);
        let cfg = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(FaultConfig::none().with_no_answer(1.0), 9)
            .with_retry(RetryPolicy::paper_default());
        let mut platform = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(2));
        let err = platform
            .submit_comparisons(&[(ElementId(0), ElementId(9))], WorkerClass::Naive)
            .unwrap_err();
        assert!(err.to_string().contains("unanswered"), "{err}");
        let r = CampaignReport::from_platform(&platform);
        assert!(r.faults.naive.no_answers > 0);
        assert!(r.faults.naive.retries > 0);
        assert_eq!(r.dead_letters, 1);
        assert!(r.degraded);
        let text = r.to_string();
        assert!(text.contains("faults:"), "{text}");
        assert!(text.contains("(DEGRADED)"), "{text}");
    }
}

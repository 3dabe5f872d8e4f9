//! Property-based tests of the platform's public surface: the oracle
//! adapter, trust tracking, the batched filter, spam exclusion and the
//! ledger, under randomized workloads and pool compositions. Scheduling
//! and billing properties of the batch executor are tested in the crate.

use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonOracle;
use crowd_platform::{
    batched_filter, Behavior, Ledger, Platform, PlatformConfig, PlatformOracle, SpamStrategy,
    TrustTracker, WorkerId, WorkerPool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn pool_with(naive: usize, experts: usize) -> WorkerPool {
    let mut p = WorkerPool::new();
    p.hire_naive_crowd(naive, 5.0, 0.05);
    p.hire_expert_panel(experts, 0.5, 0.0);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The platform oracle always answers with one of the two compared
    /// elements, for both classes.
    #[test]
    fn platform_oracle_is_closed(n in 2usize..30, seed in any::<u64>(), a in 0u32..30, b in 0u32..30) {
        prop_assume!((a as usize) < n && (b as usize) < n && a != b);
        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let platform = Platform::new(
            instance,
            pool_with(6, 3),
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(seed),
        );
        let mut oracle = PlatformOracle::new(platform);
        for class in [WorkerClass::Naive, WorkerClass::Expert] {
            let w = oracle.compare(class, ElementId(a), ElementId(b));
            prop_assert!(w == ElementId(a) || w == ElementId(b));
        }
    }

    /// Trust tracking: a worker's gold accuracy decides her fate exactly at
    /// the threshold, for any record.
    #[test]
    fn trust_threshold_is_exact(correct in 0u32..50, wrong in 0u32..50) {
        use crowd_platform::quality::{MIN_GOLD, TRUST_THRESHOLD};
        let mut t = TrustTracker::default();
        let w = WorkerId(0);
        for i in 0..(correct + wrong) {
            t.record(w, i < correct);
        }
        let seen = correct + wrong;
        let expected = seen < MIN_GOLD || correct as f64 / seen as f64 >= TRUST_THRESHOLD;
        prop_assert_eq!(t.is_trusted(w), expected);
    }

    /// The batched filter and the sequential filter agree exactly when
    /// workers are deterministic, with or without the Appendix A
    /// global-loss option, and batching never changes the comparison
    /// count — only the physical-step clock. Workers resolve pairs within
    /// `delta` for the lower element, so answers can be intransitive and
    /// global-loss pruning actually fires.
    #[test]
    fn batched_filter_equals_sequential(n in 8usize..150, un_frac in 0.0f64..0.3, workers in 2usize..30, seed in any::<u64>(), global_losses in any::<bool>(), delta in 0.0f64..12.0) {
        use crowd_core::algorithms::{filter_candidates, FilterConfig};
        use crowd_core::model::TiePolicy;
        let un = ((n as f64 * un_frac) as usize).clamp(1, n / 2);
        let config = if global_losses {
            FilterConfig::new(un).with_global_losses()
        } else {
            FilterConfig::new(un)
        };
        let instance = Instance::new((0..n).map(|i| i as f64 * 3.0).collect());
        let build = || {
            let mut pool = WorkerPool::new();
            let tie = TiePolicy::FavorLower;
            pool.hire_many(workers, WorkerClass::Naive, "crowd", Behavior::Threshold { delta, epsilon: 0.0, tie });
            Platform::new(
                instance.clone(),
                pool,
                PlatformConfig::paper_default().without_gold(),
                StdRng::seed_from_u64(seed),
            )
        };

        let mut bp = build();
        let batched = batched_filter(&mut bp, WorkerClass::Naive, &instance.ids(), &config).unwrap();

        let mut oracle = PlatformOracle::new(build());
        let sequential = filter_candidates(&mut oracle, &instance.ids(), &config);

        prop_assert_eq!(&batched.survivors, &sequential.survivors);
        let sp = oracle.into_platform();
        prop_assert_eq!(bp.counts().naive, sp.counts().naive);
        prop_assert!(batched.physical_steps <= sp.physical_clock());
    }

    /// A persistent spammer in a gold-rich platform eventually gets
    /// excluded, regardless of seed.
    #[test]
    fn spammers_eventually_excluded(seed in any::<u64>()) {
        let instance = Instance::new((0..20).map(|i| i as f64 * 100.0).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let spammer = pool.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(SpamStrategy::AlwaysSecond),
        );
        let mut config = PlatformConfig::paper_default();
        config.gold_fraction = 0.5;
        let mut platform = Platform::new(instance, pool, config, StdRng::seed_from_u64(seed));
        // Gold pairs presented higher-first: AlwaysSecond always fails them.
        platform.set_gold_pairs(vec![
            (ElementId(19), ElementId(0)),
            (ElementId(18), ElementId(1)),
            (ElementId(17), ElementId(2)),
        ]);
        for _ in 0..120 {
            platform
                .submit_comparisons(&[(ElementId(5), ElementId(6))], WorkerClass::Naive)
                .unwrap();
            if !platform.trust().is_trusted(spammer) {
                break;
            }
        }
        prop_assert!(!platform.trust().is_trusted(spammer), "spammer survived 120 jobs");
    }

    /// The dense ledger answers like a map-keyed model of it: random
    /// payments, zero amounts included, to ids in any order below a pool
    /// size. The model is the ledger's earlier `HashMap` design.
    #[test]
    fn ledger_matches_a_map_model(pool in 1u32..60, payments in prop::collection::vec(any::<u64>(), 0..300)) {
        let mut ledger = Ledger::new();
        let mut total = 0.0f64;
        let mut by_class: HashMap<WorkerClass, f64> = HashMap::new();
        let mut by_worker: HashMap<WorkerId, f64> = HashMap::new();
        for &bits in &payments {
            let worker = WorkerId((bits % u64::from(pool)) as u32);
            let class = if bits >> 32 & 1 == 0 { WorkerClass::Naive } else { WorkerClass::Expert };
            // A quarter of the payments are free; the rest are small
            // amounts with a fractional part, so sums round.
            let amount = match bits >> 33 & 3 {
                0 => 0.0,
                _ => (bits >> 40) as f64 / 4096.0,
            };
            ledger.pay(worker, class, amount);
            total += amount;
            *by_class.entry(class).or_insert(0.0) += amount;
            *by_worker.entry(worker).or_insert(0.0) += amount;
        }
        prop_assert_eq!(ledger.total(), total);
        prop_assert_eq!(ledger.judgments(), payments.len() as u64);
        prop_assert_eq!(ledger.workers_paid(), by_worker.len());
        for class in WorkerClass::ALL {
            prop_assert_eq!(ledger.spent_on(class), by_class.get(&class).copied().unwrap_or(0.0));
        }
        for w in (0..pool + 3).map(WorkerId) {
            prop_assert_eq!(ledger.earned_by(w), by_worker.get(&w).copied().unwrap_or(0.0));
        }
    }
}

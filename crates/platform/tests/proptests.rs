//! Property-based tests of the platform substrate: scheduling invariants,
//! billing conservation, and quality-control behaviour under randomized
//! workloads and pool compositions.

use crowd_core::cost::CostModel;
use crowd_core::element::{ElementId, Instance};
use crowd_core::model::WorkerClass;
use crowd_core::oracle::ComparisonOracle;
use crowd_platform::{
    batched_filter, schedule, scheduler::distinct_workers_per_unit, Behavior, Job, Ledger,
    Platform, PlatformConfig, PlatformOracle, SpamStrategy, TrustTracker, WorkerId, WorkerPool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

fn pool_with(naive: usize, experts: usize) -> WorkerPool {
    let mut p = WorkerPool::new();
    p.hire_naive_crowd(naive, 5.0, 0.05);
    p.hire_expert_panel(experts, 0.5, 0.0);
    p
}

fn job_with(units: usize, judgments: u32) -> Job {
    let pairs: Vec<_> = (0..units)
        .map(|i| (ElementId(2 * i as u32), ElementId(2 * i as u32 + 1)))
        .collect();
    Job::from_pairs(&pairs, judgments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule covers exactly `units × judgments` assignments, never
    /// double-books a worker within a physical step, never assigns a worker
    /// twice to the same unit, and obeys the ⌈m/w⌉ physical-step rule.
    #[test]
    fn schedule_invariants(
        workers in 1usize..40,
        units in 1usize..30,
        judgments in 1u32..8,
        rotation in 0usize..100,
        start in 0u64..1000,
    ) {
        prop_assume!(judgments as usize <= workers);
        let pool = pool_with(workers, 0);
        let job = job_with(units, judgments);
        let s = schedule(&pool, &job, WorkerClass::Naive, &[], start, rotation).unwrap();

        prop_assert_eq!(s.assignments.len() as u64, job.total_judgments());
        prop_assert!(distinct_workers_per_unit(&s));
        let expected_steps = job.total_judgments().div_ceil(workers as u64);
        prop_assert_eq!(s.physical_steps, expected_steps);
        for step in 0..expected_steps {
            let mut at_step = HashSet::new();
            for a in s.assignments.iter().filter(|a| a.physical_step == start + step) {
                prop_assert!(at_step.insert(a.worker), "double-booked worker at step {}", step);
            }
        }
        prop_assert!(s.assignments.iter().all(|a| (start..start + expected_steps).contains(&a.physical_step)));
    }

    /// The rotation parameter is a pure relabeling: it changes who works,
    /// never how much work happens.
    #[test]
    fn rotation_preserves_workload(workers in 2usize..20, units in 1usize..20, r1 in 0usize..50, r2 in 0usize..50) {
        let pool = pool_with(workers, 0);
        let job = job_with(units, 1);
        let s1 = schedule(&pool, &job, WorkerClass::Naive, &[], 0, r1).unwrap();
        let s2 = schedule(&pool, &job, WorkerClass::Naive, &[], 0, r2).unwrap();
        prop_assert_eq!(s1.assignments.len(), s2.assignments.len());
        prop_assert_eq!(s1.physical_steps, s2.physical_steps);
    }

    /// Billing conservation: ledger total = naive judgments × cn + expert
    /// judgments × ce, and judgment counts match the oracle tally.
    #[test]
    fn billing_matches_judgments(
        n in 4usize..40,
        comparisons in 1usize..25,
        judgments_per_unit in 1u32..4,
        cn in 0.01f64..2.0,
        ce in 2.0f64..50.0,
        seed in any::<u64>(),
    ) {
        let instance = Instance::new((0..n).map(|i| i as f64 * 10.0).collect());
        let pool = pool_with(8, 4);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_payment(CostModel::new(cn, ce));
        let mut platform = Platform::new(instance.clone(), pool, config, StdRng::seed_from_u64(seed));
        let pairs: Vec<_> = (0..comparisons)
            .map(|i| {
                let a = (i % n) as u32;
                let b = ((i + 1 + i / n) % n) as u32;
                (ElementId(a), ElementId(if a == b { (b + 1) % n as u32 } else { b }))
            })
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!pairs.is_empty());
        let job = Job::from_pairs(&pairs, judgments_per_unit);
        platform.run_job(&job, WorkerClass::Naive).unwrap();
        platform.run_job(&job, WorkerClass::Expert).unwrap();

        let counts = platform.counts();
        let expected = counts.naive as f64 * cn + counts.expert as f64 * ce;
        prop_assert!((platform.ledger().total() - expected).abs() < 1e-6);
        prop_assert_eq!(platform.ledger().judgments(), counts.total());
    }

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

    /// Under arbitrary fault pressure, retry re-assignment never hands a
    /// unit back to a worker who already judged it — the
    /// distinct-workers-per-unit invariant survives recovery — and every
    /// performed judgment is billed.
    #[test]
    fn retry_reassignment_never_repeats_a_worker(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        abandon in 0.0f64..0.4,
        no_answer in 0.0f64..0.4,
        timeout_steps in 1u64..6,
        judgments in 1u32..3,
    ) {
        use crowd_platform::{FaultConfig, LatencyModel, RetryPolicy};
        use std::collections::HashMap;

        let instance = Instance::new((0..12).map(|i| i as f64 * 5.0).collect());
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(
                FaultConfig::none()
                    .with_abandon(abandon)
                    .with_no_answer(no_answer)
                    .with_latency(LatencyModel::Geometric { p: 0.5, cap: 12 })
                    .with_timeout_steps(timeout_steps),
                fault_seed,
            )
            .with_retry(RetryPolicy::paper_default());
        let mut platform = Platform::new(
            instance,
            pool_with(10, 0),
            config,
            StdRng::seed_from_u64(seed),
        );
        for round in 0..8u32 {
            let job = Job::from_pairs(
                &[
                    (ElementId(round % 6), ElementId(6 + round % 6)),
                    (ElementId((round + 1) % 6), ElementId(11)),
                ],
                judgments,
            );
            if let Ok(result) = platform.run_job(&job, WorkerClass::Naive) {
                let mut seen: HashMap<_, HashSet<_>> = HashMap::new();
                for j in &result.judgments {
                    prop_assert!(
                        seen.entry(j.unit).or_default().insert(j.worker),
                        "unit {:?} judged twice by {} (round {round})",
                        j.unit,
                        j.worker
                    );
                }
            }
        }
        prop_assert_eq!(platform.ledger().judgments(), platform.counts().total());
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

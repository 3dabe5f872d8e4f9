//! Cross-crate integration tests: full pipelines spanning `crowd-core`,
//! `crowd-platform`, `crowd-datasets` and `crowd-experiments`.

use crowd_core::algorithms::{expert_max_find, two_max_find_expert, ExpertMaxConfig};
use crowd_core::cost::CostModel;
use crowd_core::element::Instance;
use crowd_core::estimation::{estimate_un, EstimationConfig, TrainingSet};
use crowd_core::model::{ExpertModel, TiePolicy, WorkerClass};
use crowd_core::oracle::{ComparisonOracle, SimulatedOracle};
use crowd_datasets::synthetic::planted_instance;
use crowd_platform::{Behavior, Platform, PlatformConfig, PlatformOracle, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The whole paper workflow in one test: estimate `un(n)` from gold data,
/// run the two-phase algorithm with the estimate, verify the accuracy
/// guarantee, and verify the cost advantage over the expert-only baseline
/// at the paper's price ratios.
#[test]
fn full_paper_workflow() {
    let mut rng = StdRng::seed_from_u64(2015);

    // Ground truth: a planted instance with un = 30, ue = 6.
    let planted = planted_instance(1500, 30, 6, &mut rng);
    let instance = &planted.instance;
    let model = ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);

    // Gold data: a smaller instance with the same statistics.
    let training_planted = planted_instance(150, 3, 1, &mut rng);
    let training = TrainingSet::new(training_planted.instance.clone());
    let mut training_oracle = SimulatedOracle::new(
        training_planted.instance.clone(),
        ExpertModel::exact(
            training_planted.delta_n,
            training_planted.delta_e,
            TiePolicy::UniformRandom,
        ),
        StdRng::seed_from_u64(1),
    );
    let est = estimate_un(
        &mut training_oracle,
        &training,
        &EstimationConfig::new(0.5, 1.0),
        instance.n(),
    );
    assert!(est.un >= 1);

    // Run Algorithm 1 with the (over-)estimate: correctness is unaffected
    // by overestimation (Section 4.4) — only the bill grows.
    let un_used = est.un.max(planted.un);
    let mut oracle =
        SimulatedOracle::new(instance.clone(), model.clone(), StdRng::seed_from_u64(2));
    let est_out = expert_max_find(
        &mut oracle,
        &instance.ids(),
        &ExpertMaxConfig::new(un_used),
        &mut rng,
    );
    let gap = instance.max_value() - instance.value(est_out.winner);
    assert!(
        gap <= 2.0 * planted.delta_e,
        "gap {gap} > 2δe under the un estimate"
    );

    // Cost comparison at the true un(n), against the expert-only baseline.
    let mut exact_oracle = SimulatedOracle::new(instance.clone(), model, StdRng::seed_from_u64(2));
    let exact_out = expert_max_find(
        &mut exact_oracle,
        &instance.ids(),
        &ExpertMaxConfig::new(planted.un),
        &mut rng,
    );
    let model2 = ExpertModel::exact(planted.delta_n, planted.delta_e, TiePolicy::UniformRandom);
    let mut baseline_oracle =
        SimulatedOracle::new(instance.clone(), model2, StdRng::seed_from_u64(3));
    let baseline = two_max_find_expert(&mut baseline_oracle, &instance.ids());

    // At the paper's top price ratio the two-phase algorithm must win; the
    // overestimated run must cost at least as much as the exact one.
    let prices = CostModel::with_ratio(50.0);
    let alg1_cost = prices.cost(exact_out.total_comparisons);
    let baseline_cost = prices.cost(baseline.comparisons);
    assert!(
        alg1_cost < baseline_cost,
        "at ce/cn = 50 Alg 1 ({alg1_cost}) should beat expert-only ({baseline_cost})"
    );
    assert!(
        prices.cost(est_out.total_comparisons) >= alg1_cost,
        "overestimating un must not make the run cheaper"
    );
}

/// The two-phase algorithm on the full platform stack agrees with the
/// guarantee and the ledger agrees with the oracle tally and the price
/// sheet, end to end.
#[test]
fn platform_pipeline_is_consistent() {
    let instance = Instance::new((0..120).map(|i| (i as f64) * 7.0).collect());
    let mut pool = WorkerPool::new();
    pool.hire_many(
        12,
        WorkerClass::Naive,
        "crowd",
        Behavior::Threshold {
            delta: 30.0,
            epsilon: 0.0,
            tie: TiePolicy::UniformRandom,
        },
    );
    pool.hire_many(
        3,
        WorkerClass::Expert,
        "panel",
        Behavior::Threshold {
            delta: 3.0,
            epsilon: 0.0,
            tie: TiePolicy::UniformRandom,
        },
    );
    let prices = CostModel::new(1.0, 30.0);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_payment(prices);
    let platform = Platform::new(instance.clone(), pool, config, StdRng::seed_from_u64(4));
    let mut oracle = PlatformOracle::new(platform);

    let un = instance.indistinguishable_from_max(30.0);
    let mut rng = StdRng::seed_from_u64(5);
    let out = expert_max_find(
        &mut oracle,
        &instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    );

    let gap = instance.max_value() - instance.value(out.winner);
    assert!(gap <= 2.0 * 3.0, "gap {gap} > 2δe on the platform");

    let counts = oracle.counts();
    let platform = oracle.into_platform();
    assert_eq!(platform.ledger().judgments(), counts.total());
    let expected = counts.naive as f64 + 30.0 * counts.expert as f64;
    assert!((platform.ledger().total() - expected).abs() < 1e-6);

    // One platform job per oracle call: Phase 1 calls once per tournament
    // row (a group of |G| plays |G| − 1 rows), Phase 2 once per expert
    // comparison.
    let g = 4 * un;
    let mut rows = 0u64;
    for &size in &out.phase1.sizes[..out.phase1.rounds] {
        let groups = size.div_ceil(g);
        for ci in 0..groups {
            let len = g.min(size - ci * g);
            if ci + 1 < groups || len > un {
                rows += len as u64 - 1;
            }
        }
    }
    assert_eq!(
        platform.logical_steps(),
        rows + out.phase2_comparisons.expert
    );
}

/// Decorator stack: memoization on top of the platform oracle still
/// produces valid answers and only reduces spending.
#[test]
fn memoized_platform_costs_less() {
    use crowd_core::oracle::MemoOracle;
    let instance = Instance::new((0..80).map(|i| (i as f64) * 5.0).collect());
    let build = |seed: u64| {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(8, 10.0, 0.0);
        pool.hire_expert_panel(2, 1.0, 0.0);
        let platform = Platform::new(
            instance.clone(),
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(seed),
        );
        PlatformOracle::new(platform)
    };
    let un = instance.indistinguishable_from_max(10.0);
    let mut rng = StdRng::seed_from_u64(6);

    let mut plain = build(7);
    let plain_out = expert_max_find(
        &mut plain,
        &instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    );
    let plain_cost = plain.platform().ledger().total();

    let mut memo = MemoOracle::new(build(7));
    let memo_out = expert_max_find(
        &mut memo,
        &instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    );
    let memo_cost = memo.into_inner().into_platform().ledger().total();

    assert!(
        memo_cost <= plain_cost,
        "memoization increased cost: {memo_cost} > {plain_cost}"
    );
    // Both runs still find a near-max element.
    for out in [&plain_out, &memo_out] {
        assert!(instance.max_value() - instance.value(out.winner) <= 2.0);
    }
}

/// The experiment runner produces files for a mixed selection of
/// experiments, exercising every crate from one entry point.
#[test]
fn runner_end_to_end() {
    use crowd_experiments::{run_experiments, Scale};
    let dir = std::env::temp_dir().join(format!("crowd_e2e_{}", std::process::id()));
    let names = vec!["table1".to_string(), "search_eval".to_string()];
    let tables = run_experiments(&names, &Scale::quick(), &dir).unwrap();
    assert_eq!(tables.len(), 2);
    for t in &tables {
        assert!(dir.join(format!("{}.md", t.id)).exists());
        assert!(dir.join(format!("{}.csv", t.id)).exists());
        assert!(!t.rows.is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! The paper's motivating scenario (Sections 2–3): select the best of many
//! photos of the Colosseum. A professional photographer is the expert —
//! hired *because* she is one — but her time is expensive, so the cheap
//! crowd filters the bulk of the photos first and she only ever sees a
//! handful.
//!
//! This example drives the full `crowd-platform` stack: a hired crowd
//! (including a spammer that gold questions catch), per-judgment billing,
//! and one expert, with the algorithms talking to the platform only
//! through its oracle adapter.
//!
//! ```text
//! cargo run --release --example photo_contest
//! ```

use crowd_core::algorithms::{expert_max_find, ExpertMaxConfig};
use crowd_core::cost::CostModel;
use crowd_core::element::Instance;
use crowd_core::model::{TiePolicy, WorkerClass};
use crowd_platform::{
    Behavior, CampaignReport, Platform, PlatformConfig, PlatformOracle, SpamStrategy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // ----- 1. 400 submitted photos with hidden quality scores. Many are
    // mediocre, a cluster near the top is hard to separate. -----
    let mut rng = StdRng::seed_from_u64(2015);
    let mut quality: Vec<f64> = (0..392).map(|_| rng.gen_range(0.0..80.0)).collect();
    for _ in 0..7 {
        quality.push(rng.gen_range(88.0..96.0)); // strong contenders
    }
    quality.push(97.5); // the winner-to-be
    let instance = Instance::new(quality);
    let n = instance.n();

    // ----- 2. The workforce: a crowd that can separate "clearly better"
    // photos (δn = 15 quality points) but not the top cluster, one
    // professional photographer (δe = 1), and one spammer. -----
    let mut pool = WorkerPool::new();
    pool.hire_many(
        25,
        WorkerClass::Naive,
        "crowd",
        Behavior::Threshold {
            delta: 15.0,
            epsilon: 0.03,
            tie: TiePolicy::UniformRandom,
        },
    );
    pool.hire(
        WorkerClass::Naive,
        "crowd",
        Behavior::Spammer(SpamStrategy::AlwaysFirst),
    );
    pool.hire(
        WorkerClass::Expert,
        "professional-photographer",
        Behavior::Threshold {
            delta: 1.0,
            epsilon: 0.0,
            tie: TiePolicy::UniformRandom,
        },
    );

    // The photographer charges 100x the crowd rate.
    let config = PlatformConfig::paper_default().with_payment(CostModel::new(0.05, 5.0));
    let mut platform = Platform::new(instance.clone(), pool, config, StdRng::seed_from_u64(99));

    // Gold questions with obvious answers, to catch the spammer.
    let ids = instance.ids();
    let easy: Vec<_> = ids
        .iter()
        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a < b && instance.distance(a, b) > 60.0)
        .take(25)
        .collect();
    platform.set_gold_pairs(easy);

    // ----- 3. Run the two-phase algorithm on the platform. -----
    let un = instance.indistinguishable_from_max(15.0);
    let mut oracle = PlatformOracle::new(platform);
    let outcome = expert_max_find(
        &mut oracle,
        &instance.ids(),
        &ExpertMaxConfig::new(un),
        &mut rng,
    );

    let platform = oracle.into_platform();
    println!("photos submitted:             {n}");
    println!("photos the photographer saw:  {}", outcome.candidates.len());
    println!(
        "winner: photo {} (true rank {}, quality {:.1})",
        outcome.winner,
        instance.rank(outcome.winner),
        instance.value(outcome.winner),
    );
    println!(
        "comparisons: {} crowd, {} expert",
        outcome.total_comparisons.naive, outcome.total_comparisons.expert
    );
    println!(
        "bill: ${:.2} total — ${:.2} to the crowd, ${:.2} to the photographer",
        platform.ledger().total(),
        platform.ledger().spent_on(WorkerClass::Naive),
        platform.ledger().spent_on(WorkerClass::Expert),
    );
    println!(
        "platform ran {} logical steps over {} physical steps; excluded workers: {}",
        platform.logical_steps(),
        platform.physical_clock(),
        platform.trust().untrusted().count(),
    );

    // The requester's dashboard: spend, per-worker earnings, flagged spam.
    let report = CampaignReport::from_platform(&platform);
    println!(
        "
--- campaign dashboard (top 6 earners) ---"
    );
    for line in report.to_string().lines().take(7) {
        println!("{line}");
    }
}

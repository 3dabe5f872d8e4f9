//! The max-finding algorithms of Section 4, their building blocks, and the
//! baselines of Section 5.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Algorithm 1 (two-phase expert-aware max) | [`expert_max_find`]; step machine [`ExpertMaxSteps`] |
//! | Algorithm 2 (naïve filtering, Phase 1) | [`filter_candidates`] |
//! | Algorithm 3 (2-MaxFind, deterministic Phase 2) | [`two_max_find`] |
//! | Algorithm 5 (randomized Phase 2) | [`randomized_max_find`] |
//! | 2-MaxFind-naïve / 2-MaxFind-expert baselines | [`two_max_find_naive`], [`two_max_find_expert`] |
//! | Majority voting (Figure 2 methodology) | [`majority_compare`] |
//! | Top-k extension (adjacent work, Davidson et al.) | [`top_k_find`] |
//! | Near-sorting (adjacent work, Ajtai et al.) | [`near_sort`], [`expert_rank`] |

mod baselines;
mod expert_max;
mod filter;
mod majority;
mod randomized;
mod sorting;
pub(crate) mod steps;
mod topk;
mod two_maxfind;

pub use baselines::{all_play_all_max, linear_scan_max, two_max_find_expert, two_max_find_naive};
pub use expert_max::{
    expert_max_find, try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome, ExpertMaxSteps, Phase2,
};
pub use filter::{
    filter_candidates, try_filter_candidates, FilterConfig, FilterOutcome, FilterRounds, GroupTally,
};
pub use majority::{majority_compare, majority_prefix_correct};
pub use randomized::{randomized_max_find, RandomizedConfig, RandomizedOutcome};
pub use sorting::{
    expert_rank, footrule, max_displacement, near_sort, ExpertRankConfig, SortOutcome,
};
pub use steps::{Step, Steps};
pub use topk::{top_k_find, TopKConfig, TopKOutcome};
pub use two_maxfind::{two_max_find, two_max_find_comparison_bound, TwoMaxFindOutcome};

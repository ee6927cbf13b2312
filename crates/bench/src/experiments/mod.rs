//! Per-theorem experiments (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded outputs).

pub mod e01_schedule_all;
pub mod e02_budgeted;
pub mod e03_prize_collecting;
pub mod e05_setcover_hard;
pub mod e06_secretary_monotone;
pub mod e07_secretary_nonmonotone;
pub mod e08_secretary_matroid;
pub mod e09_secretary_knapsack;
pub mod e10_subadditive;
pub mod e11_bottleneck;
pub mod e12_submodularity;
pub mod e14_ablation;
pub mod e15_gap_budget;

/// An experiment's `exp` binary name and its `run(seed, quick)` entry.
pub type Experiment = (&'static str, fn(u64, bool));

/// Every experiment by its `exp` binary name, in index order (`exp all`
/// runs them in this order).
pub const ALL: &[Experiment] = &[
    ("schedule_all", e01_schedule_all::run),
    ("budgeted_greedy", e02_budgeted::run),
    ("prize_collecting", e03_prize_collecting::run),
    ("setcover_hard", e05_setcover_hard::run),
    ("secretary_monotone", e06_secretary_monotone::run),
    ("secretary_nonmonotone", e07_secretary_nonmonotone::run),
    ("secretary_matroid", e08_secretary_matroid::run),
    ("secretary_knapsack", e09_secretary_knapsack::run),
    ("subadditive", e10_subadditive::run),
    ("bottleneck", e11_bottleneck::run),
    ("submodularity_check", e12_submodularity::run),
    ("ablation", e14_ablation::run),
    ("gap_budget", e15_gap_budget::run),
];

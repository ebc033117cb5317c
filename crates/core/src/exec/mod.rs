//! The oblivious physical operators (paper §4, Figure 3).
//!
//! Beside each operator sits its `…_cost` function: the same loop
//! structure replayed in integer arithmetic over public sizes, returning
//! the exact [`HostStats`] the operator adds on `Host`. The planner weighs
//! those counts; `tests/planner_cost.rs` holds each equal to execution.

pub mod aggregate;
pub mod ct;
pub mod join;
pub mod select;
pub mod sort;

use oblidb_enclave::HostStats;

pub use aggregate::{aggregate, group_aggregate, group_output_schema, AggFold, AggFunc, AggState};
pub use join::{
    hash_join, hash_join_into, sort_merge_join, sort_merge_join_into, JoinSink, SortMergeVariant,
};
pub use select::{
    select_continuous, select_hash, select_large, select_naive, select_small, HASH_SLOTS,
};
pub use sort::bitonic_sort;

/// The cost of covering `total` items in consecutive calls of at most
/// `run` items each, where `cost(n)` prices one call over `n` items (and
/// a call over none costs nothing).
fn in_runs(total: u64, run: u64, cost: impl Fn(u64) -> HostStats) -> HostStats {
    cost(run) * (total / run) + cost(total % run)
}

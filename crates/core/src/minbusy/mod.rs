//! MinBusy: scheduling **all** jobs with minimum total busy time (Section 3 of the
//! paper).
//!
//! | function | instance class | guarantee | paper reference |
//! |---|---|---|---|
//! | [`one_sided_optimal`] | one-sided clique | optimal | Observation 3.1 |
//! | [`clique_matching`] | clique, `g = 2` | optimal | Lemma 3.1 |
//! | [`clique_set_cover`] | clique, fixed `g` | `g·H_g/(H_g+g−1)` | Lemma 3.2 |
//! | [`best_cut`] | proper | `2 − 1/g` | Theorem 3.1 |
//! | [`find_best_consecutive`] | proper clique | optimal | Theorem 3.2 |
//! | [`first_fit`] | any | `4` (from \[13\]) | baseline |
//! | [`greedy_pack`] / [`naive`] | any | `g` / `g` | Proposition 2.1 |
//!
//! [`crate::Solver`] is the one place that maps an instance class to the strongest
//! applicable algorithm of this table.

mod best_cut;
mod clique_matching;
mod clique_set_cover;
mod consecutive_dp;
mod first_fit;
mod naive;
mod one_sided;

pub use best_cut::{best_cut, best_cut_guarantee};
pub use clique_matching::clique_matching;
pub use clique_set_cover::{clique_set_cover, set_cover_guarantee, DEFAULT_SET_FAMILY_LIMIT};
pub use consecutive_dp::{consecutive_partition_dp, find_best_consecutive};
pub use first_fit::{
    first_fit, first_fit_in_order, first_fit_in_order_adaptive, first_fit_in_order_scan,
};
pub use naive::{greedy_pack, naive};
pub use one_sided::{one_sided_optimal, one_sided_optimal_cost, schedule_by_length_groups};

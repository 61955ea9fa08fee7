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
//! [`solve_auto`] classifies the instance and dispatches to the strongest applicable
//! algorithm.

mod best_cut;
mod clique_matching;
mod clique_set_cover;
mod consecutive_dp;
mod first_fit;
mod naive;
mod one_sided;

pub use best_cut::{best_cut, best_cut_guarantee};
pub use clique_matching::clique_matching;
pub use clique_set_cover::{
    clique_set_cover, clique_set_cover_with_limit, set_cover_guarantee, DEFAULT_SET_FAMILY_LIMIT,
};
pub use consecutive_dp::{consecutive_partition_dp, find_best_consecutive};
pub use first_fit::{
    first_fit, first_fit_in_order, first_fit_in_order_adaptive, first_fit_in_order_scan,
};
pub use naive::{greedy_pack, naive};
pub use one_sided::{one_sided_optimal, one_sided_optimal_cost, schedule_by_length_groups};

use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Which MinBusy algorithm [`solve_auto`] selected for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinBusyAlgorithm {
    /// Observation 3.1 (optimal, one-sided clique).
    OneSided,
    /// Theorem 3.2 (optimal, proper clique).
    ProperCliqueDp,
    /// Lemma 3.1 (optimal, clique with `g = 2`).
    CliqueMatching,
    /// Lemma 3.2 (clique, fixed `g`).
    CliqueSetCover,
    /// Theorem 3.1 (proper instances).
    BestCut,
    /// FirstFit baseline of \[13\] (general instances).
    FirstFit,
}

impl MinBusyAlgorithm {
    /// `true` when the algorithm returns an optimal schedule on its instance class.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            MinBusyAlgorithm::OneSided
                | MinBusyAlgorithm::ProperCliqueDp
                | MinBusyAlgorithm::CliqueMatching
        )
    }

    /// The proven approximation guarantee of the algorithm for capacity `g` (1.0 for the
    /// exact algorithms, 4.0 for FirstFit on general instances).
    pub fn guarantee(self, g: usize) -> f64 {
        match self {
            MinBusyAlgorithm::OneSided
            | MinBusyAlgorithm::ProperCliqueDp
            | MinBusyAlgorithm::CliqueMatching => 1.0,
            MinBusyAlgorithm::CliqueSetCover => set_cover_guarantee(g),
            MinBusyAlgorithm::BestCut => best_cut_guarantee(g),
            MinBusyAlgorithm::FirstFit => 4.0,
        }
    }
}

/// Classify the instance and run the strongest applicable MinBusy algorithm.
///
/// Selection order: one-sided clique → proper clique DP → clique with `g = 2` → clique
/// set cover (when the candidate family is small enough) → proper BestCut → FirstFit.
/// Always succeeds; the chosen algorithm is reported alongside the schedule.
pub fn solve_auto(instance: &Instance) -> (Schedule, MinBusyAlgorithm) {
    let class = instance.classification();
    if class.clique && class.one_sided {
        if let Ok(s) = one_sided_optimal(instance) {
            return (s, MinBusyAlgorithm::OneSided);
        }
    }
    if class.clique && class.proper {
        if let Ok(s) = find_best_consecutive(instance) {
            return (s, MinBusyAlgorithm::ProperCliqueDp);
        }
    }
    if class.clique && instance.capacity() == 2 {
        if let Ok(s) = clique_matching(instance) {
            return (s, MinBusyAlgorithm::CliqueMatching);
        }
    }
    if class.clique {
        match clique_set_cover(instance) {
            Ok(s) => return (s, MinBusyAlgorithm::CliqueSetCover),
            Err(Error::SetFamilyTooLarge { .. }) => {}
            Err(_) => {}
        }
    }
    if class.proper {
        if let Ok(s) = best_cut(instance) {
            return (s, MinBusyAlgorithm::BestCut);
        }
    }
    (first_fit(instance), MinBusyAlgorithm::FirstFit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_dispatch_prefers_exact_algorithms() {
        let one_sided = Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2);
        assert_eq!(solve_auto(&one_sided).1, MinBusyAlgorithm::OneSided);

        let proper_clique = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2);
        assert_eq!(
            solve_auto(&proper_clique).1,
            MinBusyAlgorithm::ProperCliqueDp
        );

        // Clique but not proper, g = 2 → matching.
        let clique_g2 = Instance::from_ticks(&[(0, 20), (5, 10), (6, 18)], 2);
        assert!(clique_g2.is_clique() && !clique_g2.is_proper());
        assert_eq!(solve_auto(&clique_g2).1, MinBusyAlgorithm::CliqueMatching);

        // Clique but not proper, g = 3 → set cover.
        let clique_g3 = Instance::from_ticks(&[(0, 20), (5, 10), (6, 18), (7, 9)], 3);
        assert!(clique_g3.is_clique() && !clique_g3.is_proper());
        assert_eq!(solve_auto(&clique_g3).1, MinBusyAlgorithm::CliqueSetCover);

        // Proper, not clique → BestCut.
        let proper = Instance::from_ticks(&[(0, 4), (3, 7), (6, 10), (9, 13)], 2);
        assert!(proper.is_proper() && !proper.is_clique());
        assert_eq!(solve_auto(&proper).1, MinBusyAlgorithm::BestCut);

        // Neither proper nor clique → FirstFit.
        let general = Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2);
        assert!(!general.is_proper() && !general.is_clique());
        assert_eq!(solve_auto(&general).1, MinBusyAlgorithm::FirstFit);
    }

    #[test]
    fn auto_dispatch_schedules_are_valid_and_complete() {
        let instances = [
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18), (7, 9)], 3),
            Instance::from_ticks(&[(0, 4), (3, 7), (6, 10), (9, 13)], 2),
            Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2),
            Instance::from_ticks(&[], 2),
        ];
        for inst in &instances {
            let (s, algo) = solve_auto(inst);
            s.validate_complete(inst).unwrap();
            assert!(algo.guarantee(inst.capacity()) >= 1.0);
        }
    }

    #[test]
    fn guarantees_are_consistent() {
        assert!(MinBusyAlgorithm::OneSided.is_exact());
        assert!(MinBusyAlgorithm::ProperCliqueDp.is_exact());
        assert!(MinBusyAlgorithm::CliqueMatching.is_exact());
        assert!(!MinBusyAlgorithm::BestCut.is_exact());
        assert_eq!(MinBusyAlgorithm::BestCut.guarantee(2), 1.5);
        assert_eq!(MinBusyAlgorithm::FirstFit.guarantee(10), 4.0);
        assert!(MinBusyAlgorithm::CliqueSetCover.guarantee(6) < 2.0);
    }
}

//! Property tests for the unified `Solver` facade.
//!
//! Two contracts are pinned down on random workloads from `busytime-workload`:
//!
//! 1. **Dispatch is sound** — under the default policy, the trace walks
//!    `Algorithm::candidates` in order, only its last entry is the selection, and the
//!    reported objective is the returned schedule's own cost and throughput;
//! 2. **`require_exact` ≡ ground truth** — whenever the exact-only policy returns a
//!    solution on a small instance, its objective equals the `busytime-exact` subset-DP
//!    optimum (and the solution advertises exactness).

use busytime::{
    Algorithm, AttemptOutcome, Duration, Instance, Problem, ProblemKind, Solution, Solver,
};
use busytime_exact::{exact_maxthroughput_value, exact_minbusy_cost};
use busytime_workload::{
    clique_instance, general_instance, one_sided_instance, proper_clique_instance, proper_instance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dispatch-trace contract of the default policy: the trace names the candidates
/// of `kind` in order, strongest first, up to and including the selected one, and only
/// that last entry is a selection.
fn assert_trace_walks_candidates(solution: &Solution, kind: ProblemKind) {
    let walked: Vec<Algorithm> = solution.trace.iter().map(|a| a.algorithm).collect();
    assert_eq!(walked, Algorithm::candidates(kind)[..walked.len()]);
    let (last, earlier) = solution.trace.split_last().unwrap();
    assert_eq!(last.algorithm, solution.algorithm);
    assert_eq!(last.outcome, AttemptOutcome::Selected);
    assert!(
        earlier
            .iter()
            .all(|a| a.outcome != AttemptOutcome::Selected),
        "{}",
        solution.trace_report()
    );
}

/// A random instance drawn from one of the five 1-D workload families.
fn random_instance(seed: u64, family: usize, n: usize, g: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 5 {
        0 => one_sided_instance(&mut rng, n, g, 40),
        1 => proper_clique_instance(&mut rng, n, g, 60),
        2 => clique_instance(&mut rng, n, g, 40),
        3 => proper_instance(&mut rng, n, g, 20, 5),
        _ => general_instance(&mut rng, n, g, 60, 15),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Default-policy MinBusy dispatch is sound on every family.
    #[test]
    fn minbusy_dispatch_is_sound(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..14,
        g in 1usize..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let solution = Solver::new().solve(&Problem::min_busy(inst.clone())).unwrap();
        assert_trace_walks_candidates(&solution, ProblemKind::MinBusy);
        prop_assert_eq!(solution.objective.cost(), solution.schedule.cost(&inst));
        prop_assert_eq!(solution.objective.scheduled(), None);
        solution.schedule.validate_complete(&inst).unwrap();
    }

    /// Default-policy MaxThroughput dispatch is sound on every family.
    #[test]
    fn maxthroughput_dispatch_is_sound(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..12,
        g in 1usize..5,
        frac in 1i64..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let budget = Duration::new(inst.total_len().ticks() / frac);
        let solution = Solver::new()
            .solve(&Problem::max_throughput(inst.clone(), budget))
            .unwrap();
        assert_trace_walks_candidates(&solution, ProblemKind::MaxThroughput);
        prop_assert_eq!(solution.objective.scheduled(), Some(solution.schedule.throughput()));
        prop_assert_eq!(solution.objective.cost(), solution.schedule.cost(&inst));
        solution.schedule.validate_budgeted(&inst, budget).unwrap();
    }

    /// Exact-only MinBusy solutions match the `busytime-exact` subset-DP optimum.
    #[test]
    fn require_exact_matches_exact_solver(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..12,
        g in 1usize..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let solver = Solver::builder().require_exact(true).build();
        match solver.solve(&Problem::min_busy(inst.clone())) {
            Ok(solution) => {
                prop_assert!(solution.is_exact());
                prop_assert_eq!(solution.guarantee, Some(1.0));
                prop_assert_eq!(solution.objective.cost(), exact_minbusy_cost(&inst));
                solution.schedule.validate_complete(&inst).unwrap();
            }
            Err(e) => {
                // Refusal is only legitimate when no exact algorithm applies.
                prop_assert!(
                    !(inst.is_one_sided()
                        || inst.is_proper_clique()
                        || (inst.is_clique() && inst.capacity() == 2)),
                    "exact-only refused an exactly solvable instance: {}", e
                );
            }
        }
    }

    /// Exact-only MaxThroughput solutions match the exact optimum for every budget.
    #[test]
    fn require_exact_throughput_matches_exact_solver(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..11,
        g in 1usize..4,
        frac in 1i64..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let budget = Duration::new(inst.total_len().ticks() / frac);
        let solver = Solver::builder().require_exact(true).build();
        if let Ok(solution) = solver.solve(&Problem::max_throughput(inst.clone(), budget)) {
            prop_assert!(solution.is_exact());
            prop_assert_eq!(
                solution.objective.scheduled(),
                Some(exact_maxthroughput_value(&inst, budget))
            );
            solution.schedule.validate_budgeted(&inst, budget).unwrap();
        }
    }

    /// Batch solving is pointwise identical to sequential solving.
    #[test]
    fn batch_is_pointwise_sequential(
        seed in 0u64..10_000,
        n in 1usize..10,
        g in 1usize..4,
    ) {
        let problems: Vec<Problem> = (0..6)
            .map(|family| {
                let inst = random_instance(seed ^ family as u64, family, n, g);
                if family % 2 == 0 {
                    Problem::min_busy(inst)
                } else {
                    let budget = Duration::new(inst.total_len().ticks() / 2);
                    Problem::max_throughput(inst, budget)
                }
            })
            .collect();
        let solver = Solver::new();
        let batch = solver.solve_batch(&problems);
        prop_assert_eq!(batch.len(), problems.len());
        for (problem, result) in problems.iter().zip(batch) {
            let batched = result.unwrap();
            let sequential = solver.solve(problem).unwrap();
            prop_assert_eq!(batched.algorithm, sequential.algorithm);
            prop_assert_eq!(batched.objective, sequential.objective);
            prop_assert_eq!(batched.trace, sequential.trace);
        }
    }
}

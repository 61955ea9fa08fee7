//! End-to-end integration tests: workload generation → the unified `Solver` facade →
//! validation → reporting, plus the experiment harness itself, exercised the way a
//! downstream user would drive the library.

use busytime::analysis::ScheduleSummary;
use busytime::par::{map_instances, solve_maxthroughput_batch, solve_minbusy_batch};
use busytime::twodim::{bucket_first_fit, first_fit_2d, DEFAULT_BUCKET_BASE};
use busytime::{
    Algorithm, AttemptOutcome, Duration, Instance, Problem, ProblemKind, SolveError, Solver,
};
use busytime_bench::all_experiments;
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, one_sided_instance, optical_lightpaths,
    proper_clique_instance, proper_instance, rect_instance,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The facade picks the expected algorithm per generated class, always produces a valid
/// complete schedule, and accounts for every dispatch decision in the trace.
#[test]
fn facade_dispatch_matches_generated_classes() {
    let mut rng = StdRng::seed_from_u64(1);
    let solver = Solver::new();
    let cases: Vec<(Instance, Algorithm)> = vec![
        (one_sided_instance(&mut rng, 30, 4, 50), Algorithm::OneSided),
        (
            proper_clique_instance(&mut rng, 30, 4, 100),
            Algorithm::ProperCliqueDp,
        ),
        (proper_instance(&mut rng, 30, 4, 20, 5), Algorithm::BestCut),
    ];
    for (inst, expected) in cases {
        let solution = solver.solve(&Problem::min_busy(inst.clone())).unwrap();
        solution.schedule.validate_complete(&inst).unwrap();
        // A random proper instance could accidentally be a proper clique (stronger
        // class); accept the expected algorithm or a strictly stronger exact one.
        assert!(
            solution.algorithm == expected || solution.is_exact(),
            "expected {expected:?}, got {:?}",
            solution.algorithm
        );
        // The trace ends with the selection and records every earlier skip.
        let last = solution.trace.last().unwrap();
        assert_eq!(last.algorithm, solution.algorithm);
        assert_eq!(last.outcome, AttemptOutcome::Selected);
        for attempt in &solution.trace[..solution.trace.len() - 1] {
            assert!(
                !matches!(attempt.outcome, AttemptOutcome::Selected),
                "only the last attempt may be selected: {attempt}"
            );
        }
    }

    // Clique instances: the dispatcher uses matching for g = 2 and set cover otherwise.
    let clique2 = clique_instance(&mut rng, 20, 2, 60);
    assert_eq!(
        solver.solve(&Problem::min_busy(clique2)).unwrap().algorithm,
        Algorithm::CliqueMatching
    );
    let clique3 = clique_instance(&mut rng, 12, 3, 60);
    let algo3 = solver.solve(&Problem::min_busy(clique3)).unwrap().algorithm;
    assert!(matches!(
        algo3,
        Algorithm::CliqueSetCover | Algorithm::ProperCliqueDp
    ));

    // A general instance falls back to FirstFit (and the trace says why nothing
    // stronger applied).
    let general = general_instance(&mut rng, 50, 3, 200, 30);
    let solution = solver.solve(&Problem::min_busy(general.clone())).unwrap();
    solution.schedule.validate_complete(&general).unwrap();
    assert!(matches!(
        solution.algorithm,
        Algorithm::FirstFit | Algorithm::BestCut | Algorithm::CliqueSetCover
    ));
    assert!(!solution.trace.is_empty());
}

/// The budgeted facade respects every budget on every workload family.
#[test]
fn budgeted_facade_respects_budgets() {
    let mut rng = StdRng::seed_from_u64(2);
    let solver = Solver::new();
    let instances = vec![
        one_sided_instance(&mut rng, 25, 3, 40),
        proper_clique_instance(&mut rng, 25, 3, 80),
        clique_instance(&mut rng, 25, 3, 40),
        cloud_trace(&mut rng, 60, 6, 4, 2, 200),
        optical_lightpaths(&mut rng, 40, 4, 32),
    ];
    for inst in &instances {
        for frac in [10i64, 4, 2, 1] {
            let budget = Duration::new(inst.total_len().ticks() / frac);
            let solution = solver
                .solve(&Problem::max_throughput(inst.clone(), budget))
                .unwrap();
            solution.schedule.validate_budgeted(inst, budget).unwrap();
            assert!(solution.objective.cost() <= budget);
            if inst.is_one_sided() {
                assert_eq!(solution.algorithm, Algorithm::ThroughputOneSided);
            }
        }
    }
}

/// `Solver::solve_batch` and the compatibility wrappers agree with sequential solves.
#[test]
fn parallel_batch_agrees_with_sequential() {
    let mut rng = StdRng::seed_from_u64(3);
    let instances: Vec<Instance> = (0..12)
        .map(|i| match i % 3 {
            0 => proper_clique_instance(&mut rng, 40, 4, 160),
            1 => one_sided_instance(&mut rng, 40, 4, 60),
            _ => proper_instance(&mut rng, 40, 4, 20, 6),
        })
        .collect();

    // The facade's own batch entry point.
    let solver = Solver::new();
    let problems: Vec<Problem> = instances
        .iter()
        .map(|i| Problem::min_busy(i.clone()))
        .collect();
    let batch = solver.solve_batch(&problems);
    for (problem, result) in problems.iter().zip(&batch) {
        let batched = result.as_ref().unwrap();
        let sequential = solver.solve(problem).unwrap();
        assert_eq!(batched.algorithm, sequential.algorithm);
        assert_eq!(batched.objective, sequential.objective);
    }

    // The compatibility wrappers in `busytime::par`.
    let wrapped = solve_minbusy_batch(&instances);
    for ((inst, (schedule, algo)), result) in instances.iter().zip(&wrapped).zip(&batch) {
        let batched = result.as_ref().unwrap();
        assert_eq!(Algorithm::from(*algo), batched.algorithm);
        assert_eq!(schedule.cost(inst), batched.objective.cost());
    }
    let cases: Vec<(Instance, Duration)> = instances
        .iter()
        .map(|i| (i.clone(), Duration::new(i.total_len().ticks() / 3)))
        .collect();
    let tbatch = solve_maxthroughput_batch(&cases);
    for ((inst, budget), (result, _)) in cases.iter().zip(&tbatch) {
        result.schedule.validate_budgeted(inst, *budget).unwrap();
    }
    let costs = map_instances(&instances, |i| {
        solver.solve_min_busy(i).unwrap().objective.cost()
    });
    assert_eq!(costs.len(), instances.len());
}

/// Policy knobs behave end to end: forcing and exact-only dispatch.
#[test]
fn policies_behave_end_to_end() {
    let mut rng = StdRng::seed_from_u64(6);
    let pc = proper_clique_instance(&mut rng, 20, 3, 80);
    let problem = Problem::min_busy(pc.clone());

    // Forcing an applicable algorithm runs exactly that algorithm.
    let forced = Solver::builder()
        .force_algorithm(Algorithm::FirstFit)
        .build();
    assert_eq!(
        forced.solve(&problem).unwrap().algorithm,
        Algorithm::FirstFit
    );

    // Forcing an inapplicable algorithm is a typed error, not a silent fallback.
    let wrong = Solver::builder()
        .force_algorithm(Algorithm::CliqueMatching)
        .build();
    let general = general_instance(&mut rng, 30, 3, 200, 30);
    match wrong.solve(&Problem::min_busy(general.clone())) {
        Err(SolveError::ForcedFailed { algorithm, .. }) => {
            assert_eq!(algorithm, Algorithm::CliqueMatching);
        }
        other => panic!("expected ForcedFailed, got {other:?}"),
    }

    // Exact-only without an installed oracle reports a full trace instead of
    // approximating: every polynomial candidate plus both rejected exact backends.
    let exact = Solver::builder().require_exact(true).build();
    match exact.solve(&Problem::min_busy(general.clone())) {
        Err(SolveError::Exhausted { kind, trace }) => {
            assert_eq!(kind, ProblemKind::MinBusy);
            assert_eq!(
                trace.len(),
                Algorithm::candidates(ProblemKind::MinBusy).len() + 2
            );
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }

    // With the oracle installed, the same instance solves exactly (n = 30 routes
    // above the DP ceiling to branch-and-bound).
    let exact = Solver::builder()
        .require_exact(true)
        .exact_oracle(busytime_exact::oracle())
        .build();
    let solved = exact.solve(&Problem::min_busy(general.clone())).unwrap();
    assert_eq!(solved.algorithm, Algorithm::ExactBnB);
    solved.schedule.validate_complete(&general).unwrap();
}

/// Schedule summaries stay internally consistent on a realistic trace.
#[test]
fn summaries_are_consistent() {
    let mut rng = StdRng::seed_from_u64(4);
    let inst = cloud_trace(&mut rng, 120, 8, 3, 5, 300);
    let solution = Solver::new()
        .solve(&Problem::min_busy(inst.clone()))
        .unwrap();
    let summary = ScheduleSummary::new(&inst, &solution.schedule);
    assert_eq!(summary.jobs, 120);
    assert_eq!(summary.scheduled, 120);
    assert!(summary.cost >= summary.lower_bound);
    assert!(summary.cost <= summary.upper_bound);
    assert!(summary.ratio_vs_lower_bound >= 1.0);
    assert!((0.0..=1.0).contains(&summary.saving_fraction));
    // The facade reports the same bounds the summary derives.
    assert_eq!(summary.lower_bound, solution.bounds.lower);
    assert_eq!(summary.upper_bound, solution.bounds.length);
}

/// The 2-D pipeline: generator → FirstFit / BucketFirstFit → validation, including the
/// dimension-swap path and the facade's projection hook.
#[test]
fn two_dimensional_pipeline() {
    let mut rng = StdRng::seed_from_u64(5);
    for (g1, g2) in [(2.0f64, 16.0f64), (16.0, 2.0), (1.0, 1.0)] {
        let inst = rect_instance(&mut rng, 120, 4, 300, 2, g1, g2);
        let ff = first_fit_2d(&inst);
        ff.validate_complete(&inst).unwrap();
        let bf = bucket_first_fit(&inst, DEFAULT_BUCKET_BASE);
        bf.validate_complete(&inst).unwrap();
        assert!(ff.cost(&inst) >= inst.lower_bound());
        assert!(bf.cost(&inst) >= inst.lower_bound());
        // The projection hook produces a solvable 1-D relaxation in either dimension.
        for k in [1usize, 2] {
            let relaxed = Problem::min_busy_from_rects(&inst, k);
            let solution = Solver::new().solve(&relaxed).unwrap();
            solution
                .schedule
                .validate_complete(relaxed.instance())
                .unwrap();
        }
    }
}

/// The experiment harness itself runs end to end (with a tiny trial count) and every
/// claim passes, including the facade-dispatch experiment E0.
#[test]
fn experiment_harness_smoke() {
    let reports = all_experiments(7, 2);
    assert_eq!(reports.len(), 12);
    assert!(reports.iter().any(|r| r.id == "E0"));
    for report in &reports {
        assert!(report.passed(), "{}", report.render());
        assert!(!report.rows.is_empty());
    }
}

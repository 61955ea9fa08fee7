//! The unified solver facade: one request/response surface over every algorithm in the
//! crate.
//!
//! The individual algorithm functions in [`crate::minbusy`] and [`crate::maxthroughput`]
//! remain available (they are this module's internals), but downstream callers — the
//! CLI, the experiment harness, the examples and any future service front-end — go
//! through three types:
//!
//! * [`Problem`] — what to solve: [`Problem::MinBusy`], [`Problem::MaxThroughput`] or
//!   [`Problem::WeightedThroughput`], each owning its [`Instance`] (plus conversion
//!   hooks from the [`crate::demand`] and [`crate::twodim`] models);
//! * [`Solver`] — how to solve it: built with [`SolverBuilder`], carrying a
//!   [`SolvePolicy`] that can force an algorithm, demand exact solutions and bound
//!   the set-cover candidate family;
//! * [`Solution`] — the full answer: schedule, objective value, the [`Algorithm`] that
//!   produced it, its proven guarantee, the Observation 2.1 bounds of the instance, and
//!   a [`DispatchAttempt`] trace recording every algorithm that was considered and why
//!   it was skipped or failed (nothing is silently swallowed).
//!
//! Batch workloads go through [`Solver::solve_batch`], which fans the requests out over
//! the work-stealing [`crate::par::ThreadPool`] while keeping results in request order.
//!
//! ```rust
//! use busytime::{Problem, Solver, Instance, Duration};
//!
//! let instance = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (6, 16)], 2);
//! let solver = Solver::new();
//!
//! let solution = solver.solve(&Problem::min_busy(instance.clone())).unwrap();
//! assert!(solution.is_exact());
//! assert!(solution.objective.cost() >= solution.bounds.lower);
//!
//! let budgeted = solver
//!     .solve(&Problem::max_throughput(instance, Duration::new(12)))
//!     .unwrap();
//! assert!(budgeted.objective.cost() <= Duration::new(12));
//! ```

use core::fmt;
use std::sync::Arc;

use busytime_interval::Duration;

use crate::bounds;
use crate::demand::DemandInstance;
use crate::error::Error;
use crate::instance::Instance;
use crate::maxthroughput::{self, MaxThroughputAlgorithm};
use crate::minbusy::{self, MinBusyAlgorithm, DEFAULT_SET_FAMILY_LIMIT};
use crate::schedule::Schedule;
use crate::twodim::Instance2d;

/// A self-contained solve request: the objective plus everything it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Problem {
    /// Schedule **every** job, minimizing total busy time (Section 3 of the paper).
    MinBusy {
        /// The instance to schedule.
        instance: Instance,
    },
    /// Schedule as **many** jobs as possible within a busy-time budget (Section 4).
    MaxThroughput {
        /// The instance to schedule.
        instance: Instance,
        /// The busy-time budget `T`.
        budget: Duration,
    },
    /// Maximize total **profit** of the scheduled jobs within a busy-time budget (the
    /// weighted-throughput extension of Section 5).
    WeightedThroughput {
        /// The instance to schedule.
        instance: Instance,
        /// The busy-time budget `T`.
        budget: Duration,
        /// Per-job profits, indexed like the instance's (sorted) jobs.
        profits: Vec<i64>,
    },
}

impl Problem {
    /// A MinBusy request.
    pub fn min_busy(instance: Instance) -> Self {
        Problem::MinBusy { instance }
    }

    /// A MaxThroughput request with busy-time budget `budget`.
    pub fn max_throughput(instance: Instance, budget: Duration) -> Self {
        Problem::MaxThroughput { instance, budget }
    }

    /// A weighted-throughput request; `profits[j]` is the profit of job `j`.
    pub fn weighted_throughput(instance: Instance, budget: Duration, profits: Vec<i64>) -> Self {
        Problem::WeightedThroughput {
            instance,
            budget,
            profits,
        }
    }

    /// Conversion hook from the Section 5 demand model: drop the per-job demands and
    /// schedule the underlying intervals with the same capacity `g`.
    ///
    /// With unit demands this is lossless; with larger demands it is the *unit-demand
    /// relaxation* (the returned schedule may overbook a machine's demand budget, but
    /// its cost lower-bounds the demand-aware optimum), which is how the experiment
    /// harness uses it.
    pub fn min_busy_from_demand(instance: &DemandInstance) -> Self {
        Problem::min_busy(instance.to_unit_instance())
    }

    /// Conversion hook from the Section 3.4 rectangle model: schedule the projections
    /// of the rectangles onto dimension `k` (1 or 2).
    ///
    /// Exact when every rectangle spans the same extent in the other dimension (the
    /// "periodic jobs over identical day ranges" case); otherwise a 1-D relaxation of
    /// the 2-D problem.
    ///
    /// # Panics
    /// Panics if `k` is not 1 or 2 (as [`busytime_interval::Rect::projection`] does).
    pub fn min_busy_from_rects(instance: &Instance2d, k: usize) -> Self {
        let jobs = instance.jobs().iter().map(|r| r.projection(k)).collect();
        Problem::min_busy(
            Instance::new(jobs, instance.capacity())
                .expect("a valid 2-D instance has a valid capacity"),
        )
    }

    /// The instance being scheduled.
    pub fn instance(&self) -> &Instance {
        match self {
            Problem::MinBusy { instance }
            | Problem::MaxThroughput { instance, .. }
            | Problem::WeightedThroughput { instance, .. } => instance,
        }
    }

    /// The busy-time budget, for the budgeted problems.
    pub fn budget(&self) -> Option<Duration> {
        match self {
            Problem::MinBusy { .. } => None,
            Problem::MaxThroughput { budget, .. } | Problem::WeightedThroughput { budget, .. } => {
                Some(*budget)
            }
        }
    }

    /// Which family of algorithms this request dispatches to.
    pub fn kind(&self) -> ProblemKind {
        match self {
            Problem::MinBusy { .. } => ProblemKind::MinBusy,
            Problem::MaxThroughput { .. } => ProblemKind::MaxThroughput,
            Problem::WeightedThroughput { .. } => ProblemKind::WeightedThroughput,
        }
    }
}

/// The three request families understood by the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Complete schedules, minimum total busy time.
    MinBusy,
    /// Partial schedules, maximum job count under a budget.
    MaxThroughput,
    /// Partial schedules, maximum profit under a budget.
    WeightedThroughput,
}

impl fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemKind::MinBusy => write!(f, "MinBusy"),
            ProblemKind::MaxThroughput => write!(f, "MaxThroughput"),
            ProblemKind::WeightedThroughput => write!(f, "WeightedThroughput"),
        }
    }
}

/// Every algorithm the facade can dispatch to, across all problem kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    // MinBusy (Section 3).
    /// Observation 3.1 — optimal on one-sided clique instances.
    OneSided,
    /// Theorem 3.2 (FindBestConsecutive) — optimal on proper clique instances.
    ProperCliqueDp,
    /// Lemma 3.1 — optimal on clique instances with `g = 2`, via matching.
    CliqueMatching,
    /// Lemma 3.2 — `g·H_g/(H_g+g−1)`-approximation on clique instances, via set cover.
    CliqueSetCover,
    /// Theorem 3.1 (BestCut) — `(2 − 1/g)`-approximation on proper instances.
    BestCut,
    /// FirstFit baseline of \[13\] — 4-approximation on general instances (fallback).
    FirstFit,
    // MaxThroughput (Section 4).
    /// Proposition 4.1 — optimal on one-sided clique instances.
    ThroughputOneSided,
    /// Theorem 4.2 — optimal on proper clique instances (the `O(n²·g)` DP).
    ThroughputProperCliqueDp,
    /// Theorem 4.1 (Alg1 + Alg2) — 4-approximation on clique instances.
    ThroughputCliqueApprox,
    /// Best-fit greedy with no guarantee, for instances outside the paper's classes
    /// (fallback).
    ThroughputGreedy,
    // Weighted throughput (Section 5 extension).
    /// Pareto-frontier DP — optimal on proper clique instances.
    WeightedParetoDp,
    // Exponential exact backends (pluggable through [`SolverBuilder::exact_oracle`];
    // implemented by the `busytime-exact` crate, which sits above this one).
    /// The `O(3^n)` subset DP — optimal on **any** instance up to the oracle's DP
    /// ceiling (≈ 22 jobs).  Never auto-dispatched without `require_exact`.
    ExactSubsetDp,
    /// Branch-and-bound over job→machine assignments — optimal on any instance, with
    /// a node/time budget; exhaustion surfaces as [`SolveError::BudgetExhausted`]
    /// carrying the proven bound pair.  Never auto-dispatched without `require_exact`.
    ExactBnB,
}

impl Algorithm {
    /// All algorithms for a problem kind, strongest first — the auto-dispatch order.
    pub fn candidates(kind: ProblemKind) -> &'static [Algorithm] {
        match kind {
            ProblemKind::MinBusy => &[
                Algorithm::OneSided,
                Algorithm::ProperCliqueDp,
                Algorithm::CliqueMatching,
                Algorithm::CliqueSetCover,
                Algorithm::BestCut,
                Algorithm::FirstFit,
            ],
            ProblemKind::MaxThroughput => &[
                Algorithm::ThroughputOneSided,
                Algorithm::ThroughputProperCliqueDp,
                Algorithm::ThroughputCliqueApprox,
                Algorithm::ThroughputGreedy,
            ],
            ProblemKind::WeightedThroughput => &[Algorithm::WeightedParetoDp],
        }
    }

    /// The problem kind this algorithm solves.
    pub fn problem_kind(self) -> ProblemKind {
        match self {
            Algorithm::OneSided
            | Algorithm::ProperCliqueDp
            | Algorithm::CliqueMatching
            | Algorithm::CliqueSetCover
            | Algorithm::BestCut
            | Algorithm::FirstFit => ProblemKind::MinBusy,
            Algorithm::ThroughputOneSided
            | Algorithm::ThroughputProperCliqueDp
            | Algorithm::ThroughputCliqueApprox
            | Algorithm::ThroughputGreedy => ProblemKind::MaxThroughput,
            Algorithm::WeightedParetoDp => ProblemKind::WeightedThroughput,
            Algorithm::ExactSubsetDp | Algorithm::ExactBnB => ProblemKind::MinBusy,
        }
    }

    /// `true` when the algorithm is optimal on its instance class.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            Algorithm::OneSided
                | Algorithm::ProperCliqueDp
                | Algorithm::CliqueMatching
                | Algorithm::ThroughputOneSided
                | Algorithm::ThroughputProperCliqueDp
                | Algorithm::WeightedParetoDp
                | Algorithm::ExactSubsetDp
                | Algorithm::ExactBnB
        )
    }

    /// `true` for the exponential exact backends that only run through an installed
    /// [`ExactOracle`] (never part of the polynomial auto-dispatch candidate list).
    pub fn is_exact_oracle(self) -> bool {
        matches!(self, Algorithm::ExactSubsetDp | Algorithm::ExactBnB)
    }

    /// The proven approximation guarantee on the algorithm's own instance class for
    /// capacity `g`, or `None` when the paper proves none (the greedy fallback).
    pub fn guarantee(self, g: usize) -> Option<f64> {
        match self {
            Algorithm::OneSided
            | Algorithm::ProperCliqueDp
            | Algorithm::CliqueMatching
            | Algorithm::ThroughputOneSided
            | Algorithm::ThroughputProperCliqueDp
            | Algorithm::WeightedParetoDp
            | Algorithm::ExactSubsetDp
            | Algorithm::ExactBnB => Some(1.0),
            Algorithm::CliqueSetCover => Some(minbusy::set_cover_guarantee(g)),
            Algorithm::BestCut => Some(minbusy::best_cut_guarantee(g)),
            Algorithm::FirstFit => Some(4.0),
            Algorithm::ThroughputCliqueApprox => Some(4.0),
            Algorithm::ThroughputGreedy => None,
        }
    }

    /// The instance class the algorithm requires, as prose (used in skip reasons).
    pub fn required_class(self) -> &'static str {
        match self {
            Algorithm::OneSided | Algorithm::ThroughputOneSided => "one-sided clique",
            Algorithm::ProperCliqueDp
            | Algorithm::ThroughputProperCliqueDp
            | Algorithm::WeightedParetoDp => "proper clique",
            Algorithm::CliqueMatching => "clique with g = 2",
            Algorithm::CliqueSetCover | Algorithm::ThroughputCliqueApprox => "clique",
            Algorithm::BestCut => "proper",
            Algorithm::FirstFit
            | Algorithm::ThroughputGreedy
            | Algorithm::ExactSubsetDp
            | Algorithm::ExactBnB => "any",
        }
    }

    /// The equivalent [`MinBusyAlgorithm`], when this is a MinBusy algorithm.
    pub fn as_minbusy(self) -> Option<MinBusyAlgorithm> {
        match self {
            Algorithm::OneSided => Some(MinBusyAlgorithm::OneSided),
            Algorithm::ProperCliqueDp => Some(MinBusyAlgorithm::ProperCliqueDp),
            Algorithm::CliqueMatching => Some(MinBusyAlgorithm::CliqueMatching),
            Algorithm::CliqueSetCover => Some(MinBusyAlgorithm::CliqueSetCover),
            Algorithm::BestCut => Some(MinBusyAlgorithm::BestCut),
            Algorithm::FirstFit => Some(MinBusyAlgorithm::FirstFit),
            _ => None,
        }
    }

    /// The equivalent [`MaxThroughputAlgorithm`], when this is a MaxThroughput
    /// algorithm.
    pub fn as_maxthroughput(self) -> Option<MaxThroughputAlgorithm> {
        match self {
            Algorithm::ThroughputOneSided => Some(MaxThroughputAlgorithm::OneSided),
            Algorithm::ThroughputProperCliqueDp => Some(MaxThroughputAlgorithm::ProperCliqueDp),
            Algorithm::ThroughputCliqueApprox => Some(MaxThroughputAlgorithm::CliqueApprox),
            Algorithm::ThroughputGreedy => Some(MaxThroughputAlgorithm::GreedyFallback),
            _ => None,
        }
    }

    /// Every algorithm of every problem kind, in dispatch order, plus the exponential
    /// exact backends (which are never auto-dispatch candidates but can be forced by
    /// name through an installed [`ExactOracle`]).
    pub fn all() -> impl Iterator<Item = Algorithm> {
        [
            ProblemKind::MinBusy,
            ProblemKind::MaxThroughput,
            ProblemKind::WeightedThroughput,
        ]
        .into_iter()
        .flat_map(|kind| Algorithm::candidates(kind).iter().copied())
        .chain([Algorithm::ExactSubsetDp, Algorithm::ExactBnB])
    }

    /// Parse the CLI spelling of an algorithm name (kebab-case, as printed by
    /// [`Algorithm::name`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        Algorithm::all().find(|a| a.name() == text).ok_or_else(|| {
            let names: Vec<&str> = Algorithm::all().map(|a| a.name()).collect();
            format!(
                "unknown algorithm '{text}' (expected one of: {})",
                names.join(", ")
            )
        })
    }

    /// The stable kebab-case name (CLI flag values, report columns).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::OneSided => "one-sided",
            Algorithm::ProperCliqueDp => "proper-clique-dp",
            Algorithm::CliqueMatching => "clique-matching",
            Algorithm::CliqueSetCover => "clique-set-cover",
            Algorithm::BestCut => "best-cut",
            Algorithm::FirstFit => "first-fit",
            Algorithm::ThroughputOneSided => "throughput-one-sided",
            Algorithm::ThroughputProperCliqueDp => "throughput-proper-clique-dp",
            Algorithm::ThroughputCliqueApprox => "throughput-clique-approx",
            Algorithm::ThroughputGreedy => "throughput-greedy",
            Algorithm::WeightedParetoDp => "weighted-pareto-dp",
            Algorithm::ExactSubsetDp => "exact-subset-dp",
            Algorithm::ExactBnB => "exact-bnb",
        }
    }
}

impl From<MinBusyAlgorithm> for Algorithm {
    fn from(a: MinBusyAlgorithm) -> Self {
        match a {
            MinBusyAlgorithm::OneSided => Algorithm::OneSided,
            MinBusyAlgorithm::ProperCliqueDp => Algorithm::ProperCliqueDp,
            MinBusyAlgorithm::CliqueMatching => Algorithm::CliqueMatching,
            MinBusyAlgorithm::CliqueSetCover => Algorithm::CliqueSetCover,
            MinBusyAlgorithm::BestCut => Algorithm::BestCut,
            MinBusyAlgorithm::FirstFit => Algorithm::FirstFit,
        }
    }
}

impl From<MaxThroughputAlgorithm> for Algorithm {
    fn from(a: MaxThroughputAlgorithm) -> Self {
        match a {
            MaxThroughputAlgorithm::OneSided => Algorithm::ThroughputOneSided,
            MaxThroughputAlgorithm::ProperCliqueDp => Algorithm::ThroughputProperCliqueDp,
            MaxThroughputAlgorithm::CliqueApprox => Algorithm::ThroughputCliqueApprox,
            MaxThroughputAlgorithm::GreedyFallback => Algorithm::ThroughputGreedy,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Exploration budget for the exponential exact backends.
///
/// The node cap is the primary, deterministic cutoff; the optional wall-clock cap is
/// off by default because time limits make test runs irreproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactBudget {
    /// Maximum branch-and-bound nodes to explore before giving up with a bound pair.
    pub max_nodes: u64,
    /// Optional wall-clock cutoff in milliseconds (`None` = unlimited).
    pub max_millis: Option<u64>,
}

impl Default for ExactBudget {
    fn default() -> Self {
        ExactBudget {
            max_nodes: 2_000_000,
            max_millis: None,
        }
    }
}

/// Which exponential exact backend an [`ExactOracle`] runs for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactBackend {
    /// The `O(3^n)` subset DP ([`Algorithm::ExactSubsetDp`]).
    SubsetDp,
    /// Branch-and-bound over job→machine assignments ([`Algorithm::ExactBnB`]).
    BranchAndBound,
}

impl ExactBackend {
    /// The facade [`Algorithm`] this backend reports as.
    pub fn algorithm(self) -> Algorithm {
        match self {
            ExactBackend::SubsetDp => Algorithm::ExactSubsetDp,
            ExactBackend::BranchAndBound => Algorithm::ExactBnB,
        }
    }
}

/// What an exact MinBusy solve produced.
#[derive(Debug, Clone)]
pub enum ExactOutcome {
    /// The backend proved optimality.
    Optimal {
        /// An optimal schedule.
        schedule: Schedule,
        /// Its busy time (the optimum).
        cost: Duration,
        /// Search nodes explored (0 for the DP).
        nodes: u64,
    },
    /// The backend ran out of budget; the bound pair brackets the optimum.
    Exhausted {
        /// The best schedule found so far (its cost is `upper`).
        incumbent: Schedule,
        /// Proven lower bound: `lower ≤ OPT`.
        lower: Duration,
        /// Incumbent cost: `OPT ≤ upper`.
        upper: Duration,
        /// Search nodes explored before exhaustion.
        nodes: u64,
    },
}

/// A pluggable exponential exact MinBusy solver.
///
/// The core crate cannot depend on `busytime-exact` (the dependency points the other
/// way), so the exponential backends plug in through this trait: `busytime-exact`
/// implements it, and the CLI / bench / test layers install it with
/// [`SolverBuilder::exact_oracle`].  Without an installed oracle, `require_exact` on a
/// general instance still exhausts exactly as before.
pub trait ExactOracle: Send + Sync {
    /// Largest job count routed to the subset DP (instances above it get B&B).
    fn dp_ceiling(&self) -> usize;

    /// Which backend the oracle would run on `instance` (by default: DP up to
    /// [`ExactOracle::dp_ceiling`] jobs, branch-and-bound above).
    fn backend_for(&self, instance: &Instance) -> ExactBackend {
        if instance.len() <= self.dp_ceiling() {
            ExactBackend::SubsetDp
        } else {
            ExactBackend::BranchAndBound
        }
    }

    /// Solve MinBusy exactly with `backend` under `budget`.
    ///
    /// Errors are reserved for instances the backend cannot attempt at all (e.g. the
    /// DP forced above its ceiling); running out of budget is **not** an error — it is
    /// [`ExactOutcome::Exhausted`], which still carries a sound `lower ≤ OPT ≤ upper`
    /// pair.
    fn solve_min_busy(
        &self,
        instance: &Instance,
        budget: &ExactBudget,
        backend: ExactBackend,
    ) -> Result<ExactOutcome, Error>;
}

/// The dispatch policy a [`Solver`] applies; built with [`SolverBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolvePolicy {
    /// Run exactly this algorithm instead of auto-dispatching.
    pub force: Option<Algorithm>,
    /// Only accept algorithms that are optimal on their instance class.
    pub require_exact: bool,
    /// Candidate-family limit for the set-cover algorithm (Lemma 3.2).
    pub set_family_limit: usize,
    /// Node/time budget for the exponential exact backends (see [`ExactOracle`]).
    pub exact_budget: ExactBudget,
}

impl Default for SolvePolicy {
    fn default() -> Self {
        SolvePolicy {
            force: None,
            require_exact: false,
            set_family_limit: DEFAULT_SET_FAMILY_LIMIT,
            exact_budget: ExactBudget::default(),
        }
    }
}

/// Builder for a [`Solver`].
#[derive(Clone, Default)]
pub struct SolverBuilder {
    policy: SolvePolicy,
    oracle: Option<Arc<dyn ExactOracle>>,
}

impl fmt::Debug for SolverBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverBuilder")
            .field("policy", &self.policy)
            .field("oracle", &self.oracle.as_ref().map(|_| "<installed>"))
            .finish()
    }
}

impl SolverBuilder {
    /// Start from the default policy (auto-dispatch).
    pub fn new() -> Self {
        SolverBuilder::default()
    }

    /// Run exactly `algorithm` instead of auto-dispatching; an inapplicable choice
    /// makes [`Solver::solve`] return a typed error instead of falling through.
    pub fn force_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.policy.force = Some(algorithm);
        self
    }

    /// Only accept provably optimal algorithms; instances outside every exact class
    /// make [`Solver::solve`] return [`SolveError::Exhausted`].
    pub fn require_exact(mut self, yes: bool) -> Self {
        self.policy.require_exact = yes;
        self
    }

    /// Cap the candidate-set family the Lemma 3.2 set-cover algorithm may enumerate.
    pub fn set_family_limit(mut self, limit: usize) -> Self {
        self.policy.set_family_limit = limit;
        self
    }

    /// Install an exponential exact oracle (implemented by the `busytime-exact`
    /// crate).  Under `require_exact`, a MinBusy instance outside every polynomial
    /// exact class then routes to the oracle — subset DP up to its ceiling,
    /// branch-and-bound above — instead of exhausting.
    pub fn exact_oracle(mut self, oracle: Arc<dyn ExactOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Cap the exploration budget of the exact backends.
    pub fn exact_budget(mut self, budget: ExactBudget) -> Self {
        self.policy.exact_budget = budget;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Solver {
        Solver {
            policy: self.policy,
            oracle: self.oracle,
        }
    }
}

/// The unified solver: dispatches any [`Problem`] to the strongest applicable algorithm
/// under its [`SolvePolicy`].
#[derive(Clone, Default)]
pub struct Solver {
    policy: SolvePolicy,
    oracle: Option<Arc<dyn ExactOracle>>,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("policy", &self.policy)
            .field("oracle", &self.oracle.as_ref().map(|_| "<installed>"))
            .finish()
    }
}

impl Solver {
    /// A solver with the default policy (equivalent to the old `solve_auto` dispatch).
    pub fn new() -> Self {
        Solver::default()
    }

    /// Start building a solver with a custom policy.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
    }

    /// The policy this solver applies.
    pub fn policy(&self) -> &SolvePolicy {
        &self.policy
    }

    /// Solve one request.
    pub fn solve(&self, problem: &Problem) -> Result<Solution, SolveError> {
        if let Problem::WeightedThroughput {
            instance, profits, ..
        } = problem
        {
            if profits.len() != instance.len() {
                return Err(SolveError::InvalidProfits {
                    expected: instance.len(),
                    actual: profits.len(),
                });
            }
        }
        let kind = problem.kind();
        let instance = problem.instance();
        if let Some(forced) = self.policy.force {
            return self.solve_forced(forced, kind, problem, instance);
        }

        let class = instance.classification();
        let mut trace = Vec::new();
        for &algorithm in Algorithm::candidates(kind) {
            if self.policy.require_exact && !algorithm.is_exact() {
                trace.push(DispatchAttempt::skipped(algorithm, SkipReason::NotExact));
                continue;
            }
            if let Some(reason) = applicability_gap(algorithm, &class, instance) {
                trace.push(DispatchAttempt::skipped(algorithm, reason));
                continue;
            }
            match self.run(algorithm, problem) {
                Ok((schedule, objective)) => {
                    trace.push(DispatchAttempt::selected(algorithm));
                    return Ok(self.finish(algorithm, schedule, objective, instance, trace));
                }
                Err(error) => {
                    trace.push(DispatchAttempt::failed(algorithm, error));
                }
            }
        }
        // Every polynomial candidate is gone.  Under `require_exact` a MinBusy request
        // gets one last resort: the exponential exact oracle, when one is installed.
        if kind == ProblemKind::MinBusy && self.policy.require_exact {
            if let Some(result) = self.try_exact_oracle(instance, &mut trace) {
                return result;
            }
        }
        Err(SolveError::Exhausted { kind, trace })
    }

    /// Run the exact oracle after the polynomial candidates exhausted.  `None` means
    /// nothing ran (no oracle, or a backend error) — the trace records why and the
    /// caller falls through to [`SolveError::Exhausted`].
    fn try_exact_oracle(
        &self,
        instance: &Instance,
        trace: &mut Vec<DispatchAttempt>,
    ) -> Option<Result<Solution, SolveError>> {
        let Some(oracle) = &self.oracle else {
            for algorithm in [Algorithm::ExactSubsetDp, Algorithm::ExactBnB] {
                trace.push(DispatchAttempt::skipped(
                    algorithm,
                    SkipReason::NoExactOracle,
                ));
            }
            return None;
        };
        let limit = oracle.dp_ceiling();
        let backend = oracle.backend_for(instance);
        // The trace names both backends: the one the routing rejected (with the
        // ceiling that decided it) and the one that ran.
        let (chosen, other, routing) = match backend {
            ExactBackend::SubsetDp => (
                Algorithm::ExactSubsetDp,
                Algorithm::ExactBnB,
                SkipReason::DpPreferred { limit },
            ),
            ExactBackend::BranchAndBound => (
                Algorithm::ExactBnB,
                Algorithm::ExactSubsetDp,
                SkipReason::AboveDpCeiling { limit },
            ),
        };
        trace.push(DispatchAttempt::skipped(other, routing));
        match oracle.solve_min_busy(instance, &self.policy.exact_budget, backend) {
            Ok(ExactOutcome::Optimal { schedule, cost, .. }) => {
                trace.push(DispatchAttempt::selected(chosen));
                let trace = std::mem::take(trace);
                Some(Ok(self.finish(
                    chosen,
                    schedule,
                    Objective::BusyTime(cost),
                    instance,
                    trace,
                )))
            }
            Ok(ExactOutcome::Exhausted {
                lower,
                upper,
                nodes,
                ..
            }) => Some(Err(SolveError::BudgetExhausted {
                algorithm: chosen,
                lower,
                upper,
                nodes,
            })),
            Err(error) => {
                trace.push(DispatchAttempt::failed(chosen, error));
                None
            }
        }
    }

    /// Solve many requests concurrently; results come back in request order.
    ///
    /// The requests fan out over the work-stealing [`crate::par::ThreadPool`] (sized by
    /// [`crate::par::default_threads`], i.e. every core unless pinned by
    /// [`crate::par::set_default_threads`] or the CLI's `--threads`).  Each request is
    /// solved independently, so the results are identical to calling
    /// [`Solver::solve`] in a loop.
    pub fn solve_batch(&self, problems: &[Problem]) -> Vec<Result<Solution, SolveError>> {
        crate::par::ThreadPool::with_default_parallelism().map(problems, |p| self.solve(p))
    }

    /// Replay an online event [`crate::online::Trace`] under `policy`, returning the
    /// per-event cost trajectory and the final live schedule.
    ///
    /// Online requests bypass the offline dispatch machinery — the paper analyses no
    /// online algorithm, so there is nothing to classify or force; the policy *is* the
    /// algorithm.  The dispatch-policy knobs of [`SolvePolicy`] (force /
    /// require-exact) therefore do not apply here.
    ///
    /// ```
    /// use busytime::online::{Event, OnlinePolicy, Trace};
    /// use busytime::{Interval, Solver};
    ///
    /// let trace = Trace::new(
    ///     2,
    ///     vec![
    ///         Event::arrival(1, Interval::from_ticks(0, 10)),
    ///         Event::arrival(2, Interval::from_ticks(4, 12)),
    ///         Event::departure(1),
    ///     ],
    /// );
    /// let run = Solver::new().solve_online(&trace, OnlinePolicy::FirstFit).unwrap();
    /// assert_eq!(run.trajectory.len(), 3);
    /// assert_eq!(run.final_cost().ticks(), 8);
    /// ```
    pub fn solve_online(
        &self,
        trace: &crate::online::Trace,
        policy: crate::online::OnlinePolicy,
    ) -> Result<crate::online::OnlineRun, crate::online::OnlineError> {
        crate::online::OnlineScheduler::run(trace, policy)
    }

    /// Convenience: solve MinBusy for `instance` without building a [`Problem`].
    pub fn solve_min_busy(&self, instance: &Instance) -> Result<Solution, SolveError> {
        // Cloning the instance keeps the request self-contained; jobs are plain
        // intervals, so this is a cheap memcpy-style copy.
        self.solve(&Problem::min_busy(instance.clone()))
    }

    /// Convenience: solve MaxThroughput for `instance` under `budget`.
    pub fn solve_max_throughput(
        &self,
        instance: &Instance,
        budget: Duration,
    ) -> Result<Solution, SolveError> {
        self.solve(&Problem::max_throughput(instance.clone(), budget))
    }

    fn solve_forced(
        &self,
        forced: Algorithm,
        kind: ProblemKind,
        problem: &Problem,
        instance: &Instance,
    ) -> Result<Solution, SolveError> {
        if forced.problem_kind() != kind {
            return Err(SolveError::ForcedWrongProblem {
                algorithm: forced,
                kind,
            });
        }
        if self.policy.require_exact && !forced.is_exact() {
            return Err(SolveError::ForcedInexact { algorithm: forced });
        }
        if forced.is_exact_oracle() {
            return self.solve_forced_exact(forced, instance);
        }
        match self.run(forced, problem) {
            Ok((schedule, objective)) => {
                let trace = vec![DispatchAttempt::selected(forced)];
                Ok(self.finish(forced, schedule, objective, instance, trace))
            }
            Err(error) => Err(SolveError::ForcedFailed {
                algorithm: forced,
                error,
            }),
        }
    }

    /// Run a forced exponential exact backend through the installed oracle.  Forcing
    /// here bypasses the DP/B&B routing — the caller names the backend, and the
    /// oracle reports (for instance) a DP forced above its ceiling as a typed error.
    fn solve_forced_exact(
        &self,
        forced: Algorithm,
        instance: &Instance,
    ) -> Result<Solution, SolveError> {
        let Some(oracle) = &self.oracle else {
            return Err(SolveError::NoExactOracle { algorithm: forced });
        };
        let backend = match forced {
            Algorithm::ExactSubsetDp => ExactBackend::SubsetDp,
            _ => ExactBackend::BranchAndBound,
        };
        match oracle.solve_min_busy(instance, &self.policy.exact_budget, backend) {
            Ok(ExactOutcome::Optimal { schedule, cost, .. }) => {
                let trace = vec![DispatchAttempt::selected(forced)];
                Ok(self.finish(forced, schedule, Objective::BusyTime(cost), instance, trace))
            }
            Ok(ExactOutcome::Exhausted {
                lower,
                upper,
                nodes,
                ..
            }) => Err(SolveError::BudgetExhausted {
                algorithm: forced,
                lower,
                upper,
                nodes,
            }),
            Err(error) => Err(SolveError::ForcedFailed {
                algorithm: forced,
                error,
            }),
        }
    }

    /// Run one algorithm on one problem, translating its native result into the
    /// facade's `(schedule, objective)` pair.
    fn run(&self, algorithm: Algorithm, problem: &Problem) -> Result<(Schedule, Objective), Error> {
        let instance = problem.instance();
        match (algorithm, problem) {
            (Algorithm::OneSided, Problem::MinBusy { .. }) => {
                minbusy::one_sided_optimal(instance).map(|s| pair_min_busy(s, instance))
            }
            (Algorithm::ProperCliqueDp, Problem::MinBusy { .. }) => {
                minbusy::find_best_consecutive(instance).map(|s| pair_min_busy(s, instance))
            }
            (Algorithm::CliqueMatching, Problem::MinBusy { .. }) => {
                minbusy::clique_matching(instance).map(|s| pair_min_busy(s, instance))
            }
            (Algorithm::CliqueSetCover, Problem::MinBusy { .. }) => {
                minbusy::clique_set_cover_with_limit(instance, self.policy.set_family_limit)
                    .map(|s| pair_min_busy(s, instance))
            }
            (Algorithm::BestCut, Problem::MinBusy { .. }) => {
                minbusy::best_cut(instance).map(|s| pair_min_busy(s, instance))
            }
            (Algorithm::FirstFit, Problem::MinBusy { .. }) => {
                Ok(pair_min_busy(minbusy::first_fit(instance), instance))
            }
            (Algorithm::ThroughputOneSided, Problem::MaxThroughput { budget, .. }) => {
                maxthroughput::one_sided_max_throughput(instance, *budget).map(pair_throughput)
            }
            (Algorithm::ThroughputProperCliqueDp, Problem::MaxThroughput { budget, .. }) => {
                maxthroughput::most_throughput_consecutive_fast(instance, *budget)
                    .map(pair_throughput)
            }
            (Algorithm::ThroughputCliqueApprox, Problem::MaxThroughput { budget, .. }) => {
                maxthroughput::clique_max_throughput(instance, *budget).map(pair_throughput)
            }
            (Algorithm::ThroughputGreedy, Problem::MaxThroughput { budget, .. }) => Ok(
                pair_throughput(maxthroughput::greedy_fallback(instance, *budget)),
            ),
            (
                Algorithm::WeightedParetoDp,
                Problem::WeightedThroughput {
                    budget, profits, ..
                },
            ) => maxthroughput::weighted_throughput_proper_clique(instance, profits, *budget).map(
                |r| {
                    let scheduled = r.schedule.throughput();
                    (
                        r.schedule,
                        Objective::Profit {
                            profit: r.profit,
                            scheduled,
                            cost: r.cost,
                        },
                    )
                },
            ),
            // `solve` only pairs algorithms with their own problem kind.
            _ => unreachable!("algorithm {algorithm} dispatched against the wrong problem kind"),
        }
    }

    fn finish(
        &self,
        algorithm: Algorithm,
        schedule: Schedule,
        objective: Objective,
        instance: &Instance,
        trace: Vec<DispatchAttempt>,
    ) -> Solution {
        Solution {
            schedule,
            objective,
            algorithm,
            guarantee: algorithm.guarantee(instance.capacity()),
            bounds: InstanceBounds::of(instance),
            trace,
        }
    }
}

/// Why `algorithm` cannot run on an instance with classification `class`, or `None`
/// when it can (`class` is computed once per solve and shared across candidates).
fn applicability_gap(
    algorithm: Algorithm,
    class: &busytime_interval::Classification,
    instance: &Instance,
) -> Option<SkipReason> {
    let applies = match algorithm {
        Algorithm::OneSided | Algorithm::ThroughputOneSided => class.clique && class.one_sided,
        Algorithm::ProperCliqueDp
        | Algorithm::ThroughputProperCliqueDp
        | Algorithm::WeightedParetoDp => class.clique && class.proper,
        Algorithm::CliqueMatching => class.clique && instance.capacity() == 2,
        Algorithm::CliqueSetCover | Algorithm::ThroughputCliqueApprox => class.clique,
        Algorithm::BestCut => class.proper,
        Algorithm::FirstFit | Algorithm::ThroughputGreedy => true,
        // The exponential backends apply to any instance, but they are never in the
        // candidate list — they route through `try_exact_oracle` instead.
        Algorithm::ExactSubsetDp | Algorithm::ExactBnB => true,
    };
    if applies {
        None
    } else {
        Some(SkipReason::ClassMismatch {
            required: algorithm.required_class(),
        })
    }
}

fn pair_min_busy(schedule: Schedule, instance: &Instance) -> (Schedule, Objective) {
    let cost = schedule.cost(instance);
    (schedule, Objective::BusyTime(cost))
}

fn pair_throughput(result: crate::schedule::ThroughputResult) -> (Schedule, Objective) {
    (
        result.schedule,
        Objective::Throughput {
            scheduled: result.throughput,
            cost: result.cost,
        },
    )
}

/// The objective value a [`Solution`] achieves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// MinBusy: total busy time of the complete schedule.
    BusyTime(Duration),
    /// MaxThroughput: scheduled job count and the busy time spent.
    Throughput {
        /// Number of scheduled jobs.
        scheduled: usize,
        /// Total busy time (within the budget).
        cost: Duration,
    },
    /// Weighted throughput: collected profit, job count and busy time spent.
    Profit {
        /// Total profit of the scheduled jobs.
        profit: i64,
        /// Number of scheduled jobs.
        scheduled: usize,
        /// Total busy time (within the budget).
        cost: Duration,
    },
}

impl Objective {
    /// The total busy time of the schedule, whatever the objective.
    pub fn cost(&self) -> Duration {
        match self {
            Objective::BusyTime(cost)
            | Objective::Throughput { cost, .. }
            | Objective::Profit { cost, .. } => *cost,
        }
    }

    /// The number of scheduled jobs, when the objective tracks it (`None` for MinBusy,
    /// where every job is scheduled by definition).
    pub fn scheduled(&self) -> Option<usize> {
        match self {
            Objective::BusyTime(_) => None,
            Objective::Throughput { scheduled, .. } | Objective::Profit { scheduled, .. } => {
                Some(*scheduled)
            }
        }
    }
}

/// The Observation 2.1 bounds of an instance, reported with every solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceBounds {
    /// The parallelism bound `⌈len(J)/g⌉`.
    pub parallelism: Duration,
    /// The span bound `span(J)`.
    pub span: Duration,
    /// The combined lower bound `max(parallelism, span)`.
    pub lower: Duration,
    /// The length (naive upper) bound `len(J)`.
    pub length: Duration,
}

impl InstanceBounds {
    /// Compute the bounds for an instance.
    pub fn of(instance: &Instance) -> Self {
        InstanceBounds {
            parallelism: bounds::parallelism_bound(instance),
            span: bounds::span_bound(instance),
            lower: bounds::lower_bound(instance),
            length: bounds::length_bound(instance),
        }
    }
}

/// One entry of a solution's dispatch trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchAttempt {
    /// The algorithm considered.
    pub algorithm: Algorithm,
    /// What happened to it.
    pub outcome: AttemptOutcome,
}

impl DispatchAttempt {
    fn selected(algorithm: Algorithm) -> Self {
        DispatchAttempt {
            algorithm,
            outcome: AttemptOutcome::Selected,
        }
    }

    fn skipped(algorithm: Algorithm, reason: SkipReason) -> Self {
        DispatchAttempt {
            algorithm,
            outcome: AttemptOutcome::Skipped(reason),
        }
    }

    fn failed(algorithm: Algorithm, error: Error) -> Self {
        DispatchAttempt {
            algorithm,
            outcome: AttemptOutcome::Failed(error),
        }
    }
}

impl fmt::Display for DispatchAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.algorithm, self.outcome)
    }
}

/// The outcome of one dispatch attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The algorithm ran and produced the solution.
    Selected,
    /// The algorithm was not run, for the recorded reason.
    Skipped(SkipReason),
    /// The algorithm ran and returned an error (recorded, then dispatch continued).
    Failed(Error),
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptOutcome::Selected => write!(f, "selected"),
            AttemptOutcome::Skipped(reason) => write!(f, "skipped ({reason})"),
            AttemptOutcome::Failed(error) => write!(f, "failed ({error})"),
        }
    }
}

/// Why an algorithm was skipped during dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The policy requires exact algorithms and this one is approximate.
    NotExact,
    /// The instance is outside the algorithm's class.
    ClassMismatch {
        /// The class the algorithm requires.
        required: &'static str,
    },
    /// The exponential exact backends cannot run: no [`ExactOracle`] is installed.
    NoExactOracle,
    /// The oracle routed the instance to the subset DP (it fits the ceiling), so
    /// branch-and-bound was not needed.
    DpPreferred {
        /// The oracle's DP job-count ceiling.
        limit: usize,
    },
    /// The instance exceeds the subset-DP ceiling, so the oracle ran branch-and-bound.
    AboveDpCeiling {
        /// The oracle's DP job-count ceiling.
        limit: usize,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::NotExact => write!(f, "not exact, but the policy requires exactness"),
            SkipReason::ClassMismatch { required } => {
                write!(f, "instance is not {required}")
            }
            SkipReason::NoExactOracle => write!(f, "no exact oracle installed"),
            SkipReason::DpPreferred { limit } => {
                write!(f, "instance fits the subset-DP ceiling of {limit} jobs")
            }
            SkipReason::AboveDpCeiling { limit } => {
                write!(f, "instance exceeds the subset-DP ceiling of {limit} jobs")
            }
        }
    }
}

/// A solved request.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The (complete or partial) schedule.
    pub schedule: Schedule,
    /// The objective value achieved.
    pub objective: Objective,
    /// The algorithm that produced the schedule.
    pub algorithm: Algorithm,
    /// The algorithm's proven guarantee for this instance's capacity (`None` for the
    /// unanalysed greedy fallback).
    pub guarantee: Option<f64>,
    /// The Observation 2.1 bounds of the instance.
    pub bounds: InstanceBounds,
    /// Every algorithm considered during dispatch, in order, with its outcome; the last
    /// entry is always the selected one.
    pub trace: Vec<DispatchAttempt>,
}

impl Solution {
    /// `true` when the schedule is provably optimal on this instance.
    pub fn is_exact(&self) -> bool {
        self.algorithm.is_exact()
    }

    /// The dispatch trace rendered one attempt per line (diagnostics, verbose CLI).
    pub fn trace_report(&self) -> String {
        self.trace
            .iter()
            .map(DispatchAttempt::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A typed dispatch failure (replaces the silently swallowed errors of the old
/// per-module `solve_auto` entry points).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A forced algorithm solves a different problem kind than the request.
    ForcedWrongProblem {
        /// The forced algorithm.
        algorithm: Algorithm,
        /// The kind of the request.
        kind: ProblemKind,
    },
    /// A forced algorithm is approximate but the policy requires exactness.
    ForcedInexact {
        /// The forced algorithm.
        algorithm: Algorithm,
    },
    /// A forced algorithm ran and rejected the instance.
    ForcedFailed {
        /// The forced algorithm.
        algorithm: Algorithm,
        /// The error it returned.
        error: Error,
    },
    /// No candidate produced a solution under the policy; the trace records why each
    /// was skipped or failed.
    Exhausted {
        /// The kind of the request.
        kind: ProblemKind,
        /// The full dispatch trace.
        trace: Vec<DispatchAttempt>,
    },
    /// A weighted-throughput request whose profit vector does not match the instance.
    InvalidProfits {
        /// The instance's job count.
        expected: usize,
        /// The profit vector's length.
        actual: usize,
    },
    /// An exponential exact algorithm was forced, but no [`ExactOracle`] is installed.
    NoExactOracle {
        /// The forced algorithm.
        algorithm: Algorithm,
    },
    /// The exact backend ran out of budget before proving optimality.  The bound pair
    /// is still sound: `lower ≤ OPT ≤ upper`.
    BudgetExhausted {
        /// The backend that ran.
        algorithm: Algorithm,
        /// Proven lower bound on the optimum.
        lower: Duration,
        /// Cost of the best incumbent schedule found (a valid upper bound).
        upper: Duration,
        /// Search nodes explored before exhaustion.
        nodes: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::ForcedWrongProblem { algorithm, kind } => write!(
                f,
                "algorithm {algorithm} solves {} problems, not {kind}",
                algorithm.problem_kind()
            ),
            SolveError::ForcedInexact { algorithm } => write!(
                f,
                "algorithm {algorithm} is approximate but the policy requires exact solutions"
            ),
            SolveError::ForcedFailed { algorithm, error } => {
                write!(f, "forced algorithm {algorithm} failed: {error}")
            }
            SolveError::Exhausted { kind, trace } => {
                write!(f, "no {kind} algorithm applies under the policy (")?;
                for (i, attempt) in trace.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{attempt}")?;
                }
                write!(f, ")")
            }
            SolveError::InvalidProfits { expected, actual } => write!(
                f,
                "weighted throughput needs one profit per job ({expected}), got {actual}"
            ),
            SolveError::NoExactOracle { algorithm } => write!(
                f,
                "algorithm {algorithm} needs an exact oracle, but none is installed \
                 (install one with SolverBuilder::exact_oracle)"
            ),
            SolveError::BudgetExhausted {
                algorithm,
                lower,
                upper,
                nodes,
            } => write!(
                f,
                "{algorithm} exhausted its budget after {nodes} nodes; \
                 proven bounds {lower} <= OPT <= {upper}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn proper_clique() -> Instance {
        Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (6, 16)], 2)
    }

    fn general() -> Instance {
        Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2)
    }

    #[test]
    fn default_dispatch_matches_solve_auto() {
        let instances = [
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            proper_clique(),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18), (7, 9)], 3),
            Instance::from_ticks(&[(0, 4), (3, 7), (6, 10), (9, 13)], 2),
            general(),
            Instance::from_ticks(&[], 2),
        ];
        let solver = Solver::new();
        for inst in &instances {
            let (schedule, algo) = minbusy::solve_auto(inst);
            let solution = solver.solve_min_busy(inst).unwrap();
            assert_eq!(solution.algorithm, Algorithm::from(algo));
            assert_eq!(solution.objective.cost(), schedule.cost(inst));
            solution.schedule.validate_complete(inst).unwrap();
            for budget in [0i64, 7, 20, 1_000] {
                let budget = Duration::new(budget);
                let (result, talgo) = maxthroughput::solve_auto(inst, budget);
                let budgeted = solver.solve_max_throughput(inst, budget).unwrap();
                assert_eq!(budgeted.algorithm, Algorithm::from(talgo));
                assert_eq!(budgeted.objective.scheduled(), Some(result.throughput));
                budgeted.schedule.validate_budgeted(inst, budget).unwrap();
            }
        }
    }

    #[test]
    fn trace_records_skips_and_selection() {
        let solution = Solver::new().solve_min_busy(&general()).unwrap();
        assert_eq!(solution.algorithm, Algorithm::FirstFit);
        // Every stronger algorithm must appear in the trace with a class mismatch.
        assert_eq!(solution.trace.len(), 6);
        for attempt in &solution.trace[..5] {
            assert!(
                matches!(
                    attempt.outcome,
                    AttemptOutcome::Skipped(SkipReason::ClassMismatch { .. })
                ),
                "{attempt}"
            );
        }
        assert_eq!(solution.trace[5].outcome, AttemptOutcome::Selected);
        assert!(solution.trace_report().contains("first-fit: selected"));
    }

    #[test]
    fn set_cover_failure_is_recorded_not_swallowed() {
        // A clique (not proper, g = 3) whose candidate family exceeds a tiny limit:
        // dispatch must record the failure and continue to the fallback.
        let inst = Instance::from_ticks(&[(0, 20), (5, 10), (6, 18), (7, 9)], 3);
        let solver = Solver::builder().set_family_limit(2).build();
        let solution = solver.solve_min_busy(&inst).unwrap();
        assert_eq!(solution.algorithm, Algorithm::FirstFit);
        assert!(solution.trace.iter().any(|a| {
            a.algorithm == Algorithm::CliqueSetCover
                && matches!(
                    a.outcome,
                    AttemptOutcome::Failed(Error::SetFamilyTooLarge { .. })
                )
        }));
    }

    #[test]
    fn forcing_inapplicable_algorithm_is_a_typed_error() {
        let solver = Solver::builder()
            .force_algorithm(Algorithm::CliqueMatching)
            .build();
        let err = solver.solve_min_busy(&general()).unwrap_err();
        assert_eq!(
            err,
            SolveError::ForcedFailed {
                algorithm: Algorithm::CliqueMatching,
                error: Error::NotClique
            }
        );
    }

    #[test]
    fn forcing_wrong_problem_kind_is_rejected() {
        let solver = Solver::builder()
            .force_algorithm(Algorithm::BestCut)
            .build();
        let err = solver
            .solve(&Problem::max_throughput(proper_clique(), Duration::new(10)))
            .unwrap_err();
        assert!(matches!(err, SolveError::ForcedWrongProblem { .. }));
        assert!(err.to_string().contains("MinBusy"));
    }

    #[test]
    fn require_exact_rejects_general_instances() {
        let solver = Solver::builder().require_exact(true).build();
        let solution = solver.solve_min_busy(&proper_clique()).unwrap();
        assert!(solution.is_exact());
        let err = solver.solve_min_busy(&general()).unwrap_err();
        match err {
            SolveError::Exhausted { kind, trace } => {
                assert_eq!(kind, ProblemKind::MinBusy);
                // 6 polynomial candidates + the two exponential backends, which are
                // skipped because this solver has no exact oracle installed.
                assert_eq!(trace.len(), 8, "every candidate must be accounted for");
                for attempt in &trace[6..] {
                    assert_eq!(
                        attempt.outcome,
                        AttemptOutcome::Skipped(SkipReason::NoExactOracle)
                    );
                }
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn weighted_throughput_through_the_facade() {
        let inst = proper_clique();
        let profits = vec![5, 1, 1, 7];
        let solution = Solver::new()
            .solve(&Problem::weighted_throughput(
                inst.clone(),
                Duration::new(14),
                profits,
            ))
            .unwrap();
        assert_eq!(solution.algorithm, Algorithm::WeightedParetoDp);
        match solution.objective {
            Objective::Profit { profit, cost, .. } => {
                assert!(profit >= 7);
                assert!(cost <= Duration::new(14));
            }
            other => panic!("expected a profit objective, got {other:?}"),
        }
        let bad = Solver::new()
            .solve(&Problem::weighted_throughput(
                inst,
                Duration::new(14),
                vec![1],
            ))
            .unwrap_err();
        assert_eq!(
            bad,
            SolveError::InvalidProfits {
                expected: 4,
                actual: 1
            }
        );
    }

    #[test]
    fn batch_matches_sequential() {
        let problems: Vec<Problem> = [
            Problem::min_busy(proper_clique()),
            Problem::min_busy(general()),
            Problem::max_throughput(proper_clique(), Duration::new(12)),
            Problem::max_throughput(general(), Duration::new(9)),
        ]
        .into_iter()
        .collect();
        let solver = Solver::new();
        let batch = solver.solve_batch(&problems);
        assert_eq!(batch.len(), problems.len());
        for (problem, result) in problems.iter().zip(&batch) {
            let sequential = solver.solve(problem).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(batched.algorithm, sequential.algorithm);
            assert_eq!(batched.objective, sequential.objective);
        }
    }

    #[test]
    fn conversion_hooks() {
        let demand = DemandInstance::from_ticks(&[(0, 10, 1), (2, 12, 1), (4, 14, 1)], 2);
        let p = Problem::min_busy_from_demand(&demand);
        assert_eq!(p.instance().len(), 3);
        let solution = Solver::new().solve(&p).unwrap();
        // Unit demands: the relaxation is lossless, so the schedule is demand-valid too.
        demand.validate(&solution.schedule, true).unwrap();

        let rects = Instance2d::from_ticks(&[(0, 10, 0, 5), (2, 12, 0, 5)], 2);
        let p2 = Problem::min_busy_from_rects(&rects, 1);
        assert_eq!(p2.instance().len(), 2);
        assert_eq!(p2.instance().capacity(), 2);
        Solver::new()
            .solve(&p2)
            .unwrap()
            .schedule
            .validate_complete(p2.instance())
            .unwrap();
    }

    #[test]
    fn solution_reports_bounds_and_guarantee() {
        let solution = Solver::new().solve_min_busy(&proper_clique()).unwrap();
        assert_eq!(solution.guarantee, Some(1.0));
        assert!(solution.objective.cost() >= solution.bounds.lower);
        assert!(solution.objective.cost() <= solution.bounds.length);
        assert_eq!(
            solution.bounds.lower,
            solution.bounds.parallelism.max(solution.bounds.span)
        );
    }

    #[test]
    fn algorithm_names_round_trip() {
        for kind in [
            ProblemKind::MinBusy,
            ProblemKind::MaxThroughput,
            ProblemKind::WeightedThroughput,
        ] {
            for &algo in Algorithm::candidates(kind) {
                assert_eq!(Algorithm::parse(algo.name()).unwrap(), algo);
                assert_eq!(algo.problem_kind(), kind);
            }
        }
        assert!(Algorithm::parse("bogus").is_err());
    }
}

//! Branch-and-bound exact MinBusy solver ([`branch_and_bound`]): the backend behind
//! [`busytime::Algorithm::ExactBnB`], for instances above the subset-DP ceiling.
//!
//! # Search shape
//!
//! Busy time is additive across connected components of the interval overlap graph
//! (machines never profit from mixing jobs of different components), so the solver
//! decomposes the instance and runs one search per component, sharing a single node
//! budget.  Within a component it branches on jobs in canonical order — earliest start
//! first, ties by longest first — and each node assigns the next job either to one of
//! the machines already opened (one child per *distinct* machine with a free thread)
//! or to exactly one fresh machine.  Opening machines in branch order and deduplicating
//! machines with identical content removes the machine-permutation symmetry without
//! losing any schedule.
//!
//! Because starts are non-decreasing along a branch, the greedy per-thread placement of
//! [`MachineState::first_free_thread`] is a *complete* capacity check: it fails exactly
//! when the job would push some machine past `g` simultaneous jobs (left-endpoint
//! greedy coloring of an interval graph is optimal).
//!
//! # Bound stack
//!
//! * **Warm start** — the incumbent opens as the best of the paper's FirstFit
//!   (canonical longest-first order), FirstFit in branch order, and the component's
//!   share of the schedule the default [`Solver`] dispatch finds for the *whole*
//!   instance, then *polished* by a strictly-improving single-job relocation descent
//!   (`polish`).  Busy time adds up across components, so the upper bound never
//!   exceeds what the dispatcher (clique set cover, BestCut, FirstFit, …) finds for
//!   the instance.  Every new incumbent the search finds is polished the same way: on
//!   instances whose optimum meets the clique relaxation, landing the incumbent on it
//!   ends the search immediately, so incumbent quality is a pruning lever, not
//!   cosmetics.
//! * **Static clique relaxation** — `∫ ⌈depth(t)/g⌉ dt` over the whole component,
//!   the pricing grid's total before any job is placed; no schedule can beat it
//!   (Observation 2.1 generalized pointwise).
//! * **Committed cost** — the sum of the open machines' busy times, maintained
//!   incrementally from [`MachineState::insert`] deltas; machine unions only grow, so
//!   it never decreases along a branch.
//! * **Incremental pricing** — `∫ max(busy(t), ⌈depth(t)/g⌉) dt`, where `busy(t)`
//!   counts machines whose current job union covers `t`: every open machine stays busy
//!   wherever it is busy now, and the unassigned jobs still force `⌈depth/g⌉` machines
//!   pointwise.  This dominates both cheaper bounds.  It lives on a `PricingGrid`
//!   built once per component over the elementary segments between consecutive job
//!   endpoints: each segment keeps its length, its `need = ⌈depth/g⌉` and its `busy`
//!   count, next to the running total `Σ len·max(busy, need)`.  Placing a job raises
//!   `busy` only on the segments its machine did not cover yet, and undoing the
//!   placement lowers them again — O(segments touched), no sort, no allocation.  A
//!   child is priced by a read-only pass over the same segments before anything is
//!   placed, so the children it prunes never touch the machine state.  Touching
//!   intervals add no measure, so the total equals the from-scratch integral exactly.
//!
//! # Budget semantics
//!
//! The node budget ([`busytime::ExactBudget`]) is deterministic; the optional
//! wall-clock cap is for interactive use.  When the budget runs out the search
//! *abandons* the open subtrees but remembers the smallest lower bound among them, so
//! the reported pair stays sound: `lower = max(static, min(upper, abandoned))` per
//! component, summed across components.  Bounds are therefore valid even on
//! exhaustion — `lower ≤ OPT ≤ upper` always holds.

use std::collections::HashMap;
use std::time::Instant;

use busytime::minbusy::{first_fit, first_fit_in_order};
use busytime::{Duration, ExactBudget, ExactOutcome, Instance, MachineState, Schedule, Solver};
use busytime_interval::{union, Interval};

/// Exact MinBusy by branch-and-bound over job→machine assignments.
///
/// Returns [`ExactOutcome::Optimal`] when the search finishes within `budget`, and
/// [`ExactOutcome::Exhausted`] — with a sound `lower ≤ OPT ≤ upper` pair and the best
/// incumbent schedule — when it does not.  Any instance size is accepted; unlike the
/// subset DP there is no hard job-count ceiling, only the budget.
pub fn branch_and_bound(instance: &Instance, budget: &ExactBudget) -> ExactOutcome {
    branch_and_bound_with_visitor(instance, budget, None)
}

/// What the search exposes at every explored node (test hook for bound soundness; the
/// fields are only read by the `cfg(test)` visitors).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct NodeView<'a> {
    /// Busy time already committed to the open machines.
    pub committed: Duration,
    /// The node's lower bound on *any* completion of this partial assignment.
    pub lower: Duration,
    /// Component-local ids of the not-yet-assigned jobs, in branch order.
    pub unassigned: &'a [usize],
    /// Per open machine, its assigned intervals in insertion order.
    pub machines: &'a [Vec<Interval>],
}

/// A per-node callback: `(component instance, node view)`.
pub(crate) type NodeVisitor<'a> = dyn FnMut(&Instance, &NodeView<'_>) + 'a;

/// [`branch_and_bound`] with an optional per-node visitor (used by the bound-soundness
/// proptests to cross-check every explored node against the subset DP).
pub(crate) fn branch_and_bound_with_visitor(
    instance: &Instance,
    budget: &ExactBudget,
    mut visitor: Option<&mut NodeVisitor<'_>>,
) -> ExactOutcome {
    let n = instance.len();
    if n == 0 {
        return ExactOutcome::Optimal {
            schedule: Schedule::empty(0),
            cost: Duration::ZERO,
            nodes: 0,
        };
    }
    let deadline = budget
        .max_millis
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
    let mut nodes = 0u64;
    let mut schedule = Schedule::empty(n);
    let mut total_cost = 0i64;
    let mut total_lower = 0i64;
    let mut all_optimal = true;
    let mut machine_offset = 0usize;
    // The default dispatcher's schedule for the whole instance: its share of each
    // component warm-starts that component's search alongside the local FirstFits.
    let whole = Solver::new()
        .solve_min_busy(instance)
        .expect("the default policy always solves MinBusy")
        .schedule;
    for ids in instance.connected_components() {
        let (comp, mapping) = instance.sub_instance(&ids);
        let induced = induced_schedule(&whole, &mapping);
        let reborrowed: Option<&mut NodeVisitor<'_>> = visitor.as_deref_mut();
        let result = solve_component(
            &comp,
            induced,
            budget.max_nodes,
            deadline,
            &mut nodes,
            reborrowed,
        );
        for (local, &machine) in result.assignment.iter().enumerate() {
            schedule.assign(mapping[local], machine_offset + machine);
        }
        machine_offset += result.machines_used;
        total_cost += result.cost;
        total_lower += result.lower;
        all_optimal &= result.optimal;
    }
    let cost = Duration::new(total_cost);
    if all_optimal {
        ExactOutcome::Optimal {
            schedule,
            cost,
            nodes,
        }
    } else {
        ExactOutcome::Exhausted {
            incumbent: schedule,
            lower: Duration::new(total_lower),
            upper: cost,
            nodes,
        }
    }
}

/// The component's share of a whole-instance schedule (`mapping[local] = global` job
/// id), with machines renumbered contiguously in order of first use.
fn induced_schedule(whole: &Schedule, mapping: &[usize]) -> Schedule {
    let mut schedule = Schedule::empty(mapping.len());
    let mut renumbered: HashMap<usize, usize> = HashMap::new();
    for (local, &global) in mapping.iter().enumerate() {
        let machine = whole
            .machine_of(global)
            .expect("the whole-instance schedule assigns every job");
        let next = renumbered.len();
        schedule.assign(local, *renumbered.entry(machine).or_insert(next));
    }
    schedule
}

/// Strictly-improving single-job relocation descent on a complete assignment: move any
/// job to an open machine (or a fresh one) whenever the move lowers total busy time,
/// until no such move exists.  Total cost is a strictly decreasing non-negative
/// integer, so the loop terminates.  Feasibility on the target is checked directly on
/// the interval multiset (`max_overlap ≤ g`), so no thread bookkeeping is needed.
///
/// Returns the polished cost; `assignment` is rewritten in place (machine ids stay
/// contiguous from 0).
fn polish(comp: &Instance, assignment: &mut [usize]) -> i64 {
    let g = comp.capacity();
    let machines = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); machines];
    for (job, &m) in assignment.iter().enumerate() {
        groups[m].push(job);
    }
    let busy = |group: &[usize]| -> i64 {
        let ivs: Vec<Interval> = group.iter().map(|&j| comp.job(j)).collect();
        union(&ivs).iter().map(|s| s.len().ticks()).sum()
    };
    let mut cost: i64 = groups.iter().map(|group| busy(group)).sum();
    loop {
        let mut improved = false;
        // A move rewrites `assignment[job]` and two `groups` entries mid-scan,
        // so indexed access is required here.
        #[allow(clippy::needless_range_loop)]
        for job in 0..comp.len() {
            let iv = comp.job(job);
            let source = assignment[job];
            let without: Vec<usize> = groups[source]
                .iter()
                .copied()
                .filter(|&j| j != job)
                .collect();
            let gain = busy(&groups[source]) - busy(&without);
            if gain <= 0 {
                continue;
            }
            // Cheapest feasible target strictly better than staying put; a fresh
            // machine (cost = the job's own length) is always feasible.
            let mut best: Option<(usize, i64)> = None;
            for (m, group) in groups.iter().enumerate() {
                if m == source {
                    continue;
                }
                let mut ivs: Vec<Interval> = group.iter().map(|&j| comp.job(j)).collect();
                ivs.push(iv);
                if busytime_interval::max_overlap(&ivs) > g {
                    continue;
                }
                let added = union(&ivs).iter().map(|s| s.len().ticks()).sum::<i64>() - busy(group);
                if best.is_none_or(|(_, b)| added < b) {
                    best = Some((m, added));
                }
            }
            let fresh = iv.len().ticks();
            let (target, added) = match best {
                Some((m, added)) if added <= fresh => (m, added),
                _ => (groups.len(), fresh),
            };
            if added < gain {
                if target == groups.len() {
                    groups.push(Vec::new());
                }
                groups[source].retain(|&j| j != job);
                groups[target].push(job);
                assignment[job] = target;
                cost -= gain - added;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    // Re-number machines contiguously (emptied sources leave holes).
    let mut next = 0usize;
    let mut remap: Vec<Option<usize>> = vec![None; groups.len()];
    for m in assignment.iter_mut() {
        let id = *remap[*m].get_or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        *m = id;
    }
    cost
}

/// One component's answer: a (possibly incumbent-only) assignment plus its bound pair.
struct ComponentResult {
    /// `assignment[local_job] = machine` (machines contiguous from 0).
    assignment: Vec<usize>,
    /// Cost of `assignment` (the component's upper bound).
    cost: i64,
    /// Proven lower bound on the component's optimum.
    lower: i64,
    /// Whether `cost` is the proven optimum.
    optimal: bool,
    /// Machines `assignment` uses.
    machines_used: usize,
}

fn solve_component(
    comp: &Instance,
    induced: Schedule,
    max_nodes: u64,
    deadline: Option<Instant>,
    nodes: &mut u64,
    visitor: Option<&mut NodeVisitor<'_>>,
) -> ComponentResult {
    let n = comp.len();
    let grid = PricingGrid::new(comp);
    let static_lb = grid.total;

    // Branch order: earliest start first, ties longest first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| {
        let iv = comp.job(j);
        (iv.start().ticks(), -iv.end().ticks(), j)
    });

    // Warm start: the best of canonical FirstFit, FirstFit in branch order and the
    // component's share of the dispatcher's schedule (ties keep the earlier candidate),
    // then relocation-polished — on components whose optimum meets the clique
    // relaxation this alone can end the search before it starts.
    let warm = [first_fit(comp), first_fit_in_order(comp, &order), induced]
        .into_iter()
        .min_by_key(|s| s.cost(comp))
        .expect("three warm-start candidates");
    let mut best_assignment: Vec<usize> = warm
        .assignment()
        .iter()
        .map(|m| m.expect("every candidate schedules every job"))
        .collect();
    let best_cost = polish(comp, &mut best_assignment);

    let mut search = Search {
        comp,
        capacity: comp.capacity(),
        order,
        grid,
        static_lb,
        machines: Vec::new(),
        assigned: Vec::new(),
        current: vec![usize::MAX; n],
        best_cost,
        best_assignment,
        nodes,
        max_nodes,
        deadline,
        exhausted: false,
        abandoned_lb: i64::MAX,
        visitor,
    };
    // The warm start may already match the relaxation; then no node needs exploring.
    if search.best_cost > static_lb {
        search.dfs(0, 0, static_lb);
    }

    let optimal = !search.exhausted;
    let cost = search.best_cost;
    let lower = if optimal {
        cost
    } else {
        // Subtrees pruned by bound cannot beat the incumbent; abandoned subtrees can,
        // but not below their own node bounds.
        static_lb.max(cost.min(search.abandoned_lb))
    };
    let assignment = search.best_assignment;
    let machines_used = assignment.iter().copied().max().map_or(0, |m| m + 1);
    ComponentResult {
        assignment,
        cost,
        lower,
        optimal,
        machines_used,
    }
}

/// The pricing bound `∫ max(busy(t), ⌈depth(t)/g⌉) dt` of one component, kept current
/// as jobs are placed and undone.
///
/// The time line is cut into *elementary segments* between consecutive distinct job
/// endpoints; every job covers a contiguous range of them, and on each segment both the
/// depth and every machine's coverage are constant, so the integral is the finite sum
/// `Σ len·max(busy, need)`.
///
/// Jobs arrive in branch order, with non-decreasing starts.  A machine's jobs therefore
/// all start at or before the new job's first segment, and its union over that segment
/// onwards is one contiguous run ending at its *reach* — the furthest segment boundary
/// any of its jobs ends at.  Placing a job thus newly covers exactly the segments from
/// `max(first, reach)` up to the job's end, and one index per machine stands in for a
/// per-segment cover row.
struct PricingGrid {
    /// Per segment, its length.
    len: Vec<i64>,
    /// Per segment, `⌈depth/g⌉`: the machines the jobs covering it force.
    need: Vec<u32>,
    /// Per segment, how many open machines' job unions cover it.
    busy: Vec<u32>,
    /// Per component job, its segments `first..end`.
    segments: Vec<(usize, usize)>,
    /// Per open machine, the segment boundary its job union reaches.
    reach: Vec<usize>,
    /// `Σ len·max(busy, need)`: the bound at the current node.
    total: i64,
}

impl PricingGrid {
    /// The grid of `comp` with no machine open; its total is the static clique
    /// relaxation `∫ ⌈depth(t)/g⌉ dt`.
    fn new(comp: &Instance) -> Self {
        let mut points: Vec<i64> = comp
            .jobs()
            .iter()
            .flat_map(|iv| [iv.start().ticks(), iv.end().ticks()])
            .collect();
        points.sort_unstable();
        points.dedup();
        let index = |x: i64| points.binary_search(&x).expect("every endpoint is a point");
        let segments: Vec<(usize, usize)> = comp
            .jobs()
            .iter()
            .map(|iv| (index(iv.start().ticks()), index(iv.end().ticks())))
            .collect();
        let count = points.len().saturating_sub(1);
        let mut depth = vec![0i64; count + 1];
        for &(first, end) in &segments {
            depth[first] += 1;
            depth[end] -= 1;
        }
        let len: Vec<i64> = points.windows(2).map(|w| w[1] - w[0]).collect();
        let g = comp.capacity() as i64;
        let mut running = 0i64;
        let need: Vec<u32> = depth[..count]
            .iter()
            .map(|&delta| {
                running += delta;
                ((running + g - 1) / g) as u32
            })
            .collect();
        let total = len.iter().zip(&need).map(|(&l, &k)| l * i64::from(k)).sum();
        PricingGrid {
            len,
            need,
            busy: vec![0; count],
            segments,
            reach: Vec::new(),
            total,
        }
    }

    /// Open a machine with nothing on it.
    fn open(&mut self) {
        self.reach.push(0);
    }

    /// Close the most recently opened machine, whose jobs have all been undone.
    fn close(&mut self) {
        debug_assert_eq!(self.reach.last(), Some(&0));
        self.reach.pop();
    }

    /// The total once `job` is placed on a machine that reaches `reach`, without
    /// placing it: pruned children never touch the grid.
    fn priced(&self, job: usize, reach: usize) -> i64 {
        let (first, end) = self.segments[job];
        let added: i64 = (first.max(reach)..end)
            .filter(|&s| self.busy[s] >= self.need[s])
            .map(|s| self.len[s])
            .sum();
        self.total + added
    }

    /// Place `job` on `machine`.
    fn place(&mut self, machine: usize, job: usize) {
        let (first, end) = self.segments[job];
        let reach = self.reach[machine];
        for s in first.max(reach)..end {
            self.busy[s] += 1;
            if self.busy[s] > self.need[s] {
                self.total += self.len[s];
            }
        }
        self.reach[machine] = reach.max(end);
    }

    /// Undo the latest [`Self::place`] of `job` on `machine`, whose reach was `reach`
    /// before it.
    fn undo(&mut self, machine: usize, job: usize, reach: usize) {
        let (first, end) = self.segments[job];
        for s in first.max(reach)..end {
            if self.busy[s] > self.need[s] {
                self.total -= self.len[s];
            }
            self.busy[s] -= 1;
        }
        self.reach[machine] = reach;
    }
}

/// Depth-first search state for one component.
struct Search<'a, 'v> {
    comp: &'a Instance,
    capacity: usize,
    /// Jobs in branch order (non-decreasing starts).
    order: Vec<usize>,
    /// The pricing bound of the current node.
    grid: PricingGrid,
    static_lb: i64,
    machines: Vec<MachineState>,
    /// Per machine, its assigned intervals in insertion (hence start) order — the
    /// ground truth for dominance checks.
    assigned: Vec<Vec<Interval>>,
    /// `current[job] = machine`, `usize::MAX` while unassigned.
    current: Vec<usize>,
    best_cost: i64,
    best_assignment: Vec<usize>,
    nodes: &'a mut u64,
    max_nodes: u64,
    deadline: Option<Instant>,
    exhausted: bool,
    /// Smallest node bound among subtrees abandoned by the budget (`i64::MAX` = none).
    abandoned_lb: i64,
    visitor: Option<&'a mut NodeVisitor<'v>>,
}

impl Search<'_, '_> {
    fn dfs(&mut self, depth: usize, committed: i64, node_lb: i64) {
        if self.exhausted
            || *self.nodes >= self.max_nodes
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.exhausted = true;
            self.abandoned_lb = self.abandoned_lb.min(node_lb);
            return;
        }
        *self.nodes += 1;
        if let Some(visitor) = self.visitor.take() {
            visitor(
                self.comp,
                &NodeView {
                    committed: Duration::new(committed),
                    lower: Duration::new(node_lb),
                    unassigned: &self.order[depth..],
                    machines: &self.assigned,
                },
            );
            self.visitor = Some(visitor);
        }
        if depth == self.order.len() {
            // Strictly better only: ties keep the earlier (canonical) incumbent.
            // Polishing the found leaf may tunnel below anything this DFS region
            // can reach, pruning the rest of it wholesale.
            if committed < self.best_cost {
                let mut polished = self.current.clone();
                let polished_cost = polish(self.comp, &mut polished);
                debug_assert!(polished_cost <= committed);
                self.best_cost = polished_cost;
                self.best_assignment = polished;
            }
            return;
        }
        let job = self.order[depth];
        let iv = self.comp.job(job);

        // Children: every *distinct* open machine with a free thread, plus one fresh
        // machine; cheapest marginal cost first so the dive improves the incumbent
        // early.  Machines with identical content (digest pre-filter, interval-list
        // confirmation) are interchangeable — only the first of each class branches.
        let mut children: Vec<(usize, usize, i64)> = Vec::with_capacity(self.machines.len() + 1);
        'candidates: for m in 0..self.machines.len() {
            let Some(thread) = self.machines[m].first_free_thread(iv) else {
                continue;
            };
            for &(earlier, _, _) in &children {
                if earlier != usize::MAX
                    && self.machines[earlier].digest() == self.machines[m].digest()
                    && self.assigned[earlier] == self.assigned[m]
                {
                    continue 'candidates;
                }
            }
            children.push((m, thread, self.machines[m].marginal_busy(iv).ticks()));
        }
        children.push((usize::MAX, 0, iv.len().ticks()));
        children.sort_by_key(|&(_, _, delta)| delta);

        for (machine, thread, delta) in children {
            let child_committed = committed + delta;
            if child_committed.max(self.static_lb) >= self.best_cost {
                continue;
            }
            let reach = if machine == usize::MAX {
                0
            } else {
                self.grid.reach[machine]
            };
            let child_lb = self.grid.priced(job, reach);
            debug_assert!(child_lb >= child_committed && child_lb >= self.static_lb);
            if child_lb >= self.best_cost {
                continue;
            }
            let (machine, opened) = if machine == usize::MAX {
                self.machines.push(MachineState::new(self.capacity));
                self.assigned.push(Vec::new());
                self.grid.open();
                (self.machines.len() - 1, true)
            } else {
                (machine, false)
            };
            let applied = self.machines[machine].insert(iv, thread);
            debug_assert_eq!(applied.ticks(), delta);
            self.assigned[machine].push(iv);
            self.current[job] = machine;
            self.grid.place(machine, job);
            debug_assert_eq!(self.grid.total, child_lb);

            self.dfs(depth + 1, child_committed, child_lb);

            self.grid.undo(machine, job, reach);
            self.current[job] = usize::MAX;
            self.assigned[machine].pop();
            self.machines[machine].remove(iv, thread);
            if opened {
                self.machines.pop();
                self.assigned.pop();
                self.grid.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_minbusy_cost, MAX_EXACT_JOBS};
    use busytime::Algorithm;
    use busytime_workload::{general_instance, proper_instance, seeded_rng};
    use proptest::prelude::*;

    fn solved(instance: &Instance) -> (Schedule, Duration, u64) {
        match branch_and_bound(instance, &ExactBudget::default()) {
            ExactOutcome::Optimal {
                schedule,
                cost,
                nodes,
            } => (schedule, cost, nodes),
            ExactOutcome::Exhausted { lower, upper, .. } => {
                panic!("default budget exhausted on a test instance ({lower} ≤ OPT ≤ {upper})")
            }
        }
    }

    /// The pricing bound from scratch: `∫ max(busy(t), ⌈depth(t)/g⌉) dt` with `busy(t)`
    /// the number of `machines` whose job union covers `t`.  The reference the
    /// incremental [`PricingGrid`] must reproduce at every node.
    fn reference_pricing_lb(comp: &Instance, machines: &[Vec<Interval>]) -> i64 {
        let mut events: Vec<(i64, i64, i64)> = Vec::new();
        for iv in comp.jobs() {
            events.push((iv.start().ticks(), 1, 0));
            events.push((iv.end().ticks(), -1, 0));
        }
        for list in machines {
            for segment in union(list) {
                events.push((segment.start().ticks(), 0, 1));
                events.push((segment.end().ticks(), 0, -1));
            }
        }
        events.sort_unstable();
        let g = comp.capacity() as i64;
        let (mut depth, mut busy, mut total) = (0i64, 0i64, 0i64);
        let mut prev: Option<i64> = None;
        for (x, d, b) in events {
            if let Some(p) = prev {
                total += (x - p) * ((depth + g - 1) / g).max(busy);
            }
            depth += d;
            busy += b;
            prev = Some(x);
        }
        total
    }

    /// `(lower, upper, nodes)` of a run, optimal or not.
    fn bracket(instance: &Instance, max_nodes: u64) -> (i64, i64, u64) {
        let budget = ExactBudget {
            max_nodes,
            max_millis: None,
        };
        match branch_and_bound(instance, &budget) {
            ExactOutcome::Optimal { cost, nodes, .. } => (cost.ticks(), cost.ticks(), nodes),
            ExactOutcome::Exhausted {
                lower,
                upper,
                nodes,
                ..
            } => (lower.ticks(), upper.ticks(), nodes),
        }
    }

    #[test]
    fn brackets_match_the_from_scratch_pricing_search() {
        // Single-component instances, pinned to the brackets and node counts of the
        // search that priced every child from scratch: the incremental grid must
        // expand exactly the same nodes.
        let exhausted: [(u64, (i64, i64, u64)); 8] = [
            (1, (212, 219, 2000)),
            (3, (257, 262, 2000)),
            (5, (265, 275, 2000)),
            (7, (311, 325, 2000)),
            (8, (280, 303, 2000)),
            (9, (300, 330, 2000)),
            (10, (279, 312, 2000)),
            (11, (298, 321, 2000)),
        ];
        for (seed, pinned) in exhausted {
            let inst = general_instance(&mut seeded_rng(seed), 30 + 2 * seed as usize, 3, 120, 30);
            assert_eq!(inst.connected_components().len(), 1, "seed {seed}");
            assert_eq!(bracket(&inst, 2000), pinned, "seed {seed}");
        }
        let solved: [(u64, (i64, i64, u64)); 4] = [
            (25, (231, 231, 14814)),
            (27, (235, 235, 1844)),
            (28, (232, 232, 24285)),
            (29, (219, 219, 3673)),
        ];
        for (seed, pinned) in solved {
            let inst = general_instance(&mut seeded_rng(seed), 24 + seed as usize % 5, 2, 100, 30);
            assert_eq!(inst.connected_components().len(), 1, "seed {seed}");
            assert_eq!(bracket(&inst, 200_000), pinned, "seed {seed}");
        }
    }

    #[test]
    fn clique_upper_bound_stays_within_clique_set_cover() {
        // A tenant's first 30 arrivals from a seeded wire workload: one clique, where
        // the dispatcher's clique set cover (407) beats both FirstFit warm starts and
        // 2000 nodes used to stop at 425.
        let endpoints: [i64; 60] = [
            2390, 2428, 2390, 2431, 2392, 2452, 2398, 2426, 2398, 2447, 2399, 2433, 2399, 2442,
            2399, 2445, 2402, 2424, 2404, 2454, 2405, 2466, 2407, 2442, 2408, 2443, 2408, 2470,
            2409, 2472, 2410, 2432, 2410, 2446, 2411, 2438, 2411, 2451, 2413, 2443, 2413, 2472,
            2414, 2442, 2414, 2447, 2415, 2478, 2417, 2486, 2418, 2428, 2418, 2467, 2419, 2482,
            2421, 2453, 2422, 2439,
        ];
        let jobs: Vec<(i64, i64)> = endpoints.chunks(2).map(|p| (p[0], p[1])).collect();
        let inst = Instance::from_ticks(&jobs, 4);
        let solution = Solver::new().solve_min_busy(&inst).unwrap();
        assert_eq!(solution.algorithm, Algorithm::CliqueSetCover);
        assert_eq!(solution.objective.cost(), Duration::new(407));
        let (lower, upper, _) = bracket(&inst, 2000);
        assert!(lower <= upper && upper <= 407, "bracket [{lower}, {upper}]");
    }

    #[test]
    fn trivial_instances() {
        let empty = Instance::from_ticks(&[], 2);
        let (schedule, cost, _) = solved(&empty);
        assert_eq!(cost, Duration::ZERO);
        assert!(schedule.is_empty());

        let single = Instance::from_ticks(&[(2, 9)], 3);
        let (schedule, cost, _) = solved(&single);
        assert_eq!(cost, Duration::new(7));
        schedule.validate_complete(&single).unwrap();
    }

    #[test]
    fn matches_known_optimal_clique_pairing() {
        let inst = Instance::from_ticks(&[(0, 20), (2, 18), (8, 12), (9, 11)], 2);
        let (schedule, cost, _) = solved(&inst);
        assert_eq!(cost, Duration::new(24));
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(schedule.cost(&inst), cost);
    }

    #[test]
    fn decomposes_across_components() {
        // Two far-apart copies of the same component: cost doubles, search stays tiny.
        let inst = Instance::from_ticks(
            &[
                (0, 20),
                (2, 18),
                (8, 12),
                (1000, 1020),
                (1002, 1018),
                (1008, 1012),
            ],
            2,
        );
        let (schedule, cost, _) = solved(&inst);
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(cost, exact_minbusy_cost(&inst));
    }

    #[test]
    fn solves_above_the_dp_ceiling() {
        // n > MAX_EXACT_JOBS: the DP would panic, B&B must still prove an optimum.
        let mut rng = seeded_rng(7);
        let inst = general_instance(&mut rng, MAX_EXACT_JOBS + 8, 3, 200, 30);
        let (schedule, cost, _) = solved(&inst);
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(schedule.cost(&inst), cost);
        assert!(cost >= inst.lower_bound());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// B&B ≡ subset DP on random general instances small enough for the DP.
        #[test]
        fn differential_vs_subset_dp(seed in 0u64..5_000, n in 2usize..12, g in 1usize..5) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, g, 120, 25);
            let (schedule, cost, _) = solved(&inst);
            schedule.validate_complete(&inst).unwrap();
            prop_assert_eq!(cost, exact_minbusy_cost(&inst));
            prop_assert_eq!(schedule.cost(&inst), cost);
        }

        /// Every explored node's lower bound is sound: it never exceeds
        /// `committed + OPT(residual)`, which upper-bounds the node's best completion
        /// (finish the unassigned jobs on fresh machines).
        #[test]
        fn node_bounds_never_exceed_residual_optimum(seed in 0u64..5_000, n in 2usize..11, g in 1usize..4) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, g, 100, 20);
            let mut checked = 0u64;
            let mut visitor = |comp: &Instance, view: &NodeView<'_>| {
                let (residual, _) = comp.sub_instance(view.unassigned);
                let residual_opt = exact_minbusy_cost(&residual);
                assert!(
                    view.lower <= view.committed + residual_opt,
                    "node bound {} exceeds committed {} + residual OPT {}",
                    view.lower,
                    view.committed,
                    residual_opt
                );
                checked += 1;
            };
            let outcome =
                branch_and_bound_with_visitor(&inst, &ExactBudget::default(), Some(&mut visitor));
            if let ExactOutcome::Optimal { cost, nodes, .. } = outcome {
                prop_assert_eq!(cost, exact_minbusy_cost(&inst));
                prop_assert_eq!(checked, nodes);
            } else {
                prop_assert!(false, "default budget exhausted on a tiny instance");
            }
        }

        /// The incremental pricing grid equals the from-scratch bound at every explored
        /// node — including nodes reached by backtracking across opened and closed
        /// machines (the root's bound is the bare clique relaxation).
        #[test]
        fn grid_bound_matches_the_reference_at_every_node(seed in 0u64..5_000, n in 2usize..16, g in 1usize..4) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, g, 100, 25);
            let mut checked = 0u64;
            let mut visitor = |comp: &Instance, view: &NodeView<'_>| {
                assert_eq!(view.lower.ticks(), reference_pricing_lb(comp, view.machines));
                checked += 1;
            };
            let outcome =
                branch_and_bound_with_visitor(&inst, &ExactBudget::default(), Some(&mut visitor));
            let nodes = match outcome {
                ExactOutcome::Optimal { nodes, .. } | ExactOutcome::Exhausted { nodes, .. } => nodes,
            };
            prop_assert_eq!(checked, nodes);
        }

        /// On instances of several components the upper bound never exceeds the
        /// default dispatcher's cost (BestCut on these proper instances) nor FirstFit
        /// over the whole instance, however small the budget.
        #[test]
        fn upper_bound_never_exceeds_the_whole_instance_heuristics(
            seed in 0u64..5_000,
            blocks in 2usize..5,
            n in 4usize..12,
            g in 2usize..5,
            max_nodes in 0u64..50,
        ) {
            let mut rng = seeded_rng(seed);
            let mut jobs: Vec<(i64, i64)> = Vec::new();
            for block in 0..blocks as i64 {
                let part = proper_instance(&mut rng, n, g, 20, 12);
                jobs.extend(part.jobs().iter().map(|iv| {
                    (iv.start().ticks() + 10_000 * block, iv.end().ticks() + 10_000 * block)
                }));
            }
            let inst = Instance::from_ticks(&jobs, g);
            prop_assert!(inst.connected_components().len() >= blocks);
            let (lower, upper, _) = bracket(&inst, max_nodes);
            prop_assert!(lower <= upper);
            let auto = Solver::new().solve_min_busy(&inst).unwrap().objective.cost().ticks();
            prop_assert!(upper <= auto, "upper {} > dispatcher {}", upper, auto);
            let ff = first_fit(&inst).cost(&inst).ticks();
            prop_assert!(upper <= ff, "upper {} > whole-instance FirstFit {}", upper, ff);
        }

        /// Starving the budget still yields a sound bracket: `lower ≤ OPT ≤ upper`,
        /// with the incumbent schedule valid and costing exactly `upper`.
        #[test]
        fn exhausted_budgets_keep_sound_bounds(seed in 0u64..5_000, n in 6usize..14, max_nodes in 0u64..6) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, 2, 150, 30);
            let opt = exact_minbusy_cost(&inst);
            let budget = ExactBudget { max_nodes, max_millis: None };
            match branch_and_bound(&inst, &budget) {
                ExactOutcome::Optimal { schedule, cost, .. } => {
                    // Warm start met the relaxation: optimal without any search.
                    prop_assert_eq!(cost, opt);
                    schedule.validate_complete(&inst).unwrap();
                }
                ExactOutcome::Exhausted { incumbent, lower, upper, .. } => {
                    prop_assert!(lower <= opt, "lower {} > OPT {}", lower, opt);
                    prop_assert!(opt <= upper, "OPT {} > upper {}", opt, upper);
                    incumbent.validate_complete(&inst).unwrap();
                    prop_assert_eq!(incumbent.cost(&inst), upper);
                }
            }
        }
    }
}

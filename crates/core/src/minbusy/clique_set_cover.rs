//! Lemma 3.2: a `g·H_g / (H_g + g − 1)`-approximation for clique instances with fixed
//! `g`, via weighted set cover.
//!
//! For a clique instance a schedule is valid iff every machine gets at most `g` jobs, so
//! MinBusy is a minimum-weight set cover of the job set with candidate sets of size at
//! most `g`, each weighted by its span.  The paper sharpens the plain `H_g` guarantee of
//! the greedy algorithm by shifting every weight down by the parallelism bound's share,
//! `weight(Q) = span(Q) − len(Q)/g`, and balancing against the length bound; the greedy
//! choice is unchanged (we scale all weights by `g` to stay in integers:
//! `g·span(Q) − len(Q)`).
//!
//! The greedy is run in *partition* mode (a candidate may only be chosen while all of its
//! jobs are unscheduled): with the shifted weights an overlapping cover cannot simply be
//! deduplicated without breaking the analysis, and the partition mode is exactly what the
//! paper's accounting `weight(s) = cost(s) − len(J)/g` assumes.
//!
//! The greedy never materialises the candidate family.  Set weights are static and the
//! partition mode makes a candidate eligible exactly while all of its jobs are
//! unscheduled, so the eligible sets at each pick are the subsets of at most `g`
//! still-unscheduled jobs.  Each pick re-runs one lexicographic depth-first enumeration
//! over those jobs — span and length carried incrementally — and keeps only the best set
//! so far.  Restricting the enumeration to a sorted sub-list preserves the relative order
//! of the surviving subsets, so the picks, ties included, are those of the generic greedy
//! [`busytime_graph::greedy_set_partition`] over the explicit family.
//!
//! The family has `Σ_{k≤g} C(n,k)` sets and every pick enumerates the part of it that is
//! still eligible, so the algorithm is intended for small fixed `g` (the paper notes the
//! ratio stays below 2 for `g ≤ 6`).  A limit on the family size
//! ([`DEFAULT_SET_FAMILY_LIMIT`]) guards against accidental exponential blow-ups; it
//! bounds running time, since no set is ever stored.

use busytime_interval::Interval;

use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Default limit on the size `Σ_{k≤g} C(n,k)` of the candidate family of
/// [`clique_set_cover`].  Each pick enumerates what is left of the family, so the
/// limit bounds running time.
pub const DEFAULT_SET_FAMILY_LIMIT: usize = 2_000_000;

/// The approximation guarantee `g·H_g / (H_g + g − 1)` of Lemma 3.2.
pub fn set_cover_guarantee(g: usize) -> f64 {
    let h_g: f64 = (1..=g).map(|k| 1.0 / k as f64).sum();
    (g as f64) * h_g / (h_g + g as f64 - 1.0)
}

/// Lemma 3.2 approximation algorithm.
///
/// Returns [`Error::NotClique`] on non-clique instances and
/// [`Error::SetFamilyTooLarge`] when `Σ_{k≤g} C(n,k)` exceeds
/// [`DEFAULT_SET_FAMILY_LIMIT`].
pub fn clique_set_cover(instance: &Instance) -> Result<Schedule, Error> {
    clique_set_cover_with_limit(instance, DEFAULT_SET_FAMILY_LIMIT)
}

/// [`clique_set_cover`] with an explicit candidate-family limit.
fn clique_set_cover_with_limit(instance: &Instance, limit: usize) -> Result<Schedule, Error> {
    if !instance.is_clique() {
        return Err(Error::NotClique);
    }
    let n = instance.len();
    let g = instance.capacity().min(n.max(1));
    if n == 0 {
        return Ok(Schedule::empty(0));
    }
    let required = count_subsets_up_to(n, g, limit);
    if required > limit {
        return Err(Error::SetFamilyTooLarge { required, limit });
    }

    // Every subset of a clique instance is itself a clique, so its span is simply the
    // hull length (latest completion − earliest start); with jobs sorted by start the
    // earliest start is the first chosen job's, and the latest completion and total
    // length are carried incrementally through the enumeration — no per-subset
    // re-unioning.
    //
    // The greedy must build a *partition* (disjoint picks): the shifted weight
    // span(Q) − len(Q)/g is not monotone under dropping elements, so converting an
    // overlapping cover into a schedule could exceed the weight the H_g analysis charges
    // (and measurably violates the Lemma 3.2 bound in the E2 experiment of the
    // `experiments` binary).  Each pick therefore chooses among the subsets of the jobs
    // still unscheduled, which always include the singletons.
    let jobs = instance.jobs();
    let g_i64 = instance.capacity() as i64;
    let mut unscheduled: Vec<usize> = (0..n).collect();
    let mut current: Vec<usize> = Vec::with_capacity(g);
    let mut best_set: Vec<usize> = Vec::with_capacity(g);
    let mut schedule = Schedule::empty(n);
    let mut machine = 0;
    while !unscheduled.is_empty() {
        // Lowest ratio weight/size by exact cross-multiplication, then the larger set,
        // then the first set in enumeration order — the tie-breaks of
        // `greedy_set_partition`.
        let mut best: Option<(i64, usize)> = None;
        enumerate_subsets(
            &unscheduled,
            g,
            jobs,
            &mut current,
            &mut |subset, span_ticks, len_ticks| {
                let weight = g_i64 * span_ticks - len_ticks;
                debug_assert!(weight >= 0, "span ≥ len/g for every set of ≤ g intervals");
                let size = subset.len();
                let better = best.is_none_or(|(best_weight, best_size)| {
                    let lhs = weight as i128 * best_size as i128;
                    let rhs = best_weight as i128 * size as i128;
                    lhs < rhs || (lhs == rhs && size > best_size)
                });
                if better {
                    best = Some((weight, size));
                    best_set.clear();
                    best_set.extend_from_slice(subset);
                }
            },
        );
        for &job in &best_set {
            debug_assert!(!schedule.is_scheduled(job), "partition picks are disjoint");
            schedule.assign(job, machine);
        }
        unscheduled.retain(|job| !best_set.contains(job));
        machine += 1;
    }
    Ok(schedule)
}

/// Count `Σ_{k=1..=g} C(n,k)`, saturating once the count exceeds `limit` (to avoid
/// overflow for large `n`).
fn count_subsets_up_to(n: usize, g: usize, limit: usize) -> usize {
    let mut total: usize = 0;
    let mut binom: u128 = 1;
    for k in 1..=g.min(n) {
        binom = binom * (n - k + 1) as u128 / k as u128;
        total = total.saturating_add(binom.min(usize::MAX as u128) as usize);
        if total > limit {
            return total;
        }
    }
    total
}

/// Enumerate all subsets of `pool` of size 1..=g in lexicographic order (by position
/// in `pool`), invoking the callback with each subset of job indices plus its clique
/// span and total length in ticks (maintained incrementally; `jobs` must be sorted by
/// start, as in an [`Instance`], and `pool` ascending).
fn enumerate_subsets(
    pool: &[usize],
    g: usize,
    jobs: &[Interval],
    current: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize], i64, i64),
) {
    struct Ctx<'a, F> {
        pool: &'a [usize],
        g: usize,
        jobs: &'a [Interval],
        f: F,
    }

    fn rec<F: FnMut(&[usize], i64, i64)>(
        ctx: &mut Ctx<'_, F>,
        start: usize,
        max_end: i64,
        total_len: i64,
        current: &mut Vec<usize>,
    ) {
        if let Some(&first) = current.first() {
            let span = max_end - ctx.jobs[first].start().ticks();
            (ctx.f)(current, span, total_len);
        }
        if current.len() == ctx.g {
            return;
        }
        for pos in start..ctx.pool.len() {
            let next = ctx.pool[pos];
            current.push(next);
            let end = ctx.jobs[next].end().ticks();
            let len = ctx.jobs[next].len().ticks();
            rec(ctx, pos + 1, max_end.max(end), total_len + len, current);
            current.pop();
        }
    }

    let mut ctx = Ctx { pool, g, jobs, f };
    rec(&mut ctx, 0, i64::MIN, 0, current);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::lower_bound;
    use busytime_graph::{greedy_set_partition, WeightedSet};
    use busytime_interval::{span, Duration};
    use proptest::prelude::*;

    /// The materialised path the per-pick enumeration replaced: build the whole
    /// weighted family once, then run the generic partition greedy over it.
    fn materialised_family_schedule(instance: &Instance) -> Schedule {
        let n = instance.len();
        let g = instance.capacity().min(n.max(1));
        let g_i64 = instance.capacity() as i64;
        let pool: Vec<usize> = (0..n).collect();
        let mut sets = Vec::new();
        enumerate_subsets(
            &pool,
            g,
            instance.jobs(),
            &mut Vec::new(),
            &mut |subset, sp, ln| {
                sets.push(WeightedSet::new(subset.to_vec(), g_i64 * sp - ln));
            },
        );
        let cover = greedy_set_partition(n, &sets).expect("singletons cover everything");
        let mut schedule = Schedule::empty(n);
        for (machine, &set) in cover.chosen.iter().enumerate() {
            for &job in &sets[set].elements {
                schedule.assign(job, machine);
            }
        }
        schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-pick enumeration picks exactly the sets the materialised family greedy
        /// picks, ties included: sides of at most 2 ticks make most weights collide.
        #[test]
        fn matches_materialised_family_greedy(
            g in 2usize..=5,
            tie_heavy in any::<bool>(),
            sides in prop::collection::vec((1i64..=40, 1i64..=40), 1..=18),
        ) {
            let max_side = if tie_heavy { 2 } else { 40 };
            let jobs: Vec<(i64, i64)> = sides
                .iter()
                .map(|&(l, r)| (-(1 + (l - 1) % max_side), 1 + (r - 1) % max_side))
                .collect();
            let inst = Instance::from_ticks(&jobs, g);
            let schedule = clique_set_cover(&inst).unwrap();
            prop_assert_eq!(schedule, materialised_family_schedule(&inst));
        }
    }

    #[test]
    fn guarantee_values_match_paper() {
        // H_2 = 1.5 → 2·1.5 / (1.5 + 1) = 1.2 ; the paper notes the ratio is < 2 for g ≤ 6.
        assert!((set_cover_guarantee(2) - 1.2).abs() < 1e-12);
        for g in 2..=6 {
            assert!(set_cover_guarantee(g) < 2.0, "g = {g}");
        }
        assert!(
            set_cover_guarantee(7) > set_cover_guarantee(6),
            "monotone increasing"
        );
    }

    #[test]
    fn subset_enumeration_counts_and_aggregates() {
        let jobs: Vec<Interval> = (0..5).map(|i| Interval::from_ticks(i, i + 10)).collect();
        let mut count = 0usize;
        let pool: Vec<usize> = (0..5).collect();
        enumerate_subsets(&pool, 2, &jobs, &mut Vec::new(), &mut |subset, sp, ln| {
            count += 1;
            let ivs: Vec<Interval> = subset.iter().map(|&i| jobs[i]).collect();
            assert_eq!(sp, span(&ivs).ticks());
            assert_eq!(ln, ivs.iter().map(|iv| iv.len().ticks()).sum::<i64>());
        });
        assert_eq!(count, 5 + 10);
        assert_eq!(count_subsets_up_to(5, 2, 1000), 15);
        assert_eq!(count_subsets_up_to(10, 3, 10_000), 10 + 45 + 120);
    }

    #[test]
    fn solves_small_clique_instance_optimally_for_g2() {
        // For g = 2 set cover with sets of size ≤ 2 is exact; compare with the matching
        // algorithm's optimum.
        let inst = Instance::from_ticks(&[(0, 20), (2, 18), (8, 12), (9, 11)], 2);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.cost(&inst), Duration::new(24));
    }

    #[test]
    fn respects_capacity_three() {
        let inst = Instance::from_ticks(&[(0, 10), (1, 11), (2, 12), (3, 13), (4, 14), (5, 15)], 3);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        // Guarantee check against the lower bound.
        let bound = set_cover_guarantee(3);
        assert!(s.cost(&inst).as_f64() <= bound * lower_bound(&inst).as_f64() + 1e-9);
    }

    #[test]
    fn non_clique_rejected() {
        let inst = Instance::from_ticks(&[(0, 5), (6, 10)], 2);
        assert_eq!(clique_set_cover(&inst).unwrap_err(), Error::NotClique);
    }

    #[test]
    fn family_limit_enforced() {
        let jobs: Vec<(i64, i64)> = (0..30).map(|i| (i, 100 + i)).collect();
        let inst = Instance::from_ticks(&jobs, 5);
        // The count saturates at the first binomial term past the limit.
        assert_eq!(
            clique_set_cover_with_limit(&inst, 1000).unwrap_err(),
            Error::SetFamilyTooLarge {
                required: 30 + 435 + 4060,
                limit: 1000
            }
        );
        // The limit is inclusive of the whole family: Σ_{k≤3} C(10,k) = 175.
        let small = Instance::from_ticks(&jobs[..10], 3);
        assert_eq!(
            clique_set_cover_with_limit(&small, 174).unwrap_err(),
            Error::SetFamilyTooLarge {
                required: 175,
                limit: 174
            }
        );
        clique_set_cover_with_limit(&small, 175)
            .unwrap()
            .validate_complete(&small)
            .unwrap();
    }

    #[test]
    fn empty_instance_ok() {
        let inst = Instance::from_ticks(&[], 4);
        let s = clique_set_cover(&inst).unwrap();
        assert_eq!(s.machines_used(), 0);
    }

    #[test]
    fn identical_jobs_fill_machines() {
        let inst = Instance::from_ticks(&[(0, 10); 7], 3);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        // ⌈7/3⌉ = 3 machines each paying span 10.
        assert_eq!(s.cost(&inst), Duration::new(30));
    }
}

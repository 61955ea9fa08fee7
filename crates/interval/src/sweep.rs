//! The coordinate-compressed sweep-line kernel.
//!
//! Every structural fact the paper states about an interval set — maximum clique size
//! (Observation 2.1's parallelism bound), span, connected components, the proper order
//! `J_1 ≤ … ≤ J_n` — is a statement about a single swept timeline.  This module is the
//! one place where that timeline is materialised; the rest of the workspace (the
//! `classify`/`span` helpers here, `MachineState` and the schedule validators in the
//! `busytime` core crate, the 2-D bucketing) queries it instead of re-deriving overlap
//! facts with ad-hoc quadratic scans.
//!
//! Three views of the timeline are provided, ordered by generality:
//!
//! * [`DepthProfile`] — an immutable snapshot built in `O(n log n)`: compressed
//!   endpoint coordinates plus the coverage depth of every segment between them, with
//!   point/range queries and the derived aggregates (max depth, span, union, per-depth
//!   lengths).
//! * [`SweepSet`] — an incremental profile supporting interval insertion *and* removal
//!   in `O(k + log n)` without allocating (where `k` is the number of segment
//!   boundaries inside the updated window) while maintaining the maximum depth, read
//!   in `O(1)`, and the covered length.
//! * [`SortedSweep`] — a streaming profile for intervals pushed in non-decreasing start
//!   order (the order `Instance` stores jobs in), maintaining span and maximum depth in
//!   `O(log d)` per push, where `d` is the current depth.
//!
//! [`DisjointIntervalSet`] rounds the kernel out: an ordered set of pairwise
//! non-overlapping intervals with `O(log n)` conflict tests, which is exactly what a
//! single thread of execution of a machine holds.
//!
//! ```
//! use busytime_interval::{DepthProfile, Interval, SweepSet, Time};
//!
//! let jobs = [
//!     Interval::from_ticks(0, 4),
//!     Interval::from_ticks(1, 5),
//!     Interval::from_ticks(8, 9),
//! ];
//! let profile = DepthProfile::new(&jobs);
//! assert_eq!(profile.max_depth(), 2);
//! assert_eq!(profile.span().ticks(), 6);
//! assert_eq!(profile.depth_at(Time::new(2)), 2);
//!
//! let mut sweep = SweepSet::new();
//! for job in &jobs {
//!     sweep.insert(*job);
//! }
//! assert_eq!(sweep.max_depth(), 2);
//! sweep.remove(jobs[1]);
//! assert_eq!(sweep.max_depth(), 1);
//! assert_eq!(sweep.span().ticks(), 5);
//! ```

use std::collections::BTreeMap;

use crate::interval::Interval;
use crate::time::{Duration, Time};

/// An immutable coordinate-compressed depth profile of a set of intervals.
///
/// Construction sorts the `2n` endpoint events once (`O(n log n)`); every derived
/// quantity — maximum overlap, span, union components, per-depth lengths, point and
/// range queries — is then read off the compressed segments without touching the
/// original intervals again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthProfile {
    /// Segment boundaries: `bounds[i]..bounds[i+1]` is segment `i`.  Empty iff the
    /// profile was built from no intervals.
    bounds: Vec<i64>,
    /// Coverage depth of each segment (`bounds.len() - 1` entries).
    depths: Vec<u32>,
    max_depth: usize,
    span: i64,
}

impl DepthProfile {
    /// Build the profile of a set of intervals.
    pub fn new(intervals: &[Interval]) -> Self {
        let mut events: Vec<(i64, i32)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            events.push((iv.start().ticks(), 1));
            events.push((iv.end().ticks(), -1));
        }
        // Ends sort before starts at equal time (half-open semantics), matching the
        // paper's convention that touching intervals do not overlap.
        events.sort_unstable();
        Self::from_event_stream(events.len(), events.into_iter())
    }

    /// Build the profile from the flat SoA event arrays an `Instance` already holds:
    /// `starts` sorted non-decreasing and `ends` sorted non-decreasing (the two arrays
    /// describe the same interval multiset but need not be aligned index-by-index).
    ///
    /// This skips the event sort of [`DepthProfile::new`] entirely — the two runs are
    /// merged in one `O(n)` pass — which is what makes profile-backed aggregates
    /// (max overlap, span, per-depth lengths) linear for callers that keep their jobs
    /// in sorted columnar form.
    ///
    /// # Panics
    /// Debug builds panic if either array is unsorted or the lengths differ.
    pub fn from_sorted_events(starts: &[i64], ends: &[i64]) -> Self {
        debug_assert_eq!(starts.len(), ends.len(), "one end event per start event");
        debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "starts sorted");
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]), "ends sorted");
        let (mut i, mut j) = (0usize, 0usize);
        let merged = std::iter::from_fn(move || {
            // Ends win ties (half-open semantics), exactly as the sorted combined
            // event list of `new` orders `(t, -1)` before `(t, +1)`.
            if j < ends.len() && (i >= starts.len() || ends[j] <= starts[i]) {
                j += 1;
                Some((ends[j - 1], -1))
            } else if i < starts.len() {
                i += 1;
                Some((starts[i - 1], 1))
            } else {
                None
            }
        });
        Self::from_event_stream(starts.len() + ends.len(), merged)
    }

    /// Shared segment builder over an event stream sorted by `(time, delta)`.
    fn from_event_stream(count: usize, events: impl Iterator<Item = (i64, i32)>) -> Self {
        let mut bounds: Vec<i64> = Vec::new();
        let mut depths = Vec::new();
        let mut depth: i32 = 0;
        let mut max_depth: i32 = 0;
        let mut span: i64 = 0;
        let mut events = events.peekable();
        bounds.reserve(count);
        while let Some(&(t, _)) = events.peek() {
            if let Some(&prev) = bounds.last() {
                if t > prev {
                    depths.push(depth as u32);
                    if depth > 0 {
                        span += t - prev;
                    }
                    bounds.push(t);
                }
            } else {
                bounds.push(t);
            }
            while let Some(&(next, delta)) = events.peek() {
                if next != t {
                    break;
                }
                depth += delta;
                events.next();
            }
            max_depth = max_depth.max(depth);
        }
        debug_assert_eq!(depth, 0, "every start event has a matching end event");
        DepthProfile {
            bounds,
            depths,
            max_depth: max_depth.max(0) as usize,
            span,
        }
    }

    /// Largest number of intervals covering any single point (the maximum clique of the
    /// interval graph).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total length covered by at least one interval (`span(I)`, Definition 2.2).
    pub fn span(&self) -> Duration {
        Duration::new(self.span)
    }

    /// Number of compressed segments.
    pub fn segment_count(&self) -> usize {
        self.depths.len()
    }

    /// Coverage depth at the point `t`.
    pub fn depth_at(&self, t: Time) -> usize {
        let t = t.ticks();
        match self.bounds.partition_point(|&b| b <= t) {
            0 => 0,
            i => self.depths.get(i - 1).copied().unwrap_or(0) as usize,
        }
    }

    /// Maximum coverage depth over the window `window` (zero when the window lies
    /// outside the profile).
    pub fn range_max_depth(&self, window: Interval) -> usize {
        let mut best = 0usize;
        self.walk(window, |_, _, depth| best = best.max(depth));
        best
    }

    /// Length of the part of `window` covered by at least one interval.
    pub fn covered_len(&self, window: Interval) -> Duration {
        let mut covered = 0i64;
        self.walk(window, |lo, hi, depth| {
            if depth > 0 {
                covered += hi - lo;
            }
        });
        Duration::new(covered)
    }

    /// The union of the intervals as maximal disjoint stretches of positive depth.
    ///
    /// Touching inputs (`[1,2)` and `[2,3)`) produce one stretch, matching
    /// [`union`](crate::union).
    pub fn union(&self) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut open: Option<i64> = None;
        for (i, &d) in self.depths.iter().enumerate() {
            if d > 0 {
                open.get_or_insert(self.bounds[i]);
            } else if let Some(start) = open.take() {
                out.push(Interval::from_ticks(start, self.bounds[i]));
            }
        }
        if let Some(start) = open {
            out.push(Interval::from_ticks(start, *self.bounds.last().unwrap()));
        }
        out
    }

    /// `v[k-1]` = total length covered by at least `k` intervals, for
    /// `k = 1 ..= max_depth` (so `v[0]` equals [`DepthProfile::span`]).
    pub fn per_depth_lengths(&self) -> Vec<Duration> {
        let mut exact = vec![0i64; self.max_depth + 1];
        for (i, &d) in self.depths.iter().enumerate() {
            if d > 0 {
                exact[d as usize] += self.bounds[i + 1] - self.bounds[i];
            }
        }
        // Suffix-sum the exact-depth lengths into at-least-depth lengths.
        let mut acc = 0i64;
        let mut out = vec![Duration::ZERO; self.max_depth];
        for k in (1..=self.max_depth).rev() {
            acc += exact[k];
            out[k - 1] = Duration::new(acc);
        }
        out
    }

    /// Visit every `(lo, hi, depth)` piece of the profile intersecting `window`.
    fn walk(&self, window: Interval, mut f: impl FnMut(i64, i64, usize)) {
        if self.bounds.is_empty() {
            return;
        }
        let (s, e) = (window.start().ticks(), window.end().ticks());
        // First segment whose end is past the window start.
        let mut i = self.bounds.partition_point(|&b| b <= s).saturating_sub(1);
        while i < self.depths.len() && self.bounds[i] < e {
            let lo = self.bounds[i].max(s);
            let hi = self.bounds[i + 1].min(e);
            if lo < hi {
                f(lo, hi, self.depths[i] as usize);
            }
            i += 1;
        }
    }
}

/// An incremental depth profile over the timeline: intervals can be inserted and
/// removed while the maximum depth and the covered length (span) are maintained.
///
/// Internally a piecewise-constant depth map keyed by segment boundary, kept
/// *canonical*: every boundary changes the depth, so the map holds exactly the points
/// where a fresh [`DepthProfile`] of the live intervals changes depth, never a stale
/// endpoint of an interval that was merged into its neighbours or removed.  Next to it
/// sits a depth-indexed histogram of positive segment depths with a running top, so
/// [`SweepSet::max_depth`] is `O(1)` and survives removals.  An update walks only the
/// boundaries inside the changed window and allocates nothing once the histogram has
/// grown to the deepest depth seen.
#[derive(Debug, Clone, Default)]
pub struct SweepSet {
    /// `segs[b]` is the depth of the segment `[b, next boundary)`.  The segment after
    /// the last boundary (and before the first) has depth 0; the last boundary always
    /// carries depth 0, and no boundary carries its predecessor's depth.
    segs: BTreeMap<i64, u32>,
    /// How many segments currently sit at each positive depth.
    depths: DepthHistogram,
    /// Total length of all segments with positive depth.
    busy: i64,
    /// Number of intervals currently in the set.
    intervals: usize,
}

/// Segment counts indexed by depth (index 0 unused) plus the highest depth with a
/// nonzero count.  An update shifts the depths it touches by one, so the top moves by
/// at most one level per update.
#[derive(Debug, Clone, Default)]
struct DepthHistogram {
    counts: Vec<usize>,
    top: usize,
}

impl DepthHistogram {
    fn inc(&mut self, depth: u32) {
        let d = depth as usize;
        if d >= self.counts.len() {
            self.counts.resize(d + 1, 0);
        }
        self.counts[d] += 1;
        self.top = self.top.max(d);
    }

    fn dec(&mut self, depth: u32) {
        let d = depth as usize;
        debug_assert!(
            self.counts.get(d).is_some_and(|&c| c > 0),
            "depth histogram out of sync"
        );
        self.counts[d] -= 1;
        while self.top > 0 && self.counts[self.top] == 0 {
            self.top -= 1;
        }
    }
}

impl SweepSet {
    /// An empty timeline.
    pub fn new() -> Self {
        SweepSet::default()
    }

    /// Number of intervals currently in the set.
    pub fn interval_count(&self) -> usize {
        self.intervals
    }

    /// `true` when no interval is present.
    pub fn is_empty(&self) -> bool {
        self.intervals == 0
    }

    /// Number of segments between the map's boundaries.  The map is canonical, so
    /// this is one less than the number of points where the depth changes (zero when
    /// the set is empty).
    pub fn segment_count(&self) -> usize {
        self.segs.len().saturating_sub(1)
    }

    /// Current maximum coverage depth.  `O(1)`.
    pub fn max_depth(&self) -> usize {
        self.depths.top
    }

    /// Total length covered by at least one interval.
    pub fn span(&self) -> Duration {
        Duration::new(self.busy)
    }

    /// The convex hull of the **live** intervals (`None` when the set is empty): the
    /// window from the first covered point to the last.
    ///
    /// Exact under removal: boundary merging keeps the map's outermost keys at the live
    /// extremes rather than a high-water mark of everything ever inserted, so a machine
    /// whose jobs depart gets its digest tightened, not just invalidated.  `O(log n)`.
    pub fn hull(&self) -> Option<Interval> {
        if self.intervals == 0 {
            return None;
        }
        let (&lo, &first_depth) = self.segs.iter().next().expect("live set has boundaries");
        let (&hi, _) = self
            .segs
            .iter()
            .next_back()
            .expect("live set has boundaries");
        debug_assert!(first_depth > 0, "leading boundary of a live set is covered");
        debug_assert!(lo < hi);
        Some(Interval::from_ticks(lo, hi))
    }

    /// Coverage depth at the point `t`.
    pub fn depth_at(&self, t: Time) -> usize {
        self.segs
            .range(..=t.ticks())
            .next_back()
            .map_or(0, |(_, &d)| d as usize)
    }

    /// Maximum coverage depth over `window`.
    pub fn range_max_depth(&self, window: Interval) -> usize {
        let mut best = 0usize;
        self.walk(window, |_, _, d| best = best.max(d));
        best
    }

    /// Length of the part of `window` covered by at least one interval.
    pub fn covered_len(&self, window: Interval) -> Duration {
        let mut covered = 0i64;
        self.walk(window, |lo, hi, d| {
            if d > 0 {
                covered += hi - lo;
            }
        });
        Duration::new(covered)
    }

    /// Does any interval of the set overlap `window`?
    ///
    /// Placement hot path: answers from the segment covering the window start plus a
    /// short-circuiting scan of the boundaries inside, rather than a full walk.
    pub fn overlaps(&self, window: Interval) -> bool {
        let (s, e) = (window.start().ticks(), window.end().ticks());
        if self
            .segs
            .range(..=s)
            .next_back()
            .is_some_and(|(_, &d)| d > 0)
        {
            return true;
        }
        self.segs
            .range((std::ops::Bound::Excluded(s), std::ops::Bound::Excluded(e)))
            .any(|(_, &d)| d > 0)
    }

    /// Insert an interval, returning the increase in covered length (the *marginal
    /// busy time* of the insertion — zero when the window was already fully covered).
    pub fn insert(&mut self, iv: Interval) -> Duration {
        let delta = self.apply(iv, 1);
        self.intervals += 1;
        Duration::new(delta)
    }

    /// Remove a previously inserted interval, returning the decrease in covered
    /// length.
    ///
    /// Removing an interval that was never inserted corrupts the profile; this is the
    /// caller's contract (debug builds panic on depth underflow).
    pub fn remove(&mut self, iv: Interval) -> Duration {
        let delta = self.apply(iv, -1);
        self.intervals -= 1;
        Duration::new(-delta)
    }

    /// Add `sign` to the depth of every segment in `iv`'s window; returns the signed
    /// change in covered length.
    fn apply(&mut self, iv: Interval, sign: i32) -> i64 {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let (left_of_s, _) = self.split_at(s);
        let (_, right_of_e) = self.split_at(e);
        // The segment being walked, as (start, old depth, new depth).
        let mut open: Option<(i64, u32, u32)> = None;
        let mut first_new = 0;
        let mut busy_delta = 0i64;
        for (&k, depth) in self.segs.range_mut(s..e) {
            let old = *depth;
            debug_assert!(
                old as i64 + sign as i64 >= 0,
                "removed an interval that was never inserted"
            );
            let new = old.wrapping_add_signed(sign);
            *depth = new;
            match open {
                Some(seg) => busy_delta += covered_change(seg, k),
                None => first_new = new,
            }
            // Count the new depth first, so the histogram's top never has to search
            // downwards past a level the same update is about to refill.
            if new > 0 {
                self.depths.inc(new);
            }
            if old > 0 {
                self.depths.dec(old);
            }
            open = Some((k, old, new));
        }
        let last = open.expect("`s` is a boundary inside the window");
        busy_delta += covered_change(last, e);
        self.busy += busy_delta;
        // Interior boundaries moved by `sign` on both sides, so each still changes the
        // depth; only the window's two endpoints can now repeat their predecessor's
        // depth.  Merging those keeps the map canonical after inserts and removals
        // alike — proportional to the live depth changes, not to every endpoint ever
        // inserted.
        if first_new == left_of_s {
            self.merge_boundary(s, first_new);
        }
        if last.2 == right_of_e {
            self.merge_boundary(e, right_of_e);
        }
        debug_assert!(
            self.is_canonical_near(s, e),
            "segment map lost canonical form"
        );
        busy_delta
    }

    /// Make `t` a segment boundary, splitting the segment covering it if needed;
    /// returns the depths just left and just right of `t`.
    fn split_at(&mut self, t: i64) -> (u32, u32) {
        let mut at_or_before = self.segs.range(..=t).rev();
        match at_or_before.next() {
            Some((&k, &d)) if k == t => (at_or_before.next().map_or(0, |(_, &p)| p), d),
            covering => {
                let d = covering.map_or(0, |(_, &d)| d);
                self.segs.insert(t, d);
                if d > 0 {
                    // Splitting one positive-depth segment into two.
                    self.depths.inc(d);
                }
                (d, d)
            }
        }
    }

    /// Drop the boundary `t`, whose depth `depth` equals its predecessor's: the two
    /// segments either side of it become one.
    fn merge_boundary(&mut self, t: i64, depth: u32) {
        self.segs.remove(&t);
        if depth > 0 {
            self.depths.dec(depth);
        }
    }

    /// Debug check of canonical form around an updated window `[s, e)`: from the
    /// boundary before `s` through the one after `e`, no boundary repeats its
    /// predecessor's depth, and the map's last boundary carries depth 0.
    fn is_canonical_near(&self, s: i64, e: i64) -> bool {
        use std::ops::Bound::{Excluded, Unbounded};
        let lo = self.segs.range(..s).next_back().map_or(s, |(&k, _)| k);
        let hi = self
            .segs
            .range((Excluded(e), Unbounded))
            .next()
            .map_or(e, |(&k, _)| k);
        let mut prev = self.segs.range(..lo).next_back().map_or(0, |(_, &d)| d);
        self.segs
            .range(lo..=hi)
            .all(|(_, &d)| std::mem::replace(&mut prev, d) != d)
            && self.segs.values().next_back().is_none_or(|&d| d == 0)
    }

    /// A maximal stretch with depth at least `depth` intersecting `window`: the run
    /// whose *window-clamped* part is widest, extended to its true boundaries (which
    /// may reach beyond the window).  Note the selection is by clamped width — a run
    /// barely poking into the window is not preferred even if its full extent is the
    /// larger one.
    ///
    /// Used by machine states to cache a *saturated* region: a stretch at depth `g`
    /// rejects every job overlapping it in `O(1)` afterwards.  The walk is capped at
    /// `cap` boundaries in each direction beyond the window, so a heavily fragmented
    /// profile cannot make the query linear; a capped answer is still a genuine
    /// at-least-`depth` stretch, just possibly not maximal.
    pub fn widest_run_at_least(
        &self,
        depth: usize,
        window: Interval,
        cap: usize,
    ) -> Option<Interval> {
        if depth == 0 {
            return None;
        }
        let d = depth as u32;
        let (ws, we) = (window.start().ticks(), window.end().ticks());
        // Runs fully inside the window (clamped walk), merged across segment joins.
        let mut best: Option<(i64, i64)> = None;
        let mut cur: Option<(i64, i64)> = None;
        self.walk(window, |lo, hi, seg_depth| {
            if seg_depth >= depth {
                cur = match cur {
                    Some((s, e)) if e == lo => Some((s, hi)),
                    Some(run) => {
                        if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                            best = Some(run);
                        }
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            } else if let Some(run) = cur.take() {
                if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                    best = Some(run);
                }
            }
        });
        if let Some(run) = cur {
            if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                best = Some(run);
            }
        }
        let (mut lo, mut hi) = best?;
        // Extend the winning run beyond the window edges to its true boundaries.
        if lo == ws {
            for (&k, &seg_depth) in self.segs.range(..ws).rev().take(cap) {
                if seg_depth >= d {
                    lo = k;
                } else {
                    break;
                }
            }
        }
        if hi == we {
            // One walk from the window edge: if the edge falls inside a segment, that
            // segment's tail (whose depth the walk above already inspected) belongs to
            // the run unconditionally; then whole segments follow while the depth
            // holds up.
            let mut rightward = self.segs.range(we..);
            let mut at = rightward.next();
            if let Some((&k, _)) = at {
                hi = k;
            }
            for _ in 0..cap {
                match at {
                    Some((_, &seg_depth)) if seg_depth >= d => {
                        at = rightward.next();
                        match at {
                            Some((&next, _)) => hi = next,
                            None => break,
                        }
                    }
                    _ => break,
                }
            }
        }
        Some(Interval::from_ticks(lo, hi))
    }

    /// Visit every `(lo, hi, depth)` piece of the profile intersecting `window`.
    fn walk(&self, window: Interval, mut f: impl FnMut(i64, i64, usize)) {
        let (s, e) = (window.start().ticks(), window.end().ticks());
        let mut prev: Option<(i64, u32)> = self
            .segs
            .range(..=s)
            .next_back()
            .map(|(&k, &d)| (k.max(s), d));
        for (&k, &d) in self
            .segs
            .range((std::ops::Bound::Excluded(s), std::ops::Bound::Excluded(e)))
        {
            if let Some((lo, depth)) = prev {
                f(lo, k, depth as usize);
            }
            prev = Some((k, d));
        }
        if let Some((lo, depth)) = prev {
            if lo < e {
                f(lo, e, depth as usize);
            }
        }
    }
}

/// The change in covered length when the segment `[lo, hi)` moves from depth `old`
/// to depth `new`.
fn covered_change((lo, old, new): (i64, u32, u32), hi: i64) -> i64 {
    match (old > 0, new > 0) {
        (false, true) => hi - lo,
        (true, false) => lo - hi,
        _ => 0,
    }
}

/// A streaming depth profile for intervals arriving in non-decreasing start order —
/// the order in which an `Instance` stores its jobs, which makes this the engine of
/// schedule validation and costing: one pass over a schedule's assignment feeds each
/// machine's jobs into its own `SortedSweep`.
///
/// Maintains the span (union length, merging touching intervals like
/// [`union`](crate::union)) and the maximum simultaneous depth in `O(log d)` per push.
#[derive(Debug, Clone, Default)]
pub struct SortedSweep {
    /// Min-heap of the end times of intervals still active at the current front.
    active: std::collections::BinaryHeap<std::cmp::Reverse<i64>>,
    max_depth: usize,
    /// End of the current contiguous busy stretch.
    frontier: Option<i64>,
    busy: i64,
    count: usize,
    last_start: i64,
}

impl SortedSweep {
    /// An empty profile.
    pub fn new() -> Self {
        SortedSweep::default()
    }

    /// Number of intervals pushed so far.
    pub fn interval_count(&self) -> usize {
        self.count
    }

    /// Push the next interval.
    ///
    /// # Panics
    /// Debug builds panic when `iv` starts before a previously pushed interval.
    pub fn push(&mut self, iv: Interval) {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        debug_assert!(
            self.count == 0 || s >= self.last_start,
            "SortedSweep requires non-decreasing start order"
        );
        self.last_start = s;
        // Retire intervals that ended at or before the new start (half-open: an
        // interval ending exactly at `s` no longer overlaps).
        while let Some(&std::cmp::Reverse(end)) = self.active.peek() {
            if end <= s {
                self.active.pop();
            } else {
                break;
            }
        }
        self.active.push(std::cmp::Reverse(e));
        self.max_depth = self.max_depth.max(self.active.len());
        // Union maintenance: touching stretches merge.
        match self.frontier {
            Some(f) if s <= f => {
                if e > f {
                    self.busy += e - f;
                    self.frontier = Some(e);
                }
            }
            _ => {
                self.busy += e - s;
                self.frontier = Some(e);
            }
        }
        self.count += 1;
    }

    /// Maximum number of simultaneously active intervals seen so far.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of intervals active at the most recent front (after retiring the ones
    /// that ended before the last pushed start).
    pub fn current_depth(&self) -> usize {
        self.active.len()
    }

    /// Total union length of everything pushed so far.
    pub fn span(&self) -> Duration {
        Duration::new(self.busy)
    }
}

/// An ordered set of pairwise non-overlapping intervals — the occupancy of one thread
/// of execution of a machine — with logarithmic conflict tests and updates.
///
/// ```
/// use busytime_interval::{DisjointIntervalSet, Interval};
///
/// let mut thread = DisjointIntervalSet::new();
/// assert!(thread.insert(Interval::from_ticks(0, 4)));
/// assert!(thread.insert(Interval::from_ticks(4, 6)), "touching is allowed");
/// assert!(!thread.insert(Interval::from_ticks(3, 5)), "overlap is rejected");
/// assert_eq!(thread.interval_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisjointIntervalSet {
    /// start → end of each member; members are pairwise disjoint, so start order is
    /// also end order.
    map: BTreeMap<i64, i64>,
    total: i64,
}

impl DisjointIntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        DisjointIntervalSet::default()
    }

    /// Number of intervals in the set.
    pub fn interval_count(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set has no intervals.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total length of the members (disjoint, so also the covered length).
    pub fn total_len(&self) -> Duration {
        Duration::new(self.total)
    }

    /// Does any member overlap `iv` (intersection of positive length)?
    pub fn conflicts(&self, iv: Interval) -> bool {
        // The only candidate is the member with the largest start strictly before
        // iv's end; every earlier member ends at or before that one's start.
        self.map
            .range(..iv.end().ticks())
            .next_back()
            .is_some_and(|(_, &end)| end > iv.start().ticks())
    }

    /// Insert `iv` if it conflicts with no member; returns whether it was inserted.
    pub fn insert(&mut self, iv: Interval) -> bool {
        if self.conflicts(iv) {
            return false;
        }
        self.map.insert(iv.start().ticks(), iv.end().ticks());
        self.total += iv.len().ticks();
        true
    }

    /// Remove the exact interval `iv` from the set; returns whether it was a member.
    pub fn remove(&mut self, iv: Interval) -> bool {
        match self.map.get(&iv.start().ticks()) {
            Some(&end) if end == iv.end().ticks() => {
                self.map.remove(&iv.start().ticks());
                self.total -= iv.len().ticks();
                true
            }
            _ => false,
        }
    }

    /// The members in start order.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        self.map.iter().map(|(&s, &e)| Interval::from_ticks(s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::from_ticks(s, c)
    }

    #[test]
    fn profile_matches_hand_computation() {
        let set = [iv(0, 4), iv(1, 5), iv(2, 6), iv(10, 11)];
        let p = DepthProfile::new(&set);
        assert_eq!(p.max_depth(), 3);
        assert_eq!(p.span(), Duration::new(7));
        assert_eq!(p.depth_at(Time::new(3)), 3);
        assert_eq!(p.depth_at(Time::new(5)), 1);
        assert_eq!(p.depth_at(Time::new(6)), 0);
        assert_eq!(p.depth_at(Time::new(-1)), 0);
        assert_eq!(p.depth_at(Time::new(10)), 1);
        assert_eq!(p.depth_at(Time::new(11)), 0);
        assert_eq!(p.union(), vec![iv(0, 6), iv(10, 11)]);
        assert_eq!(
            p.per_depth_lengths(),
            vec![Duration::new(7), Duration::new(4), Duration::new(2)]
        );
    }

    #[test]
    fn profile_from_sorted_events_matches_new() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 7, 100] {
            let mut set: Vec<Interval> = (0..n)
                .map(|_| {
                    let s = (next() % 300) as i64;
                    iv(s, s + (next() % 40 + 1) as i64)
                })
                .collect();
            set.sort();
            let starts: Vec<i64> = set.iter().map(|v| v.start().ticks()).collect();
            let mut ends: Vec<i64> = set.iter().map(|v| v.end().ticks()).collect();
            ends.sort_unstable();
            assert_eq!(
                DepthProfile::from_sorted_events(&starts, &ends),
                DepthProfile::new(&set),
                "n = {n}"
            );
        }
    }

    #[test]
    fn profile_range_queries() {
        let set = [iv(0, 4), iv(2, 8)];
        let p = DepthProfile::new(&set);
        assert_eq!(p.range_max_depth(iv(0, 2)), 1);
        assert_eq!(p.range_max_depth(iv(1, 3)), 2);
        assert_eq!(p.range_max_depth(iv(8, 9)), 0);
        assert_eq!(p.covered_len(iv(-5, 20)), Duration::new(8));
        assert_eq!(p.covered_len(iv(3, 10)), Duration::new(5));
        assert_eq!(p.covered_len(iv(9, 12)), Duration::ZERO);
    }

    #[test]
    fn profile_touching_is_one_union_but_depth_one() {
        let set = [iv(0, 2), iv(2, 4)];
        let p = DepthProfile::new(&set);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(p.union(), vec![iv(0, 4)]);
    }

    #[test]
    fn empty_profile() {
        let p = DepthProfile::new(&[]);
        assert_eq!(p.max_depth(), 0);
        assert_eq!(p.span(), Duration::ZERO);
        assert!(p.union().is_empty());
        assert!(p.per_depth_lengths().is_empty());
        assert_eq!(p.depth_at(Time::new(0)), 0);
        assert_eq!(p.range_max_depth(iv(0, 10)), 0);
    }

    #[test]
    fn sweep_set_insert_remove_roundtrip() {
        let mut s = SweepSet::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(iv(0, 10)), Duration::new(10));
        assert_eq!(s.insert(iv(5, 15)), Duration::new(5));
        assert_eq!(s.insert(iv(20, 25)), Duration::new(5));
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.span(), Duration::new(20));
        assert_eq!(s.depth_at(Time::new(7)), 2);
        assert_eq!(s.range_max_depth(iv(16, 22)), 1);
        assert_eq!(s.covered_len(iv(8, 22)), Duration::new(9));
        assert!(s.overlaps(iv(14, 16)));
        assert!(!s.overlaps(iv(15, 20)), "gap between the stretches");

        assert_eq!(s.remove(iv(0, 10)), Duration::new(5));
        assert_eq!(s.max_depth(), 1);
        assert_eq!(s.span(), Duration::new(15));
        assert_eq!(s.interval_count(), 2);
        assert_eq!(s.remove(iv(5, 15)), Duration::new(10));
        assert_eq!(s.remove(iv(20, 25)), Duration::new(5));
        assert_eq!(s.span(), Duration::ZERO);
        assert_eq!(s.max_depth(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn sweep_set_marginal_cost_is_uncovered_length() {
        let mut s = SweepSet::new();
        s.insert(iv(0, 4));
        s.insert(iv(8, 12));
        // [2, 10) adds only the uncovered middle [4, 8).
        assert_eq!(s.insert(iv(2, 10)), Duration::new(4));
        assert_eq!(s.span(), Duration::new(12));
        assert_eq!(s.max_depth(), 2);
    }

    #[test]
    fn sweep_set_matches_profile_on_interleaved_updates() {
        let base = [iv(0, 6), iv(3, 9), iv(3, 4), iv(12, 20), iv(-4, 2)];
        let mut s = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for (i, &interval) in base.iter().enumerate() {
            s.insert(interval);
            live.push(interval);
            if i % 2 == 1 {
                let victim = live.remove(0);
                s.remove(victim);
            }
            let p = DepthProfile::new(&live);
            assert_eq!(s.max_depth(), p.max_depth(), "after step {i}");
            assert_eq!(s.span(), p.span(), "after step {i}");
            assert_eq!(s.interval_count(), live.len());
            let hull = live
                .iter()
                .map(|v| (v.start().ticks(), v.end().ticks()))
                .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))
                .map(|(a, b)| iv(a, b));
            assert_eq!(s.hull(), hull, "after step {i}");
        }
    }

    #[test]
    fn sweep_set_merges_touching_inserts_into_one_segment() {
        let mut s = SweepSet::new();
        s.insert(iv(0, 10));
        s.insert(iv(10, 20));
        assert_eq!(s.segment_count(), 1, "boundary 10 repeats depth 1");
        assert_eq!(s.depth_at(Time::new(10)), 1);
        // Growing a plateau from either side merges the same way.
        s.insert(iv(0, 5));
        s.insert(iv(5, 20));
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.max_depth(), 2);
        s.remove(iv(0, 10));
        assert_eq!(
            s.segment_count(),
            2,
            "[0,10) at depth 1, [10,20) at depth 2"
        );
        s.remove(iv(10, 20));
        s.remove(iv(0, 5));
        s.remove(iv(5, 20));
        assert_eq!(s.segment_count(), 0);
        assert_eq!(s.max_depth(), 0);
    }

    #[test]
    fn sweep_set_hull_tightens_under_removal() {
        let mut s = SweepSet::new();
        assert_eq!(s.hull(), None);
        s.insert(iv(0, 10));
        s.insert(iv(20, 30));
        assert_eq!(s.hull(), Some(iv(0, 30)));
        // Removing the left stretch shrinks the hull to the survivor — no high-water
        // mark survives.
        s.remove(iv(0, 10));
        assert_eq!(s.hull(), Some(iv(20, 30)));
        s.remove(iv(20, 30));
        assert_eq!(s.hull(), None);
    }

    #[test]
    fn widest_run_extends_beyond_window() {
        let mut s = SweepSet::new();
        // Depth-2 plateau on [2, 10), depth-1 elsewhere in [0, 14).
        s.insert(iv(0, 10));
        s.insert(iv(2, 14));
        s.insert(iv(2, 10));
        assert_eq!(s.range_max_depth(iv(2, 10)), 3);
        // Query a narrow window inside the plateau: the run's true extent comes back.
        assert_eq!(s.widest_run_at_least(3, iv(5, 6), 64), Some(iv(2, 10)));
        assert_eq!(s.widest_run_at_least(2, iv(5, 6), 64), Some(iv(2, 10)));
        assert_eq!(s.widest_run_at_least(1, iv(5, 6), 64), Some(iv(0, 14)));
        assert_eq!(s.widest_run_at_least(4, iv(0, 20), 64), None);
        assert_eq!(s.widest_run_at_least(3, iv(10, 20), 64), None);
        // Two runs in the window: the widest wins.
        let mut t = SweepSet::new();
        t.insert(iv(0, 3));
        t.insert(iv(0, 3));
        t.insert(iv(5, 11));
        t.insert(iv(5, 11));
        assert_eq!(t.widest_run_at_least(2, iv(0, 20), 64), Some(iv(5, 11)));
        assert_eq!(t.widest_run_at_least(2, iv(1, 2), 64), Some(iv(0, 3)));
    }

    #[test]
    fn sorted_sweep_tracks_span_and_depth() {
        let mut s = SortedSweep::new();
        for interval in [iv(0, 4), iv(1, 5), iv(2, 6), iv(10, 12)] {
            s.push(interval);
        }
        assert_eq!(s.max_depth(), 3);
        assert_eq!(s.span(), Duration::new(8));
        assert_eq!(s.current_depth(), 1);
        assert_eq!(s.interval_count(), 4);
    }

    #[test]
    fn sorted_sweep_touching_merges_span_not_depth() {
        let mut s = SortedSweep::new();
        s.push(iv(0, 2));
        s.push(iv(2, 4));
        assert_eq!(s.max_depth(), 1, "touching intervals never overlap");
        assert_eq!(s.span(), Duration::new(4), "but their busy stretch merges");
    }

    #[test]
    fn disjoint_set_conflicts_and_updates() {
        let mut t = DisjointIntervalSet::new();
        assert!(!t.conflicts(iv(0, 10)));
        assert!(t.insert(iv(0, 4)));
        assert!(t.insert(iv(6, 8)));
        assert!(t.conflicts(iv(3, 7)));
        assert!(t.conflicts(iv(-2, 1)));
        assert!(!t.conflicts(iv(4, 6)));
        assert!(!t.conflicts(iv(8, 20)));
        assert!(t.insert(iv(4, 6)));
        assert_eq!(t.total_len(), Duration::new(8));
        assert_eq!(t.interval_count(), 3);
        assert!(t.remove(iv(4, 6)));
        assert!(!t.remove(iv(4, 7)), "end must match exactly");
        assert_eq!(t.interval_count(), 2);
        let members: Vec<Interval> = t.iter().collect();
        assert_eq!(members, vec![iv(0, 4), iv(6, 8)]);
    }
}

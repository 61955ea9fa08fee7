//! Seeded inputs: per-tenant event streams for the daemon workloads and the
//! problem list of the offline workload.  Everything here is a pure function of the
//! seed, drawn with the `busytime-workload` generators.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use busytime::online::Event;
use busytime::{Duration, Interval, Problem};
use busytime_server::Request;
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, poisson_trace, proper_instance, seeded_rng,
    DurationModel,
};

/// Arrivals drawn per call to `poisson_trace`; the stream splices epochs end to end
/// so it never runs dry.
const EPOCH_JOBS: usize = 4096;

/// A never-ending Poisson arrival/departure stream for one tenant.
///
/// Arrivals come from `poisson_trace` in epochs of [`EPOCH_JOBS`] jobs, each epoch
/// seeded from `(seed, tenant, epoch)` and shifted to start where the previous one
/// stopped, with ids offset so they never repeat.  Departures are merged in at each
/// job's end, before arrivals at the same tick — the tie order `poisson_trace` uses —
/// so the live set is a steady-state Poisson queue rather than draining at epoch
/// boundaries.
#[derive(Debug, Clone)]
pub struct TenantStream {
    seed: u64,
    tenant: u64,
    capacity: usize,
    mean_gap: f64,
    durations: DurationModel,
    epoch: u64,
    offset: i64,
    arrivals: VecDeque<(u64, Interval)>,
    departures: BinaryHeap<Reverse<(i64, u64)>>,
}

impl TenantStream {
    /// The stream of tenant `tenant` under workload seed `seed`.
    pub fn new(
        seed: u64,
        tenant: u64,
        capacity: usize,
        mean_gap: f64,
        durations: DurationModel,
    ) -> Self {
        TenantStream {
            seed,
            tenant,
            capacity,
            mean_gap,
            durations,
            epoch: 0,
            offset: 0,
            arrivals: VecDeque::new(),
            departures: BinaryHeap::new(),
        }
    }

    fn refill(&mut self) {
        let epoch_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.tenant.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(self.epoch);
        let trace = poisson_trace(
            &mut seeded_rng(epoch_seed),
            EPOCH_JOBS,
            self.capacity,
            self.mean_gap,
            &self.durations,
        );
        let base = self.epoch * EPOCH_JOBS as u64;
        for event in trace.events {
            if let Event::Arrival { id, interval } = event {
                let start = interval.start().ticks() + self.offset;
                let end = interval.end().ticks() + self.offset;
                self.arrivals
                    .push_back((base + id, Interval::from_ticks(start, end)));
            }
        }
        self.offset = self
            .arrivals
            .back()
            .map_or(self.offset, |(_, iv)| iv.start().ticks());
        self.epoch += 1;
    }

    /// The next event of the stream.
    pub fn next_event(&mut self) -> Event {
        if self.arrivals.is_empty() {
            self.refill();
        }
        let &(id, interval) = self.arrivals.front().expect("an epoch holds arrivals");
        if let Some(&Reverse((end, departing))) = self.departures.peek() {
            if end <= interval.start().ticks() {
                self.departures.pop();
                return Event::departure(departing);
            }
        }
        self.arrivals.pop_front();
        self.departures.push(Reverse((interval.end().ticks(), id)));
        Event::arrival(id, interval)
    }
}

/// One request of a connection's plan: which of the connection's tenants it
/// addresses, the wire request, and the event it carries (`None` for a read).
pub struct Planned {
    /// Index into the connection's tenant list.
    pub slot: usize,
    /// The request to send.
    pub request: Request,
    /// The online event the request applies, if it is a write.
    pub event: Option<Event>,
}

/// The request stream of one connection: its tenants' event streams interleaved
/// round-robin, with every `read_every`-th request a `query` of the next tenant in
/// turn.
#[derive(Clone)]
pub struct ConnPlan {
    /// The tenant names this connection owns.
    pub tenants: Vec<String>,
    streams: Vec<TenantStream>,
    read_every: Option<u64>,
    issued: u64,
    next_write: usize,
    next_read: usize,
}

impl ConnPlan {
    /// A plan over `(name, stream)` pairs.
    pub fn new(tenants: Vec<(String, TenantStream)>, read_every: Option<u64>) -> Self {
        let (tenants, streams) = tenants.into_iter().unzip();
        ConnPlan {
            tenants,
            streams,
            read_every,
            issued: 0,
            next_write: 0,
            next_read: 0,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Planned {
        self.issued += 1;
        if self
            .read_every
            .is_some_and(|k| self.issued.is_multiple_of(k))
        {
            let slot = self.next_read;
            self.next_read = (slot + 1) % self.tenants.len();
            return Planned {
                slot,
                request: Request::Query {
                    tenant: self.tenants[slot].clone(),
                },
                event: None,
            };
        }
        let slot = self.next_write;
        self.next_write = (slot + 1) % self.tenants.len();
        let event = self.streams[slot].next_event();
        Planned {
            slot,
            request: Request::from_event(&self.tenants[slot], &event),
            event: Some(event),
        }
    }
}

/// One problem of the offline list, with the family it was drawn from.
pub struct OfflineProblem {
    /// Generator family (`general`, `proper`, `cloud`, `clique`, `large`,
    /// `throughput`, `certify`).
    pub family: &'static str,
    /// The problem handed to the solver.
    pub problem: Problem,
}

/// Counts of each family in the offline problem list.
pub const SMALL_PER_FAMILY: usize = 48;
/// Clique instances (clique set cover dominates their cost, so they are few).
pub const CLIQUES: usize = 12;
/// Large MinBusy instances.
pub const LARGE: usize = 8;
/// Jobs per large instance.
pub const LARGE_JOBS: usize = 20_000;
/// Branch-and-bound certifications.
pub const CERTIFY: usize = 12;

/// The offline workload's problem list for `seed`.
///
/// * small MinBusy instances of 60 jobs at g = 4 from four families (the shape of
///   the daemon's `batch` op);
/// * [`LARGE`] MinBusy instances of [`LARGE_JOBS`] jobs at g = 10;
/// * as many MaxThroughput instances as each small family, under a budget of 60% of their
///   Observation 2.1 lower bound;
/// * [`CERTIFY`] general instances of 30–60 jobs for branch-and-bound certification.
pub fn offline_problems(seed: u64) -> Vec<OfflineProblem> {
    let mut rng = seeded_rng(seed);
    let mut light = Vec::new();
    let mut heavy = Vec::new();
    let item = |family, problem| OfflineProblem { family, problem };
    for _ in 0..SMALL_PER_FAMILY {
        light.push(item(
            "general",
            Problem::min_busy(general_instance(&mut rng, 60, 4, 200, 40)),
        ));
        light.push(item(
            "proper",
            Problem::min_busy(proper_instance(&mut rng, 60, 4, 20, 5)),
        ));
        light.push(item(
            "cloud",
            Problem::min_busy(cloud_trace(&mut rng, 60, 4, 3, 1, 60)),
        ));
        let instance = general_instance(&mut rng, 60, 4, 200, 40);
        let budget = Duration::new(busytime::bounds::lower_bound(&instance).ticks() * 3 / 5);
        light.push(item(
            "throughput",
            Problem::max_throughput(instance, budget),
        ));
    }
    for _ in 0..CLIQUES {
        heavy.push(item(
            "clique",
            Problem::min_busy(clique_instance(&mut rng, 48, 4, 50)),
        ));
    }
    for _ in 0..LARGE {
        heavy.push(item(
            "large",
            Problem::min_busy(cloud_trace(&mut rng, LARGE_JOBS, 10, 2, 1, 400)),
        ));
    }
    for i in 0..CERTIFY {
        let n = 30 + 30 * i / (CERTIFY - 1);
        heavy.push(item(
            "certify",
            Problem::min_busy(general_instance(&mut rng, n, 3, 120, 30)),
        ));
    }
    // Spread the expensive problems evenly through the list, as a mixed batch would
    // have them, rather than bunching them into one worker's chunk.
    let stride = light.len() / heavy.len();
    let mut list = Vec::with_capacity(light.len() + heavy.len());
    let mut heavy = heavy.into_iter();
    for (i, problem) in light.into_iter().enumerate() {
        if i % stride == stride / 2 {
            list.extend(heavy.next());
        }
        list.push(problem);
    }
    list.extend(heavy);
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let tenants = (0..3)
            .map(|t| {
                let model = DurationModel::HeavyTail { min: 1, max: 500 };
                (format!("t{t}"), TenantStream::new(seed, t, 4, 1.5, model))
            })
            .collect();
        let mut plan = ConnPlan::new(tenants, Some(97));
        // Long enough to cross several epoch boundaries.
        for _ in 0..(3 * 2 * EPOCH_JOBS + 500) {
            bytes.extend(plan.next_request().request.to_json().into_bytes());
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn the_same_seed_gives_byte_identical_request_streams() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn the_same_seed_gives_identical_problem_lists() {
        let render = |seed| {
            offline_problems(seed)
                .iter()
                .map(|p| format!("{} {:?}", p.family, p.problem))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3), render(4));
    }

    #[test]
    fn streams_are_well_formed_across_epochs() {
        let model = DurationModel::Uniform { min: 10, max: 70 };
        let mut stream = TenantStream::new(1, 0, 4, 1.0, model);
        let mut live = std::collections::HashSet::new();
        let mut last_start = i64::MIN;
        for _ in 0..(4 * EPOCH_JOBS) {
            match stream.next_event() {
                Event::Arrival { id, interval } => {
                    assert!(interval.start().ticks() >= last_start);
                    last_start = interval.start().ticks();
                    assert!(live.insert(id), "id {id} arrived twice");
                }
                Event::Departure { id } => assert!(live.remove(&id), "id {id} not live"),
            }
        }
        // Steady state: tens of live jobs, never a drain to zero at epoch ends.
        assert!((10..200).contains(&live.len()), "{}", live.len());
    }
}

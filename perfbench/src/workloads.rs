//! The three workloads, their end-to-end measurements and correctness gates.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use busytime::par::{set_default_threads, ThreadPool};
use busytime::report::SimulationReport;
use busytime::{ExactBudget, Problem, ProblemKind, Solution, SolveError, Solver};
use busytime_server::{Client, Framing, Registry, Request, Response};
use busytime_workload::DurationModel;

use crate::daemon::{io_counter, peak_rss_mb, Daemon};
use crate::layers;
use crate::load::{run_loop, Conn, LoopResult, Sample, Stop, Tally};
use crate::stats::{median, percentile, tail};
use crate::streams::{offline_problems, ConnPlan, OfflineProblem, TenantStream};

/// Connections of every daemon workload.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
pub const DEPTH: usize = 16;
/// Shards of every daemon.
pub const SHARDS: usize = 2;
/// Daemon start-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Set-ups (list build and one warm-up pass) timed per `offline_solve` run.
pub const OFFLINE_SETUPS: usize = 5;
/// Kill-and-restart cycles of `durable_mixed`; `recovery_s` is their median.
pub const RESTARTS: usize = 3;
/// Solver threads of the offline workload.
pub const THREADS: usize = 2;
/// Node budget of each branch-and-bound certification.
pub const CERTIFY_NODES: u64 = 2_000;

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `busytime` binary.
    pub serve_bin: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub run_dir: PathBuf,
}

/// One reported figure.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured (percentile rank, sample count, ...).
    pub note: String,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or problems) attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report (reconciliation, environment).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }
}

/// A daemon workload's shape.
pub struct DaemonSpec {
    /// Workload name (also the tenant-name prefix).
    pub name: &'static str,
    /// Wire framing of the clients.
    pub framing: Framing,
    /// Machine capacity `g` of every tenant.
    pub g: usize,
    /// Tenants per connection (even).
    pub tenants_per_conn: usize,
    /// Mean inter-arrival gap of each tenant's Poisson stream.
    pub mean_gap: f64,
    /// Job durations.
    pub durations: DurationModel,
    /// Whether the daemon journals to a data directory (`--fsync-batch 64`).
    pub durable: bool,
    /// Every n-th request is a `query`.
    pub read_every: Option<u64>,
    /// Requests per connection before the measured window (fixed, so the
    /// checkpoint state is a pure function of the seed).
    pub warmup: u64,
    /// Events per tenant driven between the forced compaction and the kill
    /// (durable only), so recovery replays a fixed journal tail.
    pub tail: u64,
}

/// `wire_events`: arrive/depart over binary framing, tens of live jobs per tenant.
pub const WIRE_EVENTS: DaemonSpec = DaemonSpec {
    name: "wire_events",
    framing: Framing::Binary,
    g: 4,
    tenants_per_conn: 8,
    mean_gap: 1.0,
    durations: DurationModel::Uniform { min: 10, max: 70 },
    durable: false,
    read_every: None,
    warmup: 40_000,
    tail: 0,
};

/// `durable_mixed`: NDJSON writes journaled with fsync batch 64, plus `query` reads.
pub const DURABLE_MIXED: DaemonSpec = DaemonSpec {
    name: "durable_mixed",
    framing: Framing::Ndjson,
    g: 10,
    tenants_per_conn: 2,
    mean_gap: 1.0,
    durations: DurationModel::HeavyTail {
        min: 1,
        max: 20_000,
    },
    durable: true,
    read_every: Some(1024),
    warmup: 80_000,
    tail: 2_000,
};

impl DaemonSpec {
    /// The event stream of the tenant with global index `index`.
    pub fn stream(&self, seed: u64, index: usize) -> TenantStream {
        TenantStream::new(seed, index as u64, self.g, self.mean_gap, self.durations)
    }

    /// Tenant names per connection: half of each connection's tenants hash to each
    /// shard.  The names do not depend on the seed, so the shard balance is the
    /// same on every run.
    pub fn tenant_names(&self) -> Vec<Vec<String>> {
        let half = self.tenants_per_conn / 2;
        let registry = Registry::new(SHARDS);
        let engine = registry.engine();
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); SHARDS];
        let mut i = 0;
        while by_shard
            .iter()
            .any(|names| names.len() < half * CONNECTIONS)
        {
            let name = format!("{}-{i}", self.name);
            let shard = engine.shard_for(&name);
            if by_shard[shard].len() < half * CONNECTIONS {
                by_shard[shard].push(name);
            }
            i += 1;
        }
        drop(engine);
        registry.shutdown();
        (0..CONNECTIONS)
            .map(|c| {
                (0..half)
                    .flat_map(|j| {
                        by_shard
                            .iter()
                            .map(move |names| names[c * half + j].clone())
                    })
                    .collect()
            })
            .collect()
    }

    /// A fresh plan per connection (tenant streams indexed globally).
    pub fn plans(&self, seed: u64, names: &[Vec<String>]) -> Vec<ConnPlan> {
        names
            .iter()
            .enumerate()
            .map(|(c, names)| {
                let tenants = names
                    .iter()
                    .enumerate()
                    .map(|(j, name)| {
                        (
                            name.clone(),
                            self.stream(seed, c * self.tenants_per_conn + j),
                        )
                    })
                    .collect();
                ConnPlan::new(tenants, self.read_every)
            })
            .collect()
    }

    fn serve_args(&self, data_dir: &Path) -> Vec<String> {
        let mut args = vec!["--shards".to_string(), SHARDS.to_string()];
        if self.durable {
            args.extend([
                "--data-dir".to_string(),
                data_dir.display().to_string(),
                "--fsync-batch".to_string(),
                "64".to_string(),
            ]);
        }
        args
    }
}

/// Time slices a measured window is cut into.  Rates and latency percentiles are
/// computed per slice and reported as the median over the slices in which the
/// host's hypervisor took the least CPU time away (steal time, from
/// `/proc/stat`): the host's CPUs are shared, and a slice in which another machine
/// held them measures the neighbour rather than this program.
pub const SLICES: usize = 40;
/// Slices the reported figures rest on.
pub const CLEAN_SLICES: usize = 10;

/// Indices of the slices with the least steal time: the [`CLEAN_SLICES`] least, and
/// every slice tied with the last of them (on a quiet host, every slice).
fn clean_slices(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted[CLEAN_SLICES.min(sorted.len()) - 1];
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// The median of per-slice figures over the clean slices.
fn over_clean(values: &[f64], clean: &[usize]) -> f64 {
    median(&clean.iter().map(|&i| values[i]).collect::<Vec<_>>())
}

/// Sorted latencies in microseconds.
fn sorted_us(samples: &[Sample]) -> Vec<f64> {
    let mut us: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The samples of each of [`SLICES`] equal slices of a `secs`-long window, by
/// completion time.
fn slices(samples: &[Sample], secs: f64) -> Vec<Vec<Sample>> {
    let width = secs * 1e6 / SLICES as f64;
    let mut out = vec![Vec::new(); SLICES];
    for s in samples {
        let i = (s.done_us as f64 / width) as usize;
        out[i.min(SLICES - 1)].push(*s);
    }
    out
}

/// Run a daemon workload.  A traced run also probes the solver layers on the
/// tenants' sampled arrivals when `solver_probe` is set.
pub fn run_daemon(spec: &DaemonSpec, ctx: &Ctx, solver_probe: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data_dir = ctx.run_dir.join("data");
    let args = spec.serve_args(&data_dir);

    // Set-up: start the daemon several times (each on a fresh data directory) and
    // keep the last one.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        drop(daemon.take());
        let _ = std::fs::remove_dir_all(&data_dir);
        let log = ctx.run_dir.join(format!("serve{i}.log"));
        let (d, secs, response) =
            Daemon::spawn_timed(&ctx.serve_bin, &args, &log, &Request::Stats)?;
        out.tally.attempted += 1;
        if !response.is_ok() {
            out.tally
                .fail(format!("stats at start-up: {}", response.to_json()));
        }
        setups.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one start-up");

    let names = spec.tenant_names();
    let conns = spec
        .plans(ctx.seed, &names)
        .into_iter()
        .map(|plan| Conn::open(&daemon.addr, spec.framing, plan, spec.g))
        .collect::<Result<Vec<_>, _>>()?;

    let self_io = "/proc/self/io";
    let mut io_start = (0u64, 0u64);
    let mut rss = Err(String::new());
    let window_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut result = run_loop(
        conns,
        DEPTH,
        spec.warmup,
        window_secs,
        false,
        SLICES,
        || {
            io_start = (
                daemon.wchar().unwrap_or(0),
                io_counter(self_io, "rchar").unwrap_or(0),
            );
            rss = daemon.peak_rss_mb();
        },
    )?;
    let io_end = (daemon.wchar()?, io_counter(self_io, "rchar")?);
    let answered = (result.window.writes.len() + result.window.reads.len()) as f64;
    let req_per_s = answered / result.secs;

    if ctx.trace {
        // Second half of the window with client-side spans on: the difference
        // in throughput is the tracing overhead.
        let traced = run_loop(
            std::mem::take(&mut result.conns),
            DEPTH,
            0,
            window_secs,
            true,
            SLICES,
            || {},
        )?;
        let traced_rate =
            (traced.window.writes.len() + traced.window.reads.len()) as f64 / traced.secs;
        let n = traced.window.writes.len() + traced.window.reads.len();
        out.put(
            "trace.overhead_frac",
            1.0 - traced_rate / req_per_s,
            "ratio",
            format!("untraced {req_per_s:.0} req/s, traced {traced_rate:.0} req/s"),
        );
        out.put(
            "client.send_ns",
            traced.window.send_ns as f64 / n as f64,
            "ns",
            format!("n={n}"),
        );
        out.put(
            "client.replay_ns",
            traced.window.replay_ns as f64 / n as f64,
            "ns",
            format!("n={n}"),
        );
        result.conns = traced.conns;
    } else {
        let all: Vec<Sample> = result
            .window
            .writes
            .iter()
            .chain(&result.window.reads)
            .copied()
            .collect();
        let rates: Vec<f64> = slices(&all, result.secs)
            .iter()
            .map(|s| s.len() as f64 * SLICES as f64 / result.secs)
            .collect();
        let (mut p50s, mut tails, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
        for slice in slices(&result.window.writes, result.secs) {
            let us = sorted_us(&slice);
            let t = tail(&us, 99.0).ok_or("too few writes in a slice for a tail percentile")?;
            p50s.push(percentile(&us, 50.0));
            tails.push(t.value);
            ranks.push(format!("p{}/n={}", t.rank, t.samples));
        }
        let clean = clean_slices(&result.steal);
        let steal = over_clean(&result.steal, &clean) * 100.0;
        let basis = format!(
            "median over the {} of {SLICES} slices with least steal ({steal:.1}%)",
            clean.len()
        );
        out.put(
            "req_per_s",
            over_clean(&rates, &clean),
            "1/s",
            format!("{basis}; {answered} answered in the window"),
        );
        out.put(
            "latency_p50_us",
            over_clean(&p50s, &clean),
            "us",
            format!("{basis} of the slice p50"),
        );
        let ranks: Vec<&str> = clean.iter().map(|&i| ranks[i].as_str()).collect();
        out.put(
            "latency_p99_us",
            over_clean(&tails, &clean),
            "us",
            format!("{basis} of the slice tail: {}", ranks.join(" ")),
        );
        if spec.read_every.is_some() {
            let reads = sorted_us(&result.window.reads);
            if reads.is_empty() {
                return Err("no reads in the window".into());
            }
            out.lines.push(format!(
                "durable read_p50_us = {} us (query latency p50, n={})",
                percentile(&reads, 50.0),
                reads.len()
            ));
        }
        if spec.durable {
            let writes = result.window.writes.len() as f64;
            let disk = (io_end.0 - io_start.0) as f64 - (io_end.1 - io_start.1) as f64;
            out.lines.push(format!(
                "durable disk_bytes_per_write = {} B (daemon wchar minus response bytes, over {writes} writes)",
                disk / writes
            ));
        }
        out.put(
            "peak_rss_mb",
            rss?,
            "MiB",
            format!("daemon VmHWM after the {}-request warm-up", spec.warmup),
        );
        let (cost, bound) = result.checkpoint;
        out.put(
            "cost_to_lb",
            cost as f64 / bound as f64,
            "ratio",
            format!(
                "sum cost {cost} / sum bound {bound} over {} checkpoints of the {}-request warm-up",
                crate::load::CHECKPOINTS,
                spec.warmup
            ),
        );
    }
    if !ctx.trace {
        out.put(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {SETUP_REPEATS} start-ups"),
        );
    }

    let mut layer_input = layers::DaemonLayers {
        spec,
        ctx,
        names: &names,
        rtt: Vec::new(),
        query: String::new(),
        solver_probe,
    };
    if ctx.trace {
        // Unloaded round trips (depth 1, one connection) for the reconciliation.
        let conn = &mut result.conns[0];
        for _ in 0..2000 {
            layer_input.rtt.push(conn.lockstep()? as f64 / 1e3);
        }
        // One `query` reply, as the daemon sends it, for the read-path codec.
        let tenant = conn.tenants()[0].clone();
        let mut control = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
        out.tally.attempted += 1;
        let response = control.call(&Request::Query {
            tenant: tenant.clone(),
        })?;
        if let Err(e) = crate::load::check_response(&mut conn.shadows[0], None, &response) {
            out.tally.fail(format!("{tenant} query: {e}"));
        }
        layer_input.query = response.to_json();
    }

    if spec.durable {
        restart_check(spec, ctx, daemon, &args, &mut result, &mut out)?;
    } else {
        daemon.kill();
    }
    for conn in &result.conns {
        out.tally.merge(&conn.tally);
    }
    if ctx.trace {
        layers::daemon_layers(&layer_input, &mut out)?;
    }
    Ok(out)
}

/// The comparable part of a `query` report: everything but the trajectory window.
fn report_key(r: &SimulationReport) -> String {
    format!(
        "{} g={} events={} arrivals={} departures={} cost={} peak={} machines={} live={} groups={:?}",
        r.policy,
        r.capacity,
        r.events,
        r.arrivals,
        r.departures,
        r.final_cost,
        r.peak_cost,
        r.machines_opened,
        r.live_jobs,
        r.machine_groups
    )
}

/// `durable_mixed`'s ending: compact every tenant, drive a fixed journal tail,
/// read every tenant, kill the daemon, restart it on the same directory, and check
/// that every tenant reads back the same (replay ≡ uninterrupted).
fn restart_check(
    spec: &DaemonSpec,
    ctx: &Ctx,
    daemon: Daemon,
    args: &[String],
    result: &mut LoopResult,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut control = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let tenants: Vec<String> = result
        .conns
        .iter()
        .flat_map(|c| c.tenants().to_vec())
        .collect();
    for tenant in &tenants {
        out.tally.attempted += 1;
        let response = control.call(&Request::Persist {
            tenant: tenant.clone(),
        })?;
        if !matches!(response, Response::Wal(_)) {
            out.tally
                .fail(format!("persist {tenant}: {}", response.to_json()));
        }
    }
    let per_conn = spec.tail * spec.tenants_per_conn as u64;
    for conn in &mut result.conns {
        conn.pump(DEPTH, Stop::Count(per_conn), None, false)?;
    }
    let mut before = Vec::new();
    for conn in &mut result.conns {
        for (slot, tenant) in conn.tenants().to_vec().iter().enumerate() {
            out.tally.attempted += 1;
            let response = control.call(&Request::Query {
                tenant: tenant.clone(),
            })?;
            if let Err(e) = crate::load::check_response(&mut conn.shadows[slot], None, &response) {
                out.tally.fail(format!("{tenant} before the kill: {e}"));
            }
            match response {
                Response::Query(report) => before.push(report),
                other => return Err(format!("query {tenant}: {}", other.to_json())),
            }
        }
    }
    drop(control);
    daemon.kill();
    // Restart on the same directory several times: each start recovers the same
    // snapshots and journal tails.
    let first = Request::Query {
        tenant: tenants[0].clone(),
    };
    let mut recoveries = Vec::new();
    for restart in 0..RESTARTS {
        let log = ctx.run_dir.join(format!("restart{restart}.log"));
        let (daemon, secs, _) = Daemon::spawn_timed(&ctx.serve_bin, args, &log, &first)?;
        recoveries.push(secs);
        let mut control = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
        for (tenant, before) in tenants.iter().zip(&before) {
            out.tally.attempted += 1;
            match control.call(&Request::Query {
                tenant: tenant.clone(),
            })? {
                Response::Query(after) => {
                    let suffix = before.cost_trajectory.ends_with(&after.cost_trajectory);
                    if report_key(&after) != report_key(before) || !suffix {
                        out.tally.fail(format!(
                            "{tenant} after restart: {} != {} (trajectory suffix: {suffix})",
                            report_key(&after),
                            report_key(before)
                        ));
                    }
                }
                other => out
                    .tally
                    .fail(format!("{tenant} after restart: {}", other.to_json())),
            }
        }
        daemon.kill();
    }
    if !ctx.trace {
        out.lines.push(format!(
            "durable recovery_s = {} s (restart to first answered query, median of {RESTARTS} restarts, {} tenants)",
            median(&recoveries),
            tenants.len()
        ));
    }
    Ok(())
}

/// The two solvers of the offline workload.
pub struct Solvers {
    /// Default dispatch (what the daemon's `batch` op runs).
    pub heuristic: Solver,
    /// Exactness required, branch-and-bound under a fixed node budget.
    pub exact: Solver,
}

impl Solvers {
    /// Build both solvers.
    pub fn new() -> Self {
        Solvers {
            heuristic: Solver::new(),
            exact: Solver::builder()
                .require_exact(true)
                .exact_oracle(busytime_exact::oracle())
                .exact_budget(ExactBudget {
                    max_nodes: CERTIFY_NODES,
                    max_millis: None,
                })
                .build(),
        }
    }
}

/// One pass over the problem list: every problem through the default solver, the
/// certification problems also through the exact one.
pub type Pass = (
    Vec<Result<Solution, SolveError>>,
    Vec<Result<Solution, SolveError>>,
);

/// How a certification bracket is held against the default solver's cost.
#[derive(Clone, Copy, PartialEq)]
pub enum Bracket {
    /// `LB ≤ lower ≤ upper ≤ heuristic`: the offline list's dense instances are one
    /// connected component each, where the branch-and-bound warm start is the
    /// heuristic's own first-fit schedule.
    UpperWithinHeuristic,
    /// `LB ≤ lower ≤ upper` and `lower ≤ heuristic`.  Branch and bound warm-starts
    /// each connected component on its own, so on a sparse instance its incumbent
    /// can cost more than first-fit over the whole instance.
    LowerWithinHeuristic,
}

/// Check one pass: every schedule valid with LB ≤ cost (MinBusy) or within budget
/// (MaxThroughput), and every certification bracket as `bracket` says.  Returns
/// Σ cost and Σ LB over the MinBusy problems, and how many brackets' upper ends
/// lie above the heuristic's cost.
pub fn check_pass(
    list: &[OfflineProblem],
    pass: &Pass,
    bracket: Bracket,
    tally: &mut Tally,
) -> (i64, i64, usize) {
    let (heuristic, exact) = pass;
    let mut sums = (0i64, 0i64);
    let mut above = 0;
    let mut certified = exact.iter();
    for (i, (p, result)) in list.iter().zip(heuristic).enumerate() {
        tally.attempted += 1;
        let instance = p.problem.instance();
        let lb = busytime::bounds::lower_bound(instance).ticks();
        let solution = match result {
            Ok(s) => s,
            Err(e) => {
                tally.fail(format!("problem {i} ({}): {e}", p.family));
                continue;
            }
        };
        let cost = solution.objective.cost().ticks();
        let valid = match p.problem.kind() {
            ProblemKind::MinBusy => {
                sums = (sums.0 + cost, sums.1 + lb);
                solution.schedule.validate_complete(instance).is_ok() && lb <= cost
            }
            _ => {
                let budget = p
                    .problem
                    .budget()
                    .expect("throughput problems carry a budget");
                solution
                    .schedule
                    .validate_budgeted(instance, budget)
                    .is_ok()
            }
        };
        if !valid {
            tally.fail(format!(
                "problem {i} ({}): invalid schedule or cost {cost} < LB {lb}",
                p.family
            ));
        }
        if p.family == "certify" {
            tally.attempted += 1;
            let pair = match certified.next() {
                Some(Ok(s)) => Some((s.objective.cost().ticks(), s.objective.cost().ticks())),
                Some(Err(SolveError::BudgetExhausted { lower, upper, .. })) => {
                    Some((lower.ticks(), upper.ticks()))
                }
                _ => None,
            };
            let sound =
                |&(lower, upper): &(i64, i64)| lb <= lower && lower <= upper && lower <= cost;
            match pair {
                Some(p)
                    if sound(&p) && (p.1 <= cost || bracket == Bracket::LowerWithinHeuristic) =>
                {
                    above += usize::from(p.1 > cost);
                }
                other => tally.fail(format!(
                    "certification {i}: bracket {other:?} vs LB {lb}, heuristic {cost}"
                )),
            }
        }
    }
    (sums.0, sums.1, above)
}

/// One pass over the list as `solve_batch` runs it (the default pool at
/// [`THREADS`]), with each problem's solve timed inside its worker: the default
/// solver over every problem, the exact one over the certification problems.
/// Returns the pass and every problem's latency in seconds.
pub fn solve_pass(
    solvers: &Solvers,
    problems: &[Problem],
    certify: &[Problem],
) -> (Pass, Vec<f64>) {
    let (heuristic, exact) = (
        timed_batch(&solvers.heuristic, problems),
        timed_batch(&solvers.exact, certify),
    );
    let latencies = heuristic
        .iter()
        .chain(&exact)
        .map(|(secs, _)| *secs)
        .collect();
    let results = |timed: Vec<(f64, Result<Solution, SolveError>)>| {
        timed.into_iter().map(|(_, r)| r).collect()
    };
    ((results(heuristic), results(exact)), latencies)
}

/// `Solver::solve_batch`'s body with a clock read around each solve.
pub fn timed_batch(
    solver: &Solver,
    problems: &[Problem],
) -> Vec<(f64, Result<Solution, SolveError>)> {
    ThreadPool::with_default_parallelism().map(problems, |p| {
        let t = Instant::now();
        let r = solver.solve(p);
        (t.elapsed().as_secs_f64(), r)
    })
}

/// `offline_solve`'s request-path probe: a short `wire_events`-shaped stream from
/// the same seed, so its traced run reports the daemon layers too.
pub const OFFLINE_PROBE: DaemonSpec = DaemonSpec {
    name: "offline_solve",
    warmup: 10_000,
    ..WIRE_EVENTS
};
/// Seconds of the probe's window (half untraced, half traced).
const PROBE_SECONDS: f64 = 2.0;

/// Run `offline_solve`.
pub fn run_offline(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    set_default_threads(THREADS);
    // Set-up: build the list and the solvers, and solve the list once to warm the
    // caches and the pool.  A list build alone takes ~6 ms and reads either ~5 or
    // ~7.5 ms depending on the process, so it is no steady figure on its own.
    let mut setups = Vec::new();
    let mut list = Vec::new();
    let (mut problems, mut certify) = (Vec::new(), Vec::new());
    let mut solvers = Solvers::new();
    for _ in 0..OFFLINE_SETUPS {
        let started = Instant::now();
        list = offline_problems(ctx.seed);
        problems = list.iter().map(|p| p.problem.clone()).collect();
        certify = list
            .iter()
            .filter(|p| p.family == "certify")
            .map(|p| p.problem.clone())
            .collect();
        solvers = Solvers::new();
        std::hint::black_box(solve_pass(&solvers, &problems, &certify));
        setups.push(started.elapsed().as_secs_f64());
    }

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (mut walls, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let families: Vec<&str> = list
        .iter()
        .map(|p| p.family)
        .chain(certify.iter().map(|_| "certify-exact"))
        .collect();
    let mut by_family: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut quality = (0, 0, 0);
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let (pass, times) = solve_pass(&solvers, &problems, &certify);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(times.len() as f64 / wall);
        latencies.extend(times.iter().map(|secs| secs * 1e6));
        for (family, secs) in families.iter().zip(&times) {
            by_family.entry(family).or_default().push(secs * 1e6);
        }
        quality = check_pass(&list, &pass, Bracket::UpperWithinHeuristic, &mut out.tally);
    }
    if ctx.trace {
        layers::offline_layers(&list, &solvers, median(&walls), budget, &mut out)?;
        let probe_ctx = Ctx {
            seed: ctx.seed,
            seconds: PROBE_SECONDS,
            trace: true,
            serve_bin: ctx.serve_bin.clone(),
            run_dir: ctx.run_dir.join("probe"),
        };
        std::fs::create_dir_all(&probe_ctx.run_dir).map_err(|e| e.to_string())?;
        let probe = run_daemon(&OFFLINE_PROBE, &probe_ctx, false)?;
        out.tally.merge(&probe.tally);
        // The tracing overhead is the solver passes', not the probe's.
        out.metrics.extend(
            probe
                .metrics
                .into_iter()
                .filter(|m| m.name != "trace.overhead_frac"),
        );
        out.lines.extend(probe.lines);
        return Ok(out);
    }
    out.put(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {OFFLINE_SETUPS} list builds, each with one warm-up pass"),
    );
    out.put(
        "req_per_s",
        median(&rates),
        "1/s",
        format!(
            "problems solved per second, median of {} passes over {} problems (pass wall median {:.4} s)",
            walls.len(),
            list.len() + certify.len(),
            median(&walls)
        ),
    );
    out.lines.push(format!(
        "latency by family (us, median / max): {}",
        by_family
            .iter()
            .map(|(family, us)| {
                let max = us.iter().copied().fold(0.0, f64::max);
                format!("{family} {:.1} / {max:.1}", median(us))
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    latencies.sort_by(f64::total_cmp);
    let t = tail(&latencies, 99.0).ok_or("too few solves for a tail percentile")?;
    out.put(
        "latency_p50_us",
        percentile(&latencies, 50.0),
        "us",
        format!("per-problem solve time, n={}", latencies.len()),
    );
    out.put(
        "latency_p99_us",
        t.value,
        "us",
        format!("per-problem solve time, p{}/n={}", t.rank, t.samples),
    );
    out.put(
        "cost_to_lb",
        quality.0 as f64 / quality.1 as f64,
        "ratio",
        format!(
            "sum cost {} / sum LB {} over MinBusy problems",
            quality.0, quality.1
        ),
    );
    out.put(
        "peak_rss_mb",
        peak_rss_mb("/proc/self/status")?,
        "MiB",
        "benchmark process VmHWM".into(),
    );
    Ok(out)
}

/// Time `f` over the problems in a fixed order, sequentially, per problem.
pub fn timed_solves(
    solver: &Solver,
    problems: &[Problem],
) -> Vec<(f64, Result<Solution, SolveError>)> {
    problems
        .iter()
        .map(|p| {
            let t = Instant::now();
            let r = solver.solve(p);
            (t.elapsed().as_secs_f64(), r)
        })
        .collect()
}

/// [`timed_batch`]'s wall time and the sum of its per-problem solve times.
pub fn traced_batch(solver: &Solver, problems: &[Problem]) -> (f64, f64) {
    let t = Instant::now();
    let times = timed_batch(solver, problems);
    (
        t.elapsed().as_secs_f64(),
        times.iter().map(|(secs, _)| secs).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime::{Duration, Instance};

    #[test]
    fn a_bracket_above_the_heuristic_fails_only_where_the_warm_start_is_the_heuristic() {
        // Two components: first-fit over the whole instance can share machines
        // across them, branch and bound warm-starts each on its own.
        let instance = Instance::from_ticks(&[(0, 4), (2, 6), (10, 14), (12, 16)], 2);
        let lb = busytime::bounds::lower_bound(&instance).ticks();
        let list = vec![OfflineProblem {
            family: "certify",
            problem: Problem::min_busy(instance),
        }];
        let heuristic = Solvers::new().heuristic.solve(&list[0].problem);
        let cost = heuristic.as_ref().unwrap().objective.cost().ticks();
        let algorithm = heuristic.as_ref().unwrap().algorithm;
        let pass = |lower: i64, upper: i64| -> Pass {
            let exhausted = SolveError::BudgetExhausted {
                algorithm,
                lower: Duration::new(lower),
                upper: Duration::new(upper),
                nodes: 1,
            };
            (vec![heuristic.clone()], vec![Err(exhausted)])
        };
        let failures = |pass: &Pass, bracket| {
            let mut tally = Tally::default();
            let (_, _, above) = check_pass(&list, pass, bracket, &mut tally);
            (tally.failed, above)
        };
        let sound = pass(lb, cost);
        assert_eq!(failures(&sound, Bracket::UpperWithinHeuristic), (0, 0));
        let upper_above = pass(lb, cost + 1);
        assert_eq!(failures(&upper_above, Bracket::UpperWithinHeuristic).0, 1);
        assert_eq!(
            failures(&upper_above, Bracket::LowerWithinHeuristic),
            (0, 1)
        );
        // A lower end above the heuristic's cost, or below the bound, is unsound.
        for unsound in [pass(cost + 1, cost + 1), pass(lb - 1, cost)] {
            assert_eq!(failures(&unsound, Bracket::LowerWithinHeuristic).0, 1);
            assert_eq!(failures(&unsound, Bracket::UpperWithinHeuristic).0, 1);
        }
    }
}

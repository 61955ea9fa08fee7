//! # busytime-cli
//!
//! Library backing the `busytime` command-line tool: a JSON on-disk instance format plus
//! the sub-commands (`solve`, `bound`, `throughput`, `batch`, `simulate`, `generate`,
//! `serve`, `client`, `fsck`) implemented as plain functions so that they can be unit-tested
//! without spawning processes.
//!
//! The solving sub-commands go through the unified [`busytime::Solver`] facade, so they
//! accept the same policy flags: `--algorithm NAME` forces a specific algorithm (a typed
//! error is reported when it does not apply) and `--exact-only` restricts dispatch to
//! provably optimal algorithms — with the `busytime-exact` oracle installed, instances
//! outside every polynomial exact class route to the subset DP (≤ 22 jobs) or
//! branch-and-bound instead of failing.  `bound` proves a `lower ≤ OPT ≤ upper`
//! bracket under a configurable search budget and prints the relative gap.  `batch` solves a whole file of instances through
//! [`busytime::Solver::solve_batch`] on the work-stealing thread pool; `--threads N`
//! pins the pool size (the default is one worker per core).  `simulate` replays an
//! online event trace through [`busytime::OnlineScheduler::run`] and reports the
//! per-event cost trajectory plus the final live schedule.  `fsck` audits a
//! durability data directory with the record decoder server recovery uses.
//!
//! ```text
//! busytime generate --class proper-clique --jobs 50 --capacity 4 --seed 7 --output inst.json
//! busytime solve inst.json
//! busytime solve inst.json --algorithm best-cut
//! busytime throughput inst.json --budget 1200 --exact-only
//! busytime batch instances.json --threads 4 --output results.json
//! busytime simulate trace.json --policy best-fit --output sim.json
//! busytime serve --addr 127.0.0.1:7878 --shards 4
//! busytime client trace.json --addr 127.0.0.1:7878 --tenant acme --policy best-fit
//! ```
//!
//! `serve` runs the `busytime-server` daemon (see `PROTOCOL.md` for the wire format);
//! `client` drives a trace file against a running daemon and reports the same
//! [`SimulationReport`] schema `simulate` produces locally, which is what makes the
//! two directly comparable (the CI smoke asserts it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use busytime::analysis::ScheduleSummary;
use busytime::online::{Defrag, Event, OnlinePolicy, OnlineScheduler, Trace};
use busytime::par::ThreadPool;
use busytime::report::{ScheduleReport, SimulationReport};
use busytime::{
    Algorithm, Duration, ExactBudget, Instance, Interval, Problem, SolveError, Solver, Time,
};
use busytime_server::JournalRecord;
use busytime_workload as workload;
use serde::{Deserialize, Serialize};

/// The on-disk JSON representation of an instance.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct InstanceFile {
    /// The parallelism parameter `g`.
    pub capacity: usize,
    /// Jobs as `[start, completion]` tick pairs.
    pub jobs: Vec<(i64, i64)>,
}

impl InstanceFile {
    /// Convert the file representation into a library instance.
    ///
    /// Malformed files — an empty or reversed job, or a zero capacity — come back as
    /// the library's typed [`busytime::Error`] (pointing at the offending job record)
    /// rather than a panic or a stringly-typed message; callers render it at the
    /// process boundary.
    pub fn to_instance(&self) -> Result<Instance, busytime::Error> {
        Instance::try_from_ticks(&self.jobs, self.capacity)
    }

    /// Build the file representation from a library instance.
    pub fn from_instance(instance: &Instance) -> Self {
        InstanceFile {
            capacity: instance.capacity(),
            jobs: instance
                .jobs()
                .iter()
                .map(|iv| (iv.start().ticks(), iv.end().ticks()))
                .collect(),
        }
    }

    /// Parse from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid instance JSON: {e}"))
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("instance files always serialize")
    }
}

/// Result of a CLI command: text for stdout plus an optional file payload.
#[derive(Debug, Clone)]
pub struct CommandOutput {
    /// Human-readable report printed to stdout.
    pub report: String,
    /// JSON payload written to `--output`, when requested.
    pub file_payload: Option<String>,
}

/// Solve-policy options shared by the `solve` and `throughput` sub-commands.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Force this algorithm instead of auto-dispatching (`--algorithm NAME`).
    pub algorithm: Option<Algorithm>,
    /// Restrict dispatch to provably optimal algorithms (`--exact-only`).
    pub exact_only: bool,
}

impl SolveOptions {
    fn solver(&self) -> Solver {
        // The exact oracle is always installed: under `--exact-only` a MinBusy
        // instance outside every polynomial exact class routes to the subset DP or
        // branch-and-bound instead of failing, and `--algorithm exact-subset-dp` /
        // `exact-bnb` can be forced explicitly.
        let mut builder = Solver::builder()
            .require_exact(self.exact_only)
            .exact_oracle(busytime_exact::oracle());
        if let Some(algorithm) = self.algorithm {
            builder = builder.force_algorithm(algorithm);
        }
        builder.build()
    }
}

/// `busytime solve`: MinBusy through the [`Solver`] facade.
pub fn run_solve(file: &InstanceFile, options: &SolveOptions) -> Result<CommandOutput, String> {
    let instance = file.to_instance().map_err(|e| e.to_string())?;
    let solution = options
        .solver()
        .solve(&Problem::min_busy(instance.clone()))
        .map_err(|e| e.to_string())?;
    solution
        .schedule
        .validate_complete(&instance)
        .map_err(|e| e.to_string())?;
    let summary = ScheduleSummary::new(&instance, &solution.schedule);
    let guarantee = match solution.guarantee {
        Some(g) => format!("guarantee {g:.3}"),
        None => "no proven guarantee".to_string(),
    };
    let report = format!("MinBusy ({}, {guarantee}): {summary}", solution.algorithm);
    let payload = ScheduleReport::from_solution(&instance, &solution);
    Ok(CommandOutput {
        report,
        file_payload: Some(serde_json::to_string_pretty(&payload).expect("serializable")),
    })
}

/// JSON payload of `busytime bound`: the proven bracket on the MinBusy optimum.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BoundReport {
    /// Job count of the instance.
    pub jobs: usize,
    /// The parallelism parameter `g`.
    pub capacity: usize,
    /// The facade algorithm that produced the bracket.
    pub algorithm: String,
    /// Proven lower bound on the optimum (ticks).
    pub lower: i64,
    /// Proven upper bound on the optimum (ticks; the incumbent schedule's cost).
    pub upper: i64,
    /// Relative gap `(upper − lower) / lower` (0 when solved to optimality).
    pub gap: f64,
    /// Whether the bracket is tight, i.e. the optimum is proven.
    pub optimal: bool,
    /// Branch-and-bound nodes explored (0 when a polynomial algorithm or the subset
    /// DP answered without search).
    pub nodes: u64,
}

/// `busytime bound`: prove a `lower ≤ OPT ≤ upper` bracket for a MinBusy instance
/// through the exact oracle, printing LB/UB and the relative gap.
///
/// Dispatch runs under `require_exact`, so a polynomially solvable instance is
/// answered by its exact class algorithm and anything else routes to the subset DP or
/// branch-and-bound.  A branch-and-bound search that exhausts `max_nodes` (or the
/// optional `max_millis` wall clock) still reports a sound bracket instead of failing.
pub fn run_bound(
    file: &InstanceFile,
    max_nodes: Option<u64>,
    max_millis: Option<u64>,
) -> Result<CommandOutput, String> {
    let instance = file.to_instance().map_err(|e| e.to_string())?;
    let mut budget = ExactBudget::default();
    if let Some(nodes) = max_nodes {
        budget.max_nodes = nodes;
    }
    budget.max_millis = max_millis;
    let solver = Solver::builder()
        .require_exact(true)
        .exact_budget(budget)
        .exact_oracle(busytime_exact::oracle())
        .build();
    let report = match solver.solve(&Problem::min_busy(instance.clone())) {
        Ok(solution) => {
            solution
                .schedule
                .validate_complete(&instance)
                .map_err(|e| e.to_string())?;
            let cost = solution.objective.cost().ticks();
            BoundReport {
                jobs: instance.len(),
                capacity: instance.capacity(),
                algorithm: solution.algorithm.name().to_string(),
                lower: cost,
                upper: cost,
                gap: 0.0,
                optimal: true,
                nodes: 0,
            }
        }
        Err(SolveError::BudgetExhausted {
            algorithm,
            lower,
            upper,
            nodes,
        }) => {
            let (lower, upper) = (lower.ticks(), upper.ticks());
            let gap = if upper == lower {
                0.0
            } else {
                (upper - lower) as f64 / lower.max(1) as f64
            };
            BoundReport {
                jobs: instance.len(),
                capacity: instance.capacity(),
                algorithm: algorithm.name().to_string(),
                lower,
                upper,
                gap,
                optimal: false,
                nodes,
            }
        }
        Err(e) => return Err(e.to_string()),
    };
    let line = if report.optimal {
        format!(
            "MinBusy bound ({}): OPT = {} (solved exactly)",
            report.algorithm, report.upper
        )
    } else {
        format!(
            "MinBusy bound ({}): {} <= OPT <= {} (gap {:.2}%, {} nodes)",
            report.algorithm,
            report.lower,
            report.upper,
            100.0 * report.gap,
            report.nodes
        )
    };
    Ok(CommandOutput {
        report: line,
        file_payload: Some(serde_json::to_string_pretty(&report).expect("serializable")),
    })
}

/// `busytime throughput`: MaxThroughput under a budget through the [`Solver`] facade.
pub fn run_throughput(
    file: &InstanceFile,
    budget: i64,
    options: &SolveOptions,
) -> Result<CommandOutput, String> {
    if budget < 0 {
        return Err("the budget must be non-negative".into());
    }
    let instance = file.to_instance().map_err(|e| e.to_string())?;
    let budget = Duration::new(budget);
    let solution = options
        .solver()
        .solve(&Problem::max_throughput(instance.clone(), budget))
        .map_err(|e| e.to_string())?;
    solution
        .schedule
        .validate_budgeted(&instance, budget)
        .map_err(|e| e.to_string())?;
    let report = format!(
        "MaxThroughput ({}): scheduled {}/{} jobs, busy time {} of budget {}",
        solution.algorithm,
        solution.schedule.throughput(),
        instance.len(),
        solution.objective.cost(),
        budget
    );
    let payload = ScheduleReport::from_solution(&instance, &solution);
    Ok(CommandOutput {
        report,
        file_payload: Some(serde_json::to_string_pretty(&payload).expect("serializable")),
    })
}

/// A batch of instances, as stored on disk: a JSON array of instance objects.
#[derive(Debug, Clone)]
pub struct BatchFile {
    /// The instances, in file order.
    pub instances: Vec<InstanceFile>,
}

impl BatchFile {
    /// Parse a batch from a JSON array (`[{"capacity": …, "jobs": […]} , …]`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let instances: Vec<InstanceFile> =
            serde_json::from_str(text).map_err(|e| format!("invalid batch JSON: {e}"))?;
        Ok(BatchFile { instances })
    }
}

/// `busytime batch`: solve every instance of a batch file concurrently through
/// [`Solver::solve_batch`] on the work-stealing pool.
///
/// With a budget every instance becomes a MaxThroughput request under that budget;
/// without one every instance is a MinBusy request.  `threads` pins the pool width
/// for this batch only (`None` keeps the default of one worker per core); the
/// process-wide default is left untouched.  Results are reported in file order; a
/// per-instance failure (e.g. `--exact-only` on a general instance) is reported
/// inline without aborting the rest of the batch.
pub fn run_batch(
    batch: &BatchFile,
    budget: Option<i64>,
    options: &SolveOptions,
    threads: Option<usize>,
) -> Result<CommandOutput, String> {
    if threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    let pool = threads.map_or_else(ThreadPool::with_default_parallelism, ThreadPool::new);
    let budget = match budget {
        Some(t) if t < 0 => return Err("the budget must be non-negative".into()),
        Some(t) => Some(Duration::new(t)),
        None => None,
    };
    let instances: Vec<Instance> = batch
        .instances
        .iter()
        .enumerate()
        .map(|(i, file)| file.to_instance().map_err(|e| format!("instance {i}: {e}")))
        .collect::<Result<_, _>>()?;
    let problems: Vec<Problem> = instances
        .iter()
        .map(|instance| match budget {
            Some(t) => Problem::max_throughput(instance.clone(), t),
            None => Problem::min_busy(instance.clone()),
        })
        .collect();

    let solver = options.solver();
    let started = std::time::Instant::now();
    // Identical to `Solver::solve_batch`, but on an explicitly sized pool.
    let results = pool.map(&problems, |p| solver.solve(p));
    let elapsed = started.elapsed();

    let mut lines = Vec::with_capacity(results.len() + 1);
    let mut payloads: Vec<Option<ScheduleReport>> = Vec::with_capacity(results.len());
    let mut solved = 0usize;
    let mut total_cost = 0i64;
    for (i, (instance, result)) in instances.iter().zip(&results).enumerate() {
        match result {
            Ok(solution) => {
                solved += 1;
                total_cost += solution.objective.cost().ticks();
                lines.push(format!(
                    "  [{i}] {} jobs: {} via {}, busy time {}",
                    instance.len(),
                    match solution.objective.scheduled() {
                        Some(count) => format!("scheduled {count}"),
                        None => "complete".to_string(),
                    },
                    solution.algorithm,
                    solution.objective.cost()
                ));
                payloads.push(Some(ScheduleReport::from_solution(instance, solution)));
            }
            Err(error) => {
                lines.push(format!("  [{i}] failed: {error}"));
                payloads.push(None);
            }
        }
    }
    let header = format!(
        "batch: {solved}/{} instances solved on {} thread(s) in {:.3}s, total busy time {total_cost}",
        results.len(),
        pool.threads(),
        elapsed.as_secs_f64(),
    );
    let report = std::iter::once(header)
        .chain(lines)
        .collect::<Vec<_>>()
        .join("\n");
    Ok(CommandOutput {
        report,
        file_payload: Some(serde_json::to_string_pretty(&payloads).expect("serializable")),
    })
}

/// The on-disk JSON representation of one online event.
///
/// An arrival carries the job's `[start, end)` window in `job`; a departure carries
/// `null` (the id names the arrival it closes).  The flat shape keeps the format
/// diff-friendly and independent of any enum encoding.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct TraceEventFile {
    /// The job's stable id (shared between its arrival and its departure).
    pub id: u64,
    /// `[start, end)` ticks for an arrival; `null` for a departure.
    pub job: Option<(i64, i64)>,
}

/// The on-disk JSON representation of an online event trace.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct TraceFile {
    /// The parallelism parameter `g`.
    pub capacity: usize,
    /// The events, in online order.
    pub events: Vec<TraceEventFile>,
}

impl TraceFile {
    /// Convert the file representation into a library trace, validating every arrival
    /// window (empty or reversed windows are reported with their position).
    pub fn to_trace(&self) -> Result<Trace, String> {
        let events = self
            .events
            .iter()
            .enumerate()
            .map(|(i, event)| match event.job {
                Some((s, e)) => Interval::try_new(Time::new(s), Time::new(e))
                    .map(|iv| Event::arrival(event.id, iv))
                    .map_err(|_| format!("event {i}: arrival window [{s}, {e}) is empty")),
                None => Ok(Event::departure(event.id)),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Trace::new(self.capacity, events))
    }

    /// Build the file representation from a library trace.
    pub fn from_trace(trace: &Trace) -> Self {
        TraceFile {
            capacity: trace.capacity,
            events: trace
                .events
                .iter()
                .map(|event| match *event {
                    Event::Arrival { id, interval } => TraceEventFile {
                        id,
                        job: Some((interval.start().ticks(), interval.end().ticks())),
                    },
                    Event::Departure { id } => TraceEventFile { id, job: None },
                })
                .collect(),
        }
    }

    /// Parse from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid trace JSON: {e}"))
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace files always serialize")
    }
}

/// Render a [`SimulationReport`] into the one-line summary `simulate` and `client`
/// print (they share the schema, so they share the rendering too).
fn render_simulation(prefix: &str, payload: &SimulationReport) -> String {
    format!(
        "{prefix}: {} events ({} arrivals, {} departures) on capacity {}, \
         final busy time {}, peak {}, {} machines opened, {} jobs live",
        payload.events,
        payload.arrivals,
        payload.departures,
        payload.capacity,
        payload.final_cost,
        payload.peak_cost,
        payload.machines_opened,
        payload.live_jobs,
    )
}

/// `busytime simulate`: replay an online event trace through
/// [`busytime::OnlineScheduler::run`], reporting the shared
/// [`SimulationReport`] schema (the same shape the server's `query` returns).
///
/// With `--defrag-budget K` the replay runs through the [`Defrag`] wrapper —
/// one `compact(K)` pass between events — which makes the local report directly
/// comparable to a `query` against a `serve --defrag-budget K` daemon (the CI
/// defrag smoke asserts exactly that equivalence across a crash/restart).
pub fn run_simulate(
    file: &TraceFile,
    policy: OnlinePolicy,
    defrag_budget: Option<usize>,
) -> Result<CommandOutput, String> {
    let trace = file.to_trace()?;
    let (run, prefix) = match defrag_budget {
        Some(budget) => (
            Defrag::run(&trace, policy, budget).map_err(|e| e.to_string())?,
            format!("simulate ({policy}, defrag budget {budget})"),
        ),
        None => (
            OnlineScheduler::run(&trace, policy).map_err(|e| e.to_string())?,
            format!("simulate ({policy})"),
        ),
    };
    let trajectory: Vec<i64> = run.trajectory.iter().map(|d| d.ticks()).collect();
    let payload = SimulationReport::from_scheduler(&run.scheduler, trajectory);
    Ok(CommandOutput {
        report: render_simulation(&prefix, &payload),
        file_payload: Some(serde_json::to_string_pretty(&payload).expect("serializable")),
    })
}

/// `busytime client`: drive a trace file against a **running** `busytime serve`
/// daemon — open a tenant, stream every event over the wire, and report the final
/// server-side state in the same [`SimulationReport`] schema `simulate` produces
/// locally.  `framing` selects NDJSON or the compact binary frames and `pipeline`
/// the number of in-flight requests (1 = lockstep); every combination produces
/// the identical report, only the wire efficiency differs.
pub fn run_client(
    file: &TraceFile,
    addr: &str,
    tenant: &str,
    policy: OnlinePolicy,
    framing: busytime_server::Framing,
    pipeline: usize,
) -> Result<CommandOutput, String> {
    let trace = file.to_trace()?;
    let mut client = busytime_server::Client::connect_with(addr, framing)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let payload = client.drive_trace_pipelined(tenant, &trace, policy, pipeline)?;
    Ok(CommandOutput {
        report: render_simulation(
            &format!(
                "client ({policy}, {} framing, pipeline {pipeline}) -> {addr} tenant '{tenant}'",
                framing.name()
            ),
            &payload,
        ),
        file_payload: Some(serde_json::to_string_pretty(&payload).expect("serializable")),
    })
}

/// `busytime serve`: bind `addr` and run the sharded scheduling daemon until the
/// process is killed.  Prints the bound address (port 0 resolves to a free port)
/// before entering the accept loop, so scripts can scrape it.
///
/// The [`RegistryConfig`](busytime_server::RegistryConfig) carries the optional
/// layers: with durability (`--data-dir`) the registry rebuilds every tenant
/// from the data directory before accepting connections and journals every
/// mutation before acknowledging it; with admission (`--max-inflight`,
/// `--tenant-rate`) per-tenant floods are shed with `overloaded` errors instead
/// of stalling cotenants.
pub fn run_serve(addr: &str, config: busytime_server::RegistryConfig) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read the bound address: {e}"))?;
    let data_dir = config
        .durability
        .as_ref()
        .map(|durability| durability.data_dir.clone());
    let admission = config.admission.is_some();
    let registry = busytime_server::Registry::with_config(config)
        .map_err(|e| format!("cannot open the data directory: {e}"))?;
    let engine = registry.engine();
    let shedding = if admission { ", shedding overload" } else { "" };
    match data_dir {
        Some(dir) => println!(
            "busytime-server listening on {local} with {} shard(s), journaling to {}{shedding}",
            engine.shard_count(),
            dir.display()
        ),
        None => println!(
            "busytime-server listening on {local} with {} shard(s){shedding}",
            engine.shard_count()
        ),
    }
    busytime_server::serve(listener, engine).map_err(|e| format!("server error: {e}"))
}

/// `busytime fsck`: validate a durability data directory offline.
///
/// Walks every tenant under `data_dir` exactly the way server recovery would:
/// the newest generation's snapshot must parse and restore, every journal frame
/// must carry a valid CRC, and every journal record must decode through
/// [`busytime_server::decode_journal_record`] and replay onto the restored
/// scheduler.  The report lists per-tenant replayable event counts.
/// Any corruption turns the whole report into an error (nonzero process exit),
/// so scripts can gate a restart on a clean check.
pub fn run_fsck(data_dir: &str) -> Result<CommandOutput, String> {
    if !std::path::Path::new(data_dir).is_dir() {
        return Err(format!("{data_dir} is not a directory"));
    }
    let store = busytime_durability::Store::open(data_dir, 1)
        .map_err(|e| format!("cannot open {data_dir}: {e}"))?;
    let names = store
        .tenant_names()
        .map_err(|e| format!("cannot list the tenants in {data_dir}: {e}"))?;
    let mut lines = vec![format!("fsck {data_dir}: {} tenant(s)", names.len())];
    let mut corrupt = 0usize;
    for name in &names {
        match fsck_tenant(&store, name) {
            Ok(summary) => lines.push(format!("  tenant '{name}': {summary}")),
            Err(problem) => {
                corrupt += 1;
                lines.push(format!("  tenant '{name}': CORRUPT: {problem}"));
            }
        }
    }
    let report = lines.join("\n");
    if corrupt > 0 {
        Err(format!("{report}\nfsck found {corrupt} corrupt tenant(s)"))
    } else {
        Ok(CommandOutput {
            report,
            file_payload: None,
        })
    }
}

/// Check one tenant's newest generation: snapshot restores, journal scans
/// clean, every record replays.  Returns the per-tenant report line, or the
/// problem that makes the tenant corrupt.
fn fsck_tenant(store: &busytime_durability::Store, name: &str) -> Result<String, String> {
    let inspection = store
        .inspect_tenant(name)
        .map_err(|e| format!("cannot inspect the tenant directory: {e}"))?;
    let Some(generation) = inspection.generations.first().copied() else {
        return Err("no snapshot/journal generations on disk".to_string());
    };
    let snapshot_json = inspection.snapshot_json.ok_or_else(|| {
        format!(
            "generation {generation} snapshot is unreadable: {}",
            inspection
                .snapshot_error
                .unwrap_or_else(|| "unknown error".to_string())
        )
    })?;
    let snapshot: busytime::OnlineSnapshot = serde_json::from_str(&snapshot_json)
        .map_err(|e| format!("generation {generation} snapshot does not parse: {e}"))?;
    let mut scheduler = OnlineScheduler::restore(&snapshot)
        .map_err(|e| format!("generation {generation} snapshot does not restore: {e}"))?;
    let scan = inspection
        .scan
        .ok_or_else(|| "the generation has no journal scan".to_string())?;
    let total = scan.records.len();
    let mut replayed = 0usize;
    for record in &scan.records {
        fsck_replay(&mut scheduler, name, record).map_err(|problem| {
            format!(
                "journal record {replayed} does not replay ({problem}); \
                 {replayed} of {total} event(s) replayable"
            )
        })?;
        replayed += 1;
    }
    if let Some(corruption) = &scan.corruption {
        return Err(format!(
            "journal is damaged ({corruption}); {replayed} replayable event(s) precede the damage"
        ));
    }
    Ok(format!(
        "generation {generation}, snapshot ok, {replayed} replayable journal event(s), \
         {} live job(s) after replay",
        scheduler.live_jobs().count()
    ))
}

/// Decode one journal record the way server recovery does and apply it to the
/// scheduler.
fn fsck_replay(scheduler: &mut OnlineScheduler, name: &str, record: &[u8]) -> Result<(), String> {
    match busytime_server::decode_journal_record(name, record)? {
        JournalRecord::Event(event) => scheduler
            .apply(&event)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        // `compact` is deterministic against the replayed placements.
        JournalRecord::Compact(budget) => {
            scheduler.compact(budget);
            Ok(())
        }
    }
}

/// Workload classes understood by `busytime generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// All jobs share a common time point.
    Clique,
    /// All jobs share a common start time.
    OneSided,
    /// No job properly contains another.
    Proper,
    /// Proper and clique at once.
    ProperClique,
    /// Unstructured random jobs.
    General,
    /// Cloud-style request trace.
    Cloud,
    /// Lightpaths on a line network.
    Optical,
}

impl WorkloadClass {
    /// Parse the `--class` argument.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "clique" => Ok(WorkloadClass::Clique),
            "one-sided" => Ok(WorkloadClass::OneSided),
            "proper" => Ok(WorkloadClass::Proper),
            "proper-clique" => Ok(WorkloadClass::ProperClique),
            "general" => Ok(WorkloadClass::General),
            "cloud" => Ok(WorkloadClass::Cloud),
            "optical" => Ok(WorkloadClass::Optical),
            other => Err(format!(
                "unknown class '{other}' (expected clique, one-sided, proper, proper-clique, general, cloud or optical)"
            )),
        }
    }
}

/// `busytime generate`: produce a random instance of the requested class.
pub fn run_generate(
    class: WorkloadClass,
    jobs: usize,
    capacity: usize,
    seed: u64,
) -> Result<CommandOutput, String> {
    if capacity == 0 {
        return Err("the capacity must be at least 1".into());
    }
    // The workspace seeding convention: one logged u64 seed, one RNG, reproducible
    // output (see `busytime_workload::seeded_rng`).
    let mut rng = workload::seeded_rng(seed);
    let n = jobs;
    let instance = match class {
        WorkloadClass::Clique => workload::clique_instance(&mut rng, n, capacity, 1_000),
        WorkloadClass::OneSided => workload::one_sided_instance(&mut rng, n, capacity, 1_000),
        WorkloadClass::Proper => workload::proper_instance(&mut rng, n, capacity, 60, 8),
        WorkloadClass::ProperClique => {
            workload::proper_clique_instance(&mut rng, n, capacity, 4 * n.max(1) as i64)
        }
        WorkloadClass::General => workload::general_instance(&mut rng, n, capacity, 1_000, 100),
        WorkloadClass::Cloud => workload::cloud_trace(&mut rng, n, capacity, 5, 5, 480),
        WorkloadClass::Optical => workload::optical_lightpaths(&mut rng, n, capacity, 128),
    };
    let file = InstanceFile::from_instance(&instance);
    let report = format!(
        "generated {class:?} instance: {} jobs, capacity {}, span {}, lower bound {}",
        instance.len(),
        instance.capacity(),
        instance.span(),
        instance.lower_bound()
    );
    Ok(CommandOutput {
        report,
        file_payload: Some(file.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> InstanceFile {
        InstanceFile {
            capacity: 2,
            jobs: vec![(0, 10), (2, 12), (4, 14), (6, 16)],
        }
    }

    fn auto() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn instance_file_round_trip() {
        let file = sample_file();
        let json = file.to_json();
        let parsed = InstanceFile::from_json(&json).unwrap();
        assert_eq!(parsed, file);
        let instance = parsed.to_instance().unwrap();
        assert_eq!(instance.len(), 4);
        assert_eq!(InstanceFile::from_instance(&instance).jobs.len(), 4);
    }

    #[test]
    fn invalid_jobs_rejected_with_typed_errors() {
        let bad = InstanceFile {
            capacity: 2,
            jobs: vec![(0, 4), (5, 5)],
        };
        assert_eq!(
            bad.to_instance().unwrap_err(),
            busytime::Error::EmptyJob {
                index: 1,
                start: 5,
                end: 5
            }
        );
        let reversed = InstanceFile {
            capacity: 2,
            jobs: vec![(7, 3)],
        };
        assert!(matches!(
            reversed.to_instance().unwrap_err(),
            busytime::Error::EmptyJob { index: 0, .. }
        ));
        assert!(InstanceFile::from_json("{not json").is_err());
        let zero_g = InstanceFile {
            capacity: 0,
            jobs: vec![(0, 1)],
        };
        assert_eq!(
            zero_g.to_instance().unwrap_err(),
            busytime::Error::InvalidCapacity
        );
        // The command entry points surface the typed error as a readable message.
        let err = run_solve(&bad, &SolveOptions::default()).unwrap_err();
        assert!(err.contains("job 1"), "{err}");
    }

    #[test]
    fn solve_command_reports_schedule_and_trace() {
        let out = run_solve(&sample_file(), &auto()).unwrap();
        assert!(out.report.contains("MinBusy"));
        assert!(out.report.contains("proper-clique-dp"));
        let payload: ScheduleReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payload.scheduled_jobs, 4);
        assert!(payload.unscheduled_jobs.is_empty());
        assert!(payload.busy_time > 0);
        assert!(payload.busy_time >= payload.lower_bound);
        assert_eq!(payload.guarantee, Some(1.0));
        assert!(payload.trace.iter().any(|line| line.contains("selected")));
    }

    #[test]
    fn solve_command_honours_forced_algorithm() {
        let forced = SolveOptions {
            algorithm: Some(Algorithm::FirstFit),
            exact_only: false,
        };
        let out = run_solve(&sample_file(), &forced).unwrap();
        let payload: ScheduleReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payload.algorithm, "first-fit");
        assert_eq!(payload.guarantee, Some(4.0));
    }

    #[test]
    fn solve_command_rejects_inapplicable_forced_algorithm() {
        // The sample is a proper clique with g = 2; one-sided requires a shared endpoint.
        let forced = SolveOptions {
            algorithm: Some(Algorithm::OneSided),
            exact_only: false,
        };
        let err = run_solve(&sample_file(), &forced).unwrap_err();
        assert!(err.contains("one-sided"), "{err}");
    }

    #[test]
    fn exact_only_routes_general_instances_to_the_oracle() {
        // A general instance has no polynomial exact algorithm: with the exact oracle
        // installed, --exact-only routes it to the subset DP instead of failing, and
        // the report names the backend.
        let general = InstanceFile {
            capacity: 2,
            jobs: vec![(0, 10), (2, 5), (8, 20), (15, 18)],
        };
        let exact = SolveOptions {
            algorithm: None,
            exact_only: true,
        };
        let out = run_solve(&general, &exact).unwrap();
        assert!(out.report.contains("exact-subset-dp"), "{}", out.report);
        assert!(out.report.contains("guarantee 1.000"), "{}", out.report);
        // The proper-clique sample still solves via its polynomial exact algorithm.
        let out = run_solve(&sample_file(), &exact).unwrap();
        assert!(out.report.contains("proper-clique-dp"));
    }

    #[test]
    fn bound_command_brackets_the_optimum() {
        let general = InstanceFile {
            capacity: 2,
            jobs: vec![(0, 10), (2, 5), (8, 20), (15, 18)],
        };
        let out = run_bound(&general, None, None).unwrap();
        assert!(out.report.contains("solved exactly"), "{}", out.report);
        let payload: BoundReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert!(payload.optimal);
        assert_eq!(payload.lower, payload.upper);
        assert_eq!(payload.gap, 0.0);
        assert_eq!(payload.algorithm, "exact-subset-dp");

        // Forcing branch-and-bound above the DP ceiling with a starved budget still
        // yields a sound, reported bracket.
        let jobs: Vec<(i64, i64)> = (0..30).map(|i| (i % 13, i % 13 + 5 + i % 7)).collect();
        let big = InstanceFile { capacity: 2, jobs };
        let out = run_bound(&big, Some(1), None).unwrap();
        let payload: BoundReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payload.algorithm, "exact-bnb");
        assert!(payload.lower <= payload.upper);
        if !payload.optimal {
            assert!(out.report.contains("<= OPT <="), "{}", out.report);
            assert!(payload.gap >= 0.0);
        }
    }

    #[test]
    fn throughput_command_respects_budget() {
        let out = run_throughput(&sample_file(), 12, &auto()).unwrap();
        assert!(out.report.contains("budget 12"));
        let payload: ScheduleReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert!(payload.busy_time <= 12);
        assert!(payload.scheduled_jobs < 4);
        assert!(!payload.unscheduled_jobs.is_empty());
        assert!(run_throughput(&sample_file(), -1, &auto()).is_err());
    }

    #[test]
    fn batch_command_solves_every_instance() {
        let batch = BatchFile {
            instances: vec![
                sample_file(),
                InstanceFile {
                    capacity: 1,
                    jobs: vec![(0, 2), (2, 4), (5, 7)],
                },
            ],
        };
        let default_width_before = busytime::par::default_threads();
        let out = run_batch(&batch, None, &auto(), Some(2)).unwrap();
        assert!(
            out.report
                .contains("batch: 2/2 instances solved on 2 thread(s)"),
            "{}",
            out.report
        );
        assert!(out.report.contains("[0] 4 jobs"), "{}", out.report);
        let payloads: Vec<Option<ScheduleReport>> =
            serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payloads.len(), 2);
        assert!(payloads.iter().all(Option::is_some));
        // Batch results agree with solving each instance alone.
        let single = run_solve(&sample_file(), &auto()).unwrap();
        let alone: ScheduleReport = serde_json::from_str(&single.file_payload.unwrap()).unwrap();
        let batched = payloads[0].as_ref().unwrap();
        assert_eq!(batched.algorithm, alone.algorithm);
        assert_eq!(batched.busy_time, alone.busy_time);
        // The per-batch width must not leak into the process-wide default.
        assert_eq!(busytime::par::default_threads(), default_width_before);
    }

    #[test]
    fn batch_command_with_budget_and_failures() {
        let batch = BatchFile::from_json(
            r#"[{"capacity": 2, "jobs": [[0, 10], [2, 12]]},
                {"capacity": 2, "jobs": [[0, 10], [2, 5], [8, 20], [15, 18]]}]"#,
        )
        .unwrap();
        // Budgeted: every instance becomes a MaxThroughput request.
        let out = run_batch(&batch, Some(12), &auto(), None).unwrap();
        assert!(out.report.contains("scheduled"), "{}", out.report);
        // Exact-only: the general instance routes to the exact oracle, so every
        // instance in the batch still solves optimally.
        let exact = SolveOptions {
            algorithm: None,
            exact_only: true,
        };
        let out = run_batch(&batch, None, &exact, None).unwrap();
        assert!(out.report.contains("batch: 2/2"), "{}", out.report);
        assert!(out.report.contains("exact-subset-dp"), "{}", out.report);
        // Bad arguments are rejected up front.
        assert!(run_batch(&batch, Some(-1), &auto(), None).is_err());
        assert!(run_batch(&batch, None, &auto(), Some(0)).is_err());
        assert!(BatchFile::from_json("{\"capacity\": 1}").is_err());
    }

    fn sample_trace() -> TraceFile {
        TraceFile {
            capacity: 2,
            events: vec![
                TraceEventFile {
                    id: 1,
                    job: Some((0, 10)),
                },
                TraceEventFile {
                    id: 2,
                    job: Some((4, 12)),
                },
                TraceEventFile {
                    id: 3,
                    job: Some((6, 14)),
                },
                TraceEventFile { id: 1, job: None },
            ],
        }
    }

    #[test]
    fn trace_file_round_trip() {
        let file = sample_trace();
        let json = file.to_json();
        let parsed = TraceFile::from_json(&json).unwrap();
        assert_eq!(parsed, file);
        let trace = parsed.to_trace().unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(TraceFile::from_trace(&trace), file);
        assert!(TraceFile::from_json("{not json").is_err());
    }

    #[test]
    fn simulate_command_reports_trajectory_and_groups() {
        let out = run_simulate(&sample_trace(), OnlinePolicy::FirstFit, None).unwrap();
        assert!(
            out.report.contains("simulate (first-fit)"),
            "{}",
            out.report
        );
        let payload: SimulationReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payload.events, 4);
        assert_eq!(payload.arrivals, 3);
        assert_eq!(payload.departures, 1);
        // g = 2: jobs 1 and 2 share machine 0, job 3 opens machine 1; job 1 departs.
        assert_eq!(payload.machines_opened, 2);
        assert_eq!(payload.live_jobs, 2);
        assert_eq!(payload.cost_trajectory, vec![10, 12, 12 + 8, 8 + 8]);
        assert_eq!(payload.final_cost, 16);
        assert_eq!(payload.peak_cost, 20);
        assert_eq!(payload.machine_groups, vec![vec![2], vec![3]]);
    }

    #[test]
    fn simulate_with_a_defrag_budget_compacts_between_events() {
        // Same trace as above, but with a defrag pass after every event: once
        // job 1 departs, job 2 ([4, 12), alone worth 8 on machine 0) migrates
        // onto machine 1 where job 3's [6, 14) already covers all but [4, 6).
        let out = run_simulate(&sample_trace(), OnlinePolicy::FirstFit, Some(4)).unwrap();
        assert!(
            out.report.contains("simulate (first-fit, defrag budget 4)"),
            "{}",
            out.report
        );
        let payload: SimulationReport = serde_json::from_str(&out.file_payload.unwrap()).unwrap();
        assert_eq!(payload.cost_trajectory, vec![10, 12, 20, 10]);
        assert_eq!(payload.final_cost, 10);
        assert_eq!(payload.machine_groups, vec![vec![], vec![2, 3]]);
    }

    #[test]
    fn simulate_command_rejects_malformed_traces() {
        let empty_window = TraceFile {
            capacity: 2,
            events: vec![TraceEventFile {
                id: 0,
                job: Some((5, 5)),
            }],
        };
        let err = run_simulate(&empty_window, OnlinePolicy::FirstFit, None).unwrap_err();
        assert!(err.contains("event 0"), "{err}");
        let unknown_departure = TraceFile {
            capacity: 2,
            events: vec![TraceEventFile { id: 9, job: None }],
        };
        let err = run_simulate(&unknown_departure, OnlinePolicy::BestFit, None).unwrap_err();
        assert!(err.contains("job 9"), "{err}");
        let zero_capacity = TraceFile {
            capacity: 0,
            events: vec![],
        };
        let err = run_simulate(&zero_capacity, OnlinePolicy::BucketByLength, None).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        assert!(OnlinePolicy::parse("bogus").is_err());
    }

    /// A fresh data directory holding one tenant, `acme` (g = 2, first-fit), whose
    /// journal carries `records` after an empty snapshot.
    fn journal_dir(tag: &str, records: &[String]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("busytime-cli-fsck-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = busytime_durability::Store::open(&dir, 1).unwrap();
        let empty = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
        let snapshot = serde_json::to_string(&empty.snapshot()).unwrap();
        let mut log = store.begin_tenant("acme", &snapshot).unwrap();
        for record in records {
            log.append(record.as_bytes()).unwrap();
        }
        log.sync().unwrap();
        dir
    }

    fn arrival_record(id: u64, start: i64, end: i64) -> String {
        let event = Event::arrival(id, Interval::from_ticks(start, end));
        busytime_server::Request::event_record_json("acme", &event)
    }

    #[test]
    fn fsck_accepts_a_clean_journal_with_a_compact_record() {
        let compact = busytime_server::Request::Compact {
            tenant: "acme".into(),
            budget: 4,
        };
        let records = [
            arrival_record(1, 0, 10),
            arrival_record(2, 4, 12),
            arrival_record(3, 6, 14),
            busytime_server::Request::event_record_json("acme", &Event::departure(1)),
            compact.to_json(),
        ];
        let dir = journal_dir("clean", &records);
        let report = run_fsck(dir.to_str().unwrap()).unwrap().report;
        assert!(report.contains("1 tenant(s)"), "{report}");
        assert!(
            report.contains("5 replayable journal event(s), 2 live job(s)"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_rejects_the_records_recovery_rejects() {
        // The second arrival's window lies beyond the wire's tick bound, so recovery
        // stops before it; fsck must flag the same record.
        let far = 1i64 << 43;
        let records = [
            arrival_record(1, 0, 10),
            arrival_record(2, far, far + 5),
            arrival_record(3, 2, 12),
        ];
        let dir = journal_dir("out-of-range", &records);
        let err = run_fsck(dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("journal record 1 does not replay"), "{err}");
        assert!(err.contains("out of range"), "{err}");
        assert!(err.contains("1 of 3 event(s) replayable"), "{err}");

        // Recovery keeps the one event before the bad record and compacts the rest
        // away; the repaired directory then audits clean with that one job live.
        let registry = busytime_server::Registry::with_config(busytime_server::RegistryConfig {
            durability: Some(busytime_server::DurabilityConfig {
                data_dir: dir.clone(),
                fsync_batch: 1,
                compact_threshold: 1_000,
            }),
            ..busytime_server::RegistryConfig::new(1)
        })
        .unwrap();
        registry.shutdown();
        let report = run_fsck(dir.to_str().unwrap()).unwrap().report;
        assert!(
            report.contains("0 replayable journal event(s), 1 live job(s)"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_command_produces_requested_class() {
        for (name, expect_clique, expect_proper) in [
            ("clique", true, false),
            ("one-sided", true, false),
            ("proper-clique", true, true),
            ("proper", false, true),
        ] {
            let class = WorkloadClass::parse(name).unwrap();
            let out = run_generate(class, 20, 3, 7).unwrap();
            let file = InstanceFile::from_json(&out.file_payload.unwrap()).unwrap();
            let inst = file.to_instance().unwrap();
            assert_eq!(inst.len(), 20, "{name}");
            if expect_clique {
                assert!(inst.is_clique(), "{name}");
            }
            if expect_proper {
                assert!(inst.is_proper(), "{name}");
            }
        }
        assert!(WorkloadClass::parse("bogus").is_err());
        assert!(run_generate(WorkloadClass::Cloud, 10, 0, 1).is_err());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = run_generate(WorkloadClass::General, 15, 2, 42)
            .unwrap()
            .file_payload
            .unwrap();
        let b = run_generate(WorkloadClass::General, 15, 2, 42)
            .unwrap()
            .file_payload
            .unwrap();
        let c = run_generate(WorkloadClass::General, 15, 2, 43)
            .unwrap()
            .file_payload
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

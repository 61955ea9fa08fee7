//! The traced run's per-layer figures.  Every figure times calls into one layer's
//! public functions, from this benchmark's code, on the workload's own inputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use busytime::online::{Event, OnlinePolicy, OnlineScheduler, OnlineSnapshot};
use busytime::{Duration, ExactBudget, ExactOutcome, Instance, Problem, ProblemKind};
use busytime_durability::{Store, TenantLog};
use busytime_interval::{span, Interval};
use busytime_server::frame::{FrameRequest, FrameResponse, RequestFrame, ResponseFrame};
use busytime_server::{DurabilityConfig, Registry, RegistryConfig, Request, Response};

use crate::stats::median;
use crate::streams::OfflineProblem;
use crate::workloads::{
    check_pass, timed_solves, traced_batch, Bracket, Ctx, DaemonSpec, Outcome, Solvers,
    CERTIFY_NODES, CONNECTIONS, SHARDS, THREADS,
};

/// Requests per connection each layer figure is measured over.
const SAMPLE_PER_CONN: usize = 8192;
/// Requests per `Engine::call_many` (one pipeline window).
const CALL_BATCH: usize = 16;
/// Appends per explicit `sync` in the WAL figure (the daemon's `--fsync-batch`).
const FSYNC_BATCH: usize = 64;
/// Compaction budget of the defrag figures (`--defrag-budget` of the daemon).
const PROBE_BUDGET: usize = 4;
/// Sampled requests the defrag figures run over (a pass costs milliseconds on
/// `durable_mixed`'s large tenants).
const COMPACT_PROBE: usize = 1024;
/// Batches the parallel-efficiency figure of a daemon workload is the median of.
const PAR_REPS: usize = 5;

/// What the daemon run hands to the layer probes.
pub struct DaemonLayers<'a> {
    /// The workload.
    pub spec: &'a DaemonSpec,
    /// Run parameters.
    pub ctx: &'a Ctx,
    /// Tenant names per connection.
    pub names: &'a [Vec<String>],
    /// Depth-1 round trips against the live daemon, in microseconds.
    pub rtt: Vec<f64>,
    /// One `query` reply as the daemon sent it.
    pub query: String,
    /// Whether to probe the solver layers on the tenants' sampled arrivals.
    pub solver_probe: bool,
}

/// One sampled request: global tenant index, request, event.
struct Sampled {
    tenant: usize,
    request: Request,
    event: Option<Event>,
}

fn per(total_ns: u128, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Per-layer figures of a daemon workload.
pub fn daemon_layers(input: &DaemonLayers, out: &mut Outcome) -> Result<(), String> {
    let spec = input.spec;
    let tenants = spec.tenants_per_conn * CONNECTIONS;
    let names: Vec<&String> = input.names.iter().flatten().collect();

    // Replicas at the checkpoint state (the end of the fixed warm-up prefix), then
    // a sample of the requests that follow it.
    let mut plans = spec.plans(input.ctx.seed, input.names);
    let mut replicas: Vec<OnlineScheduler> = (0..tenants)
        .map(|_| OnlineScheduler::new(spec.g, OnlinePolicy::FirstFit).expect("valid capacity"))
        .collect();
    let mut prefix: Vec<Sampled> = Vec::new();
    let mut sample: Vec<Sampled> = Vec::new();
    for (c, plan) in plans.iter_mut().enumerate() {
        for i in 0..spec.warmup as usize + SAMPLE_PER_CONN {
            let p = plan.next_request();
            let tenant = c * spec.tenants_per_conn + p.slot;
            let item = Sampled {
                tenant,
                request: p.request,
                event: p.event,
            };
            if i < spec.warmup as usize {
                if let Some(event) = &item.event {
                    replicas[tenant].apply(event).map_err(|e| e.to_string())?;
                }
                prefix.push(item);
            } else {
                sample.push(item);
            }
        }
    }
    let snapshots: Vec<String> = replicas
        .iter()
        .map(|r| serde_json::to_string(&r.snapshot()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let machines: f64 = replicas
        .iter()
        .map(|r| r.pools()[0].len() as f64)
        .sum::<f64>()
        / tenants as f64;
    let mut copies = replicas.clone();

    // online.apply and machine.first_fit_slot.
    let mut apply_ns = 0u128;
    let mut slot_ns = 0u128;
    let (mut arrivals, mut events) = (0usize, 0usize);
    let mut responses: Vec<Response> = Vec::new();
    for item in &sample {
        let Some(event) = &item.event else { continue };
        let replica = &mut replicas[item.tenant];
        if let Event::Arrival { interval, .. } = event {
            let t = Instant::now();
            std::hint::black_box(replica.pools()[0].first_fit_slot(*interval));
            slot_ns += t.elapsed().as_nanos();
            arrivals += 1;
        }
        let t = Instant::now();
        let effect = replica.apply(event).map_err(|e| e.to_string())?;
        apply_ns += t.elapsed().as_nanos();
        events += 1;
        responses.push(Response::Event {
            machine: effect.machine,
            cost_delta: effect.cost_delta,
            cost: effect.cost.ticks(),
        });
    }
    // online.compact: no workload runs auto-defrag, so time what a pass would cost
    // on the same states, on copies of the replicas.
    let (mut compact_ns, mut passes, mut moves, mut useful) = (0u128, 0usize, 0usize, 0usize);
    for item in sample.iter().take(COMPACT_PROBE) {
        let Some(event) = &item.event else { continue };
        let copy = &mut copies[item.tenant];
        copy.apply(event).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let pass = copy.compact(PROBE_BUDGET);
        compact_ns += t.elapsed().as_nanos();
        passes += 1;
        moves += pass.moves;
        useful += usize::from(pass.moves > 0);
    }
    let apply = per(apply_ns, events);
    out.put("online.apply_ns", apply, "ns", format!("n={events}"));
    out.put(
        "machine.first_fit_slot_ns",
        per(slot_ns, arrivals),
        "ns",
        format!("n={arrivals}"),
    );
    out.put(
        "machine.machines",
        machines,
        "count",
        "machines per tenant at the checkpoint".into(),
    );
    out.put(
        "online.compact_us",
        per(compact_ns, passes) / 1e3,
        "us",
        format!("budget {PROBE_BUDGET}, off the request path, n={passes}"),
    );
    out.put(
        "online.moves_per_pass",
        moves as f64 / passes as f64,
        "count",
        format!("{moves} moves"),
    );
    out.put(
        "online.useful_pass_frac",
        useful as f64 / passes as f64,
        "ratio",
        format!("{useful} of {passes} passes moved a job"),
    );

    // Codecs over the sampled writes and their responses.
    let writes: Vec<(&Sampled, &Response)> = sample
        .iter()
        .filter(|s| s.event.is_some())
        .zip(&responses)
        .collect();
    let n = writes.len();
    let (frame_enc, frame_dec, frame_bytes) = frame_codec(&writes)?;
    out.put(
        "frame.encode_ns",
        frame_enc,
        "ns",
        format!("request + response, n={n}"),
    );
    out.put(
        "frame.decode_ns",
        frame_dec,
        "ns",
        format!("request + response, n={n}"),
    );
    out.put(
        "frame.bytes_per_req",
        frame_bytes,
        "B",
        format!("request + response, n={n}"),
    );
    let (json_enc, json_dec) = json_codec(&writes)?;
    out.put(
        "protocol.encode_ns",
        json_enc,
        "ns",
        format!("request + response, n={n}"),
    );
    out.put(
        "protocol.decode_ns",
        json_dec,
        "ns",
        format!("request + response, n={n}"),
    );
    let query = &input.query;
    let reps = 5;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(Response::from_json(query)?);
    }
    let decode = t.elapsed().as_secs_f64() / reps as f64;
    out.put(
        "protocol.read_bytes",
        query.len() as f64,
        "B",
        "one query response".into(),
    );
    out.put(
        "protocol.read_decode_us",
        decode * 1e6,
        "us",
        format!("Response::from_json, {reps} reps"),
    );

    // The WAL and recovery layers on the sampled records.  Only a durable daemon
    // has them on its request path.
    let store_dir = input.ctx.run_dir.join("wal-probe");
    let wal = wal_layer(&store_dir, &names, &snapshots, &sample, &replicas, out)?;
    let wal_per_request = if spec.durable { wal } else { 0.0 };

    // registry: Engine::call_many at batch 16 on an in-process registry with the
    // daemon's configuration, advanced to the checkpoint first.
    let call = registry_layer(input, &names, &prefix, &sample)?;
    // Each batch spans both shards, which apply their halves in parallel, so the
    // shard self-time a request adds to the batch wall time is its share per shard.
    let shard_work = (apply + wal_per_request) / SHARDS as f64;
    let handoff = call - shard_work;
    out.put(
        "registry.call_ns",
        call,
        "ns",
        format!("call_many batches of {CALL_BATCH}, n={}", sample.len()),
    );
    out.put(
        "registry.handoff_ns",
        handoff,
        "ns",
        format!("call_ns minus apply and WAL self-time split over {SHARDS} shards"),
    );

    if input.solver_probe {
        solver_probe(&arrival_problems(&sample, tenants, spec.g)?, out)?;
    }

    // Reconciliation: per-request layer self-times against the unloaded round trip.
    let rtt_us = median(&input.rtt);
    let (codec_name, codec) = match spec.framing {
        busytime_server::Framing::Binary => ("frame", frame_enc + frame_dec),
        busytime_server::Framing::Ndjson => ("protocol", json_enc + json_dec),
    };
    let attributed = codec + call;
    let unattributed = 1.0 - attributed / (rtt_us * 1e3);
    out.put(
        "server.rtt_us",
        rtt_us,
        "us",
        format!("depth-1 p50, n={}", input.rtt.len()),
    );
    out.put(
        "server.unattributed_frac",
        unattributed,
        "ratio",
        "rtt share not covered by layer self-times".into(),
    );
    out.lines.push(format!(
        "reconcile {}: per request {codec_name} codec {codec:.0} ns + registry.call {call:.0} ns \
         (handoff {handoff:.0} + (apply {apply:.0} + wal {wal_per_request:.0}) / {SHARDS} shards) \
         = {attributed:.0} ns of server.rtt_us {rtt_us:.1} us; unattributed (socket, thread wake-ups) {:.1}%",
        spec.name,
        unattributed * 100.0
    ));
    Ok(())
}

/// Binary frame encode/decode (request + response) per write, and bytes per write.
fn frame_codec(writes: &[(&Sampled, &Response)]) -> Result<(f64, f64, f64), String> {
    let frames: Vec<(RequestFrame, ResponseFrame)> = writes
        .iter()
        .enumerate()
        .map(|(i, (s, r))| {
            let tenant = s.tenant as u32;
            let body = match (&s.request, s.event.as_ref()) {
                (Request::Arrive { id, job, .. }, _) => FrameRequest::Arrive {
                    tenant,
                    id: *id,
                    start: job.0,
                    end: job.1,
                },
                (Request::Depart { id, .. }, _) => FrameRequest::Depart { tenant, id: *id },
                (other, _) => FrameRequest::Json {
                    payload: other.to_json(),
                },
            };
            let Response::Event {
                machine,
                cost_delta,
                cost,
            } = r
            else {
                unreachable!("writes answer with events")
            };
            (
                RequestFrame {
                    seq: i as u32,
                    body,
                },
                ResponseFrame {
                    seq: i as u32,
                    body: FrameResponse::Event {
                        machine: *machine as u64,
                        cost_delta: *cost_delta,
                        cost: *cost,
                    },
                },
            )
        })
        .collect();
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    let t = Instant::now();
    for (request, response) in &frames {
        request.encode_into(&mut requests);
        response.encode_into(&mut responses);
    }
    let encode = t.elapsed().as_nanos();
    let bytes = (requests.len() + responses.len()) as f64 / frames.len() as f64;
    let t = Instant::now();
    let (mut rq, mut rs) = (&requests[..], &responses[..]);
    for _ in 0..frames.len() {
        std::hint::black_box(RequestFrame::read(&mut rq).map_err(|e| format!("{e:?}"))?);
        std::hint::black_box(ResponseFrame::read(&mut rs).map_err(|e| format!("{e:?}"))?);
    }
    let decode = t.elapsed().as_nanos();
    Ok((per(encode, frames.len()), per(decode, frames.len()), bytes))
}

/// NDJSON encode/decode (request + response) per write.
fn json_codec(writes: &[(&Sampled, &Response)]) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let lines: Vec<(String, String)> = writes
        .iter()
        .map(|(s, r)| (s.request.to_json(), r.to_json()))
        .collect();
    let encode = t.elapsed().as_nanos();
    let t = Instant::now();
    for (request, response) in &lines {
        std::hint::black_box(Request::from_json(request)?);
        std::hint::black_box(Response::from_json(response)?);
    }
    let decode = t.elapsed().as_nanos();
    Ok((per(encode, lines.len()), per(decode, lines.len())))
}

/// Engine::call_many per request on an in-process registry configured like the
/// daemon, after replaying the warm-up prefix.
fn registry_layer(
    input: &DaemonLayers,
    names: &[&String],
    prefix: &[Sampled],
    sample: &[Sampled],
) -> Result<f64, String> {
    let spec = input.spec;
    let mut config = RegistryConfig::new(SHARDS);
    if spec.durable {
        let dir = input.ctx.run_dir.join("registry-data");
        let mut durability = DurabilityConfig::new(dir);
        durability.fsync_batch = FSYNC_BATCH;
        config.durability = Some(durability);
    }
    let registry = Registry::with_config(config).map_err(|e| e.to_string())?;
    let engine = registry.engine();
    let opens: Vec<Request> = names
        .iter()
        .map(|name| Request::Open {
            tenant: name.to_string(),
            capacity: spec.g,
            policy: None,
        })
        .collect();
    let mut failures = engine
        .call_many(opens)
        .iter()
        .filter(|r| !r.is_ok())
        .count();
    for chunk in prefix.chunks(128) {
        let batch = chunk.iter().map(|s| s.request.clone()).collect();
        failures += engine
            .call_many(batch)
            .iter()
            .filter(|r| !r.is_ok())
            .count();
    }
    let batches: Vec<Vec<Request>> = sample
        .chunks(CALL_BATCH)
        .map(|c| c.iter().map(|s| s.request.clone()).collect())
        .collect();
    let t = Instant::now();
    for batch in batches {
        failures += engine
            .call_many(batch)
            .iter()
            .filter(|r| !r.is_ok())
            .count();
    }
    let call = per(t.elapsed().as_nanos(), sample.len());
    drop(engine);
    registry.shutdown();
    if failures > 0 {
        return Err(format!("{failures} in-process registry calls failed"));
    }
    Ok(call)
}

/// `TenantLog` append / sync on the sampled records in a fresh `Store` whose
/// tenants start from the checkpoint snapshots, then recovery from that store, then
/// `compact` with each replica's final snapshot.  Returns the WAL self-time per
/// write.
fn wal_layer(
    dir: &Path,
    names: &[&String],
    snapshots: &[String],
    sample: &[Sampled],
    replicas: &[OnlineScheduler],
    out: &mut Outcome,
) -> Result<f64, String> {
    let io = |e: std::io::Error| e.to_string();
    // The store never syncs on its own; the probe syncs every FSYNC_BATCH appends.
    let store = Store::open(dir, usize::MAX).map_err(io)?;
    let mut logs: Vec<TenantLog> = names
        .iter()
        .zip(snapshots)
        .map(|(name, json)| store.begin_tenant(name, json))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    let (mut append_ns, mut appends, mut sync_ns, mut syncs) = (0u128, 0usize, 0u128, 0usize);
    for s in sample {
        let Some(event) = &s.event else { continue };
        let record = Request::event_record_json(names[s.tenant], event);
        let log = &mut logs[s.tenant];
        let t = Instant::now();
        log.append(record.as_bytes()).map_err(io)?;
        append_ns += t.elapsed().as_nanos();
        appends += 1;
        if log.pending() >= FSYNC_BATCH {
            let t = Instant::now();
            log.sync().map_err(io)?;
            sync_ns += t.elapsed().as_nanos();
            syncs += 1;
        }
    }
    for log in &mut logs {
        log.sync().map_err(io)?;
    }
    let (bytes, records) = logs.iter().fold((0, 0), |(b, r), log| {
        let s = log.stats();
        (b + s.log_bytes, r + s.log_records)
    });
    recovery_layer(&store, names, replicas, out)?;
    let mut compact_ns = 0u128;
    for (log, replica) in logs.iter_mut().zip(replicas) {
        let json = serde_json::to_string(&replica.snapshot()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        log.compact(&json).map_err(io)?;
        compact_ns += t.elapsed().as_nanos();
    }
    let append = per(append_ns, appends);
    let sync = per(sync_ns, syncs);
    out.put("wal.append_us", append / 1e3, "us", format!("n={appends}"));
    out.put(
        "wal.sync_us",
        sync / 1e3,
        "us",
        format!("one per {FSYNC_BATCH} appends, n={syncs}"),
    );
    out.put(
        "wal.bytes_per_record",
        bytes as f64 / records as f64,
        "B",
        format!("{records} records"),
    );
    out.put(
        "wal.compact_ms",
        per(compact_ns, logs.len()) / 1e6,
        "ms",
        format!(
            "snapshot of ~{} live jobs, n={}",
            replicas[0].live_count(),
            logs.len()
        ),
    );
    Ok(append + sync / FSYNC_BATCH as f64)
}

/// `Store::load_tenant` (snapshot restore) on the WAL probe's store, then the
/// journal replayed through `OnlineScheduler::apply`.  The recovered schedule must
/// cost what the replica does.
fn recovery_layer(
    store: &Store,
    names: &[&String],
    replicas: &[OnlineScheduler],
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut snapshot_ns, mut replay_ns, mut records) = (0u128, 0u128, 0usize);
    for (name, replica) in names.iter().zip(replicas) {
        let mut restore_ns = 0u128;
        let recovered = store
            .load_tenant(name, |json| -> Result<OnlineScheduler, String> {
                let t = Instant::now();
                let snapshot: OnlineSnapshot =
                    serde_json::from_str(json).map_err(|e| e.to_string())?;
                let scheduler = OnlineScheduler::restore(&snapshot).map_err(|e| e.to_string());
                restore_ns += t.elapsed().as_nanos();
                scheduler
            })
            .map_err(|e| e.to_string())?;
        snapshot_ns += restore_ns;
        let mut scheduler = recovered.value;
        let t = Instant::now();
        for record in &recovered.records {
            let text = std::str::from_utf8(record).map_err(|e| e.to_string())?;
            let event = match Request::from_json(text)? {
                Request::Arrive { id, job, .. } => {
                    Event::arrival(id, Interval::from_ticks(job.0, job.1))
                }
                Request::Depart { id, .. } => Event::departure(id),
                other => return Err(format!("unexpected journal record {}", other.op())),
            };
            scheduler.apply(&event).map_err(|e| e.to_string())?;
        }
        replay_ns += t.elapsed().as_nanos();
        records += recovered.records.len();
        out.tally.attempted += 1;
        if replica.cost() != scheduler.cost() || replica.live_count() != scheduler.live_count() {
            out.tally.fail(format!(
                "{name}: recovered cost {} != replica cost {}",
                scheduler.cost().ticks(),
                replica.cost().ticks()
            ));
        }
    }
    out.put(
        "recovery.replay_events_per_s",
        records as f64 / (replay_ns as f64 / 1e9),
        "1/s",
        format!("{records} journal records"),
    );
    out.put(
        "recovery.snapshot_ms",
        per(snapshot_ns, names.len()) / 1e6,
        "ms",
        format!("per tenant, n={}", names.len()),
    );
    Ok(())
}

/// Jobs of each branch-and-bound certification drawn from a tenant's arrivals.
const CERTIFY_JOBS: usize = 30;

/// Each tenant's arrivals in the sampled requests as offline problems: MinBusy,
/// and MaxThroughput under 60% of its lower bound (as in the offline list), plus a
/// branch-and-bound certification of its first [`CERTIFY_JOBS`] arrivals.
fn arrival_problems(
    sample: &[Sampled],
    tenants: usize,
    g: usize,
) -> Result<Vec<OfflineProblem>, String> {
    let mut jobs: Vec<Vec<Interval>> = vec![Vec::new(); tenants];
    for item in sample {
        if let Some(Event::Arrival { interval, .. }) = &item.event {
            jobs[item.tenant].push(*interval);
        }
    }
    let mut list = Vec::new();
    for jobs in jobs.into_iter().filter(|jobs| !jobs.is_empty()) {
        let certify = Instance::new(jobs[..jobs.len().min(CERTIFY_JOBS)].to_vec(), g)
            .map_err(|e| e.to_string())?;
        let instance = Instance::new(jobs, g).map_err(|e| e.to_string())?;
        let lb = busytime::bounds::lower_bound(&instance).ticks();
        list.push(OfflineProblem {
            family: "general",
            problem: Problem::min_busy(instance.clone()),
        });
        list.push(OfflineProblem {
            family: "throughput",
            problem: Problem::max_throughput(instance, Duration::new(lb * 3 / 5)),
        });
        list.push(OfflineProblem {
            family: "certify",
            problem: Problem::min_busy(certify),
        });
    }
    Ok(list)
}

/// The solver layers on a daemon workload's sampled arrivals.
fn solver_probe(list: &[OfflineProblem], out: &mut Outcome) -> Result<(), String> {
    let solvers = Solvers::new();
    let problems: Vec<Problem> = list.iter().map(|p| p.problem.clone()).collect();
    let efficiencies: Vec<f64> = (0..PAR_REPS)
        .map(|_| {
            let (wall, busy) = traced_batch(&solvers.heuristic, &problems);
            busy / (THREADS as f64 * wall)
        })
        .collect();
    out.put(
        "par.efficiency",
        median(&efficiencies),
        "ratio",
        format!(
            "sum of solve times / ({THREADS} threads x batch wall), median of {PAR_REPS} batches of {} arrival problems",
            problems.len()
        ),
    );
    solver_layers(list, &solvers, Bracket::LowerWithinHeuristic, out)
}

/// Per-layer figures of `offline_solve`.
pub fn offline_layers(
    list: &[OfflineProblem],
    solvers: &Solvers,
    untraced_pass_s: f64,
    budget: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let problems: Vec<Problem> = list.iter().map(|p| p.problem.clone()).collect();
    let certify: Vec<Problem> = list
        .iter()
        .filter(|p| p.family == "certify")
        .map(|p| p.problem.clone())
        .collect();

    // The traced passes: the same batches again, in the second half of the run.
    // The untraced passes already time each solve inside its worker, so their
    // difference is what the tracing adds on top (the per-problem sum), plus drift.
    let (mut walls, mut efficiencies) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let (batch_wall, busy) = traced_batch(&solvers.heuristic, &problems);
        std::hint::black_box(solvers.exact.solve_batch(&certify));
        walls.push(t.elapsed().as_secs_f64());
        efficiencies.push(busy / (THREADS as f64 * batch_wall));
    }
    out.put(
        "trace.overhead_frac",
        median(&walls) / untraced_pass_s - 1.0,
        "ratio",
        format!(
            "traced {:.4} s vs untraced {untraced_pass_s:.4} s per pass",
            median(&walls)
        ),
    );
    out.put(
        "par.efficiency",
        median(&efficiencies),
        "ratio",
        format!(
            "sum of solve times / ({THREADS} threads x batch wall), {} passes",
            walls.len()
        ),
    );

    solver_layers(list, solvers, Bracket::UpperWithinHeuristic, out)
}

/// `Solver::solve` per problem (MinBusy and MaxThroughput means, and one line per
/// dispatched algorithm), the interval kernel's bound, and branch and bound on
/// the certification problems.  The solutions are checked like a pass.
fn solver_layers(
    list: &[OfflineProblem],
    solvers: &Solvers,
    bracket: Bracket,
    out: &mut Outcome,
) -> Result<(), String> {
    let problems: Vec<Problem> = list.iter().map(|p| p.problem.clone()).collect();
    let certify: Vec<Problem> = list
        .iter()
        .filter(|p| p.family == "certify")
        .map(|p| p.problem.clone())
        .collect();

    // Sequentially through Solver::solve.
    let solved = timed_solves(&solvers.heuristic, &problems);
    let mut by_algorithm: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut by_kind: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for ((secs, result), p) in solved.iter().zip(&problems) {
        let name = result
            .as_ref()
            .map_err(|e| format!("offline solve failed: {e}"))?
            .algorithm
            .name();
        let kind = match p.kind() {
            ProblemKind::MinBusy => "solver.minbusy_ms",
            _ => "solver.throughput_ms",
        };
        for (key, map) in [(name, &mut by_algorithm), (kind, &mut by_kind)] {
            let entry = map.entry(key).or_default();
            entry.0 += secs;
            entry.1 += 1;
        }
    }
    for (name, (secs, count)) in by_kind {
        out.put(
            name,
            secs * 1e3 / count as f64,
            "ms",
            format!("mean per instance, n={count}"),
        );
    }
    out.lines.push(format!(
        "solver by algorithm (ms per instance): {}",
        by_algorithm
            .iter()
            .map(|(name, (secs, count))| format!(
                "{name} {:.4} (n={count})",
                secs * 1e3 / *count as f64
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // The Observation 2.1 bound, max(span, ceil(len / g)), from the interval kernel's
    // union measure over each instance's jobs (the instance caches its own span).
    let inputs: Vec<(Vec<Interval>, i64, i64)> = problems
        .iter()
        .map(|p| {
            let instance = p.instance();
            let jobs: Vec<Interval> = instance.jobs().to_vec();
            let len: i64 = jobs.iter().map(|iv| iv.len().ticks()).sum();
            (jobs, len, instance.capacity() as i64)
        })
        .collect();
    let jobs: usize = inputs.iter().map(|(j, _, _)| j.len()).sum();
    let reps = 5;
    let t = Instant::now();
    for _ in 0..reps {
        for ((intervals, len, g), p) in inputs.iter().zip(&problems) {
            let bound = span(std::hint::black_box(intervals))
                .ticks()
                .max((len + g - 1) / g);
            if bound != busytime::bounds::lower_bound(p.instance()).ticks() {
                out.tally.fail(format!(
                    "interval bound {bound} disagrees with bounds::lower_bound"
                ));
            }
        }
    }
    out.put(
        "interval.lb_ns_per_job",
        per(t.elapsed().as_nanos(), jobs * reps),
        "ns",
        format!("{jobs} jobs x {reps}"),
    );

    // Branch-and-bound nodes per second under the certification budget.
    let budget = ExactBudget {
        max_nodes: CERTIFY_NODES,
        max_millis: None,
    };
    let (mut nodes, mut solved_count) = (0u64, 0usize);
    let t = Instant::now();
    for p in &certify {
        match busytime_exact::bnb::branch_and_bound(p.instance(), &budget) {
            ExactOutcome::Optimal { nodes: n, .. } => {
                nodes += n;
                solved_count += 1;
            }
            ExactOutcome::Exhausted { nodes: n, .. } => nodes += n,
        }
    }
    let secs = t.elapsed().as_secs_f64();
    out.put(
        "exact.nodes_per_s",
        nodes as f64 / secs,
        "1/s",
        format!("{nodes} nodes"),
    );
    out.put(
        "exact.solved_frac",
        solved_count as f64 / certify.len() as f64,
        "ratio",
        format!(
            "{solved_count} of {} within {CERTIFY_NODES} nodes",
            certify.len()
        ),
    );

    // The solutions are checked like an untraced pass.
    let pass = (
        solved.into_iter().map(|(_, r)| r).collect(),
        solvers.exact.solve_batch(&certify),
    );
    let (_, _, above) = check_pass(list, &pass, bracket, &mut out.tally);
    out.lines.push(format!(
        "exact: {above} of {} certification brackets end above the heuristic's cost",
        certify.len()
    ));
    Ok(())
}

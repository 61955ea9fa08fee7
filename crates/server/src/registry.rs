//! The sharded multi-tenant registry: live schedulers behind bounded channels.
//!
//! Every tenant owns one live [`OnlineScheduler`] that survives across requests —
//! arrivals and departures mutate it incrementally through the core `MachinePool`
//! path, so a tenant with a million placed jobs answers its next request in the same
//! `O(log m)` a fresh one would, never re-solving from scratch.
//!
//! Tenants are **hash-sharded** across `N` worker shards.  Each shard is one OS
//! thread owning a plain `HashMap` of its tenants; since a tenant's scheduler is only
//! ever touched by its home shard, the hot path runs without any lock — the only
//! synchronization is the bounded [`mpsc::sync_channel`] that carries request
//! *batches* to the shard (applying backpressure when a shard falls behind) and the
//! rendezvous channel that carries the responses back.  [`Engine::call`] sends a
//! batch of one; [`Engine::call_many`] — the pipelined connection handler's path —
//! coalesces every decoded request bound for the same shard into a single channel
//! send, amortizing the synchronization over the whole window.  Requests for the
//! same tenant are applied in the order they were routed either way, while requests
//! for tenants on different shards proceed in parallel.
//!
//! [`Engine`] is the cloneable front door: the TCP server hands one clone to every
//! connection thread, the in-process tests and benchmarks call it directly.  Batch
//! solves ([`Request::Batch`]) do not touch the shards at all — they fan out through
//! [`Solver::solve_batch`] on the work-stealing pool beside them.
//!
//! **Durability** is opt-in per registry ([`Registry::with_durability`]): each shard
//! then writes every applied mutation to its tenant's `busytime-durability` journal
//! *before* acknowledging it, recovers its tenants from disk at startup (restore the
//! newest snapshot, replay the journal tail through the same `apply_event` path
//! requests take), and compacts a tenant's log inline once it crosses the configured
//! threshold — at most one compaction per applied request, so the shard's tail
//! latency stays bounded by one snapshot write.  Without a [`DurabilityConfig`] the
//! registry behaves exactly as before: purely in-memory, byte-identical responses.
//!
//! **Admission control** is opt-in per registry ([`AdmissionConfig`] via
//! [`RegistryConfig`]): per-tenant token-bucket rate quotas and in-flight caps shed
//! a flooding tenant's excess with an explicit retryable `overloaded` error before
//! it can monopolize a shard's bounded queue, and the shard handoff itself becomes
//! bounded-wait — a queue still full past the configured deadline answers
//! `overloaded` (with a retry-after hint) instead of stalling the connection.
//! Without an admission config, handoff blocks exactly as before.
//!
//! **Shard supervision**: a shard worker that dies (only possible today via an
//! injected [`FaultPlan`] kill — every apply panic is caught and contained) is
//! respawned in-process on the next request routed to it, re-running the same WAL
//! recovery a process restart would.  On a durable registry its tenants come back
//! with every acknowledged event; on an in-memory registry a respawned shard is
//! empty (that is what durability is for).

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use busytime::online::{CompactEffect, Event, OnlineScheduler, OnlineSnapshot};
use busytime::report::{ScheduleReport, SimulationReport};
use busytime::{Duration, Instance, Interval, OnlinePolicy, Problem, Solver, Time};
use busytime_durability::{FaultInjector, IoPoint, Store, TenantLog};

use crate::faults::{FaultKind, FaultPlan, InjectedKill};
use crate::protocol::{
    BatchInstance, BatchOutcome, ErrorCode, HealthReport, Request, Response, ShardHealth,
    TenantHealth,
};

/// Depth of each shard's request queue.  Bounded so that a shard falling behind
/// applies backpressure to its callers instead of buffering unboundedly.
const SHARD_QUEUE_DEPTH: usize = 64;

/// The trajectory window a tenant retains: at least this many of the most recent
/// per-event cost points (and at most twice as many — truncation drops the oldest
/// half in one amortized-O(1) step).  The scheduler's `arrivals`/`departures`
/// counters are unaffected, so `query` still reports the true event totals; only
/// the replayable cost history is bounded, which is what keeps a long-lived
/// tenant's memory and query latency O(window), not O(lifetime).
pub const TRAJECTORY_WINDOW: usize = 65_536;

/// Largest machine capacity `g` the wire accepts for `open`/`restore`.  The
/// in-process API trusts its caller, but a network client must not be able to make
/// one machine allocate `capacity` thread sets (an `open` with a huge `g` followed
/// by one arrival would otherwise abort the daemon on allocation failure).  2^20
/// threads per machine is far beyond any workload the paper's model contemplates.
pub const MAX_CAPACITY: usize = 1 << 20;

/// Largest absolute tick coordinate the wire accepts in a job window.  Keeps every
/// length and cost the scheduler derives far away from `i64` overflow (a window of
/// `[-i64::MAX/2, i64::MAX/2)` would wrap the busy-time arithmetic); ±2^42 ticks is
/// ~139 years at nanosecond resolution.
pub const MAX_ABS_TICK: i64 = 1 << 42;

/// How a durable registry persists its tenants; passed to
/// [`Registry::with_durability`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for the store — one subdirectory per tenant, created on
    /// demand.  Scanned at startup to rebuild every tenant that was open when
    /// the previous process died.
    pub data_dir: PathBuf,
    /// Group-commit size: `fsync` once per this many journal appends.  Every
    /// append is still `write(2)`-through immediately, so a killed *process*
    /// loses nothing acknowledged; only a machine crash can cost up to
    /// `fsync_batch - 1` trailing events.
    pub fsync_batch: usize,
    /// Compact a tenant's log (snapshot + truncate) once its journal holds
    /// this many records.  Compaction runs inline on the shard, at most once
    /// per applied request, so tail latency is bounded by one snapshot write.
    pub compact_threshold: u64,
}

impl DurabilityConfig {
    /// A config with the default group-commit batch (64) and compaction
    /// threshold (8192 journal records).
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync_batch: 64,
            compact_threshold: 8192,
        }
    }
}

/// Per-tenant admission control and load-shedding policy; opt-in via
/// [`RegistryConfig::admission`].  When present, the shard handoff also becomes
/// bounded-wait: a queue still full after [`AdmissionConfig::queue_wait_ms`]
/// sheds the batch with `overloaded` instead of stalling the caller.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-tenant in-flight request cap.  The guard is held from admission
    /// until the response is handed back, so one flooding tenant can keep at
    /// most this many slots of its shard's queue busy.
    pub max_inflight: usize,
    /// Per-tenant rate quota in requests/second (token bucket with a burst of
    /// one second's worth); `None` disables rate limiting.
    pub tenant_rate: Option<f64>,
    /// How long a shard handoff may wait on a full queue before shedding.
    pub queue_wait_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 1024,
            tenant_rate: None,
            queue_wait_ms: 50,
        }
    }
}

/// Everything [`Registry::with_config`] accepts: shard count plus the opt-in
/// durability, admission, and fault-injection layers.
#[derive(Clone, Default)]
pub struct RegistryConfig {
    /// Worker shards to spawn (clamped to at least 1).
    pub shards: usize,
    /// Persist tenants under this config's data directory when given.
    pub durability: Option<DurabilityConfig>,
    /// Shed per-tenant overload when given; otherwise handoff blocks.
    pub admission: Option<AdmissionConfig>,
    /// Deterministic fault schedule for chaos tests; inert when absent.
    pub faults: Option<FaultPlan>,
    /// Background defragmentation budget: when given, every applied event is
    /// followed by one `compact(K)` pass on its tenant (journaled through the
    /// same mutation path, so recovery replays it at the same point).
    pub defrag_budget: Option<usize>,
}

impl RegistryConfig {
    /// An in-memory config with `shards` workers and no optional layers.
    pub fn new(shards: usize) -> Self {
        RegistryConfig {
            shards,
            ..RegistryConfig::default()
        }
    }
}

/// A token bucket's live state: fractional tokens plus the last refill instant.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// One tenant's admission state.
#[derive(Debug)]
struct TenantGate {
    inflight: AtomicUsize,
    shed: AtomicU64,
    bucket: Mutex<Bucket>,
}

impl TenantGate {
    fn new(rate: Option<f64>) -> Self {
        TenantGate {
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            bucket: Mutex::new(Bucket {
                // A fresh tenant starts with a full bucket (one second's burst).
                tokens: rate.map_or(0.0, |r| r.max(1.0)),
                last: Instant::now(),
            }),
        }
    }
}

/// Decrements its tenant's in-flight count when the request's response is in
/// hand (or the request was dropped on the floor).
struct InflightGuard {
    gate: Arc<TenantGate>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared admission state: the config plus one gate per tenant seen.
struct Admission {
    config: AdmissionConfig,
    tenants: Mutex<HashMap<String, Arc<TenantGate>>>,
}

impl Admission {
    fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn gate(&self, tenant: &str) -> Arc<TenantGate> {
        let mut map = self.tenants.lock().expect("admission map lock");
        map.entry(tenant.to_string())
            .or_insert_with(|| Arc::new(TenantGate::new(self.config.tenant_rate)))
            .clone()
    }

    /// Admit one request for `tenant`: check the in-flight cap and the rate
    /// quota, or answer the `overloaded` response the caller should return.
    /// The `Err` carries the full `Response` by design — it travels straight
    /// back to the caller on the one path where size does not matter.
    #[allow(clippy::result_large_err)]
    fn admit(&self, tenant: &str) -> Result<InflightGuard, Response> {
        let gate = self.gate(tenant);
        let previous = gate.inflight.fetch_add(1, Ordering::AcqRel);
        if previous >= self.config.max_inflight {
            gate.inflight.fetch_sub(1, Ordering::AcqRel);
            gate.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Response::overloaded(
                format!(
                    "tenant '{tenant}' already has {previous} request(s) in flight \
                     (cap {})",
                    self.config.max_inflight
                ),
                self.config.queue_wait_ms.max(1),
            ));
        }
        let guard = InflightGuard { gate: gate.clone() };
        if let Some(rate) = self.config.tenant_rate {
            let mut bucket = gate.bucket.lock().expect("token bucket lock");
            let now = Instant::now();
            let elapsed = now.duration_since(bucket.last).as_secs_f64();
            bucket.last = now;
            bucket.tokens = (bucket.tokens + elapsed * rate).min(rate.max(1.0));
            if bucket.tokens >= 1.0 {
                bucket.tokens -= 1.0;
            } else {
                let wait_ms = (((1.0 - bucket.tokens) / rate) * 1000.0).ceil() as u64;
                drop(bucket);
                gate.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Response::overloaded(
                    format!("tenant '{tenant}' exceeded its quota of {rate} request(s)/s"),
                    wait_ms.max(1),
                ));
            }
        }
        Ok(guard)
    }

    /// Record a queue-full shed against `tenant` (the request was admitted but
    /// its shard's queue never drained).
    fn note_shed(&self, tenant: &str) {
        self.gate(tenant).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Tenants that have been shed at least once, sorted by name.
    fn degraded(&self) -> Vec<TenantHealth> {
        let map = self.tenants.lock().expect("admission map lock");
        let mut out: Vec<TenantHealth> = map
            .iter()
            .filter_map(|(name, gate)| {
                let shed = gate.shed.load(Ordering::Relaxed);
                (shed > 0).then(|| TenantHealth {
                    tenant: name.clone(),
                    shed,
                    inflight: gate.inflight.load(Ordering::Relaxed),
                })
            })
            .collect();
        out.sort_unstable_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

/// A shard's handle on the durable store plus the compaction policy.
#[derive(Clone)]
struct ShardStore {
    store: Store,
    compact_threshold: u64,
}

/// Everything one shard worker owns: its tenants, and (when durability is on)
/// its store handle.
struct ShardState {
    tenants: HashMap<String, Tenant>,
    store: Option<ShardStore>,
    /// Moves each auto-defrag pass may commit; `None` disables the pass.
    defrag_budget: Option<usize>,
}

impl ShardState {
    /// A store-less shard, as the map-level unit tests drive it.
    #[cfg(test)]
    fn in_memory() -> Self {
        ShardState {
            tenants: HashMap::new(),
            store: None,
            defrag_budget: None,
        }
    }
}

/// One tenant's state on its home shard.
struct Tenant {
    scheduler: OnlineScheduler,
    /// Busy-time after each applied event since open (or since the last restore —
    /// the trajectory restarts at a restore point, the scheduler's counters do
    /// not), bounded to the [`TRAJECTORY_WINDOW`] most recent points.
    trajectory: Vec<i64>,
    /// The tenant's write-ahead log; `None` on in-memory registries.
    log: Option<TenantLog>,
}

/// A batch of requests en route to one shard, paired with its reply channel.
///
/// The batch is the unit of channel traffic: coalescing `k` decoded requests for
/// the same shard into one bounded-channel send amortizes the synchronization
/// cost that used to be paid per request, while the shard still applies the
/// requests strictly in batch order (so per-tenant ordering is untouched — a
/// tenant lives on exactly one shard).
struct ShardCall {
    requests: Vec<Request>,
    reply: mpsc::SyncSender<Vec<Response>>,
}

/// Live counters for one shard slot, shared between the engine (which fills
/// them) and the `health` report (which reads them).
#[derive(Debug, Default)]
struct ShardMetrics {
    /// Requests queued or being applied on the shard right now (approximate:
    /// reset on respawn, saturating on the way down).
    queued: AtomicUsize,
    /// Requests shed at this shard's handoff (queue-full timeouts).
    shed: AtomicU64,
    /// Times this shard's worker died and was respawned.
    respawns: AtomicU64,
}

/// One shard's supervised mailbox: the live sender (swapped on respawn), a
/// generation counter so concurrent callers respawn at most once per death,
/// and the shared metrics.
struct ShardSlot {
    generation: AtomicU64,
    sender: RwLock<mpsc::SyncSender<ShardCall>>,
    metrics: Arc<ShardMetrics>,
}

/// Spawns shard workers — at startup and again when one dies — and keeps their
/// join handles for [`Registry::shutdown`].
struct Supervisor {
    shard_store: Option<ShardStore>,
    shards: usize,
    faults: Option<FaultPlan>,
    defrag_budget: Option<usize>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Spawn a fresh worker for `shard`: recover its tenants from the store
    /// (a no-op in-memory), then serve its queue.  Returns the new sender.
    fn spawn_worker(
        &self,
        shard: usize,
        metrics: Arc<ShardMetrics>,
    ) -> mpsc::SyncSender<ShardCall> {
        let (tx, rx) = mpsc::sync_channel::<ShardCall>(SHARD_QUEUE_DEPTH);
        let store = self.shard_store.clone();
        let shards = self.shards;
        let faults = self.faults.clone();
        let defrag_budget = self.defrag_budget;
        let handle = std::thread::Builder::new()
            .name(format!("busytime-shard-{shard}"))
            .spawn(move || {
                let mut state = ShardState {
                    tenants: HashMap::new(),
                    store,
                    defrag_budget,
                };
                recover_shard(&mut state, shard, shards);
                shard_loop(rx, state, metrics, faults)
            })
            .expect("spawning a shard worker");
        self.handles
            .lock()
            .expect("supervisor handle lock")
            .push(handle);
        tx
    }
}

/// The running registry: shard worker threads plus the shared counters.
///
/// Simply dropping the registry *detaches* the shard workers (they exit once every
/// queue handle is gone, but nobody observes how); call [`Registry::shutdown`] for
/// an orderly stop that joins the workers and surfaces any worker panic.
pub struct Registry {
    engine: Engine,
}

impl Registry {
    /// Spawn `shards` purely in-memory worker shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_config(RegistryConfig::new(shards))
            .expect("an in-memory registry touches no disk")
    }

    /// Spawn `shards` worker shards (clamped to at least 1), persisting every
    /// tenant under `durability.data_dir` when a config is given.  Each shard
    /// rebuilds its own tenants from the data directory before serving its
    /// first request (requests queue behind recovery, so callers simply see
    /// the first responses after the rebuild).  A tenant whose on-disk state
    /// cannot be restored is skipped with a diagnostic on stderr — the server
    /// keeps serving every tenant that does recover.
    pub fn with_durability(
        shards: usize,
        durability: Option<DurabilityConfig>,
    ) -> std::io::Result<Self> {
        Self::with_config(RegistryConfig {
            shards,
            durability,
            ..RegistryConfig::default()
        })
    }

    /// Spawn a registry from a full [`RegistryConfig`]: shard count plus the
    /// opt-in durability, admission-control, and fault-injection layers.
    pub fn with_config(config: RegistryConfig) -> std::io::Result<Self> {
        let shards = config.shards.max(1);
        let shard_store = match config.durability {
            Some(durability) => {
                let mut store = Store::open(&durability.data_dir, durability.fsync_batch)?;
                if let Some(plan) = &config.faults {
                    let plan = plan.clone();
                    store.set_injector(Some(FaultInjector::new(move |point| {
                        let (kind, what) = match point {
                            IoPoint::Append => {
                                (FaultKind::WalAppend, "injected WAL append failure")
                            }
                            IoPoint::Sync => (FaultKind::WalSync, "injected WAL fsync failure"),
                        };
                        plan.fire(kind).then(|| std::io::Error::other(what))
                    })));
                }
                Some(ShardStore {
                    store,
                    compact_threshold: durability.compact_threshold.max(1),
                })
            }
            None => None,
        };
        let supervisor = Arc::new(Supervisor {
            shard_store,
            shards,
            faults: config.faults.clone(),
            defrag_budget: config.defrag_budget.filter(|&k| k > 0),
            handles: Mutex::new(Vec::with_capacity(shards)),
        });
        let slots: Vec<ShardSlot> = (0..shards)
            .map(|shard| {
                let metrics = Arc::new(ShardMetrics::default());
                let sender = supervisor.spawn_worker(shard, metrics.clone());
                ShardSlot {
                    generation: AtomicU64::new(0),
                    sender: RwLock::new(sender),
                    metrics,
                }
            })
            .collect();
        Ok(Registry {
            engine: Engine {
                shards: Arc::new(slots),
                requests: Arc::new(AtomicU64::new(0)),
                solver: Solver::new(),
                admission: config.admission.map(|a| Arc::new(Admission::new(a))),
                faults: config.faults,
                supervisor,
            },
        })
    }

    /// A cloneable handle on the registry; every connection thread gets one.
    pub fn engine(&self) -> Engine {
        self.engine.clone()
    }

    /// Drop the registry's own queue handles and join the shard workers.  Blocks
    /// until every outstanding [`Engine`] clone has dropped as well.  Worker
    /// deaths planned by a [`FaultPlan`] are expected and tolerated; any other
    /// worker panic is resurfaced here.
    pub fn shutdown(self) {
        let Registry { engine } = self;
        let supervisor = engine.supervisor.clone();
        drop(engine);
        // Respawns may add handles while earlier ones are being joined, so
        // drain until the list stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = supervisor.handles.lock().expect("supervisor handle lock");
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    if !panic.is::<InjectedKill>() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    }
}

/// How a shard handoff failed.
enum ShardSendError {
    /// The queue stayed full past the bounded-wait deadline (admission only).
    Full,
    /// The worker is dead and a respawn retry also failed.
    Gone,
}

/// The cloneable front door of the registry: routes tenant operations to their home
/// shard over the bounded queues and runs batch solves on the work-stealing pool.
#[derive(Clone)]
pub struct Engine {
    shards: Arc<Vec<ShardSlot>>,
    requests: Arc<AtomicU64>,
    solver: Solver,
    admission: Option<Arc<Admission>>,
    faults: Option<FaultPlan>,
    supervisor: Arc<Supervisor>,
}

impl Engine {
    /// Number of worker shards behind this engine.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `tenant` (stable for the registry's lifetime).
    pub fn shard_for(&self, tenant: &str) -> usize {
        shard_index(tenant, self.shards.len())
    }

    /// The fault plan this engine was built with, if any (the serve loop
    /// consults it for connection-level faults).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Apply one request and wait for its response.
    ///
    /// Tenant-scoped requests serialize per tenant (the home shard applies them in
    /// routing order); requests for different shards run in parallel.  This is the
    /// same entry point the TCP connection threads use, so the in-process tests and
    /// benchmarks exercise the identical path minus the socket.
    pub fn call(&self, request: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.call_one(request)
    }

    /// Route one already-counted request: engine-side ops run inline, tenant
    /// ops pass admission control (when that layer is on) and go to their
    /// home shard.
    fn call_one(&self, request: Request) -> Response {
        match request {
            Request::Batch { instances, budget } => self.solve_batch(&instances, budget),
            Request::Stats => self.stats(),
            Request::Health => self.health(),
            request => {
                let tenant = request.tenant().expect("routed ops are tenant-scoped");
                let _guard = match self.admit(tenant) {
                    Ok(guard) => guard,
                    Err(response) => return response,
                };
                let shard = self.shard_for(tenant);
                self.call_shard(shard, vec![request])
                    .pop()
                    .unwrap_or_else(no_shard_response)
            }
        }
    }

    /// Run `tenant` through admission control.  `Ok` carries the in-flight
    /// guard to hold until the response is collected; `Err` is the overload
    /// response to send instead of doing any work.
    #[allow(clippy::result_large_err)]
    fn admit(&self, tenant: &str) -> Result<Option<InflightGuard>, Response> {
        match &self.admission {
            Some(admission) => admission.admit(tenant).map(Some),
            None => Ok(None),
        }
    }

    /// Apply a batch of requests and return their responses in request order.
    ///
    /// This is the pipelined fast path: the batch is partitioned per shard with
    /// relative order preserved, each shard gets **one** bounded-channel send for
    /// its whole sub-batch (instead of one per request), all shards work their
    /// sub-batches in parallel, and the replies are reassembled into request
    /// order.  A tenant hashes to exactly one shard, so every tenant still sees
    /// its requests applied in the order they were submitted.  Non-tenant
    /// requests (`batch`, `stats`) run engine-side at their position in the
    /// batch, before the shard sub-batches dispatch.
    pub fn call_many(&self, requests: Vec<Request>) -> Vec<Response> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        if requests.len() == 1 {
            let request = requests.into_iter().next().expect("one request");
            return vec![self.call_one(request)];
        }
        let mut slots: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        let mut guards: Vec<InflightGuard> = Vec::new();
        let mut per_shard: Vec<(Vec<usize>, Vec<Request>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                Request::Batch { instances, budget } => {
                    slots[i] = Some(self.solve_batch(&instances, budget));
                }
                Request::Stats => slots[i] = Some(self.stats()),
                Request::Health => slots[i] = Some(self.health()),
                request => {
                    let tenant = request.tenant().expect("routed ops are tenant-scoped");
                    match self.admit(tenant) {
                        Err(response) => slots[i] = Some(response),
                        Ok(guard) => {
                            guards.extend(guard);
                            let shard = self.shard_for(tenant);
                            per_shard[shard].0.push(i);
                            per_shard[shard].1.push(request);
                        }
                    }
                }
            }
        }
        // Send every sub-batch before waiting on any reply, so the shards run in
        // parallel; then fill the slots back in request order.
        let mut outstanding: Vec<(Vec<usize>, mpsc::Receiver<Vec<Response>>)> = Vec::new();
        for (shard, (indices, batch)) in per_shard.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let expected = batch.len();
            self.shards[shard]
                .metrics
                .queued
                .fetch_add(expected, Ordering::Relaxed);
            let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<Response>>(1);
            match self.send_to_shard(
                shard,
                ShardCall {
                    requests: batch,
                    reply: reply_tx,
                },
            ) {
                Ok(()) => outstanding.push((indices, reply_rx)),
                Err((call, error)) => {
                    let _ = self.shards[shard].metrics.queued.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |v| Some(v.saturating_sub(expected)),
                    );
                    for (i, response) in indices
                        .into_iter()
                        .zip(self.send_failure(shard, call, error))
                    {
                        slots[i] = Some(response);
                    }
                }
            }
        }
        for (indices, reply_rx) in outstanding {
            match reply_rx.recv() {
                Ok(responses) => {
                    for (i, response) in indices.into_iter().zip(responses) {
                        slots[i] = Some(response);
                    }
                }
                Err(_) => {
                    for i in indices {
                        slots[i] = Some(Response::fail(
                            ErrorCode::Unavailable,
                            "the shard worker dropped the request",
                        ));
                    }
                }
            }
        }
        drop(guards);
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(no_shard_response))
            .collect()
    }

    /// Send one batch to a specific shard and wait for the replies.
    fn call_shard(&self, shard: usize, requests: Vec<Request>) -> Vec<Response> {
        let expected = requests.len();
        self.shards[shard]
            .metrics
            .queued
            .fetch_add(expected, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<Response>>(1);
        if let Err((call, error)) = self.send_to_shard(
            shard,
            ShardCall {
                requests,
                reply: reply_tx,
            },
        ) {
            let _ = self.shards[shard].metrics.queued.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| Some(v.saturating_sub(expected)),
            );
            return self.send_failure(shard, call, error);
        }
        reply_rx.recv().unwrap_or_else(|_| {
            (0..expected)
                .map(|_| {
                    Response::fail(
                        ErrorCode::Unavailable,
                        "the shard worker dropped the request",
                    )
                })
                .collect()
        })
    }

    /// Hand one batch to a shard's queue.
    ///
    /// Without admission control this blocks until the queue accepts the batch
    /// (the original backpressure semantics).  With admission control the wait
    /// is bounded by `queue_wait_ms`, after which the batch comes back as
    /// [`ShardSendError::Full`] for the caller to shed.  A dead worker is
    /// respawned once (its tenants recover from the WAL when durability is on)
    /// and the send retried — safe because a failed send never delivered the
    /// batch — before giving up as [`ShardSendError::Gone`].
    fn send_to_shard(
        &self,
        shard: usize,
        mut call: ShardCall,
    ) -> Result<(), (ShardCall, ShardSendError)> {
        let slot = &self.shards[shard];
        for attempt in 0..2 {
            let (sender, generation) = {
                let guard = slot.sender.read().expect("shard sender lock");
                (guard.clone(), slot.generation.load(Ordering::Acquire))
            };
            match &self.admission {
                None => match sender.send(call) {
                    Ok(()) => return Ok(()),
                    Err(mpsc::SendError(returned)) => call = returned,
                },
                Some(admission) => {
                    let deadline = Instant::now()
                        + std::time::Duration::from_millis(admission.config.queue_wait_ms);
                    loop {
                        match sender.try_send(call) {
                            Ok(()) => return Ok(()),
                            Err(mpsc::TrySendError::Full(returned)) => {
                                call = returned;
                                if Instant::now() >= deadline {
                                    return Err((call, ShardSendError::Full));
                                }
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            Err(mpsc::TrySendError::Disconnected(returned)) => {
                                call = returned;
                                break;
                            }
                        }
                    }
                }
            }
            if attempt == 0 {
                self.respawn_shard(shard, generation);
            }
        }
        Err((call, ShardSendError::Gone))
    }

    /// Replace a dead shard worker, unless another caller already did (the
    /// generation moved past what this caller observed).
    fn respawn_shard(&self, shard: usize, observed_generation: u64) {
        let slot = &self.shards[shard];
        let mut sender = slot.sender.write().expect("shard sender lock");
        if slot.generation.load(Ordering::Acquire) != observed_generation {
            return;
        }
        *sender = self.supervisor.spawn_worker(shard, slot.metrics.clone());
        slot.generation.fetch_add(1, Ordering::AcqRel);
        slot.metrics.respawns.fetch_add(1, Ordering::Relaxed);
        slot.metrics.queued.store(0, Ordering::Relaxed);
    }

    /// Turn an undeliverable batch into its per-request error responses,
    /// recording the shed against the shard and each tenant.
    fn send_failure(&self, shard: usize, call: ShardCall, error: ShardSendError) -> Vec<Response> {
        match error {
            ShardSendError::Full => {
                let slot = &self.shards[shard];
                slot.metrics
                    .shed
                    .fetch_add(call.requests.len() as u64, Ordering::Relaxed);
                let retry_after_ms = self
                    .admission
                    .as_ref()
                    .map(|a| a.config.queue_wait_ms)
                    .unwrap_or(1)
                    .max(1);
                call.requests
                    .iter()
                    .map(|request| {
                        if let (Some(admission), Some(tenant)) = (&self.admission, request.tenant())
                        {
                            admission.note_shed(tenant);
                        }
                        Response::overloaded(format!("shard {shard} queue is full"), retry_after_ms)
                    })
                    .collect()
            }
            ShardSendError::Gone => call
                .requests
                .iter()
                .map(|_| Response::fail(ErrorCode::Unavailable, "the shard worker is gone"))
                .collect(),
        }
    }

    /// Server-wide counters, merged over a per-shard census.
    fn stats(&self) -> Response {
        let mut tenants = 0usize;
        for shard in 0..self.shards.len() {
            match self.call_shard(shard, vec![Request::Stats]).pop() {
                Some(Response::Stats { tenants: t, .. }) => tenants += t,
                Some(other) => return other,
                None => return no_shard_response(),
            }
        }
        Response::Stats {
            shards: self.shards.len(),
            tenants,
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// A server-wide health report: per-shard queue/shed/respawn counters kept
    /// engine-side, a tenant/WAL census collected from each shard, and the
    /// tenants admission control has shed from.  A shard that cannot answer
    /// its census contributes zeros rather than failing the report — `health`
    /// must stay useful precisely when shards are struggling.
    fn health(&self) -> Response {
        let mut shards = Vec::with_capacity(self.shards.len());
        for (index, slot) in self.shards.iter().enumerate() {
            let mut health = ShardHealth {
                shard: index,
                queue_depth: slot.metrics.queued.load(Ordering::Relaxed),
                shed: slot.metrics.shed.load(Ordering::Relaxed),
                respawns: slot.metrics.respawns.load(Ordering::Relaxed),
                ..ShardHealth::default()
            };
            if let Some(Response::Health(census)) =
                self.call_shard(index, vec![Request::Health]).pop()
            {
                if let Some(local) = census.shards.first() {
                    health.tenants = local.tenants;
                    health.wal_backlog = local.wal_backlog;
                }
            }
            shards.push(health);
        }
        let degraded = self
            .admission
            .as_ref()
            .map(|a| a.degraded())
            .unwrap_or_default();
        Response::Health(HealthReport { shards, degraded })
    }

    /// Fan a batch of instances out through [`Solver::solve_batch`]; per-instance
    /// failures (malformed windows, zero capacity) come back inline without failing
    /// the sibling instances.
    fn solve_batch(&self, instances: &[BatchInstance], budget: Option<i64>) -> Response {
        let budget = match budget {
            Some(t) if t < 0 => {
                return Response::fail(ErrorCode::Rejected, "the budget must be non-negative")
            }
            Some(t) => Some(Duration::new(t)),
            None => None,
        };
        let parsed: Vec<Result<Instance, String>> = instances
            .iter()
            .enumerate()
            .map(|(i, file)| {
                Instance::try_from_ticks(&file.jobs, file.capacity)
                    .map_err(|e| format!("instance {i}: {e}"))
            })
            .collect();
        let problems: Vec<Problem> = parsed
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|instance| match budget {
                Some(t) => Problem::max_throughput(instance.clone(), t),
                None => Problem::min_busy(instance.clone()),
            })
            .collect();
        let mut solved = self.solver.solve_batch(&problems).into_iter();
        let outcomes: Vec<BatchOutcome> = parsed
            .into_iter()
            .map(|parse| match parse {
                Err(error) => BatchOutcome::Failed(error),
                Ok(instance) => match solved.next().expect("one result per valid instance") {
                    Ok(solution) => {
                        BatchOutcome::Solved(ScheduleReport::from_solution(&instance, &solution))
                    }
                    Err(error) => BatchOutcome::Failed(error.to_string()),
                },
            })
            .collect();
        Response::Batch(outcomes)
    }
}

/// The response for a shard reply that never materialized.
fn no_shard_response() -> Response {
    Response::fail(
        ErrorCode::Unavailable,
        "the shard worker returned no response",
    )
}

/// The shard a tenant name hashes to, shared by request routing and startup
/// recovery (a recovered tenant must land on the shard that will serve it).
fn shard_index(tenant: &str, shards: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    tenant.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Serialize a scheduler's snapshot for the durable store.
fn snapshot_json(scheduler: &OnlineScheduler) -> String {
    serde_json::to_string(&scheduler.snapshot()).expect("snapshots always serialize")
}

/// A shard's event loop: apply requests to the owned tenants until every queue
/// handle is gone.
///
/// A panic while applying a request is contained to that request: the panicking
/// tenant is dropped from memory (its state can no longer be trusted — its
/// durable state, which holds only acknowledged events, is untouched and will
/// recover on the next start), the caller gets an error response, and the shard
/// keeps serving its other tenants — a wire client must never be able to park a
/// whole shard in the "worker is gone" state.
///
/// A fault plan can additionally kill the whole worker ([`FaultKind::ShardKill`],
/// fired *before* the batch is touched so nothing was applied and the engine's
/// respawn-and-retry is exactly-once safe) or panic a single tenant-scoped
/// request ([`FaultKind::ApplyPanic`], which rides the containment path above).
fn shard_loop(
    rx: mpsc::Receiver<ShardCall>,
    mut state: ShardState,
    metrics: Arc<ShardMetrics>,
    faults: Option<FaultPlan>,
) {
    while let Ok(call) = rx.recv() {
        if let Some(plan) = &faults {
            if plan.fire(FaultKind::ShardKill) {
                std::panic::panic_any(InjectedKill);
            }
        }
        let len = call.requests.len();
        let mut responses = Vec::with_capacity(len);
        for request in call.requests {
            let tenant = request.tenant().map(str::to_string);
            let inject_panic = tenant.is_some()
                && faults
                    .as_ref()
                    .is_some_and(|plan| plan.fire(FaultKind::ApplyPanic));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected apply panic");
                }
                apply(&mut state, request)
            }));
            responses.push(match outcome {
                Ok(response) => response,
                Err(_) => {
                    let detail = match tenant {
                        Some(name) => {
                            state.tenants.remove(&name);
                            format!("; tenant '{name}' was dropped")
                        }
                        None => String::new(),
                    };
                    Response::error(format!("internal error applying the request{detail}"))
                }
            });
        }
        // A caller that hung up (connection dropped mid-request) is not an error.
        let _ = call.reply.send(responses);
        let _ = metrics
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(len))
            });
    }
}

/// Rebuild this shard's tenants from the data directory: for every stored
/// tenant that hashes here, restore the newest snapshot and replay the journal
/// tail through [`apply_event`] — the same path live requests take, so the
/// recovered scheduler is the one an uninterrupted run would hold.  Tenants
/// that fail to recover are skipped with a diagnostic; recovery never aborts
/// the shard.
fn recover_shard(state: &mut ShardState, shard: usize, shards: usize) {
    let Some(shard_store) = state.store.clone() else {
        return;
    };
    let names = match shard_store.store.tenant_names() {
        Ok(names) => names,
        Err(error) => {
            eprintln!("busytime-server: shard {shard}: cannot scan the data directory: {error}");
            return;
        }
    };
    for name in names {
        if shard_index(&name, shards) != shard {
            continue;
        }
        match recover_tenant(&shard_store.store, &name) {
            Ok((tenant, notes)) => {
                for note in notes {
                    eprintln!("busytime-server: tenant '{name}': {note}");
                }
                state.tenants.insert(name, tenant);
            }
            Err(error) => {
                eprintln!("busytime-server: skipping unrecoverable tenant '{name}': {error}");
            }
        }
    }
}

/// Rebuild one tenant: restore its newest parseable snapshot, then replay the
/// journal tail.  A record that cannot be parsed or applied ends the replay at
/// the last good event and the repaired state is compacted to disk, so the
/// broken tail cannot strand later appends; journal-frame corruption was
/// already truncated away by the store's scan.
fn recover_tenant(store: &Store, name: &str) -> std::io::Result<(Tenant, Vec<String>)> {
    let recovered = store.load_tenant(name, |json| -> Result<OnlineScheduler, String> {
        let snapshot: OnlineSnapshot =
            serde_json::from_str(json).map_err(|e| format!("snapshot does not parse: {e}"))?;
        OnlineScheduler::restore(&snapshot).map_err(|e| e.to_string())
    })?;
    let mut tenant = Tenant {
        scheduler: recovered.value,
        trajectory: Vec::new(),
        log: None,
    };
    let mut notes = recovered.notes;
    let mut log = recovered.log;
    let mut anomaly = None;
    for (index, record) in recovered.records.iter().enumerate() {
        let failure = match decode_journal_record(name, record) {
            Ok(JournalRecord::Event(event)) => match apply_event(&mut tenant, &event) {
                Response::Error(error) => Some(error.message),
                _ => None,
            },
            // `compact` is a pure function of the placements it finds, and the
            // replayed scheduler holds exactly the placements the live one held
            // when the record was journaled — so replaying it commits the same
            // moves.  Journal appends are skipped here (`log` is rebuilt below).
            Ok(JournalRecord::Compact(budget)) => {
                let effect = tenant.scheduler.compact(budget);
                if let Some(last) = tenant.trajectory.last_mut() {
                    *last = effect.cost.ticks();
                }
                None
            }
            Err(error) => Some(error),
        };
        if let Some(failure) = failure {
            anomaly = Some(format!(
                "journal record {index} does not replay ({failure}); keeping the {index} \
                 event(s) before it"
            ));
            break;
        }
    }
    if let Some(anomaly) = anomaly {
        // Persist the repaired state: a fresh snapshot supersedes the whole
        // journal including its unreplayable tail.  If even that fails, skip
        // the tenant rather than appending after a tail we could not replay.
        log.compact(&snapshot_json(&tenant.scheduler))?;
        notes.push(anomaly);
    }
    tenant.log = Some(log);
    Ok((tenant, notes))
}

/// One replayable journal record: an online event or a defrag pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// An arrival or a departure, replayed through the tenant's scheduler.
    Event(Event),
    /// A `compact(budget)` defrag pass, replayed as the same pass.
    Compact(usize),
}

/// Decode one record of tenant `name`'s journal.
///
/// Records are the JSON wire requests the shard journaled
/// ([`Request::event_record_json`] for events, `compact` requests for defrag
/// passes), and an arrival's window passes the same bound check a live request
/// does.  Server recovery and the offline `busytime fsck` both decode through this
/// function, so the audit accepts exactly the records recovery replays.
pub fn decode_journal_record(name: &str, record: &[u8]) -> Result<JournalRecord, String> {
    let text = std::str::from_utf8(record).map_err(|e| format!("record is not UTF-8: {e}"))?;
    match Request::from_json(text)? {
        Request::Arrive { tenant, id, job } if tenant == name => checked_window(job.0, job.1)
            .map(|interval| JournalRecord::Event(Event::arrival(id, interval))),
        Request::Depart { tenant, id } if tenant == name => {
            Ok(JournalRecord::Event(Event::departure(id)))
        }
        Request::Compact { tenant, budget } if tenant == name => Ok(JournalRecord::Compact(budget)),
        other => Err(format!("unexpected '{}' record", other.op())),
    }
}

/// Parse and bound-check one wire job window.
///
/// The two bounds exist because the wire is a trust boundary the in-process API is
/// not: an empty window is a caller mistake, and a coordinate outside
/// [`MAX_ABS_TICK`] would let a single request overflow the `i64` length/cost
/// arithmetic downstream (wrapping the tenant's accounting in release builds,
/// panicking the shard in debug builds).
fn checked_window(start: i64, end: i64) -> Result<Interval, String> {
    if start.checked_abs().is_none_or(|s| s > MAX_ABS_TICK)
        || end.checked_abs().is_none_or(|e| e > MAX_ABS_TICK)
    {
        return Err(format!(
            "job window [{start}, {end}) is out of range (ticks must stay within ±{MAX_ABS_TICK})"
        ));
    }
    Interval::try_new(Time::new(start), Time::new(end))
        .map_err(|_| format!("job window [{start}, {end}) is empty"))
}

/// The error a durability-only operation gets on an in-memory registry.
const DURABILITY_DISABLED: &str = "durability is not enabled (start the server with --data-dir)";

/// Apply one tenant-scoped request to a shard's state.
fn apply(state: &mut ShardState, request: Request) -> Response {
    match request {
        Request::Open {
            tenant,
            capacity,
            policy,
        } => {
            let policy = match policy.as_deref().map(OnlinePolicy::parse) {
                None => OnlinePolicy::FirstFit,
                Some(Ok(policy)) => policy,
                Some(Err(error)) => return Response::fail(ErrorCode::Rejected, error),
            };
            if capacity > MAX_CAPACITY {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!("capacity {capacity} exceeds the server limit of {MAX_CAPACITY}"),
                );
            }
            if state.tenants.contains_key(&tenant) {
                return Response::fail(
                    ErrorCode::AlreadyOpen,
                    format!("tenant '{tenant}' is already open"),
                );
            }
            match OnlineScheduler::new(capacity, policy) {
                Ok(scheduler) => insert_tenant(state, tenant, scheduler),
                Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
            }
        }
        Request::Arrive { tenant, id, job } => {
            let interval = match checked_window(job.0, job.1) {
                Ok(interval) => interval,
                Err(error) => return Response::fail(ErrorCode::Rejected, error),
            };
            apply_logged(state, &tenant, Event::arrival(id, interval))
        }
        Request::Depart { tenant, id } => apply_logged(state, &tenant, Event::departure(id)),
        Request::Query { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            Response::Query(SimulationReport::from_scheduler(
                &t.scheduler,
                t.trajectory.clone(),
            ))
        }),
        Request::Snapshot { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            Response::Snapshot(t.scheduler.snapshot())
        }),
        Request::Restore { tenant, snapshot } => {
            // The same wire bounds as `open`/`arrive`: a snapshot is caller-supplied
            // data, not something this server necessarily produced.
            if snapshot.capacity > MAX_CAPACITY {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!(
                        "snapshot capacity {} exceeds the server limit of {MAX_CAPACITY}",
                        snapshot.capacity
                    ),
                );
            }
            if let Some(job) = snapshot
                .jobs
                .iter()
                .find(|job| checked_window(job.start, job.end).is_err())
            {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!(
                        "snapshot job {} has an out-of-range or empty window [{}, {})",
                        job.id, job.start, job.end
                    ),
                );
            }
            match OnlineScheduler::restore(&snapshot) {
                Ok(scheduler) => insert_tenant(state, tenant, scheduler),
                Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
            }
        }
        Request::Close { tenant } => {
            if !state.tenants.contains_key(&tenant) {
                return Response::fail(
                    ErrorCode::UnknownTenant,
                    format!("unknown tenant '{tenant}'"),
                );
            }
            // Disk first: if the durable state cannot be removed, the tenant
            // stays open rather than resurrecting on the next start.
            if let Some(shard_store) = &state.store {
                if let Err(error) = shard_store.store.remove_tenant(&tenant) {
                    return Response::error(format!(
                        "cannot remove tenant '{tenant}' from the data directory: {error}"
                    ));
                }
            }
            state.tenants.remove(&tenant);
            Response::Ok
        }
        Request::Persist { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            let json = snapshot_json(&t.scheduler);
            match t.log.as_mut() {
                Some(log) => match log.compact(&json) {
                    Ok(()) => Response::Wal(log.stats()),
                    Err(error) => {
                        Response::error(format!("compaction failed for tenant '{tenant}': {error}"))
                    }
                },
                None => Response::fail(ErrorCode::Unsupported, DURABILITY_DISABLED),
            }
        }),
        Request::WalStats { tenant } => {
            with_tenant(&mut state.tenants, &tenant, |t| match t.log.as_mut() {
                Some(log) => Response::Wal(log.stats()),
                None => Response::fail(ErrorCode::Unsupported, DURABILITY_DISABLED),
            })
        }
        // A shard-local census used by `Engine::stats`; `shards`/`requests` are
        // filled in by the merge.
        Request::Stats => Response::Stats {
            shards: 1,
            tenants: state.tenants.len(),
            requests: 0,
        },
        // A shard-local census used by `Engine::health`: tenant count and the
        // summed un-synced WAL backlog; the queue/shed/respawn figures are
        // engine-side and merged there.
        Request::Health => Response::Health(HealthReport {
            shards: vec![ShardHealth {
                shard: 0,
                tenants: state.tenants.len(),
                wal_backlog: state
                    .tenants
                    .values()
                    .map(|t| t.log.as_ref().map_or(0, |log| log.pending() as u64))
                    .sum::<u64>(),
                ..ShardHealth::default()
            }],
            degraded: Vec::new(),
        }),
        Request::Compact { tenant, budget } => {
            let Some(t) = state.tenants.get_mut(&tenant) else {
                return Response::fail(
                    ErrorCode::UnknownTenant,
                    format!("unknown tenant '{tenant}'"),
                );
            };
            match compact_tenant(t, &tenant, budget) {
                Ok(effect) => Response::Compact {
                    moves: effect.moves,
                    cost_delta: effect.cost_delta,
                    cost: effect.cost.ticks(),
                },
                Err(error) => {
                    state.tenants.remove(&tenant);
                    Response::error(error)
                }
            }
        }
        Request::Batch { .. } => {
            Response::fail(ErrorCode::Rejected, "batch requests are not tenant-scoped")
        }
    }
}

/// Run one budgeted defragmentation pass on a tenant.
///
/// Compaction is not a new event — it reprices the placements the latest event
/// left behind — so it *amends* the tenant's last trajectory point to the
/// post-compaction cost instead of appending one.  A pass that committed at
/// least one move is journaled through the same mutation path events take
/// (`compact` replays deterministically against the same placements); a no-op
/// pass is the identity, so skipping its record keeps replay exact.  A failed
/// journal append comes back as the message the caller must drop the tenant
/// with, exactly like a failed event append — never acknowledge a mutation
/// that would vanish on restart.
fn compact_tenant(t: &mut Tenant, tenant: &str, budget: usize) -> Result<CompactEffect, String> {
    let effect = t.scheduler.compact(budget);
    if effect.moves > 0 {
        if let Some(last) = t.trajectory.last_mut() {
            *last = effect.cost.ticks();
        }
        if let Some(log) = t.log.as_mut() {
            let record = Request::Compact {
                tenant: tenant.to_string(),
                budget,
            }
            .to_json();
            if let Err(error) = log.append(record.as_bytes()) {
                return Err(format!(
                    "cannot journal the compaction for tenant '{tenant}': {error}; the tenant \
                     was dropped (its durable state holds every previously acknowledged event)"
                ));
            }
        }
    }
    Ok(effect)
}

/// Insert a freshly built tenant (`open`/`restore`), writing its baseline
/// snapshot to the store first — the ack means "this tenant survives a crash".
/// A restore over an existing tenant only replaces the in-memory state once
/// the new generation is durably begun.
fn insert_tenant(state: &mut ShardState, tenant: String, scheduler: OnlineScheduler) -> Response {
    let log = match &state.store {
        Some(shard_store) => {
            match shard_store
                .store
                .begin_tenant(&tenant, &snapshot_json(&scheduler))
            {
                Ok(log) => Some(log),
                Err(error) => {
                    return Response::error(format!("cannot persist tenant '{tenant}': {error}"));
                }
            }
        }
        None => None,
    };
    state.tenants.insert(
        tenant,
        Tenant {
            scheduler,
            trajectory: Vec::new(),
            log,
        },
    );
    Response::Ok
}

/// Apply one event to a tenant and, on a durable registry, journal it before
/// acknowledging.  If the journal write fails the tenant is dropped from
/// memory (its disk state holds exactly the previously acknowledged events)
/// rather than acknowledging an event that would vanish on restart.  After a
/// successful append, compact inline once the journal crosses the threshold —
/// at most one compaction per request keeps the shard's tail latency bounded.
fn apply_logged(state: &mut ShardState, tenant: &str, event: Event) -> Response {
    let Some(t) = state.tenants.get_mut(tenant) else {
        return Response::fail(
            ErrorCode::UnknownTenant,
            format!("unknown tenant '{tenant}'"),
        );
    };
    let response = apply_event(t, &event);
    if !response.is_ok() {
        return response;
    }
    if let Some(log) = t.log.as_mut() {
        let record = Request::event_record_json(tenant, &event);
        if let Err(error) = log.append(record.as_bytes()) {
            state.tenants.remove(tenant);
            return Response::error(format!(
                "cannot journal the event for tenant '{tenant}': {error}; the tenant was \
                 dropped (its durable state holds every previously acknowledged event)"
            ));
        }
    }
    // Background defragmentation (`serve --defrag-budget K`): one budgeted
    // pass rides behind every journaled event, ordered event-record then
    // compact-record so replay interleaves them exactly as they ran.  The
    // event acknowledgement keeps the pre-compaction cost — compaction happens
    // *between* events; `query` sees the amended trajectory.
    if let Some(budget) = state.defrag_budget {
        if let Err(error) = compact_tenant(t, tenant, budget) {
            state.tenants.remove(tenant);
            return Response::error(error);
        }
    }
    if let Some(log) = t.log.as_mut() {
        let threshold = state
            .store
            .as_ref()
            .map_or(u64::MAX, |s| s.compact_threshold);
        if log.stats().log_records >= threshold {
            // Best effort: a failed compaction leaves the current generation
            // canonical and the journal simply keeps growing until a later
            // attempt succeeds.
            if let Err(error) = log.compact(&snapshot_json(&t.scheduler)) {
                eprintln!("busytime-server: compaction failed for tenant '{tenant}': {error}");
            }
        }
    }
    response
}

/// Run `f` on a tenant, or report it unknown.
fn with_tenant(
    tenants: &mut HashMap<String, Tenant>,
    tenant: &str,
    f: impl FnOnce(&mut Tenant) -> Response,
) -> Response {
    match tenants.get_mut(tenant) {
        Some(t) => f(t),
        None => Response::fail(
            ErrorCode::UnknownTenant,
            format!("unknown tenant '{tenant}'"),
        ),
    }
}

/// Apply one online event to a tenant, recording the trajectory point (bounded to
/// the [`TRAJECTORY_WINDOW`]: when the buffer reaches twice the window, the oldest
/// half is dropped in one step, so the amortized per-event cost stays O(1)).
fn apply_event(tenant: &mut Tenant, event: &Event) -> Response {
    match tenant.scheduler.apply(event) {
        Ok(effect) => {
            if tenant.trajectory.len() >= 2 * TRAJECTORY_WINDOW {
                tenant.trajectory.drain(..TRAJECTORY_WINDOW);
            }
            tenant.trajectory.push(effect.cost.ticks());
            Response::Event {
                machine: effect.machine,
                cost_delta: effect.cost_delta,
                cost: effect.cost.ticks(),
            }
        }
        Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrive(tenant: &str, id: u64, job: (i64, i64)) -> Request {
        Request::Arrive {
            tenant: tenant.into(),
            id,
            job,
        }
    }

    #[test]
    fn tenant_lifecycle_through_the_engine() {
        let registry = Registry::new(2);
        let engine = registry.engine();
        assert!(engine
            .call(Request::Open {
                tenant: "a".into(),
                capacity: 2,
                policy: None,
            })
            .is_ok());
        // Re-opening is an error; the original state is untouched.
        assert!(!engine
            .call(Request::Open {
                tenant: "a".into(),
                capacity: 9,
                policy: None,
            })
            .is_ok());

        let r = engine.call(arrive("a", 1, (0, 10)));
        let Response::Event {
            machine,
            cost_delta,
            cost,
        } = r
        else {
            panic!("expected an event response, got {r:?}");
        };
        assert_eq!((machine, cost_delta, cost), (0, 10, 10));
        engine.call(arrive("a", 2, (4, 12)));
        let r = engine.call(Request::Depart {
            tenant: "a".into(),
            id: 1,
        });
        assert!(r.is_ok());

        let Response::Query(report) = engine.call(Request::Query { tenant: "a".into() }) else {
            panic!("expected a query response");
        };
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.cost_trajectory, vec![10, 12, 8]);
        assert_eq!(report.live_jobs, 1);

        assert!(engine.call(Request::Close { tenant: "a".into() }).is_ok());
        assert!(!engine.call(Request::Query { tenant: "a".into() }).is_ok());
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn errors_name_the_problem() {
        let registry = Registry::new(1);
        let engine = registry.engine();
        let Response::Error(e) = engine.call(Request::Query {
            tenant: "ghost".into(),
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("ghost"), "{e}");
        assert_eq!(e.code, ErrorCode::UnknownTenant);
        assert!(engine
            .call(Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            })
            .is_ok());
        let Response::Error(e) = engine.call(arrive("t", 1, (5, 5))) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("[5, 5)"), "{e}");
        assert_eq!(e.code, ErrorCode::Rejected);
        let Response::Error(e) = engine.call(Request::Depart {
            tenant: "t".into(),
            id: 42,
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("42"), "{e}");
        // Reopening an open tenant gets the dedicated code clients branch on.
        let Response::Error(e) = engine.call(Request::Open {
            tenant: "t".into(),
            capacity: 1,
            policy: None,
        }) else {
            panic!("expected an error");
        };
        assert_eq!(e.code, ErrorCode::AlreadyOpen);
        // An unknown policy is rejected at open.
        let Response::Error(e) = engine.call(Request::Open {
            tenant: "u".into(),
            capacity: 1,
            policy: Some("bogus".into()),
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("bogus"), "{e}");
        assert_eq!(e.code, ErrorCode::Rejected);
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn snapshot_restore_moves_tenants() {
        let registry = Registry::new(2);
        let engine = registry.engine();
        engine.call(Request::Open {
            tenant: "src".into(),
            capacity: 1,
            policy: Some("best-fit".into()),
        });
        engine.call(arrive("src", 1, (0, 10)));
        engine.call(arrive("src", 2, (5, 15)));
        let Response::Snapshot(snapshot) = engine.call(Request::Snapshot {
            tenant: "src".into(),
        }) else {
            panic!("expected a snapshot");
        };
        // Restore under a *different* tenant name (possibly another shard).
        assert!(engine
            .call(Request::Restore {
                tenant: "dst".into(),
                snapshot,
            })
            .is_ok());
        let Response::Query(src) = engine.call(Request::Query {
            tenant: "src".into(),
        }) else {
            panic!()
        };
        let Response::Query(dst) = engine.call(Request::Query {
            tenant: "dst".into(),
        }) else {
            panic!()
        };
        assert_eq!(src.final_cost, dst.final_cost);
        assert_eq!(src.machine_groups, dst.machine_groups);
        assert_eq!(src.arrivals, dst.arrivals);
        // The trajectory restarts at the restore point by design.
        assert!(dst.cost_trajectory.is_empty());
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn batch_and_stats() {
        let registry = Registry::new(3);
        let engine = registry.engine();
        engine.call(Request::Open {
            tenant: "a".into(),
            capacity: 1,
            policy: None,
        });
        engine.call(Request::Open {
            tenant: "b".into(),
            capacity: 1,
            policy: None,
        });
        let Response::Batch(outcomes) = engine.call(Request::Batch {
            instances: vec![
                BatchInstance {
                    capacity: 2,
                    jobs: vec![(0, 10), (2, 12)],
                },
                BatchInstance {
                    capacity: 0,
                    jobs: vec![(0, 1)],
                },
            ],
            budget: None,
        }) else {
            panic!("expected a batch response");
        };
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(&outcomes[0], BatchOutcome::Solved(r) if r.scheduled_jobs == 2));
        assert!(matches!(&outcomes[1], BatchOutcome::Failed(e) if e.contains("instance 1")));
        assert!(matches!(
            engine.call(Request::Batch {
                instances: vec![],
                budget: Some(-3),
            }),
            Response::Error(_)
        ));

        let Response::Stats {
            shards,
            tenants,
            requests,
        } = engine.call(Request::Stats)
        else {
            panic!("expected stats");
        };
        assert_eq!(shards, 3);
        assert_eq!(tenants, 2);
        assert!(requests >= 4);
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn wire_bounds_reject_hostile_requests() {
        let mut tenants = ShardState::in_memory();
        // A capacity that would make the first arrival allocate `capacity` thread
        // sets is refused at open...
        let Response::Error(e) = apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: MAX_CAPACITY + 1,
                policy: None,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("server limit"), "{e}");
        // ...and at restore.
        let mut snapshot = OnlineScheduler::new(1, OnlinePolicy::FirstFit)
            .unwrap()
            .snapshot();
        snapshot.capacity = MAX_CAPACITY + 1;
        let Response::Error(e) = apply(
            &mut tenants,
            Request::Restore {
                tenant: "t".into(),
                snapshot,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("server limit"), "{e}");

        // A job window wide enough to overflow i64 length arithmetic is refused
        // before it reaches the scheduler.
        apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            },
        );
        for (s, e) in [
            (i64::MIN, i64::MAX),
            (-(MAX_ABS_TICK + 1), 0),
            (0, MAX_ABS_TICK + 1),
        ] {
            let Response::Error(error) = apply(&mut tenants, arrive("t", 1, (s, e))) else {
                panic!("expected an error for [{s}, {e})");
            };
            assert!(error.message.contains("out of range"), "{error}");
        }
        // A snapshot smuggling such a window is refused too.
        let mut scheduler = OnlineScheduler::new(1, OnlinePolicy::FirstFit).unwrap();
        scheduler
            .apply(&Event::arrival(1, Interval::from_ticks(0, 5)))
            .unwrap();
        let mut snapshot = scheduler.snapshot();
        snapshot.jobs[0].start = i64::MIN;
        let Response::Error(error) = apply(
            &mut tenants,
            Request::Restore {
                tenant: "u".into(),
                snapshot,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(error.message.contains("out-of-range"), "{error}");
        // In-range requests still flow.
        assert!(apply(&mut tenants, arrive("t", 1, (0, MAX_ABS_TICK))).is_ok());
    }

    #[test]
    fn trajectory_is_bounded_but_counters_are_not() {
        // Drive a tenant far past the retention window (map-level, no channels):
        // memory stays O(window) while the true event totals keep counting.
        let mut tenants = ShardState::in_memory();
        apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            },
        );
        let rounds = TRAJECTORY_WINDOW + 5;
        for i in 0..rounds as u64 {
            let s = i as i64;
            assert!(apply(&mut tenants, arrive("t", i, (s, s + 1))).is_ok());
            assert!(apply(
                &mut tenants,
                Request::Depart {
                    tenant: "t".into(),
                    id: i,
                },
            )
            .is_ok());
        }
        let tenant = &tenants.tenants["t"];
        assert!(tenant.trajectory.len() <= 2 * TRAJECTORY_WINDOW);
        assert!(tenant.trajectory.len() >= TRAJECTORY_WINDOW);
        let Response::Query(report) = apply(&mut tenants, Request::Query { tenant: "t".into() })
        else {
            panic!("expected a query response");
        };
        assert_eq!(report.events, 2 * rounds);
        assert_eq!(report.arrivals, rounds);
        assert_eq!(report.departures, rounds);
        assert_eq!(
            report.cost_trajectory.len(),
            tenants.tenants["t"].trajectory.len()
        );
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let registry = Registry::new(4);
        let engine = registry.engine();
        for name in ["a", "b", "c", "tenant-42", ""] {
            let s = engine.shard_for(name);
            assert!(s < 4);
            assert_eq!(s, engine.shard_for(name));
        }
        drop(engine);
        registry.shutdown();
    }
}

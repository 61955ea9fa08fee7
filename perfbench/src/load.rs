//! The closed-loop client: each connection keeps up to `depth` requests in flight,
//! times every request from its send, and checks every response against a local
//! replay of its tenant (wire ≡ local).

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

use busytime::online::{Event, EventEffect, OnlinePolicy, OnlineScheduler};
use busytime::Instance;
use busytime_server::{Client, Framing, Request, Response};

use crate::streams::ConnPlan;

/// A tenant's local replica: the online first-fit scheduler a lone replay of its
/// projection builds.
pub struct Shadow(OnlineScheduler);

impl Shadow {
    /// A fresh replica at capacity `g`.
    pub fn new(g: usize) -> Shadow {
        Shadow(OnlineScheduler::new(g, OnlinePolicy::FirstFit).expect("valid capacity"))
    }

    /// Apply one event; the effect is the one the daemon acknowledges.
    pub fn apply(&mut self, event: &Event) -> Result<EventEffect, String> {
        self.0.apply(event).map_err(|e| e.to_string())
    }

    /// The replica's scheduler.
    pub fn scheduler(&self) -> &OnlineScheduler {
        &self.0
    }

    /// Live cost and Observation 2.1 lower bound of the live set, in ticks.
    pub fn cost_and_bound(&self) -> (i64, i64) {
        let scheduler = self.scheduler();
        let jobs: Vec<(i64, i64)> = scheduler
            .live_jobs()
            .map(|(_, iv, _)| (iv.start().ticks(), iv.end().ticks()))
            .collect();
        let bound = if jobs.is_empty() {
            0
        } else {
            let instance = Instance::from_ticks(&jobs, scheduler.capacity());
            busytime::bounds::lower_bound(&instance).ticks()
        };
        (scheduler.cost().ticks(), bound)
    }
}

/// Requests attempted and failed, with the first failure's description.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent (setup included).
    pub attempted: u64,
    /// Requests refused, failed, or answered differently from the local replay.
    pub failed: u64,
    /// What went wrong first.
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
    }
}

/// Check one response against the local replica of its tenant.
pub fn check_response(
    shadow: &mut Shadow,
    event: Option<&Event>,
    response: &Response,
) -> Result<(), String> {
    let answer = Answer::of(response).map_err(|(_, e)| e)?;
    verify(shadow, event, answer)
}

/// A response reduced to what the replay check compares, so a measured window can
/// keep every answer and check them once the window has closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Machine of an event, [`Answer::READ`] for a read, [`Answer::REFUSED`] for an
    /// error response.
    machine: u32,
    /// Cost change of an event (saturated to `i32`), or live jobs of a read.
    delta: i32,
    /// Cost after the event, or the read's current cost.
    cost: i64,
}

impl Answer {
    const READ: u32 = u32::MAX;
    const REFUSED: u32 = u32::MAX - 1;

    fn event(machine: usize, delta: i64, cost: i64) -> Answer {
        Answer {
            machine: u32::try_from(machine).unwrap_or(Answer::REFUSED - 1),
            delta: i32::try_from(delta).unwrap_or(i32::MIN),
            cost,
        }
    }

    /// Reduce a response; error responses and unexpected shapes are failures.
    pub fn of(response: &Response) -> Result<Answer, (Answer, String)> {
        let refused = Answer {
            machine: Answer::REFUSED,
            delta: 0,
            cost: 0,
        };
        match response {
            Response::Event {
                machine,
                cost_delta,
                cost,
            } => Ok(Answer::event(*machine, *cost_delta, *cost)),
            Response::Query(report) => Ok(Answer {
                machine: Answer::READ,
                delta: i32::try_from(report.live_jobs).unwrap_or(i32::MAX),
                cost: report.final_cost,
            }),
            Response::Error(error) => Err((refused, format!("refused: {error}"))),
            other => Err((refused, format!("unexpected response {}", other.to_json()))),
        }
    }
}

/// Check one answer against the local replica of its tenant, advancing the
/// replica by the request's event.  A refused write is not applied (the daemon
/// did not apply it either).
pub fn verify(shadow: &mut Shadow, event: Option<&Event>, answer: Answer) -> Result<(), String> {
    if answer.machine == Answer::REFUSED {
        return Ok(());
    }
    let local = match event {
        Some(event) => {
            let e = shadow.apply(event)?;
            Answer::event(e.machine, e.cost_delta, e.cost.ticks())
        }
        None => {
            let s = shadow.scheduler();
            Answer {
                machine: Answer::READ,
                delta: i32::try_from(s.live_count()).unwrap_or(i32::MAX),
                cost: s.cost().ticks(),
            }
        }
    };
    if local == answer {
        Ok(())
    } else {
        Err(format!("{event:?}: wire {answer:?} != local {local:?}"))
    }
}

/// When a pump stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(u64),
    /// Once this instant has passed.
    At(Instant),
}

/// One answered request of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the response arrived, in microseconds after the window opened.
    pub done_us: u32,
    /// Send → response, in nanoseconds (saturating).
    pub latency_ns: u32,
}

/// Requests answered in a measured window.
#[derive(Default)]
pub struct Window {
    /// When the window opened.
    pub origin: Option<Instant>,
    /// Every write.
    pub writes: Vec<Sample>,
    /// Every read.
    pub reads: Vec<Sample>,
    /// Every answer, in send order, checked after the window closes.
    pub answers: Vec<Answer>,
    /// Client-side span totals, recorded only when tracing: time inside
    /// `Client::send`, and time replaying the window's answers on the replicas.
    pub send_ns: u64,
    /// See `send_ns`.
    pub replay_ns: u64,
}

/// One connection: its client, plan, replicas and counters.
pub struct Conn {
    client: Client,
    plan: ConnPlan,
    /// Local replicas, one per tenant of the plan.
    pub shadows: Vec<Shadow>,
    /// Requests attempted and failed on this connection.
    pub tally: Tally,
}

impl Conn {
    /// Connect, open every tenant of `plan` (lockstep), and build their replicas.
    pub fn open(addr: &str, framing: Framing, plan: ConnPlan, g: usize) -> Result<Conn, String> {
        let mut client =
            Client::connect_with(addr, framing).map_err(|e| format!("connect: {e}"))?;
        let mut tally = Tally::default();
        for tenant in &plan.tenants {
            tally.attempted += 1;
            let open = Request::Open {
                tenant: tenant.clone(),
                capacity: g,
                policy: None,
            };
            if let Err(e) = client.call_ok(&open) {
                tally.fail(format!("open {tenant}: {e}"));
            }
        }
        let shadows = plan.tenants.iter().map(|_| Shadow::new(g)).collect();
        Ok(Conn {
            client,
            plan,
            shadows,
            tally,
        })
    }

    /// Drive the plan closed-loop: keep up to `depth` requests in flight, refilling
    /// the window once half of it has been answered, until `stop`.  Latencies land in
    /// `window` when given; `trace` adds the client-side spans.
    pub fn pump(
        &mut self,
        depth: usize,
        stop: Stop,
        mut window: Option<&mut Window>,
        trace: bool,
    ) -> Result<u64, String> {
        let mut inflight: VecDeque<(Instant, usize, Option<Event>)> = VecDeque::new();
        let mut sent = 0u64;
        let mut stopped = false;
        loop {
            if !stopped && inflight.len() <= depth / 2 {
                while inflight.len() < depth {
                    stopped = match stop {
                        Stop::Count(n) => sent >= n,
                        Stop::At(at) => Instant::now() >= at,
                    };
                    if stopped {
                        break;
                    }
                    let planned = self.plan.next_request();
                    let started = Instant::now();
                    self.client.send(&planned.request)?;
                    if trace {
                        if let Some(w) = window.as_deref_mut() {
                            w.send_ns += started.elapsed().as_nanos() as u64;
                        }
                    }
                    inflight.push_back((started, planned.slot, planned.event));
                    sent += 1;
                }
                self.client.flush()?;
            }
            let Some((started, slot, event)) = inflight.pop_front() else {
                return Ok(sent);
            };
            let response = self.client.recv()?;
            let checked = Instant::now();
            let latency = checked - started;
            self.tally.attempted += 1;
            let answer = Answer::of(&response).unwrap_or_else(|(answer, e)| {
                self.tally.fail(format!("{}: {e}", self.plan.tenants[slot]));
                answer
            });
            match window.as_deref_mut() {
                // In a measured window the replay waits until the window closes.
                Some(w) => w.answers.push(answer),
                None => {
                    if let Err(e) = verify(&mut self.shadows[slot], event.as_ref(), answer) {
                        self.tally.fail(format!("{}: {e}", self.plan.tenants[slot]));
                    }
                }
            }
            if let Some(w) = window.as_deref_mut() {
                let origin = *w.origin.get_or_insert(started);
                let sample = Sample {
                    done_us: u32::try_from((checked - origin).as_micros()).unwrap_or(u32::MAX),
                    latency_ns: u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX),
                };
                if event.is_some() {
                    w.writes.push(sample);
                } else {
                    w.reads.push(sample);
                }
            }
        }
    }

    /// Check a window's answers: replay `plan` (the plan as it stood when the
    /// window opened) on the replicas, one request per answer.
    pub fn verify_window(&mut self, mut plan: ConnPlan, answers: &[Answer]) {
        for &answer in answers {
            let planned = plan.next_request();
            let shadow = &mut self.shadows[planned.slot];
            if let Err(e) = verify(shadow, planned.event.as_ref(), answer) {
                self.tally
                    .fail(format!("{}: {e}", self.plan.tenants[planned.slot]));
            }
        }
    }

    /// Σ live cost and Σ lower bound over this connection's tenants.
    pub fn cost_and_bound(&self) -> (i64, i64) {
        self.shadows
            .iter()
            .map(Shadow::cost_and_bound)
            .fold((0, 0), |(c, b), (ci, bi)| (c + ci, b + bi))
    }

    /// The tenant names this connection owns.
    pub fn tenants(&self) -> &[String] {
        &self.plan.tenants
    }

    /// One lockstep request/response (depth 1), timed.
    pub fn lockstep(&mut self) -> Result<u64, String> {
        let planned = self.plan.next_request();
        let started = Instant::now();
        let response = self.client.call(&planned.request)?;
        let latency = started.elapsed().as_nanos() as u64;
        self.tally.attempted += 1;
        if let Err(e) = check_response(
            &mut self.shadows[planned.slot],
            planned.event.as_ref(),
            &response,
        ) {
            self.tally.fail(e);
        }
        Ok(latency)
    }
}

/// Quality checkpoints taken over the second half of the warm-up.
pub const CHECKPOINTS: u64 = 32;

/// What the closed loop measured over its window.
pub struct LoopResult {
    /// The connections, with their replicas, after the window.
    pub conns: Vec<Conn>,
    /// Requests answered in the window, per connection summed.
    pub window: Window,
    /// Wall-clock seconds of the window.
    pub secs: f64,
    /// Σ cost and Σ bound over the [`CHECKPOINTS`] of the fixed warm-up prefix.
    pub checkpoint: (i64, i64),
    /// Share of CPU time the host's hypervisor took away, per slice of the window.
    pub steal: Vec<f64>,
}

/// Cumulative (steal, total) CPU ticks of the host from `/proc/stat`.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Run the closed loop on every connection (one thread each): a fixed warm-up of
/// `warmup` requests per connection, then `at_start` on the calling thread while
/// the connections wait, then a measured window of `seconds`.
pub fn run_loop(
    mut conns: Vec<Conn>,
    depth: usize,
    warmup: u64,
    seconds: f64,
    trace: bool,
    slices: usize,
    at_start: impl FnOnce(),
) -> Result<LoopResult, String> {
    let barrier = Barrier::new(conns.len() + 1);
    let mut steal = Vec::with_capacity(slices);
    let (results, secs) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .drain(..)
            .map(|mut conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // The warm-up's second half is cut into chunks; the quality
                    // checkpoint sums cost and bound after each.
                    let chunk = warmup / 2 / CHECKPOINTS;
                    let mut checkpoint = (0, 0);
                    let mut warm = conn.pump(
                        depth,
                        Stop::Count(warmup - chunk * CHECKPOINTS),
                        None,
                        false,
                    );
                    for _ in 0..CHECKPOINTS {
                        if chunk == 0 || warm.is_err() {
                            break;
                        }
                        warm = conn.pump(depth, Stop::Count(chunk), None, false);
                        let (c, b) = conn.cost_and_bound();
                        checkpoint = (checkpoint.0 + c, checkpoint.1 + b);
                    }
                    barrier.wait();
                    barrier.wait();
                    let opened = Instant::now();
                    let mut window = Window {
                        origin: Some(opened),
                        ..Window::default()
                    };
                    let deadline = opened + std::time::Duration::from_secs_f64(seconds);
                    let plan = conn.plan.clone();
                    let run = warm.and_then(|_| {
                        conn.pump(depth, Stop::At(deadline), Some(&mut window), trace)
                    });
                    let closed = Instant::now();
                    conn.verify_window(plan, &std::mem::take(&mut window.answers));
                    if trace {
                        window.replay_ns = closed.elapsed().as_nanos() as u64;
                    }
                    (conn, window, checkpoint, run, closed)
                })
            })
            .collect();
        barrier.wait();
        at_start();
        let started = Instant::now();
        barrier.wait();
        // Sample the host's steal time at every slice boundary while the
        // connections run.
        let width = seconds / slices as f64;
        let mut last = cpu_steal();
        for i in 1..=slices {
            let due = started + std::time::Duration::from_secs_f64(width * i as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = cpu_steal();
            steal.push((now.0 - last.0) as f64 / (now.1 - last.1).max(1) as f64);
            last = now;
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        let closed = results
            .iter()
            .map(|r| r.4)
            .max()
            .unwrap_or_else(Instant::now);
        (results, (closed - started).as_secs_f64())
    });
    let mut window = Window::default();
    let mut checkpoint = (0, 0);
    for (conn, w, (c, b), run, _) in results {
        run?;
        window.writes.extend(w.writes);
        window.reads.extend(w.reads);
        window.send_ns += w.send_ns;
        window.replay_ns += w.replay_ns;
        checkpoint = (checkpoint.0 + c, checkpoint.1 + b);
        conns.push(conn);
    }
    Ok(LoopResult {
        conns,
        window,
        secs,
        checkpoint,
        steal,
    })
}

//! The design-session service: many concurrent [`DesignSession`]s behind a
//! bounded queue, with deadlines, cancellation, and a per-request
//! degradation ladder.
//!
//! A [`DesignService`] shards sessions across a fixed pool of worker
//! threads (`session_id % workers`, so one session's requests are always
//! processed in order by one owner — no locks around session state).
//! Admission is bounded: when the number of in-flight requests reaches the
//! queue capacity, new requests are **shed** immediately with
//! [`Outcome::Shed`] rather than queued into unbounded latency.
//!
//! Each admitted request carries one deadline that covers queue wait,
//! (re-)encode, and solve. Processing walks a degradation ladder:
//!
//! 1. **Warm solve** — [`DesignSession::solve_with`] under the remaining
//!    budget; a conclusive answer in time is [`Outcome::Served`].
//! 2. **Incumbent repair** — the session's last design is re-verified
//!    against the *current* (post-delta) spec; if it still verifies, it is
//!    returned flagged [`Outcome::Degraded`].
//! 3. **Cold fallback** — a short [`explore_resilient`] ladder run; any
//!    design it finds is returned [`Outcome::Degraded`].
//!
//! Only a request that falls through every rung — or carries a poisoned
//! delta — resolves to [`Outcome::Failed`], and a worker panic is caught,
//! reported as `Failed`, and followed by a session rebuild from its last
//! snapshot. Every request resolves to exactly one typed outcome: never a
//! panic across the API boundary, never a silent hang.

use crate::design::verify_design;
use crate::explore::{explore_resilient, LadderOptions};
use crate::session::{DesignSession, SessionOutcome, SessionSnapshot, SpecDelta};
use milp::{CancelToken, Status};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and budget knobs for a [`DesignService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (sessions are sharded `session_id % workers`).
    pub workers: usize,
    /// Maximum in-flight (queued + executing) requests before new
    /// submissions are shed.
    pub queue_capacity: usize,
    /// Deadline for requests that don't carry their own.
    pub default_deadline: Duration,
    /// Solver budget of the rung-3 cold fallback. Deliberately small: by
    /// the time rung 3 runs the deadline is usually gone, and a degraded
    /// answer soon beats a perfect answer never.
    pub degraded_budget: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(5),
            degraded_budget: Duration::from_millis(250),
        }
    }
}

/// Deterministic service-level fault plan, keyed by request ordinal
/// (0-based submission order). The service tests and the fault-injected
/// request storm (`crates/bench/tests/service_storm.rs`) use it to prove
/// the ladder under injected trouble.
#[derive(Debug, Clone, Default)]
pub struct ServiceFaults {
    cancel_requests: BTreeSet<u64>,
    kill_sessions: BTreeSet<u64>,
}

impl ServiceFaults {
    /// No faults.
    pub fn new() -> Self {
        ServiceFaults::default()
    }

    /// Fire the request's cancellation token at solve start, so the solver
    /// aborts at its first cancellation point and the request falls down
    /// the degradation ladder. Deterministic by construction.
    pub fn cancel_request(mut self, ordinal: u64) -> Self {
        self.cancel_requests.insert(ordinal);
        self
    }

    /// Simulate the owning worker dying right before this request: the
    /// session's in-memory state (encoding, warm vector, incumbent) is
    /// dropped and rebuilt from its last snapshot.
    pub fn kill_session_on(mut self, ordinal: u64) -> Self {
        self.kill_sessions.insert(ordinal);
        self
    }
}

/// One unit of client work: a batch of deltas against one session,
/// followed by a re-solve.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target session; created on first use from the service's seed.
    pub session: u64,
    /// Deltas to apply before solving (may be empty: plain re-solve).
    pub deltas: Vec<SpecDelta>,
    /// Per-request deadline override.
    pub deadline: Option<Duration>,
}

/// What a request that produced an answer looked like.
#[derive(Debug, Clone)]
pub struct ServedInfo {
    /// Solver status of the answering rung (`None` for incumbent repair,
    /// which never ran a solver).
    pub status: Option<Status>,
    /// Objective of the returned design, when one exists.
    pub objective: Option<f64>,
    /// Whether the solve shipped a warm-start vector.
    pub warm_used: bool,
    /// Whether the request forced a cold re-encode.
    pub reencoded: bool,
    /// Time spent queued before a worker picked the request up.
    pub wait: Duration,
    /// Total latency: queue wait + deltas + encode + solve.
    pub total: Duration,
    /// Which ladder rung answered (1 = warm solve, 2 = incumbent repair,
    /// 3 = cold fallback).
    pub rung: u8,
}

/// The resolution of one request. Every submitted request gets exactly
/// one of these.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered authoritatively within the deadline.
    Served(ServedInfo),
    /// Answered by a lower ladder rung: usable, but flagged.
    Degraded(ServedInfo),
    /// Rejected at admission — the queue was full.
    Shed,
    /// A typed failure: poisoned delta, unencodable spec, exhausted
    /// ladder, or a caught worker panic.
    Failed(String),
}

impl Outcome {
    /// The answer payload, for served and degraded outcomes.
    pub fn info(&self) -> Option<&ServedInfo> {
        match self {
            Outcome::Served(i) | Outcome::Degraded(i) => Some(i),
            _ => None,
        }
    }

    /// Short label for logs and JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Served(_) => "served",
            Outcome::Degraded(_) => "degraded",
            Outcome::Shed => "shed",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// Live counters, shared by all workers.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests submitted (including shed ones).
    pub submitted: AtomicU64,
    /// Requests answered at rung 1.
    pub served: AtomicU64,
    /// Requests answered degraded (rungs 2–3).
    pub degraded: AtomicU64,
    /// Requests shed at admission.
    pub shed: AtomicU64,
    /// Requests resolved with a typed failure.
    pub failed: AtomicU64,
    /// Requests whose token was fault-cancelled.
    pub cancelled: AtomicU64,
    /// High-water mark of in-flight requests.
    pub queue_depth_max: AtomicU64,
    /// Sessions rebuilt from snapshot (fault-killed or post-panic).
    pub sessions_rebuilt: AtomicU64,
}

impl ServiceMetrics {
    fn bump(&self, out: &Outcome) {
        match out {
            Outcome::Served(_) => &self.served,
            Outcome::Degraded(_) => &self.degraded,
            Outcome::Shed => &self.shed,
            Outcome::Failed(_) => &self.failed,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// A handle to one submitted request's eventual [`Outcome`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// Blocks until the request resolves. A worker that disappears without
    /// answering (cannot happen short of an abort) reads as a failure, so
    /// even that extreme resolves typed rather than hanging.
    pub fn wait(self) -> Outcome {
        self.rx
            .recv()
            .unwrap_or_else(|_| Outcome::Failed("worker disconnected before answering".into()))
    }
}

struct Job {
    req: Request,
    ordinal: u64,
    submitted: Instant,
    reply: mpsc::Sender<Outcome>,
}

/// Multi-session front end. See the [module docs](self).
pub struct DesignService {
    cfg: ServiceConfig,
    senders: Vec<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServiceMetrics>,
    in_flight: Arc<AtomicUsize>,
    next_ordinal: AtomicU64,
}

impl DesignService {
    /// Starts the worker pool. `seed` is the specification every new
    /// session starts from; `faults` is the (possibly empty) injection
    /// plan.
    pub fn start(cfg: ServiceConfig, seed: SessionSnapshot, faults: ServiceFaults) -> Self {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let metrics = Arc::new(ServiceMetrics::default());
        let in_flight = Arc::new(AtomicUsize::new(0));
        let faults = Arc::new(faults);
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let seed = seed.clone();
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            let in_flight = Arc::clone(&in_flight);
            let faults = Arc::clone(&faults);
            workers.push(std::thread::spawn(move || {
                worker_loop(rx, seed, cfg, metrics, in_flight, faults);
            }));
        }
        DesignService {
            cfg,
            senders,
            workers,
            metrics,
            in_flight,
            next_ordinal: AtomicU64::new(0),
        }
    }

    /// Live counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Submits a request. Returns immediately: admission control runs
    /// here (a full queue resolves the ticket to [`Outcome::Shed`] without
    /// enqueueing), everything else resolves on a worker thread.
    pub fn submit(&self, req: Request) -> Ticket {
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::SeqCst);
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let depth = self.in_flight.load(Ordering::SeqCst);
        if depth >= self.cfg.queue_capacity {
            self.metrics.bump(&Outcome::Shed);
            let _ = tx.send(Outcome::Shed);
            return Ticket { rx };
        }
        let depth = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics
            .queue_depth_max
            .fetch_max(depth as u64, Ordering::Relaxed);
        let shard = (req.session % self.senders.len() as u64) as usize;
        let job = Job {
            req,
            ordinal,
            submitted: Instant::now(),
            reply: tx,
        };
        if let Err(mpsc::SendError(job)) = self.senders[shard].send(job) {
            // Worker gone (only during shutdown races): resolve typed.
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            let out = Outcome::Failed("worker unavailable".into());
            self.metrics.bump(&out);
            let _ = job.reply.send(out);
        }
        Ticket { rx }
    }

    /// Stops accepting work, drains the queues, and joins the workers.
    pub fn shutdown(self) {
        drop(self.senders);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Per-worker state for one session: the live session plus the snapshot
/// it can be rebuilt from.
struct Slot {
    session: DesignSession,
    snapshot: SessionSnapshot,
}

fn worker_loop(
    rx: mpsc::Receiver<Job>,
    seed: SessionSnapshot,
    cfg: ServiceConfig,
    metrics: Arc<ServiceMetrics>,
    in_flight: Arc<AtomicUsize>,
    faults: Arc<ServiceFaults>,
) {
    let mut slots: HashMap<u64, Slot> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let sid = job.req.session;
        if faults.kill_sessions.contains(&job.ordinal) {
            // Simulated worker death for this session: everything
            // in-memory is lost; only the snapshot survives.
            if let Some(slot) = slots.remove(&sid) {
                slots.insert(
                    sid,
                    Slot {
                        session: DesignSession::restore(slot.snapshot.clone()),
                        snapshot: slot.snapshot,
                    },
                );
                metrics.sessions_rebuilt.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = slots.entry(sid).or_insert_with(|| Slot {
            session: DesignSession::restore(seed.clone()),
            snapshot: seed.clone(),
        });

        let result = catch_unwind(AssertUnwindSafe(|| {
            process(&mut slot.session, &job, &cfg, &metrics, &faults)
        }));
        let (outcome, panicked) = match result {
            Ok(o) => (o, false),
            Err(payload) => (
                Outcome::Failed(format!(
                    "panic in request handler: {}",
                    panic_message(&payload)
                )),
                true,
            ),
        };

        if panicked {
            // The handler panicked mid-mutation: the session may be
            // half-updated. Rebuild from the last good snapshot.
            slot.session = DesignSession::restore(slot.snapshot.clone());
            metrics.sessions_rebuilt.fetch_add(1, Ordering::Relaxed);
        } else if outcome.info().is_some() {
            // Persist the post-request spec state as the rebuild point.
            slot.snapshot = slot.session.snapshot();
        }

        metrics.bump(&outcome);
        in_flight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(outcome);
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one request through the degradation ladder. Never panics by
/// contract; the caller still wraps it in `catch_unwind` as a last line.
fn process(
    session: &mut DesignSession,
    job: &Job,
    cfg: &ServiceConfig,
    metrics: &ServiceMetrics,
    faults: &ServiceFaults,
) -> Outcome {
    let deadline = job.req.deadline.unwrap_or(cfg.default_deadline);
    let wait = job.submitted.elapsed();

    // Poisoned deltas fail fast and typed; earlier deltas in the batch
    // stay applied (each is individually atomic).
    if let Err((i, e)) = session.apply_all(&job.req.deltas) {
        return Outcome::Failed(format!("delta {} rejected: {}", i, e));
    }

    // One budget covers queue wait + encode + solve.
    let remaining = deadline.saturating_sub(job.submitted.elapsed());
    let token = CancelToken::new();
    let solver_cfg = session_base_config(session, remaining, &token);
    if faults.cancel_requests.contains(&job.ordinal) {
        // Deterministic mid-request cancellation: the token is already
        // fired when the solver starts, so it aborts at its first
        // cancellation point and the ladder takes over.
        token.cancel();
        metrics.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    // Rung 1: warm (or cold-encode) solve under the remaining budget.
    // Skipped entirely when the queue already burned the deadline.
    let rung1 = (remaining > Duration::ZERO).then(|| session.solve_with(&solver_cfg));
    if let Some(Ok(out)) = rung1 {
        if conclusive(&out) && job.submitted.elapsed() <= deadline {
            return Outcome::Served(info_from(&out, wait, job, 1));
        }
        // Within-budget but inconclusive (limit hit, cancelled) — or
        // conclusive but late. Fall through the ladder; a feasible
        // incumbent from this very solve is already the session's last
        // design and rung 2 will pick it up.
    }

    // Rung 2: incumbent repair. Free: re-verify the last design against
    // the current spec.
    if let Some(d) = session.last_design() {
        if verify_design(d, session.template(), session.library(), session.requirements())
            .is_empty()
        {
            let info = ServedInfo {
                status: None,
                objective: Some(d.objective),
                warm_used: false,
                reencoded: false,
                wait,
                total: job.submitted.elapsed(),
                rung: 2,
            };
            return Outcome::Degraded(info);
        }
    }

    // Rung 3: short cold ladder, ignoring the (already missed) deadline —
    // a late degraded answer still beats no answer.
    let ladder = LadderOptions::new(session_explore_opts(session))
        .with_budget(cfg.degraded_budget);
    let report = explore_resilient(
        session.template(),
        session.library(),
        session.requirements(),
        &ladder,
    );
    if let Some(d) = report.design {
        let info = ServedInfo {
            status: report.final_status,
            objective: Some(d.objective),
            warm_used: false,
            reencoded: true,
            wait,
            total: job.submitted.elapsed(),
            rung: 3,
        };
        return Outcome::Degraded(info);
    }

    Outcome::Failed(match report.final_status {
        Some(s) => format!("no design at any rung (final status {:?})", s),
        None => "no design at any rung".to_string(),
    })
}

fn conclusive(out: &SessionOutcome) -> bool {
    matches!(out.status, Status::Optimal | Status::Infeasible | Status::Unbounded)
        || out.design.is_some()
}

fn info_from(out: &SessionOutcome, wait: Duration, job: &Job, rung: u8) -> ServedInfo {
    ServedInfo {
        status: Some(out.status),
        objective: out.objective(),
        warm_used: out.warm_used,
        reencoded: out.reencoded,
        wait,
        total: job.submitted.elapsed(),
        rung,
    }
}

fn session_base_config(
    session: &DesignSession,
    remaining: Duration,
    token: &CancelToken,
) -> milp::Config {
    let mut cfg = session_explore_opts(session).solver;
    cfg.time_limit = Some(remaining);
    cfg.cancel = Some(token.clone());
    cfg
}

fn session_explore_opts(session: &DesignSession) -> crate::explore::ExploreOptions {
    session.options().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreOptions;
    use crate::requirements::Requirements;
    use crate::template::{NetworkTemplate, NodeRole};
    use channel::LogDistance;
    use devlib::catalog;
    use floorplan::Point;

    fn seed(relays: usize) -> SessionSnapshot {
        let mut t = NetworkTemplate::new();
        t.add_node("s0", Point::new(0.0, 0.0), NodeRole::Sensor);
        for i in 0..relays {
            let x = 10.0 + 10.0 * (i / 2) as f64;
            let y = if i % 2 == 0 { 6.0 } else { -6.0 };
            t.add_node(format!("r{}", i), Point::new(x, y), NodeRole::Relay);
        }
        t.add_node("sink", Point::new(40.0, 0.0), NodeRole::Sink);
        t.compute_path_loss(&LogDistance::indoor_2_4ghz());
        let lib = catalog::zigbee_reference();
        t.prune_links(&lib, -100.0, 10.0);
        let req = Requirements::from_spec_text(
            "p = has_path(sensors, sink)\nmin_signal_to_noise(12)\nobjective minimize cost",
        )
        .unwrap();
        SessionSnapshot::new(t, lib, req, ExploreOptions::approx(5))
    }

    fn price_req(session: u64, component: &str, cost: f64) -> Request {
        Request {
            session,
            deltas: vec![SpecDelta::DevicePrice {
                component: component.into(),
                cost,
            }],
            deadline: None,
        }
    }

    #[test]
    fn serves_and_goes_warm_on_repeat_requests() {
        let svc = DesignService::start(ServiceConfig::default(), seed(4), ServiceFaults::new());
        let first = svc
            .submit(Request {
                session: 7,
                deltas: vec![],
                deadline: None,
            })
            .wait();
        let info = match &first {
            Outcome::Served(i) => i.clone(),
            other => panic!("expected served, got {:?}", other),
        };
        assert!(info.reencoded, "first request encodes cold");

        let second = svc.submit(price_req(7, "relay-basic", 12.0)).wait();
        let info = second.info().expect("served").clone();
        assert!(matches!(second, Outcome::Served(_)));
        assert!(info.warm_used, "second request reuses warm state");
        assert!(!info.reencoded);
        assert_eq!(svc.metrics().served.load(Ordering::Relaxed), 2);
        svc.shutdown();
    }

    #[test]
    fn sessions_are_isolated_by_id() {
        let svc = DesignService::start(ServiceConfig::default(), seed(4), ServiceFaults::new());
        // Every feasible design buys a sink; giving session 1 a near-free
        // one strictly lowers its optimum, and only its.
        let sink = catalog::zigbee_reference()
            .cheapest_of(devlib::DeviceKind::Sink)
            .expect("catalog has sinks")
            .name
            .clone();
        let a = svc.submit(price_req(1, &sink, 1.0)).wait();
        let b = svc
            .submit(Request {
                session: 2,
                deltas: vec![],
                deadline: None,
            })
            .wait();
        let (oa, ob) = (
            a.info().unwrap().objective.unwrap(),
            b.info().unwrap().objective.unwrap(),
        );
        assert!(
            oa < ob,
            "discount in session 1 ({}) must not leak into session 2 ({})",
            oa,
            ob
        );
        svc.shutdown();
    }

    #[test]
    fn fault_cancelled_request_degrades_instead_of_hanging() {
        let svc = DesignService::start(
            ServiceConfig::default(),
            seed(4),
            ServiceFaults::new().cancel_request(1),
        );
        let first = svc
            .submit(Request {
                session: 3,
                deltas: vec![],
                deadline: None,
            })
            .wait();
        assert!(matches!(first, Outcome::Served(_)));
        let cancelled = svc.submit(price_req(3, "relay-basic", 9.0)).wait();
        // The pre-fired token aborts rung 1; the incumbent from request 0
        // still verifies (price changes don't break feasibility), so the
        // ladder answers degraded from rung 2.
        match &cancelled {
            Outcome::Degraded(i) => assert_eq!(i.rung, 2),
            other => panic!("expected degraded, got {:?}", other),
        }
        assert_eq!(svc.metrics().cancelled.load(Ordering::Relaxed), 1);
        svc.shutdown();
    }

    #[test]
    fn killed_session_is_rebuilt_from_snapshot_with_deltas_intact() {
        let svc = DesignService::start(
            ServiceConfig::default(),
            seed(4),
            ServiceFaults::new().kill_session_on(1),
        );
        let first = svc.submit(price_req(5, "relay-basic", 499.0)).wait();
        let hiked = first.info().unwrap().objective.unwrap();
        let second = svc
            .submit(Request {
                session: 5,
                deltas: vec![],
                deadline: None,
            })
            .wait();
        let info = second.info().expect("answered").clone();
        assert!(info.reencoded, "rebuilt session starts cold");
        assert_eq!(svc.metrics().sessions_rebuilt.load(Ordering::Relaxed), 1);
        // The price delta from request 0 survived via the snapshot.
        assert!((info.objective.unwrap() - hiked).abs() < 1e-6);
        svc.shutdown();
    }

    #[test]
    fn poisoned_delta_fails_typed_and_session_survives() {
        let svc = DesignService::start(ServiceConfig::default(), seed(2), ServiceFaults::new());
        let bad = svc.submit(price_req(9, "no-such-device", 1.0)).wait();
        match &bad {
            Outcome::Failed(msg) => assert!(msg.contains("unknown component")),
            other => panic!("expected failed, got {:?}", other),
        }
        let good = svc
            .submit(Request {
                session: 9,
                deltas: vec![],
                deadline: None,
            })
            .wait();
        assert!(matches!(good, Outcome::Served(_)));
        svc.shutdown();
    }

    #[test]
    fn zero_deadline_resolves_degraded_not_hung() {
        let svc = DesignService::start(ServiceConfig::default(), seed(4), ServiceFaults::new());
        let out = svc
            .submit(Request {
                session: 1,
                deltas: vec![],
                deadline: Some(Duration::ZERO),
            })
            .wait();
        // No budget and no incumbent: only the rung-3 cold ladder can
        // answer, flagged degraded.
        match &out {
            Outcome::Degraded(i) => assert_eq!(i.rung, 3),
            other => panic!("expected degraded, got {:?}", other),
        }
        svc.shutdown();
    }

    #[test]
    fn rung3_returns_anytime_incumbent_on_expired_deadline() {
        // Deadline already burned and no prior incumbent: rungs 1–2 are
        // skipped and rung 3 runs a budget-capped cold ladder. The rung must
        // come back with the best design found within the budget
        // (LimitFeasible is fine), never empty-handed.
        let svc = DesignService::start(
            ServiceConfig {
                degraded_budget: Duration::from_millis(100),
                ..Default::default()
            },
            seed(10),
            ServiceFaults::new(),
        );
        let out = svc
            .submit(Request {
                session: 11,
                deltas: vec![],
                deadline: Some(Duration::ZERO),
            })
            .wait();
        match &out {
            Outcome::Degraded(i) => {
                assert_eq!(i.rung, 3);
                assert!(
                    i.objective.is_some(),
                    "rung 3 must answer with a design objective"
                );
                if let Some(s) = i.status {
                    assert!(s.has_solution(), "rung-3 status must carry a design: {s:?}");
                }
            }
            other => panic!("expected a degraded rung-3 answer, got {:?}", other),
        }
        svc.shutdown();
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unbounded() {
        let svc = DesignService::start(
            ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                ..Default::default()
            },
            seed(6),
            ServiceFaults::new(),
        );
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                svc.submit(Request {
                    session: i % 3,
                    deltas: vec![],
                    deadline: None,
                })
            })
            .collect();
        let outcomes: Vec<Outcome> = tickets.into_iter().map(Ticket::wait).collect();
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Shed))
            .count();
        assert!(shed >= 1, "12 rapid submits into capacity 2 must shed");
        assert_eq!(outcomes.len(), 12, "every request resolved");
        assert!(svc.metrics().queue_depth_max.load(Ordering::Relaxed) <= 2);
        svc.shutdown();
    }
}

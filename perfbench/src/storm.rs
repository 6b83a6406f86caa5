//! `session-storm`: a closed loop of client sessions against
//! `archex::service::DesignService` on the 18-node interactive instance.
//! Each session replays a seeded trace of spec deltas, about 80 % price or
//! stock edits (applied to the live encoding in place) and 20 % wall or
//! route restructures (re-encoded cold).

use crate::instances::{
    office_template, pairs, requirements, STORM_RELAYS, STORM_SENSORS, STORM_SPEC,
};
use crate::measure::{frac, median, mix, nproc, peak_rss_mb, repeat_setup, tail, unit, CpuClock};
use crate::metrics::RunResult;
use crate::pipeline::{split_encode, standalone_root, EncodeTotals};
use crate::trace::Tracer;
use crate::Args;
use archex::requirements::RouteFamily;
use archex::service::{DesignService, Outcome, Request, ServiceConfig, ServiceFaults, Ticket};
use archex::session::{DesignSession, SessionSnapshot, SpecDelta};
use archex::{verify_design, ExploreOptions, NetworkTemplate, Selector};
use devlib::{catalog, DeviceKind, Library};
use milp::Status;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Many sessions with a few requests each: a session whose prices happen to
/// make its model hard slows every request it sends, so spreading a run
/// over more sessions keeps one unlucky session from setting the tail.
const CLIENTS: usize = 64;
const TINY_CLIENTS: usize = 4;
/// Yen candidates per route on the interactive instance.
const KSTAR: usize = 8;
/// Requests the traced run replays directly on `DesignSession` objects.
const REPLAY_MAX: usize = 160;
/// Generous enough that a healthy service never degrades on it.
const DEADLINE: Duration = Duration::from_secs(30);

/// Names the trace draws from, taken once from the instance.
struct Names {
    components: Vec<(String, f64)>,
    relays: Vec<String>,
    nodes: Vec<String>,
}

/// A client's open changes. A relay that went out of stock comes back, a
/// wall that went up comes down, and a route that was added is removed, at
/// the client's next delta of that kind, so sessions stay near the seed
/// specification instead of drifting apart over a run.
#[derive(Debug, Default, Clone)]
struct ClientState {
    out_of_stock: Option<String>,
    route: Option<String>,
    wall: Option<(usize, usize, f64)>,
}

/// Price and stock edits change the live encoding in place; wall and
/// route restructures make the session re-encode cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Price,
    Stock,
    Wall,
    Route,
}

impl Kind {
    fn restructures(self) -> bool {
        matches!(self, Kind::Wall | Kind::Route)
    }
}

/// Which kind of delta each client sends in `round`. Every round has the
/// same mix, 10 % wall edits, 10 % route changes (at least one of each),
/// 20 % stock and the rest price edits, dealt to clients by a seeded
/// shuffle, so runs differ in who edits what but not in how much of each.
fn round_kinds(seed: u64, round: u64, clients: usize) -> Vec<Kind> {
    let tenth = ((clients as f64 * 0.1).round() as usize).max(1);
    let stock = (clients as f64 * 0.2).round() as usize;
    let mut deal: Vec<Kind> = (0..clients)
        .map(|k| match k {
            k if k < tenth => Kind::Wall,
            k if k < 2 * tenth => Kind::Route,
            k if k < 2 * tenth + stock => Kind::Stock,
            _ => Kind::Price,
        })
        .collect();
    for i in (1..clients).rev() {
        let j = (mix(mix(seed ^ 0x5707) ^ mix(round) ^ i as u64) % (i as u64 + 1)) as usize;
        deal.swap(i, j);
    }
    deal
}

/// Draws the delta of `(client, round)`: a pure function of the seed and
/// the client's own history, independent of how requests interleave.
fn delta_for(
    seed: u64,
    client: u64,
    round: u64,
    kind: Kind,
    names: &Names,
    state: &mut ClientState,
) -> SpecDelta {
    let mut n = 0u64;
    let mut draw = || {
        n += 1;
        mix(mix(seed) ^ mix(client.wrapping_mul(10_007) ^ round.wrapping_mul(101) ^ (n << 40)))
    };
    let pick = |z: u64, len: usize| (z % len.max(1) as u64) as usize;
    match kind {
        Kind::Price => {
            let (name, list) = &names.components[pick(draw(), names.components.len())];
            SpecDelta::DevicePrice {
                component: name.clone(),
                cost: list * (0.5 + unit(draw())),
            }
        }
        Kind::Stock => match state.out_of_stock.take() {
            Some(component) => SpecDelta::DeviceStock {
                component,
                in_stock: true,
            },
            None => {
                let component = names.relays[pick(draw(), names.relays.len())].clone();
                state.out_of_stock = Some(component.clone());
                SpecDelta::DeviceStock {
                    component,
                    in_stock: false,
                }
            }
        },
        Kind::Wall => {
            let (i, j, db) = match state.wall.take() {
                Some((i, j, up)) => (i, j, -up),
                None => {
                    let i = pick(draw(), names.nodes.len());
                    let j = (i + 1 + pick(draw(), names.nodes.len() - 1)) % names.nodes.len();
                    let up = 3.0 + 9.0 * unit(draw());
                    state.wall = Some((i, j, up));
                    (i, j, up)
                }
            };
            SpecDelta::WallEdit {
                a: names.nodes[i].clone(),
                b: names.nodes[j].clone(),
                delta_db: db,
            }
        }
        Kind::Route => match state.route.take() {
            Some(name) => SpecDelta::RouteRemove { name },
            None => {
                let name = format!("c{}-r{}", client, round);
                state.route = Some(name.clone());
                let family = RouteFamily {
                    name,
                    from: Selector::Sensors,
                    to: Selector::Sink,
                    max_hops: None,
                };
                SpecDelta::RouteAdd { family }
            }
        },
    }
}

/// Everything set-up leaves behind for the timed window.
struct Stage {
    svc: DesignService,
    template: NetworkTemplate,
    library: Library,
    names: Names,
    /// Sessions the traced run replays the trace on: untraced, traced.
    replay: Vec<(DesignSession, DesignSession)>,
}

fn session_options() -> ExploreOptions {
    ExploreOptions::approx(KSTAR).with_threads(1)
}

/// Builds the instance, starts the service and opens every client session
/// with its first (cold) solve; the traced run also opens its replay
/// sessions.
fn stage(tr: &mut Tracer, clients: usize, workers: usize, window: usize) -> Result<Stage, String> {
    let library = catalog::zigbee_reference();
    let req = requirements(STORM_SPEC);
    let template = office_template(tr, 0, STORM_SENSORS, STORM_RELAYS, &library, &req);
    let seed = SessionSnapshot::new(
        template.clone(),
        library.clone(),
        req.clone(),
        session_options(),
    );
    let cfg = ServiceConfig {
        workers,
        queue_capacity: 64.max(clients),
        default_deadline: DEADLINE,
        ..ServiceConfig::default()
    };
    let svc = DesignService::start(cfg, seed, ServiceFaults::new());
    // Open the sessions under the same in-flight window as the timed loop,
    // so the service's queue-depth high-water mark describes the loop.
    let mut first = Vec::with_capacity(clients);
    let mut opening: VecDeque<Ticket> = VecDeque::new();
    for c in 0..clients {
        if opening.len() >= window {
            first.extend(opening.pop_front().map(Ticket::wait));
        }
        opening.push_back(svc.submit(Request {
            session: c as u64,
            deltas: Vec::new(),
            deadline: None,
        }));
    }
    first.extend(opening.into_iter().map(Ticket::wait));
    if let Some(bad) = first.iter().find(|o| !matches!(o, Outcome::Served(_))) {
        svc.shutdown();
        return Err(format!("opening a session ended {:?}", bad));
    }
    let mut replay = Vec::new();
    if tr.enabled() {
        for _ in 0..clients {
            let open = || -> Result<DesignSession, String> {
                let mut s = DesignSession::new(
                    template.clone(),
                    library.clone(),
                    req.clone(),
                    session_options(),
                );
                s.solve()
                    .map_err(|e| format!("opening a replay session: {}", e))?;
                Ok(s)
            };
            replay.push((open()?, open()?));
        }
    }
    let names = Names {
        components: library
            .components()
            .iter()
            .map(|c| (c.name.clone(), c.cost))
            .collect(),
        relays: library
            .of_kind(DeviceKind::Relay)
            .map(|(_, c)| c.name.clone())
            .collect(),
        nodes: template.nodes().iter().map(|n| n.name.clone()).collect(),
    };
    Ok(Stage {
        svc,
        template,
        library,
        names,
        replay,
    })
}

/// Waits for one in-flight request and files its outcome.
fn resolve(sent: &mut [Sent], tr: &mut Tracer, (i, t0, ticket): (usize, Instant, Ticket)) {
    let out = ticket.wait();
    tr.record("service.request", i as u64, t0, Instant::now());
    sent[i].outcome = Some(out);
}

/// One request of the timed window.
struct Sent {
    client: usize,
    kind: Kind,
    delta: SpecDelta,
    outcome: Option<Outcome>,
}

fn latency_ms(o: &Outcome) -> f64 {
    match o.info() {
        Some(i) => i.total.as_secs_f64() * 1e3,
        // A shed or failed request missed every latency limit.
        None => DEADLINE.as_secs_f64() * 1e3,
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let workers = nproc();
    let window = nproc();
    let clients = if args.tiny { TINY_CLIENTS } else { CLIENTS };
    res.notes.push(format!(
        "pins: nproc={} service workers={} in-flight window={} sessions={} solver threads=1 (+1 LNS thread) K*={}",
        nproc(),
        workers,
        window,
        clients,
        KSTAR
    ));
    let reps = if tr.enabled() { 1 } else { 3 };
    let (stage, setup_s) = repeat_setup(
        reps,
        || stage(tr, clients, workers, window),
        |s| s.svc.shutdown(),
    )?;

    // Closed loop: a client's next request goes out only after an earlier
    // one returns, with at most `window` requests in flight. Rounds over
    // every client; no request goes out once the window of time is used up.
    let clock = CpuClock::start();
    let start = Instant::now();
    let mut states = vec![ClientState::default(); clients];
    let mut sent: Vec<Sent> = Vec::new();
    let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let window_time = Duration::from_secs(args.seconds);
    'window: for round in 0u64.. {
        let kinds = round_kinds(args.seed, round, clients);
        for (client, state) in states.iter_mut().enumerate() {
            if !args.tiny && start.elapsed() >= window_time {
                break 'window;
            }
            let kind = kinds[client];
            let delta = delta_for(args.seed, client as u64, round, kind, &stage.names, state);
            if pending.len() >= window {
                let p = pending.pop_front().expect("window is non-empty");
                resolve(&mut sent, tr, p);
            }
            let t0 = Instant::now();
            let ticket = stage.svc.submit(Request {
                session: client as u64,
                deltas: vec![delta.clone()],
                deadline: None,
            });
            pending.push_back((sent.len(), t0, ticket));
            sent.push(Sent {
                client,
                kind,
                delta,
                outcome: None,
            });
        }
        if args.tiny {
            break;
        }
    }
    while let Some(p) = pending.pop_front() {
        resolve(&mut sent, tr, p);
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_per_wall = clock.cpu_per_wall();

    // Every request resolves to exactly one typed outcome, and the
    // service's own counters agree with what the clients saw.
    let outcomes: Vec<&Outcome> = sent.iter().filter_map(|s| s.outcome.as_ref()).collect();
    let count = |kind: &str| outcomes.iter().filter(|o| o.kind() == kind).count() as u64;
    let (served, degraded, shed, failed) = (
        count("served"),
        count("degraded"),
        count("shed"),
        count("failed"),
    );
    let submitted = sent.len() as u64;
    res.attempted = submitted;
    res.failed = submitted - served;
    res.check("resolved", outcomes.len() as u64 == submitted, || {
        format!("{} of {} requests resolved", outcomes.len(), submitted)
    });
    res.check(
        "typed_outcome_sum",
        served + degraded + shed + failed == submitted,
        || {
            format!(
                "outcomes {}+{}+{}+{} do not sum to {} submitted",
                served, degraded, shed, failed, submitted
            )
        },
    );
    let m = stage.svc.metrics();
    let opened = clients as u64;
    let counters = [
        ("submitted", m.submitted.load(Relaxed), submitted + opened),
        ("served", m.served.load(Relaxed), served + opened),
        ("degraded", m.degraded.load(Relaxed), degraded),
        ("shed", m.shed.load(Relaxed), shed),
        ("failed", m.failed.load(Relaxed), failed),
    ];
    for (name, service, seen) in counters {
        res.check("service_counters", service == seen, || {
            format!(
                "service counted {} {} requests, the clients saw {}",
                service, name, seen
            )
        });
    }
    for (i, o) in outcomes.iter().enumerate() {
        if let Outcome::Served(info) = o {
            let answered = info.objective.is_some_and(f64::is_finite)
                || info.status == Some(Status::Infeasible);
            res.check("served_answer", info.rung == 1 && answered, || {
                format!(
                    "request {} served by rung {} with status {:?}",
                    i, info.rung, info.status
                )
            });
        }
    }

    let lat: Vec<f64> = outcomes.iter().map(|o| latency_ms(o)).collect();
    let class_p50 = |restructures: bool| {
        let v: Vec<f64> = sent
            .iter()
            .filter(|s| s.kind.restructures() == restructures)
            .filter_map(|s| s.outcome.as_ref().map(latency_ms))
            .collect();
        median(&v)
    };
    let (edit_p50, restructure_p50) = (class_p50(false), class_p50(true));
    let queue_depth_max = m.queue_depth_max.load(Relaxed) as f64;

    if tr.enabled() {
        let infos: Vec<_> = outcomes.iter().filter_map(|o| o.info()).collect();
        let waits: f64 = infos.iter().map(|i| i.wait.as_secs_f64() * 1e3).sum();
        let rung = |r: u8| infos.iter().filter(|i| i.rung == r).count() as f64;
        res.set("service.queue_wait_ms", frac(waits, infos.len() as f64));
        res.set("service.rung2", rung(2));
        res.set("service.rung3", rung(3));
        res.set("service.degraded", degraded as f64);
        res.set("service.shed", shed as f64);
        res.set("service.queue_depth_max", queue_depth_max);
        res.set("storm.edit_p50_ms", edit_p50);
        res.set("storm.restructure_p50_ms", restructure_p50);
        res.set("template.build_ms", tr.mean_ms("template.build"));
        res.set("template.pairs", pairs(&stage.template));
        res.set(
            "template.links_kept_frac",
            stage.template.links().len() as f64 / pairs(&stage.template),
        );
        res.set("cpu_per_wall", cpu_per_wall);
        let Stage {
            svc,
            replay,
            library,
            ..
        } = stage;
        svc.shutdown();
        replay_sessions(tr, &mut res, &sent, replay, &library)?;
    } else {
        stage.svc.shutdown();
        let t = tail(&lat);
        res.set("p50_ms", median(&lat));
        res.set("tail_ms", t.value);
        res.set("ops_per_s", frac(submitted as f64, wall));
        res.set("ok_frac", frac(served as f64, submitted as f64));
        res.set("setup_s", setup_s);
        res.set("peak_rss_mb", peak_rss_mb());
        res.name("storm.p50_ms", median(&lat), "ms");
        res.name("storm.tail_ms", t.value, "ms");
        res.name("storm.rps", frac(submitted as f64, wall), "1/s");
        res.name("storm.edit_p50_ms", edit_p50, "ms");
        res.name("storm.restructure_p50_ms", restructure_p50, "ms");
        res.name(
            "storm.fail_frac",
            frac(res.failed as f64, submitted as f64),
            "frac",
        );
        let infeasible = outcomes
            .iter()
            .filter(|o| {
                o.info()
                    .is_some_and(|i| i.status == Some(Status::Infeasible))
            })
            .count();
        res.notes.push(format!(
            "storm.tail_ms is p{:.1} of {} requests; served {} ({} infeasible) degraded {} shed {} \
             failed {}; queue depth max {}; cpu_per_wall {:.3}",
            t.pct, t.n, served, infeasible, degraded, shed, failed, queue_depth_max, cpu_per_wall
        ));
    }
    Ok(res)
}

/// Replays the window's requests, in submission order, directly on
/// `DesignSession` objects: once plainly and once inside spans (the
/// difference is the trace overhead), then encodes each resulting spec
/// standalone through the split encoder, presolve and root LP. Every
/// replayed answer must verify and match the service's objective.
fn replay_sessions(
    tr: &mut Tracer,
    res: &mut RunResult,
    sent: &[Sent],
    mut replay: Vec<(DesignSession, DesignSession)>,
    library: &Library,
) -> Result<(), String> {
    // The first requests in submission order keep every session's own
    // order; the replay runs single-file, so it stops short of the window.
    let sent = &sent[..sent.len().min(REPLAY_MAX)];
    let mut banned: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); replay.len()];
    let mut sizes = EncodeTotals::default();
    let (mut plain_ms, mut encode_ms, mut solve_ms) = (0.0, 0.0, 0.0);
    let (mut warm_used, mut warm_seeded, mut reencoded) = (0u64, 0u64, 0u64);
    let cfg = session_options().solver;
    for (i, s) in sent.iter().enumerate() {
        let op = i as u64;
        let (plain, traced) = &mut replay[s.client];
        let t0 = Instant::now();
        plain
            .apply(&s.delta)
            .map_err(|e| format!("replay {}: {}", i, e))?;
        let plain_out = plain.solve().map_err(|e| format!("replay {}: {}", i, e))?;
        plain_ms += t0.elapsed().as_secs_f64() * 1e3;

        tr.span("session.apply", op, |_| traced.apply(&s.delta))
            .map_err(|e| format!("replay {}: {}", i, e))?;
        let out = tr
            .span("session.solve", op, |_| traced.solve())
            .map_err(|e| format!("replay {}: {}", i, e))?;
        encode_ms += out.encode_time.as_secs_f64() * 1e3;
        solve_ms += out.solve_time.as_secs_f64() * 1e3;
        warm_used += u64::from(out.warm_used);
        warm_seeded += u64::from(out.warm_seeded);
        reencoded += u64::from(out.reencoded);
        if let Some(d) = &out.design {
            let v = tr.span("design.verify_design", op, |_| {
                verify_design(
                    d,
                    traced.template(),
                    traced.library(),
                    traced.requirements(),
                )
            });
            res.check("replay_verify", v.is_empty(), || {
                format!("replay {}: verify_design reports {}", i, v.join("; "))
            });
        }
        let service_obj = s.outcome.as_ref().and_then(|o| match o {
            Outcome::Served(info) if info.status == Some(Status::Optimal) => info.objective,
            _ => None,
        });
        if let (Some(a), Some(b), Some(c)) = (service_obj, plain_out.objective(), out.objective()) {
            let tol = 2e-6 * a.abs().max(1.0);
            res.check(
                "replay_objective",
                (a - b).abs() <= tol && (a - c).abs() <= tol,
                || {
                    format!(
                        "request {}: service objective {} but session replays give {} and {}",
                        i, a, b, c
                    )
                },
            );
        }

        if let SpecDelta::DeviceStock {
            component,
            in_stock,
        } = &s.delta
        {
            if let Some(idx) = library.index_of(component) {
                if *in_stock {
                    banned[s.client].remove(&idx);
                } else {
                    banned[s.client].insert(idx);
                }
            }
        }
        let mut enc = split_encode(
            tr,
            op,
            traced.template(),
            traced.library(),
            traced.requirements(),
            KSTAR,
        )
        .map_err(|e| format!("replay {}: {}", i, e))?;
        for &idx in &banned[s.client] {
            enc.ban_component(idx);
        }
        sizes.add(&enc);
        standalone_root(tr, op, enc.model.problem(), &cfg);
    }
    let n = sent.len() as f64;
    let traced_ms = tr.sum_ms("session.apply") + tr.sum_ms("session.solve");
    res.set("session.apply_ms", tr.mean_ms("session.apply"));
    res.set("session.encode_ms", frac(encode_ms, n));
    res.set("session.solve_ms", tr.mean_ms("session.solve"));
    res.set(
        "session.warm_seeded_frac",
        frac(warm_seeded as f64, warm_used as f64),
    );
    res.set("session.reencode_frac", frac(reencoded as f64, n));
    res.set(
        "session.fingerprint_rejects",
        replay
            .iter()
            .map(|(_, s)| s.stats().fingerprint_rejects as f64)
            .sum(),
    );
    res.set("milp.busy_ms", frac(solve_ms, n));
    res.set("milp.presolve_ms", tr.mean_ms("milp.presolve_standalone"));
    res.set("milp.root_lp_ms", tr.mean_ms("milp.root_lp_standalone"));
    res.set("design.verify_ms", tr.mean_ms("design.verify_design"));
    sizes.emit(tr, res);
    res.set("trace_overhead_frac", frac(traced_ms, plain_ms) - 1.0);
    res.notes.push(format!(
        "traced composition: {} requests replayed on DesignSession matched the service's objectives",
        sent.len()
    ));
    Ok(())
}

//! Fault-injected request storm against the design-session service.
//!
//! 24 seeded clients each send 3 rounds of typed spec deltas to their own
//! session, while the service absorbs two mid-request cancellations, one
//! simulated worker death and one poisoned delta. Every request must
//! resolve to exactly one typed outcome, no served answer may arrive past
//! its deadline, and every injected fault must land.
//!
//! The trace (which client edits what, every delta value, every fault
//! ordinal) is a pure function of `SEED`, keyed per request on
//! `(seed, client, round)`, so the submission window changes scheduling,
//! never the workload.

use archex::requirements::RouteFamily;
use archex::service::{DesignService, Outcome, Request, ServiceConfig, ServiceFaults, Ticket};
use archex::session::{SessionSnapshot, SpecDelta};
use archex::{ExploreOptions, Requirements, Selector};
use bench::data_collection_workload;
use devlib::DeviceKind;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

const SEED: u64 = 7;
const CLIENTS: usize = 24;
const ROUNDS: usize = 3;
const DEADLINE: Duration = Duration::from_secs(3);
/// Closed-loop submission window: before the next submit, the oldest
/// outstanding ticket is drained once this many are in flight, so latency
/// measures the service, not a backlog of the test's own making.
const INFLIGHT: usize = 4;

/// Splitmix64: one u64 in, one u64 out, no state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The random draws of one `(client, round)` request.
struct Draw {
    key: u64,
    n: u64,
}

impl Draw {
    fn new(client: u64, round: u64) -> Self {
        let key = SEED
            .wrapping_mul(0x100000001b3)
            .wrapping_add(client.wrapping_mul(10_007))
            .wrapping_add(round.wrapping_mul(101));
        Draw { key, n: 0 }
    }

    fn next(&mut self) -> u64 {
        self.n += 1;
        mix(self.key.wrapping_add(self.n))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Names pulled out of the seed snapshot once.
struct Names {
    components: Vec<(String, f64)>,
    relays: Vec<String>,
    nodes: Vec<String>,
}

/// The delta batch of `(client, round)`: 60 % price shifts, 20 % relay
/// stock toggles, 10 % wall edits, 10 % route churn. `routes` holds the
/// client's added route names, so a removal always targets one that exists.
fn deltas_for(client: u64, round: u64, names: &Names, routes: &mut Vec<String>) -> Vec<SpecDelta> {
    let mut rng = Draw::new(client, round);
    let roll = rng.below(100);
    if roll < 60 {
        let k = rng.below(names.components.len() as u64) as usize;
        let (name, base) = &names.components[k];
        vec![SpecDelta::DevicePrice {
            component: name.clone(),
            cost: (base * (0.5 + rng.unit())).max(0.0),
        }]
    } else if roll < 80 {
        // Relays only: every design needs a sink.
        let k = rng.below(names.relays.len() as u64) as usize;
        vec![SpecDelta::DeviceStock {
            component: names.relays[k].clone(),
            in_stock: rng.below(2) == 0,
        }]
    } else if roll < 90 {
        let n = names.nodes.len() as u64;
        let i = rng.below(n) as usize;
        let mut j = rng.below(n) as usize;
        if i == j {
            j = (j + 1) % names.nodes.len();
        }
        vec![SpecDelta::WallEdit {
            a: names.nodes[i].clone(),
            b: names.nodes[j].clone(),
            delta_db: rng.unit() * 18.0 - 6.0,
        }]
    } else if roll < 95 || routes.is_empty() {
        let name = format!("storm-{}-{}", client, round);
        routes.push(name.clone());
        vec![SpecDelta::RouteAdd {
            family: RouteFamily {
                name,
                from: Selector::Sensors,
                to: Selector::Sink,
                max_hops: None,
            },
        }]
    } else {
        let k = rng.below(routes.len() as u64) as usize;
        vec![SpecDelta::RouteRemove {
            name: routes.remove(k),
        }]
    }
}

/// Nearest-rank percentile of sorted latencies.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[test]
fn fault_injected_storm_resolves_every_request_typed() {
    // The office floor and multi-wall channel of the paper benchmarks, with
    // a spec sized for interactive re-solves: a link-disjoint route pair
    // and no lifetime constraint. 12 nodes keep the storm inside its
    // deadline in the unoptimized test build; at 10 the spec is infeasible.
    let w = data_collection_workload(12, 3, "cost");
    let req = Requirements::from_spec_text(
        "set noise_dbm = -100\n\
         routes  = has_path(sensors, sink)\n\
         routes2 = has_path(sensors, sink)\n\
         disjoint_links(routes, routes2)\n\
         min_signal_to_noise(15)\n\
         objective minimize cost\n",
    )
    .expect("storm spec parses");
    // The workload pruned links for its own, stricter spec.
    let mut template = w.template.clone();
    template.prune_links(&w.library, req.params.noise_dbm, req.effective_min_snr_db());
    let names = Names {
        components: w
            .library
            .components()
            .iter()
            .map(|c| (c.name.clone(), c.cost))
            .collect(),
        relays: w
            .library
            .of_kind(DeviceKind::Relay)
            .map(|(_, c)| c.name.clone())
            .collect(),
        nodes: template.nodes().iter().map(|n| n.name.clone()).collect(),
    };
    let seed = SessionSnapshot::new(template, w.library, req, ExploreOptions::approx(8));

    // Faults on request ordinals (submission order, round * CLIENTS +
    // client): cancel clients 0 and 5 in round 1, kill client 3's session
    // before its round-2 request, and poison client 1's round-1 delta.
    let clients = CLIENTS as u64;
    let faults = ServiceFaults::new()
        .cancel_request(clients)
        .cancel_request(clients + 5)
        .kill_session_on(2 * clients + 3);
    let poisoned = clients + 1;
    let svc = DesignService::start(
        ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            default_deadline: DEADLINE,
            degraded_budget: Duration::from_millis(200),
        },
        seed,
        faults,
    );

    let mut routes: Vec<Vec<String>> = vec![Vec::new(); CLIENTS];
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(CLIENTS * ROUNDS);
    let mut pending: VecDeque<Ticket> = VecDeque::with_capacity(INFLIGHT);
    for round in 0..ROUNDS as u64 {
        for client in 0..clients {
            // The poisoned request still draws its deltas, so the client's
            // later rounds replay the same trace.
            let mut deltas = deltas_for(client, round, &names, &mut routes[client as usize]);
            if round * clients + client == poisoned {
                deltas = vec![SpecDelta::DevicePrice {
                    component: "storm-poison-device".into(),
                    cost: 1.0,
                }];
            }
            if pending.len() >= INFLIGHT {
                outcomes.extend(pending.pop_front().map(Ticket::wait));
            }
            pending.push_back(svc.submit(Request {
                session: client,
                deltas,
                deadline: None,
            }));
        }
    }
    outcomes.extend(pending.into_iter().map(Ticket::wait));

    let mut served_ms = Vec::new();
    let (mut served, mut degraded, mut shed) = (0u64, 0u64, 0u64);
    let mut failed = Vec::new();
    for (ordinal, out) in outcomes.iter().enumerate() {
        match out {
            Outcome::Served(i) => {
                served += 1;
                served_ms.push(i.total);
            }
            Outcome::Degraded(_) => degraded += 1,
            Outcome::Shed => shed += 1,
            Outcome::Failed(msg) => failed.push((ordinal as u64, msg.clone())),
        }
    }
    served_ms.sort();
    let m = svc.metrics();
    let (cancelled, rebuilt) = (m.cancelled.load(Relaxed), m.sessions_rebuilt.load(Relaxed));
    let counters = [
        ("served", m.served.load(Relaxed), served),
        ("degraded", m.degraded.load(Relaxed), degraded),
        ("shed", m.shed.load(Relaxed), shed),
        ("failed", m.failed.load(Relaxed), failed.len() as u64),
    ];
    let summary = format!(
        "served {} degraded {} shed {} failed {} cancelled {} rebuilt {}",
        served,
        degraded,
        shed,
        failed.len(),
        cancelled,
        rebuilt
    );

    let mut bad = Vec::new();
    let panics = failed
        .iter()
        .filter(|(_, msg)| msg.contains("panic"))
        .count();
    if panics > 0 {
        bad.push(format!("{} panics crossed the service boundary", panics));
    }
    let late = served_ms.iter().filter(|&&t| t > DEADLINE).count();
    if late > 0 {
        bad.push(format!("{} requests served past the deadline", late));
    }
    let p99 = percentile(&served_ms, 0.99);
    if p99 > DEADLINE {
        bad.push(format!(
            "served p99 {:?} over the {:?} deadline",
            p99, DEADLINE
        ));
    }
    if cancelled < 2 {
        bad.push(format!("{} of 2 injected cancellations fired", cancelled));
    }
    if rebuilt < 1 {
        bad.push("the injected worker death rebuilt no session".to_string());
    }
    if failed.len() != 1 || failed[0].0 != poisoned {
        bad.push(format!(
            "expected only the poisoned request {} to fail, saw {:?}",
            poisoned, failed
        ));
    }
    if (served + degraded + shed) as usize + failed.len() != CLIENTS * ROUNDS {
        bad.push("not every request resolved to a typed outcome".to_string());
    }
    for (name, service, seen) in counters {
        if service != seen {
            bad.push(format!(
                "service counted {} {} requests, the clients saw {}",
                service, name, seen
            ));
        }
    }
    svc.shutdown();
    println!("storm: {} (served p99 {:?})", summary, p99);
    assert!(bad.is_empty(), "{}: {}", summary, bad.join("; "));
}

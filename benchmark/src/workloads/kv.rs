//! The three KV workloads: a sharded key-value service behind `suca-rpc`,
//! driven by the benchmark's own closed- and open-loop generators.
//!
//! * `kv_closed_32` — 32 nodes, 8 interleaved shards, 24 clients × 84
//!   closed-loop users, GET 70 / PUT 25 / SCAN 5 %, think 4–12 ms. RPC
//!   queueing, service and RMA responses do the work; reads beside writes
//!   beside large scans show a gain for one class that costs another.
//! * `kv_open_sweep_8` — 8 nodes, 2 shards with a 16-deep admission queue,
//!   6 open-loop Poisson clients at 0.5×, 0.8×, 1.2× and 3.0× nominal
//!   capacity: four simulations per rep. The only workload with a growing
//!   backlog; latency rises before throughput stops. The generic metrics
//!   are those of the 3.0× step, the regime no other workload covers.
//! * `kv_loss5_4` — 4 nodes, 5 % per-link packet drop, closed loop.
//!   Go-back-N retransmission leaves the fast path by design, so a change
//!   to reliability shows here and must not move `kv_closed_32`.
//!
//! The generator is the benchmark's, not `suca_load::run_open_loop`: that
//! one times a request from the moment it was issued and lets arrivals
//! slip when issuing costs more than the gap. Here every arrival has a
//! due time fixed by the seed before the simulation starts, an op is
//! timed from its due time, and how late the generator ran is reported
//! (`load.gen_late_p99_us`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use suca_bcl::ProcAddr;
use suca_cluster::{ClusterSpec, SanKind};
use suca_load::kv::{enc_get, enc_put, enc_scan, scan_for, value_for};
use suca_load::{KvCosts, KvService, OP_GET, OP_PUT, OP_SCAN};
use suca_myrinet::{FaultPlan, MyrinetConfig};
use suca_rpc::{RpcClient, RpcClientConfig, RpcCompletion, RpcServer, RpcServerConfig, RpcStatus};
use suca_sim::{ActorCtx, SimDuration, SimRng};

use super::{Harness, Outcome, Phase, Tally};
use crate::spans::SpanLog;
use crate::stats::Latencies;

/// Simulated memory per node, set explicitly: every `send_bytes` the RPC
/// layer makes takes a fresh page that is never freed (see README, known
/// limits), so a node's op count is bounded by this.
const MEM_BYTES: u64 = 64 << 20;
/// Keys each simulated user owns.
const KEYS_PER_USER: u64 = 64;
/// Latency limit of the SLO, from due time, µs.
const SLO_P99_US: f64 = 1_000.0;
/// Steps of the open-loop sweep: offered rate as a multiple of nominal
/// capacity, the step's tail-latency metric, and the
/// nominal length of its arrival window in virtual seconds. The number of
/// arrivals per client is fixed from rate × window; the seed only places
/// them in time. The first step runs longest because its latencies are
/// the workload's `sim_lat_*` and a p99 needs the samples; the overloaded
/// steps reach their steady state within a few milliseconds.
const SWEEP: [(f64, &str, f64); 4] = [
    (0.5, "rpc.p99_us.r050", 0.128),
    (0.8, "rpc.p99_us.r080", 0.016),
    (1.2, "rpc.p99_us.r120", 0.016),
    (3.0, "rpc.p99_us.r300", 0.008),
];
/// Nominal capacity of the sweep's two-shard service, requests per
/// virtual second: the highest offered rate at which the tree this
/// benchmark was written against shed nothing (25 µs of service plus
/// about 18 µs of per-message work per request and shard).
const NOMINAL_OPS_PER_S: f64 = 46_000.0;
/// Admission-queue bound of the sweep's shards.
const SWEEP_QUEUE_CAP: usize = 16;

fn class_name(op: u8) -> &'static str {
    match op {
        OP_GET => "get",
        OP_PUT => "put",
        _ => "scan",
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    op: u8,
    key: u64,
    /// Closed loop: think time before this request. Open loop: due time
    /// after the start of the measured phase.
    delay_ns: u64,
}

/// Op mix: `scan` and `put` shares; the rest are GETs.
#[derive(Clone, Copy)]
struct Mix {
    scan: f64,
    put: f64,
}

/// The mix of the two closed-loop workloads: GET 70 / PUT 25 / SCAN 5 %.
const KV_MIX: Mix = Mix {
    scan: 0.05,
    put: 0.25,
};

impl Mix {
    /// The op classes of `n` requests: exactly the mix's shares, in a
    /// seeded order. Drawing each class independently would let the seed
    /// move the SCAN count by ±7 %, and SCANs carry most of the bytes.
    fn classes(self, rng: &mut SimRng, n: usize) -> Vec<u8> {
        let scans = (n as f64 * self.scan).round() as usize;
        let puts = (n as f64 * self.put).round() as usize;
        let mut ops: Vec<u8> = (0..n)
            .map(|i| match i {
                i if i < scans => OP_SCAN,
                i if i < scans + puts => OP_PUT,
                _ => OP_GET,
            })
            .collect();
        for i in (1..n).rev() {
            ops.swap(i, rng.below(i as u64 + 1) as usize);
        }
        ops
    }
}

fn request(rng: &mut SimRng, op: u8, user: u64, delay_ns: u64) -> Req {
    Req {
        op,
        key: user * KEYS_PER_USER + rng.below(KEYS_PER_USER),
        delay_ns,
    }
}

/// What one client actor will do, fixed by the seed before the run.
enum Script {
    /// `users[u]` is user `u`'s requests in order; the user thinks, issues,
    /// waits for the resolution, and repeats.
    Closed { users: Vec<Vec<Req>> },
    /// Arrivals in due-time order, issued on schedule whatever is
    /// outstanding.
    Open { arrivals: Vec<Req> },
}

impl Script {
    fn ops(&self) -> u64 {
        match self {
            Script::Closed { users } => users.iter().map(|u| u.len() as u64).sum(),
            Script::Open { arrivals } => arrivals.len() as u64,
        }
    }

    fn is_open(&self) -> bool {
        matches!(self, Script::Open { .. })
    }

    /// Request `index` of `user` (of the arrival list in an open loop).
    fn request(&self, user: usize, index: usize) -> Option<Req> {
        match self {
            Script::Closed { users } => users[user].get(index).copied(),
            Script::Open { arrivals } => arrivals.get(index).copied(),
        }
    }

    /// What `user` does once request `index` has resolved: a closed-loop
    /// user goes on to the next one; open-loop arrivals wait for nobody.
    fn follow_up(&self, user: usize, index: usize) -> Option<Req> {
        match self {
            Script::Closed { .. } => self.request(user, index + 1),
            Script::Open { .. } => None,
        }
    }
}

/// The value a PUT stores: a function of the key and the seed, so that
/// duplicate or reordered PUTs (retries) leave the same state.
fn put_value(key: u64, salt: u64) -> Vec<u8> {
    value_for(key ^ salt)
}

/// Per-client results beyond the shared [`Tally`].
#[derive(Default)]
struct ClientStats {
    tally: Tally,
    completed: u64,
    shed: u64,
    timed_out: u64,
    client_shed: u64,
    bad_payloads: u64,
    /// Issue time minus due time per issued request, ns.
    late_ns: Vec<u64>,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.tally.merge(other.tally);
        self.completed += other.completed;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.client_shed += other.client_shed;
        self.bad_payloads += other.bad_payloads;
        self.late_ns.extend(other.late_ns);
    }
}

/// A request handed to `RpcClient`; its index in `Driver::issued` is the
/// token the completion carries back.
struct Issued {
    req: Req,
    /// The `(virtual, host)` stamp the op is timed from.
    from: (u64, u64),
    user: usize,
    index: usize,
}

/// One client actor: issues its script through `RpcClient`, verifies every
/// response byte for byte, and times each op.
struct Driver<'a> {
    client: &'a mut RpcClient,
    servers: &'a [ProcAddr],
    log: SpanLog,
    salt: u64,
    /// Keys this client has ever PUT: a later GET may see either value.
    put_keys: HashSet<u64>,
    issued: Vec<Issued>,
    /// Requests waiting for their due time, earliest first:
    /// `(due, tie-break, user, index)`.
    ready: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
    /// Next tie-break: equal due times issue in the order scheduled.
    next_seq: u64,
    stats: ClientStats,
    /// Op ids are `op_base + token`, unique across clients.
    op_base: u64,
}

impl Driver<'_> {
    fn schedule(&mut self, due_ns: u64, user: usize, index: usize) {
        self.ready
            .push(Reverse((due_ns, self.next_seq, user, index)));
        self.next_seq += 1;
    }

    /// Hand one request to the RPC layer; false when it refused outright.
    fn issue(&mut self, ctx: &mut ActorCtx, issued: Issued) -> bool {
        let req = issued.req;
        let payload = match req.op {
            OP_GET => enc_get(req.key),
            OP_PUT => enc_put(req.key, &put_value(req.key, self.salt)),
            _ => enc_scan(req.key),
        };
        let dst = self.servers[(req.key % self.servers.len() as u64) as usize];
        let token = self.issued.len() as u64;
        if req.op == OP_PUT {
            self.put_keys.insert(req.key);
        }
        self.issued.push(issued);
        let client = &mut *self.client;
        self.log
            .call(ctx, "rpc.issue", self.op_base + token, |ctx| {
                client.issue(ctx, dst, req.op, &payload, token)
            })
            .is_ok()
    }

    /// Fold resolved requests in and, in a closed loop, schedule each
    /// finished user's next request one think time later.
    fn absorb(&mut self, ctx: &ActorCtx, comps: Vec<RpcCompletion>, script: &Script) {
        let now = ctx.now().as_ns();
        for c in comps {
            let Some(&Issued {
                req,
                from,
                user,
                index,
            }) = self.issued.get(c.token as usize)
            else {
                self.stats
                    .tally
                    .errors
                    .push(format!("completion with unknown token {}", c.token));
                continue;
            };
            match c.status {
                RpcStatus::Shed => self.stats.shed += 1,
                RpcStatus::TimedOut | RpcStatus::DeadDestination => self.stats.timed_out += 1,
                RpcStatus::Ok => {
                    self.stats.completed += 1;
                    let good = match req.op {
                        OP_GET => {
                            c.payload == value_for(req.key)
                                || (self.put_keys.contains(&req.key)
                                    && c.payload == put_value(req.key, self.salt))
                        }
                        OP_PUT => c.payload == req.key.to_le_bytes(),
                        _ => c.payload == scan_for(req.key),
                    };
                    if good {
                        let request_bytes = if req.op == OP_PUT { 40 } else { 8 };
                        self.stats.tally.record(
                            class_name(req.op),
                            now - from.0,
                            request_bytes + c.payload.len() as u64,
                        );
                        self.log.root(ctx, "op.rpc", self.op_base + c.token, from);
                    } else {
                        self.stats.bad_payloads += 1;
                    }
                }
            }
            if let Some(next) = script.follow_up(user, index) {
                self.schedule(now + next.delay_ns, user, index + 1);
            }
        }
    }

    fn run(&mut self, ctx: &mut ActorCtx, script: &Script) {
        let start = ctx.now().as_ns();
        let open = script.is_open();
        match script {
            Script::Closed { users } => {
                for (u, reqs) in users.iter().enumerate() {
                    if let Some(first) = reqs.first() {
                        self.schedule(start + first.delay_ns, u, 0);
                    }
                }
            }
            Script::Open { arrivals } => {
                for (i, a) in arrivals.iter().enumerate() {
                    self.schedule(start + a.delay_ns, 0, i);
                }
            }
        }

        loop {
            // Issue everything that is due.
            while let Some(&Reverse((due, _, user, index))) = self.ready.peek() {
                let now = ctx.now().as_ns();
                if due > now {
                    break;
                }
                if !self.client.can_issue() {
                    if !open {
                        break; // a closed-loop user waits for a slot
                    }
                    // Open loop: no slot, no queue — refused at the client.
                    self.ready.pop();
                    self.stats.client_shed += 1;
                    continue;
                }
                self.ready.pop();
                let req = script
                    .request(user, index)
                    .expect("scheduled from the script");
                self.stats.late_ns.push(now - due);
                let issued = Issued {
                    req,
                    // A closed-loop op is timed from its issue, an
                    // open-loop one from when it was due.
                    from: (if open { due } else { now }, self.log.host_ns()),
                    user,
                    index,
                };
                if !self.issue(ctx, issued) {
                    self.stats.client_shed += 1;
                }
                // Issuing can cost more than the gap to the next arrival;
                // take completions here so they are not discovered late.
                let comps = self.client.advance(ctx);
                self.absorb(ctx, comps, script);
            }
            if self.ready.is_empty() && self.client.in_flight() == 0 {
                break;
            }
            let now = ctx.now().as_ns();
            let wait = match self.ready.peek() {
                Some(&Reverse((due, ..))) if self.client.can_issue() => {
                    SimDuration::from_ns(due.saturating_sub(now).clamp(1, 500_000))
                }
                _ => SimDuration::from_us(500),
            };
            let comps = self.client.pump(ctx, wait);
            self.absorb(ctx, comps, script);
        }
    }
}

/// Everything that distinguishes one KV simulation from another.
struct Shape {
    nodes: u32,
    /// Nodes that run a shard; the rest run one client each.
    servers: Vec<u32>,
    drop_prob: f64,
    server_cfg: RpcServerConfig,
    client_cfg: RpcClientConfig,
    costs: KvCosts,
    /// Stream label: each simulation draws its scripts from its own fork.
    label: String,
}

/// Spread `n` shard nodes evenly over `[0, nodes)`: both fabrics reward
/// locality, and clumped shards funnel all traffic through one trunk.
fn interleave(nodes: u32, n: u32) -> Vec<u32> {
    (0..n).map(|s| s * nodes / n).collect()
}

/// What one KV simulation measured.
struct KvRun {
    out: Outcome,
    stats: ClientStats,
}

/// Build the cluster, run every client's script, and gather the results.
fn simulate(
    h: &mut Harness,
    shape: Shape,
    script_for: impl Fn(&mut SimRng, u32) -> Script,
) -> KvRun {
    let mut out = Outcome::default();
    let mut myrinet = MyrinetConfig::dawning3000();
    myrinet.fault = FaultPlan {
        drop_prob: shape.drop_prob,
        corrupt_prob: 0.0,
    };
    let mut spec = ClusterSpec::dawning3000(shape.nodes).with_san(SanKind::Myrinet(myrinet));
    spec.mem_bytes = MEM_BYTES;
    let cluster = h.build(spec);

    let clients: Vec<u32> = (0..shape.nodes)
        .filter(|n| !shape.servers.contains(n))
        .collect();
    let phase = Phase::new(&cluster, shape.nodes, clients.len() as u32);
    let addrs: Arc<Mutex<Vec<Option<ProcAddr>>>> =
        Arc::new(Mutex::new(vec![None; shape.servers.len()]));
    let done = Arc::new(AtomicBool::new(false));
    let totals: Arc<Mutex<ClientStats>> = Arc::default();

    for (s, &node) in shape.servers.iter().enumerate() {
        let (phase, addrs, done) = (phase.clone(), addrs.clone(), done.clone());
        let (cfg, costs) = (shape.server_cfg.clone(), shape.costs);
        cluster.spawn_process(node, format!("kv-shard{s}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.lock().expect("addrs poisoned")[s] = Some(port.addr());
            let mut srv = RpcServer::new(ctx, port, cfg).expect("shard up");
            let mut svc = KvService::new(costs);
            phase.enter(ctx, false);
            // A closed loop's think times can leave a shard idle for longer
            // than its idle timeout; keep serving until the clients are done.
            while !done.load(Ordering::Relaxed) {
                srv.serve_until_idle(ctx, &mut |ctx: &mut ActorCtx, op: u8, req: &[u8]| {
                    svc.handle(ctx, op, req)
                });
            }
        });
    }

    let salt = h.seed.rotate_left(17) | 1;
    for (c, &node) in clients.iter().enumerate() {
        let mut rng = SimRng::fork(h.seed, &format!("bench.kv.{}.client{c}", shape.label));
        let script = script_for(&mut rng, c as u32);
        out.attempted += script.ops();
        let (phase, addrs, done, totals) =
            (phase.clone(), addrs.clone(), done.clone(), totals.clone());
        let (cfg, rec) = (shape.client_cfg.clone(), h.rec.clone());
        let leader = c == 0;
        cluster.spawn_process(node, format!("kv-client{c}"), move |ctx, env| {
            let port = env.open_port(ctx);
            let mut client = RpcClient::new(ctx, port, cfg).expect("client up");
            phase.enter(ctx, leader);
            let servers: Vec<ProcAddr> = addrs
                .lock()
                .expect("addrs poisoned")
                .iter()
                .map(|a| a.expect("shard up"))
                .collect();
            let mut driver = Driver {
                client: &mut client,
                servers: &servers,
                log: rec.log(node, node),
                salt,
                put_keys: HashSet::new(),
                issued: Vec::new(),
                ready: BinaryHeap::new(),
                next_seq: 0,
                stats: ClientStats::default(),
                op_base: u64::from(node) << 32,
            };
            driver.run(ctx, &script);
            let stats = std::mem::take(&mut driver.stats);
            drop(driver);
            phase.exit(ctx, leader);
            if leader {
                done.store(true, Ordering::Relaxed);
            }
            client.quiesce(ctx, SimDuration::from_us(500));
            totals.lock().expect("totals poisoned").merge(stats);
        });
    }

    h.run(&cluster, &mut out);
    phase.collect(&mut out);
    let mut stats = std::mem::take(&mut *totals.lock().expect("totals poisoned"));
    let by_class = out.absorb(std::mem::take(&mut stats.tally));

    // Every scheduled request resolved exactly once.
    let resolved = stats.completed + stats.shed + stats.timed_out + stats.client_shed;
    if resolved != out.attempted {
        out.fail(format!(
            "accounting: {} completed + {} shed + {} timed out + {} refused != {} scheduled",
            stats.completed, stats.shed, stats.timed_out, stats.client_shed, out.attempted
        ));
    }
    if stats.bad_payloads > 0 {
        out.fail(format!(
            "{} responses failed byte verification",
            stats.bad_payloads
        ));
    }
    for (class, key) in [
        ("get", "rpc.lat_p99_us.get"),
        ("put", "rpc.lat_p99_us.put"),
        ("scan", "rpc.lat_p99_us.scan"),
    ] {
        let lat = Latencies::new(by_class.get(class).cloned().unwrap_or_default());
        out.layer.insert(key, lat.tail_us());
    }
    out.layer.insert(
        "load.gen_late_p99_us",
        Latencies::new(stats.late_ns.clone()).tail_us(),
    );
    out.layer
        .insert("load.client_shed", stats.client_shed as f64);
    KvRun { out, stats }
}

/// A closed-loop script: `users` users with `ops` requests each.
fn closed_script(
    rng: &mut SimRng,
    client: u32,
    users: u32,
    ops: u32,
    think_ns: (u64, u64),
    mix: Mix,
) -> Script {
    let base = u64::from(client) * u64::from(users);
    let mut classes = mix.classes(rng, (users * ops) as usize).into_iter();
    Script::Closed {
        users: (0..u64::from(users))
            .map(|u| {
                (0..ops)
                    .map(|_| {
                        let think = rng.range(think_ns.0, think_ns.1);
                        let op = classes.next().expect("one class per request");
                        request(rng, op, base + u, think)
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Clean closed-loop runs must complete every request.
fn require_all_ok(run: &mut KvRun) {
    if run.out.ok != run.out.attempted {
        run.out.fail(format!(
            "{} of {} requests did not complete verified ({} shed, {} timed out, {} refused)",
            run.out.attempted - run.out.ok,
            run.out.attempted,
            run.stats.shed,
            run.stats.timed_out,
            run.stats.client_shed
        ));
    }
}

const CLOSED_USERS: u32 = 84;
const CLOSED_OPS_PER_USER: u32 = 3;

/// `kv_closed_32`.
pub fn run_closed_32(h: &mut Harness) -> Outcome {
    let shape = Shape {
        nodes: 32,
        servers: interleave(32, 8),
        drop_prob: 0.0,
        server_cfg: RpcServerConfig {
            queue_cap: 1_024,
            idle_timeout: SimDuration::from_ms(1),
            ..RpcServerConfig::default()
        },
        client_cfg: RpcClientConfig {
            timeout: SimDuration::from_ms(5),
            max_attempts: 3,
            backoff: SimDuration::from_us(200),
            arena_slots: CLOSED_USERS,
            slot_bytes: suca_load::SCAN_BYTES as u64,
            ..RpcClientConfig::default()
        },
        costs: KvCosts::default(),
        label: "closed".into(),
    };
    let mut run = simulate(h, shape, |rng, c| {
        closed_script(
            rng,
            c,
            CLOSED_USERS,
            CLOSED_OPS_PER_USER,
            (4_000_000, 12_000_000),
            KV_MIX,
        )
    });
    require_all_ok(&mut run);
    run.out
}

const LOSS_USERS: u32 = 20;
const LOSS_OPS_PER_USER: u32 = 160;

/// `kv_loss5_4`.
pub fn run_loss5_4(h: &mut Harness) -> Outcome {
    let shape = Shape {
        nodes: 4,
        servers: interleave(4, 2),
        drop_prob: 0.05,
        server_cfg: RpcServerConfig {
            queue_cap: 256,
            idle_timeout: SimDuration::from_ms(1),
            ..RpcServerConfig::default()
        },
        client_cfg: RpcClientConfig {
            timeout: SimDuration::from_ms(10),
            max_attempts: 3,
            backoff: SimDuration::from_us(200),
            arena_slots: LOSS_USERS,
            slot_bytes: suca_load::SCAN_BYTES as u64,
            ..RpcClientConfig::default()
        },
        costs: KvCosts::default(),
        label: "loss5".into(),
    };
    let mut run = simulate(h, shape, |rng, c| {
        closed_script(
            rng,
            c,
            LOSS_USERS,
            LOSS_OPS_PER_USER,
            (300_000, 900_000),
            KV_MIX,
        )
    });
    require_all_ok(&mut run);
    if run
        .out
        .phase_counters
        .get("bcl.retx_packets")
        .copied()
        .unwrap_or(0)
        == 0
    {
        run.out.fail("5 % drop forced no retransmission");
    }
    run.out
}

/// Open-loop clients of the sweep.
const SWEEP_CLIENTS: u32 = 6;
/// Simulated users arrivals are attributed to, per client.
const SWEEP_USERS: u64 = 50;
/// The step whose latencies are the workload's `sim_lat_*`: half of
/// nominal capacity, where every request completes and the queue is in
/// use but stable, so the numbers are latencies and not a survivors'
/// statistic (at 3.0× this tree completes under 1 % of requests) and the
/// tail does not swing with the seed as it does close to saturation.
const LATENCY_STEP: usize = 0;

/// `kv_open_sweep_8`.
pub fn run_open_sweep_8(h: &mut Harness) -> Outcome {
    let mut out = Outcome::default();
    let mut slo_rate = 0.0f64;
    let mut bad_payloads = 0;
    for (i, (factor, p99_metric, window_s)) in SWEEP.into_iter().enumerate() {
        if i > 0 {
            h.begin_setup();
        }
        let shape = Shape {
            nodes: 8,
            servers: interleave(8, 2),
            drop_prob: 0.0,
            server_cfg: RpcServerConfig {
                queue_cap: SWEEP_QUEUE_CAP,
                idle_timeout: SimDuration::from_ms(1),
                ..RpcServerConfig::default()
            },
            // The deadline outlives the worst admission-queue delay, so
            // admitted requests complete and overload resolves through
            // sheds rather than timeouts. One attempt only: `RpcClient`
            // retries requests that fall due together in `HashMap` order,
            // which differs from process to process, and an overloaded
            // step has many due together (README, known limits).
            client_cfg: RpcClientConfig {
                timeout: SimDuration::from_ms(2),
                max_attempts: 1,
                backoff: SimDuration::from_us(100),
                arena_slots: 32,
                slot_bytes: suca_load::SCAN_BYTES as u64,
                ..RpcClientConfig::default()
            },
            // Uniform 25 µs service, so capacity is a single number.
            costs: KvCosts {
                get: SimDuration::from_us(25),
                put: SimDuration::from_us(25),
                scan: SimDuration::from_us(25),
            },
            label: p99_metric.into(),
        };
        let rate_per_client = factor * NOMINAL_OPS_PER_S / f64::from(SWEEP_CLIENTS);
        let arrivals_per_client = (rate_per_client * window_s).round() as usize;
        let mean_gap_ns = 1e9 / rate_per_client;
        let run = simulate(h, shape, |rng, c| {
            let mix = Mix {
                scan: 0.0,
                put: 0.25,
            };
            let mut due = 0u64;
            let arrivals = mix
                .classes(rng, arrivals_per_client)
                .into_iter()
                .map(|op| {
                    // Exponential gaps: a Poisson arrival process.
                    let gap = -(1.0 - rng.unit_f64()).ln() * mean_gap_ns;
                    due += gap.round().max(1.0) as u64;
                    let user = u64::from(c) * SWEEP_USERS + rng.below(SWEEP_USERS);
                    request(rng, op, user, due)
                })
                .collect();
            Script::Open { arrivals }
        });

        // The SLO rate: the highest offered rate that met the latency
        // limit at the tail with nothing shed, timed out or refused, and
        // with the admission queue never full.
        let p99 = Latencies::new(run.out.lat_ns.clone()).tail_us();
        let queue_hw = h
            .sims
            .last()
            .and_then(|s| s.snapshot.gauges.get("rpc.srv_queue_depth"))
            .map_or(0, |g| g.high_water);
        if run.out.ok == run.out.attempted && p99 <= SLO_P99_US && queue_hw < SWEEP_QUEUE_CAP as u64
        {
            slo_rate = slo_rate.max(factor * NOMINAL_OPS_PER_S);
        }
        out.layer.insert(p99_metric, p99);

        // Throughput and the ok ratio are over the whole sweep; the
        // per-layer counters are those of the last, most overloaded step.
        out.attempted += run.out.attempted;
        out.ok += run.out.ok;
        out.payload_bytes += run.out.payload_bytes;
        out.phase_ns += run.out.phase_ns;
        out.errors.extend(run.out.errors);
        bad_payloads += run.stats.bad_payloads;
        if i == LATENCY_STEP {
            out.lat_ns = run.out.lat_ns;
        }
        if i + 1 == SWEEP.len() {
            out.phase_ops = run.out.attempted;
            out.phase_counters = run.out.phase_counters;
            out.phase_frames = run.out.phase_frames;
            out.layer.extend(run.out.layer);
            if run.stats.shed == 0 {
                out.fail("3.0x step: admission control never shed");
            }
        }
    }
    // Under deliberate overload a shed, timed-out or refused request is
    // the service working as designed: it lowers `sim_ok_ratio`, and only
    // a wrong byte counts as a failed operation.
    out.failed = bad_payloads;
    out.layer.insert("rpc.slo_rate_ops_s", slo_rate);
    out
}

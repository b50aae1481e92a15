//! Shared scaffolding for the mixed multi-tenant harness: KV, pub-sub,
//! and pipeline tenants sharing one 32-node dual-rail cluster under
//! per-tenant admission quotas and SLO windows.
//!
//! Every service node runs ONE [`RpcServer`] with a tenant policy table
//! and dispatches by the admitted request's tenant: tenant 0 is the KV
//! store (high priority), tenant 1 the pub-sub log, tenant 2 the
//! pipeline workers (both low priority). The three client populations
//! drive their tenant through the same fabric at the same time; the SLO
//! report carries one section per tenant so isolation is measurable.
//!
//! The harness binary (`mixed_slo`) and the cluster e2e determinism test
//! both build on [`run_mixed`]; only scale knobs and assertions differ.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ProcAddr;
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_load::{
    run_closed_loop, ClosedLoopCfg, KvCosts, KvService, LatencyHists, LoadStats, Mix, SloReport,
    TenantSlo,
};
use suca_myrinet::FaultPlan;
use suca_pipeline::{run_driver, DriverCfg, DriverStats, PipelineCosts, PipelineWorker};
use suca_pubsub::{
    run_publisher, run_publisher_open, run_subscriber, FloodCfg, PubSubCosts, PubSubService,
    PublisherCfg, RoomCfg, SubscriberCfg,
};
use suca_rpc::{
    Priority, RpcClient, RpcClientConfig, RpcReply, RpcServer, RpcServerConfig, TenantId,
    TenantPolicy,
};
use suca_sim::{ActorCtx, HealthRule, RunOutcome, SimDuration, SimTime};

use crate::kv_cluster::interleave_servers;
use crate::report::Recovery;
use crate::spec_for;

/// Fixed seed for every mixed_slo variant.
pub const SEED: u64 = 0x3_7E4A47;

/// Tenant id of the KV store population (high priority).
pub const TENANT_KV: u8 = 0;
/// Tenant id of the pub-sub log population (low priority).
pub const TENANT_PUBSUB: u8 = 1;
/// Tenant id of the pipeline population (low priority).
pub const TENANT_PIPELINE: u8 = 2;

/// Cluster size: 8 service nodes + 24 client nodes, all barrier-synced.
pub const NODES: u32 = 32;
const N_SERVERS: u32 = 8;
const N_KV: usize = 10;
const N_PUB: usize = 4;
const N_ROOMS: u32 = N_PUB as u32;
const N_SUB: usize = 8;
const N_PIPE: usize = 2;

/// Sim-time no-op that keeps the run alive long enough for fired alerts
/// to resolve once load drains (the sampler only ticks while events
/// remain).
const KEEPALIVE_NS: u64 = 40_000_000;

/// Scale and shape knobs. The defaults are the harness scale; the e2e
/// determinism test shrinks them to stay fast.
#[derive(Clone, Debug)]
pub struct MixedCfg {
    /// Flood the pub-sub tenant open-loop past its admission quota.
    pub overload_pubsub: bool,
    /// Solo baseline: only the KV tenant issues (identical topology, so
    /// the clean-vs-solo p99 ratio isolates cross-tenant interference).
    pub kv_only: bool,
    /// Simulated KV users per client actor.
    pub kv_users_per_client: u32,
    /// Closed-loop ops each KV user issues.
    pub kv_ops_per_user: u32,
    /// Events each publisher appends (clean variants).
    pub pub_events: u32,
    /// Jobs each pipeline driver runs.
    pub pipe_jobs: u32,
}

impl Default for MixedCfg {
    fn default() -> Self {
        MixedCfg {
            overload_pubsub: false,
            kv_only: false,
            kv_users_per_client: 32,
            kv_ops_per_user: 4,
            pub_events: 40,
            pipe_jobs: 4,
        }
    }
}

/// Aggregated subscriber observations across the subscriber population.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubTotals {
    /// Events received (fresh + catch-up) across all subscribers.
    pub received: u64,
    /// Event-body bytes received.
    pub bytes: u64,
    /// Sequence discontinuities — must be 0 (the room sheds, never skips).
    pub gaps: u64,
    /// EOF sentinels observed.
    pub eofs: u32,
    /// Subscribers the rooms shed for lagging.
    pub shed: u32,
}

/// Everything one mixed run produces.
pub struct MixedOutcome {
    /// The finished cluster (health engine, metrics, traces).
    pub cluster: Cluster,
    /// SLO report with one [`TenantSlo`] section per tenant.
    pub report: SloReport,
    /// Per-tenant request tallies, indexed by tenant id.
    pub tenant_stats: [LoadStats; 3],
    /// Subscriber-side pub-sub observations.
    pub sub: SubTotals,
    /// Pipeline driver observations.
    pub drv: DriverStats,
}

impl MixedOutcome {
    /// Worst per-class p99 of the KV tenant, in microseconds (the
    /// isolation metric: overload-vs-solo ratio must stay bounded).
    pub fn kv_p99_us(&self) -> f64 {
        self.report
            .tenants
            .iter()
            .filter(|t| t.tenant == TENANT_KV)
            .flat_map(|t| t.classes.iter())
            .map(|c| c.p99_us)
            .fold(0.0, f64::max)
    }
}

/// Per-tenant burn-rate rules (satellite of the mixed harness): each
/// tenant's error ratio is watched in its own SLO window, so an overload
/// fires — and resolves — exactly the overloaded tenant's rule. Windows
/// are sampler ticks (10 µs): 50/200 = 0.5 ms short / 2 ms long.
pub fn mixed_health_rules() -> Vec<HealthRule> {
    [TENANT_KV, TENANT_PUBSUB, TENANT_PIPELINE]
        .into_iter()
        .map(|t| {
            HealthRule::burn_rate(format!("t{t}.err_burn"), None, 10_000, 10, 50, 200, 10)
                .for_tenant(t)
                .with_lifecycle(2, 15)
        })
        .collect()
}

/// Name of the tenant's burn-rate rule (assertion helper).
pub fn burn_rule(tenant: u8) -> String {
    format!("t{tenant}.err_burn")
}

fn mixed_spec(fabric: &str) -> ClusterSpec {
    // Dual rail on every variant: the primary fabric is the one under
    // test, the other rides along as the failover rail.
    let other = if fabric == "myrinet" {
        "mesh"
    } else {
        "myrinet"
    };
    spec_for(fabric, NODES, FaultPlan::NONE)
        .with_second_san(spec_for(other, NODES, FaultPlan::NONE).san)
        .with_seed(SEED)
        .with_health(mixed_health_rules())
}

fn client_cfg(tenant: u8, priority: Priority) -> RpcClientConfig {
    // The pub-sub tenant gets a quarter of the in-flight credit: an
    // open-loop flood can only burst `arena_slots` requests at once, and
    // 64-deep bursts from four publishers exhaust the flooded servers'
    // receive pools — which drops *other* tenants' arrivals into
    // go-back-N retransmission timeouts. Bounding the noisy tenant's
    // credit keeps pool pressure (and thus collateral tail damage)
    // bounded at the transport layer, where quotas can't see it.
    let arena_slots = if tenant == TENANT_PUBSUB { 16 } else { 64 };
    RpcClientConfig {
        timeout: SimDuration::from_ms(5),
        max_attempts: 2,
        backoff: SimDuration::from_us(100),
        arena_slots,
        slot_bytes: 16 * 1024,
        tenant: TenantId(tenant),
        priority,
    }
}

/// Run one mixed-tenant variant and gather its per-tenant SLO report.
pub fn run_mixed(variant: &str, fabric: &str, cfg: &MixedCfg) -> MixedOutcome {
    let cluster = mixed_spec(fabric).build();
    let sim = cluster.sim.clone();
    sim.schedule_at(SimTime::from_ns(KEEPALIVE_NS), |_| {});
    let barrier = SimBarrier::new(&sim, NODES);

    let servers = interleave_servers(NODES, N_SERVERS);
    let addrs: Rc<RefCell<Vec<Option<ProcAddr>>>> =
        Rc::new(RefCell::new(vec![None; servers.len()]));
    let tenant_totals: Rc<RefCell<[LoadStats; 3]>> =
        Rc::new(RefCell::new([LoadStats::default(); 3]));
    let sub_totals: Rc<RefCell<SubTotals>> = Rc::new(RefCell::new(SubTotals::default()));
    let drv_totals: Rc<RefCell<DriverStats>> = Rc::new(RefCell::new(DriverStats::default()));

    // Overload drives each publisher's room-home server past its service
    // rate (40 µs publishes vs 20 µs arrivals), so the pub-sub tenant's
    // quota — not the shared queue — is what sheds.
    let ps_costs = if cfg.overload_pubsub {
        PubSubCosts {
            publish: SimDuration::from_us(40),
            ..PubSubCosts::default()
        }
    } else {
        PubSubCosts::default()
    };
    let server_cfg = RpcServerConfig {
        queue_cap: 128,
        idle_timeout: SimDuration::from_ms(5),
        // The pub-sub quota (8) sits under its clients' in-flight credit
        // (16), so a flood overruns admission — the shed path under test —
        // while the credit bound above keeps the *transport* pool safe.
        tenants: vec![
            TenantPolicy::new(TENANT_KV, 64, Priority::High),
            TenantPolicy::new(TENANT_PUBSUB, 8, Priority::Low),
            TenantPolicy::new(TENANT_PIPELINE, 32, Priority::Low),
        ],
    };

    // One multi-tenant server per service node: KV shard + pub-sub room
    // home + pipeline worker behind one admission queue.
    for (s, &node) in servers.iter().enumerate() {
        let (b, a, scfg) = (barrier.clone(), addrs.clone(), server_cfg.clone());
        cluster.spawn_process(node, "mixed-srv", move |ctx, env| {
            let port = env.open_port(ctx);
            a.borrow_mut()[s] = Some(port.addr());
            let mut srv = RpcServer::new(ctx, port, scfg).expect("server up");
            let m = ctx.sim().metrics();
            let mut kv = KvService::new(KvCosts::default());
            // A 16 KiB initial window (vs the 64 KiB default) makes the
            // per-room byte budget bind under the overload flood: fan-out
            // beyond it waits for subscriber credit instead of piling
            // onto the NIC send path, which is what keeps a noisy
            // tenant's pushes from head-of-line-blocking everyone else's
            // responses. Clean runs replay the throttled tail via ACK
            // credit and still deliver everything.
            let room_cfg = RoomCfg {
                init_window: 16 * 1024,
                ..RoomCfg::default()
            };
            let mut ps = PubSubService::new(&m, node, room_cfg, ps_costs);
            let mut pw = PipelineWorker::new(&m, 6 * 1024, PipelineCosts::default());
            b.wait(ctx);
            srv.serve_tenants_until_idle(ctx, &mut |ctx: &mut ActorCtx, req| match req.tenant.0 {
                TENANT_KV => RpcReply::inline(kv.handle(ctx, req.op_class, req.payload)),
                TENANT_PUBSUB => ps.handle(ctx, req),
                _ => pw.handle(ctx, req),
            });
        });
    }

    let client_nodes: Vec<u32> = (0..NODES).filter(|n| !servers.contains(n)).collect();
    assert_eq!(client_nodes.len(), N_KV + N_PUB + N_SUB + N_PIPE);
    let fetch_servers = move |a: &Rc<RefCell<Vec<Option<ProcAddr>>>>| -> Vec<ProcAddr> {
        a.borrow_mut()
            .iter()
            .map(|x| x.expect("server ready"))
            .collect()
    };

    // KV tenant: closed-loop users over all shards, high priority.
    for (c, &node) in client_nodes.iter().enumerate().take(N_KV) {
        let (b, a, t) = (barrier.clone(), addrs.clone(), tenant_totals.clone());
        let (users, ops) = (cfg.kv_users_per_client, cfg.kv_ops_per_user);
        cluster.spawn_process(node, "mixed-kv", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut cli =
                RpcClient::new(ctx, port, client_cfg(TENANT_KV, Priority::High)).expect("kv up");
            b.wait(ctx);
            let servers = fetch_servers(&a);
            let cfg = ClosedLoopCfg {
                users,
                ops_per_user: ops,
                think_min: SimDuration::from_ms(1),
                think_max: SimDuration::from_ms(3),
                mix: Mix::default(),
                user_base: c as u64 * u64::from(users),
            };
            let mut rng = ctx.sim().fork_rng(&format!("mixed.kv.c{c}"));
            let hists = LatencyHists::named(&ctx.sim().metrics(), "t0", suca_load::KV_CLASSES);
            let stats = run_closed_loop(ctx, &mut cli, &servers, &mut rng, &cfg, &hists);
            t.borrow_mut()[TENANT_KV as usize].merge(&stats);
        });
    }

    // Pub-sub tenant: one publisher per room (closed loop, or open-loop
    // flood under overload) plus two subscribers per room.
    let overload = cfg.overload_pubsub;
    let kv_only = cfg.kv_only;
    for p in 0..N_PUB {
        let node = client_nodes[N_KV + p];
        let (b, a, t) = (barrier.clone(), addrs.clone(), tenant_totals.clone());
        let events = cfg.pub_events;
        cluster.spawn_process(node, "mixed-pub", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut cli = RpcClient::new(ctx, port, client_cfg(TENANT_PUBSUB, Priority::Low))
                .expect("pub up");
            b.wait(ctx);
            if kv_only {
                return;
            }
            let servers = fetch_servers(&a);
            let room = p as u32 % N_ROOMS;
            let home = servers[room as usize % servers.len()];
            let mut rng = ctx.sim().fork_rng(&format!("mixed.pub.p{p}"));
            let hists = LatencyHists::named(&ctx.sim().metrics(), "t1", suca_pubsub::CLASS_NAMES);
            let stats = if overload {
                let fcfg = FloodCfg {
                    mean_interarrival: SimDuration::from_us(20),
                    duration: SimDuration::from_ms(3),
                    bytes: 512,
                };
                run_publisher_open(ctx, &mut cli, home, room, &mut rng, &fcfg, &hists)
            } else {
                let pcfg = PublisherCfg {
                    events,
                    bytes: 512,
                    think_min: SimDuration::from_us(50),
                    think_max: SimDuration::from_us(200),
                    eof: true,
                };
                run_publisher(ctx, &mut cli, home, room, &mut rng, &pcfg, &hists)
            };
            t.borrow_mut()[TENANT_PUBSUB as usize].merge(&stats);
        });
    }
    for su in 0..N_SUB {
        let node = client_nodes[N_KV + N_PUB + su];
        let (b, a, t, st) = (
            barrier.clone(),
            addrs.clone(),
            tenant_totals.clone(),
            sub_totals.clone(),
        );
        cluster.spawn_process(node, "mixed-sub", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut cli = RpcClient::new(ctx, port, client_cfg(TENANT_PUBSUB, Priority::Low))
                .expect("sub up");
            b.wait(ctx);
            if kv_only {
                return;
            }
            let servers = fetch_servers(&a);
            let room = su as u32 % N_ROOMS;
            let home = servers[room as usize % servers.len()];
            let scfg = SubscriberCfg {
                from: 0,
                ack_every: 4096,
                end_at: SimTime::from_ns(if overload { 12_000_000 } else { 30_000_000 }),
                eofs_expected: if overload { 0 } else { 1 },
            };
            let hists = LatencyHists::named(&ctx.sim().metrics(), "t1", suca_pubsub::CLASS_NAMES);
            let (stats, sub) = run_subscriber(ctx, &mut cli, home, room, &scfg, &hists);
            t.borrow_mut()[TENANT_PUBSUB as usize].merge(&stats);
            let mut s = st.borrow_mut();
            s.received += sub.received;
            s.bytes += sub.bytes;
            s.gaps += sub.gaps;
            s.eofs += sub.eofs;
            s.shed += u32::from(sub.shed);
        });
    }

    // Pipeline tenant: staged dataflow drivers over every worker node.
    for d in 0..N_PIPE {
        let node = client_nodes[N_KV + N_PUB + N_SUB + d];
        let (b, a, t, dt) = (
            barrier.clone(),
            addrs.clone(),
            tenant_totals.clone(),
            drv_totals.clone(),
        );
        let jobs = cfg.pipe_jobs;
        cluster.spawn_process(node, "mixed-pipe", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut cli = RpcClient::new(ctx, port, client_cfg(TENANT_PIPELINE, Priority::Low))
                .expect("pipe up");
            b.wait(ctx);
            if kv_only {
                return;
            }
            let servers = fetch_servers(&a);
            let dcfg = DriverCfg {
                jobs,
                ..DriverCfg::default()
            };
            let hists = LatencyHists::named(&ctx.sim().metrics(), "t2", suca_pipeline::CLASS_NAMES);
            let (stats, drv) = run_driver(ctx, &mut cli, &servers, &dcfg, &hists);
            t.borrow_mut()[TENANT_PIPELINE as usize].merge(&stats);
            let mut d = dt.borrow_mut();
            d.jobs_done += drv.jobs_done;
            d.execs_ok += drv.execs_ok;
            d.fetches_ok += drv.fetches_ok;
            d.verify_failures += drv.verify_failures;
        });
    }

    assert_eq!(
        sim.run(),
        RunOutcome::Completed,
        "mixed/{variant}/{fabric}: workload hung"
    );

    let tenant_stats = *tenant_totals.borrow();
    let mut total = LoadStats::default();
    for s in &tenant_stats {
        total.merge(s);
    }
    let users = N_KV as u64 * u64::from(cfg.kv_users_per_client) + (N_PUB + N_SUB + N_PIPE) as u64;
    let mut report = SloReport::gather(&cluster.sim, variant, fabric, NODES, users, &total);
    report.tenants = vec![
        TenantSlo::gather(
            &cluster.sim,
            "kv",
            TENANT_KV,
            "high",
            "t0",
            suca_load::KV_CLASSES,
            &tenant_stats[TENANT_KV as usize],
        ),
        TenantSlo::gather(
            &cluster.sim,
            "pubsub",
            TENANT_PUBSUB,
            "low",
            "t1",
            suca_pubsub::CLASS_NAMES,
            &tenant_stats[TENANT_PUBSUB as usize],
        ),
        TenantSlo::gather(
            &cluster.sim,
            "pipeline",
            TENANT_PIPELINE,
            "low",
            "t2",
            suca_pipeline::CLASS_NAMES,
            &tenant_stats[TENANT_PIPELINE as usize],
        ),
    ];
    let sub = *sub_totals.borrow();
    let drv = *drv_totals.borrow();
    MixedOutcome {
        cluster,
        report,
        tenant_stats,
        sub,
        drv,
    }
}

/// Invariants every variant must satisfy, asserted uniformly so the
/// harness and the e2e test can't drift: per-tenant accounting identity,
/// gap-free subscriber prefixes, verified pipeline outputs, and — no
/// variant injects loss — nothing resent.
pub fn assert_base_invariants(tag: &str, out: &MixedOutcome) {
    Recovery::of(&out.cluster.sim).assert_none(tag);
    for t in &out.report.tenants {
        assert!(
            t.accounted(),
            "{tag}: tenant {} leaked requests ({} issued, {} completed, {} shed, {} timed out)",
            t.tenant,
            t.issued,
            t.completed,
            t.shed,
            t.timed_out
        );
    }
    assert_eq!(out.sub.gaps, 0, "{tag}: subscriber observed a sequence gap");
    assert_eq!(
        out.drv.verify_failures, 0,
        "{tag}: pipeline output verification failed"
    );
    assert_eq!(
        out.report.watchdog_stalls, 0,
        "{tag}: watchdog fired during a mixed run"
    );
}

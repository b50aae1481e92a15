//! Chaos harness: the sharded KV service of `rpc_slo` running on a
//! 32-node **dual-rail** cluster (Myrinet primary + nwrc mesh secondary)
//! while a scripted fault storm tears at rail 0 mid-run — a link flap, a
//! permanent switch-port death, a NIC reset that wipes MCP SRAM, and a
//! whole-node crash/restart.
//!
//! Two variants at the same fixed seed:
//!
//! * **chaos_clean** — the dual-rail cluster with no faults: the SLO
//!   baseline the storm is compared against.
//! * **chaos_storm** — the same workload under the storm. Recovery must go
//!   through the full machinery (silence → path death →
//!   rail failover → epoch resync), and at the end the books must balance:
//!   `completed + shed + timed_out == issued`, no chain stuck (the armed
//!   stall watchdog stays silent), and both the SLO and chaos reports are
//!   byte-identical across a rerun at the same seed.
//!
//! Reports land in `target/chaos/`: `slo_{variant}.json` plus the chaos
//! report `chaos_storm.json` (fault + recovery counters, recovery-latency
//! percentiles).

use suca_bench::kv_cluster::{self, interleave_servers};
use suca_bench::report::{emit_metrics, Recovery};
use suca_chaos::{ChaosController, ChaosPlan, ChaosReport, Fault};
use suca_cluster::{Cluster, ClusterSpec, SanKind};
use suca_load::{run_closed_loop, ClosedLoopCfg, KvCosts, LatencyHists, LoadStats, Mix, SloReport};
use suca_mesh::MeshConfig;
use suca_rpc::{RpcClientConfig, RpcServerConfig};
use suca_sim::artifact::write_artifact;
use suca_sim::{DetectionSpec, HealthRule, SimDuration, SimTime, TelemetryConfig, WatchdogConfig};

const SEED: u64 = 0xC4A05;
const NODES: u32 = 32;
const N_SERVERS: u32 = 8;
const USERS_PER_CLIENT: u32 = 8;
const OPS_PER_USER: u32 = 4;

/// Sampler tick for this harness (coarser than the default: a 25 ms
/// dual-rail storm run at 10 µs would be all sampling).
const TICK: SimDuration = SimDuration::from_us(100);

/// How long the sampler must keep ticking so every storm alert has quiet
/// time to resolve (rate windows + clear streaks) after the last client
/// finishes (~8 ms).
const KEEPALIVE_NS: u64 = 25_000_000;

/// One rate rule per fault symptom counter: a single increment inside a
/// 10-tick (1 ms) window is a breach, firing on the first breached tick so
/// detection latency is dominated by the symptom reaching a counter, not
/// by alert damping. 20 healthy ticks (2 ms) after the window drains the
/// last increment, the alert resolves.
fn health_rules() -> Vec<HealthRule> {
    let sym =
        |name: &str, counter: &str| HealthRule::rate(name, counter, 10, 1).with_lifecycle(1, 20);
    vec![
        sym("link.down", "link.down_drops"),
        sym("switch.dead_port", "switch.dead_port_drop"),
        sym("mcp.nic_reset", "mcp.nic_resets"),
        sym("mcp.node_down", "mcp.node_down_drops"),
        sym("mcp.path_death", "mcp.path_deaths"),
        sym("mcp.protocol_error", "mcp.protocol_errors"),
    ]
}

/// The measurement contract for the storm: each injected fault kind must
/// be detected by *its* symptom rule within 1.5 ms of injection. Times
/// mirror [`storm`].
fn storm_detections() -> Vec<DetectionSpec> {
    let spec = |kind: &str, injected_ns: u64, rule: &str| DetectionSpec {
        kind: kind.into(),
        injected_ns,
        rules: vec![rule.into()],
        bound_ns: 1_500_000,
    };
    vec![
        spec("link_flap", 1_000_000, "link.down"),
        spec("switch_port_death", 1_500_000, "switch.dead_port"),
        spec("nic_reset", 2_000_000, "mcp.nic_reset"),
        spec("node_crash", 2_500_000, "mcp.node_down"),
    ]
}

/// 32 nodes, Myrinet rail 0 + mesh rail 1, path-death detection armed, and
/// the stall watchdog running with a budget far above recovery latency so
/// a stuck chain — not a slow one — is what trips it.
fn dual_rail_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::dawning3000(NODES)
        .with_seed(SEED)
        .with_second_san(SanKind::Mesh(MeshConfig::dawning3000()))
        .with_health(health_rules())
        .with_telemetry(TelemetryConfig {
            sample_period: TICK,
            watchdog: WatchdogConfig {
                chain_budget_ns: 5_000_000, // 5 ms >> path-death + resync
                ..WatchdogConfig::default()
            },
        });
    spec.bcl.reliability.max_path_timeouts = 3;
    spec
}

/// The scripted storm. The rail faults aim at client nodes (what is under
/// test there is the *path* recovery machinery); the node crash aims at a
/// shard, because a crashed node is only detectable through traffic it
/// fails to absorb — an idle client dies silently, a shard the whole
/// cluster keeps talking to shows up as counted `mcp.node_down_drops`
/// within microseconds. Every fault kind from the taxonomy appears once.
fn storm() -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    // t=1 ms: node 5's rail-0 cable flaps for 2 ms.
    plan.push(
        SimTime::from_ns(1_000_000),
        Fault::LinkFlap {
            rail: 0,
            node: 5,
            down_for: SimDuration::from_ms(2),
        },
    );
    // t=1.5 ms: the rail-0 switch port feeding node 9 dies permanently
    // (Myrinet: 6 hosts per switch, so node 9 is switch 1, port 3).
    plan.push(
        SimTime::from_ns(1_500_000),
        Fault::SwitchPortDeath {
            rail: 0,
            switch: 1,
            port: 3,
        },
    );
    // t=2 ms: node 13's NIC resets, wiping its MCP SRAM.
    plan.push(SimTime::from_ns(2_000_000), Fault::NicReset { node: 13 });
    // t=2.5 ms: shard node 20 crashes whole, restarting 1 ms later.
    // Recovery must ride the full chain: peers' probes go unanswered,
    // declare the path dead, fail over to rail 1 (also dead — the *node*
    // is down), and resync epochs once the restart brings it back.
    plan.push(
        SimTime::from_ns(2_500_000),
        Fault::NodeCrash {
            node: 20,
            down_for: SimDuration::from_ms(1),
        },
    );
    plan
}

/// Shards + closed-loop clients on the dual-rail cluster, with an optional
/// fault storm installed before the first actor runs.
fn run_kv(plan: Option<&ChaosPlan>) -> (Cluster, LoadStats) {
    let server_cfg = RpcServerConfig {
        queue_cap: 1024,
        idle_timeout: SimDuration::from_ms(5),
        ..RpcServerConfig::default()
    };
    // The client timeout must comfortably cover a full recovery
    // (3 x 300 us of silence to path death + resync), so storm-time
    // requests ride through failover instead of burning attempts.
    let client_cfg = RpcClientConfig {
        timeout: SimDuration::from_ms(5),
        max_attempts: 3,
        backoff: SimDuration::from_us(200),
        arena_slots: USERS_PER_CLIENT,
        slot_bytes: suca_load::SCAN_BYTES as u64,
        ..RpcClientConfig::default()
    };
    kv_cluster::run(
        dual_rail_spec(),
        &interleave_servers(NODES, N_SERVERS),
        server_cfg,
        client_cfg,
        KvCosts::default(),
        |cluster| {
            // The sampler stops once the event queue drains, so park a no-op
            // far enough out that every alert the storm raises has quiet
            // ticks to resolve. Scheduled in both variants so clean and
            // storm runs see the same tick count.
            cluster
                .sim
                .schedule_at(SimTime::from_ns(KEEPALIVE_NS), |_| {});
            if let Some(plan) = plan {
                ChaosController::install(cluster, plan);
            }
        },
        |ctx, cli, servers, c| {
            // Think 0.5-1.5 ms x 4 ops keeps every client live through the
            // whole storm window (1-3.5 ms).
            let cfg = ClosedLoopCfg {
                users: USERS_PER_CLIENT,
                ops_per_user: OPS_PER_USER,
                think_min: SimDuration::from_us(500),
                think_max: SimDuration::from_us(1_500),
                mix: Mix::default(),
                user_base: u64::from(c) * u64::from(USERS_PER_CLIENT),
            };
            let mut rng = ctx.sim().fork_rng(&format!("load.chaos.client{c}"));
            let hists = LatencyHists::new(&ctx.sim().metrics());
            run_closed_loop(ctx, cli, servers, &mut rng, &cfg, &hists)
        },
    )
}

fn gather_slo(cluster: &Cluster, stats: &LoadStats, variant: &str) -> SloReport {
    let users = u64::from(NODES - N_SERVERS) * u64::from(USERS_PER_CLIENT);
    let report = SloReport::gather(&cluster.sim, variant, "dual", NODES, users, stats);
    // The accounting identity is the core chaos invariant: every issued
    // request resolves exactly one way, faults or not.
    assert!(report.accounted(), "{variant}: requests leaked");
    assert_eq!(report.watchdog_stalls, 0, "{variant}: a chain stuck");
    assert_eq!(stats.bad_payloads, 0, "{variant}: payload corruption");
    report
}

fn main() {
    println!("-- chaos_slo: 32-node dual-rail KV service under a fault storm\n");

    // Baseline: same cluster, same seed, no faults.
    let (clean_cluster, clean_stats) = run_kv(None);
    let clean = gather_slo(&clean_cluster, &clean_stats, "chaos_clean");
    assert_eq!(
        clean.completed, clean.issued,
        "chaos_clean: every request must complete without faults"
    );
    assert_eq!(
        clean_cluster.sim.get_count("chaos.faults"),
        0,
        "chaos_clean: no fault may be injected in the baseline"
    );
    // Nothing fails, so nothing may look dead or be resent: path death
    // counts silence, and a timer expiry only probes.
    assert_eq!(
        clean_cluster.sim.get_count("mcp.path_deaths"),
        0,
        "chaos_clean: a path was declared dead with no fault injected"
    );
    Recovery::of(&clean_cluster.sim).assert_none("chaos_clean");
    assert!(
        clean_cluster.sim.health().is_silent(),
        "chaos_clean: health engine fired with no faults injected: {:?}",
        clean_cluster.sim.health().alerts()
    );
    clean_cluster
        .sim
        .health()
        .report("chaos_slo", "chaos_clean", SEED, &[])
        .write_named("chaos_slo_clean")
        .expect("write clean health report");
    // The SLO reports land next to the chaos report, not under `slo`.
    write_artifact("chaos", "slo_chaos_clean", &clean.to_json()).expect("write SLO report");
    emit_metrics(&clean_cluster.sim, "chaos_slo_clean");

    // The storm.
    let plan = storm();
    let (flaps, ports, resets, crashes) = plan.kind_counts();
    assert!(
        flaps >= 1 && ports >= 1 && resets >= 1 && crashes >= 1,
        "storm must cover the whole fault taxonomy"
    );
    let (storm_cluster, storm_stats) = run_kv(Some(&plan));
    let slo = gather_slo(&storm_cluster, &storm_stats, "chaos_storm");
    // Every destination survives the storm (the crashed shard restarts), so
    // recovery must carry every request through: none may end as a
    // `DeadDestination`.
    assert_eq!(
        (slo.completed, slo.dead_dests),
        (slo.issued, 0),
        "chaos_storm: every request must complete through the storm"
    );
    let report = ChaosReport::gather(&storm_cluster.sim, "chaos_storm", SEED);
    assert_eq!(
        report.injected as usize,
        plan.events.len(),
        "every scheduled fault must inject (none skipped)"
    );
    assert_eq!(report.skipped, 0, "no fault may target missing hardware");
    assert!(
        report.link_down >= 1
            && report.port_dead >= 1
            && report.nic_resets >= 1
            && report.node_crashes >= 1,
        "a fault kind was scheduled but never counted as injected: {report:?}"
    );
    assert!(
        report.path_deaths >= 1,
        "the storm must trip path death by silence"
    );
    assert!(
        report.rail_failovers >= 1,
        "dual-rail nodes must fail over to rail 1"
    );
    assert!(
        report.epoch_resyncs >= 1,
        "recovery must complete an epoch resync handshake"
    );
    assert_eq!(report.node_restarts, 1, "the crashed node must restart");
    assert!(
        report.recovery_p99_us > 0.0,
        "resyncs completed but no recovery latency was recorded"
    );

    // Detection contract: every injected fault kind must be picked up by
    // its symptom rule within the bound, and every alert the storm raised
    // must resolve once recovery completes.
    let health =
        storm_cluster
            .sim
            .health()
            .report("chaos_slo", "chaos_storm", SEED, &storm_detections());
    assert!(
        health.alerts.len() >= plan.events.len(),
        "chaos_storm: {} faults raised only {} alerts",
        plan.events.len(),
        health.alerts.len()
    );
    let missed: Vec<&str> = health
        .undetected()
        .iter()
        .map(|d| d.kind.as_str())
        .collect();
    assert!(
        missed.is_empty(),
        "chaos_storm: fault kinds not detected within bound: {missed:?}"
    );
    assert_eq!(
        health.unresolved(),
        0,
        "chaos_storm: alerts still firing after recovery: {:?}",
        storm_cluster.sim.health().alerts()
    );

    // Determinism: the same seed reproduces all three reports byte-for-byte.
    let (rerun_cluster, rerun_stats) = run_kv(Some(&plan));
    let slo_rerun = gather_slo(&rerun_cluster, &rerun_stats, "chaos_storm");
    let report_rerun = ChaosReport::gather(&rerun_cluster.sim, "chaos_storm", SEED);
    assert_eq!(
        slo.to_json(),
        slo_rerun.to_json(),
        "chaos_storm: SLO report not deterministic at fixed seed"
    );
    assert_eq!(
        report.to_json(),
        report_rerun.to_json(),
        "chaos_storm: chaos report not deterministic at fixed seed"
    );
    let health_rerun =
        rerun_cluster
            .sim
            .health()
            .report("chaos_slo", "chaos_storm", SEED, &storm_detections());
    assert_eq!(
        health.to_json(),
        health_rerun.to_json(),
        "chaos_storm: health report not deterministic at fixed seed"
    );

    write_artifact("chaos", "slo_chaos_storm", &slo.to_json()).expect("write SLO report");
    report
        .write_named("chaos_storm")
        .expect("write chaos report");
    health
        .write_named("chaos_slo_storm")
        .expect("write storm health report");
    emit_metrics(&storm_cluster.sim, "chaos_slo_storm");

    println!("variant      issued completed  shed t/out dead_dest  goodput/s");
    for r in [&clean, &slo] {
        println!(
            "{:<12} {:>6} {:>9} {:>5} {:>5} {:>9} {:>10.0}",
            r.variant,
            r.issued,
            r.completed,
            r.shed,
            r.timed_out,
            r.dead_dests,
            r.goodput_ops_per_s
        );
    }
    for r in [&clean, &slo] {
        for c in &r.classes {
            println!(
                "  {}/{:<5} p50 {:>8.1} us  p95 {:>8.1} us  p99 {:>8.1} us  p99.9 {:>8.1} us",
                r.variant, c.name, c.p50_us, c.p95_us, c.p99_us, c.p999_us
            );
        }
    }
    println!(
        "\nfaults: {} injected ({} flap, {} port, {} reset, {} crash) | \
         path_deaths {} | failovers {} | resyncs {} | stale drops {}",
        report.injected,
        report.link_down,
        report.port_dead,
        report.nic_resets,
        report.node_crashes,
        report.path_deaths,
        report.rail_failovers,
        report.epoch_resyncs,
        report.stale_epoch_drops,
    );
    println!(
        "recovery latency: p50 {:.1} us  p99 {:.1} us  max {:.1} us",
        report.recovery_p50_us, report.recovery_p99_us, report.recovery_max_us
    );
    println!(
        "\nfault detection (health engine, {} alerts fired):",
        health.alerts.len()
    );
    println!("kind               detected-by           detect    clear");
    for d in &health.detections {
        let by = d
            .detected_by
            .as_ref()
            .map(|(r, _)| r.as_str())
            .unwrap_or("-");
        let fmt = |ns: Option<u64>| match ns {
            Some(ns) => format!("{:.1} us", ns as f64 / 1_000.0),
            None => "-".into(),
        };
        println!(
            "{:<18} {:<20} {:>8} {:>8}",
            d.kind,
            by,
            fmt(d.detect_ns()),
            fmt(d.clear_ns())
        );
    }
    println!(
        "\nchaos_slo OK: accounted under storm, watchdog silent, all fault kinds detected \
         within bound, all alerts resolved, reports deterministic"
    );
}

//! End-to-end rerun determinism.
//!
//! Dispatch follows the strict `(time, seq)` order and every random
//! decision derives from the seed, so every report a harness emits must be
//! byte-identical when the same run is repeated.
//! These tests pin that contract through the full stack — RPC framing,
//! go-back-N, MCP firmware rings, fabric links/switches, chaos recovery —
//! by comparing the SLO/chaos reports plus the metrics and telemetry
//! snapshots byte-for-byte.

use suca_bench::kv_cluster;
use suca_chaos::{ChaosController, ChaosPlan, ChaosReport, Fault};
use suca_cluster::{ClusterSpec, SanKind};
use suca_load::{run_closed_loop, ClosedLoopCfg, KvCosts, LatencyHists, Mix, SloReport};
use suca_mesh::MeshConfig;
use suca_rpc::{RpcClientConfig, RpcServerConfig};
use suca_sim::{SimDuration, SimTime};

const SEED: u64 = 0x5AADED;

/// Byte artifacts of one run: SLO report, metrics snapshot, telemetry
/// timeseries, and (for storm runs) the chaos report.
struct RunBytes {
    slo: String,
    metrics: String,
    timeseries: String,
    chaos: Option<String>,
}

/// Spawn the small KV workload (the `rpc_slo`/`chaos_slo` scaffolding at
/// toy scale) on `spec`, optionally under a fault plan, and collect every
/// JSON artifact the harnesses would emit.
fn run_kv(spec: ClusterSpec, users_per_client: u32, plan: Option<&ChaosPlan>) -> RunBytes {
    let nodes = spec.nodes;
    let server_nodes = [0, nodes / 2];
    let n_servers = server_nodes.len() as u32;
    let server_cfg = RpcServerConfig {
        queue_cap: 256,
        idle_timeout: SimDuration::from_ms(5),
        ..RpcServerConfig::default()
    };
    let client_cfg = RpcClientConfig {
        timeout: SimDuration::from_ms(5),
        max_attempts: 3,
        backoff: SimDuration::from_us(200),
        arena_slots: users_per_client,
        slot_bytes: suca_load::SCAN_BYTES as u64,
        ..RpcClientConfig::default()
    };
    let (cluster, stats) = kv_cluster::run(
        spec,
        &server_nodes,
        server_cfg,
        client_cfg,
        KvCosts::default(),
        |cluster| {
            if let Some(plan) = plan {
                ChaosController::install(cluster, plan);
            }
        },
        move |ctx, cli, servers, c| {
            // Think 0.5–1.5 ms keeps clients live through the storm window.
            let cfg = ClosedLoopCfg {
                users: users_per_client,
                ops_per_user: 2,
                think_min: SimDuration::from_us(500),
                think_max: SimDuration::from_us(1_500),
                mix: Mix::default(),
                user_base: u64::from(c) * u64::from(users_per_client),
            };
            let mut rng = ctx.sim().fork_rng(&format!("load.shard_det.client{c}"));
            let hists = LatencyHists::new(&ctx.sim().metrics());
            run_closed_loop(ctx, cli, servers, &mut rng, &cfg, &hists)
        },
    );
    let users = u64::from(nodes - n_servers) * u64::from(users_per_client);
    let slo = SloReport::gather(&cluster.sim, "shard_det", "any", nodes, users, &stats);
    assert!(slo.accounted(), "requests leaked");
    RunBytes {
        slo: slo.to_json(),
        metrics: cluster.metrics_snapshot().to_json(),
        timeseries: cluster.sim.timeseries().snapshot().to_json(),
        chaos: plan.map(|_| ChaosReport::gather(&cluster.sim, "shard_det", SEED).to_json()),
    }
}

fn assert_bytes_equal(reference: &RunBytes, got: &RunBytes, what: &str) {
    assert_eq!(reference.slo, got.slo, "{what}: SLO report diverged");
    assert_eq!(reference.metrics, got.metrics, "{what}: metrics diverged");
    assert_eq!(
        reference.timeseries, got.timeseries,
        "{what}: timeseries diverged"
    );
    assert_eq!(reference.chaos, got.chaos, "{what}: chaos report diverged");
}

/// Clean single-rail run, twice: all four artifacts equal.
#[test]
fn rpc_slo_reports_identical_across_reruns() {
    let spec = || ClusterSpec::dawning3000(8).with_seed(SEED);
    let reference = run_kv(spec(), 4, None);
    assert!(reference.slo.contains("\"issued\""));
    assert_bytes_equal(&reference, &run_kv(spec(), 4, None), "clean rerun");
}

/// Dual-rail storm run, twice: fault injection, retransmission, failover
/// and resync paths must also repeat byte for byte.
#[test]
fn chaos_slo_reports_identical_across_reruns() {
    let spec = || {
        let mut spec = ClusterSpec::dawning3000(16)
            .with_seed(SEED)
            .with_second_san(SanKind::Mesh(MeshConfig::dawning3000()));
        spec.bcl.reliability.max_path_timeouts = 3;
        spec
    };
    let mut plan = ChaosPlan::new();
    plan.push(
        SimTime::from_ns(1_000_000),
        Fault::LinkFlap {
            rail: 0,
            node: 5,
            down_for: SimDuration::from_ms(2),
        },
    );
    plan.push(SimTime::from_ns(2_000_000), Fault::NicReset { node: 13 });
    let reference = run_kv(spec(), 2, Some(&plan));
    let chaos = reference.chaos.as_deref().expect("chaos report gathered");
    assert!(chaos.contains("\"injected\""));
    assert_bytes_equal(&reference, &run_kv(spec(), 2, Some(&plan)), "storm rerun");
}

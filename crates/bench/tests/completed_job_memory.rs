//! The NIC's completed-job memory stays small under RPC load. Almost every
//! job a KV run completes is a system-channel RPC message or an RMA
//! operation: the first can only be refused fatally, so the NIC keeps a
//! one-word record of it, and the second is never refused, so it keeps
//! nothing. Only normal-channel messages are kept whole.

use suca_bench::kv_cluster;
use suca_cluster::ClusterSpec;
use suca_load::{run_closed_loop, ClosedLoopCfg, KvCosts, LatencyHists, Mix};
use suca_rpc::{RpcClientConfig, RpcServerConfig};
use suca_sim::SimDuration;

const NODES: u32 = 32;
const USERS_PER_CLIENT: u32 = 4;
/// Enough that every server NIC remembers its full 256 jobs.
const OPS_PER_USER: u32 = 12;

#[test]
fn a_kv_load_leaves_each_nic_at_most_8_kib_of_completed_jobs() {
    let spec = ClusterSpec::dawning3000(NODES).with_trace_sampling(0);
    let server_nodes = kv_cluster::interleave_servers(NODES, 4);
    let client_cfg = RpcClientConfig {
        arena_slots: USERS_PER_CLIENT,
        slot_bytes: suca_load::SCAN_BYTES as u64,
        ..RpcClientConfig::default()
    };
    let server_cfg = RpcServerConfig {
        idle_timeout: SimDuration::from_ms(2),
        ..RpcServerConfig::default()
    };
    let (cluster, stats) = kv_cluster::run(
        spec,
        &server_nodes,
        server_cfg,
        client_cfg,
        KvCosts::default(),
        |_| {},
        |ctx, cli, servers, c| {
            let cfg = ClosedLoopCfg {
                users: USERS_PER_CLIENT,
                ops_per_user: OPS_PER_USER,
                think_min: SimDuration::from_us(10),
                think_max: SimDuration::from_us(50),
                mix: Mix::default(),
                user_base: u64::from(c) * u64::from(USERS_PER_CLIENT),
            };
            let mut rng = ctx.sim().fork_rng(&format!("completed_memory.client{c}"));
            let hists = LatencyHists::new(&ctx.sim().metrics());
            run_closed_loop(ctx, cli, servers, &mut rng, &cfg, &hists)
        },
    );
    let clients = u64::from(NODES - server_nodes.len() as u32);
    assert_eq!(
        stats.completed,
        clients * u64::from(USERS_PER_CLIENT * OPS_PER_USER)
    );
    let bytes: Vec<usize> = cluster
        .nodes
        .iter()
        .map(|n| n.bcl.mcp.completed_memory_bytes())
        .collect();
    assert!(
        bytes.iter().all(|&b| b > 0),
        "a NIC remembered nothing: {bytes:?}"
    );
    assert!(bytes.iter().all(|&b| b <= 8 << 10), "per NIC: {bytes:?}");
}

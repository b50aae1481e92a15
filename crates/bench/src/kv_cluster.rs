//! The sharded-KV cluster scaffold shared by `rpc_slo`, `chaos_slo` and the
//! rerun-determinism tests: KV shards on the server nodes, one load client
//! on every other node, a barrier between setup and traffic, and the
//! clients' tallies merged into one [`LoadStats`].

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ProcAddr;
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_load::{KvCosts, KvService, LoadStats};
use suca_rpc::{RpcClient, RpcClientConfig, RpcServer, RpcServerConfig};
use suca_sim::{ActorCtx, RunOutcome};

/// Spread `n_servers` shard nodes evenly across `[0, nodes)`. Both SAN
/// models reward locality (Myrinet is a linear switch array; the mesh is
/// a grid), so clumping every server at one end funnels the whole
/// cluster's traffic through one bisection trunk — interleaving spreads
/// it over every segment.
pub fn interleave_servers(nodes: u32, n_servers: u32) -> Vec<u32> {
    (0..n_servers).map(|s| s * nodes / n_servers).collect()
}

/// Build `spec`, spawn one KV shard per `server_nodes` entry and one client
/// actor per remaining node, and run to completion. All actors are
/// barrier-synced so no server's idle clock starts before every client's
/// arena is pinned. `before_run` sees the built cluster before any actor
/// exists (fault plans, keep-alive events); `drive` is one client's whole
/// workload, given the shard addresses and the client's index.
pub fn run(
    spec: ClusterSpec,
    server_nodes: &[u32],
    server_cfg: RpcServerConfig,
    client_cfg: RpcClientConfig,
    costs: KvCosts,
    before_run: impl FnOnce(&Cluster),
    drive: impl Fn(&mut ActorCtx, &mut RpcClient, &[ProcAddr], u32) -> LoadStats + 'static,
) -> (Cluster, LoadStats) {
    let nodes = spec.nodes;
    let n_servers = server_nodes.len() as u32;
    assert!(n_servers < nodes);
    let cluster = spec.build();
    before_run(&cluster);
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, nodes);
    let addrs: Rc<RefCell<Vec<Option<ProcAddr>>>> =
        Rc::new(RefCell::new(vec![None; n_servers as usize]));
    let totals: Rc<RefCell<LoadStats>> = Rc::new(RefCell::new(LoadStats::default()));
    for (s, &node) in server_nodes.iter().enumerate() {
        let (b, a, scfg) = (barrier.clone(), addrs.clone(), server_cfg.clone());
        cluster.spawn_process(node, "kv-shard", move |ctx, env| {
            let port = env.open_port(ctx);
            a.borrow_mut()[s] = Some(port.addr());
            let mut srv = RpcServer::new(ctx, port, scfg).expect("shard up");
            let mut svc = KvService::new(costs);
            b.wait(ctx);
            srv.serve_until_idle(ctx, &mut |ctx: &mut ActorCtx, op: u8, req: &[u8]| {
                svc.handle(ctx, op, req)
            });
        });
    }
    let drive = Rc::new(drive);
    let client_nodes: Vec<u32> = (0..nodes).filter(|n| !server_nodes.contains(n)).collect();
    for (c, &node) in client_nodes.iter().enumerate() {
        let (b, a, t) = (barrier.clone(), addrs.clone(), totals.clone());
        let (ccfg, drive) = (client_cfg.clone(), drive.clone());
        let c = c as u32;
        cluster.spawn_process(node, "load-client", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut cli = RpcClient::new(ctx, port, ccfg).expect("client up");
            b.wait(ctx);
            let servers: Vec<ProcAddr> = a
                .borrow_mut()
                .iter()
                .map(|x| x.expect("shard ready"))
                .collect();
            let stats = drive(ctx, &mut cli, &servers, c);
            t.borrow_mut().merge(&stats);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "KV workload hung");
    let stats = *totals.borrow();
    (cluster, stats)
}

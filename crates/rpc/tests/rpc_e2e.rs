//! End-to-end RPC protocol tests over a real two-node BCL cluster:
//! request/response matching, out-of-order completion, admission-control
//! shedding, silent-discard timeouts, and RMA-delivered large responses.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ProcAddr;
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_rpc::{RpcClient, RpcClientConfig, RpcServer, RpcServerConfig, RpcStatus};
use suca_sim::mtrace::{check_completeness, stage, ChainPolicy};
use suca_sim::{ActorCtx, RunOutcome, SimDuration};

/// Spawn a server on node 1 (serving until idle with `handler`) and a
/// client body on node 0, barrier-synced, and run to completion.
///
/// The client (arena bind = pinning megabytes, ~ms of virtual time) is
/// constructed *before* the barrier so the server's idle clock only
/// starts once the client is ready to issue.
fn rpc_pair(
    server_cfg: RpcServerConfig,
    client_cfg: RpcClientConfig,
    handler: impl FnMut(&mut ActorCtx, u8, &[u8]) -> Vec<u8> + 'static,
    client: impl FnOnce(&mut ActorCtx, &mut RpcClient, ProcAddr) + 'static,
) -> Cluster {
    let cluster = ClusterSpec::dawning3000(2).with_seed(42).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let (b2, a2) = (barrier.clone(), addr.clone());
    let mut handler = handler;
    cluster.spawn_process(1, "server", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        let mut srv = RpcServer::new(ctx, port, server_cfg).expect("server up");
        b2.wait(ctx);
        srv.serve_until_idle(ctx, &mut handler);
    });
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        let mut cli = RpcClient::new(ctx, port, client_cfg).expect("client up");
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("server ready");
        client(ctx, &mut cli, dst);
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "rpc workload hung");
    cluster
}

fn echo_upper(_ctx: &mut ActorCtx, op: u8, req: &[u8]) -> Vec<u8> {
    let mut out = req.to_vec();
    out.push(op);
    out
}

#[test]
fn basic_call_roundtrips_and_chains_close() {
    let cluster = rpc_pair(
        RpcServerConfig::default(),
        RpcClientConfig::default(),
        echo_upper,
        |ctx, cli, dst| {
            let c = cli.call(ctx, dst, 7, b"hello").expect("call");
            assert_eq!(c.status, RpcStatus::Ok);
            assert_eq!(c.attempts, 1);
            assert_eq!(c.payload, b"hello\x07");
            cli.quiesce(ctx, SimDuration::from_us(200));
        },
    );
    assert_eq!(cluster.sim.get_count("rpc.cli_completed"), 1);
    assert_eq!(cluster.sim.get_count("rpc.srv_served"), 1);
    assert_eq!(cluster.sim.get_count("rpc.srv_sheds"), 0);
    let events = cluster.trace_events();
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(report.is_closed(), "violations: {:?}", report.violations);
    // The request chain carries both service-layer spans.
    for s in [stage::RPC_CALL, stage::RPC_SERVE] {
        assert!(
            events.iter().any(|e| e.stage.as_ref() == s),
            "missing {s} span"
        );
    }
}

#[test]
fn out_of_order_responses_match_by_request_id() {
    // One client multiplexes two servers: the first request goes to a
    // slow shard, the second to a fast one. The second response arrives
    // first and must resolve the second request id / token.
    let cluster = ClusterSpec::dawning3000(3).with_seed(42).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 3);
    let addrs: Rc<RefCell<Vec<Option<ProcAddr>>>> = Rc::new(RefCell::new(vec![None, None]));
    for (slot, delay_us) in [(0usize, 400u64), (1, 0)] {
        let (b, a) = (barrier.clone(), addrs.clone());
        cluster.spawn_process(1 + slot as u32, "server", move |ctx, env| {
            let port = env.open_port(ctx);
            a.borrow_mut()[slot] = Some(port.addr());
            let mut srv = RpcServer::new(ctx, port, RpcServerConfig::default()).expect("server up");
            b.wait(ctx);
            srv.serve_until_idle(ctx, &mut |ctx: &mut ActorCtx, op: u8, req: &[u8]| {
                ctx.sleep(SimDuration::from_us(delay_us));
                let mut out = req.to_vec();
                out.push(op);
                out
            });
        });
    }
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        let mut cli = RpcClient::new(ctx, port, RpcClientConfig::default()).expect("client up");
        barrier.wait(ctx);
        let dsts: Vec<ProcAddr> = addrs
            .borrow_mut()
            .iter()
            .map(|a| a.expect("server ready"))
            .collect();
        cli.issue(ctx, dsts[0], 0, b"slow", 100)
            .expect("issue slow");
        cli.issue(ctx, dsts[1], 1, b"fast", 200)
            .expect("issue fast");
        let mut done = Vec::new();
        while done.len() < 2 {
            for c in cli.pump(ctx, SimDuration::from_us(500)) {
                assert_eq!(c.status, RpcStatus::Ok);
                done.push((c.token, c.payload.clone()));
            }
        }
        assert_eq!(done[0].0, 200, "fast shard's op must complete first");
        assert_eq!(done[0].1, b"fast\x01");
        assert_eq!(done[1].0, 100);
        assert_eq!(done[1].1, b"slow\x00");
        cli.quiesce(ctx, SimDuration::from_us(200));
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "rpc workload hung");
    assert_eq!(cluster.sim.get_count("rpc.cli_completed"), 2);
}

#[test]
fn zero_capacity_queue_sheds_until_retries_exhaust() {
    let cfg = RpcServerConfig {
        queue_cap: 0,
        idle_timeout: SimDuration::from_ms(5),
        ..RpcServerConfig::default()
    };
    let ccfg = RpcClientConfig {
        timeout: SimDuration::from_ms(2),
        max_attempts: 3,
        backoff: SimDuration::from_us(100),
        ..RpcClientConfig::default()
    };
    let cluster = rpc_pair(cfg, ccfg, echo_upper, |ctx, cli, dst| {
        let c = cli.call(ctx, dst, 0, b"nope").expect("call");
        assert_eq!(c.status, RpcStatus::Shed);
        assert_eq!(c.attempts, 3, "shed only after exhausting retries");
        assert!(c.payload.is_empty());
        cli.quiesce(ctx, SimDuration::from_us(200));
    });
    assert_eq!(cluster.sim.get_count("rpc.srv_sheds"), 3);
    assert_eq!(cluster.sim.get_count("rpc.cli_shed"), 1);
    assert_eq!(cluster.sim.get_count("rpc.cli_retries"), 2);
    assert_eq!(cluster.sim.get_count("rpc.srv_served"), 0);
    assert!(
        cluster
            .trace_events()
            .iter()
            .any(|e| e.stage.as_ref() == stage::RPC_SHED),
        "shed must be visible on the request trace chain"
    );
}

#[test]
fn unresponsive_server_times_out_after_retries() {
    // The "server" opens a port but never polls: requests land in its
    // system pool and no response ever comes — the deadline is the only
    // thing that resolves the request.
    let cluster = ClusterSpec::dawning3000(2).with_seed(43).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let (b2, a2) = (barrier.clone(), addr.clone());
    cluster.spawn_process(1, "mute", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Outlive the client's retries, then drop without ever polling.
        ctx.sleep(SimDuration::from_ms(10));
    });
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        let ccfg = RpcClientConfig {
            timeout: SimDuration::from_us(500),
            max_attempts: 3,
            ..RpcClientConfig::default()
        };
        let mut cli = RpcClient::new(ctx, port, ccfg).expect("client");
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("mute ready");
        let c = cli.call(ctx, dst, 0, b"anyone?").expect("call");
        assert_eq!(c.status, RpcStatus::TimedOut);
        assert_eq!(c.attempts, 3);
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "timeout workload hung");
    assert_eq!(cluster.sim.get_count("rpc.cli_timeout"), 1);
    assert_eq!(cluster.sim.get_count("rpc.cli_retries"), 2);
    assert!(
        cluster
            .trace_events()
            .iter()
            .any(|e| e.stage.as_ref() == stage::RPC_TIMEOUT),
        "timeout must be visible on the request trace chain"
    );
}

#[test]
fn requests_falling_due_together_retry_in_ascending_id_order() {
    // Eight requests to a mute server all fall due in one `advance` pass.
    // Each resend advances the clock, so the order is visible in the trace
    // and, one timeout later, in the order the requests are given up on.
    let cluster = ClusterSpec::dawning3000(2).with_seed(44).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let (b2, a2) = (barrier.clone(), addr.clone());
    cluster.spawn_process(1, "mute", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        ctx.sleep(SimDuration::from_ms(10));
    });
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        let ccfg = RpcClientConfig {
            timeout: SimDuration::from_us(500),
            max_attempts: 2,
            ..RpcClientConfig::default()
        };
        let mut cli = RpcClient::new(ctx, port, ccfg).expect("client");
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("mute ready");
        for token in 0..8u64 {
            cli.issue(ctx, dst, 0, b"anyone?", token).expect("issue");
        }
        for pass in 0..2 {
            ctx.sleep(SimDuration::from_ms(1));
            let gave_up: Vec<u64> = cli.advance(ctx).iter().map(|c| c.token).collect();
            let want: Vec<u64> = if pass == 0 { vec![] } else { (0..8).collect() };
            assert_eq!(gave_up, want, "pass {pass}");
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "retry workload hung");
    assert_eq!(cluster.sim.get_count("rpc.cli_retries"), 8);
    let retried: Vec<u32> = cluster
        .trace_events()
        .iter()
        .filter(|e| e.stage.as_ref() == stage::RPC_RETRY)
        .map(|e| e.trace.msg_id)
        .collect();
    assert_eq!(retried.len(), 8);
    assert!(retried.is_sorted(), "retries out of id order: {retried:?}");
}

#[test]
fn large_response_travels_via_rma_and_verifies() {
    let big: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let expect = big.clone();
    let handler = move |_ctx: &mut ActorCtx, _op: u8, _req: &[u8]| big.clone();
    let cluster = rpc_pair(
        RpcServerConfig::default(),
        RpcClientConfig::default(),
        handler,
        move |ctx, cli, dst| {
            let c = cli.call(ctx, dst, 2, b"scan").expect("call");
            assert_eq!(c.status, RpcStatus::Ok);
            assert_eq!(c.payload.len(), 8192);
            assert_eq!(c.payload, expect, "RMA-delivered payload must verify");
            cli.quiesce(ctx, SimDuration::from_us(200));
        },
    );
    assert_eq!(cluster.sim.get_count("rpc.srv_rma_responses"), 1);
    assert_eq!(cluster.sim.get_count("rpc.srv_inline_responses"), 0);
    let report = check_completeness(&cluster.trace_events(), &ChainPolicy::bcl());
    assert!(report.is_closed(), "violations: {:?}", report.violations);
}

/// Responses either side of the inline limit — one system-channel buffer
/// less the frame header — all come back whole: up to it inline, past it
/// by RMA. A response that fits the buffer only without its frame must not
/// go inline, where the kernel refuses it and the client times out.
#[test]
fn responses_around_the_inline_limit_all_arrive() {
    let body = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + len) as u8).collect() };
    let handler = move |_ctx: &mut ActorCtx, _op: u8, req: &[u8]| {
        body(u16::from_le_bytes([req[0], req[1]]) as usize)
    };
    let cluster = rpc_pair(
        RpcServerConfig::default(),
        RpcClientConfig::default(),
        handler,
        move |ctx, cli, dst| {
            for len in 4_076u16..=4_081 {
                let c = cli.call(ctx, dst, 0, &len.to_le_bytes()).expect("call");
                assert_eq!(c.status, RpcStatus::Ok, "{len} B response");
                assert_eq!(c.payload, body(len as usize), "{len} B response");
            }
            cli.quiesce(ctx, SimDuration::from_us(200));
        },
    );
    assert_eq!(cluster.sim.get_count("rpc.srv_inline_responses"), 1);
    assert_eq!(cluster.sim.get_count("rpc.srv_rma_responses"), 5);
}

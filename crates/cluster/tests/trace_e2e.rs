//! End-to-end per-message causal tracing: a clean ping-pong chain must show
//! the full send→trap→inject→hop→rx→DMA→poll journey with exactly one trap
//! and zero interrupts; fault-injected runs must still close every chain
//! with all retransmissions attributed; protocol errors must trip the
//! flight recorder without panicking the firmware.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::wire::{WireHeader, WireKind};
use suca_bcl::{BclConfig, ChannelId, PortId, SendStatus};
use suca_cluster::{ClusterSpec, SanKind, SimBarrier};
use suca_myrinet::{FabricNodeId, FaultPlan};
use suca_sim::mtrace::{check_completeness, stage, ChainPolicy};
use suca_sim::{RunOutcome, SimDuration, TraceEvent, TraceLayer, TracePhase};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(salt))
        .collect()
}

/// Build a two-process cluster (tx on node 0, rx on `rx_node`), run it to
/// completion, and hand back the cluster for trace inspection.
fn two_proc(
    spec: ClusterSpec,
    rx_node: u32,
    rx: impl FnOnce(&mut suca_sim::ActorCtx, suca_bcl::BclPort) + 'static,
    tx: impl FnOnce(&mut suca_sim::ActorCtx, suca_bcl::BclPort, suca_bcl::ProcAddr) + 'static,
) -> suca_cluster::Cluster {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let b2 = barrier.clone();
    let a2 = addr.clone();
    cluster.spawn_process(rx_node, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        rx(ctx, port);
    });
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        tx(ctx, port, dst);
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "traced workload hung");
    cluster
}

fn stages_of(evs: &[TraceEvent], trace: suca_sim::TraceId) -> Vec<&TraceEvent> {
    evs.iter().filter(|e| e.trace == trace).collect()
}

fn first_at(evs: &[&TraceEvent], stage_name: &str) -> Option<u64> {
    evs.iter()
        .filter(|e| e.stage.as_ref() == stage_name)
        .map(|e| e.start_ns)
        .min()
}

#[test]
fn clean_ping_pong_chain_closes_with_one_trap_no_interrupts() {
    let payload = pattern(10_000, 7);
    let expect = payload.clone();
    let cluster = two_proc(
        ClusterSpec::dawning3000(2),
        1,
        move |ctx, port| {
            port.post_recv(ctx, 0, 10_000).unwrap();
            let ev = port.wait_recv(ctx);
            assert_eq!(port.recv_bytes(ctx, &ev).unwrap(), expect);
        },
        move |ctx, port, dst| {
            let buf = port.alloc_buffer(10_000).unwrap();
            port.write_buffer(buf, &payload).unwrap();
            port.send(ctx, dst, ChannelId::normal(0), buf, 10_000)
                .unwrap();
            let ev = port.wait_send(ctx);
            assert_eq!(ev.status, SendStatus::Ok);
        },
    );

    let events = cluster.trace_events();
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(
        report.is_closed(),
        "clean run must satisfy the BCL chain policy: {:?}",
        report.violations
    );

    // Exactly one inter-node message was sent; find its chain.
    let sends: Vec<_> = report.chains.iter().filter(|c| c.has_send).collect();
    assert_eq!(sends.len(), 1, "expected exactly one traced send chain");
    let chain = sends[0];
    assert_eq!(chain.trace.origin, 0, "message originated on node 0");
    assert_eq!(chain.traps, 1, "BCL: exactly one trap per message");
    assert_eq!(chain.interrupts, 0, "BCL: zero interrupts per message");
    assert!(chain.injects >= 1, "fragments must be injected");
    assert!(chain.hops >= 1, "myrinet has at least one switch hop");
    // Whichever side polls first closes the chain; both are completions.
    assert!(
        matches!(
            chain.terminal.as_deref(),
            Some(stage::POLL_RECV) | Some(stage::POLL_SEND)
        ),
        "a completion poll closes the chain, got {:?}",
        chain.terminal
    );

    // The journey is causally ordered: send → trap → descriptor → inject →
    // hop → rx → data DMA → completion-queue DMA → user poll.
    let evs = stages_of(&events, chain.trace);
    let send = first_at(&evs, stage::SEND).expect("send span");
    let trap = first_at(&evs, stage::TRAP).expect("trap instant");
    let desc = first_at(&evs, stage::DESCRIPTOR).expect("descriptor span");
    let inject = first_at(&evs, stage::INJECT).expect("inject span");
    let hop = first_at(&evs, stage::HOP).expect("hop instant");
    let rx = first_at(&evs, stage::RX).expect("rx span");
    let dma = first_at(&evs, stage::DMA_DATA).expect("data DMA span");
    let poll = first_at(&evs, stage::POLL_RECV).expect("poll span");
    assert!(send <= trap, "trap happens inside the send call");
    assert!(trap <= desc, "descriptor fetch follows the trap");
    assert!(desc <= inject, "injection follows the descriptor");
    assert!(inject <= hop, "switch hop follows injection");
    assert!(hop <= rx, "remote rx follows the hop");
    assert!(rx <= dma, "data DMA follows rx processing");
    assert!(dma <= poll, "user poll observes the DMA'd message");
    // The receiver's completion was DMA'd into its queue (node 1).
    assert!(
        evs.iter()
            .any(|e| e.stage.as_ref() == stage::DMA_CQ && e.node == 1),
        "receive completion must be DMA'd to the remote user queue"
    );
    // Each poll is a span of its charged cost; the sender polled its own
    // completion without another trap.
    let cfg = BclConfig::dawning3000();
    let poll_span = |name: &str, node: u32| {
        evs.iter()
            .find(|e| e.stage.as_ref() == name && e.node == node)
            .map(|e| (e.phase, e.duration_ns()))
    };
    assert_eq!(
        poll_span(stage::POLL_RECV, 1),
        Some((TracePhase::Span, cfg.poll_recv.as_ns()))
    );
    assert_eq!(
        poll_span(stage::POLL_SEND, 0),
        Some((TracePhase::Span, cfg.poll_send.as_ns())),
        "send completion is observed by user-space polling"
    );
    assert!(
        evs.iter()
            .all(|e| e.layer != TraceLayer::Kernel || e.node == 0),
        "no kernel events on the receive side — semi-user-level contract"
    );
}

#[test]
fn faulty_run_closes_every_chain_and_attributes_all_retransmissions() {
    let mut spec = ClusterSpec::dawning3000(2).with_seed(11);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.20,
            corrupt_prob: 0.05,
        };
    }
    const N: u32 = 15;
    let cluster = two_proc(
        spec,
        1,
        move |ctx, port| {
            for i in 0..N {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).unwrap();
                assert_eq!(data, pattern(2000, i as u8), "message {i} damaged");
            }
        },
        move |ctx, port, dst| {
            for i in 0..N {
                port.send_bytes(ctx, dst, ChannelId::SYSTEM, &pattern(2000, i as u8))
                    .unwrap();
                let _ = port.wait_send(ctx);
                // Pace so the system pool never overflows under retx storms.
                ctx.sleep(SimDuration::from_us(400));
            }
        },
    );
    assert!(
        cluster.sim.get_count("bcl.timeouts") > 0,
        "no timeouts under 20% loss — fault injection is vacuous"
    );

    let events = cluster.trace_events();
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(
        report.is_closed(),
        "every chain must close under faults: {:?}",
        report.violations
    );
    assert!(
        report.total_retransmissions() > 0,
        "retransmissions happened but none were traced"
    );
    let sends = report.chains.iter().filter(|c| c.has_send).count();
    assert_eq!(sends as u32, N, "one traced chain per message");
}

#[test]
fn reject_exhaustion_closes_the_chain_as_a_failure() {
    let mut cfg = BclConfig::dawning3000();
    cfg.reliability.max_message_retries = 3;
    cfg.reliability.reject_retry_delay = SimDuration::from_us(20);
    let cluster = two_proc(
        ClusterSpec::dawning3000(2).with_bcl(cfg),
        1,
        move |ctx, port| {
            // Never post the normal channel; just stay alive long enough.
            ctx.sleep(SimDuration::from_ms(2));
            let _ = port;
        },
        move |ctx, port, dst| {
            let buf = port.alloc_buffer(512).unwrap();
            port.write_buffer(buf, &pattern(512, 3)).unwrap();
            port.send(ctx, dst, ChannelId::normal(5), buf, 512).unwrap();
            let ev1 = port.wait_send(ctx);
            assert_eq!(ev1.status, SendStatus::Ok);
            let ev2 = port.wait_send(ctx);
            assert_eq!(ev2.status, SendStatus::Rejected);
        },
    );
    assert_eq!(cluster.sim.get_count("bcl.msg_failed"), 1);

    let events = cluster.trace_events();
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(
        report.is_closed(),
        "rejected message must still close: {:?}",
        report.violations
    );
    let chain = report
        .chains
        .iter()
        .find(|c| c.has_send)
        .expect("traced send chain");
    let evs = stages_of(&events, chain.trace);
    assert!(
        evs.iter().any(|e| e.stage.as_ref() == stage::REJECT_SENT),
        "receiver's rejects must appear on the sender's chain"
    );
    assert!(
        evs.iter().any(|e| e.stage.as_ref() == stage::MSG_RETRY),
        "each retry must be traced"
    );
    assert!(
        evs.iter().any(|e| e.stage.as_ref() == stage::MSG_FAILED),
        "budget exhaustion must be traced as the failure terminal"
    );
}

#[test]
fn orphan_read_reply_counts_protocol_error_and_dumps_flight_recorder() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    cluster.spawn_process(1, "rogue", move |ctx, _env| {
        // A read-reply fragment for a request node 0 never issued: the
        // firmware must count a protocol error and trip the flight
        // recorder instead of panicking.
        let payload = pattern(64, 9);
        let header = WireHeader {
            kind: WireKind::RmaReadData,
            channel: ChannelId::SYSTEM,
            src_port: PortId(0),
            dst_port: PortId(0),
            msg_id: 777,
            seq: 0,
            offset: 0,
            total_len: 64,
            frag_len: 64,
            epoch: 0,
        };
        fabric.inject(
            ctx.sim(),
            FabricNodeId(1),
            FabricNodeId(0),
            header.encode(&payload),
            None,
        );
    });
    assert!(!sim.msg_trace().has_dumped());
    assert_eq!(
        sim.run(),
        RunOutcome::Completed,
        "protocol error must not hang"
    );
    assert_eq!(
        sim.get_count("mcp.protocol_errors"),
        1,
        "orphan read reply is a counted protocol error"
    );
    assert!(
        sim.get_count("bcl.rx_orphan_read_data") >= 1,
        "orphan counter still fires"
    );
    assert!(
        sim.msg_trace().has_dumped(),
        "protocol error must trip the flight recorder"
    );
}

#[test]
fn intra_node_messages_are_not_traced() {
    let cluster = ClusterSpec::dawning3000(1).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let b2 = barrier.clone();
    let a2 = addr.clone();
    cluster.spawn_process(0, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        let ev = port.wait_recv(ctx);
        let _ = port.recv_bytes(ctx, &ev).unwrap();
    });
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        port.send_bytes(ctx, dst, ChannelId::SYSTEM, &pattern(256, 4))
            .unwrap();
        let _ = port.wait_send(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let events = cluster.trace_events();
    assert!(
        events
            .iter()
            .all(|e| e.trace.is_none() || e.trace.msg_id % 2 == 0),
        "intra-node (odd msg_id) traffic must never be traced"
    );
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(report.is_closed(), "{:?}", report.violations);
    assert!(
        report.chains.iter().all(|c| !c.has_send),
        "no inter-node sends in this run"
    );
}

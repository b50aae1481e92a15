//! End-to-end tests of the full BCL stack over the simulated SANs:
//! the paper's headline numbers, data integrity through fragmentation and
//! faults, rendezvous semantics, security rejections, RMA, and the
//! critical-path trap/interrupt accounting behind Table 1.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{BclError, BclPort, ChannelId, SendStatus};
use suca_cluster::{measure_bandwidth, measure_one_way, ClusterSpec, SimBarrier};
use suca_myrinet::FaultPlan;
use suca_sim::RunOutcome;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

// ---------------------------------------------------------------- headline

#[test]
fn paper_headline_inter_node_latency_18_3us() {
    let r = measure_one_way(ClusterSpec::dawning3000(2), 0, 1, 0, 3, 10);
    assert!(
        (r.one_way_us - 18.3).abs() < 0.4,
        "0-len inter-node one-way {} us; paper says 18.3",
        r.one_way_us
    );
}

#[test]
fn paper_headline_intra_node_latency_2_7us() {
    let r = measure_one_way(ClusterSpec::dawning3000(2), 0, 0, 0, 3, 10);
    assert!(
        (r.one_way_us - 2.7).abs() < 0.1,
        "0-len intra-node one-way {} us; paper says 2.7",
        r.one_way_us
    );
}

#[test]
fn paper_headline_inter_node_bandwidth_146mbps() {
    let r = measure_bandwidth(ClusterSpec::dawning3000(2), 0, 1, 128 * 1024, 24, 8);
    assert!(
        (r.mb_per_sec - 146.0).abs() < 5.0,
        "128KB inter-node bandwidth {} MB/s; paper says 146",
        r.mb_per_sec
    );
}

#[test]
fn paper_headline_intra_node_bandwidth_391mbps() {
    let r = measure_bandwidth(ClusterSpec::dawning3000(2), 0, 0, 128 * 1024, 8, 8);
    assert!(
        (r.mb_per_sec - 391.0).abs() < 12.0,
        "128KB intra-node bandwidth {} MB/s; paper says 391",
        r.mb_per_sec
    );
}

#[test]
fn latency_is_monotone_in_message_size() {
    let sizes = [0u64, 1024, 4096, 16384];
    let mut prev = 0.0;
    for s in sizes {
        let r = measure_one_way(ClusterSpec::dawning3000(2), 0, 1, s, 2, 5);
        assert!(
            r.one_way_us > prev,
            "latency not monotone at {s}: {} <= {prev}",
            r.one_way_us
        );
        prev = r.one_way_us;
    }
}

#[test]
fn half_bandwidth_below_4kb() {
    // Paper: "the half-bandwidth is reached with less than 4 KB message".
    let spec = ClusterSpec::dawning3000(2);
    let peak = 146.0;
    let bw_4k = measure_bandwidth(spec, 0, 1, 4096, 48, 8);
    assert!(
        bw_4k.mb_per_sec >= peak / 2.0,
        "4KB bandwidth {} below half of peak",
        bw_4k.mb_per_sec
    );
}

// --------------------------------------------------------------- integrity

#[test]
fn large_message_integrity_through_fragmentation() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let payload = pattern(300_000, 7); // ~74 fragments, odd length
    let expect = payload.clone();
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));

    let b2 = barrier.clone();
    let ab = addr_b.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        port.post_recv(ctx, 3, 300_000).unwrap();
        b2.wait(ctx);
        let ev = port.wait_recv(ctx);
        assert_eq!(ev.channel, ChannelId::normal(3));
        assert_eq!(ev.len, 300_000);
        let data = port.recv_bytes(ctx, &ev).unwrap();
        assert_eq!(data, expect, "payload corrupted in flight");
    });
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b2_wait_then_send(
            ctx,
            &port,
            &barrier,
            &addr_b,
            &payload,
            ChannelId::normal(3),
        );
        let ev = port.wait_send(ctx);
        assert_eq!(ev.status, SendStatus::Ok);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

fn b2_wait_then_send(
    ctx: &mut suca_sim::ActorCtx,
    port: &BclPort,
    barrier: &SimBarrier,
    addr_b: &Rc<RefCell<Option<suca_bcl::ProcAddr>>>,
    payload: &[u8],
    channel: ChannelId,
) {
    barrier.wait(ctx);
    let dst = addr_b.borrow_mut().expect("receiver ready");
    let buf = port.alloc_buffer(payload.len() as u64).unwrap();
    port.write_buffer(buf, payload).unwrap();
    port.send(ctx, dst, channel, buf, payload.len() as u64)
        .unwrap();
}

/// One 1,000 B message per local send completion. That completion comes
/// before the ack, so a lost fragment usually has the next message right
/// behind it and is repaired by a gap ack; only a loss at the end of the run
/// is left to the timer. Timer-only recovery has its own test below.
#[test]
fn reliability_recovers_from_drops_and_corruption() {
    let mut spec = ClusterSpec::dawning3000(2);
    if let suca_cluster::SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.05,
            corrupt_prob: 0.05,
        };
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    const N: u32 = 40;

    let b2 = barrier.clone();
    let ab = addr_b.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Messages must arrive complete, uncorrupted and in order.
        for i in 0..N {
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).unwrap();
            assert_eq!(data, pattern(1000, i as u8), "message {i} damaged");
        }
    });
    let b3 = barrier.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        for i in 0..N {
            port.send_bytes(ctx, dst, ChannelId::SYSTEM, &pattern(1000, i as u8))
                .unwrap();
            // Pace so the 64-buffer system pool can't overflow.
            let _ = port.wait_send(ctx);
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert!(
        sim.get_count("fabric.dropped") + sim.get_count("fabric.corrupted") > 0,
        "fault injection never fired; test is vacuous"
    );
    assert!(
        sim.get_count("bcl.retx_packets") > 0,
        "reliability layer never retransmitted"
    );
}

/// Send `n` back-to-back 32 KiB messages (8 fragments each) from node 0 to
/// node 1 over a Myrinet that drops `drop_prob` of its packets, checking
/// that every message arrives intact and in order, so none is skipped or
/// repeated. Returns the simulator for its counters.
fn lossy_stream(drop_prob: f64, n: u16) -> suca_sim::Sim {
    let mut spec = ClusterSpec::dawning3000(2);
    if let suca_cluster::SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob,
            corrupt_prob: 0.0,
        };
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    const LEN: u64 = 32 * 1024;

    let b2 = barrier.clone();
    let ab = addr_b.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        for i in 0..n {
            port.post_recv(ctx, i, LEN).unwrap();
        }
        b2.wait(ctx);
        for i in 0..n {
            let ev = port.wait_recv(ctx);
            assert_eq!(ev.channel, ChannelId::normal(i), "message {i} out of order");
            let data = port.recv_bytes(ctx, &ev).unwrap();
            assert_eq!(data, pattern(LEN as usize, i as u8), "message {i} damaged");
        }
    });
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr_b.borrow_mut().expect("receiver ready");
        for i in 0..n {
            let buf = port.alloc_buffer(LEN).unwrap();
            port.write_buffer(buf, &pattern(LEN as usize, i as u8))
                .unwrap();
            port.send(ctx, dst, ChannelId::normal(i), buf, LEN).unwrap();
        }
        for _ in 0..n {
            assert_eq!(port.wait_send(ctx).status, SendStatus::Ok);
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert!(
        sim.get_count("fabric.dropped") > 0,
        "fault injection never fired; test is vacuous"
    );
    sim
}

/// A back-to-back stream of multi-fragment messages under 5 % loss: most
/// losses have later fragments behind them, whose out-of-order arrivals
/// draw gap acks, so go-back-N resends at ack speed instead of waiting out
/// the timer.
#[test]
fn gap_acks_recover_most_losses_in_a_stream_without_the_timer() {
    let sim = lossy_stream(0.05, 24);
    let (fast, timeouts) = (
        sim.get_count("bcl.fast_retx"),
        sim.get_count("bcl.timeouts"),
    );
    assert!(fast > 0, "no gap ack ever drew a resend");
    assert!(
        fast > timeouts,
        "{fast} fast retransmits vs {timeouts} timeouts: the timer still does most of the recovery"
    );
}

/// At 20 % loss a resent hole is itself often dropped. The copies sent
/// behind it still arrive, and once their out-of-order count outruns what
/// was sent before the resend, the hole goes out again at ack speed.
#[test]
fn a_dropped_resend_is_resent_at_ack_speed_in_a_stream() {
    let sim = lossy_stream(0.2, 24);
    let repeats = sim.get_count("bcl.fast_retx_repeat");
    assert!(repeats > 0, "no dropped resend was resent before the timer");
    assert!(repeats <= sim.get_count("bcl.fast_retx"));
}

/// The probe's liveness case: a ping-pong never has a packet in flight
/// behind a lost one, so no gap ack is drawn and every loss is a tail loss.
/// The timer only asks; the probe's reply proves the loss and resends.
#[test]
fn probes_repair_tail_losses_in_a_ping_pong() {
    let mut spec = ClusterSpec::dawning3000(2);
    if let suca_cluster::SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.05,
            corrupt_prob: 0.0,
        };
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addrs: Rc<RefCell<[Option<suca_bcl::ProcAddr>; 2]>> = Rc::new(RefCell::new([None; 2]));
    const ROUNDS: u32 = 40;
    for me in 0..2usize {
        let (barrier, addrs) = (barrier.clone(), addrs.clone());
        cluster.spawn_process(me as u32, format!("p{me}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[me] = Some(port.addr());
            barrier.wait(ctx);
            let peer = addrs.borrow_mut()[1 - me].expect("peer ready");
            for i in 0..ROUNDS {
                if me == 1 {
                    let ev = port.wait_recv(ctx);
                    assert_eq!(port.recv_bytes(ctx, &ev).unwrap(), pattern(1000, i as u8));
                }
                port.send_bytes(ctx, peer, ChannelId::SYSTEM, &pattern(1000, i as u8))
                    .unwrap();
                let _ = port.wait_send(ctx);
                if me == 0 {
                    let ev = port.wait_recv(ctx);
                    assert_eq!(port.recv_bytes(ctx, &ev).unwrap(), pattern(1000, i as u8));
                }
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert!(
        sim.get_count("fabric.dropped") > 0,
        "fault injection never fired; test is vacuous"
    );
    assert!(
        sim.get_count("bcl.timeouts") > 0,
        "no loss reached the timer"
    );
    assert_eq!(sim.get_count("bcl.fast_retx"), 0, "a ping-pong has no gaps");
    assert!(
        sim.get_count("bcl.probe_retx") > 0,
        "no probe reply proved a loss"
    );
    assert!(
        sim.get_count("bcl.retx_packets") > 0,
        "the tail losses were never resent"
    );
}

// -------------------------------------------------------------- rendezvous

#[test]
fn late_posted_normal_channel_is_retried_and_delivered() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let barrier = SimBarrier::new(&sim, 2);
    let tx_mem = cluster.nodes[0].os.memory().clone();
    let frames_before_send = Rc::new(RefCell::new(0));

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Post *after* the sender has already sent: the reject/retry path.
        ctx.sleep(suca_sim::SimDuration::from_us(400));
        port.post_recv(ctx, 0, 512).unwrap();
        let ev = port.wait_recv(ctx);
        let data = port.recv_bytes(ctx, &ev).unwrap();
        assert_eq!(data, pattern(512, 9), "the retry must carry the payload");
    });
    let b3 = barrier.clone();
    let (mem, before) = (tx_mem.clone(), frames_before_send.clone());
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        *before.borrow_mut() = mem.allocated_frames();
        // `send_bytes` frees its page at once; the `Ok` completion is
        // posted long before the retries re-stage the payload from it.
        port.send_bytes(ctx, dst, ChannelId::normal(0), &pattern(512, 9))
            .unwrap();
        assert_eq!(port.wait_send(ctx).status, SendStatus::Ok);
        assert_eq!(
            mem.allocated_frames(),
            *before.borrow() + 1,
            "a refusable job keeps its page past the completion event"
        );
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert!(
        sim.get_count("bcl.msg_retries") > 0,
        "expected message-level retries"
    );
    // Delivered and acknowledged: the job is past refusal, so the NIC let
    // go of the page the retries were reading and it was reclaimed.
    assert_eq!(tx_mem.allocated_frames(), *frames_before_send.borrow());
    assert_eq!(sim.get_count("mem.dma_lifetime_violations"), 0);
}

#[test]
fn system_pool_overflow_discards_as_the_paper_specifies() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let pool_size = cluster.nodes[0].bcl.config().system_pool.buffers;
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let barrier = SimBarrier::new(&sim, 2);

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Never consume: the pool fills, later messages are discarded.
        ctx.sleep(suca_sim::SimDuration::from_ms(50));
        let mut got = 0;
        while port.poll_recv(ctx).is_some() {
            got += 1;
        }
        assert_eq!(got as u32, pool_size, "exactly pool-many delivered");
    });
    let b3 = barrier.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        for _ in 0..pool_size + 10 {
            port.send_bytes(ctx, dst, ChannelId::SYSTEM, b"x").unwrap();
            let _ = port.wait_send(ctx);
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(sim.get_count("bcl.sys_pool_discard"), 10);
}

// ----------------------------------------------------------------- security

#[test]
fn kernel_rejects_forged_buffer_pointer() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    cluster.spawn_process(0, "attacker", |ctx, env| {
        let port = env.open_port(ctx);
        let dst = suca_bcl::ProcAddr {
            node: suca_os::NodeId(1),
            port: suca_bcl::PortId(0),
        };
        // A pointer into unmapped space: must be refused by the kernel
        // module, not crash anything.
        let err = port
            .send(
                ctx,
                dst,
                ChannelId::SYSTEM,
                suca_mem::VirtAddr(0xDEAD_BEEF),
                100,
            )
            .unwrap_err();
        assert!(matches!(err, BclError::BadBuffer { .. }), "got {err:?}");
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

#[test]
fn kernel_rejects_bad_destination_and_channel() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    cluster.spawn_process(0, "p", |ctx, env| {
        let port = env.open_port(ctx);
        let buf = port.alloc_buffer(64).unwrap();
        let bad_node = suca_bcl::ProcAddr {
            node: suca_os::NodeId(99),
            port: suca_bcl::PortId(0),
        };
        assert!(matches!(
            port.send(ctx, bad_node, ChannelId::SYSTEM, buf, 64),
            Err(BclError::BadNode(_))
        ));
        let dst = suca_bcl::ProcAddr {
            node: suca_os::NodeId(1),
            port: suca_bcl::PortId(0),
        };
        assert!(matches!(
            port.send(ctx, dst, ChannelId::normal(9999), buf, 64),
            Err(BclError::BadChannel(_))
        ));
        // Oversized system-channel message.
        assert!(matches!(
            port.send(ctx, dst, ChannelId::SYSTEM, buf, 64 * 1024),
            Err(BclError::TooBigForSystemChannel { .. })
        ));
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

#[test]
fn one_port_per_process_enforced() {
    let cluster = ClusterSpec::dawning3000(1).build();
    let sim = cluster.sim.clone();
    cluster.spawn_process(0, "greedy", |ctx, env| {
        let _port = env.open_port(ctx);
        match BclPort::open(ctx, &env.node.bcl, &env.proc) {
            Err(BclError::PortAlreadyOpen(_)) => {}
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("second port must be refused"),
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

#[test]
fn dead_process_requests_are_refused() {
    let cluster = ClusterSpec::dawning3000(1).build();
    let sim = cluster.sim.clone();
    let node = cluster.nodes[0].clone();
    cluster.spawn_process(0, "zombie", move |ctx, env| {
        let port = env.open_port(ctx);
        // Kill the process behind the kernel's back, then try to use the
        // port: the PID check fires.
        node.os.exit_process(env.proc.pid);
        let buf = port.alloc_buffer(8).unwrap();
        let dst = port.addr();
        let err = port.send(
            ctx,
            suca_bcl::ProcAddr {
                node: suca_os::NodeId(0),
                port: dst.port,
            },
            ChannelId::SYSTEM,
            buf,
            8,
        );
        // Intra-node path doesn't trap; force the inter-node path via a
        // different op that always traps:
        let err2 = port.post_recv(ctx, 0, 64);
        assert!(err.is_ok(), "intra path has no kernel check by design");
        assert!(matches!(err2, Err(BclError::DeadProcess(_))), "{err2:?}");
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

// --------------------------------------------------------------------- RMA

#[test]
fn rma_write_and_read_roundtrip() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let window: Rc<RefCell<Option<suca_mem::VirtAddr>>> = Rc::new(RefCell::new(None));
    let done = SimBarrier::new(&sim, 2);

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    let d2 = done.clone();
    let w2 = window.clone();
    cluster.spawn_process(1, "target", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        let win = port.bind_open(ctx, 0, 8192).unwrap();
        // Preload the second half with a known pattern for the read test.
        port.write_buffer(win.add(4096), &pattern(4096, 42))
            .unwrap();
        *w2.borrow_mut() = Some(win);
        b2.wait(ctx);
        d2.wait(ctx); // stay alive until the initiator finished
        let got = port.read_buffer(win, 2000).unwrap();
        assert_eq!(got, pattern(2000, 5), "RMA write did not land");
    });
    let b3 = barrier.clone();
    let d3 = done.clone();
    cluster.spawn_process(0, "initiator", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        // One-sided write into the window.
        let src = port.alloc_buffer(2000).unwrap();
        port.write_buffer(src, &pattern(2000, 5)).unwrap();
        let wid = port.rma_write(ctx, dst, 0, 0, src, 2000).unwrap();
        let ev = port.wait_send(ctx);
        assert_eq!((ev.msg_id, ev.status), (wid, SendStatus::Ok));
        // One-sided read of the preloaded second half.
        let into = port.alloc_buffer(4096).unwrap();
        let rid = port.rma_read(ctx, dst, 0, 4096, into, 4096).unwrap();
        let ev = port.wait_send(ctx);
        assert_eq!((ev.msg_id, ev.status), (rid, SendStatus::Ok));
        assert_eq!(port.read_buffer(into, 4096).unwrap(), pattern(4096, 42));
        d3.wait(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    // Two completion events reached the initiator's send queue (the write's
    // and the read's) and nothing else was posted: each is one counted DMA.
    assert_eq!(sim.get_count("mcp.completion_dmas"), 2);
}

#[test]
fn rma_out_of_bounds_read_fails_with_rejected_event() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let done = SimBarrier::new(&sim, 2);

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    let d2 = done.clone();
    cluster.spawn_process(1, "target", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        port.bind_open(ctx, 0, 1024).unwrap();
        b2.wait(ctx);
        d2.wait(ctx);
    });
    let b3 = barrier.clone();
    let d3 = done.clone();
    cluster.spawn_process(0, "initiator", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        let into = port.alloc_buffer(4096).unwrap();
        // Read beyond the 1 KB window: NIC-side bounds check refuses.
        let rid = port.rma_read(ctx, dst, 0, 512, into, 4096).unwrap();
        let ev = port.wait_send(ctx);
        assert_eq!((ev.msg_id, ev.status), (rid, SendStatus::Rejected));
        d3.wait(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(sim.get_count("bcl.rma_oob"), 1);
}

// ----------------------------------------------------------------- table 1

#[test]
fn critical_path_has_one_trap_and_zero_interrupts() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        let _ = port.wait_recv(ctx);
    });
    let b3 = barrier.clone();
    let traps = Rc::new(RefCell::new((0u64, 0u64)));
    let t2 = traps.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().unwrap();
        let before = ctx.sim().get_count("os.traps");
        port.send_bytes(ctx, dst, ChannelId::SYSTEM, b"hi").unwrap();
        let after = ctx.sim().get_count("os.traps");
        *t2.borrow_mut() = (before, after);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let (before, after) = *traps.borrow();
    assert_eq!(after - before, 1, "exactly one trap on the send path");
    assert_eq!(sim.get_count("os.interrupts"), 0, "BCL never interrupts");
}

// ------------------------------------------------------------ both fabrics

#[test]
fn same_application_runs_on_myrinet_and_mesh() {
    for spec in [
        ClusterSpec::dawning3000(4),
        ClusterSpec::dawning3000_mesh(4),
    ] {
        let name = match &spec.san {
            suca_cluster::SanKind::Myrinet(_) => "myrinet",
            suca_cluster::SanKind::Mesh(_) => "mesh",
        };
        let cluster = spec.build();
        let sim = cluster.sim.clone();
        let barrier = SimBarrier::new(&sim, 4);
        let addrs: Rc<RefCell<Vec<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(Vec::new()));
        let received = Rc::new(RefCell::new(0u32));
        // Every node sends to every other node over the system channel —
        // identical application code for both SANs.
        for n in 0..4u32 {
            let barrier = barrier.clone();
            let addrs = addrs.clone();
            let received = received.clone();
            cluster.spawn_process(n, format!("p{n}"), move |ctx, env| {
                let port = env.open_port(ctx);
                addrs.borrow_mut().push(port.addr());
                barrier.wait(ctx);
                let peers: Vec<_> = addrs
                    .borrow_mut()
                    .iter()
                    .copied()
                    .filter(|a| *a != port.addr())
                    .collect();
                for peer in peers {
                    port.send_bytes(ctx, peer, ChannelId::SYSTEM, &n.to_le_bytes())
                        .unwrap();
                }
                for _ in 0..3 {
                    let ev = port.wait_recv(ctx);
                    let _ = port.recv_bytes(ctx, &ev).unwrap();
                    *received.borrow_mut() += 1;
                }
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed, "{name} stuck");
        assert_eq!(*received.borrow(), 12, "{name} lost messages");
    }
}

//! Stress and edge-condition tests for the BCL stack: SRAM back-pressure,
//! ring overflow, retry exhaustion, heavy loss, full-duplex bulk traffic,
//! many ports, mixed intra/inter traffic, tiny go-back-N windows.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{BclConfig, BclError, ChannelId, SendStatus};
use suca_cluster::{ClusterSpec, SanKind, SimBarrier};
use suca_myrinet::FaultPlan;
use suca_sim::{RunOutcome, SimDuration};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(salt))
        .collect()
}

fn two_proc(
    spec: ClusterSpec,
    rx_node: u32,
    rx: impl FnOnce(&mut suca_sim::ActorCtx, suca_bcl::BclPort) + 'static,
    tx: impl FnOnce(&mut suca_sim::ActorCtx, suca_bcl::BclPort, suca_bcl::ProcAddr) + 'static,
) -> suca_sim::Sim {
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
    assert_eq!(sim.run(), RunOutcome::Completed, "stress workload hung");
    sim
}

#[test]
fn tiny_sram_forces_backpressure_but_delivers() {
    let mut cfg = BclConfig::dawning3000();
    cfg.nic_sram_bytes = 8 * 1024; // two fragments of staging space
    let spec = ClusterSpec::dawning3000(2).with_bcl(cfg);
    let payload = pattern(200_000, 1);
    let expect = payload.clone();
    let sim = two_proc(
        spec,
        1,
        move |ctx, port| {
            port.post_recv(ctx, 0, 200_000).unwrap();
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).unwrap();
            assert_eq!(data, expect);
        },
        move |ctx, port, dst| {
            let buf = port.alloc_buffer(200_000).unwrap();
            port.write_buffer(buf, &payload).unwrap();
            port.send(ctx, dst, ChannelId::normal(0), buf, 200_000)
                .unwrap();
            let ev = port.wait_send(ctx);
            assert_eq!(ev.status, SendStatus::Ok);
        },
    );
    assert!(
        sim.get_count("bcl.sram_stall") > 0,
        "SRAM back-pressure never engaged; test is vacuous"
    );
}

#[test]
fn send_ring_overflow_returns_ring_full_then_recovers() {
    let mut cfg = BclConfig::dawning3000();
    cfg.limits.send_ring = 4;
    let spec = ClusterSpec::dawning3000(2).with_bcl(cfg);
    let sim = two_proc(
        spec,
        1,
        move |ctx, port| {
            // Consume everything that eventually arrives.
            let mut got = 0;
            while got < 12 {
                let ev = port.wait_recv(ctx);
                let _ = port.recv_bytes(ctx, &ev).unwrap();
                got += 1;
            }
        },
        move |ctx, port, dst| {
            let buf = port.alloc_buffer(4096).unwrap();
            port.write_buffer(buf, &pattern(4096, 2)).unwrap();
            let mut ring_full_seen = false;
            let mut sent = 0;
            while sent < 12 {
                match port.send(ctx, dst, ChannelId::SYSTEM, buf, 4096) {
                    Ok(_) => sent += 1,
                    Err(BclError::RingFull) => {
                        ring_full_seen = true;
                        // Wait for a completion to drain the ring.
                        let _ = port.wait_send(ctx);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert!(ring_full_seen, "ring never filled; test is vacuous");
        },
    );
    let _ = sim;
}

#[test]
fn reject_retry_budget_exhaustion_reports_rejected() {
    let mut cfg = BclConfig::dawning3000();
    cfg.reliability.max_message_retries = 3;
    cfg.reliability.reject_retry_delay = SimDuration::from_us(20);
    let spec = ClusterSpec::dawning3000(2).with_bcl(cfg);
    let sim = two_proc(
        spec,
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
            // First event: Ok (injected); the retries then exhaust and a
            // Rejected completion follows.
            let ev1 = port.wait_send(ctx);
            assert_eq!(ev1.status, SendStatus::Ok);
            let ev2 = port.wait_send(ctx);
            assert_eq!(ev2.status, SendStatus::Rejected, "retry budget must expire");
        },
    );
    assert_eq!(sim.get_count("bcl.msg_failed"), 1);
    assert!(sim.get_count("bcl.msg_retries") >= 3);
}

#[test]
fn heavy_loss_20_percent_still_delivers_in_order() {
    let mut spec = ClusterSpec::dawning3000(2).with_seed(11);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.20,
            corrupt_prob: 0.05,
        };
    }
    const N: u32 = 15;
    let sim = two_proc(
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
        sim.get_count("bcl.timeouts") > 0,
        "no timeouts under 20% loss?"
    );
}

#[test]
fn full_duplex_bulk_transfers_both_directions() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addrs: Rc<RefCell<Vec<Option<suca_bcl::ProcAddr>>>> =
        Rc::new(RefCell::new(vec![None, None]));
    const LEN: usize = 150_000;
    for me in 0..2u32 {
        let barrier = barrier.clone();
        let addrs = addrs.clone();
        cluster.spawn_process(me, format!("p{me}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[me as usize] = Some(port.addr());
            port.post_recv(ctx, 0, LEN as u64).unwrap();
            barrier.wait(ctx);
            let peer = addrs.borrow_mut()[(1 - me) as usize].expect("peer ready");
            let buf = port.alloc_buffer(LEN as u64).unwrap();
            port.write_buffer(buf, &pattern(LEN, me as u8)).unwrap();
            port.send(ctx, peer, ChannelId::normal(0), buf, LEN as u64)
                .unwrap();
            // Receive the peer's bulk message while ours is in flight.
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).unwrap();
            assert_eq!(data, pattern(LEN, 1 - me as u8));
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "duplex hung");
}

#[test]
fn eight_ports_all_to_all_on_two_nodes() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    const P: u32 = 8;
    let barrier = SimBarrier::new(&sim, P);
    let addrs: Rc<RefCell<Vec<Option<suca_bcl::ProcAddr>>>> =
        Rc::new(RefCell::new(vec![None; P as usize]));
    let received = Rc::new(RefCell::new(0u32));
    for me in 0..P {
        let barrier = barrier.clone();
        let addrs = addrs.clone();
        let received = received.clone();
        cluster.spawn_process(me % 2, format!("p{me}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[me as usize] = Some(port.addr());
            barrier.wait(ctx);
            // Everyone sends a tagged message to everyone else (mixed
            // intra-node and inter-node destinations on the same port).
            let peers: Vec<_> = (0..P)
                .filter(|p| *p != me)
                .map(|p| addrs.borrow_mut()[p as usize].expect("ready"))
                .collect();
            for (k, peer) in peers.iter().enumerate() {
                // Stagger slightly so 7 simultaneous senders cannot blow the
                // 64-buffer pools.
                ctx.sleep(SimDuration::from_us(5 * (k as u64 + 1)));
                port.send_bytes(ctx, *peer, ChannelId::SYSTEM, &me.to_le_bytes())
                    .unwrap();
            }
            for _ in 0..P - 1 {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).unwrap();
                let from = u32::from_le_bytes(data.try_into().expect("4B"));
                assert_eq!(
                    suca_os::NodeId(from % 2),
                    ev.src.node,
                    "sender id inconsistent with source node"
                );
                *received.borrow_mut() += 1;
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "all-to-all hung");
    assert_eq!(*received.borrow(), P * (P - 1));
}

#[test]
fn tiny_gbn_window_still_moves_large_messages() {
    let mut cfg = BclConfig::dawning3000();
    cfg.reliability.window = 2;
    let spec = ClusterSpec::dawning3000(2).with_bcl(cfg);
    let payload = pattern(100_000, 9);
    let expect = payload.clone();
    two_proc(
        spec,
        1,
        move |ctx, port| {
            port.post_recv(ctx, 0, 100_000).unwrap();
            let ev = port.wait_recv(ctx);
            assert_eq!(port.recv_bytes(ctx, &ev).unwrap(), expect);
        },
        move |ctx, port, dst| {
            let buf = port.alloc_buffer(100_000).unwrap();
            port.write_buffer(buf, &payload).unwrap();
            port.send(ctx, dst, ChannelId::normal(0), buf, 100_000)
                .unwrap();
            let ev = port.wait_send(ctx);
            assert_eq!(ev.status, SendStatus::Ok);
        },
    );
}

#[test]
fn concurrent_rma_writes_to_disjoint_offsets() {
    let cluster = ClusterSpec::dawning3000(3).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 3);
    let done = SimBarrier::new(&sim, 3);
    let target: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));

    let b0 = barrier.clone();
    let d0 = done.clone();
    let t0 = target.clone();
    cluster.spawn_process(0, "window-owner", move |ctx, env| {
        let port = env.open_port(ctx);
        *t0.borrow_mut() = Some(port.addr());
        let win = port.bind_open(ctx, 0, 8192).unwrap();
        b0.wait(ctx);
        d0.wait(ctx);
        // The writers' completion events mean "injected"; give the last
        // receive-side DMA time to land before inspecting the window.
        ctx.sleep(SimDuration::from_us(100));
        // Each writer owned a disjoint 4 KiB half.
        let lo = port.read_buffer(win, 4096).unwrap();
        let hi = port.read_buffer(win.add(4096), 4096).unwrap();
        assert_eq!(lo, pattern(4096, 1));
        assert_eq!(hi, pattern(4096, 2));
    });
    for w in 1..3u32 {
        let barrier = barrier.clone();
        let done = done.clone();
        let target = target.clone();
        cluster.spawn_process(w, format!("writer{w}"), move |ctx, env| {
            let port = env.open_port(ctx);
            barrier.wait(ctx);
            let dst = target.borrow_mut().expect("owner ready");
            let buf = port.alloc_buffer(4096).unwrap();
            port.write_buffer(buf, &pattern(4096, w as u8)).unwrap();
            let off = (w as u64 - 1) * 4096;
            port.rma_write(ctx, dst, 0, off, buf, 4096).unwrap();
            let ev = port.wait_send(ctx);
            assert_eq!(ev.status, SendStatus::Ok);
            done.wait(ctx);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "rma writers hung");
}

#[test]
fn port_close_frees_the_slot_and_purges_pins() {
    let cluster = ClusterSpec::dawning3000(1).build();
    let sim = cluster.sim.clone();
    let node = cluster.nodes[0].clone();
    cluster.spawn_process(0, "cycler", move |ctx, env| {
        let (h0, m0, _) = node.bcl.kmod.pin_stats();
        let port = suca_bcl::BclPort::open(ctx, &env.node.bcl, &env.proc).unwrap();
        let (_, m1, _) = node.bcl.kmod.pin_stats();
        assert!(m1 > m0, "port open pins the system pool");
        port.close(ctx).unwrap();
        // The same process may open a fresh port after closing.
        let port2 = suca_bcl::BclPort::open(ctx, &env.node.bcl, &env.proc).unwrap();
        port2.close(ctx).unwrap();
        let _ = h0;
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

#[test]
fn mesh_fabric_with_faults_also_recovers() {
    let mut spec = ClusterSpec::dawning3000_mesh(4).with_seed(5);
    if let SanKind::Mesh(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.05,
            corrupt_prob: 0.05,
        };
    }
    const N: u32 = 10;
    let sim = two_proc(
        spec,
        3, // diagonal corner of the mesh: multiple hops
        move |ctx, port| {
            for i in 0..N {
                let ev = port.wait_recv(ctx);
                assert_eq!(port.recv_bytes(ctx, &ev).unwrap(), pattern(3000, i as u8));
            }
        },
        move |ctx, port, dst| {
            for i in 0..N {
                port.send_bytes(ctx, dst, ChannelId::SYSTEM, &pattern(3000, i as u8))
                    .unwrap();
                let _ = port.wait_send(ctx);
                ctx.sleep(SimDuration::from_us(200));
            }
        },
    );
    assert!(
        sim.get_count("fabric.dropped") + sim.get_count("fabric.corrupted") > 0,
        "mesh fault injection never fired"
    );
}

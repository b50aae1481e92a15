//! End-to-end recovery: the stall watchdog must fire while a blackholed
//! path stays un-recovered (single rail, no failover possible), and must
//! stay silent when dual-rail failover + epoch resync recover the same
//! blackhole — with every message delivered exactly once across the
//! cutover.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ChannelId;
use suca_chaos::{ChaosController, ChaosPlan, ChaosReport, Fault, StormBuilder};
use suca_cluster::{ClusterSpec, SanKind, SimBarrier};
use suca_mesh::MeshConfig;
use suca_myrinet::FabricNodeId;
use suca_sim::{RunOutcome, SimDuration, SimTime, TelemetryConfig, WatchdogConfig};

#[test]
fn watchdog_fires_during_unrecovered_blackhole() {
    // Single rail: when node 1's cable dies there is nowhere to fail over
    // to. The retransmission loop spins forever, the read chain never
    // closes, and the watchdog must flag it.
    let spec = ClusterSpec::dawning3000(2)
        .with_seed(31)
        .with_telemetry(TelemetryConfig {
            sample_period: SimDuration::from_us(20),
            watchdog: WatchdogConfig {
                chain_budget_ns: 150_000,
                check_every: 1,
            },
        });
    let cluster = spec.build();
    let sim = cluster.sim.clone();

    let mut plan = ChaosPlan::new();
    plan.push(
        SimTime::from_ns(0),
        Fault::LinkFlap {
            rail: 0,
            node: 1,
            down_for: SimDuration::from_ms(1_000), // never revives in-run
        },
    );
    ChaosController::install(&cluster, &plan);

    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    {
        let (barrier, addr) = (barrier.clone(), addr.clone());
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            port.bind_open(ctx, 0, 4096).expect("bind open channel");
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            let _ = port.wait_recv(ctx); // never arrives
        });
    }
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        let into = port.alloc_buffer(1024).expect("alloc");
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        port.rma_read(ctx, dst, 0, 0, into, 1024).expect("read");
        let _ = port.wait_send(ctx); // the data never comes back
    });

    assert_eq!(
        sim.run_until(SimTime::from_ns(5_000_000)),
        RunOutcome::Pending,
        "an unrecovered blackhole never drains the queue"
    );
    assert_eq!(sim.get_count("chaos.link_down"), 1, "fault not counted");
    assert!(
        sim.get_count("link.down_drops") > 0,
        "blackholed packets must be counted drops"
    );
    assert!(
        sim.get_count("watchdog.stalls") >= 1,
        "watchdog must flag the open chain"
    );
}

#[test]
fn failover_recovers_the_blackhole_and_keeps_the_watchdog_silent() {
    // Dual rail (Myrinet + mesh): the same permanent rail-0 blackhole now
    // resolves through path death -> rail failover -> epoch resync. Every
    // message must arrive exactly once, in order, and the armed watchdog
    // must never fire.
    const MSGS: u32 = 24;
    const OUTAGE_AT: u64 = 300_000; // 300 us: mid-stream
    let mut spec = ClusterSpec::dawning3000(2)
        .with_seed(32)
        .with_second_san(SanKind::Mesh(MeshConfig::dawning3000()))
        .with_telemetry(TelemetryConfig {
            sample_period: SimDuration::from_us(20),
            watchdog: WatchdogConfig {
                chain_budget_ns: 10_000_000, // 10 ms >> recovery latency
                check_every: 1,
            },
        });
    spec.bcl.reliability.max_path_timeouts = 3;
    let cluster = spec.build();
    let sim = cluster.sim.clone();

    let mut plan = ChaosPlan::new();
    plan.push(
        SimTime::from_ns(OUTAGE_AT),
        Fault::LinkFlap {
            rail: 0,
            node: 1,
            // Far beyond the stream's lifetime, so recovery happens via
            // failover, not revival (kept short enough that the revival
            // event doesn't stretch the drained run).
            down_for: SimDuration::from_ms(50),
        },
    );
    ChaosController::install(&cluster, &plan);

    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    {
        let (barrier, addr) = (barrier.clone(), addr.clone());
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            for i in 0..MSGS {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).expect("recv");
                // Exactly-once and in-order across the cutover: message i
                // carries byte i, so a lost, duplicated, or reordered
                // message fails here.
                assert_eq!(data, vec![i as u8; 64], "message {i} corrupted");
                port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, b"")
                    .expect("pacing reply");
            }
        });
    }
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        for i in 0..MSGS {
            port.send_bytes(ctx, dst, ChannelId::SYSTEM, &[i as u8; 64])
                .expect("send");
            loop {
                let ev = port.wait_recv(ctx);
                let _ = port.recv_bytes(ctx, &ev).expect("consume reply");
                if ev.len == 0 {
                    break;
                }
            }
            while port.poll_send(ctx).is_some() {}
        }
    });

    assert_eq!(
        sim.run(),
        RunOutcome::Completed,
        "failover must let the stream finish"
    );
    assert_eq!(sim.get_count("chaos.link_down"), 1, "fault not counted");
    assert!(
        sim.get_count("mcp.path_deaths") >= 1,
        "retransmission exhaustion must declare the path dead"
    );
    assert!(
        sim.get_count("mcp.rail_failovers") >= 1,
        "dual-rail node must fail over"
    );
    assert_eq!(
        cluster.nodes[0].bcl.mcp.active_rail(FabricNodeId(1)),
        1,
        "node 0 must now route to node 1 over rail 1"
    );
    assert_eq!(
        sim.get_count("watchdog.stalls"),
        0,
        "recovered blackhole must keep the watchdog silent"
    );
    let report = ChaosReport::gather(&sim, "failover_e2e", 32);
    assert!(
        report.epoch_resyncs >= 1,
        "recovery must complete an epoch resync"
    );
    assert!(
        report.recovery_p50_us > 0.0,
        "recovery latency must be recorded"
    );
}

#[test]
fn frames_die_with_the_state_that_held_them_under_a_dual_rail_storm() {
    // Every page a `send_bytes` frees while the NIC still needs it must be
    // reclaimed whichever way the NIC forgets it: completion, a late
    // reject's retries, failover — or an SRAM wipe that drops queued,
    // active and remembered jobs (and the staging DMAs in flight) at once.
    const MSGS: u32 = 400;
    let window = (SimTime::from_ns(200_000), SimTime::from_ns(6_000_000));
    let plan = StormBuilder::new(77)
        .link_flaps(
            0,
            &[0, 1],
            3,
            window,
            (SimDuration::from_us(200), SimDuration::from_ms(2)),
        )
        .nic_resets(&[0, 0, 1], 4, window)
        .build();
    let mut spec = ClusterSpec::dawning3000(2)
        .with_seed(33)
        .with_second_san(SanKind::Mesh(MeshConfig::dawning3000()));
    spec.bcl.reliability.max_path_timeouts = 3;
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    ChaosController::install(&cluster, &plan);

    let memories: Vec<_> = cluster
        .nodes
        .iter()
        .map(|n| n.os.memory().clone())
        .collect();
    let post_setup = Rc::new(RefCell::new(Vec::new()));
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let delivered = Rc::new(RefCell::new(0u32));
    let quiet = SimDuration::from_ms(20);
    {
        let (barrier, addr, delivered) = (barrier.clone(), addr.clone(), delivered.clone());
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            // Normal channels are posted late, so their messages are
            // refused and retried from pages the sender already freed.
            let late: Vec<_> = (0..4u16)
                .map(|_| port.alloc_buffer(2048).expect("alloc"))
                .collect();
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            ctx.sleep(SimDuration::from_ms(1));
            for (c, &buf) in late.iter().enumerate() {
                port.post_recv_at(ctx, c as u16, buf, 2048).expect("post");
            }
            while let Some(ev) = port.wait_recv_timeout(ctx, quiet) {
                let data = port.recv_bytes(ctx, &ev).expect("recv");
                assert!(data.iter().all(|&b| b == data[0]), "payload torn");
                *delivered.borrow_mut() += 1;
                if ev.channel.kind == suca_bcl::ChannelKind::Normal {
                    let c = ev.channel.index;
                    // A reset may have eaten the posting; re-arm either way.
                    let _ = port.post_recv_at(ctx, c, late[c as usize], 2048);
                }
            }
        });
    }
    {
        let (memories, post_setup) = (memories.clone(), post_setup.clone());
        cluster.spawn_process(0, "tx", move |ctx, env| {
            let port = env.open_port(ctx);
            barrier.wait(ctx);
            *post_setup.borrow_mut() = memories.iter().map(|m| m.allocated_frames()).collect();
            let dst = addr.borrow_mut().expect("rx ready");
            for i in 0..MSGS {
                let (channel, len) = match i % 8 {
                    7 => (ChannelId::normal((i / 8 % 4) as u16), 2000),
                    _ => (ChannelId::SYSTEM, 64 + (i as usize * 37) % 3000),
                };
                // Refused sends (ring full, path declared dead) are part of
                // the storm; what matters here is that nothing leaks.
                if port
                    .send_bytes(ctx, dst, channel, &vec![i as u8; len])
                    .is_err()
                {
                    port.wait_send_timeout(ctx, SimDuration::from_us(200));
                }
                while port.poll_send(ctx).is_some() {}
                ctx.sleep(SimDuration::from_us(15));
            }
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed, "the storm must drain");
    assert!(sim.get_count("chaos.nic_reset") >= 4, "resets not injected");
    assert!(
        sim.get_count("bcl.msg_retries") > 0,
        "no late-posted message was retried; the test is vacuous"
    );
    assert!(*delivered.borrow() > MSGS / 2, "the storm ate the stream");
    let now: Vec<u64> = memories.iter().map(|m| m.allocated_frames()).collect();
    assert_eq!(now, *post_setup.borrow(), "frames leaked (or double-freed)");
    assert_eq!(sim.get_count("mem.dma_lifetime_violations"), 0);
}

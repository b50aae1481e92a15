//! End-to-end telemetry: the continuous sampler, the critical-path
//! bottleneck attribution, and the stall watchdog, all driven through real
//! cluster runs. Clean streams must reproduce the paper's Fig 5/7 stage
//! identities within 1% and keep the watchdog silent; a fault-injected
//! wedged retransmission loop must trip it; fixed seeds must give
//! byte-identical timeseries JSON; and the NIC SRAM working set must stay
//! bounded while pinned host memory grows with the application working set.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ChannelId;
use suca_cluster::{Cluster, ClusterSpec, SanKind, SimBarrier};
use suca_myrinet::FaultPlan;
use suca_sim::{critpath, RunOutcome, SimDuration, SimTime, TelemetryConfig, WatchdogConfig};

/// Stream `msgs` messages of `size` bytes node 0 → node 1 from a rotating
/// working set of `bufs` distinct send buffers, with a 0 B pacing reply per
/// message so neither the system pool nor the send ring ever saturates.
fn stream(spec: ClusterSpec, size: u64, msgs: u32, bufs: usize) -> Cluster {
    let use_system = size <= spec.bcl.system_pool.buffer_bytes;
    let channel = if use_system {
        ChannelId::SYSTEM
    } else {
        ChannelId::normal(0)
    };
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    {
        let barrier = barrier.clone();
        let addr = addr.clone();
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr.borrow_mut() = Some(port.addr());
            let buf = if use_system {
                None
            } else {
                Some(port.post_recv(ctx, 0, size).expect("post"))
            };
            barrier.wait(ctx);
            for _ in 0..msgs {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).expect("recv");
                assert_eq!(data.len() as u64, size);
                if let Some(a) = buf {
                    port.post_recv_at(ctx, 0, a, size).expect("re-post");
                }
                port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, b"")
                    .expect("pacing reply");
            }
        });
    }
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        let working_set: Vec<_> = (0..bufs)
            .map(|i| {
                let buf = port.alloc_buffer(size.max(1)).expect("alloc");
                port.write_buffer(buf, &vec![i as u8; size as usize])
                    .expect("fill");
                buf
            })
            .collect();
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        for i in 0..msgs {
            let buf = working_set[i as usize % bufs];
            port.send(ctx, dst, channel, buf, size).expect("send");
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
    assert_eq!(sim.run(), RunOutcome::Completed, "telemetry stream hung");
    cluster
}

#[test]
fn clean_stream_matches_fig5_fig7_identities_and_watchdog_stays_silent() {
    let cluster = stream(ClusterSpec::dawning3000(2), 0, 20, 1);
    let sim = &cluster.sim;

    // The default-armed watchdog must not fire on a clean harness.
    assert_eq!(sim.get_count("watchdog.stalls"), 0, "clean run flagged");

    // The sampler ran on the sim clock and saw every registered probe.
    let snap = sim.timeseries().snapshot();
    assert!(snap.samples_taken > 0, "sampler never ticked");
    assert!(
        snap.series.iter().all(|s| !s.points.is_empty()),
        "every registered probe must be sampled"
    );

    // Critical-path attribution reproduces the paper's stage identities.
    let report = critpath::bottleneck_report(&critpath::analyze(&cluster.trace_events()));
    let b0 = report.bucket_for(0).expect("0 B bucket");
    let host_us = b0.host_ns_per_msg() / 1000.0;
    let fill = b0.request_fill_share();
    let kernel_us = b0.kernel_ns_per_msg() / 1000.0;
    assert!(
        (host_us - 7.04).abs() / 7.04 < 0.01,
        "Fig 5 host send overhead drifted: {host_us} us"
    );
    assert!(
        fill > 0.5,
        "Fig 5: request fill (dispatch+PIO) must exceed half the send window, got {fill}"
    );
    assert!(
        (kernel_us - 4.17).abs() / 4.17 < 0.01,
        "Fig 7 kernel-resident stage sum drifted: {kernel_us} us"
    );
}

#[test]
fn watchdog_fires_on_wedged_retransmission_loop() {
    // Drop every packet under an RMA read: data sends complete at
    // injection (firmware reliability is transparent to the sender), but a
    // read only completes when the remote's data lands — which it never
    // does. The go-back-N loop probes for the request forever (every
    // 300 us: no ack ever gives an RTT sample), the chain records a SEND
    // but never a terminal stage, and the event queue never drains — the
    // livelock shape a deadlock detector misses. Tighten the budget below
    // the probe period so the chain looks stale at check time within a
    // short bounded run.
    let mut spec = ClusterSpec::dawning3000(2).with_seed(23);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
        };
    }
    let spec = spec.with_telemetry(TelemetryConfig {
        sample_period: SimDuration::from_us(20),
        watchdog: WatchdogConfig {
            chain_budget_ns: 100_000, // < the 300 us probe interval (no ack, no RTT sample)
            check_every: 1,
        },
    });

    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    {
        let barrier = barrier.clone();
        let addr = addr.clone();
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

    assert!(!sim.msg_trace().has_dumped());
    assert_eq!(
        sim.run_until(SimTime::from_ns(30_000_000)),
        RunOutcome::Pending,
        "a wedged retransmission loop never drains the queue"
    );
    assert!(
        sim.get_count("watchdog.stalls") >= 1,
        "watchdog must flag the open chain"
    );
    assert!(
        sim.msg_trace().has_dumped(),
        "first stall must dump the flight recorder"
    );
}

#[test]
fn fixed_seed_cluster_timeseries_is_byte_identical() {
    let run = || {
        let c = stream(ClusterSpec::dawning3000(2).with_seed(99), 0, 15, 1);
        c.sim.timeseries().snapshot().to_json()
    };
    let a = run();
    assert!(a.contains("\"series\""));
    assert_eq!(a, run(), "same seed must give byte-identical telemetry");
}

#[test]
fn sram_stays_bounded_while_pinned_pages_grow_with_working_set() {
    // Satellite: the paper's resource story. The NIC's 2 MB SRAM holds a
    // bounded working set regardless of application footprint, while the
    // kernel pin table grows with the set of distinct user buffers.
    let high_waters = |bufs: usize| {
        let spec = ClusterSpec::dawning3000(2);
        let sram_cap = spec.bcl.nic_sram_bytes;
        let c = stream(spec, 16 * 1024, 32, bufs);
        let sram = c.sim.metrics().gauge("nic.sram_used").high_water();
        let pinned = c.sim.metrics().gauge("kmod.pinned_bytes").high_water();
        assert!(
            sram <= sram_cap,
            "NIC SRAM over capacity: {sram} > {sram_cap}"
        );
        assert_eq!(c.sim.get_count("watchdog.stalls"), 0);
        (sram, pinned)
    };
    let (sram_small, pinned_small) = high_waters(2);
    let (sram_large, pinned_large) = high_waters(24);
    assert!(
        pinned_large > pinned_small,
        "pinned host bytes must grow with the working set: {pinned_large} vs {pinned_small}"
    );
    // The SRAM footprint is workload-paced, not working-set-sized: a 12x
    // larger application footprint must not cost 12x the NIC SRAM.
    assert!(
        sram_large < sram_small * 4,
        "NIC SRAM must not scale with the application working set: {sram_large} vs {sram_small}"
    );
}

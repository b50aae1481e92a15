//! Overload behaviour of the blocking receive path: `wait_recv_timeout`
//! under a fast sender when the receiver has stopped posting buffers.
//!
//! Two regimes, matching the paper's flow-control story:
//!
//! * **Normal channels** rendezvous on posted buffers. An unposted channel
//!   bounces the message back with a Reject; the sender's NIC retries on a
//!   timer while the receiver observes clean timeouts (`None`), and the
//!   message delivers as soon as a buffer appears — no data loss, bounded
//!   queues, and a silent watchdog throughout.
//! * **The system channel** absorbs bursts into a fixed 64-buffer pool and
//!   silently discards overflow ("the message will be discarded" — §3 of
//!   the paper). Draining through `wait_recv_timeout` yields exactly
//!   pool-many events and then a timeout, never a stall.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{ChannelId, ProcAddr, SendStatus};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::{RunOutcome, SimDuration};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Receiver refuses to post buffers while a fast sender hammers a normal
/// channel: every blocking wait times out, every message is rejected and
/// retried NIC-side, and the moment buffers appear the whole backlog
/// delivers. The watchdog must stay silent — reject/retry is flow control,
/// not a stall.
#[test]
fn unposted_channel_times_out_then_recovers() {
    const MSGS: u32 = 4;
    const STARVE_POLLS: u32 = 10;
    let cluster = ClusterSpec::dawning3000(2).with_seed(0x0E41).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Starvation phase: no buffer posted, so nothing can complete. The
        // blocking wait must return None on schedule, not hang, while the
        // sender's messages bounce off the unposted channel.
        let mut timeouts = 0;
        let mut max_recv_depth = 0;
        for _ in 0..STARVE_POLLS {
            let ev = port.wait_recv_timeout(ctx, SimDuration::from_us(100));
            assert!(ev.is_none(), "nothing was posted; got {ev:?}");
            timeouts += 1;
            max_recv_depth = max_recv_depth.max(port.queue_depths().1);
        }
        assert_eq!(timeouts, STARVE_POLLS);
        assert_eq!(
            max_recv_depth, 0,
            "rejected messages must not occupy the completion queue"
        );
        // Recovery: a normal channel holds one posted buffer at a time, so
        // post/receive/re-post; the NIC-side retry timer re-offers each
        // rejected message within 50 µs of a buffer appearing. Retry order
        // across messages is a NIC scheduling detail, so match by salt.
        let mut salts = Vec::new();
        for i in 0..MSGS {
            port.post_recv(ctx, 0, 4096).unwrap();
            let ev = port
                .wait_recv_timeout(ctx, SimDuration::from_ms(5))
                .unwrap_or_else(|| panic!("message {i} never arrived after recovery"));
            assert_eq!(ev.channel, ChannelId::normal(0));
            let data = port.recv_bytes(ctx, &ev).unwrap();
            let salt = data[0];
            assert_eq!(data, pattern(512, salt), "message with salt {salt} damaged");
            salts.push(salt);
        }
        salts.sort_unstable();
        let expect: Vec<u8> = (0..MSGS as u8).collect();
        assert_eq!(salts, expect, "every rejected message must deliver once");
    });
    let b3 = barrier.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().expect("receiver published its address");
        for i in 0..MSGS {
            port.send_bytes(ctx, dst, ChannelId::normal(0), &pattern(512, i as u8))
                .unwrap();
        }
        // All sends eventually complete Ok: the rejects were absorbed by
        // the NIC retry machinery, invisible to the application.
        for i in 0..MSGS {
            let ev = port
                .wait_send_timeout(ctx, SimDuration::from_ms(20))
                .unwrap_or_else(|| panic!("send {i} never completed"));
            assert_eq!(ev.status, SendStatus::Ok, "send {i} failed");
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert!(
        sim.get_count("bcl.rx_not_ready") > 0,
        "receiver never refused a message; starvation phase is vacuous"
    );
    assert!(
        sim.get_count("mcp.rejects_sent") > 0,
        "no reject control packets on the wire"
    );
    assert!(
        sim.get_count("bcl.msg_retries") > 0,
        "sender NIC never retried"
    );
    assert_eq!(
        sim.get_count("bcl.msg_failed"),
        0,
        "no message may exhaust its retry budget"
    );
    assert_eq!(
        sim.get_count("watchdog.stalls"),
        0,
        "reject/retry flow control must not look like a stall"
    );
}

/// A burst past the system pool's capacity while the receiver sits idle:
/// overflow is silently discarded (the paper's stated policy), the drain
/// yields exactly pool-many messages, and the wait after the last one is a
/// clean timeout. A full pool is load, not a stall: the watchdog flags only
/// message chains silent past its budget.
#[test]
fn system_pool_burst_drains_to_exactly_pool_capacity() {
    const OVERFLOW: u32 = 36;
    let cluster = ClusterSpec::dawning3000(2).with_seed(0x0E42).build();
    let sim = cluster.sim.clone();
    let pool = cluster.nodes[0].bcl.config().system_pool.buffers;
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    let ab = addr_b.clone();
    let b2 = barrier.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Idle through the burst, then drain with the blocking timeout
        // wait.
        ctx.sleep(SimDuration::from_ms(3));
        let mut got = 0u32;
        while let Some(ev) = port.wait_recv_timeout(ctx, SimDuration::from_us(200)) {
            let _ = port.recv_bytes(ctx, &ev).unwrap();
            got += 1;
            assert!(got <= pool, "received more than the pool can hold");
        }
        assert_eq!(got, pool, "drain must yield exactly pool-many messages");
        // The pool is empty again: one more wait is a pure timeout.
        assert!(port
            .wait_recv_timeout(ctx, SimDuration::from_us(200))
            .is_none());
    });
    let b3 = barrier.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().expect("receiver published its address");
        for i in 0..pool + OVERFLOW {
            port.send_bytes(ctx, dst, ChannelId::SYSTEM, &i.to_le_bytes())
                .unwrap();
            // Pace on the send ring so the sender itself never overflows;
            // the receiver-side pool is the only bottleneck under test.
            let ev = port
                .wait_send_timeout(ctx, SimDuration::from_ms(1))
                .expect("send ring wedged");
            assert_eq!(ev.status, SendStatus::Ok);
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(
        sim.get_count("bcl.sys_pool_discard"),
        u64::from(OVERFLOW),
        "every message past the pool must be discarded, none twice"
    );
    assert_eq!(
        sim.get_count("watchdog.stalls"),
        0,
        "a transiently full pool is not a stall"
    );
}

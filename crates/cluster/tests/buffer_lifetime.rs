//! Buffer lifetime end to end: frames die when the NIC lets go of them, a
//! long run fits in a small node, a frame holds only the bytes written to
//! it, and the DMA-lifetime checker counts a host write into a buffer the
//! NIC is still reading (the bug class of the RPC response-scratch
//! corruption) — once, with one flight-recorder dump.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{ChannelId, ProcAddr, SendStatus};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_eadi::Universe;
use suca_mem::{PhysMemory, PAGE_SIZE};
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::{RunOutcome, SimDuration};

const VIOLATIONS: &str = "mem.dma_lifetime_violations";
const PIN_MISSES: &str = "kmod.pin_misses";

/// `rma_write` from a scratch buffer, then overwrite the scratch — after the
/// send completion (`wait_first`) or racing the NIC. Returns the violation
/// count, whether the flight recorder dumped, and what landed in the window.
fn overwrite_scratch_after_rma_write(wait_first: bool) -> (u64, bool, Vec<u8>) {
    const LEN: u64 = 1024;
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let landed = Rc::new(RefCell::new(Vec::new()));
    {
        let (barrier, addr, landed) = (barrier.clone(), addr.clone(), landed.clone());
        cluster.spawn_process(1, "window", move |ctx, env| {
            let port = env.open_port(ctx);
            let win = port.bind_open(ctx, 0, LEN).expect("bind");
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            barrier.wait(ctx); // the writer is done
            ctx.sleep(suca_sim::SimDuration::from_us(500));
            *landed.borrow_mut() = port.read_buffer(win, LEN).expect("read window");
        });
    }
    cluster.spawn_process(0, "writer", move |ctx, env| {
        let port = env.open_port(ctx);
        let scratch = port.alloc_buffer(LEN).expect("alloc");
        port.write_buffer(scratch, &[0xAA; LEN as usize])
            .expect("fill");
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("window bound");
        port.rma_write(ctx, dst, 0, 0, scratch, LEN).expect("write");
        if wait_first {
            assert_eq!(port.wait_send(ctx).status, SendStatus::Ok);
        }
        // The next response re-uses the scratch.
        port.write_buffer(scratch, &[0x55; LEN as usize])
            .expect("reuse");
        barrier.wait(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let landed = landed.borrow().clone();
    (
        sim.get_count(VIOLATIONS),
        sim.msg_trace().has_dumped(),
        landed,
    )
}

#[test]
fn host_write_into_a_buffer_the_nic_still_reads_is_one_counted_violation() {
    let (violations, dumped, _) = overwrite_scratch_after_rma_write(false);
    assert_eq!(violations, 1, "exactly the one overwrite");
    assert!(dumped, "the first violation dumps the flight recorder");
}

#[test]
fn host_write_after_the_send_completion_is_clean() {
    let (violations, dumped, landed) = overwrite_scratch_after_rma_write(true);
    assert_eq!((violations, dumped), (0, false));
    assert_eq!(landed, vec![0xAA; 1024], "the bytes sent, not the re-use");
}

/// 512 B messages DMA'd into page-sized posted buffers cost the receiver
/// their 512 B, not a page each: a frame holds only its written prefix.
#[test]
fn small_messages_into_page_sized_buffers_hold_only_their_bytes() {
    const MSGS: u16 = 16;
    const LEN: u64 = 512;
    let cluster = ClusterSpec::dawning3000(2).with_trace_sampling(0).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let rx_mem = cluster.nodes[1].os.memory().clone();
    let grown = Rc::new(RefCell::new(0u64));
    let message = |chan: u16| vec![chan as u8 + 1; LEN as usize];
    {
        let (barrier, addr, grown) = (barrier.clone(), addr.clone(), grown.clone());
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr.borrow_mut() = Some(port.addr());
            let posted: Vec<_> = (0..MSGS)
                .map(|chan| port.post_recv(ctx, chan, PAGE_SIZE).expect("post"))
                .collect();
            let before = rx_mem.resident_bytes();
            barrier.wait(ctx);
            for _ in 0..MSGS {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).expect("recv");
                assert_eq!(data, message(ev.channel.index), "message damaged");
            }
            *grown.borrow_mut() = rx_mem.resident_bytes() - before;
            for (chan, buf) in (0..MSGS).zip(posted) {
                let page = port.read_buffer(buf, PAGE_SIZE).expect("read");
                assert_eq!(page[..LEN as usize], message(chan), "channel {chan}");
                assert!(page[LEN as usize..].iter().all(|&b| b == 0));
            }
        });
    }
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("receiver ready");
        for chan in 0..MSGS {
            let buf = port.alloc_buffer(LEN).expect("alloc");
            port.write_buffer(buf, &message(chan)).expect("fill");
            port.send(ctx, dst, ChannelId::normal(chan), buf, LEN)
                .expect("send");
        }
        for _ in 0..MSGS {
            assert_eq!(port.wait_send(ctx).status, SendStatus::Ok);
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let grown = *grown.borrow();
    let msgs = u64::from(MSGS);
    assert!(grown >= msgs * LEN, "{grown} B cannot hold {msgs} messages");
    assert!(
        grown < msgs * 1024,
        "{grown} B resident for {msgs} written frames: over 1 KiB each"
    );
}

/// `rounds` ping-pong round trips between nodes 0 and 1 in which *both*
/// directions are `send_bytes` of a 64-byte payload, each staged in one of
/// its port's staging buffers and free again once its completion is posted.
/// Node 1 never polls its send queue, so its buffers come back unconsumed.
/// Returns the two nodes' allocated frames after round `sample_at` and
/// after the last round (sampled at the same point of the loop), the
/// `kmod.pin_misses` count once both ports are open, and the cluster for
/// its counters.
fn send_bytes_ping_pong(
    spec: ClusterSpec,
    rounds: u32,
    sample_at: u32,
) -> ([u64; 2], u64, suca_cluster::Cluster) {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let memories: Vec<PhysMemory> = cluster
        .nodes
        .iter()
        .map(|n| n.os.memory().clone())
        .collect();
    let samples = Rc::new(RefCell::new([0u64; 2]));
    let misses_at_open = Rc::new(RefCell::new(0u64));
    {
        let (barrier, addr) = (barrier.clone(), addr.clone());
        cluster.spawn_process(1, "pong", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            for _ in 0..rounds {
                let ev = port.wait_recv(ctx);
                let ping = port.recv_bytes(ctx, &ev).expect("ping");
                port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, &ping)
                    .expect("pong");
            }
            // The port, and its staging buffer, outlive the last sample.
            barrier.wait(ctx);
        });
    }
    {
        let (samples, misses_at_open) = (samples.clone(), misses_at_open.clone());
        cluster.spawn_process(0, "ping", move |ctx, env| {
            let port = env.open_port(ctx);
            barrier.wait(ctx);
            *misses_at_open.borrow_mut() = ctx.sim().get_count(PIN_MISSES);
            let dst = addr.borrow_mut().expect("pong opened first");
            for round in 1..=rounds {
                let ping = [round as u8; 64];
                port.send_bytes(ctx, dst, ChannelId::SYSTEM, &ping)
                    .expect("ping");
                let ev = port.wait_recv(ctx);
                assert_eq!(port.recv_bytes(ctx, &ev).expect("pong"), ping);
                while port.poll_send(ctx).is_some() {}
                let frames = || memories.iter().map(|m| m.allocated_frames()).sum();
                if round == sample_at {
                    samples.borrow_mut()[0] = frames();
                } else if round == rounds {
                    samples.borrow_mut()[1] = frames();
                }
            }
            barrier.wait(ctx);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "ping-pong stuck");
    let samples = *samples.borrow();
    let misses_at_open = *misses_at_open.borrow();
    (samples, misses_at_open, cluster)
}

#[test]
fn six_thousand_send_bytes_round_trips_fit_in_an_8_mib_node() {
    // 8 MiB is 2,048 frames, 64 of them each port's pool: with a page per
    // `send_bytes` never freed, this dies of `Mem(OutOfMemory)` after about
    // 1.9 k round trips.
    let mut spec = ClusterSpec::dawning3000(2).with_trace_sampling(0);
    spec.mem_bytes = 8 << 20;
    let ([early, late], misses_at_open, cluster) = send_bytes_ping_pong(spec, 6_000, 100);
    assert_eq!(early, late, "frames in use must not grow with the run");
    assert_eq!(cluster.sim.get_count(VIOLATIONS), 0);
    // Each port's first send pins its staging buffer; every later one hits.
    let misses = cluster.sim.get_count(PIN_MISSES) - misses_at_open;
    assert!(misses <= 2, "{misses} pin-down misses over the run");
    // Dead pages left the pin-down table with their frames.
    let pinned: usize = cluster
        .nodes
        .iter()
        .map(|n| n.bcl.kmod.pinned_pages())
        .sum();
    assert!(
        pinned <= 2 * 64 + 2,
        "pin table still counts {pinned} pages"
    );
}

/// Every buffer a `Comm` keeps across a send — offload payload and result,
/// rendezvous segments on both sides, staged control messages — is its
/// port's pool's, and dies with the port: after offloaded collectives and
/// one rendezvous, dropping every rank's `Comm` leaves each node at the
/// frames it held once the ranks were set up.
#[test]
fn a_dropped_comm_leaves_each_node_at_its_post_setup_frames() {
    const NODES: u32 = 2;
    const RANKS: u32 = 4;
    let cluster = ClusterSpec::dawning3000(NODES)
        .with_trace_sampling(0)
        .build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, RANKS);
    let barrier = SimBarrier::new(&sim, RANKS);
    let memories: Vec<PhysMemory> = cluster
        .nodes
        .iter()
        .map(|n| n.os.memory().clone())
        .collect();
    // Each node's frames after setup, at the end of the run, and at its end.
    let samples = Rc::new(RefCell::new(Vec::new()));
    for r in 0..RANKS {
        let (uni, barrier) = (uni.clone(), barrier.clone());
        let (memories, samples) = (memories.clone(), samples.clone());
        cluster.spawn_process(r % NODES, format!("mpi{r}"), move |ctx, env| {
            let frames = || -> Vec<u64> { memories.iter().map(|m| m.allocated_frames()).collect() };
            let sample = |ctx: &mut suca_sim::ActorCtx| {
                barrier.wait(ctx);
                if r == 0 {
                    // Let the NIC let go of what it still holds.
                    ctx.sleep(SimDuration::from_ms(1));
                    samples.borrow_mut().push(frames());
                }
                barrier.wait(ctx);
            };
            let cfg = MpiConfig::dawning3000();
            let comm = Comm::init(ctx, &env.node.bcl, &env.proc, uni, r, cfg);
            sample(ctx);
            comm.barrier(ctx);
            let sum = comm.allreduce_f64(ctx, &[f64::from(r); 8], ReduceOp::Sum);
            assert_eq!(sum, [6.0; 8], "rank {r}: allreduce");
            let mut blob = vec![f64::from(r); 32];
            comm.bcast_f64(ctx, 1, &mut blob);
            assert_eq!(blob, [1.0; 32], "rank {r}: bcast");
            match r {
                0 => comm.send(ctx, 1, 5, &[9; 20_000]),
                1 => assert_eq!(comm.recv(ctx, 0, 5).data, [9; 20_000]),
                _ => {}
            }
            sample(ctx);
            drop(comm);
            sample(ctx);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "MPI job hung");
    let samples = samples.borrow();
    let [set_up, ran, dropped] = [&samples[0], &samples[1], &samples[2]];
    for node in 0..NODES as usize {
        assert!(ran[node] > set_up[node], "node {node} pooled nothing");
        assert_eq!(dropped[node], set_up[node], "node {node}: frames left");
    }
    assert_eq!(sim.get_count(VIOLATIONS), 0);
    assert_eq!(sim.get_count("mpi.coll_launch_failed"), 0);
    assert_eq!(sim.get_count("mpi.coll_nic_rejected"), 0);
}

#[test]
#[ignore = "1 M messages: run in release (CI does)"]
fn a_million_messages_keep_a_flat_frame_count() {
    let spec = ClusterSpec::dawning3000(2).with_trace_sampling(0);
    let ([at_10k, at_1m], _, cluster) = send_bytes_ping_pong(spec, 500_000, 5_000);
    assert_eq!(at_10k, at_1m, "frames at message 10 k vs message 1 M");
    assert_eq!(cluster.sim.get_count(VIOLATIONS), 0);
}

//! The comparator architectures of Tables 1–2 on the one BCL stack: data
//! integrity, ordering, and each architecture's kernel crossings, counted
//! by the OS and held per message to its own chain budget.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{Architecture, BclPort, ChannelId, ProcAddr};
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_mem::VirtAddr;
use suca_sim::mtrace::check_completeness;
use suca_sim::{ActorCtx, RunOutcome, TraceId};

/// What each process of [`on_both`] runs once both ports are up:
/// `(node, ctx, port, peer's address, posted buffer)`.
type Body = dyn Fn(u32, &mut ActorCtx, &BclPort, ProcAddr, Option<VirtAddr>);

/// One process on each node of a two-node cluster playing `arch`. Each
/// opens its port, posts a `post`-byte buffer on normal channel 0 when
/// `post > 0`, and meets the other at a barrier before running `body`.
/// Runs the simulation to completion.
fn on_both(arch: Architecture, post: u64, body: Rc<Body>) -> Cluster {
    let cluster = ClusterSpec::dawning3000(2).with_architecture(arch).build();
    let barrier = SimBarrier::new(&cluster.sim, 2);
    let addrs: Rc<RefCell<Vec<Option<ProcAddr>>>> = Rc::new(RefCell::new(vec![None; 2]));
    for node in 0..2u32 {
        let (barrier, addrs, body) = (barrier.clone(), addrs.clone(), body.clone());
        cluster.spawn_process(node, format!("p{node}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[node as usize] = Some(port.addr());
            let posted = (post > 0).then(|| port.post_recv(ctx, 0, post).expect("post"));
            barrier.wait(ctx);
            let peer = addrs.borrow_mut()[1 - node as usize].expect("peer opened");
            body(node, ctx, &port, peer, posted);
        });
    }
    assert_eq!(cluster.sim.run(), RunOutcome::Completed);
    cluster
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| ((i % 251) as u8) ^ salt).collect()
}

#[test]
fn payload_integrity_through_fragmentation() {
    const LEN: usize = 100_000;
    for arch in Architecture::ALL {
        on_both(
            arch,
            LEN as u64,
            Rc::new(move |node, ctx, port, peer, posted| {
                if node == 0 {
                    let buf = port.alloc_buffer(LEN as u64).expect("buf");
                    port.write_buffer(buf, &pattern(LEN, 7)).expect("fill");
                    port.send(ctx, peer, ChannelId::normal(0), buf, LEN as u64)
                        .expect("send");
                } else {
                    let ev = port.wait_recv(ctx);
                    assert_eq!(ev.src.node.0, 0, "{arch:?}");
                    let data = port.read_buffer(posted.expect("posted"), ev.len);
                    assert_eq!(data.expect("read"), pattern(LEN, 7), "{arch:?}");
                }
            }),
        );
    }
}

#[test]
fn messages_arrive_in_send_order() {
    on_both(
        Architecture::Gm,
        0,
        Rc::new(|node, ctx, port, peer, _| {
            for i in 0..10u32 {
                if node == 0 {
                    port.send_bytes(ctx, peer, ChannelId::SYSTEM, &i.to_le_bytes())
                        .expect("send");
                } else {
                    let ev = port.wait_recv(ctx);
                    let data = port.recv_bytes(ctx, &ev).expect("data");
                    assert_eq!(u32::from_le_bytes(data.try_into().expect("4")), i);
                }
            }
        }),
    );
}

#[test]
fn kernel_level_counts_a_trap_per_send_and_recv() {
    // (traps on node 0 while sending, traps on node 1 while receiving)
    let traps = Rc::new(RefCell::new((0u64, 0u64)));
    let t2 = traps.clone();
    let cluster = on_both(
        Architecture::KernelLevel,
        0,
        Rc::new(move |node, ctx, port, peer, _| {
            let counter = format!("os.traps.n{node}");
            let before = ctx.sim().get_count(&counter);
            for _ in 0..3 {
                if node == 0 {
                    port.send_bytes(ctx, peer, ChannelId::SYSTEM, b"x")
                        .expect("send");
                } else {
                    let ev = port.wait_recv(ctx);
                    port.recv_bytes(ctx, &ev).expect("data");
                }
            }
            let made = ctx.sim().get_count(&counter) - before;
            let mut t = t2.borrow_mut();
            *if node == 0 { &mut t.0 } else { &mut t.1 } = made;
        }),
    );
    assert_eq!(
        *traps.borrow(),
        (3, 3),
        "one trap per send, one per receive"
    );
    assert_eq!(
        cluster.sim.get_count("os.interrupts"),
        3,
        "one per delivery"
    );
}

#[test]
fn every_architecture_meets_its_own_chain_policy_per_message() {
    for arch in Architecture::ALL {
        let sent = Rc::new(RefCell::new(None));
        let s2 = sent.clone();
        let cluster = on_both(
            arch,
            0,
            Rc::new(move |node, ctx, port, peer, _| {
                if node == 0 {
                    let msg_id = port
                        .send_bytes(ctx, peer, ChannelId::SYSTEM, b"one message")
                        .expect("send");
                    *s2.borrow_mut() = Some(TraceId::new(0, msg_id));
                } else {
                    let _ = port.wait_recv(ctx);
                }
            }),
        );
        let id = sent.borrow_mut().expect("sent");
        let mut events = cluster.trace_events();
        events.retain(|ev| ev.trace == id);
        let report = check_completeness(&events, &arch.chain_policy());
        assert_eq!(report.chains.len(), 1, "{arch:?}: one message, one chain");
        assert!(report.is_closed(), "{arch:?}: {:?}", report.violations);
        let chain = &report.chains[0];
        assert_eq!(
            (chain.traps, chain.interrupts),
            (arch.traps(), arch.interrupts())
        );
    }
}

#[test]
fn poll_recv_is_nonblocking() {
    on_both(
        Architecture::Bip,
        0,
        Rc::new(|_, ctx, port, _, _| {
            let t0 = ctx.now();
            assert!(port.poll_recv(ctx).is_none());
            assert_eq!(ctx.now(), t0, "an empty poll charges nothing");
        }),
    );
}

#[test]
fn bidirectional_traffic_does_not_interfere() {
    const LEN: usize = 30_000;
    on_both(
        Architecture::UserLevel,
        LEN as u64,
        Rc::new(|node, ctx, port, peer, posted| {
            let buf = port.alloc_buffer(LEN as u64).expect("buf");
            port.write_buffer(buf, &vec![node as u8; LEN])
                .expect("fill");
            port.send(ctx, peer, ChannelId::normal(0), buf, LEN as u64)
                .expect("send");
            let ev = port.wait_recv(ctx);
            assert_eq!(ev.src.node.0, 1 - node);
            let data = port.read_buffer(posted.expect("posted"), ev.len);
            assert_eq!(data.expect("read"), vec![(1 - node) as u8; LEN]);
        }),
    );
}

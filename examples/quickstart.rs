//! Quickstart: two processes on different DAWNING-3000 nodes exchange
//! messages over BCL, the semi-user-level protocol.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! What to look for: the send path takes one kernel trap (counted below);
//! the receive path takes none — the NIC DMA'd the payload into the
//! receiver's buffer and the completion event into its user-space queue.

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::ChannelId;
use suca::cluster::{ClusterSpec, SimBarrier};
use suca::prelude::*;

fn main() {
    // A 2-node slice of the DAWNING-3000 (4-way SMP nodes, Myrinet SAN,
    // AIX cost model) with everything calibrated to the paper.
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca::bcl::ProcAddr>>> = Rc::new(RefCell::new(None));

    // Receiver process on node 1.
    {
        let barrier = barrier.clone();
        let addr = addr.clone();
        cluster.spawn_process(1, "receiver", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            let ev = port.wait_recv(ctx); // poll in user space — no trap!
            let data = port.recv_bytes(ctx, &ev).expect("payload");
            println!(
                "[{}] received {:?} from node {} at t={}",
                env.node.os.node_id.0,
                String::from_utf8_lossy(&data),
                ev.src.node.0,
                ctx.now()
            );
        });
    }

    // Sender process on node 0.
    cluster.spawn_process(0, "sender", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("receiver ready");
        let traps_before = ctx.sim().get_count("os.traps.n0");
        let t0 = ctx.now();
        port.send_bytes(ctx, dst, ChannelId::SYSTEM, b"hello, DAWNING-3000!")
            .expect("send");
        println!(
            "[0] send returned after {} (host overhead incl. one kernel trap)",
            ctx.now().since(t0)
        );
        println!(
            "[0] kernel traps used by the send: {}",
            ctx.sim().get_count("os.traps.n0") - traps_before
        );
        let done = port.wait_send(ctx);
        println!("[0] send completion event: {:?}", done.status);
    });

    assert_eq!(sim.run(), RunOutcome::Completed);
    println!(
        "interrupts on the critical path: {} (semi-user-level uses none)",
        sim.get_count("os.interrupts")
    );
}

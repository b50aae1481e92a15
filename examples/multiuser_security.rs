//! The paper's protection story, §4.3: "BCL forces the communication request
//! from applications to pass some necessary security checks in kernel module
//! and control program layers. … With this safeguard mechanism BCL assures
//! all processes using it will safely send and receive messages, never
//! destroy kernel data structures."
//!
//! Two well-behaved processes exchange data while a hostile process on the
//! same node throws forged pointers, bogus destinations, stolen ports and
//! out-of-bounds RMA at the kernel. Every attack is rejected with a typed
//! error; the victims' traffic is unaffected.
//!
//! ```text
//! cargo run --example multiuser_security
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::{BclError, ChannelId, PortId, ProcAddr};
use suca::cluster::{ClusterSpec, SimBarrier};
use suca::mem::VirtAddr;
use suca::os::NodeId;
use suca::prelude::*;

fn main() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 3);
    let victim_addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    // Victim receiver on node 1.
    {
        let barrier = barrier.clone();
        let victim_addr = victim_addr.clone();
        cluster.spawn_process(1, "victim-rx", move |ctx, env| {
            let port = env.open_port(ctx);
            *victim_addr.borrow_mut() = Some(port.addr());
            barrier.wait(ctx);
            for i in 0..5 {
                let ev = port.wait_recv(ctx);
                let data = port.recv_bytes(ctx, &ev).expect("payload");
                assert_eq!(data, format!("payment-{i}").into_bytes());
            }
            println!("[victim] all 5 messages received intact despite the attacker");
        });
    }

    // Victim sender on node 0.
    {
        let barrier = barrier.clone();
        let victim_addr = victim_addr.clone();
        cluster.spawn_process(0, "victim-tx", move |ctx, env| {
            let port = env.open_port(ctx);
            barrier.wait(ctx);
            let dst = victim_addr.borrow_mut().expect("rx ready");
            for i in 0..5 {
                port.send_bytes(
                    ctx,
                    dst,
                    ChannelId::SYSTEM,
                    format!("payment-{i}").as_bytes(),
                )
                .expect("send");
                let _ = port.wait_send(ctx);
                ctx.sleep(SimDuration::from_us(30));
            }
        });
    }

    // The attacker shares node 0 with the victim sender.
    cluster.spawn_process(0, "attacker", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let mut rejected = 0;

        // 1. Forged buffer pointer (classic DMA-anywhere attack).
        let dst = ProcAddr {
            node: NodeId(1),
            port: PortId(0),
        };
        match port.send(ctx, dst, ChannelId::SYSTEM, VirtAddr(0xDEAD_0000), 512) {
            Err(BclError::BadBuffer { .. }) => {
                rejected += 1;
                println!("[kernel] rejected forged buffer pointer");
            }
            other => panic!("attack not stopped: {other:?}"),
        }

        // 2. Nonexistent destination node.
        let buf = port.alloc_buffer(64).expect("buf");
        match port.send(
            ctx,
            ProcAddr {
                node: NodeId(77),
                port: PortId(0),
            },
            ChannelId::SYSTEM,
            buf,
            64,
        ) {
            Err(BclError::BadNode(_)) => {
                rejected += 1;
                println!("[kernel] rejected bogus destination node");
            }
            other => panic!("attack not stopped: {other:?}"),
        }

        // 3. Oversized system-channel message (buffer-overflow probe).
        match port.send(ctx, dst, ChannelId::SYSTEM, buf, 1 << 20) {
            Err(BclError::BadBuffer { .. } | BclError::TooBigForSystemChannel { .. }) => {
                rejected += 1;
                println!("[kernel] rejected oversized system-channel message");
            }
            other => panic!("attack not stopped: {other:?}"),
        }

        // 4. Out-of-range channel index.
        match port.send(ctx, dst, ChannelId::normal(9999), buf, 64) {
            Err(BclError::BadChannel(_)) => {
                rejected += 1;
                println!("[kernel] rejected out-of-range channel");
            }
            other => panic!("attack not stopped: {other:?}"),
        }

        // 5. RMA read beyond a bound window is refused NIC-side.
        let into = port.alloc_buffer(4096).expect("buf");
        let rid = port
            .rma_read(ctx, dst, 0, 0, into, 4096)
            .expect("request accepted; target validates");
        let ev = port.wait_send(ctx);
        assert_eq!(ev.msg_id, rid);
        assert_eq!(ev.status, suca::bcl::SendStatus::Rejected);
        rejected += 1;
        println!("[NIC]    rejected RMA read of an unbound window");

        println!("[attacker] {rejected}/5 attacks rejected; nothing crashed");
    });

    assert_eq!(sim.run(), RunOutcome::Completed);
    println!(
        "\nkernel security rejections are typed errors to the caller; the victims'\n\
         messages were never disturbed — the paper's multi-user protection claim."
    );
}

//! The paper's heterogeneous-network portability claim, demonstrated.
//!
//! "Because NIC is transparent to process user space, binary code written in
//! BCL … can run on any combination of networks supporting BCL protocol.
//! Applications written in BCL need not be recompiled." (§3)
//!
//! One application function — unchanged — runs over Myrinet and over the
//! custom nwrc 2-D mesh. And the flip side: a user-level protocol cannot
//! even be constructed on AIX, because it needs `mmap` of device memory.
//!
//! ```text
//! cargo run --example heterogeneous
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::{Architecture, ChannelId};
use suca::cluster::{Cluster, ClusterSpec, SimBarrier};
use suca::os::OsPersonality;
use suca::prelude::*;

/// The application — written once against the BCL API, with no knowledge of
/// which SAN is underneath.
fn ring_app(cluster: &Cluster, n: u32) -> f64 {
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, n);
    let addrs: Rc<RefCell<Vec<suca::bcl::ProcAddr>>> = Rc::new(RefCell::new(vec![
        suca::bcl::ProcAddr {
            node: suca::os::NodeId(0),
            port: suca::bcl::PortId(0)
        };
        n as usize
    ]));
    let finish = Rc::new(RefCell::new(0.0f64));
    for me in 0..n {
        let barrier = barrier.clone();
        let addrs = addrs.clone();
        let finish = finish.clone();
        cluster.spawn_process(me, format!("ring{me}"), move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[me as usize] = port.addr();
            barrier.wait(ctx);
            let next = addrs.borrow_mut()[((me + 1) % n) as usize];
            // Pass a token around the ring, each hop appending its node id.
            if me == 0 {
                port.send_bytes(ctx, next, ChannelId::SYSTEM, &[0u8])
                    .expect("inject token");
            }
            let ev = port.wait_recv(ctx);
            let mut token = port.recv_bytes(ctx, &ev).expect("token");
            token.push(me as u8);
            if me != 0 {
                port.send_bytes(ctx, next, ChannelId::SYSTEM, &token)
                    .expect("forward");
            } else {
                assert_eq!(token.len(), n as usize + 1, "token visited every node");
                *finish.borrow_mut() = ctx.now().as_us();
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed);
    let t = *finish.borrow();
    t
}

fn main() {
    let n = 6;
    println!("same BCL application, two different SANs, zero code changes:\n");

    let myri = ClusterSpec::dawning3000(n).build();
    let t1 = ring_app(&myri, n);
    println!("  Myrinet (crossbar switches): {n}-node ring completed at t={t1:.1} us");

    let mesh = ClusterSpec::dawning3000_mesh(n).build();
    let t2 = ring_app(&mesh, n);
    println!("  nwrc 2-D mesh (XY wormhole): {n}-node ring completed at t={t2:.1} us");

    println!("\nhop structure differs, application is oblivious (the NIC is only");
    println!("reachable through the kernel, so user code never sees the network type).\n");

    // The portability counter-example from §1: user-level messaging cannot
    // exist on AIX at all.
    match Architecture::UserLevel.check_os(&OsPersonality::AIX) {
        Err(e) => println!("user-level protocol on AIX: REFUSED — {e}"),
        Ok(()) => unreachable!("AIX has no device mmap"),
    }
    println!("semi-user-level BCL on AIX: runs everywhere a kernel module can be loaded.");
}

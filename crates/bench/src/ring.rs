//! The neighbor-ring message storm shared by `bench_engine` and the
//! trace-sampling e2e test: every node posts its receives, then sends to its
//! right neighbor and receives from its left — all-to-neighbor traffic
//! through the full stack, one actor thread per node.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use suca_bcl::{ChannelId, ProcAddr};
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_sim::RunOutcome;

/// Build `spec` and have every node send `msgs` messages of `payload` bytes
/// to its right neighbor. Returns the finished cluster and the wall-clock
/// times `ClusterSpec::build` and `Sim::run` took; every message is checked
/// to have arrived whole.
pub fn run(spec: ClusterSpec, msgs: u32, payload: usize) -> (Cluster, Duration, Duration) {
    let nodes = spec.nodes;
    let build = Instant::now();
    let cluster = spec.build();
    let build = build.elapsed();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, nodes);
    let addrs: Rc<RefCell<Vec<Option<ProcAddr>>>> =
        Rc::new(RefCell::new(vec![None; nodes as usize]));
    let delivered = Rc::new(RefCell::new(0u64));
    for node in 0..nodes {
        let (b, a, d) = (barrier.clone(), addrs.clone(), delivered.clone());
        cluster.spawn_process(node, "ring", move |ctx, env| {
            let port = env.open_port(ctx);
            a.borrow_mut()[node as usize] = Some(port.addr());
            // One channel per in-flight message: a channel holds a single
            // outstanding recv, so message i rides channel i.
            for i in 0..msgs {
                port.post_recv(ctx, i as u16, payload as u64)
                    .expect("post recv");
            }
            b.wait(ctx);
            let right = a.borrow_mut()[((node + 1) % nodes) as usize].expect("neighbor up");
            let data = vec![node as u8; payload];
            for i in 0..msgs {
                port.send_bytes(ctx, right, ChannelId::normal(i as u16), &data)
                    .expect("send");
            }
            for _ in 0..msgs {
                let ev = port.wait_recv(ctx);
                assert_eq!(ev.len, payload as u64, "short delivery");
            }
            *d.borrow_mut() += u64::from(msgs);
        });
    }
    let wall = Instant::now();
    assert_eq!(sim.run(), RunOutcome::Completed, "ring workload hung");
    let wall = wall.elapsed();
    assert_eq!(
        *delivered.borrow(),
        u64::from(nodes) * u64::from(msgs),
        "a node never finished receiving"
    );
    (cluster, build, wall)
}

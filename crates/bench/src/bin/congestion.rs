//! Extension experiment (beyond the paper's tables): network contention.
//!
//! The paper evaluates point-to-point performance only; DAWNING-3000's
//! switch fabric is a linear array of 8-port crossbars whose inter-switch
//! trunks are the obvious shared resource. This harness measures:
//!
//! 1. aggregate bandwidth of disjoint same-switch pairs (should scale
//!    linearly — the crossbar is non-blocking);
//! 2. aggregate bandwidth of pairs forced across one trunk (should saturate
//!    at one link's worth, ~160 MB/s, shared by all pairs);
//! 3. the same cross-traffic pattern on the 2-D mesh, which offers path
//!    diversity in aggregate.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ChannelId;
use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_sim::RunOutcome;

const MSG: u64 = 64 * 1024;
const COUNT: u32 = 8;

/// Run `pairs` of (src, dst) streams concurrently; return aggregate MB/s.
fn aggregate_bandwidth(cluster: &Cluster, pairs: &[(u32, u32)]) -> f64 {
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, pairs.len() as u32 * 2);
    let t0 = Rc::new(RefCell::new(f64::MAX));
    let t1 = Rc::new(RefCell::new(0.0f64));
    for (k, &(src, dst)) in pairs.iter().enumerate() {
        let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
        {
            let barrier = barrier.clone();
            let addr = addr.clone();
            let t1 = t1.clone();
            cluster.spawn_process(dst, format!("rx{k}"), move |ctx, env| {
                let port = env.open_port(ctx);
                *addr.borrow_mut() = Some(port.addr());
                let mut bufs = Vec::new();
                for c in 0..4u16 {
                    bufs.push(port.post_recv(ctx, c, MSG).expect("post"));
                }
                barrier.wait(ctx);
                for i in 0..COUNT {
                    let ev = port.wait_recv(ctx);
                    if i + 4 < COUNT {
                        port.post_recv_at(
                            ctx,
                            ev.channel.index,
                            bufs[ev.channel.index as usize],
                            MSG,
                        )
                        .expect("re-post");
                    }
                }
                let mut g = t1.borrow_mut();
                *g = g.max(ctx.now().as_us());
            });
        }
        {
            let barrier = barrier.clone();
            let t0 = t0.clone();
            cluster.spawn_process(src, format!("tx{k}"), move |ctx, env| {
                let port = env.open_port(ctx);
                barrier.wait(ctx);
                let dst = addr.borrow_mut().expect("rx ready");
                {
                    let mut g = t0.borrow_mut();
                    *g = g.min(ctx.now().as_us());
                }
                for i in 0..COUNT {
                    let buf = port.alloc_buffer(MSG).expect("buf");
                    port.send(ctx, dst, ChannelId::normal((i % 4) as u16), buf, MSG)
                        .expect("send");
                    let _ = port.wait_send(ctx);
                }
            });
        }
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "congestion workload hung");
    let bytes = MSG as f64 * COUNT as f64 * pairs.len() as f64;
    let (start, end) = (*t0.borrow(), *t1.borrow());
    bytes / (end - start)
}

fn main() {
    println!("-- Extension: fabric contention (64KB x {COUNT} per pair)\n");

    // Same-switch pairs (nodes 0..6 share switch 0 on Myrinet).
    for n_pairs in [1usize, 2, 3] {
        let cluster = ClusterSpec::dawning3000(6).build();
        let pairs: Vec<(u32, u32)> = (0..n_pairs as u32).map(|i| (2 * i, 2 * i + 1)).collect();
        let bw = aggregate_bandwidth(&cluster, &pairs);
        println!(
            "myrinet same-switch   {n_pairs} pair(s): {bw:>7.1} MB/s aggregate ({:.1} per pair)",
            bw / n_pairs as f64
        );
    }
    println!();

    // Cross-trunk pairs: sources on switch 0 (nodes 0..6), sinks on switch 1
    // (nodes 6..12): every byte crosses the single sw0->sw1 trunk.
    for n_pairs in [1usize, 2, 3] {
        let cluster = ClusterSpec::dawning3000(12).build();
        let pairs: Vec<(u32, u32)> = (0..n_pairs as u32).map(|i| (i, 6 + i)).collect();
        let bw = aggregate_bandwidth(&cluster, &pairs);
        println!(
            "myrinet cross-trunk   {n_pairs} pair(s): {bw:>7.1} MB/s aggregate ({:.1} per pair)",
            bw / n_pairs as f64
        );
    }
    println!("\n(the crossbar scales per pair; the shared trunk caps aggregate near one");
    println!(" link's 146 MB/s — switch placement matters on the linear array)\n");

    // The mesh: same logical pattern, nodes on opposite columns.
    for n_pairs in [1usize, 3] {
        let cluster = ClusterSpec::dawning3000_mesh(16).build();
        // 4x4 mesh, row-major: pair row i's col 0 with col 3.
        let pairs: Vec<(u32, u32)> = (0..n_pairs as u32).map(|i| (4 * i, 4 * i + 3)).collect();
        let bw = aggregate_bandwidth(&cluster, &pairs);
        println!(
            "nwrc mesh cross-cols  {n_pairs} pair(s): {bw:>7.1} MB/s aggregate ({:.1} per pair)",
            bw / n_pairs as f64
        );
    }
    println!("\n(XY routing keeps row streams on disjoint rows: the mesh scales where the");
    println!(" linear switch array serializes — an architectural trade the paper's 2-D");
    println!(" mesh option was built to exploit)");
}

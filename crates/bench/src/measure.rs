//! Measurement functions for the MPI and PVM layers (Table 3), the traced
//! 0-byte message behind Figs. 5–7, the §5 host overheads, and the cost
//! constants of the sensitivity matrix. BCL-level latency and bandwidth —
//! for BCL and for every comparator architecture, which is BCL with an
//! `Architecture` preset — live in `suca-cluster::harness`.

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::{ClusterSpec, ProcessEnv, SanKind};
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig};
use suca_myrinet::MyrinetConfig;
use suca_pvm::{PvmConfig, PvmTask};
use suca_sim::critpath::{self, BucketReport};
use suca_sim::{ActorCtx, RunOutcome, Sim, SimDuration, TraceEvent, TraceId};

use crate::report::stage_rows;

/// Which upper layer to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// MPI over BCL.
    Mpi,
    /// PVM over BCL.
    Pvm,
}

/// One rank of a two-rank MPI or PVM job: the two calls the measurements
/// make, on either layer.
enum Rank {
    Mpi(Comm),
    Pvm(PvmTask),
}

impl Rank {
    fn open(layer: Layer, ctx: &mut ActorCtx, env: &ProcessEnv, uni: Universe, rank: u32) -> Rank {
        let (bcl, proc) = (&env.node.bcl, &env.proc);
        match layer {
            Layer::Mpi => Rank::Mpi(Comm::init(
                ctx,
                bcl,
                proc,
                uni,
                rank,
                MpiConfig::dawning3000(),
            )),
            Layer::Pvm => Rank::Pvm(PvmTask::enroll(
                ctx,
                bcl,
                proc,
                uni,
                rank,
                PvmConfig::dawning3000(),
            )),
        }
    }

    fn send(&self, ctx: &mut ActorCtx, dst: u32, tag: i32, data: &[u8]) {
        match self {
            Rank::Mpi(comm) => comm.send(ctx, dst, tag, data),
            Rank::Pvm(task) => {
                task.initsend().pack_bytes(data);
                task.send(ctx, dst, tag);
            }
        }
    }

    /// Receive the next message from `src` with `tag`; its payload length.
    fn recv(&self, ctx: &mut ActorCtx, src: u32, tag: i32) -> usize {
        match self {
            Rank::Mpi(comm) => comm.recv(ctx, src as i32, tag).data.len(),
            Rank::Pvm(task) => {
                let mut m = task.recv(ctx, src as i32, tag);
                m.buf.unpack_bytes().expect("a packed byte array").len()
            }
        }
    }
}

/// Mean one-way latency (µs) at the given layer. `intra` puts both ranks on
/// node 0; otherwise they sit on nodes 0 and 1.
pub fn layer_one_way_us(layer: Layer, intra: bool, size: usize, warmup: u32, iters: u32) -> f64 {
    let spec = ClusterSpec::dawning3000(2);
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, 2);
    let total = warmup + iters;
    let send_t: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let recv_t: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    let dst_node = if intra { 0 } else { 1 };

    for rank in 0..2u32 {
        let uni = uni.clone();
        let send_t = send_t.clone();
        let recv_t = recv_t.clone();
        let node = if rank == 0 { 0 } else { dst_node };
        cluster.spawn_process(node, format!("lat{rank}"), move |ctx, env| {
            let me = Rank::open(layer, ctx, &env, uni, rank);
            let payload = vec![0x44u8; size];
            for _ in 0..total {
                if rank == 0 {
                    send_t.borrow_mut().push(ctx.now().as_us());
                    me.send(ctx, 1, 1, &payload);
                    me.recv(ctx, 1, 2); // pacing reply
                } else {
                    let len = me.recv(ctx, 0, 1);
                    recv_t.borrow_mut().push(ctx.now().as_us());
                    assert_eq!(len, size);
                    me.send(ctx, 0, 2, b"");
                }
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "latency job hung");
    let st = send_t.borrow();
    let rt = recv_t.borrow();
    assert_eq!(st.len() as u32, total);
    assert_eq!(rt.len() as u32, total);
    (warmup as usize..total as usize)
        .map(|i| rt[i] - st[i])
        .sum::<f64>()
        / iters as f64
}

/// Sustained bandwidth (MB/s) at the given layer streaming `count` messages
/// of `size` bytes.
pub fn layer_bandwidth_mbps(layer: Layer, intra: bool, size: usize, count: u32) -> f64 {
    let spec = ClusterSpec::dawning3000(2);
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, 2);
    let t0 = Rc::new(RefCell::new(0.0f64));
    let t1 = Rc::new(RefCell::new(0.0f64));
    let dst_node = if intra { 0 } else { 1 };

    for rank in 0..2u32 {
        let uni = uni.clone();
        let t0 = t0.clone();
        let t1 = t1.clone();
        let node = if rank == 0 { 0 } else { dst_node };
        cluster.spawn_process(node, format!("bw{rank}"), move |ctx, env| {
            let me = Rank::open(layer, ctx, &env, uni, rank);
            let payload = vec![0x55u8; size];
            if rank == 0 {
                // Warmup message starts the clock at its completion.
                me.send(ctx, 1, 1, &payload);
                *t0.borrow_mut() = ctx.now().as_us();
                for _ in 1..count {
                    me.send(ctx, 1, 1, &payload);
                }
            } else {
                for _ in 0..count {
                    me.recv(ctx, 0, 1);
                }
                *t1.borrow_mut() = ctx.now().as_us();
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "bandwidth job hung");
    let (start, end) = (*t0.borrow(), *t1.borrow());
    assert!(end > start);
    (size as f64 * (count - 1) as f64) / (end - start)
}

/// One 0-length BCL message from node 0 to node 1, as Figs. 5–7 read it
/// off the per-message trace.
pub struct TracedZeroLen {
    /// The figures' stage rows (see [`stage_rows`]).
    pub rows: Vec<TraceEvent>,
    /// The message's critical-path aggregate: the Fig. 5/7 identities.
    pub bucket: BucketReport,
    /// The run, for harnesses that emit its metrics snapshot.
    pub sim: Sim,
}

/// Send one 0-length BCL message between nodes 0 → 1 and pick its chain
/// out of the per-message trace by `TraceId` (setup traffic excluded).
/// Powers Figs. 5–7.
pub fn traced_zero_len_run() -> TracedZeroLen {
    use suca_bcl::ChannelId;
    use suca_cluster::SimBarrier;

    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let sent: Rc<RefCell<Option<TraceId>>> = Rc::new(RefCell::new(None));

    let b2 = barrier.clone();
    let ab = addr_b.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        let _ = port.wait_recv(ctx);
    });
    let b3 = barrier.clone();
    let sent2 = sent.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().expect("rx ready");
        let buf = port.alloc_buffer(1).expect("buf");
        let msg_id = port
            .send(ctx, dst, ChannelId::SYSTEM, buf, 0)
            .expect("send");
        *sent2.borrow_mut() = Some(TraceId::new(0, msg_id));
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let id = sent.borrow_mut().expect("message sent");
    let mut events = cluster.trace_events();
    events.retain(|ev| ev.trace == id);
    let bucket = critpath::bottleneck_report(&critpath::analyze(&events))
        .bucket_for(0)
        .expect("the message's chain closed")
        .clone();
    TracedZeroLen {
        rows: stage_rows(&events),
        bucket,
        sim,
    }
}

/// Host-side scalar overheads measured directly on a two-node `spec` (the
/// §5 numbers): `(send_overhead_us, send_complete_us, recv_poll_us)`.
pub fn measured_host_overheads(spec: ClusterSpec) -> (f64, f64, f64) {
    use suca_bcl::ChannelId;
    use suca_cluster::SimBarrier;

    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let out = Rc::new(RefCell::new((0.0f64, 0.0f64, 0.0f64)));

    let b2 = barrier.clone();
    let ab = addr_b.clone();
    let out_rx = out.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *ab.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        // Let the event arrive, then measure pure poll cost.
        ctx.sleep(suca_sim::SimDuration::from_us(100));
        let t0 = ctx.now().as_us();
        let _ = port.poll_recv(ctx).expect("event queued");
        out_rx.borrow_mut().2 = ctx.now().as_us() - t0;
    });
    let b3 = barrier.clone();
    let out_tx = out.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr_b.borrow_mut().expect("rx ready");
        let buf = port.alloc_buffer(1).expect("buf");
        let t0 = ctx.now().as_us();
        port.send(ctx, dst, ChannelId::SYSTEM, buf, 0)
            .expect("send");
        out_tx.borrow_mut().0 = ctx.now().as_us() - t0;
        // Wait for the completion event to be present, then time the poll.
        ctx.sleep(suca_sim::SimDuration::from_us(100));
        let t1 = ctx.now().as_us();
        let _ = port.poll_send(ctx).expect("send event queued");
        out_tx.borrow_mut().1 = ctx.now().as_us() - t1;
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let g = out.borrow();
    (g.0, g.1, g.2)
}

/// A cost constant's name, and the accessor to its field in a cluster spec.
pub type CostConstant = (&'static str, fn(&mut ClusterSpec) -> &mut SimDuration);

/// The durations a 0 B or a streamed message can charge on a Myrinet
/// cluster, in the order of the path: library, MCP, PCI, kernel, link.
/// `paper` adds 1 µs to each in turn and re-measures its anchors.
#[rustfmt::skip]
pub const COST_CONSTANTS: &[CostConstant] = &[
    ("lib_compose",                 |s| &mut s.bcl.lib_compose),
    ("copyin_dispatch",             |s| &mut s.bcl.copyin_dispatch),
    ("poll_recv",                   |s| &mut s.bcl.poll_recv),
    ("poll_send",                   |s| &mut s.bcl.poll_send),
    ("mcp.send_fixed",              |s| &mut s.bcl.mcp.send_fixed),
    ("mcp.send_per_frag",           |s| &mut s.bcl.mcp.send_per_frag),
    ("mcp.recv_per_frag",           |s| &mut s.bcl.mcp.recv_per_frag),
    ("mcp.ack_process",             |s| &mut s.bcl.mcp.ack_process),
    ("mcp.ack_send",                |s| &mut s.bcl.mcp.ack_send),
    ("pci.pio_write_word",          |s| &mut s.bcl.pci.pio_write_word),
    ("pci.dma_setup",               |s| &mut s.bcl.pci.dma_setup),
    ("os.trap_enter",               |s| &mut s.os_costs.trap_enter),
    ("os.trap_exit",                |s| &mut s.os_costs.trap_exit),
    ("os.security_check",           |s| &mut s.os_costs.security_check),
    ("os.pin_lookup_hit",           |s| &mut s.os_costs.pin_lookup_hit),
    ("os.pin_miss_per_page",        |s| &mut s.os_costs.pin_miss_per_page),
    ("os.interrupt_entry",          |s| &mut s.os_costs.interrupt_entry),
    ("myrinet.propagation",         |s| &mut myrinet(s).propagation),
    ("myrinet.switch_cut_through",  |s| &mut myrinet(s).switch_cut_through),
];

fn myrinet(spec: &mut ClusterSpec) -> &mut MyrinetConfig {
    match &mut spec.san {
        SanKind::Myrinet(cfg) => cfg,
        SanKind::Mesh(_) => panic!("the link constants are Myrinet's"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_bcl::Architecture;

    #[test]
    fn user_level_send_call_is_bcl_minus_the_kernel_extra() {
        // The paper's 4.17 us "extra overhead" is the whole kernel-resident
        // share of the send call: moving the kernel out leaves the library
        // compose and the descriptor PIO, to the ns.
        let spec = ClusterSpec::dawning3000(2);
        let extra = spec.bcl.kernel_extra(&spec.os_costs).as_ns();
        let send_call_ns = |spec| (measured_host_overheads(spec).0 * 1e3).round() as u64;
        let bcl = send_call_ns(spec.clone());
        let user = send_call_ns(spec.with_architecture(Architecture::UserLevel));
        assert_eq!((bcl, extra, user), (7_040, 4_170, 2_870));
    }

    #[test]
    fn each_cost_constant_is_its_own_field() {
        let names: std::collections::BTreeSet<_> = COST_CONSTANTS.iter().map(|c| c.0).collect();
        assert_eq!(names.len(), COST_CONSTANTS.len(), "names are unique");
        let base = ClusterSpec::dawning3000(2);
        for (i, &(name, knob)) in COST_CONSTANTS.iter().enumerate() {
            let mut spec = base.clone();
            *knob(&mut spec) += SimDuration::from_us(1);
            for (j, &(other, reach)) in COST_CONSTANTS.iter().enumerate() {
                let moved = *reach(&mut spec) != *reach(&mut base.clone());
                assert_eq!(moved, i == j, "raising {name} moved {other}");
            }
        }
    }
}

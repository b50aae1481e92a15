//! Intra-node communication over shared memory (paper §4.2).
//!
//! "BCL uses shared memory based intra-node communication. The internal
//! buffer queue is used to transfer message from one process to another
//! process within a node. … Each pair of processes has two queues. …
//! BCL reduced the extra overhead by using the pipeline message passing
//! technique."
//!
//! The data plane is real: payload bytes move through a [`SharedRegion`]
//! ring per ordered process pair, with per-message sequence numbers checked
//! on the receive side. The *timing* of the pipelined double copy is modeled
//! analytically: the sender is occupied for its own chunk copies; delivery
//! completes one chunk later (the receiver's copy of the final chunk runs
//! concurrently with nothing, all earlier receiver copies overlap sender
//! copies). This yields the paper's 2.7 µs / ~391 MB/s intra-node figures.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use suca_mem::{PhysMemory, SharedRegion};
use suca_sim::{ActorCtx, Sim, SimDuration};

use crate::config::IntraNodeConfig;
use crate::port::{ChannelId, PortId, ProcAddr, RecvDataLoc, RecvEvent, SendEvent, SendStatus};
use crate::queues::UserQueues;
use suca_os::NodeId;

/// One direction of a process pair: a shared ring plus sequence bookkeeping.
struct PairQueue {
    ring: SharedRegion,
    next_seq_tx: u64,
    next_seq_rx: u64,
    write_pos: u64,
}

struct HubState {
    ports: HashMap<u16, Rc<UserQueues>>,
    pairs: HashMap<(u16, u16), PairQueue>,
}

/// Per-node intra-node message hub.
pub struct IntraHub {
    sim: Sim,
    node: NodeId,
    cfg: IntraNodeConfig,
    mem: PhysMemory,
    state: RefCell<HubState>,
}

impl IntraHub {
    /// Create the hub for a node.
    pub fn new(sim: &Sim, node: NodeId, mem: PhysMemory, cfg: IntraNodeConfig) -> Rc<IntraHub> {
        Rc::new(IntraHub {
            sim: sim.clone(),
            node,
            cfg,
            mem,
            state: RefCell::new(HubState {
                ports: HashMap::new(),
                pairs: HashMap::new(),
            }),
        })
    }

    /// Library side: register a port's event queues at port open.
    pub fn register_port(&self, port: PortId, queues: Rc<UserQueues>) {
        self.state.borrow_mut().ports.insert(port.0, queues);
    }

    /// Library side: deregister at close.
    pub fn unregister_port(&self, port: PortId) {
        self.state.borrow_mut().ports.remove(&port.0);
    }

    /// Time one chunk copy occupies a CPU.
    fn chunk_cost(&self, len: u64) -> SimDuration {
        self.cfg.per_chunk_overhead
            + if len == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::for_bytes(len, self.cfg.copy_bytes_per_sec)
            }
    }

    /// Send `data` from `src_port` to `dst_port` on this node. Blocks the
    /// calling actor for the sender-side work (fixed overhead plus its copy
    /// chunks); the receive event is delivered one chunk-time later.
    pub fn send(
        &self,
        ctx: &mut ActorCtx,
        src_port: PortId,
        dst_port: PortId,
        channel: ChannelId,
        msg_id: u32,
        data: &[u8],
    ) -> bool {
        let dst_queues = match self.state.borrow().ports.get(&dst_port.0) {
            Some(q) => q.clone(),
            None => return false,
        };
        ctx.sleep(self.cfg.send_overhead);

        // Copy through the shared ring chunk by chunk (real bytes), charging
        // the sender's copy time.
        let mut copied = Vec::with_capacity(data.len());
        {
            let mut st = self.state.borrow_mut();
            let ring_bytes = self.cfg.chunk_bytes * self.cfg.ring_depth as u64;
            let pair = match st.pairs.entry((src_port.0, dst_port.0)) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => v.insert(PairQueue {
                    ring: SharedRegion::alloc(&self.mem, ring_bytes)
                        .expect("intra-node ring allocation"),
                    next_seq_tx: 0,
                    next_seq_rx: 0,
                    write_pos: 0,
                }),
            };
            // Per-message sequence number ("BCL uses the sequential number
            // to decide whether the operation should continue or not").
            let seq = pair.next_seq_tx;
            pair.next_seq_tx += 1;
            assert_eq!(seq, pair.next_seq_rx, "intra-node sequence violated");
            pair.next_seq_rx += 1;

            let mut off = 0u64;
            while off < data.len() as u64 || (data.is_empty() && off == 0) {
                let len = self.cfg.chunk_bytes.min(data.len() as u64 - off);
                let slot = pair.write_pos % ring_bytes.max(1);
                // Stage into the ring (wrapping slot), then read back out —
                // the data genuinely traverses the shared segment.
                if len > 0 {
                    let end = (slot + len).min(ring_bytes);
                    let first = (end - slot) as usize;
                    pair.ring
                        .write(slot, &data[off as usize..off as usize + first])
                        .expect("ring write");
                    let mut out = vec![0u8; first];
                    pair.ring.read(slot, &mut out).expect("ring read");
                    copied.extend_from_slice(&out);
                    if (len as usize) > first {
                        let rest = len as usize - first;
                        pair.ring
                            .write(0, &data[off as usize + first..off as usize + len as usize])
                            .expect("ring wrap write");
                        let mut out2 = vec![0u8; rest];
                        pair.ring.read(0, &mut out2).expect("ring wrap read");
                        copied.extend_from_slice(&out2);
                    }
                    pair.write_pos += len;
                }
                off += len;
                if data.is_empty() {
                    break;
                }
            }
        }

        // Charge the sender's pipelined copy time.
        let chunks = (data.len() as u64).div_ceil(self.cfg.chunk_bytes);
        let mut sender_busy = SimDuration::ZERO;
        let mut remaining = data.len() as u64;
        for _ in 0..chunks {
            let len = remaining.min(self.cfg.chunk_bytes);
            sender_busy += self.chunk_cost(len);
            remaining -= len;
        }
        ctx.sleep(sender_busy);

        // Delivery completes after the receiver's copy of the last chunk
        // (the only receiver copy not overlapped with a sender copy) plus
        // the handoff flag.
        let last_chunk = if data.is_empty() {
            0
        } else {
            (data.len() as u64 - 1) % self.cfg.chunk_bytes + 1
        };
        let lag = self.cfg.handoff
            + if last_chunk == 0 {
                SimDuration::ZERO
            } else {
                self.chunk_cost(last_chunk)
            };
        let ev = RecvEvent {
            src: ProcAddr {
                node: self.node,
                port: src_port,
            },
            channel,
            len: data.len() as u64,
            msg_id,
            data: RecvDataLoc::Inline(copied),
        };
        let src_queues = self.state.borrow().ports.get(&src_port.0).cloned();
        self.sim.schedule_in(lag, move |_| {
            dst_queues.push_recv(ev);
            if let Some(q) = src_queues {
                q.push_send(SendEvent {
                    msg_id,
                    status: SendStatus::Ok,
                });
            }
        });
        self.sim.add_count("bcl.intra_msgs", 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BclConfig;
    use suca_sim::{RunOutcome, Sim};

    fn hub(sim: &Sim) -> Rc<IntraHub> {
        IntraHub::new(
            sim,
            NodeId(0),
            PhysMemory::new(16 << 20),
            BclConfig::dawning3000().intra,
        )
    }

    #[test]
    fn zero_len_latency_is_2_7us() {
        let sim = Sim::new(1);
        let h = hub(&sim);
        let qa = Rc::new(UserQueues::new(&sim));
        let qb = Rc::new(UserQueues::new(&sim));
        h.register_port(PortId(0), qa);
        h.register_port(PortId(1), qb.clone());
        let h2 = h.clone();
        let cfg = BclConfig::dawning3000();
        sim.spawn("sender", move |ctx| {
            assert!(h2.send(ctx, PortId(0), PortId(1), ChannelId::SYSTEM, 1, b""));
        });
        let poll_recv = cfg.poll_recv;
        sim.spawn("receiver", move |ctx| {
            let ev = qb.wait_recv(ctx);
            ctx.sleep(poll_recv); // the receive-side event poll cost
            assert_eq!(ev.len, 0);
            let t = ctx.now().as_us();
            assert!(
                (t - 2.7).abs() < 0.05,
                "intra-node 0-len latency {t} us; paper says 2.7"
            );
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn payload_integrity_through_the_ring() {
        let sim = Sim::new(1);
        let h = hub(&sim);
        let qb = Rc::new(UserQueues::new(&sim));
        h.register_port(PortId(0), Rc::new(UserQueues::new(&sim)));
        h.register_port(PortId(1), qb.clone());
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 255) as u8).collect();
        let expect = payload.clone();
        let h2 = h.clone();
        sim.spawn("sender", move |ctx| {
            h2.send(ctx, PortId(0), PortId(1), ChannelId::SYSTEM, 1, &payload);
        });
        sim.spawn("receiver", move |ctx| {
            let ev = qb.wait_recv(ctx);
            match ev.data {
                RecvDataLoc::Inline(v) => assert_eq!(v, expect),
                other => panic!("unexpected loc {other:?}"),
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn large_message_bandwidth_is_about_391_mbps() {
        let sim = Sim::new(1);
        let h = hub(&sim);
        let qb = Rc::new(UserQueues::new(&sim));
        h.register_port(PortId(0), Rc::new(UserQueues::new(&sim)));
        h.register_port(PortId(1), qb.clone());
        let len = 128 * 1024u64;
        let payload = vec![7u8; len as usize];
        let h2 = h.clone();
        sim.spawn("sender", move |ctx| {
            h2.send(ctx, PortId(0), PortId(1), ChannelId::SYSTEM, 1, &payload);
        });
        let done = Rc::new(RefCell::new(0.0f64));
        let d2 = done.clone();
        sim.spawn("receiver", move |ctx| {
            let _ = qb.wait_recv(ctx);
            *d2.borrow_mut() = ctx.now().as_us() / 1e6;
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let bw = len as f64 / *done.borrow() / 1e6;
        assert!(
            (bw - 391.0).abs() < 15.0,
            "intra-node bandwidth {bw:.1} MB/s; paper says 391"
        );
    }

    #[test]
    fn unknown_destination_port_fails_cleanly() {
        let sim = Sim::new(1);
        let h = hub(&sim);
        h.register_port(PortId(0), Rc::new(UserQueues::new(&sim)));
        let h2 = h.clone();
        sim.spawn("sender", move |ctx| {
            assert!(!h2.send(ctx, PortId(0), PortId(9), ChannelId::SYSTEM, 1, b"x"));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn messages_arrive_in_send_order() {
        let sim = Sim::new(1);
        let h = hub(&sim);
        let qb = Rc::new(UserQueues::new(&sim));
        h.register_port(PortId(0), Rc::new(UserQueues::new(&sim)));
        h.register_port(PortId(1), qb.clone());
        let h2 = h.clone();
        sim.spawn("sender", move |ctx| {
            for i in 0..10u32 {
                h2.send(
                    ctx,
                    PortId(0),
                    PortId(1),
                    ChannelId::SYSTEM,
                    i,
                    &i.to_le_bytes(),
                );
            }
        });
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        sim.spawn("receiver", move |ctx| {
            for _ in 0..10 {
                let ev = qb.wait_recv(ctx);
                s2.borrow_mut().push(ev.msg_id);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*seen.borrow(), (0..10).collect::<Vec<u32>>());
    }
}

//! MCP receive engine: packet demux into the descriptor rings, go-back-N
//! acceptance and its acks (a gap ack carries the receive stream's count of
//! out-of-order arrivals), reassembly of messages straight into user
//! buffers, rejects, and the target and requester halves of one-sided RMA.
//! A probe takes the data ring, not the control one, so the cum its reply
//! carries (`McpInner::on_probe`) already counts every packet that arrived
//! ahead of it.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use suca_mem::NicSegs;
use suca_myrinet::{FabricNodeId, Packet};
use suca_os::NodeId;
use suca_sim::mtrace::{stage, TraceId, TraceLayer};
use suca_sim::Sim;

use super::{Completion, JobKind, McpInner, McpState, RxDesc, SendJob};
use crate::port::{ChannelId, ChannelKind, PortId, ProcAddr, RecvDataLoc, RecvEvent, SendStatus};
use crate::reliable::{EpochVerdict, GbnVerdict};
use crate::sg::{sg_total, slice_sg};
use crate::wire::{WireHeader, WireKind, HEADER_BYTES};

/// A message being reassembled into its destination buffer.
pub(super) struct Incoming {
    port: PortId,
    channel: ChannelId,
    src_port: PortId,
    total: u64,
    received: u64,
    /// The posted buffer itself (busy until the receive completion), or a
    /// second reference on the claimed pool buffer.
    target: NicSegs,
    loc: RecvDataLoc,
}

/// A one-sided read this node requested and has not fully received.
pub(super) struct PendingRead {
    port: PortId,
    /// The requester's landing buffer, busy until the read completes.
    segments: NicSegs,
    total: u64,
    received: u64,
}

/// Receive-side SRAM state.
#[derive(Default)]
pub(super) struct RecvState {
    /// Messages mid-reassembly, keyed `(source node, msg id)`.
    incoming: HashMap<(u32, u32), Incoming>,
    /// Refused multi-fragment messages whose remaining fragments must be
    /// swallowed silently.
    rejected: HashSet<(u32, u32)>,
    /// Outstanding read requests by msg id.
    pub(super) pending_reads: HashMap<u32, PendingRead>,
}

impl RecvState {
    /// A read request is about to leave; its reply lands in `job.segments`,
    /// which move here — one holder, so the buffer is released exactly when
    /// the read completes, is refused, or is wiped.
    pub(super) fn expect_read(&mut self, job: &mut SendJob, len: u64) {
        let read = PendingRead {
            port: job.src_port,
            segments: std::mem::take(&mut job.segments),
            total: len,
            received: 0,
        };
        self.pending_reads.insert(job.msg_id, read);
    }

    /// `len` bytes of a message landed in its buffer; returns the message
    /// once all of it has.
    fn frag_landed(&mut self, key: (u32, u32), len: u64) -> Option<Incoming> {
        let inc = self.incoming.get_mut(&key)?;
        inc.received += len;
        if inc.received < inc.total {
            return None;
        }
        self.incoming.remove(&key)
    }

    /// `len` bytes of a read reply landed; returns the read once complete.
    fn read_landed(&mut self, msg_id: u32, len: u64) -> Option<PendingRead> {
        let read = self.pending_reads.get_mut(&msg_id)?;
        read.received += len;
        if read.received < read.total {
            return None;
        }
        self.pending_reads.remove(&msg_id)
    }

    /// NIC reset: forget everything. Outstanding reads will never match a
    /// reply now; returns their `(msg id, owning port)` in msg-id order.
    pub(super) fn wipe(&mut self) -> Vec<(u32, PortId)> {
        let reads = std::mem::take(self).pending_reads;
        let mut orphaned: Vec<_> = reads.into_iter().map(|(id, r)| (id, r.port)).collect();
        orphaned.sort_unstable_by_key(|&(id, _)| id);
        orphaned
    }
}

impl McpInner {
    pub(super) fn on_packet(self: &Rc<Self>, sim: &Sim, pkt: Packet, rail: usize) {
        if self.is_down(&self.state.borrow_mut()) {
            // Crashed node: the NIC is off the bus; every arrival is a
            // counted drop until the restart.
            self.node_down_drops.inc();
            let trace = pkt
                .trace
                .map_or(TraceId::NONE, |t| TraceId::new(t.origin, t.msg_id));
            self.mt_instant(trace, stage::DROP_NODE_DOWN);
            return;
        }
        if pkt.corrupted {
            sim.add_count("bcl.crc_dropped", 1);
            if let Some(t) = pkt.trace {
                self.mt_instant(TraceId::new(t.origin, t.msg_id), stage::DROP_CRC);
            }
            // CRC check fails; go-back-N recovers on the gap ack the next
            // arrival draws, or on the timeout if none follows. A corrupt
            // packet is never counted as an out-of-order arrival.
            return;
        }
        let Some((header, _)) = WireHeader::decode(&pkt.payload) else {
            sim.add_count("bcl.malformed", 1);
            return;
        };
        // Arrivals park in a descriptor ring for their processing delay;
        // the matching poll tick is allocation-free.
        let src = pkt.src;
        let (ring, delay) = match header.kind {
            WireKind::Ack | WireKind::Reject | WireKind::EpochSync | WireKind::EpochSyncAck => {
                (&self.rings.rx_ctrl, self.cfg.mcp.ack_process)
            }
            // In order behind the data it fences, at the cost of a
            // fragment; it belongs to no message, so it has no `mcp:rx`.
            WireKind::Probe => (&self.rings.rx_data, self.cfg.mcp.recv_per_frag),
            WireKind::Data | WireKind::RmaReadReq | WireKind::RmaReadData | WireKind::Coll => {
                let proc = self.cfg.mcp.recv_per_frag;
                let at = sim.now()..sim.now() + proc;
                let trace = self.header_trace(src, &header);
                let bytes = header.frag_len as u64;
                self.mt_span(trace, TraceLayer::Mcp, stage::RX, at, header.seq, bytes);
                (&self.rings.rx_data, proc)
            }
        };
        let desc = RxDesc {
            src,
            header,
            pkt: pkt.payload,
            rail,
        };
        ring.push(sim, delay, desc);
    }

    /// An arrival's `recv_per_frag` elapsed: go-back-N verdict, then demux.
    pub(super) fn on_data(self: &Rc<Self>, d: RxDesc) {
        let (src, header, rail) = (d.src, d.header, d.rail);
        let mut st = self.state.borrow_mut();
        if !self.cfg.arch.reliable() {
            // No go-back-N (BIP): every intact arrival is taken, and none
            // is acknowledged.
            return self.accept(&mut st, d);
        }
        let rx = &mut st.peers.entry(src.0).or_default().rx;
        // Data from a *newer* epoch adopts it implicitly (the peer's NIC
        // was reset and restarted its stream); older epochs are counted
        // stale drops with no ack — the peer is already past them.
        let verdict = rx.on_data(header.epoch, header.seq);
        // A gap ack carries the out-of-order count, from which the sender
        // tells a new hole or a lost resend from a stale report
        // (`GbnSender::on_gap_ack`).
        let out_of_order = match verdict {
            EpochVerdict::Gbn(v) if v.reveals_gap() => rx.out_of_order(),
            _ => 0,
        };
        let ack = Self::ack_header(rx.epoch(), rx.cum_ack(), out_of_order);
        match verdict {
            EpochVerdict::Gbn(GbnVerdict::Accept) => self.accept(&mut st, d),
            EpochVerdict::Gbn(GbnVerdict::Duplicate | GbnVerdict::OutOfOrder) => {
                self.sim.add_count("bcl.rx_discarded", 1);
                self.mt_instant(self.header_trace(src, &header), stage::RX_DISCARD);
            }
            EpochVerdict::Stale => {
                self.stale_epoch_drop(self.header_trace(src, &header));
                return;
            }
        }
        drop(st);
        // Ack on the arrival rail so the reverse path mirrors the one the
        // sender actually used (its old rail may be dark).
        self.send_control(rail, src, ack);
    }

    /// Dispatch an accepted arrival by kind. State borrowed.
    fn accept(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let header = d.header;
        match (header.kind, header.channel.kind) {
            (WireKind::Data, ChannelKind::Open) => self.rma_write(st, d),
            (WireKind::Data, _) => self.deliver_message(st, d),
            (WireKind::RmaReadReq, _) => self.rma_read_request(st, d),
            (WireKind::RmaReadData, _) => self.rma_read_data(st, d),
            (WireKind::Coll, _) => self.coll_rx(st, d),
            // `poll_rx` routes control kinds elsewhere; reaching here means
            // it and this demux disagree.
            _ => self.protocol_error(
                self.header_trace(d.src, &header),
                "control packet reached the data-accept path",
            ),
        }
    }

    /// Refuse a message at its first fragment: tell the sender (`fatal` =
    /// do not retry) and remember to swallow the fragments still coming
    /// (`frag_len` is the payload length; `decode` checked it).
    fn refuse_message(
        &self,
        st: &mut McpState,
        src: FabricNodeId,
        header: &WireHeader,
        rail: usize,
        fatal: bool,
    ) {
        self.sim.add_count("mcp.rejects_sent", 1);
        self.mt_instant(TraceId::new(src.0, header.msg_id), stage::REJECT_SENT);
        if header.total_len > header.frag_len {
            st.recv.rejected.insert((src.0, header.msg_id));
        }
        self.send_control(rail, src, Self::reject_header(header.msg_id, fatal));
    }

    fn deliver_message(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let (src, header, rail) = (d.src, d.header, d.rail);
        let payload = d.payload();
        let key = (src.0, header.msg_id);
        let trace = TraceId::new(src.0, header.msg_id);
        if st.recv.rejected.contains(&key) {
            if header.offset as u64 + payload.len() as u64 >= header.total_len as u64 {
                st.recv.rejected.remove(&key); // last fragment seen; forget
            }
            return;
        }
        if header.offset == 0 {
            // First fragment: find a destination buffer.
            let Some(port) = st.ports.get_mut(&header.dst_port.0) else {
                self.sim.add_count("bcl.rx_no_port", 1);
                self.mt_instant(trace, stage::DROP_NO_PORT);
                return;
            };
            let (target, loc) = match header.channel.kind {
                ChannelKind::System => match port.pool.claim() {
                    Some(idx) => (
                        port.pool.segments(idx).clone(),
                        RecvDataLoc::SystemBuffer(idx),
                    ),
                    None => {
                        // Paper §2.2: "The incoming message will be discarded
                        // if there is no free buffer in the pool."
                        self.sim.add_count("bcl.sys_pool_discard", 1);
                        self.mt_instant(trace, stage::DROP_NO_BUFFER);
                        if header.total_len > header.frag_len {
                            st.recv.rejected.insert(key);
                        }
                        return;
                    }
                },
                ChannelKind::Normal => match port.normal.remove(&header.channel.index) {
                    Some(segs) => (segs, RecvDataLoc::Posted),
                    None => {
                        // Rendezvous violated: tell the sender to retry.
                        self.sim.add_count("bcl.rx_not_ready", 1);
                        self.refuse_message(st, src, &header, rail, false);
                        return;
                    }
                },
                ChannelKind::Open => unreachable!(),
            };
            if (header.total_len as u64) > sg_total(&target) {
                // Message longer than the receive buffer: refuse (fatal).
                self.sim.add_count("bcl.rx_too_big", 1);
                self.refuse_message(st, src, &header, rail, true);
                return;
            }
            st.recv.incoming.insert(
                key,
                Incoming {
                    port: header.dst_port,
                    channel: header.channel,
                    src_port: header.src_port,
                    total: header.total_len as u64,
                    received: 0,
                    target,
                    loc,
                },
            );
        }
        let Some(inc) = st.recv.incoming.get(&key) else {
            self.sim.add_count("bcl.rx_orphan_frag", 1);
            self.mt_instant(trace, stage::RX_DISCARD);
            return;
        };
        // DMA the fragment into its place in the user buffer.
        let len = payload.len() as u64;
        let target = self.dma_window(&inc.target, header.offset as u64, len);
        self.dma_payload(trace, target, d.pkt, HEADER_BYTES, header.seq, move |me| {
            let mut st = me.state.borrow_mut();
            let Some(inc) = st.recv.frag_landed(key, len) else {
                return;
            };
            let ev = RecvEvent {
                src: ProcAddr {
                    node: NodeId(src.0),
                    port: inc.src_port,
                },
                channel: inc.channel,
                len: inc.total,
                msg_id: header.msg_id,
                data: inc.loc,
            };
            me.post_completion(&st, inc.port, trace, Completion::Recv(ev));
        });
    }

    fn rma_write(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let (header, len) = (d.header, d.payload().len() as u64);
        let trace = TraceId::new(d.src.0, header.msg_id);
        let Some(port) = st.ports.get(&header.dst_port.0) else {
            self.sim.add_count("bcl.rx_no_port", 1);
            self.mt_instant(trace, stage::DROP_NO_PORT);
            return;
        };
        let Some(segs) = port.open.get(&header.channel.index) else {
            self.sim.add_count("bcl.rma_bad_channel", 1);
            return;
        };
        let off = header.offset as u64;
        if off + len > sg_total(segs) {
            // NIC-side bounds check: one-sided writes cannot scribble past
            // the bound window.
            self.sim.add_count("bcl.rma_oob", 1);
            return;
        }
        let target = self.dma_window(segs, off, len);
        self.dma_payload(trace, target, d.pkt, HEADER_BYTES, header.seq, |_| {});
    }

    fn rma_read_request(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let (src, header) = (d.src, d.header);
        let refuse = |counter: &str| {
            self.sim.add_count(counter, 1);
            self.send_control(d.rail, src, Self::reject_header(header.msg_id, true));
        };
        let Some(port) = st.ports.get(&header.dst_port.0) else {
            return refuse("bcl.rx_no_port");
        };
        let Some(segs) = port.open.get(&header.channel.index) else {
            return refuse("bcl.rma_bad_channel");
        };
        let offset = header.offset as u64;
        let len = header.total_len as u64;
        if offset + len > sg_total(segs) {
            return refuse("bcl.rma_oob");
        }
        // The reply job holds the slice of the window it reads on its own:
        // the window may be re-bound or its port closed before it runs.
        let segments = self
            .os
            .memory()
            .nic_hold(slice_sg(segs, offset, len), false);
        st.send.queue.push_back(SendJob {
            src_port: header.dst_port,
            dst_fid: src,
            dst_port: header.src_port,
            channel: header.channel,
            msg_id: header.msg_id,
            segments,
            total_len: len,
            kind: JobKind::RmaReadData,
            retries: 0,
            notify_sender: false,
        });
        self.kick_sender_deferred();
    }

    fn rma_read_data(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let header = d.header;
        let msg_id = header.msg_id;
        // The read reply joins the requesting chain, which is this node's.
        let trace = self.local_trace(msg_id);
        let Some(read) = st.recv.pending_reads.get(&msg_id) else {
            // A reply with no matching outstanding read request: the
            // firmware's request/reply bookkeeping is out of sync.
            self.sim.add_count("bcl.rx_orphan_read_data", 1);
            self.protocol_error(trace, "read-reply data with no pending read request");
            return;
        };
        let len = d.payload().len() as u64;
        let target = self.dma_window(&read.segments, header.offset as u64, len);
        self.dma_payload(trace, target, d.pkt, HEADER_BYTES, header.seq, move |me| {
            let mut st = me.state.borrow_mut();
            if let Some(read) = st.recv.read_landed(msg_id, len) {
                me.post_local_event(&st, read.port, msg_id, SendStatus::Ok);
            }
        });
    }
}

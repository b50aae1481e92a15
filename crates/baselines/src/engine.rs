//! A miniature protocol engine that runs any [`ArchModel`] over the shared
//! fabric.
//!
//! The comparators don't need BCL's full port/channel machinery — Table 2
//! measures point-to-point latency and bandwidth — so each node gets one
//! [`Endpoint`] with blocking `send`/`recv`. The engine reuses BCL's wire
//! format and go-back-N reliability so all protocols are on an identical
//! footing; only the `ArchModel` cost/structure parameters differ.
//!
//! Unlike BCL, baseline payloads are plain vectors rather than simulated
//! user memory: the comparators' published numbers are endpoint-to-endpoint
//! and none of the Table 2 experiments depend on *their* address
//! translation being real (the user-level NIC-TLB behaviour is modeled by
//! [`crate::arch::NicTlbModel`] cost accounting).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::Mutex;

use suca_bcl::reliable::{GbnReceiver, GbnSender, GbnVerdict};
use suca_bcl::wire::{WireHeader, WireKind, HEADER_BYTES};
use suca_bcl::{ChannelId, PortId};
use suca_myrinet::{Fabric, FabricNodeId, PacketTrace, FRAMING_BYTES};
use suca_os::OsPersonality;
use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{ActorCtx, EventId, Signal, Sim, SimDuration};

use crate::arch::ArchModel;

/// Retransmission timeout for reliable baselines.
const RETX_TIMEOUT_US: u64 = 300;
/// Go-back-N window.
const WINDOW: u32 = 32;

/// Raised when a protocol cannot exist on the host OS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapUnsupported {
    /// The OS that lacks device mmap.
    pub os: &'static str,
    /// The protocol that needs it.
    pub protocol: &'static str,
}

impl core::fmt::Display for MmapUnsupported {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requires mmap of device memory, which {} does not support",
            self.protocol, self.os
        )
    }
}
impl std::error::Error for MmapUnsupported {}

struct OutMsg {
    dst: FabricNodeId,
    msg_id: u32,
    data: Bytes,
    tlb_stall: SimDuration,
}

struct ActiveMsg {
    msg: OutMsg,
    next_off: u64,
}

struct InMsg {
    total: u64,
    received: u64,
    buf: Vec<u8>,
}

struct EpState {
    send_q: VecDeque<OutMsg>,
    /// Receive-side bounce-buffer copy engine (AM-II, kernel-level): one
    /// copy at a time; gates delivery, which is what actually caps those
    /// protocols' bandwidth.
    copy_busy_until: suca_sim::SimTime,
    active: Option<ActiveMsg>,
    busy: bool,
    retx: VecDeque<(FabricNodeId, Bytes)>,
    gbn_tx: HashMap<u32, GbnSender>,
    gbn_rx: HashMap<u32, GbnReceiver>,
    timers: HashMap<u32, EventId>,
    incoming: HashMap<(u32, u32), InMsg>,
    /// Delivered messages awaiting the application: (src node, msg id,
    /// payload) — the id lets the receive path attribute its events.
    ready: VecDeque<(u32, u32, Vec<u8>)>,
    tlb: VecDeque<(u64, u64)>, // LRU of (buffer id, page) for user-level
    next_msg: u32,
}

struct EpInner {
    sim: Sim,
    arch: ArchModel,
    fabric: Arc<dyn Fabric>,
    fid: FabricNodeId,
    frag_cap: u64,
    signal: Signal,
    state: Mutex<EpState>,
}

/// One node's endpoint for a baseline protocol.
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<EpInner>,
}

/// A baseline protocol instantiated over a fabric.
pub struct BaselineNet {
    /// Architecture being modeled.
    pub arch: ArchModel,
    endpoints: Vec<Endpoint>,
}

impl BaselineNet {
    /// Attach one endpoint per fabric node. Fails if the protocol needs
    /// device mmap and the host OS (AIX!) does not provide it — the paper's
    /// portability argument, enforced at construction.
    pub fn build(
        sim: &Sim,
        fabric: Arc<dyn Fabric>,
        arch: ArchModel,
        personality: OsPersonality,
    ) -> Result<Arc<BaselineNet>, MmapUnsupported> {
        if arch.needs_device_mmap && !personality.supports_device_mmap {
            return Err(MmapUnsupported {
                os: personality.name,
                protocol: arch.name,
            });
        }
        let frag_cap = (fabric.mtu() as u64)
            .saturating_sub(HEADER_BYTES as u64)
            .min(4096);
        let endpoints = (0..fabric.num_nodes())
            .map(|n| {
                let inner = Arc::new(EpInner {
                    sim: sim.clone(),
                    arch: arch.clone(),
                    fabric: fabric.clone(),
                    fid: FabricNodeId(n),
                    frag_cap,
                    signal: Signal::new(sim),
                    state: Mutex::new(EpState {
                        send_q: VecDeque::new(),
                        active: None,
                        busy: false,
                        retx: VecDeque::new(),
                        gbn_tx: HashMap::new(),
                        gbn_rx: HashMap::new(),
                        timers: HashMap::new(),
                        incoming: HashMap::new(),
                        ready: VecDeque::new(),
                        copy_busy_until: suca_sim::SimTime::ZERO,
                        tlb: VecDeque::new(),
                        next_msg: 0,
                    }),
                });
                let weak: Weak<EpInner> = Arc::downgrade(&inner);
                fabric.attach(
                    FabricNodeId(n),
                    Box::new(move |sim, pkt| {
                        if let Some(inner) = weak.upgrade() {
                            EpInner::on_packet(&inner, sim, pkt);
                        }
                    }),
                );
                Endpoint { inner }
            })
            .collect();
        Ok(Arc::new(BaselineNet { arch, endpoints }))
    }

    /// Endpoint on node `n`.
    pub fn endpoint(&self, n: u32) -> Endpoint {
        self.endpoints[n as usize].clone()
    }
}

impl Endpoint {
    /// Blocking host-side send. `buf_id` identifies the (conceptual) user
    /// buffer so the user-level NIC TLB can be modeled; reusing the same id
    /// re-uses cached translations, fresh ids thrash the cache.
    pub fn send(&self, ctx: &mut ActorCtx, dst: u32, data: &[u8], buf_id: u64) {
        let inner = &self.inner;
        let arch = &inner.arch;
        let t0 = ctx.now();
        // Critical-path accounting for Table 1.
        if arch.send_traps > 0 {
            ctx.sim().add_count("os.traps", u64::from(arch.send_traps));
        }
        ctx.sleep(arch.host_send_fixed + arch.copy_time(data.len() as u64, arch.send_copies));

        // NIC-side TLB for user-level protocols.
        let tlb_stall = self.tlb_stall(data.len() as u64, buf_id);

        let msg_id = {
            let mut st = inner.state.lock();
            let id = st.next_msg;
            st.next_msg += 1;
            st.send_q.push_back(OutMsg {
                dst: FabricNodeId(dst),
                msg_id: id,
                data: Bytes::copy_from_slice(data),
                tlb_stall,
            });
            id
        };
        let sim = ctx.sim();
        if sim.msg_trace().enabled() {
            let tid = TraceId::new(inner.fid.0, msg_id);
            sim.trace_event(
                TraceEvent::span(
                    tid,
                    inner.fid.0,
                    TraceLayer::Library,
                    stage::SEND,
                    t0.as_ns(),
                    ctx.now().as_ns(),
                )
                .with_bytes(data.len() as u64),
            );
            // Each architecture's extra kernel crossings show up in its
            // chain (Table 1), so the completeness checker can hold every
            // protocol to its own budget.
            for _ in 0..arch.send_traps {
                sim.trace_event(TraceEvent::instant(
                    tid,
                    inner.fid.0,
                    TraceLayer::Kernel,
                    stage::TRAP,
                    ctx.now().as_ns(),
                ));
            }
        }
        EpInner::kick(inner);
    }

    fn tlb_stall(&self, len: u64, buf_id: u64) -> SimDuration {
        let Some(tlb) = self.inner.arch.nic_tlb else {
            return SimDuration::ZERO;
        };
        let pages = len.div_ceil(4096).max(1);
        let mut st = self.inner.state.lock();
        let mut misses = 0u64;
        for p in 0..pages {
            let key = (buf_id, p);
            if let Some(pos) = st.tlb.iter().position(|k| *k == key) {
                st.tlb.remove(pos);
                st.tlb.push_back(key);
            } else {
                misses += 1;
                st.tlb.push_back(key);
                if st.tlb.len() > tlb.entries {
                    st.tlb.pop_front();
                }
            }
        }
        self.inner.sim.add_count("baseline.tlb_misses", misses);
        tlb.miss_cost * misses
    }

    /// Blocking receive: returns `(source node, payload)`.
    pub fn recv(&self, ctx: &mut ActorCtx) -> (u32, Vec<u8>) {
        let inner = self.inner.clone();
        loop {
            // NB: bind the pop before matching — an `if let` scrutinee
            // temporary would keep the MutexGuard alive across the sleep
            // below, deadlocking the whole engine.
            let got = inner.state.lock().ready.pop_front();
            if let Some((src, msg_id, data)) = got {
                let arch = &inner.arch;
                if arch.recv_traps > 0 {
                    ctx.sim().add_count("os.traps", u64::from(arch.recv_traps));
                }
                // Per-byte copy costs were paid by the delivery pipeline.
                ctx.sleep(arch.recv_fixed);
                let sim = ctx.sim();
                if sim.msg_trace().enabled() {
                    let tid = TraceId::new(src, msg_id);
                    for _ in 0..arch.recv_traps {
                        sim.trace_event(TraceEvent::instant(
                            tid,
                            inner.fid.0,
                            TraceLayer::Kernel,
                            stage::TRAP,
                            ctx.now().as_ns(),
                        ));
                    }
                    sim.trace_event(TraceEvent::instant(
                        tid,
                        inner.fid.0,
                        TraceLayer::Library,
                        stage::POLL_RECV,
                        ctx.now().as_ns(),
                    ));
                }
                return (src, data);
            }
            inner.signal.wait(ctx);
        }
    }

    /// Non-blocking variant of [`Endpoint::recv`].
    pub fn try_recv(&self, ctx: &mut ActorCtx) -> Option<(u32, Vec<u8>)> {
        let got = self.inner.state.lock().ready.pop_front();
        got.map(|(src, msg_id, data)| {
            ctx.sleep(self.inner.arch.recv_fixed);
            let sim = ctx.sim();
            if sim.msg_trace().enabled() {
                sim.trace_event(TraceEvent::instant(
                    TraceId::new(src, msg_id),
                    self.inner.fid.0,
                    TraceLayer::Library,
                    stage::POLL_RECV,
                    ctx.now().as_ns(),
                ));
            }
            (src, data)
        })
    }
}

impl EpInner {
    fn wire_time(&self, payload_len: usize) -> SimDuration {
        SimDuration::for_bytes(
            payload_len as u64 + FRAMING_BYTES,
            self.fabric.link_bytes_per_sec(),
        )
    }

    fn kick(self: &Arc<Self>) {
        let go = {
            let mut st = self.state.lock();
            if st.busy {
                false
            } else {
                st.busy = true;
                true
            }
        };
        if go {
            let me = self.clone();
            self.sim.schedule_in(SimDuration::ZERO, move |_| me.step());
        }
    }

    fn step(self: &Arc<Self>) {
        enum Work {
            Retx(FabricNodeId, Bytes),
            NewMsg(SimDuration),
            Frag(FabricNodeId, Bytes, u32, u32),
            Idle,
            Stall,
        }
        let work = {
            let mut st = self.state.lock();
            if let Some((dst, pkt)) = st.retx.pop_front() {
                Work::Retx(dst, pkt)
            } else if st.active.is_none() {
                match st.send_q.pop_front() {
                    None => {
                        st.busy = false;
                        Work::Idle
                    }
                    Some(msg) => {
                        let setup = self.arch.nic_send_fixed + msg.tlb_stall;
                        st.active = Some(ActiveMsg { msg, next_off: 0 });
                        Work::NewMsg(setup)
                    }
                }
            } else {
                let (dst, window_ok) = {
                    let a = st.active.as_ref().expect("checked");
                    (a.msg.dst, true)
                };
                let window_ok = if self.arch.reliable {
                    st.gbn_tx
                        .entry(dst.0)
                        .or_insert_with(|| GbnSender::new(WINDOW))
                        .can_send()
                } else {
                    window_ok
                };
                if !window_ok {
                    st.busy = false;
                    Work::Stall
                } else {
                    let a = st.active.as_mut().expect("checked");
                    let total = a.msg.data.len() as u64;
                    let off = a.next_off;
                    let len = self.frag_cap.min(total - off);
                    let frag = a.msg.data.slice(off as usize..(off + len) as usize);
                    a.next_off = off + len;
                    let done = a.next_off >= total;
                    let mut header = WireHeader {
                        kind: WireKind::Data,
                        channel: ChannelId::SYSTEM,
                        src_port: PortId(0),
                        dst_port: PortId(0),
                        msg_id: a.msg.msg_id,
                        seq: 0,
                        offset: off as u32,
                        total_len: total as u32,
                        frag_len: frag.len() as u32,
                        epoch: 0,
                    };
                    if self.arch.reliable {
                        let gbn = st.gbn_tx.get_mut(&dst.0).expect("created above");
                        header.seq = gbn.next_seq();
                        let pkt = gbn_encode_and_record(gbn, header, &frag);
                        if done {
                            st.active = None;
                        }
                        self.arm_timer(&mut st, dst);
                        Work::Frag(dst, pkt, header.msg_id, header.seq)
                    } else {
                        let pkt = header.encode(&frag);
                        if done {
                            st.active = None;
                        }
                        Work::Frag(dst, pkt, header.msg_id, header.seq)
                    }
                }
            }
        };
        match work {
            Work::Idle | Work::Stall => {}
            Work::NewMsg(setup) => {
                let me = self.clone();
                self.sim.schedule_in(setup, move |_| me.step());
            }
            Work::Retx(dst, pkt) => {
                let proc = self.arch.nic_per_frag;
                let tx = self.wire_time(pkt.len());
                // Recover identity from the wire header so retransmissions
                // stay attributed to their chain (timeout path only).
                let mut meta = None;
                if let Some((h, _)) = WireHeader::decode(&pkt) {
                    let tid = TraceId::new(self.fid.0, h.msg_id);
                    if self.sim.msg_trace().enabled() {
                        let start = self.sim.now();
                        self.sim.trace_event(
                            TraceEvent::span(
                                tid,
                                self.fid.0,
                                TraceLayer::Mcp,
                                stage::RETX,
                                start.as_ns(),
                                (start + proc).as_ns(),
                            )
                            .with_seq(h.seq)
                            .with_bytes(h.frag_len as u64),
                        );
                    }
                    meta = Some(PacketTrace {
                        origin: self.fid.0,
                        msg_id: h.msg_id,
                        seq: h.seq,
                    });
                }
                let fabric = self.fabric.clone();
                let fid = self.fid;
                self.sim.schedule_in(proc, move |s| {
                    fabric.inject_traced(s, fid, dst, pkt, meta);
                });
                let me = self.clone();
                self.sim.schedule_in(proc + tx, move |_| me.step());
            }
            Work::Frag(dst, pkt, msg_id, seq) => {
                let proc = self.arch.nic_per_frag;
                let tx = self.wire_time(pkt.len());
                let meta = if self.sim.msg_trace().enabled() {
                    let tid = TraceId::new(self.fid.0, msg_id);
                    let start = self.sim.now();
                    self.sim.trace_event(
                        TraceEvent::span(
                            tid,
                            self.fid.0,
                            TraceLayer::Mcp,
                            stage::INJECT,
                            start.as_ns(),
                            (start + proc).as_ns(),
                        )
                        .with_seq(seq),
                    );
                    self.sim.trace_event(
                        TraceEvent::span(
                            tid,
                            self.fid.0,
                            TraceLayer::Wire,
                            stage::WIRE_TX,
                            (start + proc).as_ns(),
                            (start + proc + tx).as_ns(),
                        )
                        .with_seq(seq)
                        .with_bytes(pkt.len() as u64),
                    );
                    Some(PacketTrace {
                        origin: self.fid.0,
                        msg_id,
                        seq,
                    })
                } else {
                    None
                };
                let fabric = self.fabric.clone();
                let fid = self.fid;
                self.sim.schedule_in(proc, move |s| {
                    fabric.inject_traced(s, fid, dst, pkt, meta);
                });
                let me = self.clone();
                self.sim.schedule_in(proc + tx, move |_| me.step());
            }
        }
    }

    fn arm_timer(self: &Arc<Self>, st: &mut EpState, dst: FabricNodeId) {
        if st.timers.contains_key(&dst.0) {
            return;
        }
        let me = self.clone();
        let id = self
            .sim
            .schedule_in(SimDuration::from_us(RETX_TIMEOUT_US), move |_| {
                me.on_timeout(dst)
            });
        st.timers.insert(dst.0, id);
    }

    fn on_timeout(self: &Arc<Self>, dst: FabricNodeId) {
        {
            let mut st = self.state.lock();
            st.timers.remove(&dst.0);
            let Some(gbn) = st.gbn_tx.get(&dst.0) else {
                return;
            };
            if gbn.in_flight() == 0 {
                return;
            }
            let pkts: Vec<Bytes> = gbn.unacked().cloned().collect();
            self.sim.add_count("baseline.retx", pkts.len() as u64);
            for p in pkts {
                st.retx.push_back((dst, p));
            }
            self.arm_timer(&mut st, dst);
        }
        self.kick();
    }

    fn on_packet(self: &Arc<Self>, sim: &Sim, pkt: suca_myrinet::Packet) {
        if pkt.corrupted {
            sim.add_count("baseline.crc_dropped", 1);
            if let Some(t) = pkt.trace {
                if sim.msg_trace().enabled() {
                    sim.trace_event(TraceEvent::instant(
                        TraceId::new(t.origin, t.msg_id),
                        self.fid.0,
                        TraceLayer::Mcp,
                        stage::DROP_CRC,
                        sim.now().as_ns(),
                    ));
                }
            }
            return;
        }
        let Some((header, payload)) = WireHeader::decode(&pkt.payload) else {
            sim.add_count("baseline.malformed", 1);
            return;
        };
        let src = pkt.src;
        match header.kind {
            WireKind::Ack => {
                let me = self.clone();
                sim.schedule_in(SimDuration::from_us_f64(0.30), move |_| {
                    me.on_ack(src, header.seq);
                });
            }
            WireKind::Data => {
                let me = self.clone();
                let proc = self.arch.recv_per_frag();
                if sim.msg_trace().enabled() {
                    let start = sim.now();
                    sim.trace_event(
                        TraceEvent::span(
                            TraceId::new(src.0, header.msg_id),
                            self.fid.0,
                            TraceLayer::Mcp,
                            stage::RX,
                            start.as_ns(),
                            (start + proc).as_ns(),
                        )
                        .with_seq(header.seq)
                        .with_bytes(header.frag_len as u64),
                    );
                }
                sim.schedule_in(proc, move |_| me.on_data(src, header, payload));
            }
            _ => sim.add_count("baseline.unexpected_kind", 1),
        }
    }

    fn on_ack(self: &Arc<Self>, src: FabricNodeId, cum: u32) {
        {
            let mut st = self.state.lock();
            let Some(gbn) = st.gbn_tx.get_mut(&src.0) else {
                return;
            };
            if gbn.on_ack(cum) == 0 {
                return;
            }
            let empty = gbn.in_flight() == 0;
            if let Some(t) = st.timers.remove(&src.0) {
                self.sim.cancel(t);
            }
            if !empty {
                self.arm_timer(&mut st, src);
            }
        }
        self.kick();
    }

    fn on_data(self: &Arc<Self>, src: FabricNodeId, header: WireHeader, payload: Bytes) {
        let mut st = self.state.lock();
        if self.arch.reliable {
            let rx = st.gbn_rx.entry(src.0).or_default();
            let verdict = rx.on_data(header.seq);
            let cum = rx.cum_ack();
            // Ack every data packet (cumulative).
            let ack = WireHeader {
                kind: WireKind::Ack,
                channel: ChannelId::SYSTEM,
                src_port: PortId(0),
                dst_port: PortId(0),
                msg_id: 0,
                seq: cum,
                offset: 0,
                total_len: 0,
                frag_len: 0,
                epoch: 0,
            };
            let fabric = self.fabric.clone();
            let fid = self.fid;
            let pkt = ack.encode(b"");
            self.sim
                .schedule_in(SimDuration::from_us_f64(0.30), move |s| {
                    fabric.inject(s, fid, src, pkt);
                });
            if verdict != GbnVerdict::Accept {
                return;
            }
        }
        let key = (src.0, header.msg_id);
        let inc = st.incoming.entry(key).or_insert_with(|| InMsg {
            total: header.total_len as u64,
            received: 0,
            buf: vec![0u8; header.total_len as usize],
        });
        let off = header.offset as usize;
        inc.buf[off..off + payload.len()].copy_from_slice(&payload);
        inc.received += payload.len() as u64;
        let complete = inc.received >= inc.total;
        if complete {
            let inc = st.incoming.remove(&key).expect("present");
            if self.arch.recv_interrupts > 0 {
                self.sim
                    .add_count("os.interrupts", u64::from(self.arch.recv_interrupts));
                if self.sim.msg_trace().enabled() {
                    let tid = TraceId::new(src.0, header.msg_id);
                    for _ in 0..self.arch.recv_interrupts {
                        self.sim.trace_event(TraceEvent::instant(
                            tid,
                            self.fid.0,
                            TraceLayer::Kernel,
                            stage::INTERRUPT,
                            self.sim.now().as_ns(),
                        ));
                    }
                }
            }
            if self.arch.recv_copies > 0 {
                // The message must be copied out of the bounce buffer before
                // it is visible (and before the buffer can take the next
                // message) — this serialized copy is the real bandwidth cap
                // of copy-on-receive protocols.
                let copy = self
                    .arch
                    .copy_time(inc.buf.len() as u64, self.arch.recv_copies);
                let start = st.copy_busy_until.max(self.sim.now());
                let done_at = start + copy;
                st.copy_busy_until = done_at;
                let me = self.clone();
                let src_id = src.0;
                let msg_id = header.msg_id;
                drop(st);
                self.sim.schedule_at(done_at, move |_| {
                    me.state.lock().ready.push_back((src_id, msg_id, inc.buf));
                    me.signal.notify();
                });
            } else {
                st.ready.push_back((src.0, header.msg_id, inc.buf));
                drop(st);
                self.signal.notify();
            }
        }
    }
}

fn gbn_encode_and_record(gbn: &mut GbnSender, header: WireHeader, frag: &Bytes) -> Bytes {
    let pkt = header.encode(frag);
    // `header.seq` was stamped from `next_seq()` under window admission,
    // so the record cannot be rejected.
    gbn.record_sent(header.seq, pkt.clone())
        .expect("seq stamped from next_seq() under window admission");
    pkt
}

impl ArchModel {
    fn recv_per_frag(&self) -> SimDuration {
        self.nic_recv_frag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchModel;
    use suca_myrinet::{Myrinet, MyrinetConfig};
    use suca_os::OsCostModel;
    use suca_sim::RunOutcome;

    fn net(arch: ArchModel) -> (Sim, Arc<BaselineNet>) {
        let sim = Sim::new(9);
        let fabric = Myrinet::build(&sim, 2, MyrinetConfig::dawning3000());
        let net = BaselineNet::build(&sim, fabric, arch, OsPersonality::LINUX).expect("buildable");
        (sim, net)
    }

    #[test]
    fn payload_integrity_through_fragmentation() {
        let (sim, net) = net(ArchModel::user_level());
        let a = net.endpoint(0);
        let b = net.endpoint(1);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        sim.spawn("tx", move |ctx| a.send(ctx, 1, &payload, 1));
        sim.spawn("rx", move |ctx| {
            let (src, data) = b.recv(ctx);
            assert_eq!(src, 0);
            assert_eq!(data, expect);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn messages_arrive_in_send_order() {
        let (sim, net) = net(ArchModel::gm());
        let a = net.endpoint(0);
        let b = net.endpoint(1);
        sim.spawn("tx", move |ctx| {
            for i in 0..10u32 {
                a.send(ctx, 1, &i.to_le_bytes(), 1);
            }
        });
        sim.spawn("rx", move |ctx| {
            for i in 0..10u32 {
                let (_, data) = b.recv(ctx);
                assert_eq!(u32::from_le_bytes(data.try_into().expect("4")), i);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn kernel_level_counts_a_trap_per_send_and_recv() {
        let (sim, net) = net(ArchModel::kernel_level(&OsCostModel::aix_power3()));
        let a = net.endpoint(0);
        let b = net.endpoint(1);
        sim.spawn("tx", move |ctx| {
            for _ in 0..3 {
                a.send(ctx, 1, b"x", 1);
            }
        });
        sim.spawn("rx", move |ctx| {
            for _ in 0..3 {
                let _ = b.recv(ctx);
            }
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.get_count("os.traps"), 6, "one per send + one per recv");
        assert_eq!(sim.get_count("os.interrupts"), 3, "one per delivery");
    }

    #[test]
    fn every_preset_meets_its_own_chain_policy_per_message() {
        use suca_sim::mtrace::check_completeness;

        let os = OsCostModel::aix_power3();
        for arch in [
            ArchModel::kernel_level(&os),
            ArchModel::user_level(),
            ArchModel::gm(),
            ArchModel::am2(),
            ArchModel::bip(),
        ] {
            let (name, policy) = (arch.name, arch.chain_policy());
            let (sim, net) = net(arch);
            let a = net.endpoint(0);
            let b = net.endpoint(1);
            sim.spawn("tx", move |ctx| a.send(ctx, 1, b"one message", 1));
            sim.spawn("rx", move |ctx| {
                let _ = b.recv(ctx);
            });
            assert_eq!(sim.run(), RunOutcome::Completed);
            let report = check_completeness(&sim.trace_events(), &policy);
            assert_eq!(report.chains.len(), 1, "{name}: one message, one chain");
            assert!(report.is_closed(), "{name}: {:?}", report.violations);
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (sim, net) = net(ArchModel::bip());
        let b = net.endpoint(1);
        sim.spawn("rx", move |ctx| {
            assert!(b.try_recv(ctx).is_none());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn bidirectional_traffic_does_not_interfere() {
        let (sim, net) = net(ArchModel::user_level());
        for me in 0..2u32 {
            let ep = net.endpoint(me);
            sim.spawn(format!("p{me}"), move |ctx| {
                ep.send(ctx, 1 - me, &vec![me as u8; 30_000], 1);
                let (src, data) = ep.recv(ctx);
                assert_eq!(src, 1 - me);
                assert_eq!(data, vec![(1 - me) as u8; 30_000]);
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
    }
}

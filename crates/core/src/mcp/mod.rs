//! MCP — the Message Control Program (NIC firmware).
//!
//! The paper's BCL has three layers; this is the bottom one, running on the
//! NIC's LANai processor. "MCP controls all the inter-node packet transfers.
//! MCP completes a sending operation by reading send request in the card's
//! local memory, sending/receiving message with DMA engines and informing
//! user process the completion." (§4.1.1)
//!
//! Everything is deterministic simulation events over one `McpState` in
//! one `RefCell`: the LANai is a single processor, every handler runs to
//! completion against all of SRAM. The state is one plain struct per
//! concern, each in the file that drives it:
//!
//! * `send.rs` — **send engine**: pops descriptors posted by the kernel
//!   module, stages fragments from user memory into SRAM by host-DMA,
//!   stamps go-back-N sequence numbers and injects. The LANai waits for
//!   each fragment's wire DMA before the next, which (with `send_per_frag`)
//!   produces the paper's 146 MB/s plateau. Also message-level retry.
//! * `peer.rs` — **one record per destination**: the go-back-N streams of
//!   [`crate::reliable`] ("NIC control program need to process the reliable
//!   protocol and perform re-transmission when timeout"), the probe timer,
//!   and the two resends on proof (our extensions): the **gap-ack fast
//!   retransmit**, when the receiver's out-of-order count proves a hole, or
//!   a resent hole, lost; and the **probe retransmit**, when a timer
//!   expiry's probe, queued behind the window, draws a reply whose cum
//!   still names the hole. A timer expiry resends nothing. Then multi-rail
//!   recovery: silence → path death → **rail failover** → **epoch resync**
//!   → ack progress.
//! * `recv.rs` — **receive engine**: CRC/sequence checking, demux to ports
//!   and channels, DMA of payloads straight into user buffers (system pool
//!   or posted normal buffers), rejects, RMA one-sided reads/writes.
//! * `interp.rs` — **collective plan interpreter**: walks a [`CollSetup`]
//!   schedule NIC-side, combining arrivals in an SRAM accumulator.
//! * this file — the [`Mcp`] facade, boot (rings, pollers, telemetry
//!   probes), **chaos** (NIC reset / node crash wipe every sub-state) and
//!   the shared helpers: trace recorders, the one payload DMA, and the one
//!   completion-event DMA into user-space queues (the kernel-free receive
//!   path that defines the architecture).
//!
//! DESIGN.md "MCP structure" lists what every file must keep for reports to
//! stay byte-identical (event order, absent tx streams, wipe semantics).

mod interp;
mod peer;
mod recv;
mod send;

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::{Rc, Weak};

use suca_mem::{NicSegs, PhysAddr};
use suca_myrinet::{FabricNodeId, Network, PacketTrace, SramPool};
use suca_os::NodeOs;
use suca_pci::DmaEngine;
use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{Counter, Histogram, PollerId, Sim, SimDuration, SimTime};

use crate::coll::CollSetup;
use crate::config::BclConfig;
use crate::port::{PortId, RecvEvent, SendEvent, SendStatus};
use crate::queues::{SystemPool, UserQueues};
use crate::sg::{slice_sg, write_sg};
use crate::wire::{WireHeader, WireKind, HEADER_BYTES};

pub use send::{JobKind, SendJob};

/// One registered port. Every buffer here is a [`NicSegs`], as is every
/// buffer anywhere in [`McpState`]: the MCP never stores a segment list it
/// does not hold a reference on, and whatever forgets a list (completion,
/// port close, SRAM wipe, eviction) releases it by dropping it.
struct NicPort {
    queues: Rc<UserQueues>,
    pool: Rc<SystemPool>,
    normal: HashMap<u16, NicSegs>,
    open: HashMap<u16, NicSegs>,
}

/// All of NIC SRAM, in the one firmware `RefCell`.
#[derive(Default)]
struct McpState {
    ports: HashMap<u16, NicPort>,
    send: send::SendEngine,
    /// The peer table: the one map keyed by destination.
    peers: HashMap<u32, peer::Peer>,
    recv: recv::RecvState,
    interp: interp::Interp,
    /// Chaos: while set and in the future, the whole node is crashed — the
    /// send engine stalls and every arriving packet is a counted drop.
    down_until: Option<SimTime>,
}

impl McpState {
    /// Rail carrying traffic to `dst` (rail 0 until a failover moves it).
    fn rail_to(&self, dst: FabricNodeId) -> usize {
        self.peers.get(&dst.0).map_or(0, |p| p.rail)
    }
}

/// One decoded arrival parked in an rx descriptor ring while its processing
/// delay elapses (control packets carry an empty payload). Unboxed:
/// scheduling the matching poll tick allocates nothing.
struct RxDesc {
    src: FabricNodeId,
    header: WireHeader,
    /// The packet as it arrived; its payload is read in place.
    pkt: Rc<[u8]>,
    rail: usize,
}

impl RxDesc {
    fn payload(&self) -> &[u8] {
        &self.pkt[HEADER_BYTES..]
    }
}

/// One encoded packet awaiting its injection instant.
struct TxDesc {
    rail: usize,
    dst: FabricNodeId,
    pkt: Rc<[u8]>,
    meta: Option<PacketTrace>,
}

/// A descriptor ring drained by its registered poller. Every push schedules
/// exactly one poll tick, and each ring is used with one constant delay, so
/// push order equals poll-tick `(time, seq)` order and the i-th tick always
/// finds its own descriptor at the front — behavior is identical to one
/// boxed closure per descriptor, minus the per-packet allocation.
struct Ring<T> {
    queue: RefCell<VecDeque<T>>,
    poller: PollerId,
}

impl<T> Ring<T> {
    fn new(poller: PollerId) -> Self {
        Ring {
            queue: RefCell::default(),
            poller,
        }
    }

    fn push(&self, sim: &Sim, delay: SimDuration, desc: T) {
        self.queue.borrow_mut().push_back(desc);
        sim.schedule_poll_in(delay, self.poller);
    }
}

struct Rings {
    /// Control arrivals (acks, rejects, epoch handshake), `ack_process` each.
    rx_ctrl: Ring<RxDesc>,
    /// Data arrivals and probes, `recv_per_frag` each.
    rx_data: Ring<RxDesc>,
    /// Outgoing fragments from the send engine, `send_per_frag` each.
    tx: Ring<TxDesc>,
    /// Outgoing control packets, `ack_send` each.
    tx_ctrl: Ring<TxDesc>,
}

struct McpInner {
    sim: Sim,
    cfg: BclConfig,
    /// The host this NIC sits in: its node id, the physical memory its DMA
    /// engines reach, and the OS its interrupts are delivered to.
    os: Rc<NodeOs>,
    fid: FabricNodeId,
    /// All rails this NIC is attached to. Single-rail clusters have one
    /// entry; dual-fabric nodes fail over between entries on path death.
    fabrics: Vec<Rc<Network>>,
    host_dma: DmaEngine,
    sram: SramPool,
    frag_cap: u64,
    state: RefCell<McpState>,
    rings: Rings,
    /// Poller of the send-engine step ([`McpInner::sender_step`]).
    sender: PollerId,
    // Typed metric handles for the firmware hot paths (cluster-wide cells).
    sram_stalls: Counter,
    retx_packets: Counter,
    completion_dmas: Counter,
    protocol_errors: Counter,
    path_deaths: Counter,
    rail_failovers: Counter,
    nic_resets: Counter,
    stale_epoch_drops: Counter,
    node_down_drops: Counter,
    recovery_ns: Histogram,
}

/// Handle to one NIC's firmware.
#[derive(Clone)]
pub struct Mcp {
    inner: Rc<McpInner>,
}

/// A completion event bound for one of a port's user-space queues.
enum Completion {
    Send(SendEvent),
    Recv(RecvEvent),
}

impl Mcp {
    /// Boot the firmware on the NIC of `os`'s node, attached at `fid` to every
    /// rail in `fabrics` (node ids and fabric ids are identity-mapped by the
    /// cluster builder). Rail 0 is the initial path to every destination;
    /// the others are failover targets. Every rail must expose this node at
    /// `fid`.
    pub fn new_multi_rail(
        sim: &Sim,
        os: Rc<NodeOs>,
        fid: FabricNodeId,
        fabrics: Vec<Rc<Network>>,
        cfg: BclConfig,
    ) -> Mcp {
        assert!(!fabrics.is_empty(), "a NIC needs at least one rail");
        let host_dma = DmaEngine::from_pci(sim, "host", &cfg.pci);
        let sram = SramPool::new(cfg.nic_sram_bytes);
        // Fragments must fit every rail, so a message resynced onto the
        // other fabric never needs re-fragmenting.
        let min_mtu = fabrics.iter().map(|f| f.mtu()).min().unwrap_or(0);
        let frag_cap = (min_mtu as u64)
            .saturating_sub(HEADER_BYTES as u64)
            .min(4096);
        assert!(frag_cap > 0, "MTU too small for the BCL header");
        assert!(
            cfg.nic_sram_bytes >= frag_cap,
            "NIC SRAM must hold at least one fragment or staging deadlocks"
        );
        let metrics = sim.metrics();
        let send_ring = cfg.limits.send_ring as u64;
        sram.attach_gauge(metrics.gauge("nic.sram_used"));
        // Pollers hold weak references so the engine's registry never pins
        // the firmware alive past cluster teardown.
        let inner = Rc::new_cyclic(|weak: &Weak<McpInner>| {
            let poller = |f: fn(&Rc<McpInner>)| {
                let weak = weak.clone();
                sim.register_poller(move |_| {
                    if let Some(inner) = weak.upgrade() {
                        f(&inner);
                    }
                })
            };
            McpInner {
                sim: sim.clone(),
                cfg,
                os,
                fid,
                fabrics: fabrics.clone(),
                host_dma,
                sram,
                frag_cap,
                sram_stalls: metrics.counter("bcl.sram_stall"),
                retx_packets: metrics.counter("bcl.retx_packets"),
                completion_dmas: metrics.counter("mcp.completion_dmas"),
                protocol_errors: metrics.counter("mcp.protocol_errors"),
                path_deaths: metrics.counter("mcp.path_deaths"),
                rail_failovers: metrics.counter("mcp.rail_failovers"),
                nic_resets: metrics.counter("mcp.nic_resets"),
                stale_epoch_drops: metrics.counter("mcp.stale_epoch_drops"),
                node_down_drops: metrics.counter("mcp.node_down_drops"),
                recovery_ns: metrics.histogram("chaos.recovery_ns"),
                rings: Rings {
                    rx_ctrl: Ring::new(poller(|i| i.poll_rx(&i.rings.rx_ctrl))),
                    rx_data: Ring::new(poller(|i| i.poll_rx(&i.rings.rx_data))),
                    tx: Ring::new(poller(|i| i.poll_tx(&i.rings.tx))),
                    tx_ctrl: Ring::new(poller(|i| i.poll_tx(&i.rings.tx_ctrl))),
                },
                sender: poller(McpInner::sender_step),
                state: RefCell::default(),
            }
        });
        for (rail, fabric) in fabrics.iter().enumerate() {
            let weak = Rc::downgrade(&inner);
            fabric.attach(
                fid,
                Box::new(move |sim, pkt| {
                    if let Some(inner) = weak.upgrade() {
                        McpInner::on_packet(&inner, sim, pkt, rail);
                    }
                }),
            );
        }
        // Continuous-telemetry probes: NIC-side queue depths and SRAM
        // occupancy, sampled by the sim-clock telemetry tick. Weak handles
        // keep the registry from pinning the firmware alive.
        let ts = sim.timeseries();
        let n = inner.os.node_id.0;
        let probe = |name: &str, cap: Option<u64>, read: fn(&McpState) -> u64| {
            let w = Rc::downgrade(&inner);
            ts.register(format!("n{n}.mcp.{name}"), n, cap, move |_| {
                w.upgrade().map_or(0, |i| read(&i.state.borrow_mut()))
            });
        };
        probe("send_queue", Some(send_ring), |st| {
            st.send.queue.len() as u64
        });
        probe("gbn_inflight", None, |st| {
            let tx = st.peers.values().filter_map(|p| p.tx.as_ref());
            tx.map(|tx| tx.in_flight() as u64).sum()
        });
        probe("cq_recv", None, |st| {
            st.ports.values().map(|p| p.queues.depths().0 as u64).sum()
        });
        probe("cq_send", None, |st| {
            st.ports.values().map(|p| p.queues.depths().1 as u64).sum()
        });
        let pool = inner.sram.clone();
        ts.register(
            format!("n{n}.nic.sram_used"),
            n,
            Some(pool.capacity()),
            move |_| pool.used(),
        );
        Mcp { inner }
    }

    /// Kernel module: register a port's host-memory structures on the NIC.
    pub fn register_port(&self, port: PortId, queues: Rc<UserQueues>, pool: Rc<SystemPool>) {
        let mut st = self.inner.state.borrow_mut();
        let prev = st.ports.insert(
            port.0,
            NicPort {
                queues,
                pool,
                normal: HashMap::new(),
                open: HashMap::new(),
            },
        );
        assert!(prev.is_none(), "port {port:?} registered twice on NIC");
    }

    /// Kernel module: tear down a port. Its pool, posted buffers and bound
    /// windows are released with it.
    pub fn unregister_port(&self, port: PortId) {
        self.inner.state.borrow_mut().ports.remove(&port.0);
    }

    /// Kernel module: post a receive buffer on a normal channel.
    /// Returns `false` if the channel already holds an unconsumed buffer
    /// and `replace` is not set. `replace` is used when the library knows
    /// the previous posting was consumed by the intra-node path (which
    /// bypasses the NIC entirely).
    pub fn post_normal(&self, port: PortId, idx: u16, segs: NicSegs, replace: bool) -> bool {
        let mut st = self.inner.state.borrow_mut();
        let p = st
            .ports
            .get_mut(&port.0)
            .expect("post on unregistered port");
        if p.normal.contains_key(&idx) && !replace {
            return false;
        }
        p.normal.insert(idx, segs);
        true
    }

    /// Kernel module: bind a buffer to an open (RMA) channel.
    pub fn bind_open(&self, port: PortId, idx: u16, segs: NicSegs) {
        let mut st = self.inner.state.borrow_mut();
        let p = st
            .ports
            .get_mut(&port.0)
            .expect("bind on unregistered port");
        p.open.insert(idx, segs);
    }

    /// Kernel module: post a send descriptor (the doorbell side effect).
    pub fn post_send(&self, mut job: SendJob) {
        {
            let mut st = self.inner.state.borrow_mut();
            if let JobKind::RmaReadReq { len, .. } = job.kind {
                // The reply lands in this job's segments; the request
                // packet itself has no use for them.
                st.recv.expect_read(&mut job, len);
            }
            st.send.queue.push_back(job);
        }
        self.inner.kick_sender();
    }

    /// Kernel module: post a collective descriptor (the doorbell side
    /// effect). The plan interpreter fetches the contribution by DMA and
    /// runs the schedule entirely NIC-side; the initiator's next host
    /// crossing is polling the completion event.
    pub fn post_collective(&self, setup: CollSetup) {
        self.inner.post_collective(setup);
    }

    /// Name of the primary rail's fabric ("myrinet", "nwrc-mesh") — the
    /// topology key for collective plan selection.
    pub fn fabric_name(&self) -> &'static str {
        self.inner.fabrics[0].name()
    }

    /// Fragment payload capacity (bytes of user data per packet).
    pub fn frag_cap(&self) -> u64 {
        self.inner.frag_cap
    }

    /// Send descriptors currently queued (back-pressure for the ring-full
    /// check in the kernel module).
    pub fn queue_depth(&self) -> usize {
        self.inner.state.borrow().send.queue.len()
    }

    /// Library side: return a consumed system-pool buffer. On hardware the
    /// library updates a free list in host memory that the NIC reads by
    /// DMA; no kernel involvement either way.
    pub fn release_pool_buffer(&self, port: PortId, idx: u32) {
        let st = self.inner.state.borrow();
        if let Some(p) = st.ports.get(&port.0) {
            p.pool.release(idx);
        }
    }

    /// SRAM usage observability: `(used, high_water, capacity)` bytes.
    pub fn sram_stats(&self) -> (u64, u64, u64) {
        (
            self.inner.sram.used(),
            self.inner.sram.high_water(),
            self.inner.sram.capacity(),
        )
    }

    /// Bytes the completed-job memory (jobs a late `Reject` may still name)
    /// reserves: at most 256 small records, plus the whole jobs of the
    /// normal-channel messages that may still be refused retryably.
    pub fn completed_memory_bytes(&self) -> usize {
        self.inner.state.borrow().send.completed.bytes()
    }

    /// Kernel module: is `dst` currently declared unreachable on every rail?
    /// Advisory — the firmware keeps retrying underneath, and ack progress
    /// clears the mark; but the kernel refuses *new* sends meanwhile.
    pub fn path_is_dead(&self, dst: FabricNodeId) -> bool {
        let st = self.inner.state.borrow();
        st.peers.get(&dst.0).is_some_and(|p| p.dead)
    }

    /// The rail currently carrying traffic to `dst` (observability/tests).
    pub fn active_rail(&self, dst: FabricNodeId) -> usize {
        self.inner.state.borrow_mut().rail_to(dst)
    }

    /// Chaos: a NIC reset wipes all MCP SRAM state — send queue, staging,
    /// go-back-N streams, reassembly and read bookkeeping. Senders that
    /// asked for completions get `Rejected` events so no chain wedges.
    /// Epochs live host-side and survive: every tx stream restarts one past
    /// its old epoch, so peers adopt the fresh streams instead of mixing
    /// them with pre-reset sequence numbers.
    pub fn chaos_reset(&self) {
        self.inner.nic_resets.inc();
        self.inner.mt_instant(TraceId::NONE, stage::CHAOS_NIC_RESET);
        self.inner.wipe_sram_state();
        self.inner.kick_sender();
    }

    /// Chaos: crash the whole node for `down_for`. The SRAM wipe of a reset
    /// plus a dead window: arriving packets are counted drops and the send
    /// engine stalls until the restart, which is counted and traced.
    pub fn chaos_crash(&self, down_for: SimDuration) {
        let inner = &self.inner;
        inner.sim.add_count("mcp.node_crashes", 1);
        inner.mt_instant(TraceId::NONE, stage::CHAOS_NODE_CRASH);
        inner.wipe_sram_state();
        inner.state.borrow_mut().down_until = Some(inner.sim.now() + down_for);
        let me = inner.clone();
        inner.sim.schedule_in(down_for, move |s| {
            s.add_count("mcp.node_restarts", 1);
            me.mt_instant(TraceId::NONE, stage::CHAOS_NODE_RESTART);
            me.kick_sender();
        });
    }
}

impl McpInner {
    /// True while a chaos crash holds the node down. State borrowed.
    fn is_down(&self, st: &McpState) -> bool {
        st.down_until.is_some_and(|t| self.sim.now() < t)
    }

    /// Record an MCP-layer instant on this node's ring.
    fn mt_instant(&self, trace: TraceId, stage_name: &'static str) {
        self.sim.trace_event(TraceEvent::instant(
            trace,
            self.os.node_id.0,
            TraceLayer::Mcp,
            stage_name,
            self.sim.now().as_ns(),
        ));
    }

    /// Record a span on this node's ring; `seq` / `bytes` are 0 when the
    /// span is not per-fragment.
    fn mt_span(
        &self,
        trace: TraceId,
        layer: TraceLayer,
        stage_name: &'static str,
        at: Range<SimTime>,
        seq: u32,
        bytes: u64,
    ) {
        let (start, end) = (at.start.as_ns(), at.end.as_ns());
        self.sim.trace_event(
            TraceEvent::span(trace, self.os.node_id.0, layer, stage_name, start, end)
                .with_seq(seq)
                .with_bytes(bytes),
        );
    }

    /// Trace identity of a message this node's host originated (sends,
    /// one-sided reads and collectives alike).
    fn local_trace(&self, msg_id: u32) -> TraceId {
        TraceId::new(self.os.node_id.0, msg_id)
    }

    /// Trace identity of a received packet. Read-reply data joins the local
    /// requester's chain; everything else originates at the sender.
    fn header_trace(&self, src: FabricNodeId, header: &WireHeader) -> TraceId {
        match header.kind {
            WireKind::RmaReadData => self.local_trace(header.msg_id),
            _ => TraceId::new(src.0, header.msg_id),
        }
    }

    /// A protocol-state invariant was violated. The firmware must never
    /// panic the node: count it, record the event, and dump the flight
    /// recorder once so the broken run leaves evidence behind.
    fn protocol_error(&self, trace: TraceId, reason: &'static str) {
        self.protocol_errors.inc();
        self.mt_instant(trace, stage::PROTO_ERROR);
        self.sim.msg_trace().dump_once(reason);
    }

    /// A packet or control message from an epoch this node is already past:
    /// counted and dropped, never applied.
    fn stale_epoch_drop(&self, trace: TraceId) {
        self.stale_epoch_drops.inc();
        self.mt_instant(trace, stage::DROP_STALE_EPOCH);
    }

    // ---------------- descriptor rings ----------------

    /// Process the next arrival parked in an rx ring. Control packets
    /// overload the generic header fields; their layouts are the header
    /// constructors in `peer.rs`.
    fn poll_rx(self: &Rc<Self>, ring: &Ring<RxDesc>) {
        let Some(d) = ring.queue.borrow_mut().pop_front() else {
            return;
        };
        let h = d.header;
        match h.kind {
            WireKind::Ack => self.on_ack(d.src, h.epoch, h.seq, h.offset, h.msg_id),
            WireKind::Probe => self.on_probe(d.src, h.epoch, h.msg_id, d.rail),
            WireKind::Reject => self.on_reject(h.msg_id, h.offset == 1),
            WireKind::EpochSync => self.on_epoch_sync(d.src, h.epoch, h.msg_id as u16, d.rail),
            WireKind::EpochSyncAck => self.on_epoch_sync_ack(d.src, h.epoch, h.seq),
            WireKind::Data | WireKind::RmaReadReq | WireKind::RmaReadData | WireKind::Coll => {
                self.on_data(d)
            }
        }
    }

    /// Inject the next packet of a tx ring (data or control) onto its rail.
    fn poll_tx(&self, ring: &Ring<TxDesc>) {
        let Some(d) = ring.queue.borrow_mut().pop_front() else {
            return;
        };
        self.fabrics[d.rail].inject(&self.sim, self.fid, d.dst, d.pkt, d.meta);
    }

    /// Queue a zero-payload control packet; it leaves after `ack_send`.
    fn send_control(&self, rail: usize, dst: FabricNodeId, header: WireHeader) {
        let desc = TxDesc {
            rail,
            dst,
            pkt: header.encode(b""),
            meta: None,
        };
        let delay = self.cfg.mcp.ack_send;
        self.rings.tx_ctrl.push(&self.sim, delay, desc);
    }

    // ---------------- the two host-DMA writes ----------------

    /// A payload DMA's own reference on the `len` bytes at `off` of a held
    /// list: what the transfer in flight keeps, so that its target outlives
    /// the state that named it (a wipe, a port close) by exactly the DMA.
    fn dma_window(&self, segs: &[(PhysAddr, u64)], off: u64, len: u64) -> NicSegs {
        self.os.memory().nic_hold(slice_sg(segs, off, len), false)
    }

    /// DMA `data[from..]` into `target` (see [`Self::dma_window`]), record
    /// the `dma:data` span, then run `then` (no borrow held) — every payload
    /// that reaches host memory takes this path. An arrival passes its
    /// packet and [`HEADER_BYTES`], so the payload is never copied out.
    fn dma_payload(
        self: &Rc<Self>,
        trace: TraceId,
        target: NicSegs,
        data: impl AsRef<[u8]> + 'static,
        from: usize,
        seq: u32,
        then: impl FnOnce(&Rc<Self>) + 'static,
    ) {
        let len = (data.as_ref().len() - from) as u64;
        let t0 = self.sim.now();
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            let data = &data.as_ref()[from..];
            write_sg(me.os.memory(), &target, 0, data).expect("payload DMA faulted");
            let at = t0..me.sim.now();
            me.mt_span(trace, TraceLayer::Dma, stage::DMA_DATA, at, seq, len);
            then(&me);
        });
    }

    /// DMA a completion event into one of `port`'s user-space queues —
    /// the only way the host ever learns anything from the NIC (under
    /// kernel-level receive, a receive event is queued by the handler of
    /// the interrupt it raises). Silently skipped when the port closed
    /// meanwhile. State borrowed.
    fn post_completion(
        self: &Rc<Self>,
        st: &McpState,
        port: PortId,
        trace: TraceId,
        ev: Completion,
    ) {
        let Some(p) = st.ports.get(&port.0) else {
            return;
        };
        let queues = p.queues.clone();
        let t0 = self.sim.now();
        let me = self.clone();
        self.completion_dmas.inc();
        self.host_dma.submit(self.cfg.mcp.event_bytes, move |_| {
            let at = t0..me.sim.now();
            me.mt_span(trace, TraceLayer::Dma, stage::DMA_CQ, at, 0, 0);
            match ev {
                Completion::Send(ev) => queues.push_send(ev),
                Completion::Recv(ev) if me.cfg.arch.kernel_receive() => {
                    me.interrupt(trace, move || queues.push_recv(ev));
                }
                Completion::Recv(ev) => queues.push_recv(ev),
            }
        });
    }

    /// Raise a host interrupt for `trace` ([`NodeOs::interrupt`]: counted,
    /// and `handler` runs after the entry and service costs).
    fn interrupt(&self, trace: TraceId, handler: impl FnOnce() + 'static) {
        let (node, now) = (self.os.node_id.0, self.sim.now().as_ns());
        let ev = TraceEvent::instant(trace, node, TraceLayer::Kernel, stage::INTERRUPT, now);
        self.sim.trace_event(ev);
        self.os.interrupt(&self.sim, move |_| handler());
    }

    /// Send-queue completion for a message `port` originated on this node
    /// (a collective, or a one-sided read whose chain is the requester's).
    fn post_local_event(
        self: &Rc<Self>,
        st: &McpState,
        port: PortId,
        msg_id: u32,
        status: SendStatus,
    ) {
        let ev = Completion::Send(SendEvent { msg_id, status });
        self.post_completion(st, port, self.local_trace(msg_id), ev);
    }

    // ---------------- chaos: NIC reset / node crash ----------------

    /// Discard every piece of MCP SRAM state. Everyone owed a completion
    /// gets `Rejected` so no user chain wedges on a message the dead NIC
    /// forgot: senders, then outstanding reads, then collective initiators
    /// — each group in a hash-order-free sequence, because the completion
    /// DMAs queue in the order posted.
    fn wipe_sram_state(self: &Rc<Self>) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        for peer in st.peers.values_mut() {
            if let Some(timer) = peer.wipe(self.cfg.reliability.window) {
                self.sim.cancel(timer);
            }
        }
        for job in st.send.wipe() {
            if job.notify_sender {
                self.post_send_event(st, &job, SendStatus::Rejected);
            }
        }
        for (msg_id, port) in st.recv.wipe() {
            self.post_local_event(st, port, msg_id, SendStatus::Rejected);
        }
        for (port, msg_id) in st.interp.wipe() {
            self.post_local_event(st, port, msg_id, SendStatus::Rejected);
        }
    }
}

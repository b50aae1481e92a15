//! MCP — the Message Control Program (NIC firmware).
//!
//! The paper's BCL has three layers; this is the bottom one, running on the
//! NIC's LANai processor. "MCP controls all the inter-node packet transfers.
//! MCP completes a sending operation by reading send request in the card's
//! local memory, sending/receiving message with DMA engines and informing
//! user process the completion." (§4.1.1)
//!
//! Responsibilities implemented here, all as deterministic simulation
//! events:
//!
//! * **Send engine** — pops send descriptors posted by the kernel module,
//!   stages fragments from user memory into SRAM by host-DMA, stamps
//!   go-back-N sequence numbers, and injects packets. The LANai waits for
//!   each fragment's wire DMA before processing the next, which (together
//!   with `send_per_frag`) produces the paper's 146 MB/s plateau.
//! * **Reliable transmission** — per-destination go-back-N with cumulative
//!   ACKs and timeout retransmission ("NIC control program need to process
//!   the reliable protocol and perform re-transmission when timeout").
//! * **Receive engine** — CRC/sequence checking, demux to ports and
//!   channels, DMA of payloads straight into user buffers (system pool or
//!   posted normal buffers), RMA one-sided reads/writes, and DMA of
//!   completion events into user-space queues (the kernel-free receive
//!   path that defines the architecture).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use suca_mem::{PhysAddr, PhysMemory};
use suca_myrinet::{Fabric, FabricNodeId, PacketTrace, SramLease, SramPool, FRAMING_BYTES};
use suca_os::NodeId;
use suca_pci::DmaEngine;
use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{Counter, EventId, Histogram, PollerId, Sim, SimDuration, SimTime};

use crate::coll::CollSetup;
use crate::config::BclConfig;
use crate::port::{
    ChannelId, ChannelKind, PortId, ProcAddr, RecvDataLoc, RecvEvent, SendEvent, SendStatus,
};
use crate::queues::{SystemPool, UserQueues};
use crate::reliable::{EpochReceiver, EpochSender, EpochVerdict, GbnVerdict};
use crate::sg::{read_sg, sg_total, write_sg};
use crate::wire::{WireHeader, WireKind, HEADER_BYTES};

/// What a send descriptor asks the MCP to do.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Ordinary message to a system or normal channel.
    Message,
    /// One-sided write into the destination's open channel at `offset`.
    RmaWrite {
        /// Byte offset within the target's bound buffer.
        offset: u64,
    },
    /// One-sided read request: ask the target for `len` bytes at `offset`
    /// of its open channel; the reply lands in this job's `segments`.
    RmaReadReq {
        /// Byte offset within the target's bound buffer.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Reply stream for a read request (generated NIC-side at the target).
    RmaReadData,
    /// One collective-plan contribution, generated NIC-side by the plan
    /// interpreter. The payload is held inline (it is a snapshot of the
    /// interpreter's SRAM accumulator, not host memory), prefixed on the
    /// wire with the 4-byte LE collective id; always a single fragment.
    Coll {
        /// Collective id matching the arrival to the peer's run.
        coll_id: u32,
        /// Plan chunk index, carried in the header `offset`.
        chunk: u32,
        /// Accumulator snapshot at step entry.
        data: Vec<u8>,
    },
}

/// A send descriptor, as written into NIC memory by the kernel module.
#[derive(Clone, Debug)]
pub struct SendJob {
    /// Originating port (for the completion event).
    pub src_port: PortId,
    /// Destination NIC.
    pub dst_fid: FabricNodeId,
    /// Destination port.
    pub dst_port: PortId,
    /// Destination channel.
    pub channel: ChannelId,
    /// Message id (assigned by the kernel module, unique per node).
    pub msg_id: u32,
    /// Physical segments of the payload in user memory.
    pub segments: Vec<(PhysAddr, u64)>,
    /// Payload length.
    pub total_len: u64,
    /// Operation.
    pub kind: JobKind,
    /// Message-level retries performed so far.
    pub retries: u32,
    /// Whether to post a send-completion event when injected.
    pub notify_sender: bool,
}

struct ActiveSend {
    job: SendJob,
    /// Generation guard: staging callbacks from an aborted send are dropped.
    gen: u64,
    /// Staged fragments: (offset, data, SRAM lease held until injection).
    staged: VecDeque<(u64, Vec<u8>, Option<SramLease>)>,
    stage_next: u64,
    staging: bool,
    injected: u64,
}

struct Incoming {
    port: PortId,
    channel: ChannelId,
    src_port: PortId,
    total: u64,
    received: u64,
    target: Vec<(PhysAddr, u64)>,
    loc: RecvDataLoc,
}

struct PendingRead {
    port: PortId,
    segments: Vec<(PhysAddr, u64)>,
    total: u64,
    received: u64,
}

struct NicPort {
    queues: Arc<UserQueues>,
    pool: Arc<SystemPool>,
    normal: HashMap<u16, Vec<(PhysAddr, u64)>>,
    open: HashMap<u16, Vec<(PhysAddr, u64)>>,
}

/// One contribution parked before its run exists (the peer's descriptor
/// beat ours to the NIC) — keyed into [`McpState::coll_early`].
struct CollArrival {
    src_node: u32,
    src_port: u16,
    chunk: u32,
    data: Vec<u8>,
}

/// One in-flight collective: the plan interpreter's per-run state machine.
/// Lives entirely in NIC SRAM — a chaos wipe discards it like any other
/// firmware state, rejecting the initiator's completion so no chain wedges.
struct CollRun {
    setup: CollSetup,
    /// Accumulator; seeded from the pinned payload by the staging DMA.
    acc: Vec<u8>,
    /// Payload DMA finished; the interpreter may run.
    staged: bool,
    /// Current step index into `setup.steps`.
    step: usize,
    /// Entry sends of the current step already fired.
    sent_current: bool,
    /// Wire sends queued but not yet fully injected; completion waits for
    /// zero so the initiator can never observe done-before-inject.
    outstanding_sends: u32,
    /// Arrived contributions per `(src node, src port, chunk)` edge, FIFO.
    inbox: HashMap<(u32, u16, u32), VecDeque<Vec<u8>>>,
}

struct McpState {
    ports: HashMap<u16, NicPort>,
    send_queue: VecDeque<SendJob>,
    retx: VecDeque<(FabricNodeId, Bytes)>,
    active: Option<ActiveSend>,
    active_gen: u64,
    sender_busy: bool,
    gbn_tx: HashMap<u32, EpochSender>,
    gbn_rx: HashMap<u32, EpochReceiver>,
    timers: HashMap<u32, EventId>,
    incoming: HashMap<(u32, u32), Incoming>,
    rejected: HashSet<(u32, u32)>,
    pending_reads: HashMap<u32, PendingRead>,
    completed: HashMap<u32, SendJob>,
    completed_order: VecDeque<u32>,
    /// Active rail per destination (index into `fabrics`); absent = rail 0.
    rail_for: HashMap<u32, usize>,
    /// Consecutive retransmission timeouts per destination with no ack
    /// progress in between — the paper's kernel-side path-death detector.
    consec_timeouts: HashMap<u32, u32>,
    /// Rail failovers per destination since the last ack progress. Once it
    /// reaches the rail count, the destination is advisorily dead.
    failovers_no_progress: HashMap<u32, u32>,
    /// Destinations declared unreachable on every rail. The kernel refuses
    /// *new* sends ([`crate::BclError::PathDead`]); the firmware keeps
    /// retrying underneath so a revived path clears itself.
    dead_paths: HashSet<u32>,
    /// When the in-progress epoch resync per destination started (for the
    /// recovery-latency histogram).
    sync_started: HashMap<u32, SimTime>,
    /// Chaos: while set and in the future, the whole node is crashed — the
    /// send engine stalls and every arriving packet is a counted drop.
    down_until: Option<SimTime>,
    /// In-flight collective runs keyed `(initiating port, collective id)`.
    colls: HashMap<(u16, u32), CollRun>,
    /// Contributions that arrived before the local descriptor; merged into
    /// the run at post time. Bounded by [`COLL_EARLY_CAP`] across all keys.
    coll_early: HashMap<(u16, u32), Vec<CollArrival>>,
    /// Total parked early contributions (the bound's bookkeeping).
    coll_early_total: usize,
}

/// One decoded control arrival parked in the NIC's rx descriptor ring while
/// its `ack_process` delay elapses. Kept small and unboxed: scheduling the
/// matching poll tick allocates nothing.
enum CtrlDesc {
    Ack {
        src: FabricNodeId,
        epoch: u16,
        cum: u32,
    },
    Reject {
        msg_id: u32,
        fatal: bool,
    },
    EpochSync {
        src: FabricNodeId,
        epoch: u16,
        parked: u16,
        rail: usize,
    },
    EpochSyncAck {
        src: FabricNodeId,
        epoch: u16,
        old_cum: u32,
    },
}

/// One decoded data arrival awaiting its `recv_per_frag` processing delay.
struct DataDesc {
    src: FabricNodeId,
    header: WireHeader,
    payload: Bytes,
    rail: usize,
}

/// One staged fragment awaiting its injection instant.
struct TxDesc {
    rail: usize,
    dst: FabricNodeId,
    pkt: Bytes,
    meta: Option<PacketTrace>,
}

/// Descriptor rings drained by registered pollers. Each ring pairs with a
/// constant processing delay, so push order equals poll-tick `(time, seq)`
/// order and the i-th tick always finds its own descriptor at the front —
/// behavior is identical to the per-event boxed closures these replace,
/// minus the per-packet allocation.
struct Rings {
    /// Control arrivals (acks, rejects, epoch handshake), `ack_process` each.
    rx_ctrl: Mutex<VecDeque<CtrlDesc>>,
    /// Data arrivals, `recv_per_frag` each.
    rx_data: Mutex<VecDeque<DataDesc>>,
    /// Outgoing fragments from the send engine, `send_per_frag` each.
    tx: Mutex<VecDeque<TxDesc>>,
    /// Outgoing control packets, `ack_send` each.
    tx_ctrl: Mutex<VecDeque<TxDesc>>,
}

/// Poller handles for the rings plus the send-engine step, registered once
/// at boot.
struct McpPollers {
    rx_ctrl: PollerId,
    rx_data: PollerId,
    tx: PollerId,
    tx_ctrl: PollerId,
    sender: PollerId,
}

pub(crate) struct McpInner {
    sim: Sim,
    cfg: BclConfig,
    node: NodeId,
    fid: FabricNodeId,
    /// All rails this NIC is attached to. Single-rail clusters have one
    /// entry; dual-fabric nodes fail over between entries on path death.
    fabrics: Vec<Arc<dyn Fabric>>,
    mem: PhysMemory,
    host_dma: DmaEngine,
    sram: SramPool,
    frag_cap: u64,
    state: Mutex<McpState>,
    rings: Rings,
    pollers: OnceLock<McpPollers>,
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
    inner: Arc<McpInner>,
}

/// One unit of send-engine work, decided under the state lock and executed
/// outside it.
enum Work {
    /// Retransmit an already-encoded packet.
    Retx {
        dst: FabricNodeId,
        pkt: Bytes,
        rail: usize,
    },
    /// A new descriptor was activated; charge the fixed cost.
    NewJob { trace: TraceId },
    /// Inject one freshly staged fragment.
    Frag {
        dst: FabricNodeId,
        pkt: Bytes,
        trace: TraceId,
        seq: u32,
        bytes: u64,
        rail: usize,
    },
    /// Waiting on the staging DMA.
    StallStaging,
    /// Go-back-N window closed.
    StallWindow,
    /// Active send abandoned after a protocol error.
    Dropped,
    /// Queue empty.
    Idle,
}

/// How many fragments the staging engine keeps ahead of injection.
const STAGE_AHEAD: usize = 8;
/// Completed-job memory for message-level retries.
const COMPLETED_CAP: usize = 256;
/// Early-arrival buffer for collective contributions whose local descriptor
/// has not been posted yet. Overflow is a counted drop with a flight-record
/// dump — a wedged collective must leave evidence, never a stuck node.
const COLL_EARLY_CAP: usize = 4096;

impl Mcp {
    /// Boot the firmware on the NIC of `node`, attached to `fabric` at
    /// `fid`. Node ids and fabric ids are identity-mapped by the cluster
    /// builder.
    pub fn new(
        sim: &Sim,
        node: NodeId,
        fid: FabricNodeId,
        fabric: Arc<dyn Fabric>,
        mem: PhysMemory,
        cfg: BclConfig,
    ) -> Mcp {
        Self::new_multi_rail(sim, node, fid, vec![fabric], mem, cfg)
    }

    /// Boot the firmware attached to several rails at once (dual-fabric
    /// nodes). Rail 0 is the initial path to every destination; the others
    /// are failover targets. Every rail must expose this node at `fid`.
    pub fn new_multi_rail(
        sim: &Sim,
        node: NodeId,
        fid: FabricNodeId,
        fabrics: Vec<Arc<dyn Fabric>>,
        mem: PhysMemory,
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
        let inner = Arc::new(McpInner {
            sim: sim.clone(),
            cfg,
            node,
            fid,
            fabrics: fabrics.clone(),
            mem,
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
                rx_ctrl: Mutex::new(VecDeque::new()),
                rx_data: Mutex::new(VecDeque::new()),
                tx: Mutex::new(VecDeque::new()),
                tx_ctrl: Mutex::new(VecDeque::new()),
            },
            pollers: OnceLock::new(),
            state: Mutex::new(McpState {
                ports: HashMap::new(),
                send_queue: VecDeque::new(),
                retx: VecDeque::new(),
                active: None,
                active_gen: 0,
                sender_busy: false,
                gbn_tx: HashMap::new(),
                gbn_rx: HashMap::new(),
                timers: HashMap::new(),
                incoming: HashMap::new(),
                rejected: HashSet::new(),
                pending_reads: HashMap::new(),
                completed: HashMap::new(),
                completed_order: VecDeque::new(),
                rail_for: HashMap::new(),
                consec_timeouts: HashMap::new(),
                failovers_no_progress: HashMap::new(),
                dead_paths: HashSet::new(),
                sync_started: HashMap::new(),
                down_until: None,
                colls: HashMap::new(),
                coll_early: HashMap::new(),
                coll_early_total: 0,
            }),
        });
        // Ring pollers. Weak references so the engine's poller registry
        // never pins the firmware alive past cluster teardown.
        let poller = |f: fn(&Arc<McpInner>)| {
            let weak = Arc::downgrade(&inner);
            inner.sim.register_poller(move |_| {
                if let Some(inner) = weak.upgrade() {
                    f(&inner);
                }
            })
        };
        inner
            .pollers
            .set(McpPollers {
                rx_ctrl: poller(McpInner::poll_rx_ctrl),
                rx_data: poller(McpInner::poll_rx_data),
                tx: poller(McpInner::poll_tx),
                tx_ctrl: poller(McpInner::poll_tx_ctrl),
                sender: poller(McpInner::sender_step),
            })
            .unwrap_or_else(|_| unreachable!("pollers registered once"));
        for (rail, fabric) in fabrics.iter().enumerate() {
            let weak = Arc::downgrade(&inner);
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
        let n = node.0;
        let w = Arc::downgrade(&inner);
        ts.register(
            format!("n{n}.mcp.send_queue"),
            n,
            Some(send_ring),
            move |_| {
                w.upgrade()
                    .map_or(0, |i| i.state.lock().send_queue.len() as u64)
            },
        );
        let w = Arc::downgrade(&inner);
        ts.register(format!("n{n}.mcp.gbn_inflight"), n, None, move |_| {
            w.upgrade().map_or(0, |i| {
                i.state
                    .lock()
                    .gbn_tx
                    .values()
                    .map(|g| g.in_flight() as u64)
                    .sum()
            })
        });
        let w = Arc::downgrade(&inner);
        ts.register(format!("n{n}.mcp.cq_recv"), n, None, move |_| {
            w.upgrade().map_or(0, |i| {
                i.state
                    .lock()
                    .ports
                    .values()
                    .map(|p| p.queues.depths().0 as u64)
                    .sum()
            })
        });
        let w = Arc::downgrade(&inner);
        ts.register(format!("n{n}.mcp.cq_send"), n, None, move |_| {
            w.upgrade().map_or(0, |i| {
                i.state
                    .lock()
                    .ports
                    .values()
                    .map(|p| p.queues.depths().1 as u64)
                    .sum()
            })
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
    pub fn register_port(&self, port: PortId, queues: Arc<UserQueues>, pool: Arc<SystemPool>) {
        let mut st = self.inner.state.lock();
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

    /// Kernel module: tear down a port.
    pub fn unregister_port(&self, port: PortId) {
        self.inner.state.lock().ports.remove(&port.0);
    }

    /// Kernel module: post a receive buffer on a normal channel.
    /// Returns `false` if the channel already holds an unconsumed buffer
    /// and `replace` is not set. `replace` is used when the library knows
    /// the previous posting was consumed by the intra-node path (which
    /// bypasses the NIC entirely).
    pub fn post_normal(
        &self,
        port: PortId,
        idx: u16,
        segs: Vec<(PhysAddr, u64)>,
        replace: bool,
    ) -> bool {
        let mut st = self.inner.state.lock();
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
    pub fn bind_open(&self, port: PortId, idx: u16, segs: Vec<(PhysAddr, u64)>) {
        let mut st = self.inner.state.lock();
        let p = st
            .ports
            .get_mut(&port.0)
            .expect("bind on unregistered port");
        p.open.insert(idx, segs);
    }

    /// Kernel module: post a send descriptor (the doorbell side effect).
    pub fn post_send(&self, job: SendJob) {
        {
            let mut st = self.inner.state.lock();
            if let JobKind::RmaReadReq { len, .. } = job.kind {
                // The reply lands in this job's segments.
                st.pending_reads.insert(
                    job.msg_id,
                    PendingRead {
                        port: job.src_port,
                        segments: job.segments.clone(),
                        total: len,
                        received: 0,
                    },
                );
            }
            st.send_queue.push_back(job);
        }
        McpInner::kick_sender(&self.inner);
    }

    /// Kernel module: post a collective descriptor (the doorbell side
    /// effect). The plan interpreter fetches the contribution by DMA and
    /// runs the schedule entirely NIC-side; the initiator's next host
    /// crossing is polling the completion event.
    pub fn post_collective(&self, setup: CollSetup) {
        McpInner::post_collective(&self.inner, setup);
    }

    /// Name of the primary rail's fabric ("myrinet", "nwrc-mesh") — the
    /// topology key for collective plan selection.
    pub fn fabric_name(&self) -> &'static str {
        self.inner.fabrics[0].name()
    }

    /// Collective runs currently in flight on this NIC (tests/observability).
    pub fn colls_in_flight(&self) -> usize {
        self.inner.state.lock().colls.len()
    }

    /// Fragment payload capacity (bytes of user data per packet).
    pub fn frag_cap(&self) -> u64 {
        self.inner.frag_cap
    }

    /// Send descriptors currently queued (back-pressure for the ring-full
    /// check in the kernel module).
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().send_queue.len()
    }

    /// Library side: return a consumed system-pool buffer. On hardware the
    /// library updates a free list in host memory that the NIC reads by
    /// DMA; no kernel involvement either way.
    pub fn release_pool_buffer(&self, port: PortId, idx: u32) {
        let st = self.inner.state.lock();
        if let Some(p) = st.ports.get(&port.0) {
            p.pool.release(idx);
        }
    }

    /// Free system-pool buffers on a port (tests/observability).
    pub fn pool_free_count(&self, port: PortId) -> usize {
        let st = self.inner.state.lock();
        st.ports.get(&port.0).map_or(0, |p| p.pool.free_count())
    }

    /// SRAM usage observability: `(used, high_water, capacity)` bytes.
    pub fn sram_stats(&self) -> (u64, u64, u64) {
        (
            self.inner.sram.used(),
            self.inner.sram.high_water(),
            self.inner.sram.capacity(),
        )
    }

    /// Kernel module: is `dst` currently declared unreachable on every rail?
    /// Advisory — the firmware keeps retrying underneath, and ack progress
    /// clears the mark; but the kernel refuses *new* sends meanwhile.
    pub fn path_is_dead(&self, dst: FabricNodeId) -> bool {
        self.inner.state.lock().dead_paths.contains(&dst.0)
    }

    /// The rail currently carrying traffic to `dst` (observability/tests).
    pub fn active_rail(&self, dst: FabricNodeId) -> usize {
        *self.inner.state.lock().rail_for.get(&dst.0).unwrap_or(&0)
    }

    /// Number of rails this NIC is attached to.
    pub fn num_rails(&self) -> usize {
        self.inner.fabrics.len()
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
        McpInner::wipe_sram_state(&self.inner);
        McpInner::kick_sender(&self.inner);
    }

    /// Chaos: crash the whole node for `down_for`. The SRAM wipe of a reset
    /// plus a dead window: arriving packets are counted drops and the send
    /// engine stalls until the restart, which is counted and traced.
    pub fn chaos_crash(&self, down_for: SimDuration) {
        let inner = &self.inner;
        inner.sim.add_count("mcp.node_crashes", 1);
        inner.mt_instant(TraceId::NONE, stage::CHAOS_NODE_CRASH);
        McpInner::wipe_sram_state(inner);
        inner.state.lock().down_until = Some(inner.sim.now() + down_for);
        let me = inner.clone();
        inner.sim.schedule_in(down_for, move |s| {
            s.add_count("mcp.node_restarts", 1);
            me.mt_instant(TraceId::NONE, stage::CHAOS_NODE_RESTART);
            me.kick_sender();
        });
    }
}

impl McpInner {
    fn wire_time(&self, rail: usize, payload_len: usize) -> SimDuration {
        SimDuration::for_bytes(
            payload_len as u64 + FRAMING_BYTES,
            self.fabrics[rail].link_bytes_per_sec(),
        )
    }

    /// Active rail toward `dst`. Lock held by the caller.
    fn rail_of(&self, st: &McpState, dst: FabricNodeId) -> usize {
        *st.rail_for.get(&dst.0).unwrap_or(&0)
    }

    /// True while a chaos crash holds the node down. Lock held.
    fn is_down(&self, st: &McpState) -> bool {
        st.down_until.is_some_and(|t| self.sim.now() < t)
    }

    #[inline]
    fn mt_enabled(&self) -> bool {
        self.sim.msg_trace().enabled()
    }

    /// Record an MCP-layer instant on this node's ring.
    fn mt_instant(&self, trace: TraceId, stage_name: &'static str) {
        if self.mt_enabled() {
            self.sim.trace_event(TraceEvent::instant(
                trace,
                self.node.0,
                TraceLayer::Mcp,
                stage_name,
                self.sim.now().as_ns(),
            ));
        }
    }

    /// Trace identity of a send job. Read-reply jobs are generated NIC-side
    /// at the *target*; their chain belongs to the requesting node, which is
    /// where the reply is headed.
    fn job_trace(&self, job: &SendJob) -> TraceId {
        match job.kind {
            JobKind::RmaReadData => TraceId::new(job.dst_fid.0, job.msg_id),
            _ => TraceId::new(self.node.0, job.msg_id),
        }
    }

    /// Trace identity of a received packet. Read-reply data joins the local
    /// requester's chain; everything else originates at the sender.
    fn header_trace(&self, src: FabricNodeId, header: &WireHeader) -> TraceId {
        match header.kind {
            WireKind::RmaReadData => TraceId::new(self.node.0, header.msg_id),
            _ => TraceId::new(src.0, header.msg_id),
        }
    }

    /// Per-packet trace metadata riding the fabric, so switches and links
    /// can attribute hops and faults without parsing protocol headers.
    fn tx_packet_trace(&self, dst: FabricNodeId, header: &WireHeader) -> PacketTrace {
        let origin = match header.kind {
            WireKind::RmaReadData => dst.0,
            _ => self.node.0,
        };
        PacketTrace {
            origin,
            msg_id: header.msg_id,
            seq: header.seq,
        }
    }

    /// A protocol-state invariant was violated. The firmware must never
    /// panic the node: count it, record the event, and dump the flight
    /// recorder once so the broken run leaves evidence behind.
    fn protocol_error(&self, trace: TraceId, reason: &'static str) {
        self.protocol_errors.inc();
        let mt = self.sim.msg_trace();
        if mt.enabled() {
            self.sim.trace_event(TraceEvent::instant(
                trace,
                self.node.0,
                TraceLayer::Mcp,
                stage::PROTO_ERROR,
                self.sim.now().as_ns(),
            ));
        }
        mt.dump_once(reason);
    }

    // ---------------- descriptor rings ----------------

    fn pollers(&self) -> &McpPollers {
        self.pollers.get().expect("pollers registered at boot")
    }

    /// Process the next parked control arrival (ack / reject / handshake).
    fn poll_rx_ctrl(self: &Arc<Self>) {
        let Some(d) = self.rings.rx_ctrl.lock().pop_front() else {
            return;
        };
        match d {
            CtrlDesc::Ack { src, epoch, cum } => self.on_ack(src, epoch, cum),
            CtrlDesc::Reject { msg_id, fatal } => self.on_reject(msg_id, fatal),
            CtrlDesc::EpochSync {
                src,
                epoch,
                parked,
                rail,
            } => self.on_epoch_sync(src, epoch, parked, rail),
            CtrlDesc::EpochSyncAck {
                src,
                epoch,
                old_cum,
            } => self.on_epoch_sync_ack(src, epoch, old_cum),
        }
    }

    /// Process the next parked data arrival.
    fn poll_rx_data(self: &Arc<Self>) {
        let Some(d) = self.rings.rx_data.lock().pop_front() else {
            return;
        };
        self.on_data(d.src, d.header, d.payload, d.rail);
    }

    /// Inject the next staged data fragment onto its rail.
    fn poll_tx(self: &Arc<Self>) {
        let Some(d) = self.rings.tx.lock().pop_front() else {
            return;
        };
        self.fabrics[d.rail].inject_traced(&self.sim, self.fid, d.dst, d.pkt, d.meta);
    }

    /// Inject the next queued control packet onto its rail.
    fn poll_tx_ctrl(self: &Arc<Self>) {
        let Some(d) = self.rings.tx_ctrl.lock().pop_front() else {
            return;
        };
        self.fabrics[d.rail].inject_traced(&self.sim, self.fid, d.dst, d.pkt, d.meta);
    }

    // ---------------- send engine ----------------

    fn kick_sender(self: &Arc<Self>) {
        let should = {
            let mut st = self.state.lock();
            if st.sender_busy {
                false
            } else {
                st.sender_busy = true;
                true
            }
        };
        if should {
            self.sim
                .schedule_poll_in(SimDuration::ZERO, self.pollers().sender);
        }
    }

    /// One step of the LANai send loop. Invariant: `sender_busy` is true and
    /// exactly one chain of `sender_step` events exists while it is.
    fn sender_step(self: &Arc<Self>) {
        let work = {
            let mut st = self.state.lock();
            self.next_work(&mut st)
        };
        match work {
            Work::Idle | Work::StallStaging | Work::StallWindow => {}
            Work::Dropped => {
                // A protocol error abandoned the active send; keep the
                // engine chain alive so queued jobs still go out.
                self.sim
                    .schedule_poll_in(SimDuration::ZERO, self.pollers().sender);
            }
            Work::NewJob { trace } => {
                // Charge the per-message fixed cost (descriptor fetch +
                // reliable-protocol setup), then continue.
                let start = self.sim.now();
                let d = self.cfg.mcp.send_fixed;
                if self.mt_enabled() {
                    self.sim.trace_event(TraceEvent::span(
                        trace,
                        self.node.0,
                        TraceLayer::Mcp,
                        stage::DESCRIPTOR,
                        start.as_ns(),
                        (start + d).as_ns(),
                    ));
                }
                self.sim.schedule_poll_in(d, self.pollers().sender);
            }
            Work::Retx { dst, pkt, rail } => {
                self.retx_packets.inc();
                let proc = self.cfg.mcp.send_per_frag;
                let tx = self.wire_time(rail, pkt.len());
                // Attribute the retransmission: the retx queue stores
                // already-encoded packets, so recover identity from the
                // wire header (only runs after a timeout — off the common
                // path).
                let mut meta = None;
                if let Some((h, _)) = WireHeader::decode(&pkt) {
                    let pt = self.tx_packet_trace(dst, &h);
                    if self.mt_enabled() {
                        let start = self.sim.now();
                        let tid = TraceId::new(pt.origin, pt.msg_id);
                        self.sim.trace_event(
                            TraceEvent::span(
                                tid,
                                self.node.0,
                                TraceLayer::Mcp,
                                stage::RETX,
                                start.as_ns(),
                                (start + proc).as_ns(),
                            )
                            .with_seq(h.seq)
                            .with_bytes(h.frag_len as u64),
                        );
                        self.sim.trace_event(
                            TraceEvent::span(
                                tid,
                                self.node.0,
                                TraceLayer::Wire,
                                stage::WIRE_TX,
                                (start + proc).as_ns(),
                                (start + proc + tx).as_ns(),
                            )
                            .with_seq(h.seq)
                            .with_bytes(pkt.len() as u64),
                        );
                    }
                    meta = Some(pt);
                }
                self.rings.tx.lock().push_back(TxDesc {
                    rail,
                    dst,
                    pkt,
                    meta,
                });
                self.sim.schedule_poll_in(proc, self.pollers().tx);
                self.sim.schedule_poll_in(proc + tx, self.pollers().sender);
            }
            Work::Frag {
                dst,
                pkt,
                trace,
                seq,
                bytes,
                rail,
            } => {
                let proc = self.cfg.mcp.send_per_frag;
                let tx = self.wire_time(rail, pkt.len());
                let start = self.sim.now();
                let meta = if self.mt_enabled() {
                    self.sim.trace_event(
                        TraceEvent::span(
                            trace,
                            self.node.0,
                            TraceLayer::Mcp,
                            stage::INJECT,
                            start.as_ns(),
                            (start + proc).as_ns(),
                        )
                        .with_seq(seq)
                        .with_bytes(bytes),
                    );
                    self.sim.trace_event(
                        TraceEvent::span(
                            trace,
                            self.node.0,
                            TraceLayer::Wire,
                            stage::WIRE_TX,
                            (start + proc).as_ns(),
                            (start + proc + tx).as_ns(),
                        )
                        .with_seq(seq)
                        .with_bytes(pkt.len() as u64),
                    );
                    Some(PacketTrace {
                        origin: trace.origin,
                        msg_id: trace.msg_id,
                        seq,
                    })
                } else {
                    None
                };
                self.rings.tx.lock().push_back(TxDesc {
                    rail,
                    dst,
                    pkt,
                    meta,
                });
                self.sim.schedule_poll_in(proc, self.pollers().tx);
                self.sim.schedule_poll_in(proc + tx, self.pollers().sender);
            }
        }
    }

    /// Pick the next unit of send-engine work. Lock held. Any violated
    /// protocol-state invariant becomes a counted [`Work::Dropped`] (with a
    /// flight-recorder dump) instead of a firmware panic.
    fn next_work(self: &Arc<Self>, st: &mut McpState) -> Work {
        if self.is_down(st) {
            // Node crashed: the engine stalls; the restart event re-kicks.
            st.sender_busy = false;
            return Work::Idle;
        }
        if let Some((dst, pkt)) = st.retx.pop_front() {
            let rail = self.rail_of(st, dst);
            return Work::Retx { dst, pkt, rail };
        }
        let Some(dst) = st.active.as_ref().map(|a| a.job.dst_fid) else {
            // No active send: start the next queued job, if any.
            match st.send_queue.pop_front() {
                None => {
                    st.sender_busy = false;
                    return Work::Idle;
                }
                Some(job) => {
                    st.active_gen += 1;
                    let gen = st.active_gen;
                    let trace = self.job_trace(&job);
                    let mut active = ActiveSend {
                        job,
                        gen,
                        staged: VecDeque::new(),
                        stage_next: 0,
                        staging: false,
                        injected: 0,
                    };
                    // Zero-length messages and read requests still send
                    // one (empty) fragment.
                    if active.job.total_len == 0 {
                        active.staged.push_back((0, Vec::new(), None));
                        active.stage_next = 0;
                    } else if let JobKind::Coll {
                        coll_id, ref data, ..
                    } = active.job.kind
                    {
                        // Collective contributions are NIC-resident (the
                        // interpreter's accumulator): no host staging DMA,
                        // the single wire fragment is assembled in place.
                        let mut wire = Vec::with_capacity(4 + data.len());
                        wire.extend_from_slice(&coll_id.to_le_bytes());
                        wire.extend_from_slice(data);
                        active.stage_next = active.job.total_len;
                        active.staged.push_back((0, wire, None));
                    }
                    st.active = Some(active);
                    self.stage_more(st);
                    return Work::NewJob { trace };
                }
            }
        };
        let window = self.cfg.reliability.window;
        let window_open = st
            .gbn_tx
            .entry(dst.0)
            .or_insert_with(|| EpochSender::new(window))
            .can_send();
        if !window_open {
            // Closed window or an epoch resync in flight; the ack (or the
            // sync-ack) re-kicks the engine.
            st.sender_busy = false;
            return Work::StallWindow;
        }
        let Some(a) = st.active.as_mut() else {
            return self.protocol_drop(st, "active send vanished mid-step");
        };
        let Some((off, data, sram_lease)) = a.staged.pop_front() else {
            // Nothing staged yet.
            if a.staging || a.stage_next < a.job.total_len {
                st.sender_busy = false;
                return Work::StallStaging;
            }
            // All bytes staged & injected but the job never closed: a
            // protocol-state inconsistency, not a reason to kill the node.
            return self.protocol_drop(st, "send engine inconsistent: open job, nothing staged");
        };
        // The fragment leaves SRAM as it is injected.
        drop(sram_lease);
        let mut header = Self::header_for(&a.job, off, &data);
        a.injected += data.len() as u64;
        let job_done = a.injected >= a.job.total_len;
        let trace = self.job_trace(&a.job);
        let bytes = data.len() as u64;
        let Some(gbn) = st.gbn_tx.get_mut(&dst.0) else {
            return self.protocol_drop(st, "go-back-N sender missing for active destination");
        };
        header.seq = gbn.next_seq();
        header.epoch = gbn.epoch();
        let pkt = header.encode(&data);
        if let Err(e) = gbn.record_sent(header.seq, pkt.clone()) {
            // The window was checked open above, so any failure here is a
            // firmware-state inconsistency — counted, not fatal.
            return self.protocol_drop(st, e.reason());
        }
        if job_done {
            if let Some(a) = st.active.take() {
                if a.job.notify_sender {
                    self.post_send_event(st, &a.job, SendStatus::Ok);
                }
                if let JobKind::Coll { coll_id, .. } = a.job.kind {
                    // A collective send left the NIC: its run may now be
                    // eligible to complete. Coll jobs are never retried at
                    // message level (the interpreter owns recovery), so
                    // they skip the completed-job memory.
                    self.coll_send_injected(st, (a.job.src_port.0, coll_id));
                } else {
                    self.remember_completed(st, a.job);
                }
            }
            // Next job (if any) starts after this fragment's wire time,
            // in the same chain.
        } else {
            self.stage_more(st);
        }
        self.arm_timer(st, dst);
        let rail = self.rail_of(st, dst);
        Work::Frag {
            dst,
            pkt,
            trace,
            seq: header.seq,
            bytes,
            rail,
        }
    }

    /// Abandon the active send after a protocol-state violation: the sender
    /// (if it asked) learns via a Rejected completion, the error is counted
    /// and the flight recorder dumped. Lock held.
    fn protocol_drop(self: &Arc<Self>, st: &mut McpState, reason: &'static str) -> Work {
        let trace = match st.active.take() {
            Some(a) => {
                let t = self.job_trace(&a.job);
                if a.job.notify_sender {
                    self.post_send_event(st, &a.job, SendStatus::Rejected);
                }
                t
            }
            None => TraceId::NONE,
        };
        self.protocol_error(trace, reason);
        Work::Dropped
    }

    fn header_for(job: &SendJob, frag_off: u64, data: &[u8]) -> WireHeader {
        let (kind, offset, total) = match job.kind {
            JobKind::Message => (WireKind::Data, frag_off, job.total_len),
            JobKind::RmaWrite { offset } => (WireKind::Data, offset + frag_off, job.total_len),
            JobKind::RmaReadReq { offset, len } => (WireKind::RmaReadReq, offset, len),
            JobKind::RmaReadData => (WireKind::RmaReadData, frag_off, job.total_len),
            // `offset` carries the plan chunk index; the collective id
            // rides the first 4 payload bytes.
            JobKind::Coll { chunk, .. } => (WireKind::Coll, u64::from(chunk), job.total_len),
        };
        WireHeader {
            kind,
            channel: job.channel,
            src_port: job.src_port,
            dst_port: job.dst_port,
            msg_id: job.msg_id,
            seq: 0,   // stamped by the caller
            epoch: 0, // stamped by the caller
            offset: offset as u32,
            total_len: total as u32,
            frag_len: data.len() as u32,
        }
    }

    /// Start/continue staging fragments from user memory into SRAM.
    /// Must be called with the state lock held.
    fn stage_more(self: &Arc<Self>, st: &mut McpState) {
        let Some(a) = st.active.as_mut() else { return };
        if a.staging || a.staged.len() >= STAGE_AHEAD || a.stage_next >= a.job.total_len {
            return;
        }
        let off = a.stage_next;
        let len = self.frag_cap.min(a.job.total_len - off);
        // SRAM back-pressure: if the staging buffers are exhausted, pause;
        // injection drops a lease per fragment and re-invokes stage_more.
        let Some(lease) = self.sram.try_alloc(len) else {
            self.sram_stalls.inc();
            return;
        };
        a.staging = true;
        a.stage_next = off + len;
        let gen = a.gen;
        let segs = a.job.segments.clone();
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            let data = read_sg(&me.mem, &segs, off, len).expect("staging DMA faulted");
            let mut st = me.state.lock();
            let Some(a) = st.active.as_mut() else { return };
            if a.gen != gen {
                return; // send was aborted (rejected) while staging
            }
            a.staging = false;
            a.staged.push_back((off, data, Some(lease)));
            me.stage_more(&mut st);
            drop(st);
            me.kick_sender();
        });
    }

    fn remember_completed(&self, st: &mut McpState, job: SendJob) {
        st.completed_order.push_back(job.msg_id);
        st.completed.insert(job.msg_id, job);
        while st.completed_order.len() > COMPLETED_CAP {
            // The ring and the map are maintained together; an empty ring
            // while over capacity means they diverged. Evidence over panic:
            // count it and trip the flight recorder.
            let Some(old) = st.completed_order.pop_front() else {
                self.protocol_error(
                    TraceId::NONE,
                    "completed-order ring empty while over capacity",
                );
                break;
            };
            st.completed.remove(&old);
        }
    }

    /// DMA a send-completion event into the owner's user-space queue.
    fn post_send_event(self: &Arc<Self>, st: &McpState, job: &SendJob, status: SendStatus) {
        let Some(port) = st.ports.get(&job.src_port.0) else {
            return; // port closed meanwhile
        };
        let queues = port.queues.clone();
        let msg_id = job.msg_id;
        let trace = self.job_trace(job);
        let t0 = self.sim.now();
        let me = self.clone();
        self.completion_dmas.inc();
        self.host_dma.submit(self.cfg.mcp.event_bytes, move |_| {
            if me.mt_enabled() {
                me.sim.trace_event(TraceEvent::span(
                    trace,
                    me.node.0,
                    TraceLayer::Dma,
                    stage::DMA_CQ,
                    t0.as_ns(),
                    me.sim.now().as_ns(),
                ));
            }
            queues.push_send(SendEvent { msg_id, status });
        });
    }

    // ---------------- chaos: NIC reset / node crash ----------------

    /// Discard every piece of MCP SRAM state: the send queue, staging
    /// buffers, go-back-N streams, reassembly and read-reply bookkeeping.
    /// Senders that asked for completions get `Rejected` events so no user
    /// chain wedges on a message the dead NIC forgot. Tx epochs are host
    /// state: each stream restarts one *past* its old epoch, so peers adopt
    /// the fresh streams instead of mixing them with pre-reset sequence
    /// numbers.
    fn wipe_sram_state(self: &Arc<Self>) {
        let mut st = self.state.lock();
        for (_, timer) in st.timers.drain() {
            self.sim.cancel(timer);
        }
        // Reject in-progress and queued sends (their payload staging died
        // with the SRAM). Bumping the generation orphans in-flight staging
        // DMA callbacks.
        st.active_gen += 1;
        if let Some(a) = st.active.take() {
            if a.job.notify_sender {
                self.post_send_event(&st, &a.job, SendStatus::Rejected);
            }
        }
        let queued: Vec<SendJob> = st.send_queue.drain(..).collect();
        for job in &queued {
            if job.notify_sender {
                self.post_send_event(&st, job, SendStatus::Rejected);
            }
        }
        // Outstanding one-sided reads will never match a reply now; their
        // owners learn through a Rejected completion.
        let pending: Vec<(u32, PortId)> = st
            .pending_reads
            .drain()
            .map(|(msg_id, pr)| (msg_id, pr.port))
            .collect();
        for (msg_id, port) in pending {
            let Some(p) = st.ports.get(&port.0) else {
                continue;
            };
            let queues = p.queues.clone();
            self.completion_dmas.inc();
            self.host_dma.submit(self.cfg.mcp.event_bytes, move |_| {
                queues.push_send(SendEvent {
                    msg_id,
                    status: SendStatus::Rejected,
                });
            });
        }
        // In-flight collective runs lived in the wiped SRAM: reject each
        // initiator so its poll loop unwedges. Sorted drain: completion
        // order must not depend on hash-map iteration order (determinism).
        let mut dead_colls: Vec<(u16, u32)> = st.colls.keys().copied().collect();
        dead_colls.sort_unstable();
        for key in dead_colls {
            let Some(run) = st.colls.remove(&key) else {
                continue;
            };
            self.coll_post_event(&st, run.setup.port, run.setup.msg_id, SendStatus::Rejected);
        }
        st.coll_early.clear();
        st.coll_early_total = 0;
        st.retx.clear();
        let window = self.cfg.reliability.window;
        let old_epochs: Vec<(u32, u16)> =
            st.gbn_tx.iter().map(|(dst, g)| (*dst, g.epoch())).collect();
        st.gbn_tx.clear();
        for (dst, epoch) in old_epochs {
            st.gbn_tx
                .insert(dst, EpochSender::with_epoch(window, epoch.wrapping_add(1)));
        }
        st.gbn_rx.clear();
        st.incoming.clear();
        st.rejected.clear();
        st.completed.clear();
        st.completed_order.clear();
        st.consec_timeouts.clear();
        st.failovers_no_progress.clear();
        st.dead_paths.clear();
        st.sync_started.clear();
    }

    // ---------------- timers / retransmission ----------------

    fn arm_timer(self: &Arc<Self>, st: &mut McpState, dst: FabricNodeId) {
        if st.timers.contains_key(&dst.0) {
            return;
        }
        let me = self.clone();
        let id = self
            .sim
            .schedule_in(self.cfg.reliability.retransmit_timeout, move |_| {
                me.on_timeout(dst)
            });
        st.timers.insert(dst.0, id);
    }

    fn on_timeout(self: &Arc<Self>, dst: FabricNodeId) {
        {
            let mut st = self.state.lock();
            st.timers.remove(&dst.0);
            if self.is_down(&st) {
                return; // crashed node: timers die with the firmware
            }
            let (syncing, in_flight, epoch, parked) = match st.gbn_tx.get(&dst.0) {
                Some(gbn) => (
                    gbn.is_syncing(),
                    gbn.in_flight(),
                    gbn.epoch(),
                    gbn.parked_epoch(),
                ),
                None => return,
            };
            if !syncing && in_flight == 0 {
                st.consec_timeouts.remove(&dst.0);
                return;
            }
            self.sim.add_count("bcl.timeouts", 1);
            let consec = st.consec_timeouts.entry(dst.0).or_insert(0);
            *consec += 1;
            let exhausted = *consec;
            let threshold = self.cfg.reliability.max_path_timeouts;
            if threshold > 0 && exhausted >= threshold {
                // Retransmission exhausted: the kernel-side trust model says
                // the NIC — not user code — declares the path dead.
                self.declare_path_dead(&mut st, dst);
                self.arm_timer(&mut st, dst);
                return;
            }
            if syncing {
                // The EpochSync itself was lost; re-offer it on the current
                // rail and keep the timer running.
                let rail = self.rail_of(&st, dst);
                self.send_control(rail, dst, Self::sync_header(epoch, parked));
                self.arm_timer(&mut st, dst);
                return;
            }
            let packets: Vec<Bytes> = st.gbn_tx[&dst.0].unacked().cloned().collect();
            for p in packets {
                st.retx.push_back((dst, p));
            }
            self.arm_timer(&mut st, dst);
        }
        self.kick_sender();
    }

    /// Consecutive-retransmission exhaustion tripped for `dst`: count it,
    /// fail over to the next rail (dual-fabric nodes), and start the
    /// epoch-stamped resync handshake. Once every rail has been tried with
    /// no ack progress the destination is advisorily dead. Lock held.
    fn declare_path_dead(self: &Arc<Self>, st: &mut McpState, dst: FabricNodeId) {
        self.path_deaths.inc();
        self.mt_instant(TraceId::NONE, stage::PATH_DEAD);
        st.consec_timeouts.remove(&dst.0);
        let tried = st.failovers_no_progress.entry(dst.0).or_insert(0);
        *tried += 1;
        if *tried as usize >= self.fabrics.len() {
            st.dead_paths.insert(dst.0);
        }
        if self.fabrics.len() > 1 {
            let next = (self.rail_of(st, dst) + 1) % self.fabrics.len();
            st.rail_for.insert(dst.0, next);
            self.rail_failovers.inc();
            self.mt_instant(TraceId::NONE, stage::RAIL_FAILOVER);
        }
        let Some(gbn) = st.gbn_tx.get_mut(&dst.0) else {
            return;
        };
        let epoch = gbn.begin_resync();
        let parked = gbn.parked_epoch();
        st.sync_started.entry(dst.0).or_insert(self.sim.now());
        // Old-epoch packets queued for retransmission would only be counted
        // stale drops at the receiver; the parked stream replays the
        // undelivered tail after the handshake instead.
        st.retx.retain(|(d, _)| *d != dst);
        let rail = self.rail_of(st, dst);
        self.send_control(rail, dst, Self::sync_header(epoch, parked));
    }

    // ---------------- receive engine ----------------

    fn on_packet(self: &Arc<Self>, sim: &Sim, pkt: suca_myrinet::Packet, rail: usize) {
        if self.is_down(&self.state.lock()) {
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
            return; // CRC check fails; go-back-N recovers via timeout
        }
        let Some((header, payload)) = WireHeader::decode(&pkt.payload) else {
            sim.add_count("bcl.malformed", 1);
            return;
        };
        let src = pkt.src;
        // Arrivals park in a descriptor ring for their processing delay;
        // the matching poll tick is allocation-free.
        match header.kind {
            WireKind::Ack => {
                self.rings.rx_ctrl.lock().push_back(CtrlDesc::Ack {
                    src,
                    epoch: header.epoch,
                    cum: header.seq,
                });
                sim.schedule_poll_in(self.cfg.mcp.ack_process, self.pollers().rx_ctrl);
            }
            WireKind::Reject => {
                self.rings.rx_ctrl.lock().push_back(CtrlDesc::Reject {
                    msg_id: header.msg_id,
                    fatal: header.offset == 1,
                });
                sim.schedule_poll_in(self.cfg.mcp.ack_process, self.pollers().rx_ctrl);
            }
            WireKind::EpochSync => {
                self.rings.rx_ctrl.lock().push_back(CtrlDesc::EpochSync {
                    src,
                    epoch: header.epoch,
                    // msg_id carries the epoch of the stream the peer parked.
                    parked: header.msg_id as u16,
                    rail,
                });
                sim.schedule_poll_in(self.cfg.mcp.ack_process, self.pollers().rx_ctrl);
            }
            WireKind::EpochSyncAck => {
                self.rings.rx_ctrl.lock().push_back(CtrlDesc::EpochSyncAck {
                    src,
                    epoch: header.epoch,
                    old_cum: header.seq,
                });
                sim.schedule_poll_in(self.cfg.mcp.ack_process, self.pollers().rx_ctrl);
            }
            WireKind::Data | WireKind::RmaReadReq | WireKind::RmaReadData | WireKind::Coll => {
                let proc = self.cfg.mcp.recv_per_frag;
                let start = sim.now();
                if self.mt_enabled() {
                    sim.trace_event(
                        TraceEvent::span(
                            self.header_trace(src, &header),
                            self.node.0,
                            TraceLayer::Mcp,
                            stage::RX,
                            start.as_ns(),
                            (start + proc).as_ns(),
                        )
                        .with_seq(header.seq)
                        .with_bytes(header.frag_len as u64),
                    );
                }
                self.rings.rx_data.lock().push_back(DataDesc {
                    src,
                    header,
                    payload,
                    rail,
                });
                sim.schedule_poll_in(proc, self.pollers().rx_data);
            }
        }
    }

    fn on_ack(self: &Arc<Self>, src: FabricNodeId, epoch: u16, cum: u32) {
        {
            let mut st = self.state.lock();
            let Some(gbn) = st.gbn_tx.get_mut(&src.0) else {
                return;
            };
            let Some(freed) = gbn.on_ack(epoch, cum) else {
                // Ack for a stream we already abandoned (or one we are mid-
                // resync on): counted and dropped, never applied.
                self.stale_epoch_drops.inc();
                self.mt_instant(TraceId::NONE, stage::DROP_STALE_EPOCH);
                return;
            };
            if freed == 0 {
                return;
            }
            // Ack progress: the path works again; clear the health counters
            // and any advisory dead mark.
            st.consec_timeouts.remove(&src.0);
            st.failovers_no_progress.remove(&src.0);
            st.dead_paths.remove(&src.0);
            let empty = st.gbn_tx[&src.0].in_flight() == 0;
            if let Some(timer) = st.timers.remove(&src.0) {
                self.sim.cancel(timer);
            }
            if !empty {
                self.arm_timer(&mut st, src);
            }
        }
        self.kick_sender(); // window may have opened
    }

    /// A peer began an epoch resync toward us: adopt the new epoch (capture
    /// the old stream's cumulative ack first) and reply with the cum of the
    /// stream the peer *parked* (`parked` names its epoch) so the peer can
    /// replay exactly the undelivered tail. Duplicate syncs replay the same
    /// captured ack; stale ones are counted drops.
    fn on_epoch_sync(self: &Arc<Self>, src: FabricNodeId, epoch: u16, parked: u16, rail: usize) {
        let reply = {
            let mut st = self.state.lock();
            if self.is_down(&st) {
                return;
            }
            let rx = st.gbn_rx.entry(src.0).or_default();
            match rx.on_sync(epoch, parked) {
                Some(old_cum) => {
                    self.mt_instant(TraceId::NONE, stage::EPOCH_RESYNC);
                    Some(old_cum)
                }
                None => {
                    self.stale_epoch_drops.inc();
                    self.mt_instant(TraceId::NONE, stage::DROP_STALE_EPOCH);
                    None
                }
            }
        };
        if let Some(old_cum) = reply {
            // Answer on the rail the sync arrived on: that is the rail the
            // peer failed over to, and the one it is listening on.
            self.send_control(rail, src, Self::sync_ack_header(epoch, old_cum));
        }
    }

    /// The peer acknowledged our epoch resync with the old stream's
    /// cumulative ack: prune what was delivered, re-stamp the undelivered
    /// tail onto the fresh stream, and resume. This is the moment a failover
    /// recovers — the latency since path death goes into the histogram.
    fn on_epoch_sync_ack(self: &Arc<Self>, src: FabricNodeId, epoch: u16, old_cum: u32) {
        {
            let mut st = self.state.lock();
            if self.is_down(&st) {
                return;
            }
            let tail = {
                let Some(gbn) = st.gbn_tx.get_mut(&src.0) else {
                    return;
                };
                match gbn.on_sync_ack(epoch, old_cum) {
                    Some(tail) => tail,
                    None => {
                        self.stale_epoch_drops.inc();
                        self.mt_instant(TraceId::NONE, stage::DROP_STALE_EPOCH);
                        return;
                    }
                }
            };
            for pkt in tail {
                let Some((mut h, payload)) = WireHeader::decode(&pkt) else {
                    self.protocol_error(TraceId::NONE, "parked resync packet fails to decode");
                    continue;
                };
                let Some(gbn) = st.gbn_tx.get_mut(&src.0) else {
                    return;
                };
                h.seq = gbn.next_seq();
                h.epoch = gbn.epoch();
                let enc = h.encode(&payload);
                if gbn.record_sent(h.seq, enc.clone()).is_err() {
                    // The tail is at most one window, so this cannot close;
                    // evidence over panic if the invariant ever breaks.
                    self.protocol_error(TraceId::NONE, "resync tail overflows fresh window");
                    continue;
                }
                st.retx.push_back((src, enc));
            }
            self.mt_instant(TraceId::NONE, stage::EPOCH_RESYNC);
            st.consec_timeouts.remove(&src.0);
            st.failovers_no_progress.remove(&src.0);
            st.dead_paths.remove(&src.0);
            if let Some(t0) = st.sync_started.remove(&src.0) {
                self.recovery_ns
                    .record(self.sim.now().as_ns().saturating_sub(t0.as_ns()));
            }
            if let Some(timer) = st.timers.remove(&src.0) {
                self.sim.cancel(timer);
            }
            let in_flight = st.gbn_tx.get(&src.0).is_some_and(|g| g.in_flight() > 0);
            if in_flight || !st.retx.is_empty() {
                self.arm_timer(&mut st, src);
            }
        }
        self.kick_sender(); // data sends were paused during the handshake
    }

    fn on_reject(self: &Arc<Self>, msg_id: u32, fatal: bool) {
        let decision = {
            let mut st = self.state.lock();
            // Find the job: active, queued, or recently completed.
            let job = if st.active.as_ref().is_some_and(|a| a.job.msg_id == msg_id) {
                st.active.take().map(|a| a.job)
            } else if let Some(pos) = st.send_queue.iter().position(|j| j.msg_id == msg_id) {
                st.send_queue.remove(pos)
            } else {
                st.completed.remove(&msg_id).inspect(|_| {
                    st.completed_order.retain(|&m| m != msg_id);
                })
            };
            match job {
                None => None,
                Some(mut job) => {
                    job.retries += 1;
                    if fatal || job.retries > self.cfg.reliability.max_message_retries {
                        self.sim.add_count("bcl.msg_failed", 1);
                        self.mt_instant(self.job_trace(&job), stage::MSG_FAILED);
                        if let JobKind::RmaReadReq { .. } = job.kind {
                            st.pending_reads.remove(&msg_id);
                        }
                        self.post_send_event(&st, &job, SendStatus::Rejected);
                        None
                    } else {
                        self.sim.add_count("bcl.msg_retries", 1);
                        self.mt_instant(self.job_trace(&job), stage::MSG_RETRY);
                        // The first injection already posted an Ok
                        // completion; retries are silent (only a final
                        // failure produces another event).
                        job.notify_sender = false;
                        Some(job)
                    }
                }
            }
        };
        if let Some(job) = decision {
            let me = self.clone();
            self.sim
                .schedule_in(self.cfg.reliability.reject_retry_delay, move |_| {
                    me.state.lock().send_queue.push_back(job);
                    me.kick_sender();
                });
        } else {
            self.kick_sender(); // active may have been dropped
        }
    }

    fn send_control(self: &Arc<Self>, rail: usize, dst: FabricNodeId, header: WireHeader) {
        let pkt = header.encode(b"");
        self.rings.tx_ctrl.lock().push_back(TxDesc {
            rail,
            dst,
            pkt,
            meta: None,
        });
        self.sim
            .schedule_poll_in(self.cfg.mcp.ack_send, self.pollers().tx_ctrl);
    }

    fn control_header(
        kind: WireKind,
        epoch: u16,
        msg_id: u32,
        seq: u32,
        offset: u32,
    ) -> WireHeader {
        WireHeader {
            kind,
            channel: ChannelId::SYSTEM,
            src_port: PortId(0),
            dst_port: PortId(0),
            msg_id,
            seq,
            epoch,
            offset,
            total_len: 0,
            frag_len: 0,
        }
    }

    /// Cumulative ack, stamped with the receive stream's epoch so a sender
    /// mid-resync never applies it to the wrong stream.
    fn ack_header(epoch: u16, cum: u32) -> WireHeader {
        Self::control_header(WireKind::Ack, epoch, 0, cum, 0)
    }

    fn reject_header(msg_id: u32, fatal: bool) -> WireHeader {
        Self::control_header(WireKind::Reject, 0, msg_id, 0, u32::from(fatal))
    }

    /// Failover handshake: "I am restarting our stream at `epoch`; tell me
    /// how much of the stream I parked at epoch `parked` (carried in
    /// `msg_id`) you actually delivered".
    fn sync_header(epoch: u16, parked: u16) -> WireHeader {
        Self::control_header(WireKind::EpochSync, epoch, u32::from(parked), 0, 0)
    }

    /// Handshake reply: `seq` carries the *old* stream's cumulative ack so
    /// the sender replays exactly the undelivered tail.
    fn sync_ack_header(epoch: u16, old_cum: u32) -> WireHeader {
        Self::control_header(WireKind::EpochSyncAck, epoch, 0, old_cum, 0)
    }

    fn on_data(
        self: &Arc<Self>,
        src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
        rail: usize,
    ) {
        let (epoch, cum) = {
            let mut st = self.state.lock();
            let rx = st.gbn_rx.entry(src.0).or_default();
            // Data from a *newer* epoch adopts it implicitly (the peer's NIC
            // was reset and restarted its stream); older epochs are counted
            // stale drops with no ack — the peer is already past them.
            let verdict = rx.on_data(header.epoch, header.seq);
            let epoch = rx.epoch();
            let cum = rx.cum_ack();
            match verdict {
                EpochVerdict::Gbn(GbnVerdict::Accept) => {}
                EpochVerdict::Gbn(GbnVerdict::Duplicate | GbnVerdict::OutOfOrder) => {
                    self.sim.add_count("bcl.rx_discarded", 1);
                    self.mt_instant(self.header_trace(src, &header), stage::RX_DISCARD);
                    drop(st);
                    self.send_control(rail, src, Self::ack_header(epoch, cum));
                    return;
                }
                EpochVerdict::Stale => {
                    self.stale_epoch_drops.inc();
                    self.mt_instant(self.header_trace(src, &header), stage::DROP_STALE_EPOCH);
                    return;
                }
            }
            self.accept_data(&mut st, src, header, payload, rail);
            (epoch, cum)
        };
        // Ack on the arrival rail so the reverse path mirrors the one the
        // sender actually used (its old rail may be dark).
        self.send_control(rail, src, Self::ack_header(epoch, cum));
    }

    /// Handle an accepted, in-order data packet. Lock held.
    fn accept_data(
        self: &Arc<Self>,
        st: &mut McpState,
        src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
        rail: usize,
    ) {
        match header.kind {
            WireKind::Data => match header.channel.kind {
                ChannelKind::System | ChannelKind::Normal => {
                    self.deliver_message(st, src, header, payload, rail)
                }
                ChannelKind::Open => self.rma_write(st, src, header, payload),
            },
            WireKind::RmaReadReq => self.rma_read_request(st, src, header, rail),
            WireKind::RmaReadData => self.rma_read_data(st, src, header, payload),
            WireKind::Coll => self.coll_rx(st, src, header, payload),
            _ => {
                // Control kinds are dispatched before accept_data; reaching
                // here means the demux and the GBN accept path disagree.
                self.protocol_error(
                    self.header_trace(src, &header),
                    "control packet reached the data-accept path",
                );
            }
        }
    }

    fn deliver_message(
        self: &Arc<Self>,
        st: &mut McpState,
        src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
        rail: usize,
    ) {
        let key = (src.0, header.msg_id);
        let trace = TraceId::new(src.0, header.msg_id);
        if st.rejected.contains(&key) {
            if header.offset as u64 + payload.len() as u64 >= header.total_len as u64 {
                st.rejected.remove(&key); // last fragment seen; forget
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
                        port.pool.segments(idx).to_vec(),
                        RecvDataLoc::SystemBuffer(idx),
                    ),
                    None => {
                        // Paper §2.2: "The incoming message will be discarded
                        // if there is no free buffer in the pool."
                        self.sim.add_count("bcl.sys_pool_discard", 1);
                        self.mt_instant(trace, stage::DROP_NO_BUFFER);
                        if header.total_len as u64 > payload.len() as u64 {
                            st.rejected.insert(key);
                        }
                        return;
                    }
                },
                ChannelKind::Normal => match port.normal.remove(&header.channel.index) {
                    Some(segs) => (segs, RecvDataLoc::Posted),
                    None => {
                        // Rendezvous violated: tell the sender to retry.
                        self.sim.add_count("bcl.rx_not_ready", 1);
                        self.sim.add_count("mcp.rejects_sent", 1);
                        self.mt_instant(trace, stage::REJECT_SENT);
                        if header.total_len as u64 > payload.len() as u64 {
                            st.rejected.insert(key);
                        }
                        self.send_control(rail, src, Self::reject_header(header.msg_id, false));
                        return;
                    }
                },
                ChannelKind::Open => unreachable!(),
            };
            if (header.total_len as u64) > sg_total(&target) {
                // Message longer than the receive buffer: refuse (fatal).
                self.sim.add_count("bcl.rx_too_big", 1);
                self.sim.add_count("mcp.rejects_sent", 1);
                self.mt_instant(trace, stage::REJECT_SENT);
                if header.total_len as u64 > payload.len() as u64 {
                    st.rejected.insert(key);
                }
                self.send_control(rail, src, Self::reject_header(header.msg_id, true));
                return;
            }
            st.incoming.insert(
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
        let Some(inc) = st.incoming.get(&key) else {
            self.sim.add_count("bcl.rx_orphan_frag", 1);
            self.mt_instant(trace, stage::RX_DISCARD);
            return;
        };
        // DMA the fragment into its place in the user buffer.
        let segs = inc.target.clone();
        let off = header.offset as u64;
        let me = self.clone();
        let len = payload.len() as u64;
        let seq = header.seq;
        let t0 = self.sim.now();
        self.host_dma.submit(len, move |_| {
            write_sg(&me.mem, &segs, off, &payload).expect("recv DMA faulted");
            if me.mt_enabled() {
                me.sim.trace_event(
                    TraceEvent::span(
                        trace,
                        me.node.0,
                        TraceLayer::Dma,
                        stage::DMA_DATA,
                        t0.as_ns(),
                        me.sim.now().as_ns(),
                    )
                    .with_seq(seq)
                    .with_bytes(len),
                );
            }
            let mut st = me.state.lock();
            let done = {
                let Some(inc) = st.incoming.get_mut(&key) else {
                    return;
                };
                inc.received += len;
                inc.received >= inc.total
            };
            if done {
                let Some(inc) = st.incoming.remove(&key) else {
                    me.protocol_error(trace, "incoming message vanished mid-DMA");
                    return;
                };
                me.post_recv_event(&st, src, header.msg_id, inc);
            }
        });
    }

    /// DMA a receive-completion event into the user queue. Lock held.
    fn post_recv_event(
        self: &Arc<Self>,
        st: &McpState,
        src: FabricNodeId,
        msg_id: u32,
        inc: Incoming,
    ) {
        let Some(port) = st.ports.get(&inc.port.0) else {
            return;
        };
        let queues = port.queues.clone();
        let ev = RecvEvent {
            src: ProcAddr {
                node: NodeId(src.0),
                port: inc.src_port,
            },
            channel: inc.channel,
            len: inc.total,
            msg_id,
            data: inc.loc,
        };
        let start = self.sim.now();
        self.completion_dmas.inc();
        let trace = TraceId::new(src.0, msg_id);
        let me = self.clone();
        self.host_dma.submit(self.cfg.mcp.event_bytes, move |_| {
            if me.mt_enabled() {
                me.sim.trace_event(TraceEvent::span(
                    trace,
                    me.node.0,
                    TraceLayer::Dma,
                    stage::DMA_CQ,
                    start.as_ns(),
                    me.sim.now().as_ns(),
                ));
            }
            queues.push_recv(ev);
        });
    }

    fn rma_write(
        self: &Arc<Self>,
        st: &mut McpState,
        src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
    ) {
        let Some(port) = st.ports.get(&header.dst_port.0) else {
            self.sim.add_count("bcl.rx_no_port", 1);
            self.mt_instant(TraceId::new(src.0, header.msg_id), stage::DROP_NO_PORT);
            return;
        };
        let Some(segs) = port.open.get(&header.channel.index) else {
            self.sim.add_count("bcl.rma_bad_channel", 1);
            return;
        };
        let end = header.offset as u64 + payload.len() as u64;
        if end > sg_total(segs) {
            // NIC-side bounds check: one-sided writes cannot scribble past
            // the bound window.
            self.sim.add_count("bcl.rma_oob", 1);
            return;
        }
        let segs = segs.clone();
        let me = self.clone();
        let off = header.offset as u64;
        let len = payload.len() as u64;
        let trace = TraceId::new(src.0, header.msg_id);
        let seq = header.seq;
        let t0 = self.sim.now();
        self.host_dma.submit(len, move |_| {
            write_sg(&me.mem, &segs, off, &payload).expect("RMA write DMA faulted");
            if me.mt_enabled() {
                me.sim.trace_event(
                    TraceEvent::span(
                        trace,
                        me.node.0,
                        TraceLayer::Dma,
                        stage::DMA_DATA,
                        t0.as_ns(),
                        me.sim.now().as_ns(),
                    )
                    .with_seq(seq)
                    .with_bytes(len),
                );
            }
        });
    }

    fn rma_read_request(
        self: &Arc<Self>,
        st: &mut McpState,
        src: FabricNodeId,
        header: WireHeader,
        rail: usize,
    ) {
        let Some(port) = st.ports.get(&header.dst_port.0) else {
            self.sim.add_count("bcl.rx_no_port", 1);
            self.send_control(rail, src, Self::reject_header(header.msg_id, true));
            return;
        };
        let Some(segs) = port.open.get(&header.channel.index) else {
            self.sim.add_count("bcl.rma_bad_channel", 1);
            self.send_control(rail, src, Self::reject_header(header.msg_id, true));
            return;
        };
        let offset = header.offset as u64;
        let len = header.total_len as u64;
        if offset + len > sg_total(segs) {
            self.sim.add_count("bcl.rma_oob", 1);
            self.send_control(rail, src, Self::reject_header(header.msg_id, true));
            return;
        }
        let reply_segs = crate::sg::slice_sg(segs, offset, len);
        st.send_queue.push_back(SendJob {
            src_port: header.dst_port,
            dst_fid: src,
            dst_port: header.src_port,
            channel: header.channel,
            msg_id: header.msg_id,
            segments: reply_segs,
            total_len: len,
            kind: JobKind::RmaReadData,
            retries: 0,
            notify_sender: false,
        });
        // kick_sender needs the lock we currently hold; defer.
        let me = self.clone();
        self.sim
            .schedule_in(SimDuration::ZERO, move |_| me.kick_sender());
    }

    fn rma_read_data(
        self: &Arc<Self>,
        st: &mut McpState,
        _src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
    ) {
        let msg_id = header.msg_id;
        // The read reply joins the requesting chain, which is this node's.
        let trace = TraceId::new(self.node.0, msg_id);
        let Some(pr) = st.pending_reads.get(&msg_id) else {
            // A reply with no matching outstanding read request: the
            // firmware's request/reply bookkeeping is out of sync.
            self.sim.add_count("bcl.rx_orphan_read_data", 1);
            self.protocol_error(trace, "read-reply data with no pending read request");
            return;
        };
        let segs = pr.segments.clone();
        let off = header.offset as u64;
        let len = payload.len() as u64;
        let seq = header.seq;
        let t0 = self.sim.now();
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            write_sg(&me.mem, &segs, off, &payload).expect("read-reply DMA faulted");
            if me.mt_enabled() {
                me.sim.trace_event(
                    TraceEvent::span(
                        trace,
                        me.node.0,
                        TraceLayer::Dma,
                        stage::DMA_DATA,
                        t0.as_ns(),
                        me.sim.now().as_ns(),
                    )
                    .with_seq(seq)
                    .with_bytes(len),
                );
            }
            let mut st = me.state.lock();
            let done = {
                let Some(pr) = st.pending_reads.get_mut(&msg_id) else {
                    return;
                };
                pr.received += len;
                pr.received >= pr.total
            };
            if done {
                let Some(pr) = st.pending_reads.remove(&msg_id) else {
                    me.protocol_error(trace, "pending read vanished mid-DMA");
                    return;
                };
                if let Some(port) = st.ports.get(&pr.port.0) {
                    let queues = port.queues.clone();
                    let me2 = me.clone();
                    let t1 = me.sim.now();
                    me.host_dma.submit(me.cfg.mcp.event_bytes, move |_| {
                        if me2.mt_enabled() {
                            me2.sim.trace_event(TraceEvent::span(
                                trace,
                                me2.node.0,
                                TraceLayer::Dma,
                                stage::DMA_CQ,
                                t1.as_ns(),
                                me2.sim.now().as_ns(),
                            ));
                        }
                        queues.push_send(SendEvent {
                            msg_id,
                            status: SendStatus::Ok,
                        });
                    });
                }
            }
        });
    }

    // ---------------- collective plan interpreter ----------------

    /// Kernel module posted a collective descriptor. Registers the run,
    /// merges contributions that beat the descriptor to the NIC, then
    /// fetches the pinned contribution by DMA and starts the schedule.
    fn post_collective(self: &Arc<Self>, setup: CollSetup) {
        let key = (setup.port.0, setup.coll_id);
        let trace = TraceId::new(self.node.0, setup.msg_id);
        let t0 = self.sim.now();
        let segs = setup.payload.clone();
        let len = setup.payload_len;
        {
            let mut st = self.state.lock();
            if !st.ports.contains_key(&setup.port.0) {
                self.protocol_error(trace, "collective descriptor on unregistered port");
                return;
            }
            if st.colls.contains_key(&key) {
                // A duplicate id would cross-wire two collectives'
                // arrivals; refuse the newcomer, reject its initiator.
                self.coll_post_event(&st, setup.port, setup.msg_id, SendStatus::Rejected);
                self.protocol_error(trace, "duplicate collective id on port");
                return;
            }
            let mut run = CollRun {
                acc: Vec::new(),
                staged: false,
                step: 0,
                sent_current: false,
                outstanding_sends: 0,
                inbox: HashMap::new(),
                setup,
            };
            if let Some(early) = st.coll_early.remove(&key) {
                st.coll_early_total -= early.len();
                for a in early {
                    run.inbox
                        .entry((a.src_node, a.src_port, a.chunk))
                        .or_default()
                        .push_back(a.data);
                }
            }
            st.colls.insert(key, run);
        }
        // Fetch the contribution into the SRAM accumulator; the COLL_POST
        // span covers descriptor post through staging DMA.
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            let data = if len == 0 {
                Vec::new()
            } else {
                read_sg(&me.mem, &segs, 0, len).expect("collective payload DMA faulted")
            };
            if me.mt_enabled() {
                me.sim.trace_event(
                    TraceEvent::span(
                        trace,
                        me.node.0,
                        TraceLayer::Mcp,
                        stage::COLL_POST,
                        t0.as_ns(),
                        me.sim.now().as_ns(),
                    )
                    .with_bytes(len),
                );
            }
            let mut st = me.state.lock();
            let Some(run) = st.colls.get_mut(&key) else {
                return; // wiped meanwhile; the initiator was already rejected
            };
            run.acc = data;
            run.staged = true;
            me.coll_advance(&mut st, key);
        });
    }

    /// Run one collective's interpreter until it parks — waiting on
    /// arrivals, on the per-step interpreter delay, or on outstanding wire
    /// sends — or completes. Lock held.
    fn coll_advance(self: &Arc<Self>, st: &mut McpState, key: (u16, u32)) {
        // Step entry: fire this step's sends exactly once. `None` means the
        // schedule is finished and ready to complete.
        let fire = match st.colls.get_mut(&key) {
            None => return,
            Some(run) => {
                if !run.staged {
                    return;
                }
                match run.setup.steps.get(run.step) {
                    None => {
                        if run.outstanding_sends > 0 {
                            return; // completion waits for the last injection
                        }
                        None
                    }
                    Some(step) => {
                        if run.sent_current {
                            Some(None)
                        } else {
                            run.sent_current = true;
                            let wire = step
                                .send_to
                                .iter()
                                .filter(|d| d.node.0 != self.node.0)
                                .count() as u32;
                            run.outstanding_sends += wire;
                            Some(Some((
                                step.send_to.clone(),
                                step.chunk,
                                run.acc.clone(),
                                run.setup.coll_id,
                                run.setup.msg_id,
                                run.setup.port,
                            )))
                        }
                    }
                }
            }
        };
        let Some(fire) = fire else {
            let Some(run) = st.colls.remove(&key) else {
                return;
            };
            self.coll_complete(st, run);
            return;
        };
        if let Some((send_to, chunk, acc, coll_id, msg_id, src_port)) = fire {
            let mut queued = false;
            for dst in send_to {
                if dst.node.0 == self.node.0 {
                    // Co-located participant on this same NIC: a local copy
                    // step — one interpreter tick, no wire, no go-back-N.
                    let me = self.clone();
                    let data = acc.clone();
                    let dkey = (dst.port.0, coll_id);
                    let from_port = src_port.0;
                    self.sim.schedule_in(self.cfg.mcp.coll_step, move |_| {
                        let mut st = me.state.lock();
                        me.mt_instant(TraceId::new(me.node.0, msg_id), stage::COLL_COMBINE);
                        me.coll_deliver(&mut st, dkey, me.node.0, from_port, chunk, data);
                    });
                } else {
                    st.send_queue.push_back(SendJob {
                        src_port,
                        dst_fid: FabricNodeId(dst.node.0),
                        dst_port: dst.port,
                        channel: ChannelId::SYSTEM,
                        msg_id,
                        segments: Vec::new(),
                        total_len: 4 + acc.len() as u64,
                        kind: JobKind::Coll {
                            coll_id,
                            chunk,
                            data: acc.clone(),
                        },
                        retries: 0,
                        notify_sender: false,
                    });
                    queued = true;
                }
            }
            if queued {
                // kick_sender needs the lock we currently hold; defer.
                let me = self.clone();
                self.sim
                    .schedule_in(SimDuration::ZERO, move |_| me.kick_sender());
            }
        }
        // Step exit: consume one arrival per `recv_from` edge, folding (or
        // adopting) in listed order.
        let folded = {
            let Some(run) = st.colls.get_mut(&key) else {
                return;
            };
            let Some(step) = run.setup.steps.get(run.step).cloned() else {
                return; // completion handled by the entry phase above
            };
            let mut need: HashMap<(u32, u16, u32), usize> = HashMap::new();
            for p in &step.recv_from {
                *need.entry((p.node.0, p.port.0, step.chunk)).or_default() += 1;
            }
            if !need
                .iter()
                .all(|(edge, k)| run.inbox.get(edge).map_or(0, |q| q.len()) >= *k)
            {
                return; // parked until the missing contributions arrive
            }
            let mut ok = true;
            for p in &step.recv_from {
                let edge = (p.node.0, p.port.0, step.chunk);
                let Some(v) = run.inbox.get_mut(&edge).and_then(|q| q.pop_front()) else {
                    ok = false;
                    break;
                };
                if step.adopt {
                    run.acc = v;
                } else if !run.setup.op.fold_bytes(&mut run.acc, &v) {
                    ok = false;
                    break;
                }
            }
            run.inbox.retain(|_, q| !q.is_empty());
            if ok {
                run.step += 1;
                run.sent_current = false;
                Ok(step.recv_from.len() as u64)
            } else {
                Err(())
            }
        };
        match folded {
            Err(()) => {
                // Readiness was checked and plans are validated before a
                // descriptor reaches the NIC, so a mismatch here is
                // corrupted firmware state: evidence plus a rejected
                // initiator, never a panic.
                let Some(run) = st.colls.remove(&key) else {
                    return;
                };
                self.coll_post_event(st, run.setup.port, run.setup.msg_id, SendStatus::Rejected);
                self.protocol_error(
                    TraceId::new(self.node.0, run.setup.msg_id),
                    "collective fold length mismatch",
                );
            }
            Ok(combines) => {
                // Charge the interpreter's per-step work (one tick for
                // pure-send steps, one per combine otherwise) and continue.
                let me = self.clone();
                let d = self.cfg.mcp.coll_step * combines.max(1);
                self.sim.schedule_in(d, move |_| {
                    let mut st = me.state.lock();
                    me.coll_advance(&mut st, key);
                });
            }
        }
    }

    /// The send engine finished injecting one of a run's wire sends; the
    /// run may now be eligible to complete. Lock held.
    fn coll_send_injected(self: &Arc<Self>, st: &mut McpState, key: (u16, u32)) {
        {
            let Some(run) = st.colls.get_mut(&key) else {
                return;
            };
            run.outstanding_sends = run.outstanding_sends.saturating_sub(1);
        }
        self.coll_advance(st, key);
    }

    /// One contribution (wire arrival or local copy) for `key`. Lock held.
    fn coll_deliver(
        self: &Arc<Self>,
        st: &mut McpState,
        key: (u16, u32),
        src_node: u32,
        src_port: u16,
        chunk: u32,
        data: Vec<u8>,
    ) {
        if let Some(run) = st.colls.get_mut(&key) {
            run.inbox
                .entry((src_node, src_port, chunk))
                .or_default()
                .push_back(data);
            self.coll_advance(st, key);
            return;
        }
        // The peer's schedule outran this node's descriptor: park the
        // contribution until `post_collective` claims it. Bounded —
        // overflow is a counted drop that trips the flight recorder.
        if st.coll_early_total >= COLL_EARLY_CAP {
            self.sim.add_count("mcp.coll_early_drops", 1);
            self.protocol_error(TraceId::NONE, "collective early-arrival buffer overflow");
            return;
        }
        st.coll_early_total += 1;
        st.coll_early.entry(key).or_default().push(CollArrival {
            src_node,
            src_port,
            chunk,
            data,
        });
    }

    /// An accepted `WireKind::Coll` packet: strip the 4-byte collective id
    /// sub-header and hand the contribution to the interpreter. Lock held.
    fn coll_rx(
        self: &Arc<Self>,
        st: &mut McpState,
        src: FabricNodeId,
        header: WireHeader,
        payload: Bytes,
    ) {
        let trace = self.header_trace(src, &header);
        if payload.len() < 4 {
            self.protocol_error(trace, "collective packet shorter than its id");
            return;
        }
        let coll_id = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
        // The combine is attributed to the *sender's* chain: its message
        // ends by merging into this NIC's accumulator, not at a host.
        self.mt_instant(trace, stage::COLL_COMBINE);
        self.coll_deliver(
            st,
            (header.dst_port.0, coll_id),
            src.0,
            header.src_port.0,
            header.offset,
            payload[4..].to_vec(),
        );
    }

    /// Schedule finished and every wire send injected: DMA the accumulator
    /// into the pinned result buffer, then the completion event the
    /// initiator is polling. Lock held.
    fn coll_complete(self: &Arc<Self>, st: &mut McpState, run: CollRun) {
        let trace = TraceId::new(self.node.0, run.setup.msg_id);
        if run.acc.len() as u64 != run.setup.result_len {
            self.protocol_error(trace, "collective result length mismatch");
            self.coll_post_event(st, run.setup.port, run.setup.msg_id, SendStatus::Rejected);
            return;
        }
        self.mt_instant(trace, stage::COLL_DONE);
        if run.setup.result_len == 0 {
            self.coll_post_event(st, run.setup.port, run.setup.msg_id, SendStatus::Ok);
            return;
        }
        let me = self.clone();
        let segs = run.setup.result.clone();
        let len = run.setup.result_len;
        let port = run.setup.port;
        let msg_id = run.setup.msg_id;
        let data = run.acc;
        let t0 = self.sim.now();
        self.host_dma.submit(len, move |_| {
            write_sg(&me.mem, &segs, 0, &data).expect("collective result DMA faulted");
            if me.mt_enabled() {
                me.sim.trace_event(
                    TraceEvent::span(
                        trace,
                        me.node.0,
                        TraceLayer::Dma,
                        stage::DMA_DATA,
                        t0.as_ns(),
                        me.sim.now().as_ns(),
                    )
                    .with_bytes(len),
                );
            }
            let st = me.state.lock();
            me.coll_post_event(&st, port, msg_id, SendStatus::Ok);
        });
    }

    /// DMA a collective completion event into the initiator's send queue.
    /// Lock held (shared borrow suffices).
    fn coll_post_event(
        self: &Arc<Self>,
        st: &McpState,
        port: PortId,
        msg_id: u32,
        status: SendStatus,
    ) {
        let Some(p) = st.ports.get(&port.0) else {
            return; // port closed meanwhile
        };
        let queues = p.queues.clone();
        let trace = TraceId::new(self.node.0, msg_id);
        let t0 = self.sim.now();
        let me = self.clone();
        self.completion_dmas.inc();
        self.host_dma.submit(self.cfg.mcp.event_bytes, move |_| {
            if me.mt_enabled() {
                me.sim.trace_event(TraceEvent::span(
                    trace,
                    me.node.0,
                    TraceLayer::Dma,
                    stage::DMA_CQ,
                    t0.as_ns(),
                    me.sim.now().as_ns(),
                ));
            }
            queues.push_send(SendEvent { msg_id, status });
        });
    }
}

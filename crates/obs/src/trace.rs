//! Per-message causal tracing.
//!
//! The paper's headline claims are *path-shape* claims: exactly one trap on
//! send, zero kernel crossings and zero interrupts on receive, go-back-N
//! retransmission on the wire. Aggregate counters can only check those in
//! bulk; this module threads a [`TraceId`] through the full semi-user-level
//! path — `BclPort::send` → kmod trap → MCP descriptor + fragmentation →
//! each (re)transmission → per-hop switch traversal → remote MCP rx → data
//! DMA → completion-queue DMA → user poll — so the contract becomes a
//! per-message invariant.
//!
//! Pieces:
//!
//! * [`TraceEvent`] — one typed record (span with begin/end, or instant)
//!   tagged with layer, node, message identity, sequence number and bytes.
//! * [`MsgTracer`] — bounded per-node ring buffers holding the most recent
//!   events. Always armed (one `RefCell` borrow per admitted event;
//!   [`SampleSpec`] decides which messages are admitted) so it doubles as a
//!   *flight recorder*: [`MsgTracer::dump_once`] prints the rings to stderr
//!   on the first sim panic or protocol error.
//! * [`to_chrome_json`] — Chrome trace-event / Perfetto JSON exporter, one
//!   process per node and one thread per layer.
//! * [`chains`] — groups events by [`TraceId`] into per-message [`Chain`]s;
//!   the checker, the stage histograms, the critical path and the stall
//!   watchdog all read chains through it, so "closed" means one thing.
//! * [`check_completeness`] — walks every message's causal chain and
//!   asserts it is *closed*: the send reaches a completion poll or a
//!   counted drop, every retransmission is attributed to a previously
//!   injected fragment, and the per-architecture trap/interrupt budget
//!   ([`ChainPolicy`]) holds.
//! * [`record_stage_histograms`] — derives per-stage latency histograms
//!   (trap, inject, wire, dma, cq-wait) from a trace and feeds them into a
//!   [`Metrics`] registry for the latency-breakdown table.
//!
//! Times are plain nanosecond `u64`s: this crate sits *below* the simulator
//! so it cannot name `SimTime`; the engine converts at the recording site.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::{json_escape, Metrics};

/// Identity of one traced message: the node that originated the send plus
/// the kernel-assigned message id. The pair is unique cluster-wide because
/// msg ids are allocated per origin node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    /// Node that originated the send (for RMA read *data* packets this is
    /// the requester, not the responder, so the reply joins the request's
    /// chain).
    pub origin: u32,
    /// Message id as allocated by the origin's kernel module.
    pub msg_id: u32,
}

impl TraceId {
    /// Sentinel for events that cannot be attributed to any message
    /// (e.g. a protocol-error marker for an undecodable packet). The
    /// completeness checker skips these chains.
    pub const NONE: TraceId = TraceId {
        origin: u32::MAX,
        msg_id: 0,
    };

    /// Build a trace id.
    pub const fn new(origin: u32, msg_id: u32) -> Self {
        TraceId { origin, msg_id }
    }

    /// True for the [`TraceId::NONE`] sentinel.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

/// Which layer of the stack emitted an event. Doubles as the Perfetto
/// thread id so each node's tracks render in stack order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceLayer {
    /// User-space BCL library (`BclPort`).
    Library,
    /// Kernel module (the one trap) and, under kernel-level receive, the
    /// interrupt and the receive trap.
    Kernel,
    /// NIC control program (firmware).
    Mcp,
    /// Links and switches.
    Wire,
    /// Data and completion-queue DMA engines.
    Dma,
    /// Request/response service layer riding on BCL (`suca-rpc`). RPC spans
    /// join the chain of the *request* message, so one trace id stitches
    /// the application-level call to every packet it caused.
    Rpc,
    /// Online health engine (`suca-obs::health`): alert-lifecycle instants.
    /// Cluster-scoped alerts render under the synthetic fabric process,
    /// per-node scopes under their node.
    Health,
}

impl TraceLayer {
    /// Stable display name (Perfetto thread name).
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceLayer::Library => "library",
            TraceLayer::Kernel => "kernel",
            TraceLayer::Mcp => "mcp",
            TraceLayer::Wire => "wire",
            TraceLayer::Dma => "dma",
            TraceLayer::Rpc => "rpc",
            TraceLayer::Health => "health",
        }
    }

    /// Stable small integer (Perfetto tid within the node's process).
    pub fn index(&self) -> u32 {
        match self {
            TraceLayer::Library => 0,
            TraceLayer::Kernel => 1,
            TraceLayer::Mcp => 2,
            TraceLayer::Wire => 3,
            TraceLayer::Dma => 4,
            TraceLayer::Rpc => 5,
            TraceLayer::Health => 6,
        }
    }
}

/// Event shape: a span carries both begin and end; an instant is a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// `start_ns..end_ns` duration event.
    Span,
    /// Point event at `start_ns` (`end_ns == start_ns`).
    Instant,
}

/// Canonical stage names. Keeping them `&'static str` constants means
/// recording a stage never allocates and the completeness checker can
/// match by pointer-stable names.
pub mod stage {
    /// Library composes the send descriptor and traps (span, tx node).
    pub const SEND: &str = "api:send";
    /// Library-side request composition before the trap (span, tx node;
    /// nested inside [`SEND`]).
    pub const COMPOSE: &str = "api:compose";
    /// Kernel entry cost of the one send trap (span, tx node).
    pub const K_TRAP_ENTER: &str = "kernel:trap_enter";
    /// Kernel send dispatch + security checks — the copyin/validate half
    /// of the paper's "filling sending request" (span, tx node).
    pub const K_DISPATCH: &str = "kernel:dispatch";
    /// Pin-down page-table lookup / pin of the user buffer (span, tx node).
    pub const K_PIN: &str = "kernel:pin";
    /// Descriptor PIO fill + doorbell — the other half of the request fill
    /// (span, tx node).
    pub const K_PIO: &str = "kernel:pio";
    /// Kernel exit cost of the send trap (span, tx node).
    pub const K_TRAP_EXIT: &str = "kernel:trap_exit";
    /// Library consumed a receive-completion event (instant, rx node).
    pub const POLL_RECV: &str = "api:poll_recv";
    /// Library consumed a send-completion event (instant, tx node).
    pub const POLL_SEND: &str = "api:poll_send";
    /// One user→kernel trap (instant). The BCL contract: exactly 1 per
    /// inter-node send, 0 on receive.
    pub const TRAP: &str = "kernel:trap";
    /// Kernel send path: check + pin + translate + descriptor PIO (span).
    pub const IOCTL_SEND: &str = "kernel:ioctl_send";
    /// One NIC interrupt taken for this message (instant). BCL budget: 0.
    pub const INTERRUPT: &str = "kernel:interrupt";
    /// MCP fetched the descriptor and set up reliable state (span).
    pub const DESCRIPTOR: &str = "mcp:descriptor";
    /// MCP processed + injected one fragment (span; `seq`, `bytes` set).
    pub const INJECT: &str = "mcp:inject";
    /// Go-back-N retransmission of a previously injected fragment (span).
    pub const RETX: &str = "mcp:retx";
    /// A timer expiry queued a probe asking the receiver for its cum
    /// (instant, on the chain of the first unacknowledged fragment).
    pub const PROBE: &str = "mcp:probe";
    /// Remote MCP accepted a data fragment (span; `seq` set).
    pub const RX: &str = "mcp:rx";
    /// Remote MCP discarded a duplicate/out-of-order fragment (instant).
    pub const RX_DISCARD: &str = "mcp:rx_discard";
    /// Receiver sent a Reject back to the source (instant).
    pub const REJECT_SENT: &str = "mcp:reject_sent";
    /// Sender will retry the whole message after a non-fatal Reject
    /// (instant).
    pub const MSG_RETRY: &str = "mcp:msg_retry";
    /// Sender gave up on the message — terminal (instant).
    pub const MSG_FAILED: &str = "mcp:msg_failed";
    /// Message dropped at the receiver for lack of buffer — terminal
    /// counted drop (instant).
    pub const DROP_NO_BUFFER: &str = "mcp:drop_no_buffer";
    /// Message dropped: destination port not open — terminal counted drop
    /// (instant).
    pub const DROP_NO_PORT: &str = "mcp:drop_no_port";
    /// Fragment dropped by receiver CRC check (instant).
    pub const DROP_CRC: &str = "mcp:drop_crc";
    /// Firmware protocol-state inconsistency (instant; may be
    /// [`super::TraceId::NONE`]).
    pub const PROTO_ERROR: &str = "mcp:protocol_error";
    /// Wire occupancy of one fragment on the source link (span).
    pub const WIRE_TX: &str = "wire:tx";
    /// Cut-through traversal of one switch (instant per hop).
    pub const HOP: &str = "wire:hop";
    /// Fragment dropped by link fault injection (instant).
    pub const DROP_LINK: &str = "wire:drop";
    /// Fragment corrupted by link fault injection (instant).
    pub const CORRUPT: &str = "wire:corrupt";
    /// Fragment dropped in the switching fabric (no route / unwired port)
    /// (instant).
    pub const DROP_ROUTE: &str = "wire:drop_route";
    /// Payload DMA from NIC SRAM to the user receive buffer (span).
    pub const DMA_DATA: &str = "dma:data";
    /// Completion-record DMA into the user-mapped queue (span).
    pub const DMA_CQ: &str = "dma:cq";
    /// One client-side RPC: issue through final outcome (span, client
    /// node; joins the request message's chain). Not a terminal stage —
    /// the underlying messages still close through the BCL terminals.
    pub const RPC_CALL: &str = "rpc:call";
    /// Server-side dispatch of one request: dequeue through response send
    /// (span, server node; joins the request message's chain).
    pub const RPC_SERVE: &str = "rpc:serve";
    /// Admission control shed a request at the server's bounded queue
    /// (instant, server node).
    pub const RPC_SHED: &str = "rpc:shed";
    /// Client re-issued a request after a shed reply or an attempt timeout
    /// (instant, client node; attributed to the first attempt's chain).
    pub const RPC_RETRY: &str = "rpc:retry";
    /// Client gave up on a request after exhausting its retry budget
    /// (instant, client node).
    pub const RPC_TIMEOUT: &str = "rpc:timeout";
    /// Client aborted a request because the kernel declared the
    /// destination's path dead — terminal for the RPC, re-homed by the
    /// service layer (instant, client node).
    pub const RPC_DEAD_DEST: &str = "rpc:dead_dest";
    /// Chaos injection: a link was forced down (instant,
    /// [`super::TraceId::NONE`] — injections are environment events, not
    /// part of any message chain).
    pub const CHAOS_LINK_DOWN: &str = "chaos:link_down";
    /// Chaos injection: a downed link was restored (instant).
    pub const CHAOS_LINK_UP: &str = "chaos:link_up";
    /// Chaos injection: a switch port died (instant).
    pub const CHAOS_PORT_DEAD: &str = "chaos:port_dead";
    /// Chaos injection: a NIC was reset, wiping its MCP SRAM state
    /// (instant).
    pub const CHAOS_NIC_RESET: &str = "chaos:nic_reset";
    /// Chaos injection: a whole node crashed (instant).
    pub const CHAOS_NODE_CRASH: &str = "chaos:node_crash";
    /// Chaos injection: a crashed node restarted (instant).
    pub const CHAOS_NODE_RESTART: &str = "chaos:node_restart";
    /// Fragment dropped because its link is chaos-downed (instant).
    pub const DROP_LINK_DOWN: &str = "wire:drop_link_down";
    /// Fragment dropped at a chaos-killed switch port (instant).
    pub const DROP_DEAD_PORT: &str = "wire:drop_dead_port";
    /// Fragment delivered to an endpoint that is not its destination —
    /// counted protocol drop, never a panic (instant).
    pub const DROP_MISROUTE: &str = "wire:drop_misroute";
    /// Packet dropped while its node is crashed (instant).
    pub const DROP_NODE_DOWN: &str = "mcp:drop_node_down";
    /// Packet carried a stale stream epoch — counted drop (instant).
    pub const DROP_STALE_EPOCH: &str = "mcp:drop_stale_epoch";
    /// Kernel declared the path to a destination dead after consecutive
    /// retransmission exhaustion (instant).
    pub const PATH_DEAD: &str = "mcp:path_dead";
    /// Kernel failed the connection over to the other rail (instant).
    pub const RAIL_FAILOVER: &str = "mcp:rail_failover";
    /// Epoch-resync handshake completed; the stream is live on the new
    /// epoch (instant).
    pub const EPOCH_RESYNC: &str = "mcp:epoch_resync";
    /// NIC plan interpreter accepted a collective descriptor and staged the
    /// local contribution (span, participant node).
    pub const COLL_POST: &str = "mcp:coll_post";
    /// Plan interpreter combined one peer contribution into the
    /// accumulator (instant, combining node; attributed to the *sender's*
    /// chain so fan-in joins the contributing message).
    pub const COLL_COMBINE: &str = "mcp:coll_combine";
    /// Plan interpreter finished the local schedule and DMAd the result +
    /// completion (instant, participant node).
    pub const COLL_DONE: &str = "mcp:coll_done";
    /// Health rule entered pending: first breaching tick of a scope
    /// (instant, [`super::TraceId::NONE`]; the full name is
    /// `health:pending:<rule>`).
    pub const HEALTH_PENDING: &str = "health:pending";
    /// Health alert fired after `for_ticks` breaching ticks (instant).
    pub const HEALTH_FIRING: &str = "health:firing";
    /// Health alert resolved after `clear_ticks` healthy ticks (instant).
    pub const HEALTH_RESOLVED: &str = "health:resolved";
    /// Pipeline driver planned one job's stage/task groups (instant,
    /// [`super::TraceId::NONE`], driver node).
    pub const PIPE_PLAN: &str = "pipe:plan";
    /// Pipeline driver group-scheduled one stage onto workers (instant).
    pub const PIPE_SCHED: &str = "pipe:sched";
    /// One pipeline stage's EXEC fan-out fully resolved (instant).
    pub const PIPE_EXEC: &str = "pipe:exec";
    /// One job's output-fetch phase fully resolved (instant).
    pub const PIPE_FETCH: &str = "pipe:fetch";
    /// Pub-sub room shed a slow subscriber (instant,
    /// [`super::TraceId::NONE`], serving node).
    pub const PUBSUB_SHED: &str = "pubsub:shed";
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Message this event belongs to.
    pub trace: TraceId,
    /// Node the event happened on.
    pub node: u32,
    /// Stack layer that emitted it.
    pub layer: TraceLayer,
    /// Stage name (one of [`stage`]'s constants on the built-in paths).
    pub stage: Cow<'static, str>,
    /// Span or instant.
    pub phase: TracePhase,
    /// Begin time, nanoseconds of virtual time.
    pub start_ns: u64,
    /// End time (== `start_ns` for instants).
    pub end_ns: u64,
    /// Fragment sequence number, when the event is per-fragment.
    pub seq: u32,
    /// Payload bytes carried, when meaningful.
    pub bytes: u64,
}

impl TraceEvent {
    /// A duration event.
    pub fn span(
        trace: TraceId,
        node: u32,
        layer: TraceLayer,
        stage: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        TraceEvent {
            trace,
            node,
            layer,
            stage: stage.into(),
            phase: TracePhase::Span,
            start_ns,
            end_ns: end_ns.max(start_ns),
            seq: 0,
            bytes: 0,
        }
    }

    /// A point event.
    pub fn instant(
        trace: TraceId,
        node: u32,
        layer: TraceLayer,
        stage: impl Into<Cow<'static, str>>,
        at_ns: u64,
    ) -> Self {
        TraceEvent {
            trace,
            node,
            layer,
            stage: stage.into(),
            phase: TracePhase::Instant,
            start_ns: at_ns,
            end_ns: at_ns,
            seq: 0,
            bytes: 0,
        }
    }

    /// Attach a fragment sequence number.
    pub fn with_seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Attach a byte count.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Span duration (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Deterministic hash-based trace sampling for fleet-scale runs.
///
/// At 1,024 nodes recording every message's full causal chain is the
/// dominant observability cost (memory, serialization bytes, and ring
/// churn). A `SampleSpec` admits a message iff a splitmix64 hash of its
/// [`TraceId`] — *not* a random draw — falls below `rate_ppm`, so:
///
/// * sampling is **deterministic**: a fixed seed yields a byte-identical
///   sampled trace set on every rerun;
/// * a chain is sampled **consistently end to end**: every hop of an
///   admitted message is recorded on every node it touches, so sampled
///   chains stay *closed* and [`check_completeness`] budgets still hold
///   over the sampled population;
/// * unattributable events ([`TraceId::NONE`] — protocol errors, chaos
///   injections) are always admitted, so the flight recorder keeps its
///   most important cargo at any rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// Admitted fraction in parts per million (1,000,000 = record all).
    pub rate_ppm: u32,
    /// Folded into the hash: different seeds sample different (equally
    /// sized) populations at the same rate.
    pub seed: u64,
}

impl SampleSpec {
    /// Record everything (the default).
    pub const ALL: SampleSpec = SampleSpec {
        rate_ppm: 1_000_000,
        seed: 0,
    };

    /// Admit ~`rate_ppm` of a million messages (clamped to the full rate).
    pub fn ratio_ppm(rate_ppm: u32) -> Self {
        SampleSpec {
            rate_ppm: rate_ppm.min(1_000_000),
            seed: 0,
        }
    }

    /// Replace the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Is everything admitted?
    pub fn is_all(&self) -> bool {
        self.rate_ppm >= 1_000_000
    }

    /// Does this spec admit `trace`? Pure function of `(spec, trace)`.
    pub fn admits(&self, trace: TraceId) -> bool {
        if self.is_all() || trace.is_none() {
            return true;
        }
        // splitmix64 of the message identity, seed-perturbed: cheap, well
        // mixed, and stable across platforms.
        let mut z = ((u64::from(trace.origin) << 32) | u64::from(trace.msg_id))
            ^ self.seed
            ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1_000_000) < u64::from(self.rate_ppm)
    }
}

#[derive(Default)]
struct NodeRing {
    events: VecDeque<TraceEvent>,
    evicted: u64,
    recorded: u64,
}

struct TracerInner {
    capacity: Cell<usize>,
    dumped: Cell<bool>,
    /// The sampling spec, in a `Cell` of its own so the record path never
    /// borrows the rings to consult it. `rate_ppm == 1_000_000` means
    /// record all.
    sampling: Cell<SampleSpec>,
    /// Events rejected by the sampler (kept for rate accounting).
    sampled_out: Cell<u64>,
    /// Per-node rings, keyed by node id so sparse / sentinel ids (the
    /// fabric pseudo-node is `u32::MAX`) cost one map entry, not an index.
    rings: RefCell<BTreeMap<u32, NodeRing>>,
}

/// Default ring capacity per node. Sized so a small debugging run keeps its
/// whole history while a bandwidth sweep stays bounded (~8k events × ~100
/// bytes ≈ 1 MB per active node).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Bounded per-node ring buffers of [`TraceEvent`]s. Cloning shares the
/// underlying rings. Always recording, so the flight recorder is always
/// armed; perf-sensitive runs sample messages out with
/// [`MsgTracer::set_sampling`].
#[derive(Clone)]
pub struct MsgTracer {
    inner: Rc<TracerInner>,
}

impl Default for MsgTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl MsgTracer {
    /// Tracer with [`DEFAULT_RING_CAPACITY`] events per node.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Tracer keeping the last `capacity` events per node.
    pub fn with_capacity(capacity: usize) -> Self {
        MsgTracer {
            inner: Rc::new(TracerInner {
                capacity: Cell::new(capacity.max(1)),
                dumped: Cell::new(false),
                sampling: Cell::new(SampleSpec::ALL),
                sampled_out: Cell::new(0),
                rings: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// Per-node ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity.get()
    }

    /// Resize the per-node rings (existing rings are trimmed from the
    /// oldest end).
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.inner.capacity.set(capacity);
        let mut rings = self.inner.rings.borrow_mut();
        for ring in rings.values_mut() {
            while ring.events.len() > capacity {
                ring.events.pop_front();
                ring.evicted += 1;
            }
        }
    }

    /// The active sampling spec ([`SampleSpec::ALL`] by default).
    pub fn sampling(&self) -> SampleSpec {
        self.inner.sampling.get()
    }

    /// Install a sampling spec. Events of unadmitted messages are dropped
    /// at [`MsgTracer::record`] before touching any ring; unattributable
    /// ([`TraceId::NONE`]) events always pass, so the flight recorder
    /// stays armed for errors at any rate.
    pub fn set_sampling(&self, spec: SampleSpec) {
        self.inner.sampling.set(SampleSpec {
            rate_ppm: spec.rate_ppm.min(1_000_000),
            seed: spec.seed,
        });
    }

    /// Events rejected by the sampler so far.
    pub fn total_sampled_out(&self) -> u64 {
        self.inner.sampled_out.get()
    }

    /// Record one event into its node's ring, evicting the oldest entry
    /// when full. While a sampling spec is installed, events of unadmitted
    /// messages are counted and dropped.
    pub fn record(&self, ev: TraceEvent) {
        if !self.sampling().admits(ev.trace) {
            let out = &self.inner.sampled_out;
            out.set(out.get() + 1);
            return;
        }
        let capacity = self.capacity();
        let mut rings = self.inner.rings.borrow_mut();
        let ring = rings.entry(ev.node).or_default();
        ring.recorded += 1;
        if ring.events.len() >= capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(ev);
    }

    /// Visit every buffered event in place, ring by ring, each oldest
    /// first: no copy and no sort, for readers that need neither.
    pub(crate) fn for_each_event(&self, mut f: impl FnMut(&TraceEvent)) {
        let rings = self.inner.rings.borrow();
        for ring in rings.values() {
            ring.events.iter().for_each(&mut f);
        }
    }

    /// Snapshot of every ring, merged and sorted by start time.
    pub fn events(&self) -> Vec<TraceEvent> {
        let rings = self.inner.rings.borrow();
        let mut all: Vec<TraceEvent> = rings
            .values()
            .flat_map(|r| r.events.iter().cloned())
            .collect();
        all.sort_by_key(|e| (e.start_ns, e.end_ns, e.node));
        all
    }

    /// Drain every ring, returning the merged sorted events.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = {
            let mut rings = self.inner.rings.borrow_mut();
            rings
                .values_mut()
                .flat_map(|r| std::mem::take(&mut r.events))
                .collect()
        };
        all.sort_by_key(|e| (e.start_ns, e.end_ns, e.node));
        all
    }

    /// Drop all buffered events (counts are kept).
    pub fn clear(&self) {
        let mut rings = self.inner.rings.borrow_mut();
        for ring in rings.values_mut() {
            ring.events.clear();
        }
    }

    /// Total events ever recorded (including since-evicted ones).
    pub fn total_recorded(&self) -> u64 {
        let rings = self.inner.rings.borrow();
        rings.values().map(|r| r.recorded).sum()
    }

    /// Events evicted from full rings.
    pub fn total_evicted(&self) -> u64 {
        let rings = self.inner.rings.borrow();
        rings.values().map(|r| r.evicted).sum()
    }

    /// Has [`MsgTracer::dump_once`] fired?
    pub fn has_dumped(&self) -> bool {
        self.inner.dumped.get()
    }

    /// Render the flight-recorder contents: the last `max_per_node` events
    /// of every node's ring, newest last.
    pub fn dump(&self, max_per_node: usize) -> String {
        let rings = self.inner.rings.borrow();
        let mut out = String::new();
        for (&node, ring) in rings.iter() {
            if ring.recorded == 0 {
                continue;
            }
            let who = if node == crate::timeseries::FABRIC_NODE {
                "fabric".to_string()
            } else {
                format!("node {node}")
            };
            let _ = writeln!(
                out,
                "{who}: {} events recorded, {} evicted, showing last {}",
                ring.recorded,
                ring.evicted,
                ring.events.len().min(max_per_node)
            );
            let skip = ring.events.len().saturating_sub(max_per_node);
            for ev in ring.events.iter().skip(skip) {
                let _ = writeln!(
                    out,
                    "  [{:>12} ns] {:<7} {:<18} msg=({},{}) seq={} bytes={} dur={} ns",
                    ev.start_ns,
                    ev.layer.as_str(),
                    ev.stage,
                    ev.trace.origin,
                    ev.trace.msg_id,
                    ev.seq,
                    ev.bytes,
                    ev.duration_ns(),
                );
            }
        }
        if out.is_empty() {
            out.push_str("flight recorder is empty\n");
        }
        out
    }

    /// Flight-recorder trigger: on the first call, print the rings to
    /// stderr under a banner naming `reason` and return `true`; later
    /// calls are no-ops returning `false`. One dump per run keeps a
    /// cascade of failures from flooding the log.
    pub fn dump_once(&self, reason: &str) -> bool {
        if self.inner.dumped.replace(true) {
            return false;
        }
        eprintln!("==== flight recorder dump: {reason} ====");
        eprint!("{}", self.dump(64));
        eprintln!("==== end flight recorder dump ====");
        true
    }
}

/// Serialize events in Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load): one process per node, one thread per layer,
/// timestamps in microseconds of virtual time.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    to_chrome_json_with_counters(
        events,
        &crate::timeseries::TimeSeriesSnapshot {
            samples_taken: 0,
            series: Vec::new(),
        },
    )
}

/// Perfetto pid hosting fabric-wide counter tracks (probes registered under
/// [`crate::timeseries::FABRIC_NODE`]).
pub const FABRIC_PID: u32 = 9999;

/// Like [`to_chrome_json`], but merges sampled telemetry in as Perfetto
/// counter tracks (`"ph": "C"`), one per probe, so occupancy curves render
/// beneath the message spans of the node they belong to. Fabric-wide
/// probes land in a synthetic "fabric" process ([`FABRIC_PID`]).
pub fn to_chrome_json_with_counters(
    events: &[TraceEvent],
    counters: &crate::timeseries::TimeSeriesSnapshot,
) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    // Metadata: name each node's process and each layer's thread so the
    // Perfetto track list reads "node 0 / library", "node 0 / kernel", …
    // Events on the fabric pseudo-node (cluster-scoped health alerts, …)
    // render under the same synthetic process as fabric-wide counters.
    let event_pid = |node: u32| {
        if node == crate::timeseries::FABRIC_NODE {
            FABRIC_PID
        } else {
            node
        }
    };
    let mut tracks: BTreeSet<(u32, TraceLayer)> = BTreeSet::new();
    let mut fabric_counters = false;
    for ev in events {
        if ev.node == crate::timeseries::FABRIC_NODE {
            fabric_counters = true;
            tracks.insert((FABRIC_PID, ev.layer));
        } else {
            tracks.insert((ev.node, ev.layer));
        }
    }
    let mut nodes: BTreeSet<u32> = tracks.iter().map(|(n, _)| *n).collect();
    nodes.remove(&FABRIC_PID);
    for s in &counters.series {
        if s.node == crate::timeseries::FABRIC_NODE {
            fabric_counters = true;
        } else {
            nodes.insert(s.node);
        }
    }
    for node in &nodes {
        push(
            &mut out,
            &mut first,
            &format!(
                "  {{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {node}, \"tid\": 0, \
                 \"args\": {{\"name\": \"node {node}\"}}}}"
            ),
        );
    }
    if fabric_counters {
        push(
            &mut out,
            &mut first,
            &format!(
                "  {{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {FABRIC_PID}, \
                 \"tid\": 0, \"args\": {{\"name\": \"fabric\"}}}}"
            ),
        );
    }
    for (node, layer) in &tracks {
        push(
            &mut out,
            &mut first,
            &format!(
                "  {{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {node}, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{name}\"}}}}",
                tid = layer.index(),
                name = layer.as_str()
            ),
        );
        push(
            &mut out,
            &mut first,
            &format!(
                "  {{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": {node}, \
                 \"tid\": {tid}, \"args\": {{\"sort_index\": {tid}}}}}",
                tid = layer.index()
            ),
        );
    }

    for ev in events {
        let args = format!(
            "\"args\": {{\"origin\": {}, \"msg\": {}, \"seq\": {}, \"bytes\": {}}}",
            ev.trace.origin, ev.trace.msg_id, ev.seq, ev.bytes
        );
        let common = format!(
            "\"name\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}",
            json_escape(&ev.stage),
            event_pid(ev.node),
            ev.layer.index(),
            ev.start_ns as f64 / 1000.0
        );
        let line = match ev.phase {
            TracePhase::Span => format!(
                "  {{\"ph\": \"X\", {common}, \"dur\": {:.3}, {args}}}",
                ev.duration_ns() as f64 / 1000.0
            ),
            TracePhase::Instant => {
                format!("  {{\"ph\": \"i\", {common}, \"s\": \"t\", {args}}}")
            }
        };
        push(&mut out, &mut first, &line);
    }

    // Telemetry probes as counter tracks, one per probe, under the pid of
    // the node they belong to.
    for s in &counters.series {
        let pid = if s.node == crate::timeseries::FABRIC_NODE {
            FABRIC_PID
        } else {
            s.node
        };
        let name = json_escape(&s.name);
        for &(t, v) in &s.points {
            push(
                &mut out,
                &mut first,
                &format!(
                    "  {{\"ph\": \"C\", \"name\": \"{name}\", \"pid\": {pid}, \"tid\": 0, \
                     \"ts\": {:.3}, \"args\": {{\"value\": {v}}}}}",
                    t as f64 / 1000.0
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Per-architecture causal-chain budget. The completeness checker applies
/// it to every chain that actually put traffic on the wire.
#[derive(Clone, Debug)]
pub struct ChainPolicy {
    /// Exact number of [`stage::TRAP`] events each inter-node message must
    /// show (`None` = don't check).
    pub traps_per_msg: Option<u64>,
    /// Exact number of [`stage::INTERRUPT`] events (`None` = don't check).
    pub interrupts_per_msg: Option<u64>,
    /// Flag chains that injected fragments without a recorded
    /// [`stage::SEND`] (catches broken TraceId propagation).
    pub require_send: bool,
}

impl ChainPolicy {
    /// The paper's BCL contract: exactly 1 trap, 0 interrupts.
    pub fn bcl() -> Self {
        ChainPolicy {
            traps_per_msg: Some(1),
            interrupts_per_msg: Some(0),
            require_send: true,
        }
    }

    /// The NIC-offloaded collective contract: each participant pays exactly
    /// one initiating trap and zero interrupts, no matter how many plan
    /// steps its NIC executes — fan-in combining and fan-out forwarding are
    /// firmware-resident, so a participant's chain shows its `api:send`,
    /// the single trap, its own injected contributions, and closes on the
    /// completion poll with no further host crossings.
    pub fn collective() -> Self {
        ChainPolicy {
            traps_per_msg: Some(1),
            interrupts_per_msg: Some(0),
            require_send: true,
        }
    }

    /// A Table 1 comparator architecture with its own crossing budget.
    pub fn architecture(traps: u64, interrupts: u64) -> Self {
        ChainPolicy {
            traps_per_msg: Some(traps),
            interrupts_per_msg: Some(interrupts),
            require_send: true,
        }
    }

    /// Structural checks only (closure + retransmission attribution).
    pub fn lenient() -> Self {
        ChainPolicy {
            traps_per_msg: None,
            interrupts_per_msg: None,
            require_send: false,
        }
    }
}

/// What the checker learned about one message's chain.
#[derive(Clone, Debug)]
pub struct ChainSummary {
    /// The message.
    pub trace: TraceId,
    /// Events observed for it.
    pub events: usize,
    /// A [`stage::SEND`] was recorded.
    pub has_send: bool,
    /// First-transmission fragments injected.
    pub injects: usize,
    /// Go-back-N retransmissions.
    pub retransmissions: usize,
    /// Switch hops traversed (all fragments).
    pub hops: usize,
    /// [`stage::TRAP`] events.
    pub traps: u64,
    /// [`stage::INTERRUPT`] events.
    pub interrupts: u64,
    /// Stage that closed the chain, when closed.
    pub terminal: Option<Cow<'static, str>>,
}

impl ChainSummary {
    /// Did the chain reach a completion or a counted drop?
    pub fn closed(&self) -> bool {
        self.terminal.is_some()
    }
}

/// Result of [`check_completeness`]: per-chain summaries plus human-readable
/// violations. An empty violation list means every chain is closed and
/// within policy.
#[derive(Clone, Debug, Default)]
pub struct CompletenessReport {
    /// One summary per traced message, ordered by [`TraceId`].
    pub chains: Vec<ChainSummary>,
    /// Everything that failed, one line each.
    pub violations: Vec<String>,
}

impl CompletenessReport {
    /// No violations?
    pub fn is_closed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total retransmissions across all chains.
    pub fn total_retransmissions(&self) -> usize {
        self.chains.iter().map(|c| c.retransmissions).sum()
    }

    /// Summary for one message.
    pub fn chain(&self, trace: TraceId) -> Option<&ChainSummary> {
        self.chains.iter().find(|c| c.trace == trace)
    }
}

/// Stages that close a chain: the sender or receiver consumed a completion
/// event, the sender gave up after exhausting retries, or the receiver
/// dropped the message as a *counted* drop.
pub fn is_terminal(stage_name: &str) -> bool {
    matches!(
        stage_name,
        stage::POLL_RECV
            | stage::POLL_SEND
            | stage::MSG_FAILED
            | stage::DROP_NO_BUFFER
            | stage::DROP_NO_PORT
    )
}

/// One message's causal chain, as grouped by [`chains`].
#[derive(Debug)]
pub struct Chain<'a> {
    /// The message.
    pub trace: TraceId,
    /// Its events, in input order.
    pub events: Vec<&'a TraceEvent>,
    /// Its earliest-starting [`stage::SEND`], when one was recorded.
    pub send: Option<&'a TraceEvent>,
    /// Its first [`is_terminal`] event in input order, when it reached one.
    pub terminal: Option<&'a TraceEvent>,
    /// End time of its newest event.
    pub last_ns: u64,
}

impl Chain<'_> {
    /// Did the chain reach a completion or a counted drop?
    pub fn closed(&self) -> bool {
        self.terminal.is_some()
    }
}

/// Group `events` by [`TraceId`] into per-message chains, ordered by id.
/// [`TraceId::NONE`] events are unattributable by construction and belong
/// to no chain.
pub fn chains(events: &[TraceEvent]) -> Vec<Chain<'_>> {
    let mut by_id: BTreeMap<TraceId, Chain<'_>> = BTreeMap::new();
    for ev in events.iter().filter(|ev| !ev.trace.is_none()) {
        let c = by_id.entry(ev.trace).or_insert_with(|| Chain {
            trace: ev.trace,
            events: Vec::new(),
            send: None,
            terminal: None,
            last_ns: 0,
        });
        c.events.push(ev);
        c.last_ns = c.last_ns.max(ev.end_ns);
        if ev.stage == stage::SEND && c.send.is_none_or(|s| ev.start_ns < s.start_ns) {
            c.send = Some(ev);
        }
        if c.terminal.is_none() && is_terminal(&ev.stage) {
            c.terminal = Some(ev);
        }
    }
    by_id.into_values().collect()
}

/// Walk each message's causal chain and check it is closed and within the
/// architecture's crossing budget. Trap/interrupt budgets apply only to
/// chains that injected fragments — purely intra-node messages never trap
/// by design.
pub fn check_completeness(events: &[TraceEvent], policy: &ChainPolicy) -> CompletenessReport {
    let mut report = CompletenessReport::default();
    for chain in chains(events) {
        let trace = chain.trace;
        let mut summary = ChainSummary {
            trace,
            events: chain.events.len(),
            has_send: chain.send.is_some(),
            injects: 0,
            retransmissions: 0,
            hops: 0,
            traps: 0,
            interrupts: 0,
            terminal: chain.terminal.map(|ev| ev.stage.clone()),
        };
        let mut inject_seqs: BTreeSet<u32> = BTreeSet::new();
        let mut retx_seqs: Vec<u32> = Vec::new();
        let send_start = chain.send.map(|ev| ev.start_ns);
        let mut first_inject: Option<u64> = None;
        for ev in &chain.events {
            match ev.stage.as_ref() {
                stage::INJECT => {
                    summary.injects += 1;
                    inject_seqs.insert(ev.seq);
                    first_inject = Some(first_inject.map_or(ev.start_ns, |t| t.min(ev.start_ns)));
                }
                stage::RETX => {
                    summary.retransmissions += 1;
                    retx_seqs.push(ev.seq);
                }
                stage::HOP => summary.hops += 1,
                stage::TRAP => summary.traps += 1,
                stage::INTERRUPT => summary.interrupts += 1,
                _ => {}
            }
        }

        let tag = format!("msg (origin {}, id {})", trace.origin, trace.msg_id);
        if summary.has_send && summary.terminal.is_none() {
            report.violations.push(format!(
                "{tag}: chain never closed — send without completion, failure, or counted drop"
            ));
        }
        if policy.require_send && !summary.has_send && summary.injects > 0 {
            report.violations.push(format!(
                "{tag}: {} fragments on the wire but no api:send recorded",
                summary.injects
            ));
        }
        for seq in &retx_seqs {
            if !inject_seqs.contains(seq) {
                report.violations.push(format!(
                    "{tag}: retransmission of seq {seq} never attributed to an injected fragment"
                ));
            }
        }
        if let (Some(send), Some(inject)) = (send_start, first_inject) {
            if inject < send {
                report.violations.push(format!(
                    "{tag}: first inject at {inject} ns precedes send at {send} ns"
                ));
            }
        }
        if summary.has_send && summary.injects > 0 {
            if let Some(budget) = policy.traps_per_msg {
                if summary.traps != budget {
                    report.violations.push(format!(
                        "{tag}: {} trap events, architecture budget is {budget}",
                        summary.traps
                    ));
                }
            }
            if let Some(budget) = policy.interrupts_per_msg {
                if summary.interrupts != budget {
                    report.violations.push(format!(
                        "{tag}: {} interrupt events, architecture budget is {budget}",
                        summary.interrupts
                    ));
                }
            }
        }
        report.chains.push(summary);
    }
    report
}

/// [`check_completeness`] over a *sampled* trace population: asserts the
/// per-chain crossing budgets for every chain the sampler admitted, and
/// additionally that the trace set is exactly the sampled population — a
/// chain whose [`TraceId`] the spec does not admit leaked past the sampler
/// (or the set was recorded under a different spec), which would silently
/// bias the budget statistics. With [`SampleSpec::ALL`] this is identical
/// to [`check_completeness`].
pub fn check_completeness_sampled(
    events: &[TraceEvent],
    policy: &ChainPolicy,
    spec: SampleSpec,
) -> CompletenessReport {
    let mut report = check_completeness(events, policy);
    for c in &report.chains {
        if !spec.admits(c.trace) {
            report.violations.push(format!(
                "msg (origin {}, id {}): present in the trace set but not admitted by the \
                 sampling spec (rate {} ppm, seed {:#x})",
                c.trace.origin, c.trace.msg_id, spec.rate_ppm, spec.seed
            ));
        }
    }
    report
}

/// Histogram names fed by [`record_stage_histograms`].
pub const STAGE_HISTOGRAMS: [&str; 5] = [
    "trace.trap_ns",
    "trace.inject_ns",
    "trace.wire_ns",
    "trace.dma_ns",
    "trace.cq_wait_ns",
];

/// Derive per-stage latency histograms from a trace: for every inter-node
/// chain, total time in the kernel send path (`trace.trap_ns`), MCP
/// fragment processing (`trace.inject_ns`), wire occupancy
/// (`trace.wire_ns`), DMA (`trace.dma_ns`), and the time from the
/// completion-queue DMA finishing to the user poll returning the event, the
/// poll's own cost included (`trace.cq_wait_ns`). Returns the number of chains measured.
pub fn record_stage_histograms(events: &[TraceEvent], metrics: &Metrics) -> usize {
    let trap = metrics.histogram("trace.trap_ns");
    let inject = metrics.histogram("trace.inject_ns");
    let wire = metrics.histogram("trace.wire_ns");
    let dma = metrics.histogram("trace.dma_ns");
    let cq_wait = metrics.histogram("trace.cq_wait_ns");

    let mut measured = 0usize;
    for chain in chains(events) {
        let evs = &chain.events;
        if chain.send.is_none() || !evs.iter().any(|e| e.stage == stage::INJECT) {
            continue;
        }
        measured += 1;
        let sum_of = |name: &str| -> u64 {
            evs.iter()
                .filter(|e| e.stage == name)
                .map(|e| e.duration_ns())
                .sum()
        };
        let trap_ns = sum_of(stage::IOCTL_SEND);
        if trap_ns > 0 {
            trap.record(trap_ns);
        }
        inject.record(sum_of(stage::INJECT));
        wire.record(sum_of(stage::WIRE_TX));
        dma.record(sum_of(stage::DMA_DATA) + sum_of(stage::DMA_CQ));
        let cq_done = evs
            .iter()
            .filter(|e| e.stage == stage::DMA_CQ && e.node != e.trace.origin)
            .map(|e| e.end_ns)
            .max();
        let polled = evs
            .iter()
            .filter(|e| e.stage == stage::POLL_RECV)
            .map(|e| e.end_ns)
            .min();
        if let (Some(done), Some(poll)) = (cq_done, polled) {
            cq_wait.record(poll.saturating_sub(done));
        }
    }
    measured
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(msg: u32) -> TraceId {
        TraceId::new(0, msg)
    }

    /// A minimal closed BCL chain for msg `m`: send, trap, inject, hop,
    /// rx, dma, cq, poll.
    fn closed_chain(m: u32) -> Vec<TraceEvent> {
        let t = id(m);
        vec![
            TraceEvent::span(t, 0, TraceLayer::Library, stage::SEND, 0, 100).with_bytes(512),
            TraceEvent::instant(t, 0, TraceLayer::Kernel, stage::TRAP, 10),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::IOCTL_SEND, 10, 90),
            TraceEvent::span(t, 0, TraceLayer::Mcp, stage::INJECT, 100, 150).with_seq(0),
            TraceEvent::span(t, 0, TraceLayer::Wire, stage::WIRE_TX, 150, 400).with_seq(0),
            TraceEvent::instant(t, 0, TraceLayer::Wire, stage::HOP, 200).with_seq(0),
            TraceEvent::span(t, 1, TraceLayer::Mcp, stage::RX, 400, 450).with_seq(0),
            TraceEvent::span(t, 1, TraceLayer::Dma, stage::DMA_DATA, 450, 600),
            TraceEvent::span(t, 1, TraceLayer::Dma, stage::DMA_CQ, 600, 700),
            TraceEvent::span(t, 1, TraceLayer::Library, stage::POLL_RECV, 800, 900),
        ]
    }

    #[test]
    fn ring_wraps_and_counts_evictions() {
        let tr = MsgTracer::with_capacity(4);
        for i in 0..10u64 {
            tr.record(TraceEvent::instant(
                id(2),
                0,
                TraceLayer::Mcp,
                stage::HOP,
                i,
            ));
        }
        let evs = tr.events();
        assert_eq!(evs.len(), 4);
        // The *last* four survive.
        assert_eq!(evs[0].start_ns, 6);
        assert_eq!(evs[3].start_ns, 9);
        assert_eq!(tr.total_recorded(), 10);
        assert_eq!(tr.total_evicted(), 6);
    }

    #[test]
    fn sampling_is_deterministic_and_chain_consistent() {
        let spec = SampleSpec::ratio_ppm(100_000).with_seed(7); // 10%
                                                                // Pure function: the admitted set is identical on every evaluation
                                                                // and does not depend on evaluation order.
        let admitted: Vec<bool> = (0..4096)
            .map(|m| spec.admits(TraceId::new(m % 64, m)))
            .collect();
        let again: Vec<bool> = (0..4096)
            .map(|m| spec.admits(TraceId::new(m % 64, m)))
            .collect();
        assert_eq!(admitted, again);
        let hits = admitted.iter().filter(|&&a| a).count();
        // 10% of 4096 ≈ 410; a well-mixed hash lands in a loose window.
        assert!((205..=820).contains(&hits), "admitted {hits} of 4096");
        // A different seed samples a different population at a similar rate.
        let other = SampleSpec::ratio_ppm(100_000).with_seed(8);
        let other_set: Vec<bool> = (0..4096)
            .map(|m| other.admits(TraceId::new(m % 64, m)))
            .collect();
        assert_ne!(admitted, other_set);
        // NONE is always admitted; rate 100% admits everything.
        assert!(spec.admits(TraceId::NONE));
        assert!(SampleSpec::ALL.admits(TraceId::new(3, 9)));
    }

    #[test]
    fn sampled_tracer_drops_unadmitted_chains_whole() {
        let tr = MsgTracer::new();
        let spec = SampleSpec::ratio_ppm(200_000).with_seed(42);
        tr.set_sampling(spec);
        assert_eq!(tr.sampling(), spec);
        for m in 0..64u32 {
            for ev in closed_chain(m) {
                tr.record(ev);
            }
        }
        let events = tr.events();
        let chain_len = closed_chain(0).len() as u64;
        // Every surviving event belongs to an admitted chain, and admitted
        // chains survive *complete* — sampling never truncates a chain.
        let mut per_chain: BTreeMap<TraceId, u64> = BTreeMap::new();
        for ev in &events {
            assert!(spec.admits(ev.trace), "unadmitted event survived");
            *per_chain.entry(ev.trace).or_default() += 1;
        }
        for (t, n) in &per_chain {
            assert_eq!(*n, chain_len, "chain {t:?} truncated");
        }
        let admitted = (0..64u32).filter(|&m| spec.admits(id(m))).count() as u64;
        assert_eq!(per_chain.len() as u64, admitted);
        assert_eq!(tr.total_recorded(), admitted * chain_len);
        assert_eq!(tr.total_sampled_out(), (64 - admitted) * chain_len);
        // NONE events bypass the sampler entirely (flight-recorder cargo).
        tr.record(TraceEvent::instant(
            TraceId::NONE,
            0,
            TraceLayer::Mcp,
            stage::PROTO_ERROR,
            5,
        ));
        assert_eq!(tr.total_recorded(), admitted * chain_len + 1);
        // The sampled population passes the budget check as-is…
        let report = check_completeness_sampled(&tr.events(), &ChainPolicy::bcl(), spec);
        assert!(report.is_closed(), "{:?}", report.violations);
        assert_eq!(report.chains.len() as u64, admitted);
        // …and a chain outside the sampled population is flagged.
        let leaked = (0..u32::MAX)
            .find(|&m| !spec.admits(id(m)))
            .expect("some chain unadmitted");
        let mut evs = tr.events();
        evs.extend(closed_chain(leaked));
        let report = check_completeness_sampled(&evs, &ChainPolicy::bcl(), spec);
        assert!(!report.is_closed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("not admitted by the sampling spec")));
    }

    #[test]
    fn events_merge_sorted_across_nodes() {
        let tr = MsgTracer::new();
        tr.record(TraceEvent::instant(
            id(2),
            1,
            TraceLayer::Mcp,
            stage::RX,
            50,
        ));
        tr.record(TraceEvent::instant(
            id(2),
            0,
            TraceLayer::Mcp,
            stage::HOP,
            10,
        ));
        let evs = tr.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].start_ns, 10);
        assert!(tr.take_events().is_empty(), "drained");
    }

    #[test]
    fn dump_once_fires_exactly_once() {
        let tr = MsgTracer::new();
        tr.record(TraceEvent::instant(
            id(2),
            0,
            TraceLayer::Mcp,
            stage::HOP,
            1,
        ));
        assert!(!tr.has_dumped());
        assert!(tr.dump_once("unit test"));
        assert!(tr.has_dumped());
        assert!(!tr.dump_once("again"), "second dump suppressed");
        let text = tr.dump(16);
        assert!(text.contains("mcp"));
        assert!(text.contains("msg=(0,2)"));
    }

    #[test]
    fn set_capacity_trims_existing_rings() {
        let tr = MsgTracer::with_capacity(8);
        for i in 0..8u64 {
            tr.record(TraceEvent::instant(
                id(2),
                0,
                TraceLayer::Mcp,
                stage::HOP,
                i,
            ));
        }
        tr.set_capacity(2);
        let evs = tr.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].start_ns, 6);
    }

    #[test]
    fn chrome_json_is_balanced_and_typed() {
        let j = to_chrome_json(&closed_chain(2));
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"ph\": \"i\""));
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"name\": \"node 0\""));
        assert!(j.contains("\"name\": \"api:send\""));
        assert_eq!(crate::validate_json(&j), Ok(()));
    }

    #[test]
    fn chrome_json_merges_counter_tracks() {
        let ts = crate::timeseries::TimeSeries::new();
        ts.register("n0.mcp.send_queue", 0, Some(64), |_| 3);
        ts.register(
            "link.sw0->n1.backlog_bytes",
            crate::timeseries::FABRIC_NODE,
            None,
            |_| 4096,
        );
        ts.sample_all(1_000);
        ts.sample_all(2_000);
        let j = to_chrome_json_with_counters(&closed_chain(2), &ts.snapshot());
        assert!(j.contains("\"ph\": \"C\""), "counter events present");
        assert!(j.contains("\"name\": \"n0.mcp.send_queue\""));
        assert!(
            j.contains(&format!("\"pid\": {FABRIC_PID}")),
            "fabric probe under the fabric pseudo-process"
        );
        assert!(j.contains("\"name\": \"fabric\""));
        assert!(j.contains("\"ts\": 1.000"), "sample at 1 us");
        assert!(j.contains("\"args\": {\"value\": 4096}"));
        // Still a well-formed document with the span events intact.
        assert!(j.contains("\"ph\": \"X\""));
        assert_eq!(crate::validate_json(&j), Ok(()));
    }

    #[test]
    fn checker_accepts_closed_bcl_chain() {
        let report = check_completeness(&closed_chain(2), &ChainPolicy::bcl());
        assert!(report.is_closed(), "{:?}", report.violations);
        let chain = report.chain(id(2)).expect("chain present");
        assert_eq!(chain.traps, 1);
        assert_eq!(chain.interrupts, 0);
        assert_eq!(chain.injects, 1);
        assert_eq!(chain.hops, 1);
        assert_eq!(chain.terminal.as_deref(), Some(stage::POLL_RECV));
    }

    #[test]
    fn checker_flags_unclosed_chain() {
        let mut evs = closed_chain(2);
        evs.retain(|e| e.stage != stage::POLL_RECV);
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert!(!report.is_closed());
        assert!(report.violations[0].contains("never closed"));
    }

    #[test]
    fn checker_flags_extra_trap_and_interrupt() {
        let mut evs = closed_chain(2);
        evs.push(TraceEvent::instant(
            id(2),
            0,
            TraceLayer::Kernel,
            stage::TRAP,
            20,
        ));
        evs.push(TraceEvent::instant(
            id(2),
            1,
            TraceLayer::Kernel,
            stage::INTERRUPT,
            500,
        ));
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        // The same chain passes under a 2-trap/1-interrupt architecture.
        let report = check_completeness(&evs, &ChainPolicy::architecture(2, 1));
        assert!(report.is_closed(), "{:?}", report.violations);
    }

    #[test]
    fn checker_attributes_retransmissions() {
        let mut evs = closed_chain(2);
        evs.push(TraceEvent::span(id(2), 0, TraceLayer::Mcp, stage::RETX, 700, 750).with_seq(0));
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert!(report.is_closed(), "{:?}", report.violations);
        assert_eq!(report.total_retransmissions(), 1);
        // A retransmission of a seq that was never injected is a violation.
        evs.push(TraceEvent::span(id(2), 0, TraceLayer::Mcp, stage::RETX, 800, 850).with_seq(9));
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert!(report.violations.iter().any(|v| v.contains("seq 9")));
    }

    #[test]
    fn checker_flags_wire_traffic_without_send() {
        let mut evs = closed_chain(2);
        evs.retain(|e| e.stage != stage::SEND);
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert!(report.violations.iter().any(|v| v.contains("no api:send")));
        assert!(check_completeness(&evs, &ChainPolicy::lenient()).is_closed());
    }

    #[test]
    fn checker_skips_unattributable_events() {
        let evs = [TraceEvent::instant(
            TraceId::NONE,
            0,
            TraceLayer::Mcp,
            stage::PROTO_ERROR,
            5,
        )];
        let report = check_completeness(&evs, &ChainPolicy::bcl());
        assert!(report.chains.is_empty());
        assert!(report.is_closed());
    }

    #[test]
    fn terminal_failure_and_drop_close_chains() {
        for terminal in [
            stage::MSG_FAILED,
            stage::DROP_NO_BUFFER,
            stage::DROP_NO_PORT,
        ] {
            let mut evs = closed_chain(2);
            evs.retain(|e| e.stage != stage::POLL_RECV);
            evs.push(TraceEvent::instant(
                id(2),
                1,
                TraceLayer::Mcp,
                terminal,
                950,
            ));
            let report = check_completeness(&evs, &ChainPolicy::bcl());
            assert!(report.is_closed(), "{terminal}: {:?}", report.violations);
            assert_eq!(
                report.chain(id(2)).unwrap().terminal.as_deref(),
                Some(terminal)
            );
        }
    }

    #[test]
    fn stage_histograms_measure_chains() {
        let m = Metrics::new();
        let n = record_stage_histograms(&closed_chain(2), &m);
        assert_eq!(n, 1);
        let snap = m.snapshot();
        assert_eq!(snap.histograms["trace.trap_ns"].count, 1);
        assert_eq!(snap.histograms["trace.trap_ns"].max, 80);
        assert_eq!(snap.histograms["trace.inject_ns"].max, 50);
        assert_eq!(snap.histograms["trace.wire_ns"].max, 250);
        assert_eq!(snap.histograms["trace.dma_ns"].max, 250);
        // cq DMA ends at 700, poll at 900.
        assert_eq!(snap.histograms["trace.cq_wait_ns"].max, 200);
    }
}

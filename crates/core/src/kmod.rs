//! The BCL kernel module.
//!
//! "BCL kernel module posts operation requests to the request queues on
//! NIC's local memory … Kernel module also implements some functional
//! operations, which need to be executed in the kernel environment. Such
//! operations include the host memory pin/unpin operation and host virtual
//! memory address to bus memory address conversion." (§4.1.1)
//!
//! Every public method here is an ioctl subcommand: it must be called from
//! inside [`suca_os::NodeOs::trap`] (the API layer does this), runs with
//! kernel privilege, performs the paper's §4.3 security checks, charges
//! kernel CPU costs to the calling actor, and finally programs the NIC by
//! PIO. This file is the "semi" of semi-user-level: it is the only place
//! where user requests touch the NIC. Every send-class request — a message,
//! an RMA write or read, a collective — takes the one path,
//! [`BclKmod::submit`]; what differs by kind is one table
//! (`Request::rule`). The user-level architectures' doorbell send takes
//! the same path with the kernel's charges left out ([`Entry::Doorbell`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use suca_mem::{pages_spanned, NicSegs, PinDownTable, PinLookup, VirtAddr, PAGE_SIZE};
use suca_myrinet::FabricNodeId;
use suca_os::{NodeOs, OsProcess, Pid};
use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{ActorCtx, Counter, Gauge, SimTime};

use crate::coll::{CollOp, CollSetup, CollStep};
use crate::config::BclConfig;
use crate::error::BclError;
use crate::mcp::{JobKind, Mcp, SendJob};
use crate::port::{ChannelId, ChannelKind, PortId, ProcAddr};
use crate::queues::{SystemPool, UserQueues};

/// How a request reaches the module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// Through [`NodeOs::trap`]: dispatch, security and pin-down are charged
    /// to the caller, and the trap is traced.
    Trap,
    /// Through the NIC's mapped doorbell page (the user-level architectures'
    /// send): the same checks and message ids, none of the kernel's charges.
    /// The descriptor names virtual pages (`JobKind::Message::user_pages`)
    /// the NIC translates itself; it still holds the frames it will read.
    Doorbell,
}

/// A send-class request: everything a process can ask the NIC to send,
/// each posted by [`BclKmod::submit`]. A buffer is `(start, bytes)` in the
/// caller's space.
#[derive(Clone, Debug)]
pub enum Request {
    /// An ordinary message on a system or normal channel.
    Message {
        /// Destination process.
        dst: ProcAddr,
        /// Destination channel.
        channel: ChannelId,
        /// The payload.
        buf: (VirtAddr, u64),
    },
    /// One-sided write of the local buffer into a window.
    RmaWrite(Rma),
    /// One-sided read from a window into the local buffer.
    RmaRead(Rma),
    /// A NIC-offloaded collective.
    Collective {
        /// Collective id, identical on every participant.
        coll_id: u32,
        /// Reduction operator.
        op: CollOp,
        /// This participant's schedule.
        steps: Vec<CollStep>,
        /// The contribution (0 bytes for barrier).
        payload: (VirtAddr, u64),
        /// Where the final accumulator is DMA'd (0 bytes: none wanted).
        result: (VirtAddr, u64),
    },
}

/// A one-sided access to the window `dst` bound to an open channel.
#[derive(Clone, Copy, Debug)]
pub struct Rma {
    /// Owner of the window.
    pub dst: ProcAddr,
    /// Open channel the window is bound to.
    pub chan: u16,
    /// Byte offset into the window.
    pub offset: u64,
    /// The local buffer: a write's source, a read's target.
    pub buf: (VirtAddr, u64),
}

impl Request {
    /// This request's row of the per-kind table (DESIGN.md §5 "Kernel
    /// module"), the only place the send path differs by kind. Columns:
    /// refused with `RingFull` while the NIC's send ring is full; an empty
    /// buffer is still pinned (and checked); descriptor PIO segments from
    /// the segments pinned; the architecture's kernel-level send copies
    /// apply.
    fn rule(&self) -> (bool, bool, fn(u64) -> u64, bool) {
        match self {
            Request::Message { .. } => (true, false, |pinned| pinned, true),
            Request::RmaWrite(_) => (false, true, |pinned| pinned, false),
            Request::RmaRead(_) => (false, true, |_| 1, false),
            Request::Collective { .. } => (true, false, |pinned| pinned.max(1), false),
        }
    }

    /// The payload (a read's target), then a collective's result buffer.
    fn buffers(&self) -> [Option<(VirtAddr, u64)>; 2] {
        match *self {
            Request::Message { buf, .. }
            | Request::RmaWrite(Rma { buf, .. })
            | Request::RmaRead(Rma { buf, .. }) => [Some(buf), None],
            Request::Collective {
                payload, result, ..
            } => [Some(payload), Some(result)],
        }
    }

    /// Payload bytes the request carries; its trace spans record them.
    pub(crate) fn bytes(&self) -> u64 {
        self.buffers()[0].map_or(0, |(_, len)| len)
    }
}

struct KernelPort {
    owner: Pid,
}

struct KmodState {
    pin: PinDownTable,
    ports: HashMap<u16, KernelPort>,
    next_port: u16,
    next_msg: u32,
    /// Evictions already folded into the `kmod.pin_evictions` counter; the
    /// pin table reports a lifetime total, we publish deltas.
    evictions_seen: u64,
    /// Pinned-page level last published to the shared `kmod.pinned_bytes`
    /// gauge (the cell is cluster-wide, so this module adds/subtracts
    /// deltas instead of storing absolute levels).
    pinned_pages_published: u64,
}

/// One node's BCL kernel module.
pub struct BclKmod {
    os: Rc<NodeOs>,
    cfg: BclConfig,
    mcp: Mcp,
    num_nodes: u32,
    state: RefCell<KmodState>,
    // Typed metric handles (cluster-wide totals across all nodes' modules).
    ioctls: Counter,
    security_rejects: Counter,
    pin_hits: Counter,
    pin_misses: Counter,
    pin_evictions: Counter,
    pio_descriptors: Counter,
    pinned_bytes: Gauge,
}

impl BclKmod {
    /// Load the module on a node.
    pub fn new(os: Rc<NodeOs>, mcp: Mcp, num_nodes: u32, cfg: BclConfig) -> Rc<BclKmod> {
        let pin = PinDownTable::new(cfg.pin_table_pages);
        let pin_table_pages = cfg.pin_table_pages as u64;
        let metrics = os.sim().metrics();
        let kmod = Rc::new(BclKmod {
            cfg,
            mcp,
            num_nodes,
            state: RefCell::new(KmodState {
                pin,
                ports: HashMap::new(),
                next_port: 0,
                next_msg: 2, // even ids: kernel-assigned; odd: intra-node lib
                evictions_seen: 0,
                pinned_pages_published: 0,
            }),
            ioctls: metrics.counter("kmod.ioctls"),
            security_rejects: metrics.counter("kmod.security_rejects"),
            pin_hits: metrics.counter("kmod.pin_hits"),
            pin_misses: metrics.counter("kmod.pin_misses"),
            pin_evictions: metrics.counter("kmod.pin_evictions"),
            pio_descriptors: metrics.counter("kmod.pio_descriptors"),
            pinned_bytes: metrics.gauge("kmod.pinned_bytes"),
            os,
        });
        // Telemetry probes: host-resident pin-down table occupancy. This is
        // the paper's scalability story made visible — pinned host memory
        // grows with the working set while NIC SRAM stays bounded.
        let sim = kmod.os.sim();
        let ts = sim.timeseries();
        let n = kmod.os.node_id.0;
        let w = Rc::downgrade(&kmod);
        ts.register(
            format!("n{n}.kmod.pinned_pages"),
            n,
            Some(pin_table_pages),
            move |_| w.upgrade().map_or(0, |k| k.state.borrow().pin.len() as u64),
        );
        let w = Rc::downgrade(&kmod);
        ts.register(format!("n{n}.kmod.pinned_bytes"), n, None, move |_| {
            w.upgrade()
                .map_or(0, |k| k.state.borrow().pin.len() as u64 * PAGE_SIZE)
        });
        kmod
    }

    /// The NIC firmware handle (for layers that need stats).
    pub fn mcp(&self) -> &Mcp {
        &self.mcp
    }

    /// Pin-down table statistics `(hits, misses, evictions)`.
    pub fn pin_stats(&self) -> (u64, u64, u64) {
        self.state.borrow().pin.stats()
    }

    /// Pages currently cached in the pin-down table.
    pub fn pinned_pages(&self) -> usize {
        self.state.borrow().pin.len()
    }

    /// Heap bytes the pin-down table reserves.
    pub fn pin_table_bytes(&self) -> usize {
        self.state.borrow().pin.table_bytes()
    }

    /// Fold the pin table's current level into the shared `kmod.pinned_bytes`
    /// gauge. Delta-published: the cell aggregates every node's module.
    fn publish_pin_level(&self, st: &mut KmodState) {
        let cur = st.pin.len() as u64;
        let prev = st.pinned_pages_published;
        if cur > prev {
            self.pinned_bytes.add((cur - prev) * PAGE_SIZE);
        } else if prev > cur {
            self.pinned_bytes.sub((prev - cur) * PAGE_SIZE);
        }
        st.pinned_pages_published = cur;
    }

    // ---- shared kernel-side checks ----

    /// Record a §4.3 security-check rejection and pass the error through.
    fn reject(&self, e: BclError) -> BclError {
        self.security_rejects.inc();
        e
    }

    /// The preamble every request opens with. A trapped request pays the
    /// ioctl dispatch and the security check; then the caller must be live
    /// and, for a request on a port, own it.
    fn preamble(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: Option<PortId>,
        entry: Entry,
    ) -> Result<(), BclError> {
        if entry == Entry::Trap {
            self.ioctls.inc();
            ctx.sleep(self.cfg.copyin_dispatch + self.os.costs.security_check);
        }
        // "The parameters checked include application process ID …"
        if !self.os.is_live(proc.pid) {
            return Err(self.reject(BclError::DeadProcess(proc.pid)));
        }
        let Some(port) = port else {
            return Ok(());
        };
        match self.state.borrow().ports.get(&port.0) {
            Some(kp) if kp.owner == proc.pid => Ok(()),
            Some(_) => Err(self.reject(BclError::NotPortOwner {
                port,
                pid: proc.pid,
            })),
            None => Err(self.reject(BclError::BadPort(port))),
        }
    }

    fn check_dest(&self, dst: ProcAddr) -> Result<(), BclError> {
        // "… and communication target and so on."
        if dst.node.0 >= self.num_nodes {
            return Err(self.reject(BclError::BadNode(dst.node)));
        }
        if dst.port.0 >= self.cfg.limits.max_ports {
            return Err(self.reject(BclError::BadPort(dst.port)));
        }
        if self.mcp.path_is_dead(FabricNodeId(dst.node.0)) {
            // The NIC exhausted retransmission on every rail; refusing here
            // (kernel-side, per the trust model) lets callers re-home work
            // instead of feeding a black hole.
            return Err(BclError::PathDead(dst.node));
        }
        Ok(())
    }

    /// Every destination the request names, then the kind's own limits:
    /// channel, length, fragment capacity, f64 lanes.
    fn check_request(&self, req: &Request) -> Result<(), BclError> {
        let limits = &self.cfg.limits;
        let refused = match *req {
            Request::Message {
                dst,
                channel,
                buf: (_, len),
            } => {
                self.check_dest(dst)?;
                let pool = self.cfg.system_pool.buffer_bytes;
                let max = limits.max_message_bytes;
                match channel.kind {
                    ChannelKind::System if len > pool => {
                        Some(BclError::TooBigForSystemChannel { len, max: pool })
                    }
                    ChannelKind::Normal if channel.index >= limits.normal_channels => {
                        Some(BclError::BadChannel(channel))
                    }
                    ChannelKind::Open => Some(BclError::BadChannel(channel)),
                    _ if len > max => Some(BclError::MessageTooLong { len, max }),
                    _ => None,
                }
            }
            Request::RmaWrite(rma) | Request::RmaRead(rma) => {
                self.check_dest(rma.dst)?;
                (rma.chan >= limits.open_channels)
                    .then(|| BclError::BadChannel(ChannelId::open(rma.chan)))
            }
            Request::Collective {
                ref steps,
                payload: (addr, len),
                result: (_, result_len),
                ..
            } => {
                // Every peer the schedule names is a communication target:
                // the same destination checks as a send, per edge.
                for step in steps {
                    for &peer in step.recv_from.iter().chain(&step.send_to) {
                        self.check_dest(peer)?;
                    }
                }
                // Single-fragment contract: each wire contribution is the
                // payload plus the 4-byte collective id in one packet. Whole
                // f64 lanes only, so NIC-side combining can never straddle
                // an element.
                let max = self.mcp.frag_cap().saturating_sub(4);
                if len > max {
                    Some(BclError::MessageTooLong { len, max })
                } else if !len.is_multiple_of(8) || !result_len.is_multiple_of(8) {
                    Some(BclError::BadBuffer { addr: addr.0, len })
                } else {
                    None
                }
            }
        };
        refused.map_or(Ok(()), |e| Err(self.reject(e)))
    }

    /// Check a user range is the caller's, then hand back its physical
    /// scatter/gather list with a NIC reference taken on every frame — the
    /// list is about to enter NIC state, and from here on the frames outlive
    /// a `free` by their owner. A trapped request translates through the
    /// pin-down table and is charged for it; a doorbell request skips the
    /// table (the NIC translates). `busy`: the owner must not write the
    /// buffer before its completion event (sends, one-sided reads,
    /// collectives); pool buffers, posted receive buffers and bound windows
    /// are the owner's to write while held.
    fn pin(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        (addr, len): (VirtAddr, u64),
        busy: bool,
        entry: Entry,
    ) -> Result<NicSegs, BclError> {
        // "… communication buffer pointer …": the range must be mapped in
        // the *caller's* space; a forged pointer fails here, in the kernel,
        // before the NIC ever sees it.
        if !proc.space.is_mapped(addr, len.max(1)) {
            return Err(self.reject(BclError::BadBuffer { addr: addr.0, len }));
        }
        if entry == Entry::Trap {
            let misses = {
                let mut st = self.state.borrow_mut();
                let results = st.pin.pin_range(&proc.space, addr, len)?;
                let misses = results
                    .iter()
                    .filter(|(_, l)| *l == PinLookup::Miss)
                    .count() as u64;
                self.pin_hits.add(results.len() as u64 - misses);
                self.pin_misses.add(misses);
                // Drop the transient pin immediately: the entry stays cached
                // (evictable, LRU) so repeat sends hit — the whole point of
                // the pin-down cache. The pin *table* count is not what
                // keeps the frames alive under DMA; the NIC reference taken
                // below is.
                st.pin.unpin_range(proc.space.asid(), addr, len);
                let (_, _, evictions) = st.pin.stats();
                self.pin_evictions.add(evictions - st.evictions_seen);
                st.evictions_seen = evictions;
                self.publish_pin_level(&mut st);
                misses
            };
            // One table search per request plus the per-page pin cost on
            // misses.
            ctx.sleep(self.os.costs.pin_lookup_hit + self.os.costs.pin_miss_per_page * misses);
        }
        let segs = proc.space.sg_list(addr, len)?;
        Ok(self.os.memory().nic_hold(segs, busy))
    }

    /// The process unmapped `[addr, addr + len)`: forget the pages' pin
    /// entries, so `kmod.pinned_bytes` stops counting dead pages. Uncharged,
    /// like allocation; frames the NIC still references live on until it
    /// lets go (see `suca_mem::phys`).
    pub(crate) fn unmap_notify(&self, proc: &OsProcess, addr: VirtAddr, len: u64) {
        let mut st = self.state.borrow_mut();
        st.pin.purge_range(proc.space.asid(), addr, len);
        self.publish_pin_level(&mut st);
    }

    /// Charge the PIO cost of writing a send descriptor with `segments`
    /// scatter/gather entries plus the doorbell.
    fn charge_descriptor_pio(&self, ctx: &mut ActorCtx, segments: u64) {
        self.pio_descriptors.inc();
        ctx.sleep(self.cfg.descriptor_pio(segments));
    }

    // ---- ioctl subcommands (call under NodeOs::trap) ----

    /// Create a port for `proc`. The library pre-allocated the completion
    /// queues and the system-pool buffers in user space; the kernel pins
    /// the pool and registers everything on the NIC.
    pub fn ioctl_open_port(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        queues: Rc<UserQueues>,
        pool_buffers: &[VirtAddr],
    ) -> Result<PortId, BclError> {
        self.preamble(ctx, proc, None, Entry::Trap)?;
        {
            let st = self.state.borrow();
            if st.ports.values().any(|kp| kp.owner == proc.pid) {
                // "Each process can create only one port." (§2.2)
                return Err(BclError::PortAlreadyOpen(proc.pid));
            }
            if st.ports.len() >= self.cfg.limits.max_ports as usize {
                return Err(BclError::PortTableFull);
            }
        }
        let buf_bytes = self.cfg.system_pool.buffer_bytes;
        let mut bufs = Vec::with_capacity(pool_buffers.len());
        for &addr in pool_buffers {
            bufs.push(self.pin(ctx, proc, (addr, buf_bytes), false, Entry::Trap)?);
        }
        let port = {
            let mut st = self.state.borrow_mut();
            let id = PortId(st.next_port);
            st.next_port += 1;
            st.ports.insert(id.0, KernelPort { owner: proc.pid });
            id
        };
        // Port-init request to the NIC: queue bases, pool layout.
        self.charge_descriptor_pio(ctx, pool_buffers.len() as u64);
        self.mcp
            .register_port(port, queues, Rc::new(SystemPool::new(buf_bytes, bufs)));
        Ok(port)
    }

    /// Tear down a port and purge its pins.
    pub fn ioctl_close_port(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
    ) -> Result<(), BclError> {
        self.preamble(ctx, proc, Some(port), Entry::Trap)?;
        {
            let mut st = self.state.borrow_mut();
            st.ports.remove(&port.0);
            st.pin.purge_asid(proc.space.asid());
            self.publish_pin_level(&mut st);
        }
        self.charge_descriptor_pio(ctx, 0);
        self.mcp.unregister_port(port);
        Ok(())
    }

    /// Post a receive buffer on a normal channel ("making ready for message
    /// buffer still need switch into kernel mode", §4.1.1).
    pub fn ioctl_post_recv(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        chan: u16,
        buf: (VirtAddr, u64),
        replace: bool,
    ) -> Result<(), BclError> {
        self.preamble(ctx, proc, Some(port), Entry::Trap)?;
        if chan >= self.cfg.limits.normal_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::normal(chan))));
        }
        // Not busy: the intra-node path lands a message in the posted
        // buffer by host copy while this posting stays armed on the NIC
        // (the library replaces it at the next post).
        let segs = self.pin(ctx, proc, buf, false, Entry::Trap)?;
        let n_segs = segs.len() as u64;
        if !self.mcp.post_normal(port, chan, segs, replace) {
            return Err(BclError::ChannelBusy(ChannelId::normal(chan)));
        }
        self.charge_descriptor_pio(ctx, n_segs);
        Ok(())
    }

    /// Bind a buffer to an open (RMA) channel.
    pub fn ioctl_bind_open(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        chan: u16,
        buf: (VirtAddr, u64),
    ) -> Result<(), BclError> {
        self.preamble(ctx, proc, Some(port), Entry::Trap)?;
        if chan >= self.cfg.limits.open_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::open(chan))));
        }
        let segs = self.pin(ctx, proc, buf, false, Entry::Trap)?;
        let n_segs = segs.len() as u64;
        self.mcp.bind_open(port, chan, segs);
        self.charge_descriptor_pio(ctx, n_segs);
        Ok(())
    }

    /// The one send path: every send-class request runs the paper's
    /// sequence once — "security checks, buffer pin-down and virtual to
    /// physical address translation, after which the kernel fills a send
    /// descriptor into NIC memory via PIO":
    ///
    /// 1. charge dispatch + security (trapped requests);
    /// 2. check the caller and the port's owner;
    /// 3. check every destination: node, port, then path health;
    /// 4. check the kind's own limits;
    /// 5. check the send-ring bound, for the kinds that have one;
    /// 6. pin each buffer, charging one bare table lookup when nothing is
    ///    pinned (trapped requests);
    /// 7. charge the kernel-level send copies;
    /// 8. allocate the message id, charge the descriptor PIO, trace the
    ///    trap, and post to the MCP.
    ///
    /// A collective is the one trap that buys the whole collective: the
    /// NIC's plan interpreter then runs fan-in combining and fan-out
    /// forwarding with no further host crossing until the initiator polls
    /// its completion event (`ChainPolicy::collective()`).
    pub fn submit(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        entry: Entry,
        req: Request,
    ) -> Result<u32, BclError> {
        let trap_entry = ctx.now();
        self.preamble(ctx, proc, Some(port), entry)?;
        let dispatch_done = ctx.now();
        self.check_request(&req)?;
        let (ring_bound, pin_empty, pio_segments, kernel_copies) = req.rule();
        if ring_bound && self.mcp.queue_depth() >= self.cfg.limits.send_ring {
            return Err(BclError::RingFull);
        }
        let mut segs = [NicSegs::default(), NicSegs::default()];
        let mut pinned = false;
        for (slot, buf) in segs.iter_mut().zip(req.buffers()) {
            if let Some(buf) = buf.filter(|&(_, len)| len > 0 || pin_empty) {
                *slot = self.pin(ctx, proc, buf, true, entry)?;
                pinned = true;
            }
        }
        let bytes = req.bytes();
        if entry == Entry::Trap {
            if !pinned {
                // The table is consulted even when nothing is pinned.
                ctx.sleep(self.os.costs.pin_lookup_hit);
            }
            // Kernel-level networking copies the payload into kernel buffers.
            let copies = self.cfg.arch.send_copies();
            if kernel_copies && copies > 0 && bytes > 0 {
                ctx.sleep(self.os.copy_cost(bytes) * u64::from(copies));
            }
        }
        let pin_done = ctx.now();
        let msg_id = self.alloc_msg_id();
        let pinned_segs = (segs[0].len() + segs[1].len()) as u64;
        self.charge_descriptor_pio(ctx, pio_segments(pinned_segs));
        if entry == Entry::Trap {
            let stamps = [trap_entry, dispatch_done, pin_done, ctx.now()];
            self.trace_send_trap(msg_id, stamps, bytes);
        }
        let [segments, result] = segs;
        let (dst, channel, kind, total_len, notify_sender) = match req {
            Request::Message {
                dst,
                channel,
                buf: (addr, len),
            } => {
                let user_pages = (entry == Entry::Doorbell && len > 0).then(|| {
                    let first = addr.page().0;
                    Box::new((proc.space.asid(), first..first + pages_spanned(addr, len)))
                });
                (dst, channel, JobKind::Message { user_pages }, len, true)
            }
            Request::RmaWrite(rma) => {
                let kind = JobKind::RmaWrite { offset: rma.offset };
                (rma.dst, ChannelId::open(rma.chan), kind, rma.buf.1, true)
            }
            Request::RmaRead(rma) => {
                let (offset, len) = (rma.offset, rma.buf.1);
                // The request packet itself carries no payload, and the read
                // completes when its data lands, not when the request leaves.
                let kind = JobKind::RmaReadReq { offset, len };
                (rma.dst, ChannelId::open(rma.chan), kind, 0, false)
            }
            Request::Collective {
                coll_id,
                op,
                steps,
                payload: (_, payload_len),
                result: (_, result_len),
            } => {
                self.mcp.post_collective(CollSetup {
                    port,
                    coll_id,
                    op,
                    steps,
                    payload: segments,
                    payload_len,
                    result,
                    result_len,
                    msg_id,
                });
                return Ok(msg_id);
            }
        };
        self.mcp.post_send(SendJob {
            src_port: port,
            dst_fid: FabricNodeId(dst.node.0),
            dst_port: dst.port,
            channel,
            msg_id,
            segments,
            total_len,
            kind,
            retries: 0,
            notify_sender,
        });
        Ok(msg_id)
    }

    fn alloc_msg_id(&self) -> u32 {
        let mut st = self.state.borrow_mut();
        let id = st.next_msg;
        st.next_msg = st.next_msg.wrapping_add(2);
        id
    }

    /// Per-message trace of the one send trap: a `kernel:trap` instant at
    /// ioctl entry (the BCL contract allows exactly one per message), the
    /// `kernel:ioctl_send` span covering checks, pin/translate, and
    /// descriptor PIO, plus the kernel sub-stage spans the critical-path
    /// analyzer attributes (Fig. 5/7 stage breakdowns).
    ///
    /// The OS charges the mode-switch costs *around* the ioctl body, so the
    /// trap enter/exit spans are reconstructed from the cost model on either
    /// side of `[entry, exit]` rather than observed here.
    fn trace_send_trap(&self, msg_id: u32, stamps: [SimTime; 4], bytes: u64) {
        let sim = self.os.sim();
        let [entry, dispatch_done, pin_done, exit] = stamps.map(SimTime::as_ns);
        let node = self.os.node_id.0;
        let trace = TraceId::new(node, msg_id);
        let span = |st, lo, hi| TraceEvent::span(trace, node, TraceLayer::Kernel, st, lo, hi);
        sim.trace_event(TraceEvent::instant(
            trace,
            node,
            TraceLayer::Kernel,
            stage::TRAP,
            entry,
        ));
        sim.trace_event(span(stage::IOCTL_SEND, entry, exit).with_bytes(bytes));
        let enter_ns = self.os.costs.trap_enter.as_ns();
        let exit_ns = self.os.costs.trap_exit.as_ns();
        for (st, lo, hi) in [
            (stage::K_TRAP_ENTER, entry.saturating_sub(enter_ns), entry),
            (stage::K_DISPATCH, entry, dispatch_done),
            (stage::K_PIN, dispatch_done, pin_done),
            (stage::K_PIO, pin_done, exit),
            (stage::K_TRAP_EXIT, exit, exit + exit_ns),
        ] {
            sim.trace_event(span(st, lo, hi));
        }
    }
}

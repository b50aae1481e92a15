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
//! where user requests touch the NIC.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use suca_mem::{pages_spanned, Asid, NicSegs, PinDownTable, PinLookup, VirtAddr, PAGE_SIZE};
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
    os: Arc<NodeOs>,
    cfg: BclConfig,
    mcp: Mcp,
    num_nodes: u32,
    state: Mutex<KmodState>,
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
    pub fn new(os: Arc<NodeOs>, mcp: Mcp, num_nodes: u32, cfg: BclConfig) -> Arc<BclKmod> {
        let pin = PinDownTable::new(cfg.pin_table_pages);
        let pin_table_pages = cfg.pin_table_pages as u64;
        let metrics = os.sim().metrics();
        let kmod = Arc::new(BclKmod {
            cfg,
            mcp,
            num_nodes,
            state: Mutex::new(KmodState {
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
        let w = Arc::downgrade(&kmod);
        ts.register(
            format!("n{n}.kmod.pinned_pages"),
            n,
            Some(pin_table_pages),
            move |_| w.upgrade().map_or(0, |k| k.state.lock().pin.len() as u64),
        );
        let w = Arc::downgrade(&kmod);
        ts.register(format!("n{n}.kmod.pinned_bytes"), n, None, move |_| {
            w.upgrade()
                .map_or(0, |k| k.state.lock().pin.len() as u64 * PAGE_SIZE)
        });
        kmod
    }

    /// The NIC firmware handle (for layers that need stats).
    pub fn mcp(&self) -> &Mcp {
        &self.mcp
    }

    /// Pin-down table statistics `(hits, misses, evictions)`.
    pub fn pin_stats(&self) -> (u64, u64, u64) {
        self.state.lock().pin.stats()
    }

    /// Pages currently cached in the pin-down table.
    pub fn pinned_pages(&self) -> usize {
        self.state.lock().pin.len()
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

    fn check_caller(&self, proc: &OsProcess) -> Result<(), BclError> {
        // "The parameters checked include application process ID …"
        if !self.os.is_live(proc.pid) {
            return Err(self.reject(BclError::DeadProcess(proc.pid)));
        }
        Ok(())
    }

    fn check_owner(&self, st: &KmodState, port: PortId, pid: Pid) -> Result<(), BclError> {
        match st.ports.get(&port.0) {
            Some(kp) if kp.owner == pid => Ok(()),
            Some(_) => Err(self.reject(BclError::NotPortOwner { port, pid })),
            None => Err(self.reject(BclError::BadPort(port))),
        }
    }

    fn check_buffer(&self, proc: &OsProcess, addr: VirtAddr, len: u64) -> Result<(), BclError> {
        // "… communication buffer pointer …": the range must be mapped in
        // the *caller's* space; a forged pointer fails here, in the kernel,
        // before the NIC ever sees it.
        if !proc.space.is_mapped(addr, len.max(1)) {
            return Err(self.reject(BclError::BadBuffer { addr: addr.0, len }));
        }
        Ok(())
    }

    fn check_dest(&self, dst: ProcAddr) -> Result<(), BclError> {
        // "… and communication target and so on."
        if dst.node.0 >= self.num_nodes {
            return Err(self.reject(BclError::BadNode(dst.node)));
        }
        if dst.port.0 >= self.cfg.limits.max_ports {
            return Err(self.reject(BclError::BadPort(dst.port)));
        }
        Ok(())
    }

    /// Translate + pin a user range; charges hit/miss costs to the actor
    /// and returns the physical scatter/gather list with a NIC reference
    /// taken on every frame — the list is about to enter NIC state, and
    /// from here on the frames outlive a `free` by their owner. `busy`:
    /// the owner must not write the buffer before its completion event
    /// (sends, one-sided reads, collectives); pool buffers, posted receive
    /// buffers and bound windows are the owner's to write while held.
    fn pin_translate(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        addr: VirtAddr,
        len: u64,
        busy: bool,
    ) -> Result<NicSegs, BclError> {
        let (hit_cost, miss_cost) = {
            let mut st = self.state.lock();
            let results = st.pin.pin_range(&proc.space, addr, len)?;
            let misses = results
                .iter()
                .filter(|(_, l)| *l == PinLookup::Miss)
                .count() as u64;
            self.pin_hits.add(results.len() as u64 - misses);
            self.pin_misses.add(misses);
            // Drop the transient pin immediately: the entry stays cached
            // (evictable, LRU) so repeat sends hit — the whole point of the
            // pin-down cache. The pin *table* count is not what keeps the
            // frames alive under DMA; the NIC reference taken below is.
            st.pin.unpin_range(proc.space.asid(), addr, len);
            let (_, _, evictions) = st.pin.stats();
            self.pin_evictions.add(evictions - st.evictions_seen);
            st.evictions_seen = evictions;
            self.publish_pin_level(&mut st);
            (
                self.os.costs.pin_lookup_hit,
                self.os.costs.pin_miss_per_page * misses,
            )
        };
        // One table search per request plus the per-page pin cost on misses.
        ctx.sleep(hit_cost + miss_cost);
        let segs = proc.space.sg_list(addr, len)?;
        Ok(self.os.memory().nic_hold(segs, busy))
    }

    /// The process unmapped `[addr, addr + len)`: forget the pages' pin
    /// entries, so `kmod.pinned_bytes` stops counting dead pages. Uncharged,
    /// like allocation; frames the NIC still references live on until it
    /// lets go (see `suca_mem::phys`).
    pub(crate) fn unmap_notify(&self, proc: &OsProcess, addr: VirtAddr, len: u64) {
        let mut st = self.state.lock();
        st.pin.purge_range(proc.space.asid(), addr, len);
        self.publish_pin_level(&mut st);
    }

    /// Charge the PIO cost of writing a send descriptor with `segments`
    /// scatter/gather entries plus the doorbell.
    fn charge_descriptor_pio(&self, ctx: &mut ActorCtx, segments: u64) {
        self.pio_descriptors.inc();
        ctx.sleep(self.cfg.descriptor_pio(segments));
    }

    fn charge_checks(&self, ctx: &mut ActorCtx) {
        self.ioctls.inc();
        ctx.sleep(self.cfg.copyin_dispatch + self.os.costs.security_check);
    }

    // ---- ioctl subcommands (call under NodeOs::trap) ----

    /// Create a port for `proc`. The library pre-allocated the completion
    /// queues and the system-pool buffers in user space; the kernel pins
    /// the pool and registers everything on the NIC.
    pub fn ioctl_open_port(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        queues: Arc<UserQueues>,
        pool_buffers: &[VirtAddr],
    ) -> Result<PortId, BclError> {
        self.charge_checks(ctx);
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
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
            self.check_buffer(proc, addr, buf_bytes)?;
            bufs.push(self.pin_translate(ctx, proc, addr, buf_bytes, false)?);
        }
        let port = {
            let mut st = self.state.lock();
            let id = PortId(st.next_port);
            st.next_port += 1;
            st.ports.insert(id.0, KernelPort { owner: proc.pid });
            id
        };
        // Port-init request to the NIC: queue bases, pool layout.
        self.charge_descriptor_pio(ctx, pool_buffers.len() as u64);
        self.mcp
            .register_port(port, queues, Arc::new(SystemPool::new(buf_bytes, bufs)));
        Ok(port)
    }

    /// Tear down a port and purge its pins.
    pub fn ioctl_close_port(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
    ) -> Result<(), BclError> {
        self.charge_checks(ctx);
        self.check_caller(proc)?;
        {
            let mut st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
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
    #[allow(clippy::too_many_arguments)]
    pub fn ioctl_post_recv(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        chan: u16,
        addr: VirtAddr,
        len: u64,
        replace: bool,
    ) -> Result<(), BclError> {
        self.charge_checks(ctx);
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        if chan >= self.cfg.limits.normal_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::normal(chan))));
        }
        self.check_buffer(proc, addr, len)?;
        // Not busy: the intra-node path lands a message in the posted
        // buffer by host copy while this posting stays armed on the NIC
        // (the library replaces it at the next post).
        let segs = self.pin_translate(ctx, proc, addr, len, false)?;
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
        addr: VirtAddr,
        len: u64,
    ) -> Result<(), BclError> {
        self.charge_checks(ctx);
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        if chan >= self.cfg.limits.open_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::open(chan))));
        }
        self.check_buffer(proc, addr, len)?;
        let segs = self.pin_translate(ctx, proc, addr, len, false)?;
        let n_segs = segs.len() as u64;
        self.mcp.bind_open(port, chan, segs);
        self.charge_descriptor_pio(ctx, n_segs);
        Ok(())
    }

    /// The send ioctl — the single kernel trap on BCL's critical send path.
    #[allow(clippy::too_many_arguments)] // mirrors the ioctl request block
    pub fn ioctl_send(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        dst: ProcAddr,
        channel: ChannelId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        let trap_entry = ctx.now();
        self.charge_checks(ctx);
        let dispatch_done = ctx.now();
        self.check_send(proc, port, dst, channel, addr, len)?;
        let segs = if len > 0 {
            self.pin_translate(ctx, proc, addr, len, true)?
        } else {
            // The table is consulted even for empty payloads.
            ctx.sleep(self.os.costs.pin_lookup_hit);
            NicSegs::default()
        };
        // Kernel-level networking copies the payload into kernel buffers.
        let copies = self.cfg.arch.send_copies();
        if copies > 0 && len > 0 {
            ctx.sleep(self.os.copy_cost(len) * u64::from(copies));
        }
        let pin_done = ctx.now();
        let msg_id = self.alloc_msg_id();
        self.charge_descriptor_pio(ctx, segs.len() as u64);
        self.trace_send_trap(msg_id, trap_entry, dispatch_done, pin_done, ctx.now(), len);
        self.mcp
            .post_send(Self::message(port, dst, channel, msg_id, segs, None, len));
        Ok(msg_id)
    }

    /// The user-level architectures' send, with no trap: the library checks
    /// the request and writes the descriptor through the NIC's mapped
    /// doorbell page. No dispatch, security or pin-down cost is charged —
    /// the descriptor names virtual pages (`JobKind::Message::user_pages`),
    /// which the NIC translates itself at descriptor fetch. It sits beside
    /// [`Self::ioctl_send`] because it shares the checks and the message
    /// ids; the NIC still holds the frames it will read.
    #[allow(clippy::too_many_arguments)] // mirrors the ioctl request block
    pub fn doorbell_send(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        dst: ProcAddr,
        channel: ChannelId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        self.check_send(proc, port, dst, channel, addr, len)?;
        let (segs, pages) = if len > 0 {
            let segs = self
                .os
                .memory()
                .nic_hold(proc.space.sg_list(addr, len)?, true);
            let first = addr.page().0;
            let pages = first..first + pages_spanned(addr, len);
            (segs, Some(Box::new((proc.space.asid(), pages))))
        } else {
            (NicSegs::default(), None)
        };
        let msg_id = self.alloc_msg_id();
        self.charge_descriptor_pio(ctx, segs.len() as u64);
        self.mcp
            .post_send(Self::message(port, dst, channel, msg_id, segs, pages, len));
        Ok(msg_id)
    }

    /// The descriptor of an ordinary message.
    fn message(
        port: PortId,
        dst: ProcAddr,
        channel: ChannelId,
        msg_id: u32,
        segments: NicSegs,
        user_pages: Option<Box<(Asid, Range<u64>)>>,
        len: u64,
    ) -> SendJob {
        SendJob {
            src_port: port,
            dst_fid: FabricNodeId(dst.node.0),
            dst_port: dst.port,
            channel,
            msg_id,
            segments,
            total_len: len,
            kind: JobKind::Message { user_pages },
            retries: 0,
            notify_sender: true,
        }
    }

    /// The request checks every send makes before anything is charged for
    /// its payload: caller, port ownership, destination, channel, length,
    /// path health, ring space and the buffer itself.
    fn check_send(
        &self,
        proc: &OsProcess,
        port: PortId,
        dst: ProcAddr,
        channel: ChannelId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<(), BclError> {
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        self.check_dest(dst)?;
        match channel.kind {
            ChannelKind::System => {
                if len > self.cfg.system_pool.buffer_bytes {
                    return Err(self.reject(BclError::TooBigForSystemChannel {
                        len,
                        max: self.cfg.system_pool.buffer_bytes,
                    }));
                }
            }
            ChannelKind::Normal => {
                if channel.index >= self.cfg.limits.normal_channels {
                    return Err(self.reject(BclError::BadChannel(channel)));
                }
            }
            ChannelKind::Open => return Err(self.reject(BclError::BadChannel(channel))),
        }
        if len > self.cfg.limits.max_message_bytes {
            return Err(self.reject(BclError::MessageTooLong {
                len,
                max: self.cfg.limits.max_message_bytes,
            }));
        }
        if self.mcp.path_is_dead(FabricNodeId(dst.node.0)) {
            // The NIC exhausted retransmission on every rail; refusing here
            // (kernel-side, per the trust model) lets callers re-home work
            // instead of feeding a black hole.
            return Err(BclError::PathDead(dst.node));
        }
        if self.mcp.queue_depth() >= self.cfg.limits.send_ring {
            return Err(BclError::RingFull);
        }
        if len > 0 {
            self.check_buffer(proc, addr, len)?;
        }
        Ok(())
    }

    /// One-sided write into `dst`'s open channel.
    #[allow(clippy::too_many_arguments)]
    pub fn ioctl_rma_write(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        dst: ProcAddr,
        chan: u16,
        offset: u64,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        let trap_entry = ctx.now();
        self.charge_checks(ctx);
        let dispatch_done = ctx.now();
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        self.check_dest(dst)?;
        if self.mcp.path_is_dead(FabricNodeId(dst.node.0)) {
            return Err(BclError::PathDead(dst.node));
        }
        if chan >= self.cfg.limits.open_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::open(chan))));
        }
        self.check_buffer(proc, addr, len)?;
        let segs = self.pin_translate(ctx, proc, addr, len, true)?;
        let pin_done = ctx.now();
        let msg_id = self.alloc_msg_id();
        self.charge_descriptor_pio(ctx, segs.len() as u64);
        self.trace_send_trap(msg_id, trap_entry, dispatch_done, pin_done, ctx.now(), len);
        self.mcp.post_send(SendJob {
            src_port: port,
            dst_fid: FabricNodeId(dst.node.0),
            dst_port: dst.port,
            channel: ChannelId::open(chan),
            msg_id,
            segments: segs,
            total_len: len,
            kind: JobKind::RmaWrite { offset },
            retries: 0,
            notify_sender: true,
        });
        Ok(msg_id)
    }

    /// One-sided read from `dst`'s open channel into a local buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn ioctl_rma_read(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        dst: ProcAddr,
        chan: u16,
        offset: u64,
        into: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        let trap_entry = ctx.now();
        self.charge_checks(ctx);
        let dispatch_done = ctx.now();
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        self.check_dest(dst)?;
        if self.mcp.path_is_dead(FabricNodeId(dst.node.0)) {
            return Err(BclError::PathDead(dst.node));
        }
        if chan >= self.cfg.limits.open_channels {
            return Err(self.reject(BclError::BadChannel(ChannelId::open(chan))));
        }
        self.check_buffer(proc, into, len)?;
        let segs = self.pin_translate(ctx, proc, into, len, true)?;
        let pin_done = ctx.now();
        let msg_id = self.alloc_msg_id();
        self.charge_descriptor_pio(ctx, 1);
        self.trace_send_trap(msg_id, trap_entry, dispatch_done, pin_done, ctx.now(), len);
        self.mcp.post_send(SendJob {
            src_port: port,
            dst_fid: FabricNodeId(dst.node.0),
            dst_port: dst.port,
            channel: ChannelId::open(chan),
            msg_id,
            segments: segs,
            total_len: 0, // the request packet itself carries no payload
            kind: JobKind::RmaReadReq { offset, len },
            retries: 0,
            notify_sender: false,
        });
        Ok(msg_id)
    }

    /// The collective ioctl — one kernel trap buys the whole collective.
    /// Pins the contribution and result buffers, validates every peer the
    /// schedule names (§4.3 checks apply to each), and hands the NIC a plan
    /// descriptor. Fan-in combining and fan-out forwarding then run
    /// firmware-side with no further host crossings until the initiator
    /// polls its completion event (`ChainPolicy::collective()`).
    #[allow(clippy::too_many_arguments)] // mirrors the ioctl request block
    pub fn ioctl_collective(
        &self,
        ctx: &mut ActorCtx,
        proc: &OsProcess,
        port: PortId,
        coll_id: u32,
        op: CollOp,
        steps: Vec<CollStep>,
        payload: VirtAddr,
        payload_len: u64,
        result: VirtAddr,
        result_len: u64,
    ) -> Result<u32, BclError> {
        let trap_entry = ctx.now();
        self.charge_checks(ctx);
        let dispatch_done = ctx.now();
        self.check_caller(proc)?;
        {
            let st = self.state.lock();
            self.check_owner(&st, port, proc.pid)?;
        }
        // Every peer the schedule names is a communication target: the same
        // destination checks as a send, per edge.
        for step in &steps {
            for p in step.recv_from.iter().chain(step.send_to.iter()) {
                self.check_dest(*p)?;
                if self.mcp.path_is_dead(FabricNodeId(p.node.0)) {
                    return Err(BclError::PathDead(p.node));
                }
            }
        }
        // Single-fragment contract: each wire contribution is the payload
        // plus the 4-byte collective id in one packet. Whole f64 lanes only,
        // so NIC-side combining can never straddle an element.
        let max = self.mcp.frag_cap().saturating_sub(4);
        if payload_len > max {
            return Err(self.reject(BclError::MessageTooLong {
                len: payload_len,
                max,
            }));
        }
        if !payload_len.is_multiple_of(8) || !result_len.is_multiple_of(8) {
            return Err(self.reject(BclError::BadBuffer {
                addr: payload.0,
                len: payload_len,
            }));
        }
        if self.mcp.queue_depth() >= self.cfg.limits.send_ring {
            return Err(BclError::RingFull);
        }
        let payload_segs = if payload_len > 0 {
            self.check_buffer(proc, payload, payload_len)?;
            self.pin_translate(ctx, proc, payload, payload_len, true)?
        } else {
            NicSegs::default()
        };
        let result_segs = if result_len > 0 {
            self.check_buffer(proc, result, result_len)?;
            self.pin_translate(ctx, proc, result, result_len, true)?
        } else {
            NicSegs::default()
        };
        if payload_len == 0 && result_len == 0 {
            // Barrier: the table is still consulted once.
            ctx.sleep(self.os.costs.pin_lookup_hit);
        }
        let pin_done = ctx.now();
        let msg_id = self.alloc_msg_id();
        self.charge_descriptor_pio(ctx, (payload_segs.len() + result_segs.len()).max(1) as u64);
        self.trace_send_trap(
            msg_id,
            trap_entry,
            dispatch_done,
            pin_done,
            ctx.now(),
            payload_len,
        );
        self.mcp.post_collective(CollSetup {
            port,
            coll_id,
            op,
            steps,
            payload: payload_segs,
            payload_len,
            result: result_segs,
            result_len,
            msg_id,
        });
        Ok(msg_id)
    }

    fn alloc_msg_id(&self) -> u32 {
        let mut st = self.state.lock();
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
    fn trace_send_trap(
        &self,
        msg_id: u32,
        entry: SimTime,
        dispatch_done: SimTime,
        pin_done: SimTime,
        exit: SimTime,
        bytes: u64,
    ) {
        let sim = self.os.sim();
        if !sim.msg_trace().enabled() {
            return;
        }
        let node = self.os.node_id.0;
        let trace = TraceId::new(node, msg_id);
        sim.trace_event(TraceEvent::instant(
            trace,
            node,
            TraceLayer::Kernel,
            stage::TRAP,
            entry.as_ns(),
        ));
        sim.trace_event(
            TraceEvent::span(
                trace,
                node,
                TraceLayer::Kernel,
                stage::IOCTL_SEND,
                entry.as_ns(),
                exit.as_ns(),
            )
            .with_bytes(bytes),
        );
        let (entry, dispatch_done, pin_done, exit) = (
            entry.as_ns(),
            dispatch_done.as_ns(),
            pin_done.as_ns(),
            exit.as_ns(),
        );
        let enter_ns = self.os.costs.trap_enter.as_ns();
        let exit_ns = self.os.costs.trap_exit.as_ns();
        for (st, lo, hi) in [
            (stage::K_TRAP_ENTER, entry.saturating_sub(enter_ns), entry),
            (stage::K_DISPATCH, entry, dispatch_done),
            (stage::K_PIN, dispatch_done, pin_done),
            (stage::K_PIO, pin_done, exit),
            (stage::K_TRAP_EXIT, exit, exit + exit_ns),
        ] {
            sim.trace_event(TraceEvent::span(
                trace,
                node,
                TraceLayer::Kernel,
                st,
                lo,
                hi,
            ));
        }
    }
}

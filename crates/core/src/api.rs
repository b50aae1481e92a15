//! The BCL user-level library.
//!
//! "BCL library provides a set of APIs. Applications linked with BCL library
//! can use these APIs to communicate with each other. In fact these APIs are
//! only the covers of some ioctl() syscall subcommands provided by BCL
//! kernel module." (§4.1.1)
//!
//! [`BclPort`] is that library: each method charges the user-space costs,
//! traps into the kernel module for anything that touches the NIC, and polls
//! completion queues in user space without any trap — the semi-user-level
//! receive path. Intra-node destinations short-circuit to the shared-memory
//! hub, never entering the kernel on the data path. Under a comparator
//! [`crate::Architecture`] the inter-node send and the receive consume are
//! the two places this file moves the kernel.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use suca_mem::VirtAddr;
use suca_os::{NodeOs, OsProcess};
use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{ActorCtx, Sim, SimDuration};

use crate::coll::{CollOp, CollStep};
use crate::config::BclConfig;
use crate::error::BclError;
use crate::intranode::IntraHub;
use crate::kmod::{BclKmod, Entry, Request, Rma};
use crate::mcp::Mcp;
use crate::port::{ChannelId, ChannelKind, PortId, ProcAddr, RecvDataLoc, RecvEvent, SendEvent};
use crate::queues::UserQueues;

/// Everything BCL needs on one node: OS, kernel module, NIC firmware and
/// the intra-node hub. Built once per node (by `suca-cluster` or directly).
pub struct BclNode {
    sim: Sim,
    /// The node's OS.
    pub os: Rc<NodeOs>,
    /// The BCL kernel module.
    pub kmod: Rc<BclKmod>,
    /// The NIC firmware.
    pub mcp: Mcp,
    /// The intra-node shared-memory hub.
    pub intra: Rc<IntraHub>,
    cfg: BclConfig,
}

impl BclNode {
    /// Assemble the BCL stack on a node whose NIC firmware is `mcp`.
    pub fn new(sim: &Sim, os: Rc<NodeOs>, mcp: Mcp, num_nodes: u32, cfg: BclConfig) -> Rc<BclNode> {
        let kmod = BclKmod::new(os.clone(), mcp.clone(), num_nodes, cfg.clone());
        let intra = IntraHub::new(sim, os.node_id, os.memory().clone(), cfg.intra.clone());
        Rc::new(BclNode {
            sim: sim.clone(),
            os,
            kmod,
            mcp,
            intra,
            cfg,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &BclConfig {
        &self.cfg
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Name of the fabric this node's NIC is attached to ("myrinet",
    /// "nwrc-mesh", ...). Upper layers use it to select collective plans.
    pub fn fabric_name(&self) -> &'static str {
        self.mcp.fabric_name()
    }

    /// Trap into the kernel module and run `ioctl` there — the one way the
    /// library reaches the kernel ("these APIs are only the covers of some
    /// ioctl() syscall subcommands", §4.1.1).
    fn ioctl<R>(&self, ctx: &mut ActorCtx, ioctl: impl FnOnce(&mut ActorCtx, &BclKmod) -> R) -> R {
        self.os.trap(ctx, |ctx| ioctl(ctx, &self.kmod))
    }
}

/// An open BCL port — the application-facing handle.
pub struct BclPort {
    node: Rc<BclNode>,
    proc: OsProcess,
    id: PortId,
    queues: Rc<UserQueues>,
    pool_user: Vec<VirtAddr>,
    /// User-side record of posted normal channels: channel → (addr, len).
    posted: RefCell<HashMap<u16, (VirtAddr, u64)>>,
    /// Normal channels whose posting was consumed by the intra-node path
    /// (the NIC never saw the consumption; re-posts must replace).
    intra_consumed: RefCell<std::collections::HashSet<u16>>,
    intra_msg: RefCell<u32>,
}

impl BclPort {
    /// Open the process's (single) port: allocate completion queues and the
    /// system-channel buffer pool in user space, then trap into the kernel
    /// to register everything on the NIC.
    pub fn open(
        ctx: &mut ActorCtx,
        node: &Rc<BclNode>,
        proc: &OsProcess,
    ) -> Result<BclPort, BclError> {
        let cfg = node.config().clone();
        ctx.sleep(cfg.lib_compose);
        let queues = Rc::new(UserQueues::new(&node.sim));
        // Allocate the pool buffers in the caller's space.
        let mut pool_user = Vec::with_capacity(cfg.system_pool.buffers as usize);
        for _ in 0..cfg.system_pool.buffers {
            pool_user.push(proc.space.alloc(cfg.system_pool.buffer_bytes)?);
        }
        let id = node.ioctl(ctx, |ctx, kmod| {
            kmod.ioctl_open_port(ctx, proc, queues.clone(), &pool_user)
        })?;
        node.intra.register_port(id, queues.clone());
        Ok(BclPort {
            node: node.clone(),
            proc: proc.clone(),
            id,
            queues,
            pool_user,
            posted: RefCell::new(HashMap::new()),
            intra_consumed: RefCell::new(std::collections::HashSet::new()),
            intra_msg: RefCell::new(1), // odd ids: intra-node
        })
    }

    /// This port's cluster-wide address.
    pub fn addr(&self) -> ProcAddr {
        ProcAddr {
            node: self.node.os.node_id,
            port: self.id,
        }
    }

    /// The owning process.
    pub fn process(&self) -> &OsProcess {
        &self.proc
    }

    /// The configuration of the node this port is open on.
    pub fn config(&self) -> &BclConfig {
        &self.node.cfg
    }

    /// Allocate a message buffer in this process's space (convenience).
    pub fn alloc_buffer(&self, len: u64) -> Result<VirtAddr, BclError> {
        Ok(self.proc.space.alloc(len.max(1))?)
    }

    /// Free a buffer from [`BclPort::alloc_buffer`] (or one this port
    /// allocated on the caller's behalf: `post_recv`, `bind_open`). The
    /// pages fault from now on and leave the kernel's pin-down table. It is
    /// safe the moment the buffer has been handed to a send: the NIC keeps
    /// what it still has to read or write, and the frames are reclaimed
    /// when it lets go. Uncharged, like allocation.
    pub fn free_buffer(&self, addr: VirtAddr, len: u64) -> Result<(), BclError> {
        let len = len.max(1);
        self.node.kmod.unmap_notify(&self.proc, addr, len);
        Ok(self.proc.space.free(addr, len)?)
    }

    /// Fill a user buffer (models the application producing data; free).
    pub fn write_buffer(&self, addr: VirtAddr, data: &[u8]) -> Result<(), BclError> {
        Ok(self.proc.space.write(addr, data)?)
    }

    /// Read a user buffer back.
    pub fn read_buffer(&self, addr: VirtAddr, len: u64) -> Result<Vec<u8>, BclError> {
        Ok(self.proc.space.read_vec(addr, len)?)
    }

    /// Post a receive buffer of `len` bytes on normal channel `chan`;
    /// allocates the buffer and returns its address. One kernel trap.
    pub fn post_recv(&self, ctx: &mut ActorCtx, chan: u16, len: u64) -> Result<VirtAddr, BclError> {
        let addr = self.alloc_buffer(len)?;
        self.post_recv_at(ctx, chan, addr, len)?;
        Ok(addr)
    }

    /// Post an existing buffer on normal channel `chan`. One kernel trap.
    pub fn post_recv_at(
        &self,
        ctx: &mut ActorCtx,
        chan: u16,
        addr: VirtAddr,
        len: u64,
    ) -> Result<(), BclError> {
        ctx.sleep(self.node.cfg.lib_compose);
        let replace = self.intra_consumed.borrow_mut().remove(&chan);
        self.node.ioctl(ctx, |ctx, kmod| {
            kmod.ioctl_post_recv(ctx, &self.proc, self.id, chan, (addr, len), replace)
        })?;
        self.posted.borrow_mut().insert(chan, (addr, len));
        Ok(())
    }

    /// Send `len` bytes starting at `addr` to `dst` on `channel`.
    /// Returns the message id; completion arrives as a [`SendEvent`].
    ///
    /// Inter-node: one kernel trap (the defining cost of the architecture;
    /// the user-level comparators write the descriptor through the NIC's
    /// doorbell page instead). Intra-node: no trap — the shared-memory path.
    pub fn send(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        channel: ChannelId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        if dst.node == self.node.os.node_id {
            return self.send_intra(ctx, dst, channel, addr, len);
        }
        let buf = (addr, len);
        self.submit(ctx, Request::Message { dst, channel, buf })
    }

    /// The library half of every send-class request: compose it, hand it to
    /// the kernel module — by trap, or for a message under a user-level
    /// architecture through the NIC's doorbell page — then record the
    /// library-layer send span (compose through return) and its
    /// `api:compose` sub-stage, which the critical-path analyzer attributes.
    fn submit(&self, ctx: &mut ActorCtx, req: Request) -> Result<u32, BclError> {
        let start = ctx.now().as_ns();
        ctx.sleep(self.node.cfg.lib_compose);
        let len = req.bytes();
        let doorbell =
            self.node.cfg.arch.user_nic_access() && matches!(req, Request::Message { .. });
        let (proc, port) = (&self.proc, self.id);
        let msg_id = if doorbell {
            self.node.kmod.submit(ctx, proc, port, Entry::Doorbell, req)
        } else {
            self.node.ioctl(ctx, |ctx, kmod| {
                kmod.submit(ctx, proc, port, Entry::Trap, req)
            })
        }?;
        let sim = ctx.sim();
        let node = self.node.os.node_id.0;
        let trace = TraceId::new(node, msg_id);
        let span = |st, hi| TraceEvent::span(trace, node, TraceLayer::Library, st, start, hi);
        sim.trace_event(span(stage::SEND, ctx.now().as_ns()).with_bytes(len));
        let composed = start + self.node.cfg.lib_compose.as_ns();
        sim.trace_event(span(stage::COMPOSE, composed));
        Ok(msg_id)
    }

    /// Record `event(trace id, this node, now)` on message
    /// `(origin, msg_id)`'s chain.
    fn trace(
        &self,
        ctx: &ActorCtx,
        origin: u32,
        msg_id: u32,
        event: impl FnOnce(TraceId, u32, u64) -> TraceEvent,
    ) {
        // Intra-node messages carry odd, node-local ids and are not traced.
        if msg_id.is_multiple_of(2) {
            let node = self.node.os.node_id.0;
            let ev = event(TraceId::new(origin, msg_id), node, ctx.now().as_ns());
            ctx.sim().trace_event(ev);
        }
    }

    /// Record the user-space poll that closes a traced chain: a span of the
    /// poll's charged `cost`, ending now.
    fn trace_poll(
        &self,
        ctx: &ActorCtx,
        origin: u32,
        msg_id: u32,
        st: &'static str,
        cost: SimDuration,
    ) {
        self.trace(ctx, origin, msg_id, |trace, node, now| {
            TraceEvent::span(
                trace,
                node,
                TraceLayer::Library,
                st,
                now - cost.as_ns(),
                now,
            )
        });
    }

    /// Take one receive event. Every architecture but kernel-level polls
    /// in user space (paper: 1.01 µs), copying the payload out of a bounce
    /// buffer first where it has one (AM-II). Kernel-level receive is a
    /// blocking `recv()`: the interrupt handler's wakeup is a context
    /// switch, then the call copies the message out of the kernel and
    /// returns through a trap. Costs are the node's own.
    fn consume_recv(&self, ctx: &mut ActorCtx, ev: &RecvEvent) {
        let (os, cfg) = (&self.node.os, &self.node.cfg);
        let mut cost = cfg.poll_recv;
        let copies = cfg.arch.recv_copies();
        if copies > 0 {
            cost += os.copy_cost(ev.len) * u64::from(copies);
        }
        let origin = ev.src.node.0;
        if cfg.arch.kernel_receive() {
            ctx.sleep(os.costs.context_switch);
            self.trace(ctx, origin, ev.msg_id, |trace, node, now| {
                TraceEvent::instant(trace, node, TraceLayer::Kernel, stage::TRAP, now)
            });
            os.trap(ctx, |ctx| ctx.sleep(cost));
        } else {
            ctx.sleep(cost);
        }
        self.trace_poll(ctx, origin, ev.msg_id, stage::POLL_RECV, cost);
    }

    /// Take one send-completion event: a user-space poll (paper: 0.82 µs).
    fn consume_send(&self, ctx: &mut ActorCtx, ev: &SendEvent) {
        let cost = self.node.cfg.poll_send;
        ctx.sleep(cost);
        let node = self.node.os.node_id.0;
        self.trace_poll(ctx, node, ev.msg_id, stage::POLL_SEND, cost);
    }

    /// A buffer of `len` bytes that outlives one send (a receive target, a
    /// rendezvous segment): a pinned one of its size in pages from the
    /// port's pool, or a fresh one. The caller owns it until
    /// [`BclPort::give_buffer`].
    pub fn take_buffer(&self, len: u64) -> Result<VirtAddr, BclError> {
        match self.queues.staging.take(len) {
            Some(addr) => Ok(addr),
            None => self.alloc_buffer(len),
        }
    }

    /// Return a buffer of `len` bytes from [`BclPort::take_buffer`] to the
    /// pool once the NIC is done with it: every send from it has posted its
    /// completion and every receive into it has been consumed.
    pub fn give_buffer(&self, addr: VirtAddr, len: u64) {
        self.queues.staging.give(addr, len);
    }

    /// Convenience: stage `data` in a library buffer and send it from there.
    ///
    /// A system-channel message up to a pool buffer's size is staged in a
    /// pool-buffer-sized buffer of the port's pool, so after its first use a
    /// send hits the pin-down cache. The buffer is the pool's again once the
    /// send's completion is posted — whether or not the caller ever polls
    /// it — or at once when the send is refused. Any other message goes
    /// through a fresh buffer, freed as soon as it is handed over: the NIC
    /// holds the pages until it has no more use for them (a normal-channel
    /// message can be refused after its completion and re-staged from them).
    pub fn send_bytes(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        channel: ChannelId,
        data: &[u8],
    ) -> Result<u32, BclError> {
        let len = data.len() as u64;
        let staged_bytes = self.node.cfg.system_pool.buffer_bytes;
        let send = |ctx: &mut ActorCtx, addr| {
            self.write_buffer(addr, data)?;
            self.send(ctx, dst, channel, addr, len)
        };
        if channel.kind == ChannelKind::System && len <= staged_bytes {
            let addr = self.take_buffer(staged_bytes)?;
            let staging = &self.queues.staging;
            return staging.send(addr, staged_bytes, || send(ctx, addr));
        }
        let addr = self.alloc_buffer(len)?;
        let sent = send(ctx, addr);
        self.free_buffer(addr, len)?;
        sent
    }

    fn send_intra(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        channel: ChannelId,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        // Library-side checks only — no kernel on this path, and a bad
        // pointer can only hurt the sender itself (it reads its own space).
        if len > self.node.cfg.limits.max_message_bytes {
            return Err(BclError::MessageTooLong {
                len,
                max: self.node.cfg.limits.max_message_bytes,
            });
        }
        let data = if len > 0 {
            self.proc.space.read_vec(addr, len)?
        } else {
            Vec::new()
        };
        let msg_id = {
            let mut c = self.intra_msg.borrow_mut();
            let id = *c;
            *c = c.wrapping_add(2);
            id
        };
        if !self
            .node
            .intra
            .send(ctx, self.id, dst.port, channel, msg_id, &data)
        {
            return Err(BclError::BadPort(dst.port));
        }
        Ok(msg_id)
    }

    /// Non-blocking poll of the receive completion queue (no trap under
    /// BCL). Charges the receive cost only when an event is consumed.
    pub fn poll_recv(&self, ctx: &mut ActorCtx) -> Option<RecvEvent> {
        let ev = self.queues.pop_recv()?;
        self.consume_recv(ctx, &ev);
        Some(ev)
    }

    /// Block until a receive event arrives or `timeout` elapses.
    pub fn wait_recv_timeout(&self, ctx: &mut ActorCtx, timeout: SimDuration) -> Option<RecvEvent> {
        let deadline = ctx.now() + timeout;
        loop {
            if let Some(ev) = self.poll_recv(ctx) {
                return Some(ev);
            }
            if ctx.now() >= deadline {
                return None;
            }
            self.queues
                .recv_signal
                .wait_timeout(ctx, deadline.since(ctx.now()));
        }
    }

    /// Block until a receive event arrives (polling semantics, no trap under
    /// BCL).
    pub fn wait_recv(&self, ctx: &mut ActorCtx) -> RecvEvent {
        let ev = self.queues.wait_recv(ctx);
        self.consume_recv(ctx, &ev);
        ev
    }

    /// Non-blocking poll of the send completion queue (0.82 µs on success).
    pub fn poll_send(&self, ctx: &mut ActorCtx) -> Option<SendEvent> {
        let ev = self.queues.pop_send()?;
        self.consume_send(ctx, &ev);
        Some(ev)
    }

    /// Block until at least one event (send or receive) is queued, without
    /// consuming it. The EADI progress engine pumps on this.
    pub fn wait_event(&self, ctx: &mut ActorCtx) {
        self.queues.wait_any(ctx);
    }

    /// Block until a send event arrives.
    pub fn wait_send(&self, ctx: &mut ActorCtx) -> SendEvent {
        let ev = self.queues.wait_send(ctx);
        self.consume_send(ctx, &ev);
        ev
    }

    /// Block until a send event arrives or `timeout` elapses. The
    /// backpressure twin of [`BclPort::wait_recv_timeout`]: callers that
    /// hit [`crate::BclError::RingFull`] can park here without risking an
    /// unbounded stall when completions stop flowing.
    pub fn wait_send_timeout(&self, ctx: &mut ActorCtx, timeout: SimDuration) -> Option<SendEvent> {
        let deadline = ctx.now() + timeout;
        loop {
            if let Some(ev) = self.poll_send(ctx) {
                return Some(ev);
            }
            if ctx.now() >= deadline {
                return None;
            }
            self.queues
                .send_signal
                .wait_timeout(ctx, deadline.since(ctx.now()));
        }
    }

    /// Completion events currently queued as `(recv, send)` — the
    /// in-flight backlog an upper layer sees without consuming anything.
    pub fn queue_depths(&self) -> (usize, usize) {
        self.queues.depths()
    }

    /// Fetch the payload of a receive event and recycle its buffer.
    pub fn recv_bytes(&self, ctx: &mut ActorCtx, ev: &RecvEvent) -> Result<Vec<u8>, BclError> {
        match &ev.data {
            RecvDataLoc::SystemBuffer(idx) => {
                let addr = self.pool_user[*idx as usize];
                let data = self.proc.space.read_vec(addr, ev.len)?;
                // Return the buffer to the pool ("After the receiver gets
                // the message, the buffer will be returned").
                self.release_system_buffer(*idx);
                Ok(data)
            }
            RecvDataLoc::Posted => {
                let (addr, _len) = self
                    .posted
                    .borrow_mut()
                    .remove(&ev.channel.index)
                    .ok_or(BclError::BadChannel(ev.channel))?;
                Ok(self.proc.space.read_vec(addr, ev.len)?)
            }
            RecvDataLoc::Inline(v) => {
                // Intra-node delivery; the pipelined copy-out time is part
                // of the delivery lag. If this was a normal channel with a
                // posted buffer, land the bytes there too.
                let _ = &ctx;
                if ev.channel.kind == ChannelKind::Normal {
                    if let Some((addr, _)) = self.posted.borrow_mut().remove(&ev.channel.index) {
                        self.proc.space.write(addr, v)?;
                        self.intra_consumed.borrow_mut().insert(ev.channel.index);
                    }
                }
                Ok(v.clone())
            }
        }
    }

    /// Give a consumed system-pool buffer back (done automatically by
    /// [`BclPort::recv_bytes`]; exposed for zero-copy consumers).
    pub fn release_system_buffer(&self, idx: u32) {
        self.node.mcp.release_pool_buffer(self.id, idx);
    }

    /// Bind a fresh buffer of `len` bytes to open channel `chan` and return
    /// its address. One kernel trap.
    pub fn bind_open(&self, ctx: &mut ActorCtx, chan: u16, len: u64) -> Result<VirtAddr, BclError> {
        let addr = self.alloc_buffer(len)?;
        ctx.sleep(self.node.cfg.lib_compose);
        self.node.ioctl(ctx, |ctx, kmod| {
            kmod.ioctl_bind_open(ctx, &self.proc, self.id, chan, (addr, len))
        })?;
        Ok(addr)
    }

    /// One-sided write of `len` bytes at `addr` into `dst`'s open channel
    /// `chan` at `offset`. Completion arrives as a [`SendEvent`].
    #[allow(clippy::too_many_arguments)]
    pub fn rma_write(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        chan: u16,
        offset: u64,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        let buf = (addr, len);
        self.submit(
            ctx,
            Request::RmaWrite(Rma {
                dst,
                chan,
                offset,
                buf,
            }),
        )
    }

    /// One-sided read of `len` bytes from `dst`'s open channel `chan` at
    /// `offset` into local buffer `into`. Completion (data landed) arrives
    /// as a [`SendEvent`] carrying the returned message id.
    #[allow(clippy::too_many_arguments)]
    pub fn rma_read(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        chan: u16,
        offset: u64,
        into: VirtAddr,
        len: u64,
    ) -> Result<u32, BclError> {
        let buf = (into, len);
        self.submit(
            ctx,
            Request::RmaRead(Rma {
                dst,
                chan,
                offset,
                buf,
            }),
        )
    }

    /// Launch a NIC-offloaded collective. The `steps` schedule (compiled
    /// from a `suca-coll` plan) is handed to the NIC in one kernel trap;
    /// the MCP's plan interpreter then runs the whole collective —
    /// combining, forwarding, result DMA — without another host crossing.
    /// Completion arrives as a [`SendEvent`] carrying the returned id.
    ///
    /// `payload`/`payload_len` is this participant's contribution (0 for
    /// barrier); `result`/`result_len` is where the final accumulator is
    /// DMA'd (0 when no result is wanted, e.g. barrier).
    #[allow(clippy::too_many_arguments)]
    pub fn collective(
        &self,
        ctx: &mut ActorCtx,
        coll_id: u32,
        op: CollOp,
        steps: Vec<CollStep>,
        payload: VirtAddr,
        payload_len: u64,
        result: VirtAddr,
        result_len: u64,
    ) -> Result<u32, BclError> {
        let (payload, result) = ((payload, payload_len), (result, result_len));
        let req = Request::Collective {
            coll_id,
            op,
            steps,
            payload,
            result,
        };
        self.submit(ctx, req)
    }

    /// Close the port. One kernel trap.
    pub fn close(self, ctx: &mut ActorCtx) -> Result<(), BclError> {
        ctx.sleep(self.node.cfg.lib_compose);
        self.node.intra.unregister_port(self.id);
        self.node.ioctl(ctx, |ctx, kmod| {
            kmod.ioctl_close_port(ctx, &self.proc, self.id)
        })
    }
}

impl Drop for BclPort {
    /// The pooled buffers die with the port, each at its own size, staged
    /// ones included: the NIC keeps the frames it still holds until it lets
    /// go.
    fn drop(&mut self) {
        for (addr, bytes) in self.queues.staging.drain() {
            // Nothing to report to from a drop, which must not panic.
            let _ = self.free_buffer(addr, bytes);
        }
    }
}

//! RPC server: bounded-queue admission control, per-tenant quotas and
//! priority classes, and dispatch.
//!
//! The server never blocks the BCL receive path behind a slow handler:
//! every arrival is admitted (queued) or shed *immediately*, so the
//! system-channel pool drains at wire speed and go-back-N never wedges
//! behind an overloaded service. Overload therefore degrades into counted
//! `Shed` replies instead of retransmission storms.
//!
//! Tenancy rides the same decision point: when [`RpcServerConfig::tenants`]
//! carries policies, every arrival is charged against its tenant's bounded
//! quota and enqueued at the *policy's* priority (the frame's priority is
//! advisory — a client cannot promote itself). High-priority work is
//! served first, and when the queue is full a high-priority arrival evicts
//! the newest queued low-priority request rather than being shed itself:
//! low sheds first, and every shed is counted per tenant.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use suca_bcl::{BclError, BclPort, ChannelId, ProcAddr, RecvEvent};
use suca_mem::VirtAddr;
use suca_sim::mtrace::stage;
use suca_sim::{ActorCtx, Counter, Gauge, Metrics, SimDuration, TraceEvent, TraceId, TraceLayer};

use crate::frame::{RpcFrame, RpcKind, ARENA_CHANNEL, FRAME_BYTES};
use crate::tenant::{Priority, TenantId, TenantPolicy};

/// Scratch-buffer size — the largest RMA response a server emits.
const SCRATCH_BYTES: u64 = 16 * 1024;

/// Scratch-ring depth: RMA responses that may be in flight at once. The
/// NIC DMAs out of the scratch buffer *after* `rma_write` returns, so a
/// buffer is only reusable once its send completion arrives; the ring lets
/// that overlap service work instead of serializing every large response on
/// its own DMA.
const SCRATCH_SLOTS: usize = 8;

/// Server policy knobs. The inline limit is not among them: a response or
/// push goes inline when it fits one system-channel buffer behind its
/// frame, and a larger response is RMA-written into the client's arena.
#[derive(Clone, Debug)]
pub struct RpcServerConfig {
    /// Admission-queue bound: arrivals beyond this are shed. This is the
    /// paper-style answer to overload — bound the queue at the *service*
    /// layer where a reject is cheap, not at the transport where it costs
    /// go-back-N retransmissions.
    pub queue_cap: usize,
    /// [`RpcServer::serve_until_idle`] returns after the port stays quiet
    /// this long with an empty queue.
    pub idle_timeout: SimDuration,
    /// Per-tenant admission contracts. Empty (the default) is the open
    /// single-tenant world: any tenant is admitted against the global
    /// bound at the priority its frame requests. Non-empty means *only*
    /// listed tenants are admitted, each within its own quota, at its
    /// policy's priority.
    pub tenants: Vec<TenantPolicy>,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            queue_cap: 256,
            idle_timeout: SimDuration::from_us(2_000),
            tenants: Vec::new(),
        }
    }
}

/// One admitted request as the tenant-aware handler sees it.
pub struct RpcRequest<'a> {
    /// Tenant the request was admitted for.
    pub tenant: TenantId,
    /// Priority class it was served at.
    pub priority: Priority,
    /// Application operation class.
    pub op_class: u8,
    /// The client that sent it (push target for subscriptions).
    pub src: ProcAddr,
    /// Request payload.
    pub payload: &'a [u8],
}

/// A server-initiated event to deliver alongside a response (pub-sub
/// fan-out). Pushes are inline-only: a payload larger than the server's
/// inline limit is a protocol error (counted, flight-recorded, dropped),
/// never a wedged channel.
#[derive(Clone, Debug)]
pub struct RpcPush {
    /// Destination client port.
    pub dst: ProcAddr,
    /// Tenant stamped on the push frame.
    pub tenant: TenantId,
    /// Application class of the event stream.
    pub op_class: u8,
    /// 64-bit event sequence number.
    pub seq: u64,
    /// Event payload.
    pub payload: Vec<u8>,
}

/// What a tenant-aware handler returns: one response plus any pushes the
/// request triggered.
pub struct RpcReply {
    /// Response payload (inline or RMA depending on size).
    pub payload: Vec<u8>,
    /// Unsolicited events to send after the response.
    pub pushes: Vec<RpcPush>,
}

impl RpcReply {
    /// A plain response with no pushes.
    pub fn inline(payload: Vec<u8>) -> RpcReply {
        RpcReply {
            payload,
            pushes: Vec::new(),
        }
    }
}

struct Queued {
    src: ProcAddr,
    tenant: TenantId,
    priority: Priority,
    op_class: u8,
    req_id: u32,
    arena_off: u32,
    payload: Vec<u8>,
    /// Request message's trace chain (when inter-node and traced).
    trace: Option<TraceId>,
}

/// Lazily-created per-tenant instruments (`rpc.srv_admitted.t<N>`, …).
struct TenantCounters {
    admitted: Counter,
    sheds: Counter,
}

/// The server half of the service layer: admit-or-shed, then dispatch
/// queued requests to a handler and reply inline or via RMA.
pub struct RpcServer {
    port: BclPort,
    cfg: RpcServerConfig,
    queue_high: VecDeque<Queued>,
    queue_low: VecDeque<Queued>,
    /// Requests currently queued per tenant (quota enforcement).
    tenant_queued: HashMap<u8, usize>,
    tenant_counters: HashMap<u8, TenantCounters>,
    metrics: Metrics,
    /// Largest inline response or push payload: a system-channel buffer
    /// less the frame header.
    inline_max: u64,
    /// RMA scratch ring: buffer, plus the in-flight transfer's message id
    /// (`None` = free). A buffer whose DMA has not completed must not be
    /// rewritten — the NIC reads it lazily, chunk by chunk.
    scratch: Vec<(VirtAddr, Option<u32>)>,
    scratch_next: usize,
    node: u32,
    depth_probe: Rc<Cell<u64>>,
    c_admitted: Counter,
    c_served: Counter,
    c_sheds: Counter,
    c_bad_frames: Counter,
    c_rma: Counter,
    c_inline: Counter,
    c_unknown_tenant: Counter,
    c_evicted_low: Counter,
    c_pushes: Counter,
    c_push_oversize: Counter,
    c_oversize: Counter,
    c_scratch_stalls: Counter,
    g_depth: Gauge,
}

impl RpcServer {
    /// Allocate the RMA scratch ring and register instruments.
    pub fn new(ctx: &mut ActorCtx, port: BclPort, cfg: RpcServerConfig) -> Result<Self, BclError> {
        let scratch = (0..SCRATCH_SLOTS)
            .map(|_| Ok((port.alloc_buffer(SCRATCH_BYTES)?, None)))
            .collect::<Result<Vec<_>, BclError>>()?;
        let inline_max = port
            .config()
            .system_pool
            .buffer_bytes
            .saturating_sub(FRAME_BYTES as u64);
        let addr = port.addr();
        let node = addr.node.0;
        let m = ctx.sim().metrics();
        let depth_probe = Rc::new(Cell::new(0));
        let probe = depth_probe.clone();
        ctx.sim().timeseries().register(
            format!("n{node}.p{}.rpc.srv_queue", addr.port.0),
            node,
            // No declared capacity: under overload the bounded queue
            // legitimately sits at `queue_cap` for long stretches while
            // shedding, and no saturation rule watches it. Boundedness is
            // asserted through the `rpc.srv_queue_depth` gauge high-water.
            None,
            move |_| probe.get(),
        );
        Ok(RpcServer {
            queue_high: VecDeque::new(),
            queue_low: VecDeque::new(),
            tenant_queued: HashMap::new(),
            tenant_counters: HashMap::new(),
            inline_max,
            scratch,
            scratch_next: 0,
            node,
            depth_probe,
            c_admitted: m.counter("rpc.srv_admitted"),
            c_served: m.counter("rpc.srv_served"),
            c_sheds: m.counter("rpc.srv_sheds"),
            c_bad_frames: m.counter("rpc.srv_bad_frames"),
            c_rma: m.counter("rpc.srv_rma_responses"),
            c_inline: m.counter("rpc.srv_inline_responses"),
            c_unknown_tenant: m.counter("rpc.srv_unknown_tenant"),
            c_evicted_low: m.counter("rpc.srv_evicted_low"),
            c_pushes: m.counter("rpc.srv_pushes"),
            c_push_oversize: m.counter("rpc.srv_push_oversize"),
            c_oversize: m.counter("rpc.srv_oversize_responses"),
            c_scratch_stalls: m.counter("rpc.srv_scratch_stalls"),
            g_depth: m.gauge("rpc.srv_queue_depth"),
            metrics: m.clone(),
            port,
            cfg,
        })
    }

    /// This server's port address (what clients dial).
    pub fn addr(&self) -> ProcAddr {
        self.port.addr()
    }

    /// Current admission-queue depth (both priority classes).
    pub fn queue_depth(&self) -> usize {
        self.queue_high.len() + self.queue_low.len()
    }

    /// Serve requests until the port stays quiet for `idle_timeout` with an
    /// empty queue. The handler maps `(op_class, request payload)` to a
    /// response payload; it may sleep on `ctx` to model service time.
    ///
    /// Returns the number of requests served this call.
    pub fn serve_until_idle(
        &mut self,
        ctx: &mut ActorCtx,
        handler: &mut impl FnMut(&mut ActorCtx, u8, &[u8]) -> Vec<u8>,
    ) -> u64 {
        self.serve_tenants_until_idle(ctx, &mut |ctx, req| {
            RpcReply::inline(handler(ctx, req.op_class, req.payload))
        })
    }

    /// Tenant-aware serve loop: the handler sees the full
    /// [`RpcRequest`] (tenant, priority, source) and may return pushes
    /// alongside the response. [`RpcServer::serve_until_idle`] is the
    /// single-tenant wrapper over this.
    pub fn serve_tenants_until_idle(
        &mut self,
        ctx: &mut ActorCtx,
        handler: &mut impl FnMut(&mut ActorCtx, &RpcRequest<'_>) -> RpcReply,
    ) -> u64 {
        let mut served = 0u64;
        loop {
            // Admit (or shed) everything that has arrived, *before* doing
            // any service work: the pool must drain at wire speed.
            while let Some(ev) = self.port.poll_recv(ctx) {
                self.admit(ctx, ev);
            }
            self.drain_sends(ctx);
            if let Some(req) = self.pop_next() {
                self.set_depth();
                self.serve_one(ctx, req, handler);
                served += 1;
                continue;
            }
            match self.port.wait_recv_timeout(ctx, self.cfg.idle_timeout) {
                Some(ev) => self.admit(ctx, ev),
                None => {
                    // Send completions (inline replies, RMA writes) land
                    // during the idle wait; drain them so every chain this
                    // server caused closes with a user poll.
                    self.drain_sends(ctx);
                    break;
                }
            }
        }
        served
    }

    /// High-priority work first; within a class, FIFO.
    fn pop_next(&mut self) -> Option<Queued> {
        let req = self
            .queue_high
            .pop_front()
            .or_else(|| self.queue_low.pop_front())?;
        if let Some(n) = self.tenant_queued.get_mut(&req.tenant.0) {
            *n = n.saturating_sub(1);
        }
        Some(req)
    }

    fn set_depth(&self) {
        let d = self.queue_depth() as u64;
        self.g_depth.set(d);
        self.depth_probe.set(d);
    }

    fn tenant_counters(&mut self, tenant: TenantId) -> &TenantCounters {
        let m = &self.metrics;
        self.tenant_counters
            .entry(tenant.0)
            .or_insert_with(|| TenantCounters {
                admitted: m.counter(&format!("rpc.srv_admitted.{tenant}")),
                sheds: m.counter(&format!("rpc.srv_sheds.{tenant}")),
            })
    }

    fn shed_reply(&mut self, ctx: &mut ActorCtx, dst: ProcAddr, frame: &RpcFrame) {
        let reply = RpcFrame {
            kind: RpcKind::Shed,
            op_class: frame.op_class,
            req_id: frame.req_id,
            arena_off: frame.arena_off,
            len: 0,
            tenant: frame.tenant,
            prio: frame.prio,
        }
        .encode(&[]);
        let _ = self.send_backpressured(ctx, dst, &reply);
    }

    fn shed(
        &mut self,
        ctx: &mut ActorCtx,
        src: ProcAddr,
        frame: &RpcFrame,
        trace: Option<TraceId>,
    ) {
        self.c_sheds.inc();
        self.tenant_counters(frame.tenant).sheds.inc();
        if let Some(id) = trace {
            ctx.sim().trace_event(TraceEvent::instant(
                id,
                self.node,
                TraceLayer::Rpc,
                stage::RPC_SHED,
                ctx.now().as_ns(),
            ));
        }
        self.shed_reply(ctx, src, frame);
    }

    /// Decode one arrival and either queue it or shed it with a reply.
    fn admit(&mut self, ctx: &mut ActorCtx, ev: RecvEvent) {
        let Ok(data) = self.port.recv_bytes(ctx, &ev) else {
            self.c_bad_frames.inc();
            return;
        };
        let Some((frame, inline)) = RpcFrame::decode(&data) else {
            self.c_bad_frames.inc();
            return;
        };
        if frame.kind != RpcKind::Request || inline.len() < frame.len as usize {
            self.c_bad_frames.inc();
            return;
        }
        let trace = ev
            .msg_id
            .is_multiple_of(2)
            .then(|| TraceId::new(ev.src.node.0, ev.msg_id));
        // Resolve the admission contract: open world (no policies) trusts
        // the frame's priority against the global bound only; a policy
        // table admits listed tenants at the policy's priority and quota.
        let (priority, quota) = if self.cfg.tenants.is_empty() {
            (frame.prio, self.cfg.queue_cap)
        } else {
            match self
                .cfg
                .tenants
                .iter()
                .find(|p| p.tenant == frame.tenant)
                .map(|p| (p.priority, p.quota))
            {
                Some(pq) => pq,
                None => {
                    self.c_unknown_tenant.inc();
                    self.shed(ctx, ev.src, &frame, trace);
                    return;
                }
            }
        };
        if self
            .tenant_queued
            .get(&frame.tenant.0)
            .copied()
            .unwrap_or(0)
            >= quota
        {
            self.shed(ctx, ev.src, &frame, trace);
            return;
        }
        if self.queue_depth() >= self.cfg.queue_cap {
            // Full house: a high-priority arrival takes the newest queued
            // low-priority request's place (low sheds first); anything
            // else is shed itself.
            if priority == Priority::High {
                if let Some(victim) = self.queue_low.pop_back() {
                    if let Some(n) = self.tenant_queued.get_mut(&victim.tenant.0) {
                        *n = n.saturating_sub(1);
                    }
                    self.c_sheds.inc();
                    self.c_evicted_low.inc();
                    self.tenant_counters(victim.tenant).sheds.inc();
                    let vframe = RpcFrame {
                        kind: RpcKind::Shed,
                        op_class: victim.op_class,
                        req_id: victim.req_id,
                        arena_off: victim.arena_off,
                        len: 0,
                        tenant: victim.tenant,
                        prio: victim.priority,
                    };
                    self.shed_reply(ctx, victim.src, &vframe);
                } else {
                    self.shed(ctx, ev.src, &frame, trace);
                    return;
                }
            } else {
                self.shed(ctx, ev.src, &frame, trace);
                return;
            }
        }
        self.c_admitted.inc();
        self.tenant_counters(frame.tenant).admitted.inc();
        *self.tenant_queued.entry(frame.tenant.0).or_insert(0) += 1;
        let q = Queued {
            src: ev.src,
            tenant: frame.tenant,
            priority,
            op_class: frame.op_class,
            req_id: frame.req_id,
            arena_off: frame.arena_off,
            payload: inline[..frame.len as usize].to_vec(),
            trace,
        };
        match priority {
            Priority::High => self.queue_high.push_back(q),
            Priority::Low => self.queue_low.push_back(q),
        }
        self.set_depth();
    }

    fn serve_one(
        &mut self,
        ctx: &mut ActorCtx,
        req: Queued,
        handler: &mut impl FnMut(&mut ActorCtx, &RpcRequest<'_>) -> RpcReply,
    ) {
        let t0 = ctx.now();
        let reply = handler(
            ctx,
            &RpcRequest {
                tenant: req.tenant,
                priority: req.priority,
                op_class: req.op_class,
                src: req.src,
                payload: &req.payload,
            },
        );
        if let Some(id) = req.trace {
            ctx.sim().trace_event(
                TraceEvent::span(
                    id,
                    self.node,
                    TraceLayer::Rpc,
                    stage::RPC_SERVE,
                    t0.as_ns(),
                    ctx.now().as_ns(),
                )
                .with_bytes(reply.payload.len() as u64),
            );
        }
        self.c_served.inc();
        let resp = reply.payload;
        if resp.len() as u64 > self.inline_max {
            self.respond_rma(ctx, &req, &resp);
        } else {
            self.c_inline.inc();
            let wire = RpcFrame {
                kind: RpcKind::Response,
                op_class: req.op_class,
                req_id: req.req_id,
                arena_off: req.arena_off,
                len: resp.len() as u32,
                tenant: req.tenant,
                prio: req.priority,
            }
            .encode(&resp);
            let _ = self.send_backpressured(ctx, req.src, &wire);
        }
        for push in reply.pushes {
            self.send_push(ctx, &push);
        }
    }

    /// Send one fan-out event. Oversize payloads are a counted protocol
    /// error that trips the flight recorder — pushes are inline-only and
    /// must fit the system channel's pool buffer.
    fn send_push(&mut self, ctx: &mut ActorCtx, push: &RpcPush) {
        if push.payload.len() as u64 > self.inline_max {
            self.c_push_oversize.inc();
            ctx.sim().msg_trace().dump_once(&format!(
                "rpc push payload {}B exceeds inline bound {}B (tenant {}, class {})",
                push.payload.len(),
                self.inline_max,
                push.tenant,
                push.op_class
            ));
            return;
        }
        self.c_pushes.inc();
        let wire = RpcFrame::push(
            push.tenant,
            push.op_class,
            push.seq,
            push.payload.len() as u32,
        )
        .encode(&push.payload);
        let _ = self.send_backpressured(ctx, push.dst, &wire);
    }

    /// One-sided write into the client's arena slot, then a small
    /// announcement frame. Go-back-N delivers a NIC pair's fragments in
    /// order and the host DMA queue is FIFO, so the arena data is in the
    /// client's memory before the announcement's completion event.
    fn respond_rma(&mut self, ctx: &mut ActorCtx, req: &Queued, resp: &[u8]) {
        // A handler response that outgrows the scratch buffer is a server
        // bug, but on a monitored run it must surface as a counted,
        // flight-recorded shed — not a corrupted write or a panic.
        if resp.len() as u64 > SCRATCH_BYTES {
            self.c_oversize.inc();
            ctx.sim().msg_trace().dump_once(&format!(
                "rpc response {}B exceeds scratch buffer {}B (tenant {}, class {})",
                resp.len(),
                SCRATCH_BYTES,
                req.tenant,
                req.op_class
            ));
            let frame = RpcFrame {
                kind: RpcKind::Shed,
                op_class: req.op_class,
                req_id: req.req_id,
                arena_off: req.arena_off,
                len: 0,
                tenant: req.tenant,
                prio: req.priority,
            };
            self.shed_reply(ctx, req.src, &frame);
            return;
        }
        // Claim the next scratch buffer, waiting out its previous
        // transfer if that DMA is still in flight: the NIC reads the
        // buffer lazily, chunk by chunk, so rewriting it early would
        // corrupt the response already on the wire.
        let slot = self.scratch_next;
        self.scratch_next = (self.scratch_next + 1) % self.scratch.len();
        while self.scratch[slot].1.is_some() {
            self.drain_sends(ctx);
            if self.scratch[slot].1.is_none() {
                break;
            }
            match self.port.wait_send_timeout(ctx, self.cfg.idle_timeout) {
                Some(ev) => self.note_send(ev.msg_id),
                None => break,
            }
        }
        if self.scratch[slot].1.is_some() {
            // The oldest transfer never completed within the idle
            // timeout — shed rather than corrupt an in-flight response.
            self.c_scratch_stalls.inc();
            ctx.sim().msg_trace().dump_once(&format!(
                "rpc scratch ring stalled: slot {slot} DMA never completed (tenant {}, class {})",
                req.tenant, req.op_class
            ));
            let frame = RpcFrame {
                kind: RpcKind::Shed,
                op_class: req.op_class,
                req_id: req.req_id,
                arena_off: req.arena_off,
                len: 0,
                tenant: req.tenant,
                prio: req.priority,
            };
            self.shed_reply(ctx, req.src, &frame);
            return;
        }
        self.c_rma.inc();
        let buf = self.scratch[slot].0;
        if self.port.write_buffer(buf, resp).is_err() {
            self.c_bad_frames.inc();
            return;
        }
        match self.port.rma_write(
            ctx,
            req.src,
            ARENA_CHANNEL,
            u64::from(req.arena_off),
            buf,
            resp.len() as u64,
        ) {
            Ok(msg_id) => self.scratch[slot].1 = Some(msg_id),
            Err(_) => {
                self.c_bad_frames.inc();
                return;
            }
        }
        let announce = RpcFrame {
            kind: RpcKind::RmaResponse,
            op_class: req.op_class,
            req_id: req.req_id,
            arena_off: req.arena_off,
            len: resp.len() as u32,
            tenant: req.tenant,
            prio: req.priority,
        }
        .encode(&[]);
        let _ = self.send_backpressured(ctx, req.src, &announce);
    }

    fn send_backpressured(
        &mut self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        wire: &[u8],
    ) -> Result<u32, BclError> {
        loop {
            match self.port.send_bytes(ctx, dst, ChannelId::SYSTEM, wire) {
                Err(BclError::RingFull) => {
                    if let Some(ev) = self.port.wait_send_timeout(ctx, self.cfg.idle_timeout) {
                        self.note_send(ev.msg_id);
                    }
                }
                r => return r,
            }
        }
    }

    /// Retire the scratch slot (if any) whose RMA transfer `msg_id`
    /// completed; completions of inline sends match no slot and fall
    /// through.
    fn note_send(&mut self, msg_id: u32) {
        for s in &mut self.scratch {
            if s.1 == Some(msg_id) {
                s.1 = None;
            }
        }
    }

    /// Drain queued send completions, retiring any finished scratch
    /// transfers along the way.
    fn drain_sends(&mut self, ctx: &mut ActorCtx) {
        while let Some(ev) = self.port.poll_send(ctx) {
            self.note_send(ev.msg_id);
        }
    }
}

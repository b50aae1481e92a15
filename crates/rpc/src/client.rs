//! RPC client: request-id matching, deadlines, retry/backoff, and a
//! response arena for RMA-delivered payloads.
//!
//! One client multiplexes any number of logical callers over a single
//! [`BclPort`] — the workload layer models thousands of simulated users
//! with a few dozen client actors, each driving one of these.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use suca_bcl::{BclError, BclPort, ChannelId, ProcAddr, RecvEvent};
use suca_mem::VirtAddr;
use suca_sim::mtrace::stage;
use suca_sim::{ActorCtx, Counter, Gauge, SimDuration, SimTime, TraceEvent, TraceId, TraceLayer};

use crate::frame::{RpcFrame, RpcKind, ARENA_CHANNEL};
use crate::tenant::{Priority, TenantId};

/// Client policy knobs.
#[derive(Clone, Debug)]
pub struct RpcClientConfig {
    /// Per-attempt deadline. BCL's system channel silently discards under
    /// pool exhaustion, so this is the only way a lost request resolves.
    pub timeout: SimDuration,
    /// Total attempts per logical request (first send + retries).
    pub max_attempts: u32,
    /// Base backoff after a shed reply; attempt `k` waits `k * backoff`.
    pub backoff: SimDuration,
    /// Response-arena slots (= maximum in-flight requests).
    pub arena_slots: u32,
    /// Bytes per arena slot (= largest RMA response).
    pub slot_bytes: u64,
    /// Tenant stamped on every request this client issues.
    pub tenant: TenantId,
    /// Advisory priority stamped on requests (servers with tenant
    /// policies override it from the policy table).
    pub priority: Priority,
}

impl Default for RpcClientConfig {
    fn default() -> Self {
        RpcClientConfig {
            timeout: SimDuration::from_us(2_000),
            max_attempts: 3,
            backoff: SimDuration::from_us(100),
            arena_slots: 64,
            slot_bytes: 16 * 1024,
            tenant: TenantId::DEFAULT,
            priority: Priority::High,
        }
    }
}

/// One server-initiated event (pub-sub fan-out) received by this client.
#[derive(Clone, Debug)]
pub struct PushEvent {
    /// Tenant the event stream belongs to.
    pub tenant: TenantId,
    /// Application class of the stream.
    pub op_class: u8,
    /// 64-bit event sequence number.
    pub seq: u64,
    /// Event payload.
    pub payload: Vec<u8>,
}

/// Final outcome of one logical request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcStatus {
    /// Response received.
    Ok,
    /// Server shed it (admission control) on every attempt.
    Shed,
    /// No response within the deadline on the final attempt.
    TimedOut,
    /// The kernel declared every path to the destination dead (chaos /
    /// hardware failure). Terminal immediately — retrying the same node
    /// cannot succeed; callers should re-home to a replica.
    DeadDestination,
}

/// A resolved request, as returned by [`RpcClient::advance`].
#[derive(Clone, Debug)]
pub struct RpcCompletion {
    /// Caller-chosen correlation token (e.g. a simulated-user index).
    pub token: u64,
    /// The request id this resolves.
    pub req_id: u32,
    /// Where the request was sent (re-homing key for dead destinations).
    pub dst: ProcAddr,
    /// Operation class echoed from the request.
    pub op_class: u8,
    /// How it ended.
    pub status: RpcStatus,
    /// Issue-to-resolution latency (covers all attempts).
    pub latency: SimDuration,
    /// Attempts consumed.
    pub attempts: u32,
    /// Response payload (empty for shed/timeout).
    pub payload: Vec<u8>,
}

struct Pending {
    token: u64,
    op_class: u8,
    dst: ProcAddr,
    /// Encoded request frame, kept for retries.
    wire: Vec<u8>,
    slot: u32,
    issued: SimTime,
    /// Message id of the first attempt — the trace chain RPC spans join.
    first_msg: Option<u32>,
    attempts: u32,
    deadline: SimTime,
    /// Set while waiting out a shed backoff (supersedes `deadline`).
    backoff_until: Option<SimTime>,
}

/// The client half of the service layer. See the crate docs for the
/// protocol; see [`RpcClient::issue`] / [`RpcClient::advance`] for the
/// multiplexed API and [`RpcClient::call`] for the blocking convenience.
pub struct RpcClient {
    port: BclPort,
    cfg: RpcClientConfig,
    arena: VirtAddr,
    free_slots: Vec<u32>,
    pending: HashMap<u32, Pending>,
    pushes: VecDeque<PushEvent>,
    next_req_id: u32,
    node: u32,
    inflight_probe: Rc<Cell<u64>>,
    c_issued: Counter,
    c_pushes: Counter,
    c_completed: Counter,
    c_shed: Counter,
    c_timeout: Counter,
    c_retries: Counter,
    c_shed_replies: Counter,
    c_late: Counter,
    c_bad_frames: Counter,
    c_dead_dest: Counter,
    c_no_slot: Counter,
    g_inflight: Gauge,
}

impl RpcClient {
    /// Bind the response arena and register instruments. One kernel trap
    /// (the arena bind).
    pub fn new(ctx: &mut ActorCtx, port: BclPort, cfg: RpcClientConfig) -> Result<Self, BclError> {
        let arena = port.bind_open(ctx, ARENA_CHANNEL, cfg.arena_slots as u64 * cfg.slot_bytes)?;
        let addr = port.addr();
        let node = addr.node.0;
        let m = ctx.sim().metrics();
        let inflight_probe = Rc::new(Cell::new(0));
        let probe = inflight_probe.clone();
        ctx.sim().timeseries().register(
            format!("n{node}.p{}.rpc.inflight", addr.port.0),
            node,
            // No declared capacity: the bound is the arena (asserted via
            // the gauge high-water), and no saturation rule watches it.
            None,
            move |_| probe.get(),
        );
        Ok(RpcClient {
            free_slots: (0..cfg.arena_slots).rev().collect(),
            pending: HashMap::new(),
            pushes: VecDeque::new(),
            next_req_id: 1,
            node,
            inflight_probe,
            c_issued: m.counter("rpc.cli_issued"),
            c_pushes: m.counter("rpc.cli_pushes"),
            c_completed: m.counter("rpc.cli_completed"),
            c_shed: m.counter("rpc.cli_shed"),
            c_timeout: m.counter("rpc.cli_timeout"),
            c_retries: m.counter("rpc.cli_retries"),
            c_shed_replies: m.counter("rpc.cli_shed_replies"),
            c_late: m.counter("rpc.cli_late_responses"),
            c_bad_frames: m.counter("rpc.cli_bad_frames"),
            c_dead_dest: m.counter("rpc.cli_dead_dest"),
            c_no_slot: m.counter("rpc.cli_no_slot"),
            g_inflight: m.gauge("rpc.cli_inflight"),
            port,
            cfg,
            arena,
        })
    }

    /// This client's port address.
    pub fn addr(&self) -> ProcAddr {
        self.port.addr()
    }

    /// Tenant this client issues for.
    pub fn tenant(&self) -> TenantId {
        self.cfg.tenant
    }

    /// Drain every push event received since the last call, in arrival
    /// order. Pushes are diverted here by [`RpcClient::advance`] /
    /// [`RpcClient::pump`]; subscribers poll this after pumping.
    pub fn take_pushes(&mut self) -> Vec<PushEvent> {
        self.pushes.drain(..).collect()
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True when an arena slot is free for another [`RpcClient::issue`].
    pub fn can_issue(&self) -> bool {
        !self.free_slots.is_empty()
    }

    /// Issue one request. `token` is an opaque correlation value returned
    /// in the completion. Returns the request id.
    ///
    /// Callers must check [`RpcClient::can_issue`] first; the arena bound
    /// is the client's own admission control.
    pub fn issue(
        &mut self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        op_class: u8,
        payload: &[u8],
        token: u64,
    ) -> Result<u32, BclError> {
        // An exhausted arena is a caller bug (`can_issue` not checked), but
        // on a health-monitored run it must surface as a counted, reported
        // error — not a panic that kills the monitor with the patient.
        let Some(slot) = self.free_slots.pop() else {
            self.c_no_slot.inc();
            return Err(BclError::RingFull);
        };
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        let frame = RpcFrame {
            kind: RpcKind::Request,
            op_class,
            req_id,
            arena_off: slot * self.cfg.slot_bytes as u32,
            len: payload.len() as u32,
            tenant: self.cfg.tenant,
            prio: self.cfg.priority,
        };
        let wire = frame.encode(payload);
        let issued = ctx.now();
        let msg_id = match self.send_backpressured(ctx, dst, &wire) {
            Ok(id) => id,
            Err(e) => {
                self.free_slots.push(slot);
                return Err(e);
            }
        };
        self.c_issued.inc();
        self.g_inflight.add(1);
        self.inflight_probe.set(self.inflight_probe.get() + 1);
        self.pending.insert(
            req_id,
            Pending {
                token,
                op_class,
                dst,
                wire,
                slot,
                issued,
                first_msg: msg_id.is_multiple_of(2).then_some(msg_id),
                attempts: 1,
                deadline: issued + self.cfg.timeout,
                backoff_until: None,
            },
        );
        Ok(req_id)
    }

    /// Earliest instant at which some pending request needs attention
    /// (attempt deadline or backoff expiry).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending
            .values()
            .map(|p| p.backoff_until.unwrap_or(p.deadline))
            .min()
    }

    /// Drain completion queues and enforce deadlines without blocking.
    /// Returns every request that resolved.
    pub fn advance(&mut self, ctx: &mut ActorCtx) -> Vec<RpcCompletion> {
        let mut out = Vec::new();
        while self.port.poll_send(ctx).is_some() {}
        while let Some(ev) = self.port.poll_recv(ctx) {
            self.handle_recv(ctx, ev, &mut out);
        }
        self.expire(ctx, &mut out);
        out
    }

    /// Block for up to `max_wait` (bounded further by the earliest pending
    /// deadline) waiting for progress, then [`RpcClient::advance`].
    pub fn pump(&mut self, ctx: &mut ActorCtx, max_wait: SimDuration) -> Vec<RpcCompletion> {
        let mut wait = max_wait;
        if let Some(t) = self.next_deadline() {
            let now = ctx.now();
            wait = if t <= now {
                SimDuration::ZERO
            } else {
                wait.min(t.since(now))
            };
        }
        let mut out = Vec::new();
        if wait > SimDuration::ZERO {
            if let Some(ev) = self.port.wait_recv_timeout(ctx, wait) {
                self.handle_recv(ctx, ev, &mut out);
            }
        }
        out.extend(self.advance(ctx));
        out
    }

    /// Blocking convenience: issue and wait for this one request.
    pub fn call(
        &mut self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        op_class: u8,
        payload: &[u8],
    ) -> Result<RpcCompletion, BclError> {
        let req_id = self.issue(ctx, dst, op_class, payload, 0)?;
        loop {
            for c in self.pump(ctx, self.cfg.timeout) {
                if c.req_id == req_id {
                    return Ok(c);
                }
            }
        }
    }

    /// After the workload ends: consume straggler responses (counted as
    /// late) until the port stays quiet for `grace`, so every BCL chain
    /// this client caused closes with a user poll.
    pub fn quiesce(&mut self, ctx: &mut ActorCtx, grace: SimDuration) {
        debug_assert!(self.pending.is_empty(), "quiesce with requests in flight");
        while let Some(ev) = self.port.wait_recv_timeout(ctx, grace) {
            let mut sink = Vec::new();
            self.handle_recv(ctx, ev, &mut sink);
        }
        while self.port.poll_send(ctx).is_some() {}
    }

    fn send_backpressured(
        &self,
        ctx: &mut ActorCtx,
        dst: ProcAddr,
        wire: &[u8],
    ) -> Result<u32, BclError> {
        loop {
            match self.port.send_bytes(ctx, dst, ChannelId::SYSTEM, wire) {
                Err(BclError::RingFull) => {
                    // Park on the send queue, bounded so a wedged ring
                    // cannot hang the caller silently forever.
                    let _ = self.port.wait_send_timeout(ctx, self.cfg.timeout);
                }
                r => return r,
            }
        }
    }

    fn handle_recv(&mut self, ctx: &mut ActorCtx, ev: RecvEvent, out: &mut Vec<RpcCompletion>) {
        let Ok(data) = self.port.recv_bytes(ctx, &ev) else {
            self.c_bad_frames.inc();
            return;
        };
        let Some((frame, inline)) = RpcFrame::decode(&data) else {
            self.c_bad_frames.inc();
            return;
        };
        if frame.kind == RpcKind::Push {
            // Unsolicited fan-out event: not correlated with any pending
            // request — queue it for `take_pushes`.
            self.c_pushes.inc();
            self.pushes.push_back(PushEvent {
                tenant: frame.tenant,
                op_class: frame.op_class,
                seq: frame.push_seq(),
                payload: inline[..frame.len as usize].to_vec(),
            });
            return;
        }
        if !self.pending.contains_key(&frame.req_id) {
            // Duplicate response to a retried request, or a response that
            // lost the race with our own timeout.
            self.c_late.inc();
            return;
        }
        match frame.kind {
            RpcKind::Response => {
                let payload = inline[..frame.len as usize].to_vec();
                self.complete(ctx, frame.req_id, RpcStatus::Ok, payload, out);
            }
            RpcKind::RmaResponse => {
                // Fragments of one NIC pair arrive in order, so the RMA
                // data was DMA'd into the arena before this frame's
                // completion event was written.
                let off = frame.arena_off as u64;
                let payload = self
                    .port
                    .read_buffer(VirtAddr(self.arena.0 + off), frame.len as u64)
                    .unwrap_or_default();
                self.complete(ctx, frame.req_id, RpcStatus::Ok, payload, out);
            }
            RpcKind::Shed => {
                self.c_shed_replies.inc();
                let Some(p) = self.pending.get_mut(&frame.req_id) else {
                    self.c_late.inc();
                    return;
                };
                if p.attempts >= self.cfg.max_attempts {
                    self.complete(ctx, frame.req_id, RpcStatus::Shed, Vec::new(), out);
                } else {
                    p.backoff_until = Some(ctx.now() + self.cfg.backoff * u64::from(p.attempts));
                }
            }
            RpcKind::Request | RpcKind::Push => self.c_bad_frames.inc(),
        }
    }

    /// Retry or resolve every pending request whose clock ran out.
    fn expire(&mut self, ctx: &mut ActorCtx, out: &mut Vec<RpcCompletion>) {
        let now = ctx.now();
        let mut due: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| p.backoff_until.unwrap_or(p.deadline) <= now)
            .map(|(&id, _)| id)
            .collect();
        // `pending` iterates in per-process random order; resends advance
        // the clock, so the order must be fixed for a seed to fix the run.
        due.sort_unstable();
        for req_id in due {
            let (retry, dst, wire) = {
                // A completion between collection and this pass can remove
                // the entry; skipping is correct, panicking is not.
                let Some(p) = self.pending.get(&req_id) else {
                    continue;
                };
                let timed_out = p.backoff_until.is_none();
                if timed_out && p.attempts >= self.cfg.max_attempts {
                    (false, p.dst, Vec::new())
                } else {
                    (true, p.dst, p.wire.clone())
                }
            };
            if !retry {
                self.trace_instant(ctx, req_id, stage::RPC_TIMEOUT);
                self.complete(ctx, req_id, RpcStatus::TimedOut, Vec::new(), out);
                continue;
            }
            self.c_retries.inc();
            self.trace_instant(ctx, req_id, stage::RPC_RETRY);
            // PathDead is terminal: the kernel says no path to this node
            // works, so further attempts are wasted deadline. Surface it so
            // the caller can re-home the work to a replica. Anything else is
            // retryable — the refreshed deadline resolves the request as
            // TimedOut on a later pass if the resend was also lost.
            if let Err(BclError::PathDead(_)) = self.send_backpressured(ctx, dst, &wire) {
                self.trace_instant(ctx, req_id, stage::RPC_DEAD_DEST);
                self.complete(ctx, req_id, RpcStatus::DeadDestination, Vec::new(), out);
                continue;
            }
            let now = ctx.now();
            if let Some(p) = self.pending.get_mut(&req_id) {
                p.attempts += 1;
                p.backoff_until = None;
                p.deadline = now + self.cfg.timeout;
            }
        }
    }

    fn complete(
        &mut self,
        ctx: &mut ActorCtx,
        req_id: u32,
        status: RpcStatus,
        payload: Vec<u8>,
        out: &mut Vec<RpcCompletion>,
    ) {
        let Some(p) = self.pending.remove(&req_id) else {
            return;
        };
        self.free_slots.push(p.slot);
        self.g_inflight.sub(1);
        self.inflight_probe.set(self.inflight_probe.get() - 1);
        match status {
            RpcStatus::Ok => self.c_completed.inc(),
            RpcStatus::Shed => self.c_shed.inc(),
            RpcStatus::TimedOut => self.c_timeout.inc(),
            RpcStatus::DeadDestination => self.c_dead_dest.inc(),
        }
        let now = ctx.now();
        // Feed the online SLO windows (no-op unless health is armed).
        ctx.sim().health().observe_rpc(
            self.cfg.tenant.0,
            p.op_class,
            status == RpcStatus::Ok,
            now.since(p.issued).as_ns(),
        );
        if let Some(msg) = p.first_msg {
            ctx.sim().trace_event(
                TraceEvent::span(
                    TraceId::new(self.node, msg),
                    self.node,
                    TraceLayer::Rpc,
                    stage::RPC_CALL,
                    p.issued.as_ns(),
                    now.as_ns(),
                )
                .with_bytes(payload.len() as u64),
            );
        }
        out.push(RpcCompletion {
            token: p.token,
            req_id,
            dst: p.dst,
            op_class: p.op_class,
            status,
            latency: now.since(p.issued),
            attempts: p.attempts,
            payload,
        });
    }

    fn trace_instant(&self, ctx: &ActorCtx, req_id: u32, stage_name: &'static str) {
        let Some(p) = self.pending.get(&req_id) else {
            return;
        };
        let Some(msg) = p.first_msg else {
            return;
        };
        ctx.sim().trace_event(TraceEvent::instant(
            TraceId::new(self.node, msg),
            self.node,
            TraceLayer::Rpc,
            stage_name,
            ctx.now().as_ns(),
        ));
    }
}

//! MCP send engine: the descriptor queue, fragment staging, the LANai send
//! loop (`sender_step` / `next_work`) and the completed-job memory that
//! message-level (reject) retries and failures draw on.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use suca_mem::{Asid, NicSegs};
use suca_myrinet::{FabricNodeId, PacketTrace, SramLease, FRAMING_BYTES};
use suca_sim::mtrace::{stage, TraceId, TraceLayer};
use suca_sim::SimDuration;

use super::{Completion, McpInner, McpState, TxDesc};
use crate::port::{ChannelId, ChannelKind, PortId, SendEvent, SendStatus};
use crate::sg::read_sg;
use crate::wire::{WireHeader, WireKind, HEADER_BYTES};

/// What a send descriptor asks the MCP to do.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Ordinary message to a system or normal channel.
    Message {
        /// The virtual pages `(address space, page numbers)` a user-level
        /// descriptor names: the NIC translates them itself at descriptor
        /// fetch. `None` when the kernel translated (every trapping send).
        user_pages: Option<Box<(Asid, Range<u64>)>>,
    },
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
    /// Physical segments of the payload in user memory, held (and busy
    /// until the completion event) for as long as the job may read them.
    pub segments: NicSegs,
    /// Payload length.
    pub total_len: u64,
    /// Operation.
    pub kind: JobKind,
    /// Message-level retries performed so far.
    pub retries: u32,
    /// Whether to post a send-completion event when injected.
    pub notify_sender: bool,
}

/// What a receiver can still do to a job after it completed, read off the
/// refusals of `recv.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Refusal {
    /// A message to a normal channel: refused retryably when no buffer is
    /// posted yet, which re-stages it from user memory, or fatally when it
    /// is too big for the posted one.
    Retryable,
    /// A message to the system channel, too big for a pool buffer, or a
    /// one-sided read request the target cannot serve: refused fatally or
    /// not at all.
    Fatal,
    /// RMA writes, read replies and collective contributions: never refused.
    Never,
}

impl SendJob {
    fn refusal(&self) -> Refusal {
        match (&self.kind, self.channel.kind) {
            (JobKind::Message { .. }, ChannelKind::Normal) => Refusal::Retryable,
            (JobKind::Message { .. }, ChannelKind::System) => Refusal::Fatal,
            (JobKind::RmaReadReq { .. }, _) => Refusal::Fatal,
            _ => Refusal::Never,
        }
    }
}

/// A completed job a late `Reject` may still name: what failing it reads.
/// Its trace chain is always this node's (read replies, whose chain starts
/// at the requester, are never kept), so no origin is stored.
#[derive(Clone, Copy, Debug)]
struct Nameable {
    msg_id: u32,
    /// The port its failure is posted to.
    src_port: PortId,
    /// A read request: failing it also clears its pending read.
    read: bool,
    /// Its whole job is in [`Completed::held`].
    held: bool,
}

impl Nameable {
    fn of(job: &SendJob, held: bool) -> Self {
        Nameable {
            msg_id: job.msg_id,
            src_port: job.src_port,
            read: matches!(job.kind, JobKind::RmaReadReq { .. }),
            held,
        }
    }
}

/// Fully injected jobs a late `Reject` may still name, oldest first, at
/// most [`COMPLETED_CAP`]. Their owners were told they are done. Only a
/// [`Refusal::Retryable`] job is kept whole, holding its segments (a retry
/// re-stages from user memory), until evicted or [`Completed::settle`]d;
/// any other job a `Reject` can name is kept as its [`Nameable`] alone.
/// Message ids are unique per node (the kernel module hands them out), so
/// an id is remembered at most once.
#[derive(Default)]
pub(super) struct Completed {
    order: VecDeque<Nameable>,
    /// The whole jobs of the `held` entries, in no particular order.
    held: Vec<SendJob>,
}

/// A job a `Reject` named.
#[derive(Debug)]
enum Remembered {
    /// Active, queued, or completed and still refusable retryably: the
    /// whole job, segments and all.
    Whole(SendJob),
    /// Completed and past any retry: enough to fail it.
    Failable(Nameable),
}

impl Completed {
    /// The job was fully injected and its owner told: the buffer is the
    /// owner's again (not busy), and unless the receiver may yet refuse the
    /// job retryably, the NIC lets go of it altogether.
    fn remember(&mut self, mut job: SendJob) {
        let refusal = job.refusal();
        if refusal == Refusal::Never {
            return;
        }
        if self.order.len() == COMPLETED_CAP {
            self.evict_oldest();
        }
        let held = refusal == Refusal::Retryable;
        self.order.push_back(Nameable::of(&job, held));
        if held {
            job.segments.end_busy();
            self.held.push(job);
        }
    }

    fn evict_oldest(&mut self) {
        if let Some(old) = self.order.pop_front().filter(|n| n.held) {
            self.take_held(old.msg_id);
        }
    }

    fn take_held(&mut self, msg_id: u32) -> Option<SendJob> {
        let i = self.held.iter().position(|j| j.msg_id == msg_id)?;
        Some(self.held.swap_remove(i))
    }

    /// Take the job `msg_id` names out of the memory.
    fn take(&mut self, msg_id: u32) -> Option<Remembered> {
        let i = self.order.iter().rposition(|n| n.msg_id == msg_id)?;
        let named = self.order.remove(i)?;
        if !named.held {
            return Some(Remembered::Failable(named));
        }
        self.take_held(msg_id).map(Remembered::Whole)
    }

    /// Everything sent to `dst` so far is acknowledged. A receiver refuses
    /// a message before it acknowledges the fragment that made it decide
    /// (`on_data`: the `Reject` is queued ahead of the ack, on the same
    /// rail), so no remembered job to `dst` can be refused any more: forget
    /// the ones still holding their buffers.
    pub(super) fn settle(&mut self, dst: FabricNodeId) {
        let before = self.held.len();
        self.held.retain(|j| j.dst_fid != dst);
        if self.held.len() == before {
            return;
        }
        let held = &self.held;
        self.order
            .retain(|n| !n.held || held.iter().any(|j| j.msg_id == n.msg_id));
    }

    /// Bytes the memory's two containers reserve.
    pub(super) fn bytes(&self) -> usize {
        self.order.capacity() * std::mem::size_of::<Nameable>()
            + self.held.capacity() * std::mem::size_of::<SendJob>()
    }
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

/// How many fragments the staging engine keeps ahead of injection.
const STAGE_AHEAD: usize = 8;
/// Completed jobs a late `Reject` may still name, per node.
const COMPLETED_CAP: usize = 256;
/// Translations the user-level NIC caches in SRAM: VMMC-2 and U-Net kept
/// a few hundred, where BCL's host-resident pin-down table holds 64 K pages.
const NIC_TLB_ENTRIES: usize = 256;
/// Descriptor-fetch stall per translation miss: the NIC fetches the entry
/// from the host's table (a host round trip plus the firmware's walk).
const NIC_TLB_MISS: SimDuration = SimDuration::from_us(16);

/// Send-side SRAM state.
#[derive(Default)]
pub(super) struct SendEngine {
    /// Descriptors posted and not yet started, FIFO.
    pub(super) queue: VecDeque<SendJob>,
    /// Encoded packets owed a retransmission, and probes; they go before
    /// any fresh fragment, in order.
    pub(super) retx: VecDeque<(FabricNodeId, Rc<[u8]>)>,
    active: Option<ActiveSend>,
    active_gen: u64,
    /// True while exactly one chain of `sender_step` events exists.
    busy: bool,
    /// Fully injected jobs a late `Reject` may still name.
    pub(super) completed: Completed,
    /// The user-level NIC's translation cache, least recently used first
    /// (empty under BCL).
    tlb: VecDeque<(Asid, u64)>,
}

impl SendEngine {
    /// Make `job` the active send. Zero-length messages and read requests
    /// still send one (empty) fragment; collective contributions are
    /// NIC-resident (the interpreter's accumulator), so their single wire
    /// fragment is assembled in place with no host staging DMA.
    fn activate(&mut self, job: SendJob) {
        self.active_gen += 1;
        let mut active = ActiveSend {
            job,
            gen: self.active_gen,
            staged: VecDeque::new(),
            stage_next: 0,
            staging: false,
            injected: 0,
        };
        if active.job.total_len == 0 {
            active.staged.push_back((0, Vec::new(), None));
        } else if let JobKind::Coll {
            coll_id, ref data, ..
        } = active.job.kind
        {
            let mut wire = Vec::with_capacity(4 + data.len());
            wire.extend_from_slice(&coll_id.to_le_bytes());
            wire.extend_from_slice(data);
            active.stage_next = active.job.total_len;
            active.staged.push_back((0, wire, None));
        }
        self.active = Some(active);
    }

    /// Translate a user-level descriptor's `pages` of `asid`; returns the
    /// misses.
    fn translate(&mut self, asid: Asid, pages: Range<u64>) -> u64 {
        let mut misses = 0;
        for key in pages.map(|page| (asid, page)) {
            if let Some(pos) = self.tlb.iter().position(|k| *k == key) {
                self.tlb.remove(pos);
            } else {
                misses += 1;
                if self.tlb.len() == NIC_TLB_ENTRIES {
                    self.tlb.pop_front();
                }
            }
            self.tlb.push_back(key);
        }
        misses
    }

    /// Pull the job a `Reject` names out of wherever it is: active, queued,
    /// or recently completed. Only a job a receiver can refuse is named: a
    /// read reply carries its requester's id, which may equal one of ours.
    fn take_job(&mut self, msg_id: u32) -> Option<Remembered> {
        let named = |j: &SendJob| j.msg_id == msg_id && j.refusal() != Refusal::Never;
        if self.active.as_ref().is_some_and(|a| named(&a.job)) {
            return self.active.take().map(|a| Remembered::Whole(a.job));
        }
        if let Some(pos) = self.queue.iter().position(named) {
            return self.queue.remove(pos).map(Remembered::Whole);
        }
        self.completed.take(msg_id)
    }

    /// NIC reset: forget everything. Returns the in-progress and queued
    /// sends, in order (their payload staging died with the SRAM); the
    /// completed-job memory and the buffers it held are simply dropped.
    /// Bumping the generation orphans in-flight staging DMA callbacks.
    pub(super) fn wipe(&mut self) -> Vec<SendJob> {
        let old = std::mem::take(self);
        self.active_gen = old.active_gen + 1;
        self.busy = old.busy;
        let active = old.active.map(|a| a.job);
        active.into_iter().chain(old.queue).collect()
    }
}

/// One unit of send-engine work, decided while the state is borrowed and
/// executed outside the borrow.
enum Work {
    /// Nothing to do (queue empty, window closed, staging DMA pending or
    /// node down); `busy` was cleared and whatever changes that re-kicks.
    Idle,
    /// Active send abandoned after a protocol error.
    Dropped,
    /// A new descriptor was activated; charge the fixed cost plus any
    /// translation-miss stall.
    NewJob { trace: TraceId, stall: SimDuration },
    /// Put one encoded packet on the wire: a freshly staged fragment, a
    /// probe, or (`retx`) one the retransmit queue owed.
    Inject { desc: TxDesc, retx: bool },
}

impl McpInner {
    /// Trace identity of a send job. Read-reply jobs are generated NIC-side
    /// at the *target*; their chain belongs to the requesting node, which is
    /// where the reply is headed.
    fn job_trace(&self, job: &SendJob) -> TraceId {
        match job.kind {
            JobKind::RmaReadData => TraceId::new(job.dst_fid.0, job.msg_id),
            _ => self.local_trace(job.msg_id),
        }
    }

    /// Per-packet trace metadata riding the fabric, so switches and links
    /// can attribute hops and faults without parsing protocol headers (and
    /// the identity of the packet's own inject / wire spans). Read-reply
    /// data belongs to the requester's chain, like [`Self::job_trace`].
    pub(super) fn packet_trace(&self, dst: FabricNodeId, header: &WireHeader) -> PacketTrace {
        let origin = match header.kind {
            WireKind::RmaReadData => dst.0,
            _ => self.os.node_id.0,
        };
        PacketTrace {
            origin,
            msg_id: header.msg_id,
            seq: header.seq,
        }
    }

    pub(super) fn kick_sender(self: &Rc<Self>) {
        let idle = !std::mem::replace(&mut self.state.borrow_mut().send.busy, true);
        if idle {
            self.sim.schedule_poll_in(SimDuration::ZERO, self.sender);
        }
    }

    /// [`Self::kick_sender`] for callers that hold the state borrow it takes.
    /// The zero-delay deferral is an event of its own and must stay one:
    /// folding it into the caller would shift every later `(time, seq)`.
    pub(super) fn kick_sender_deferred(self: &Rc<Self>) {
        let me = self.clone();
        self.sim
            .schedule_in(SimDuration::ZERO, move |_| me.kick_sender());
    }

    /// One step of the LANai send loop. Invariant: `busy` is true and
    /// exactly one chain of `sender_step` events exists while it is.
    pub(super) fn sender_step(self: &Rc<Self>) {
        let work = self.next_work(&mut self.state.borrow_mut());
        let step_again_in = |d| {
            self.sim.schedule_poll_in(d, self.sender);
        };
        match work {
            Work::Idle => {}
            // Keep the engine chain alive so queued jobs still go out.
            Work::Dropped => step_again_in(SimDuration::ZERO),
            Work::NewJob { trace, stall } => {
                // Charge the per-message fixed cost (descriptor fetch +
                // reliable-protocol setup), then continue.
                let start = self.sim.now();
                let d = self.cfg.mcp.send_fixed + stall;
                let at = start..start + d;
                self.mt_span(trace, TraceLayer::Mcp, stage::DESCRIPTOR, at, 0, 0);
                step_again_in(d);
            }
            Work::Inject { desc, retx } => {
                let mut mcp_stage = stage::INJECT;
                if retx {
                    self.retx_packets.inc();
                    mcp_stage = stage::RETX;
                }
                let proc = self.cfg.mcp.send_per_frag;
                let wire_bytes = desc.pkt.len() as u64 + FRAMING_BYTES;
                let link = self.fabrics[desc.rail].link_bytes_per_sec();
                let tx = SimDuration::for_bytes(wire_bytes, link);
                if let Some(m) = desc.meta {
                    let trace = TraceId::new(m.origin, m.msg_id);
                    let start = self.sim.now();
                    let wire = start + proc;
                    let pkt = desc.pkt.len() as u64;
                    let frag = pkt - HEADER_BYTES as u64;
                    self.mt_span(trace, TraceLayer::Mcp, mcp_stage, start..wire, m.seq, frag);
                    let at = wire..wire + tx;
                    self.mt_span(trace, TraceLayer::Wire, stage::WIRE_TX, at, m.seq, pkt);
                }
                self.rings.tx.push(&self.sim, proc, desc);
                // The LANai waits out the fragment's wire time before the
                // next step, in the same chain.
                step_again_in(proc + tx);
            }
        }
    }

    /// Pick the next unit of send-engine work. State borrowed. Any violated
    /// protocol-state invariant becomes a counted [`Work::Dropped`] (with a
    /// flight-recorder dump) instead of a firmware panic.
    fn next_work(self: &Rc<Self>, st: &mut McpState) -> Work {
        if self.is_down(st) {
            // Node crashed: the engine stalls; the restart event re-kicks.
            st.send.busy = false;
            return Work::Idle;
        }
        if let Some((dst, pkt)) = st.send.retx.pop_front() {
            // The retx queue stores already-encoded packets, so recover
            // identity from the wire header (only runs after a loss or a
            // timer expiry — off the common path). A probe belongs to no
            // message and is no retransmission; it costs what a fragment
            // costs, so it cannot overtake one.
            let header = WireHeader::decode(&pkt).map(|(h, _)| h);
            let retx = header.is_some_and(|h| h.kind != WireKind::Probe);
            let meta = header.filter(|_| retx).map(|h| self.packet_trace(dst, &h));
            let rail = st.rail_to(dst);
            let desc = TxDesc {
                rail,
                dst,
                pkt,
                meta,
            };
            return Work::Inject { desc, retx };
        }
        let Some(a) = st.send.active.as_mut() else {
            // No active send: start the next queued job, if any.
            let Some(job) = st.send.queue.pop_front() else {
                st.send.busy = false;
                return Work::Idle;
            };
            let trace = self.job_trace(&job);
            let mut stall = SimDuration::ZERO;
            if let JobKind::Message {
                user_pages: Some(p),
            } = &job.kind
            {
                let misses = st.send.translate(p.0, p.1.clone());
                if misses > 0 {
                    self.sim.add_count("mcp.nic_tlb_misses", misses);
                }
                stall = NIC_TLB_MISS * misses;
            }
            st.send.activate(job);
            self.stage_more(st);
            return Work::NewJob { trace, stall };
        };
        let dst = a.job.dst_fid;
        // Without go-back-N (BIP) there is no window to wait for, nothing
        // to stamp, keep or time out.
        let reliable = self.cfg.arch.reliable();
        let mut tx = None;
        if reliable {
            let stream = st.peers.entry(dst.0).or_default();
            let stream = stream.tx_or_open(self.cfg.reliability.window);
            if !stream.can_send() {
                // Closed window or an epoch resync in flight; the ack (or
                // the sync-ack) re-kicks the engine.
                st.send.busy = false;
                return Work::Idle;
            }
            tx = Some(stream);
        }
        let Some((off, data, sram_lease)) = a.staged.pop_front() else {
            // Nothing staged yet.
            if a.staging || a.stage_next < a.job.total_len {
                st.send.busy = false;
                return Work::Idle;
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
        let pkt = match tx {
            Some(tx) => match tx.stamp(&mut header, &data, self.sim.now().as_ns()) {
                Ok(pkt) => pkt,
                // The window was checked open above, so any failure here is
                // a firmware-state inconsistency — counted, not fatal.
                Err(e) => return self.protocol_drop(st, e.reason()),
            },
            None => header.encode(&data),
        };
        let meta = Some(self.packet_trace(dst, &header));
        if !job_done {
            self.stage_more(st);
        } else if let Some(a) = st.send.active.take() {
            // The next job (if any) starts after this fragment's wire
            // time, in the same chain.
            if a.job.notify_sender {
                self.post_send_event(st, &a.job, SendStatus::Ok);
            }
            if let JobKind::Coll { coll_id, .. } = a.job.kind {
                // A collective send left the NIC: its run may now be
                // eligible to complete. Coll jobs are never retried at
                // message level (the interpreter owns recovery), so they
                // skip the completed-job memory.
                self.coll_send_injected(st, (a.job.src_port.0, coll_id));
            } else {
                st.send.completed.remember(a.job);
            }
        }
        let peer = st.peers.entry(dst.0).or_default();
        if reliable {
            self.arm_timer(peer, dst);
        }
        let desc = TxDesc {
            rail: peer.rail,
            dst,
            pkt,
            meta,
        };
        Work::Inject { desc, retx: false }
    }

    /// Abandon the active send after a protocol-state violation: the sender
    /// (if it asked) learns via a Rejected completion, the error is counted
    /// and the flight recorder dumped. State borrowed.
    fn protocol_drop(self: &Rc<Self>, st: &mut McpState, reason: &'static str) -> Work {
        let mut trace = TraceId::NONE;
        if let Some(a) = st.send.active.take() {
            trace = self.job_trace(&a.job);
            if a.job.notify_sender {
                self.post_send_event(st, &a.job, SendStatus::Rejected);
            }
        }
        self.protocol_error(trace, reason);
        Work::Dropped
    }

    fn header_for(job: &SendJob, frag_off: u64, data: &[u8]) -> WireHeader {
        let (kind, offset, total) = match job.kind {
            JobKind::Message { .. } => (WireKind::Data, frag_off, job.total_len),
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
    /// Must be called with the state borrowed.
    fn stage_more(self: &Rc<Self>, st: &mut McpState) {
        let Some(a) = st.send.active.as_mut() else {
            return;
        };
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
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            let mut st = me.state.borrow_mut();
            let Some(a) = st.send.active.as_mut().filter(|a| a.gen == gen) else {
                return; // send was aborted (rejected, wiped) while staging
            };
            // Still the active send, so the job still holds what is read.
            let data =
                read_sg(me.os.memory(), &a.job.segments, off, len).expect("staging DMA faulted");
            a.staging = false;
            a.staged.push_back((off, data, Some(lease)));
            me.stage_more(&mut st);
            drop(st);
            me.kick_sender();
        });
    }

    /// DMA a send-completion event into the job owner's user-space queue.
    pub(super) fn post_send_event(
        self: &Rc<Self>,
        st: &McpState,
        job: &SendJob,
        status: SendStatus,
    ) {
        let msg_id = job.msg_id;
        let ev = Completion::Send(SendEvent { msg_id, status });
        self.post_completion(st, job.src_port, self.job_trace(job), ev);
    }

    /// The receiver refused message `msg_id`: retry it after a delay, or —
    /// on a fatal refusal or once retries run out — fail it to its sender.
    /// A completed job kept only as its [`Nameable`] cannot be re-sent, so
    /// any refusal fails it.
    pub(super) fn on_reject(self: &Rc<Self>, msg_id: u32, fatal: bool) {
        let retry = {
            let mut st = self.state.borrow_mut();
            st.send.take_job(msg_id).and_then(|named| {
                let mut job = match named {
                    Remembered::Whole(job) => job,
                    Remembered::Failable(n) => {
                        self.fail_job(&mut st, n, self.local_trace(msg_id));
                        return None;
                    }
                };
                job.retries += 1;
                if fatal || job.retries > self.cfg.reliability.max_message_retries {
                    let trace = self.job_trace(&job);
                    self.fail_job(&mut st, Nameable::of(&job, false), trace);
                    return None;
                }
                self.sim.add_count("bcl.msg_retries", 1);
                self.mt_instant(self.job_trace(&job), stage::MSG_RETRY);
                // The first injection already posted an Ok completion;
                // retries are silent (only a final failure produces
                // another event).
                job.notify_sender = false;
                Some(job)
            })
        };
        let Some(job) = retry else {
            self.kick_sender(); // active may have been dropped
            return;
        };
        let me = self.clone();
        self.sim
            .schedule_in(self.cfg.reliability.reject_retry_delay, move |_| {
                me.state.borrow_mut().send.queue.push_back(job);
                me.kick_sender();
            });
    }

    /// Fail a refused job to its owner. State borrowed.
    fn fail_job(self: &Rc<Self>, st: &mut McpState, n: Nameable, trace: TraceId) {
        self.sim.add_count("bcl.msg_failed", 1);
        self.mt_instant(trace, stage::MSG_FAILED);
        if n.read {
            st.recv.pending_reads.remove(&n.msg_id);
        }
        let ev = Completion::Send(SendEvent {
            msg_id: n.msg_id,
            status: SendStatus::Rejected,
        });
        self.post_completion(st, n.src_port, trace, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BclConfig;
    use crate::mcp::Mcp;
    use crate::queues::{SystemPool, UserQueues};
    use suca_mem::{PhysMemory, PAGE_SIZE};
    use suca_myrinet::{Myrinet, MyrinetConfig};
    use suca_os::{NodeId, NodeOs, OsCostModel, OsPersonality};
    use suca_sim::{Sim, SimTime};

    const DST: FabricNodeId = FabricNodeId(1);

    /// A fully injected one-page job whose owner already freed the page:
    /// the job's reference is all that keeps the frame alive.
    fn job(mem: &PhysMemory, msg_id: u32, channel: ChannelId, kind: JobKind) -> SendJob {
        let frame = mem.alloc_frame().expect("frame");
        let segments = mem.nic_hold(vec![(frame.base(), PAGE_SIZE)], true);
        mem.free_frame(frame).expect("free");
        SendJob {
            src_port: PortId(0),
            dst_fid: DST,
            dst_port: PortId(0),
            channel,
            msg_id,
            segments,
            total_len: PAGE_SIZE,
            kind,
            retries: 0,
            notify_sender: true,
        }
    }

    /// A one-page message to `channel`.
    fn sent(mem: &PhysMemory, msg_id: u32, channel: ChannelId) -> SendJob {
        job(mem, msg_id, channel, JobKind::Message { user_pages: None })
    }

    #[test]
    fn a_completed_job_keeps_its_buffer_only_while_it_can_be_refused() {
        let mem = PhysMemory::new(1 << 20);
        let mut eng = SendEngine::default();
        // The system channel never refuses retryably: released at once,
        // though the job itself stays nameable by a late fatal `Reject`.
        eng.completed.remember(sent(&mem, 2, ChannelId::SYSTEM));
        assert_eq!(mem.allocated_frames(), 0);
        assert!(matches!(
            eng.take_job(2),
            Some(Remembered::Failable(Nameable {
                msg_id: 2,
                held: false,
                ..
            }))
        ));
        // A normal-channel message may be refused after its completion...
        eng.completed.remember(sent(&mem, 4, ChannelId::normal(0)));
        eng.completed.remember(sent(&mem, 6, ChannelId::normal(1)));
        assert_eq!((mem.allocated_frames(), eng.completed.held.len()), (2, 2));
        // ...and a refusal takes the job, buffer and all, for the retry.
        let Some(Remembered::Whole(retry)) = eng.take_job(4) else {
            panic!("job 4 is remembered whole");
        };
        assert_eq!(retry.segments.len(), 1);
        // An ack that drains another destination settles nothing here.
        eng.completed.settle(FabricNodeId(9));
        assert_eq!(mem.allocated_frames(), 2);
        // One that drains this destination puts job 6 past refusal.
        eng.completed.settle(DST);
        assert_eq!((mem.allocated_frames(), eng.completed.held.len()), (1, 0));
        assert!(eng.take_job(6).is_none() && eng.completed.order.is_empty());
        drop(retry);
        assert_eq!(mem.allocated_frames(), 0);
        assert_eq!(mem.lifetime_violations(), 0);
    }

    #[test]
    fn eviction_and_wipe_release_what_the_completed_memory_held() {
        let mem = PhysMemory::new(4 << 20);
        let mut eng = SendEngine::default();
        for i in 0..COMPLETED_CAP as u32 + 10 {
            eng.completed
                .remember(sent(&mem, 2 * i, ChannelId::normal(0)));
        }
        assert_eq!(mem.allocated_frames(), COMPLETED_CAP as u64);
        assert_eq!(eng.completed.held.len(), COMPLETED_CAP);
        assert!(eng.take_job(0).is_none(), "the oldest were evicted");
        assert!(eng.completed.order.capacity() <= COMPLETED_CAP);
        assert!(eng.wipe().is_empty(), "nothing was queued or active");
        assert_eq!((mem.allocated_frames(), eng.completed.held.len()), (0, 0));
    }

    #[test]
    fn rma_writes_and_read_replies_are_not_remembered() {
        let mem = PhysMemory::new(1 << 20);
        let mut eng = SendEngine::default();
        let open = ChannelId::open(0);
        eng.completed
            .remember(job(&mem, 2, open, JobKind::RmaWrite { offset: 0 }));
        eng.completed
            .remember(job(&mem, 4, open, JobKind::RmaReadData));
        assert_eq!(mem.allocated_frames(), 0, "both buffers released");
        assert!(eng.completed.order.is_empty());
        assert!(eng.take_job(2).is_none() && eng.take_job(4).is_none());
    }

    #[test]
    fn a_read_reply_carrying_a_local_jobs_id_leaves_that_job_nameable() {
        // A reply's id is its requester's, which may equal an id this node
        // handed out.
        let mem = PhysMemory::new(1 << 20);
        let mut eng = SendEngine::default();
        eng.completed.remember(sent(&mem, 8, ChannelId::SYSTEM));
        let mut reply = job(&mem, 8, ChannelId::open(0), JobKind::RmaReadData);
        reply.src_port = PortId(3);
        eng.completed.remember(reply);
        assert!(matches!(
            eng.take_job(8),
            Some(Remembered::Failable(Nameable {
                msg_id: 8,
                src_port: PortId(0),
                ..
            }))
        ));
        assert!(eng.take_job(8).is_none());
    }

    #[test]
    fn a_reject_naming_a_local_id_leaves_a_queued_read_reply_with_that_id() {
        let mem = PhysMemory::new(1 << 20);
        let mut eng = SendEngine::default();
        eng.completed.remember(sent(&mem, 8, ChannelId::SYSTEM));
        eng.queue
            .push_back(job(&mem, 8, ChannelId::open(0), JobKind::RmaReadData));
        assert!(matches!(
            eng.take_job(8),
            Some(Remembered::Failable(Nameable { msg_id: 8, .. }))
        ));
        assert_eq!(eng.queue.len(), 1, "the reply is still queued");
        assert!(eng.take_job(8).is_none());
        assert_eq!(eng.queue.len(), 1);
    }

    #[test]
    fn a_nameable_record_is_no_larger_than_one_word() {
        assert!(std::mem::size_of::<Nameable>() <= std::mem::size_of::<usize>());
    }

    /// Node 0's firmware on a two-node Myrinet with nothing at node 1, and
    /// its port 0's completion queues.
    fn firmware(sim: &Sim) -> (Mcp, Rc<UserQueues>) {
        let fabric = Myrinet::build(sim, 2, MyrinetConfig::dawning3000());
        let mem = PhysMemory::new(1 << 20);
        let personality = OsPersonality::AIX;
        let os = NodeOs::new(sim, NodeId(0), mem, personality, OsCostModel::aix_power3());
        let cfg = BclConfig::dawning3000();
        let mcp = Mcp::new_multi_rail(sim, os, FabricNodeId(0), vec![fabric], cfg);
        let queues = Rc::new(UserQueues::new(sim));
        let pool = Rc::new(SystemPool::new(PAGE_SIZE, Vec::new()));
        mcp.register_port(PortId(0), queues.clone(), pool);
        (mcp, queues)
    }

    #[test]
    fn a_fatal_reject_naming_a_remembered_system_message_fails_it_once() {
        let sim = Sim::new(1);
        let (mcp, queues) = firmware(&sim);
        let mem = mcp.inner.os.memory().clone();
        let mut st = mcp.inner.state.borrow_mut();
        st.send.completed.remember(sent(&mem, 2, ChannelId::SYSTEM));
        drop(st);
        mcp.inner.on_reject(2, true);
        mcp.inner.on_reject(2, true); // forgotten: names nothing now
        sim.run();
        let failed = SendEvent {
            msg_id: 2,
            status: SendStatus::Rejected,
        };
        assert_eq!(queues.pop_send(), Some(failed));
        assert_eq!(queues.pop_send(), None);
        assert_eq!(sim.get_count("bcl.msg_failed"), 1);
        assert_eq!(sim.get_count("bcl.msg_retries"), 0);
    }

    #[test]
    fn a_fatal_reject_naming_a_remembered_read_request_clears_its_read() {
        let sim = Sim::new(1);
        let (mcp, queues) = firmware(&sim);
        let mem = mcp.inner.os.memory().clone();
        let kind = JobKind::RmaReadReq {
            offset: 0,
            len: PAGE_SIZE,
        };
        let mut read = job(&mem, 6, ChannelId::open(0), kind);
        let mut st = mcp.inner.state.borrow_mut();
        st.recv.expect_read(&mut read, PAGE_SIZE);
        st.send.completed.remember(read);
        drop(st);
        assert_eq!(mem.allocated_frames(), 1, "the landing buffer");
        mcp.inner.on_reject(6, true);
        sim.run();
        assert!(mcp.inner.state.borrow().recv.pending_reads.is_empty());
        assert_eq!(mem.allocated_frames(), 0, "released with the read");
        let failed = SendEvent {
            msg_id: 6,
            status: SendStatus::Rejected,
        };
        assert_eq!(queues.pop_send(), Some(failed));
        assert_eq!(queues.pop_send(), None);
        assert_eq!(sim.get_count("bcl.msg_failed"), 1);
    }

    #[test]
    fn a_retryable_reject_restages_a_held_normal_channel_job() {
        let sim = Sim::new(1);
        let (mcp, queues) = firmware(&sim);
        let mem = mcp.inner.os.memory().clone();
        let mut st = mcp.inner.state.borrow_mut();
        st.send
            .completed
            .remember(sent(&mem, 4, ChannelId::normal(0)));
        drop(st);
        mcp.inner.on_reject(4, false);
        assert_eq!(sim.get_count("bcl.msg_retries"), 1);
        // After the retry delay the job is staged from the page again,
        // re-injected, and remembered whole once more; the retry posts no
        // second completion.
        sim.run_until(SimTime::from_ns(1_000_000));
        assert!(sim.get_count("fabric.injected") >= 1);
        assert_eq!(queues.pop_send(), None);
        let mut st = mcp.inner.state.borrow_mut();
        let Some(Remembered::Whole(retried)) = st.send.take_job(4) else {
            panic!("the retried job is remembered whole");
        };
        assert_eq!((retried.retries, retried.segments.len()), (1, 1));
        assert_eq!(mem.lifetime_violations(), 0);
    }
}

//! The EADI-2 endpoint: tagged matching, eager/rendezvous, progress engine.
//!
//! "DAWNING-3000 implements PVM on a middle-level communication library
//! EADI-2. ADI is a standard defined to support the implementation of MPI.
//! EADI-2 extends ADI-2 to fulfil the requirements of PVM implementation.
//! EADI-2 is implemented as an independent library." (§2.1)
//!
//! What ADI-2 needs (for MPICH) plus what PVM adds:
//!
//! * tagged sends/receives with **source and tag matching**, including
//!   wildcards (PVM's `-1` semantics);
//! * an **unexpected-message queue** (eager data that beat the receive);
//! * an **eager/rendezvous switch**: small messages ride the BCL system
//!   channel behind a 24-byte header; large messages negotiate RTS/CTS and
//!   stream header-less **segments over BCL normal channels**, the channel
//!   numbers being the rendezvous context;
//! * non-blocking operations with request handles and a progress engine
//!   pumped from `wait`.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use suca_bcl::{BclNode, BclPort, ChannelId, ChannelKind, ProcAddr, RecvEvent, SendStatus};
use suca_mem::VirtAddr;
use suca_os::OsProcess;
use suca_sim::{ActorCtx, SimDuration};

use crate::header::{EadiHeader, EadiKind, EADI_HEADER};
use crate::universe::Universe;

/// Rendezvous segment size.
const SEGMENT_BYTES: u64 = 64 * 1024;

/// Most segments per rendezvous (bounds channel usage).
const MAX_SEGMENTS: u64 = 8;

/// EADI layer costs. The eager limit is not among them: a payload goes
/// eagerly when it fits one system-channel buffer behind its header.
#[derive(Clone, Debug)]
pub struct EadiConfig {
    /// Sender-side per-message library overhead (queueing, header build).
    pub send_overhead: SimDuration,
    /// Receiver-side per-message overhead (matching, completion).
    pub recv_overhead: SimDuration,
}

impl EadiConfig {
    /// DAWNING-3000 calibration (feeds Table 3 through MPI/PVM).
    pub fn dawning3000() -> EadiConfig {
        EadiConfig {
            send_overhead: SimDuration::from_us_f64(1.10),
            recv_overhead: SimDuration::from_us_f64(1.10),
        }
    }
}

/// Receive request handle.
pub type RecvReq = u64;

/// Send request handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendReq {
    /// Eager send: complete as soon as issued.
    Done,
    /// Rendezvous in flight, identified by its exchange id.
    Rendezvous(u32),
}

/// A completed receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecvDone {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub data: Vec<u8>,
}

struct PostedRecv {
    req: RecvReq,
    src: Option<u32>,
    tag: Option<i32>,
}

enum Unexpected {
    Eager {
        src: u32,
        tag: i32,
        data: Vec<u8>,
    },
    Rts {
        src: u32,
        tag: i32,
        xid: u32,
        total: u64,
    },
}

struct RndvIn {
    req: RecvReq,
    src: u32,
    tag: i32,
    chan_base: u16,
    nsegs: u16,
    parts: Vec<Option<Vec<u8>>>,
    remaining: u16,
    /// Segment receive buffers, taken from the port's pool and given back
    /// at completion.
    bufs: Vec<(VirtAddr, u64)>,
}

struct PendingSend {
    dst_rank: u32,
    data: Vec<u8>,
}

/// A send this endpoint launched, by BCL message id, until its completion.
enum OwnSend {
    /// An eager, RTS or CTS message, staged by `BclPort::send_bytes`.
    Control,
    /// Rendezvous `xid`'s segment, sent from pool buffer `buf` of `len`
    /// bytes.
    Segment { xid: u32, buf: VirtAddr, len: u64 },
}

struct EadiState {
    next_xid: u32,
    next_req: u64,
    next_rid: u32,
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexpected>,
    completed: HashMap<RecvReq, RecvDone>,
    chan_to_rndv: HashMap<u16, u32>,
    rndv: HashMap<u32, RndvIn>,
    pending_sends: HashMap<u32, PendingSend>,
    own_sends: HashMap<u32, OwnSend>,
    segs_left: HashMap<u32, u32>,
    send_done: Vec<u32>,
    chan_used: Vec<bool>,
    /// Rendezvous grants waiting for channels to free up.
    cts_backlog: VecDeque<(RecvReq, u32, i32, u32, u64)>,
    /// Completions for sends launched outside the endpoint on the same
    /// port (NIC-offloaded collectives): msg id → status. The progress
    /// engine must not swallow these.
    ext_done: HashMap<u32, SendStatus>,
}

/// One process's EADI endpoint.
pub struct EadiEndpoint {
    port: BclPort,
    uni: Universe,
    rank: u32,
    cfg: EadiConfig,
    /// Largest payload sent eagerly: a system-channel buffer less the
    /// header.
    eager_limit: u64,
    st: RefCell<EadiState>,
}

impl EadiEndpoint {
    /// Open a BCL port and join the universe as `rank`.
    pub fn create(
        ctx: &mut ActorCtx,
        node: &Rc<BclNode>,
        proc: &OsProcess,
        uni: Universe,
        rank: u32,
        cfg: EadiConfig,
    ) -> EadiEndpoint {
        let port = BclPort::open(ctx, node, proc).expect("EADI port open");
        let n_chans = node.config().limits.normal_channels as usize;
        let eager_limit = node
            .config()
            .system_pool
            .buffer_bytes
            .saturating_sub(EADI_HEADER as u64);
        uni.register_and_wait(ctx, rank, port.addr());
        EadiEndpoint {
            port,
            uni,
            rank,
            cfg,
            eager_limit,
            st: RefCell::new(EadiState {
                next_xid: 1,
                next_req: 1,
                next_rid: 1,
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                completed: HashMap::new(),
                chan_to_rndv: HashMap::new(),
                rndv: HashMap::new(),
                pending_sends: HashMap::new(),
                own_sends: HashMap::new(),
                segs_left: HashMap::new(),
                send_done: Vec::new(),
                chan_used: vec![false; n_chans],
                cts_backlog: VecDeque::new(),
                ext_done: HashMap::new(),
            }),
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> u32 {
        self.uni.size()
    }

    /// The underlying BCL port (observability).
    pub fn port(&self) -> &BclPort {
        &self.port
    }

    /// Cluster-wide port address of `rank` (collective plan compilation).
    pub fn addr_of(&self, rank: u32) -> ProcAddr {
        self.uni.addr_of(rank)
    }

    /// Block until the completion of a message launched on this port
    /// outside the endpoint's own send paths (a NIC-offloaded collective)
    /// arrives, pumping the progress engine meanwhile. Returns its status.
    pub fn wait_external(&self, ctx: &mut ActorCtx, msg_id: u32) -> SendStatus {
        loop {
            if let Some(status) = self.st.borrow_mut().ext_done.remove(&msg_id) {
                return status;
            }
            self.pump_blocking(ctx);
        }
    }

    // ----------------------------------------------------------------- send

    /// Send an eager, RTS or CTS message to `dst_rank` on the system
    /// channel, staged in the port's pool.
    fn send_control(&self, ctx: &mut ActorCtx, dst_rank: u32, header: EadiHeader, payload: &[u8]) {
        let dst = self.uni.addr_of(dst_rank);
        let wire = header.encode(payload);
        let msg_id = self
            .port
            .send_bytes(ctx, dst, ChannelId::SYSTEM, &wire)
            .expect("EADI control send");
        self.st
            .borrow_mut()
            .own_sends
            .insert(msg_id, OwnSend::Control);
    }

    /// Blocking tagged send.
    pub fn send(&self, ctx: &mut ActorCtx, dst_rank: u32, tag: i32, data: &[u8]) {
        let req = self.isend(ctx, dst_rank, tag, data);
        self.wait_send(ctx, req);
    }

    /// Non-blocking tagged send; complete via [`EadiEndpoint::wait_send`].
    pub fn isend(&self, ctx: &mut ActorCtx, dst_rank: u32, tag: i32, data: &[u8]) -> SendReq {
        ctx.sleep(self.cfg.send_overhead);
        if data.len() as u64 <= self.eager_limit {
            // Eager: header + payload on the system channel.
            let header = EadiHeader {
                kind: EadiKind::Eager,
                tag,
                src_rank: self.rank,
                xid: 0,
                total_len: data.len() as u32,
                aux: 0,
            };
            self.send_control(ctx, dst_rank, header, data);
            SendReq::Done
        } else {
            // Rendezvous: RTS now, data when CTS arrives.
            let xid = {
                let mut st = self.st.borrow_mut();
                let xid = st.next_xid;
                st.next_xid += 1;
                st.pending_sends.insert(
                    xid,
                    PendingSend {
                        dst_rank,
                        data: data.to_vec(),
                    },
                );
                xid
            };
            let header = EadiHeader {
                kind: EadiKind::Rts,
                tag,
                src_rank: self.rank,
                xid,
                total_len: data.len() as u32,
                aux: 0,
            };
            self.send_control(ctx, dst_rank, header, b"");
            SendReq::Rendezvous(xid)
        }
    }

    /// Block until a send request completes (buffer reusable, data on wire).
    pub fn wait_send(&self, ctx: &mut ActorCtx, req: SendReq) {
        let SendReq::Rendezvous(xid) = req else {
            return;
        };
        loop {
            {
                let mut st = self.st.borrow_mut();
                if let Some(pos) = st.send_done.iter().position(|x| *x == xid) {
                    st.send_done.swap_remove(pos);
                    return;
                }
            }
            self.pump_blocking(ctx);
        }
    }

    // ----------------------------------------------------------------- recv

    /// Blocking tagged receive with optional wildcards.
    pub fn recv(&self, ctx: &mut ActorCtx, src: Option<u32>, tag: Option<i32>) -> RecvDone {
        let req = self.irecv(ctx, src, tag);
        self.wait(ctx, req)
    }

    /// Post a non-blocking receive.
    pub fn irecv(&self, ctx: &mut ActorCtx, src: Option<u32>, tag: Option<i32>) -> RecvReq {
        let req = {
            let mut st = self.st.borrow_mut();
            let req = st.next_req;
            st.next_req += 1;
            req
        };
        // Check the unexpected queue first (in arrival order).
        let matched = {
            let mut st = self.st.borrow_mut();
            let pos = st.unexpected.iter().position(|u| {
                let (usrc, utag) = match u {
                    Unexpected::Eager { src, tag, .. } | Unexpected::Rts { src, tag, .. } => {
                        (*src, *tag)
                    }
                };
                src.is_none_or(|s| s == usrc) && tag.is_none_or(|t| t == utag)
            });
            pos.and_then(|p| st.unexpected.remove(p))
        };
        match matched {
            Some(Unexpected::Eager { src, tag, data }) => {
                self.st
                    .borrow_mut()
                    .completed
                    .insert(req, RecvDone { src, tag, data });
            }
            Some(Unexpected::Rts {
                src,
                tag,
                xid,
                total,
            }) => {
                self.grant_cts(ctx, req, src, tag, xid, total);
            }
            None => {
                self.st
                    .borrow_mut()
                    .posted
                    .push_back(PostedRecv { req, src, tag });
            }
        }
        req
    }

    /// Block until a receive request completes.
    pub fn wait(&self, ctx: &mut ActorCtx, req: RecvReq) -> RecvDone {
        loop {
            if let Some(done) = self.st.borrow_mut().completed.remove(&req) {
                ctx.sleep(self.cfg.recv_overhead);
                return done;
            }
            self.pump_blocking(ctx);
        }
    }

    /// Cancel a posted (unmatched) receive request. Returns `true` if it
    /// was still pending; `false` if it already matched (in which case the
    /// completion must still be consumed via `wait`/`test`).
    pub fn cancel_recv(&self, req: RecvReq) -> bool {
        let mut st = self.st.borrow_mut();
        let before = st.posted.len();
        st.posted.retain(|p| p.req != req);
        st.posted.len() != before
    }

    /// Non-blocking test of a receive request.
    pub fn test(&self, ctx: &mut ActorCtx, req: RecvReq) -> Option<RecvDone> {
        self.try_progress(ctx);
        let done = self.st.borrow_mut().completed.remove(&req);
        if done.is_some() {
            ctx.sleep(self.cfg.recv_overhead);
        }
        done
    }

    // ------------------------------------------------------------- progress

    /// Drain all pending completion events without blocking.
    pub fn try_progress(&self, ctx: &mut ActorCtx) {
        while let Some(ev) = self.port.poll_recv(ctx) {
            self.handle_recv_event(ctx, ev);
        }
        self.drain_send_events(ctx);
    }

    fn pump_blocking(&self, ctx: &mut ActorCtx) {
        self.port.wait_event(ctx);
        self.try_progress(ctx);
    }

    fn drain_send_events(&self, ctx: &mut ActorCtx) {
        while let Some(sev) = self.port.poll_send(ctx) {
            let mut st = self.st.borrow_mut();
            match st.own_sends.remove(&sev.msg_id) {
                // A completion of a message the endpoint never sent belongs
                // to an externally launched one (offloaded collective):
                // park it for `wait_external` instead of dropping it.
                None => {
                    st.ext_done.insert(sev.msg_id, sev.status);
                }
                // The port's pool took the staging buffer back already.
                Some(OwnSend::Control) => {}
                Some(OwnSend::Segment { xid, buf, len }) => {
                    self.port.give_buffer(buf, len);
                    let left = st.segs_left.get_mut(&xid).expect("segment accounting");
                    *left -= 1;
                    if *left == 0 {
                        st.segs_left.remove(&xid);
                        st.pending_sends.remove(&xid);
                        st.send_done.push(xid);
                    }
                }
            }
        }
    }

    fn handle_recv_event(&self, ctx: &mut ActorCtx, ev: RecvEvent) {
        match ev.channel.kind {
            ChannelKind::System => {
                let raw = self.port.recv_bytes(ctx, &ev).expect("system payload");
                let Some((h, payload)) = EadiHeader::decode(&raw) else {
                    ctx.sim().add_count("eadi.malformed", 1);
                    return;
                };
                match h.kind {
                    EadiKind::Eager => self.on_eager(h, payload.to_vec()),
                    EadiKind::Rts => self.on_rts(ctx, h),
                    EadiKind::Cts => self.on_cts(ctx, h),
                }
            }
            ChannelKind::Normal => {
                let data = self.port.recv_bytes(ctx, &ev).expect("segment payload");
                self.on_segment(ctx, ev.channel.index, data);
            }
            ChannelKind::Open => {
                ctx.sim().add_count("eadi.unexpected_open_event", 1);
            }
        }
    }

    fn match_posted(&self, src: u32, tag: i32) -> Option<RecvReq> {
        let mut st = self.st.borrow_mut();
        let pos = st
            .posted
            .iter()
            .position(|p| p.src.is_none_or(|s| s == src) && p.tag.is_none_or(|t| t == tag))?;
        Some(st.posted.remove(pos).expect("position valid").req)
    }

    fn on_eager(&self, h: EadiHeader, data: Vec<u8>) {
        debug_assert_eq!(data.len(), h.total_len as usize);
        match self.match_posted(h.src_rank, h.tag) {
            Some(req) => {
                self.st.borrow_mut().completed.insert(
                    req,
                    RecvDone {
                        src: h.src_rank,
                        tag: h.tag,
                        data,
                    },
                );
            }
            None => self
                .st
                .borrow_mut()
                .unexpected
                .push_back(Unexpected::Eager {
                    src: h.src_rank,
                    tag: h.tag,
                    data,
                }),
        }
    }

    fn on_rts(&self, ctx: &mut ActorCtx, h: EadiHeader) {
        match self.match_posted(h.src_rank, h.tag) {
            Some(req) => self.grant_cts(ctx, req, h.src_rank, h.tag, h.xid, h.total_len as u64),
            None => self.st.borrow_mut().unexpected.push_back(Unexpected::Rts {
                src: h.src_rank,
                tag: h.tag,
                xid: h.xid,
                total: h.total_len as u64,
            }),
        }
    }

    fn segmentation(&self, total: u64) -> (u16, u64) {
        let nsegs = total.div_ceil(SEGMENT_BYTES).clamp(1, MAX_SEGMENTS) as u16;
        let seg = total.div_ceil(nsegs as u64);
        (nsegs, seg)
    }

    /// Allocate channels, post segment buffers, and send CTS.
    fn grant_cts(
        &self,
        ctx: &mut ActorCtx,
        req: RecvReq,
        src: u32,
        tag: i32,
        xid: u32,
        total: u64,
    ) {
        let (nsegs, seg) = self.segmentation(total);
        // Already-pinned pool buffers where the port has them.
        let bufs: Vec<(VirtAddr, u64)> = (0..nsegs)
            .map(|i| {
                let this_len = seg.min(total - u64::from(i) * seg).max(1);
                let buf = self.port.take_buffer(this_len).expect("segment buffer");
                (buf, this_len)
            })
            .collect();
        let chan_base = {
            let mut st = self.st.borrow_mut();
            let Some(base) = find_free_run(&st.chan_used, nsegs as usize) else {
                // All channels busy with other transfers: grant later, when
                // a rendezvous completes and frees its run.
                st.cts_backlog.push_back((req, src, tag, xid, total));
                for (buf, len) in bufs {
                    self.port.give_buffer(buf, len);
                }
                return;
            };
            for c in base..base + nsegs as usize {
                st.chan_used[c] = true;
            }
            let rid = st.next_rid;
            st.next_rid += 1;
            st.rndv.insert(
                rid,
                RndvIn {
                    req,
                    src,
                    tag,
                    chan_base: base as u16,
                    nsegs,
                    parts: (0..nsegs).map(|_| None).collect(),
                    remaining: nsegs,
                    bufs: bufs.clone(),
                },
            );
            for i in 0..nsegs {
                st.chan_to_rndv.insert(base as u16 + i, rid);
            }
            base as u16
        };
        // Post one buffer per segment.
        for (i, &(buf, len)) in (0..).zip(&bufs) {
            self.port
                .post_recv_at(ctx, chan_base + i, buf, len)
                .expect("post rendezvous segment");
        }
        // CTS back to the sender.
        let header = EadiHeader {
            kind: EadiKind::Cts,
            tag,
            src_rank: self.rank,
            xid,
            total_len: total as u32,
            aux: u32::from(chan_base),
        };
        self.send_control(ctx, src, header, b"");
    }

    /// Sender side: CTS arrived — stream the segments.
    fn on_cts(&self, ctx: &mut ActorCtx, h: EadiHeader) {
        let (dst_rank, data) = {
            let st = self.st.borrow();
            let Some(p) = st.pending_sends.get(&h.xid) else {
                ctx.sim().add_count("eadi.orphan_cts", 1);
                return;
            };
            (p.dst_rank, p.data.clone())
        };
        let total = data.len() as u64;
        let (nsegs, seg) = self.segmentation(total);
        let chan_base = h.aux as u16;
        let dst = self.uni.addr_of(dst_rank);
        self.st
            .borrow_mut()
            .segs_left
            .insert(h.xid, u32::from(nsegs));
        for i in 0..nsegs {
            let off = u64::from(i) * seg;
            let this_len = seg.min(total - off);
            let buf = self.port.take_buffer(this_len).expect("segment buffer");
            self.port
                .write_buffer(buf, &data[off as usize..(off + this_len) as usize])
                .expect("stage segment");
            let msg_id = self
                .port
                .send(ctx, dst, ChannelId::normal(chan_base + i), buf, this_len)
                .expect("segment send");
            let seg = OwnSend::Segment {
                xid: h.xid,
                buf,
                len: this_len,
            };
            self.st.borrow_mut().own_sends.insert(msg_id, seg);
        }
    }

    /// Receiver side: a rendezvous segment landed.
    fn on_segment(&self, ctx: &mut ActorCtx, chan: u16, data: Vec<u8>) {
        let backlogged = {
            let mut st = self.st.borrow_mut();
            let Some(&rid) = st.chan_to_rndv.get(&chan) else {
                // Not a rendezvous channel we know — drop loudly in counters.
                return;
            };
            let r = st.rndv.get_mut(&rid).expect("rndv record");
            let idx = (chan - r.chan_base) as usize;
            debug_assert!(r.parts[idx].is_none(), "segment delivered twice");
            r.parts[idx] = Some(data);
            r.remaining -= 1;
            if r.remaining > 0 {
                None
            } else {
                let r = st.rndv.remove(&rid).expect("present");
                for i in 0..r.nsegs {
                    st.chan_to_rndv.remove(&(r.chan_base + i));
                    st.chan_used[(r.chan_base + i) as usize] = false;
                }
                for &(buf, len) in &r.bufs {
                    self.port.give_buffer(buf, len);
                }
                let mut data = Vec::new();
                for part in r.parts {
                    data.extend_from_slice(&part.expect("all parts present"));
                }
                st.completed.insert(
                    r.req,
                    RecvDone {
                        src: r.src,
                        tag: r.tag,
                        data,
                    },
                );
                // Channels just freed: serve one queued grant.
                st.cts_backlog.pop_front()
            }
        };
        if let Some((req, src, tag, xid, total)) = backlogged {
            self.grant_cts(ctx, req, src, tag, xid, total);
        }
    }
}

/// First index of a run of `n` false entries, if any.
fn find_free_run(used: &[bool], n: usize) -> Option<usize> {
    let mut run = 0;
    for (i, &u) in used.iter().enumerate() {
        if u {
            run = 0;
        } else {
            run += 1;
            if run == n {
                return Some(i + 1 - n);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_cluster::ClusterSpec;
    use suca_sim::RunOutcome;

    /// Every completion of the endpoint's own sends — eager, RTS, CTS and
    /// segments — is its own: none is parked for `wait_external`.
    #[test]
    fn own_completions_are_never_parked_as_external() {
        const EAGER: u32 = 200;
        let cluster = ClusterSpec::dawning3000(2).with_trace_sampling(0).build();
        let sim = cluster.sim.clone();
        let uni = Universe::new(&sim, 2);
        for rank in 0..2 {
            let uni = uni.clone();
            cluster.spawn_process(rank, format!("rank{rank}"), move |ctx, env| {
                let cfg = EadiConfig::dawning3000();
                let ep = EadiEndpoint::create(ctx, &env.node.bcl, &env.proc, uni, rank, cfg);
                let peer = 1 - rank;
                if rank == 0 {
                    for i in 0..EAGER {
                        ep.send(ctx, peer, 1, &i.to_le_bytes());
                    }
                    ep.send(ctx, peer, 2, &[7; 20_000]);
                } else {
                    for i in 0..EAGER {
                        assert_eq!(ep.recv(ctx, Some(peer), Some(1)).data, i.to_le_bytes());
                    }
                    assert_eq!(ep.recv(ctx, Some(peer), Some(2)).data, [7; 20_000]);
                }
                // Both ranks sent: an ack each way, then drain what is left.
                ep.send(ctx, peer, 3, b"done");
                ep.recv(ctx, Some(peer), Some(3));
                ctx.sleep(SimDuration::from_us(500));
                ep.try_progress(ctx);
                let st = ep.st.borrow();
                assert!(st.ext_done.is_empty(), "rank {rank}: own completion parked");
                assert!(st.own_sends.is_empty(), "rank {rank}: completion not seen");
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn free_run_finder() {
        assert_eq!(find_free_run(&[false, false, true, false], 2), Some(0));
        assert_eq!(find_free_run(&[true, false, false, false], 3), Some(1));
        assert_eq!(find_free_run(&[true, false, true, false], 2), None);
        assert_eq!(find_free_run(&[], 1), None);
    }
}

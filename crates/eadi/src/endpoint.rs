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

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use suca_bcl::{BclNode, BclPort, ChannelId, ChannelKind, ProcAddr, RecvEvent, SendStatus};
use suca_mem::VirtAddr;
use suca_os::OsProcess;
use suca_sim::{ActorCtx, MutexExt, SimDuration};

use crate::header::{EadiHeader, EadiKind, EADI_HEADER};
use crate::universe::Universe;

/// EADI tunables and layer costs.
#[derive(Clone, Debug)]
pub struct EadiConfig {
    /// Largest payload sent eagerly (must fit a system buffer with header).
    pub eager_max: u64,
    /// Rendezvous segment size.
    pub segment_bytes: u64,
    /// Max segments per rendezvous (bounds channel usage).
    pub max_segments: u16,
    /// Sender-side per-message library overhead (queueing, header build).
    pub send_overhead: SimDuration,
    /// Receiver-side per-message overhead (matching, completion).
    pub recv_overhead: SimDuration,
}

impl EadiConfig {
    /// DAWNING-3000 calibration (feeds Table 3 through MPI/PVM).
    pub fn dawning3000() -> EadiConfig {
        EadiConfig {
            eager_max: 4096 - EADI_HEADER as u64,
            segment_bytes: 64 * 1024,
            max_segments: 8,
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
    /// Segment receive buffers to recycle at completion (kept pinned and
    /// reused across transfers, like a real MPI's registered-buffer cache).
    bufs: Vec<(VirtAddr, u64)>,
}

struct PendingSend {
    dst_rank: u32,
    data: Vec<u8>,
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
    seg_to_xid: HashMap<u32, u32>,
    segs_left: HashMap<u32, u32>,
    send_done: Vec<u32>,
    chan_used: Vec<bool>,
    /// Rendezvous grants waiting for channels to free up.
    cts_backlog: VecDeque<(RecvReq, u32, i32, u32, u64)>,
    /// Recycled staging buffers by size class (bytes, rounded to 4 KiB).
    buf_pool: HashMap<u64, Vec<VirtAddr>>,
    /// BCL msg id → staging buffer to recycle on send completion.
    buf_recycle: HashMap<u32, (VirtAddr, u64)>,
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
    st: Mutex<EadiState>,
}

impl EadiEndpoint {
    /// Open a BCL port and join the universe as `rank`.
    pub fn create(
        ctx: &mut ActorCtx,
        node: &Arc<BclNode>,
        proc: &OsProcess,
        uni: Universe,
        rank: u32,
        cfg: EadiConfig,
    ) -> EadiEndpoint {
        let port = BclPort::open(ctx, node, proc).expect("EADI port open");
        let n_chans = node.config().limits.normal_channels as usize;
        uni.register_and_wait(ctx, rank, port.addr());
        EadiEndpoint {
            port,
            uni,
            rank,
            cfg,
            st: Mutex::new(EadiState {
                next_xid: 1,
                next_req: 1,
                next_rid: 1,
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                completed: HashMap::new(),
                chan_to_rndv: HashMap::new(),
                rndv: HashMap::new(),
                pending_sends: HashMap::new(),
                seg_to_xid: HashMap::new(),
                segs_left: HashMap::new(),
                send_done: Vec::new(),
                chan_used: vec![false; n_chans],
                cts_backlog: VecDeque::new(),
                buf_pool: HashMap::new(),
                buf_recycle: HashMap::new(),
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
            if let Some(status) = self.st.locked().ext_done.remove(&msg_id) {
                return status;
            }
            self.pump_blocking(ctx);
        }
    }

    // -------------------------------------------------------------- buffers

    fn class_of(len: u64) -> u64 {
        len.max(1).div_ceil(4096) * 4096
    }

    fn take_buf(&self, len: u64) -> VirtAddr {
        let class = Self::class_of(len);
        let recycled = self.st.locked().buf_pool.get_mut(&class).and_then(Vec::pop);
        recycled.unwrap_or_else(|| self.port.alloc_buffer(class).expect("EADI staging buffer"))
    }

    fn recycle_on_completion(&self, msg_id: u32, buf: VirtAddr, len: u64) {
        self.st
            .locked()
            .buf_recycle
            .insert(msg_id, (buf, Self::class_of(len)));
    }

    // ----------------------------------------------------------------- send

    /// Blocking tagged send.
    pub fn send(&self, ctx: &mut ActorCtx, dst_rank: u32, tag: i32, data: &[u8]) {
        let req = self.isend(ctx, dst_rank, tag, data);
        self.wait_send(ctx, req);
    }

    /// Non-blocking tagged send; complete via [`EadiEndpoint::wait_send`].
    pub fn isend(&self, ctx: &mut ActorCtx, dst_rank: u32, tag: i32, data: &[u8]) -> SendReq {
        ctx.sleep(self.cfg.send_overhead);
        let dst = self.uni.addr_of(dst_rank);
        if data.len() as u64 <= self.cfg.eager_max {
            // Eager: header + payload on the system channel.
            let header = EadiHeader {
                kind: EadiKind::Eager,
                tag,
                src_rank: self.rank,
                xid: 0,
                total_len: data.len() as u32,
                aux: 0,
            };
            let wire = header.encode(data);
            let buf = self.take_buf(wire.len() as u64);
            self.port.write_buffer(buf, &wire).expect("stage eager");
            let msg_id = self
                .port
                .send(ctx, dst, ChannelId::SYSTEM, buf, wire.len() as u64)
                .expect("eager send");
            self.recycle_on_completion(msg_id, buf, wire.len() as u64);
            SendReq::Done
        } else {
            // Rendezvous: RTS now, data when CTS arrives.
            let xid = {
                let mut st = self.st.locked();
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
            let wire = header.encode(b"");
            let buf = self.take_buf(wire.len() as u64);
            self.port.write_buffer(buf, &wire).expect("stage rts");
            let msg_id = self
                .port
                .send(ctx, dst, ChannelId::SYSTEM, buf, wire.len() as u64)
                .expect("rts send");
            self.recycle_on_completion(msg_id, buf, wire.len() as u64);
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
                let mut st = self.st.locked();
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
            let mut st = self.st.locked();
            let req = st.next_req;
            st.next_req += 1;
            req
        };
        // Check the unexpected queue first (in arrival order).
        let matched = {
            let mut st = self.st.locked();
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
                    .locked()
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
                    .locked()
                    .posted
                    .push_back(PostedRecv { req, src, tag });
            }
        }
        req
    }

    /// Block until a receive request completes.
    pub fn wait(&self, ctx: &mut ActorCtx, req: RecvReq) -> RecvDone {
        loop {
            if let Some(done) = self.st.locked().completed.remove(&req) {
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
        let mut st = self.st.locked();
        let before = st.posted.len();
        st.posted.retain(|p| p.req != req);
        st.posted.len() != before
    }

    /// Non-blocking test of a receive request.
    pub fn test(&self, ctx: &mut ActorCtx, req: RecvReq) -> Option<RecvDone> {
        self.try_progress(ctx);
        let done = self.st.locked().completed.remove(&req);
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
            let mut st = self.st.locked();
            // A completion the endpoint never staged a buffer for belongs
            // to an externally launched message (offloaded collective):
            // park it for `wait_external` instead of dropping it.
            if !st.buf_recycle.contains_key(&sev.msg_id) && !st.seg_to_xid.contains_key(&sev.msg_id)
            {
                st.ext_done.insert(sev.msg_id, sev.status);
                continue;
            }
            if let Some((buf, class)) = st.buf_recycle.remove(&sev.msg_id) {
                st.buf_pool.entry(class).or_default().push(buf);
            }
            if let Some(xid) = st.seg_to_xid.remove(&sev.msg_id) {
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
        let mut st = self.st.locked();
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
                self.st.locked().completed.insert(
                    req,
                    RecvDone {
                        src: h.src_rank,
                        tag: h.tag,
                        data,
                    },
                );
            }
            None => self.st.locked().unexpected.push_back(Unexpected::Eager {
                src: h.src_rank,
                tag: h.tag,
                data,
            }),
        }
    }

    fn on_rts(&self, ctx: &mut ActorCtx, h: EadiHeader) {
        match self.match_posted(h.src_rank, h.tag) {
            Some(req) => self.grant_cts(ctx, req, h.src_rank, h.tag, h.xid, h.total_len as u64),
            None => self.st.locked().unexpected.push_back(Unexpected::Rts {
                src: h.src_rank,
                tag: h.tag,
                xid: h.xid,
                total: h.total_len as u64,
            }),
        }
    }

    fn segmentation(&self, total: u64) -> (u16, u64) {
        let nsegs = total
            .div_ceil(self.cfg.segment_bytes)
            .min(self.cfg.max_segments as u64)
            .max(1) as u16;
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
        // Recycled, already-pinned segment buffers where possible.
        let bufs: Vec<(VirtAddr, u64)> = (0..nsegs)
            .map(|i| {
                let this_len = seg.min(total - u64::from(i) * seg).max(1);
                (self.take_buf(this_len), Self::class_of(this_len))
            })
            .collect();
        let chan_base = {
            let mut st = self.st.locked();
            let Some(base) = find_free_run(&st.chan_used, nsegs as usize) else {
                // All channels busy with other transfers: grant later, when
                // a rendezvous completes and frees its run.
                st.cts_backlog.push_back((req, src, tag, xid, total));
                for (buf, class) in bufs {
                    st.buf_pool.entry(class).or_default().push(buf);
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
        for i in 0..nsegs {
            let this_len = seg.min(total - u64::from(i) * seg);
            self.port
                .post_recv_at(ctx, chan_base + i, bufs[i as usize].0, this_len.max(1))
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
        let wire = header.encode(b"");
        let buf = self.take_buf(wire.len() as u64);
        self.port.write_buffer(buf, &wire).expect("stage cts");
        let dst = self.uni.addr_of(src);
        let msg_id = self
            .port
            .send(ctx, dst, ChannelId::SYSTEM, buf, wire.len() as u64)
            .expect("cts send");
        self.recycle_on_completion(msg_id, buf, wire.len() as u64);
    }

    /// Sender side: CTS arrived — stream the segments.
    fn on_cts(&self, ctx: &mut ActorCtx, h: EadiHeader) {
        let (dst_rank, data) = {
            let st = self.st.locked();
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
        self.st.locked().segs_left.insert(h.xid, u32::from(nsegs));
        for i in 0..nsegs {
            let off = u64::from(i) * seg;
            let this_len = seg.min(total - off);
            let buf = self.take_buf(this_len);
            self.port
                .write_buffer(buf, &data[off as usize..(off + this_len) as usize])
                .expect("stage segment");
            let msg_id = self
                .port
                .send(ctx, dst, ChannelId::normal(chan_base + i), buf, this_len)
                .expect("segment send");
            let mut st = self.st.locked();
            st.seg_to_xid.insert(msg_id, h.xid);
            st.buf_recycle
                .insert(msg_id, (buf, Self::class_of(this_len)));
        }
    }

    /// Receiver side: a rendezvous segment landed.
    fn on_segment(&self, ctx: &mut ActorCtx, chan: u16, data: Vec<u8>) {
        let backlogged = {
            let mut st = self.st.locked();
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
                for (buf, class) in &r.bufs {
                    st.buf_pool.entry(*class).or_default().push(*buf);
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

    #[test]
    fn free_run_finder() {
        assert_eq!(find_free_run(&[false, false, true, false], 2), Some(0));
        assert_eq!(find_free_run(&[true, false, false, false], 3), Some(1));
        assert_eq!(find_free_run(&[true, false, true, false], 2), None);
        assert_eq!(find_free_run(&[], 1), None);
    }
}

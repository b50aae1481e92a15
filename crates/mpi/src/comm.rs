//! The MPI communicator: point-to-point over EADI-2.
//!
//! DAWNING-3000's MPI is MPICH retargeted at EADI-2 (paper Fig. 1); our
//! layer mirrors that: a thin veneer that adds MPI envelope semantics and
//! per-call overhead, delegating matching and transport to EADI. Collectives
//! live in [`crate::collectives`] (the paper's "All other collective message
//! passing should be implemented in the higher level software"): barrier,
//! broadcast and allreduce are one plan each with two executors, the NIC's
//! plan interpreter and the host walking the plan over point-to-point
//! ([`crate::offload`]).

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::BclNode;
use suca_eadi::{EadiConfig, EadiEndpoint, RecvReq, SendReq, Universe};
use suca_os::OsProcess;
use suca_sim::{ActorCtx, SimDuration};

/// Wildcard source (like `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (like `MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;

/// Tag space reserved for collectives (user tags must be ≥ 0).
pub(crate) const COLLECTIVE_TAG_BASE: i32 = -1000;

/// MPI layer costs.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    /// Per-call overhead on the sending side (envelope build, argument
    /// checks). With the EADI costs this reproduces Table 3's MPI deltas.
    pub send_overhead: SimDuration,
    /// Per-call overhead on the receiving side (status fill).
    pub recv_overhead: SimDuration,
    /// Which executor runs the barrier/bcast/allreduce plans: the NIC's
    /// plan interpreter when the operands are eligible (see
    /// [`crate::offload`]), or, when `false`, the host everywhere. Both
    /// run the same plan.
    pub offload_collectives: bool,
    /// EADI configuration underneath.
    pub eadi: EadiConfig,
}

impl MpiConfig {
    /// DAWNING-3000 calibration.
    pub fn dawning3000() -> MpiConfig {
        MpiConfig {
            send_overhead: SimDuration::from_us_f64(0.45),
            recv_overhead: SimDuration::from_us_f64(0.45),
            offload_collectives: true,
            eadi: EadiConfig::dawning3000(),
        }
    }
}

/// Completed receive with its envelope (like `MPI_Status` + buffer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// An MPI process's communicator handle (think `MPI_COMM_WORLD`).
pub struct Comm {
    pub(crate) eadi: EadiEndpoint,
    pub(crate) cfg: MpiConfig,
    /// Per-communicator collective sequence number (isolates successive
    /// collectives' traffic in the reserved tag space).
    pub(crate) coll_seq: RefCell<i32>,
    /// Fabric this rank's NIC sits on — keys collective plan selection.
    pub(crate) fabric: &'static str,
    /// Largest NIC-offloadable collective payload (whole `f64` lanes in
    /// one fragment), captured from the NIC at init.
    pub(crate) max_coll_payload: u64,
    /// Next collective id. Every rank issues collectives in the same
    /// order, so the local counter yields the same id cluster-wide.
    pub(crate) coll_id: RefCell<u32>,
}

impl Comm {
    /// Initialize this process's MPI world membership (`MPI_Init`): opens
    /// the BCL port, joins the universe, blocks until all ranks are in.
    pub fn init(
        ctx: &mut ActorCtx,
        node: &Rc<BclNode>,
        proc: &OsProcess,
        universe: Universe,
        rank: u32,
        cfg: MpiConfig,
    ) -> Comm {
        let eadi = EadiEndpoint::create(ctx, node, proc, universe, rank, cfg.eadi.clone());
        let max_coll_payload = (node.mcp.frag_cap().saturating_sub(4) / 8) * 8;
        Comm {
            eadi,
            cfg,
            coll_seq: RefCell::new(0),
            fabric: node.fabric_name(),
            max_coll_payload,
            coll_id: RefCell::new(1),
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> u32 {
        self.eadi.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.eadi.size()
    }

    /// Sanitize a user-supplied tag. Negative user tags would collide with
    /// the reserved collective tag space and corrupt collective matching;
    /// instead of panicking mid-job we count the violation, trip the flight
    /// recorder once, and clear the sign bit so the message still flows in
    /// user space (a matching misuse on the receiver side sees the same
    /// sanitized value).
    fn sanitize_user_tag(&self, ctx: &ActorCtx, tag: i32) -> i32 {
        if tag >= 0 {
            return tag;
        }
        ctx.sim().add_count("mpi.invalid_user_tag", 1);
        ctx.sim()
            .msg_trace()
            .dump_once("mpi: negative user tag sanitized");
        tag & i32::MAX
    }

    /// Blocking standard send (`MPI_Send`).
    pub fn send(&self, ctx: &mut ActorCtx, dst: u32, tag: i32, data: &[u8]) {
        let tag = self.sanitize_user_tag(ctx, tag);
        ctx.sleep(self.cfg.send_overhead);
        self.eadi.send(ctx, dst, tag, data);
    }

    /// Non-blocking send (`MPI_Isend`).
    pub fn isend(&self, ctx: &mut ActorCtx, dst: u32, tag: i32, data: &[u8]) -> SendReq {
        let tag = self.sanitize_user_tag(ctx, tag);
        ctx.sleep(self.cfg.send_overhead);
        self.eadi.isend(ctx, dst, tag, data)
    }

    /// Complete a non-blocking send (`MPI_Wait` on a send request).
    pub fn wait_send(&self, ctx: &mut ActorCtx, req: SendReq) {
        self.eadi.wait_send(ctx, req);
    }

    /// Blocking receive (`MPI_Recv`); `ANY_SOURCE`/`ANY_TAG` wildcards.
    pub fn recv(&self, ctx: &mut ActorCtx, src: i32, tag: i32) -> Message {
        let req = self.irecv(ctx, src, tag);
        self.wait(ctx, req)
    }

    /// Non-blocking receive (`MPI_Irecv`).
    pub fn irecv(&self, ctx: &mut ActorCtx, src: i32, tag: i32) -> RecvReq {
        let src = (src >= 0).then_some(src as u32);
        let tag = (tag != ANY_TAG).then_some(tag);
        self.eadi.irecv(ctx, src, tag)
    }

    /// Complete a receive (`MPI_Wait`).
    pub fn wait(&self, ctx: &mut ActorCtx, req: RecvReq) -> Message {
        let done = self.eadi.wait(ctx, req);
        ctx.sleep(self.cfg.recv_overhead);
        Message {
            src: done.src,
            tag: done.tag,
            data: done.data,
        }
    }

    /// Combined send+receive (`MPI_Sendrecv`): posts the receive first, so
    /// symmetric exchanges cannot deadlock.
    pub fn sendrecv(
        &self,
        ctx: &mut ActorCtx,
        dst: u32,
        send_tag: i32,
        data: &[u8],
        src: i32,
        recv_tag: i32,
    ) -> Message {
        let rreq = self.irecv(ctx, src, recv_tag);
        self.send(ctx, dst, send_tag, data);
        self.wait(ctx, rreq)
    }

    /// Internal: send on the reserved collective tag space.
    pub(crate) fn send_coll(&self, ctx: &mut ActorCtx, dst: u32, coll_tag: i32, data: &[u8]) {
        ctx.sleep(self.cfg.send_overhead);
        self.eadi.send(ctx, dst, coll_tag, data);
    }

    /// Internal: receive on the reserved collective tag space.
    pub(crate) fn recv_coll(&self, ctx: &mut ActorCtx, src: u32, coll_tag: i32) -> Vec<u8> {
        let req = self.eadi.irecv(ctx, Some(src), Some(coll_tag));
        self.wait_coll(ctx, req)
    }

    /// Internal: complete a receive posted on the collective tag space.
    pub(crate) fn wait_coll(&self, ctx: &mut ActorCtx, req: RecvReq) -> Vec<u8> {
        let done = self.eadi.wait(ctx, req);
        ctx.sleep(self.cfg.recv_overhead);
        done.data
    }

    /// Internal: fresh tag for one collective invocation.
    pub(crate) fn next_coll_tag(&self) -> i32 {
        let mut seq = self.coll_seq.borrow_mut();
        *seq += 1;
        // Cycle within a window to stay far from user tags.
        COLLECTIVE_TAG_BASE - (*seq % 100_000)
    }
}

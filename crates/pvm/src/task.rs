//! PVM task API over EADI-2.
//!
//! DAWNING-3000 "implements PVM on a middle-level communication library
//! EADI-2 … Compared with implementing PVM directly using BCL, this method
//! simplifies the implementation of PVM" (paper §2.1). A [`PvmTask`] is a
//! rank in the job (its *tid*), with PVM's `initsend`/`pack*`/`send` /
//! `recv`/`upk*` call shape, including `-1` wildcards for both tid and tag.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use suca_bcl::BclNode;
use suca_eadi::{EadiConfig, EadiEndpoint, Universe};
use suca_os::OsProcess;
use suca_sim::{ActorCtx, SimDuration};

use crate::msgbuf::{PackBuf, UnpackBuf};

/// PVM layer costs.
#[derive(Clone, Debug)]
pub struct PvmConfig {
    /// Per-call sender overhead (buffer management, routing decision).
    pub send_overhead: SimDuration,
    /// Per-call receiver overhead (buffer switch, status).
    pub recv_overhead: SimDuration,
    /// Pack/unpack throughput: PVM's typed encoding touches every byte.
    pub pack_bytes_per_sec: u64,
    /// EADI configuration underneath.
    pub eadi: EadiConfig,
}

impl PvmConfig {
    /// DAWNING-3000 calibration (Table 3's PVM rows).
    pub fn dawning3000() -> PvmConfig {
        PvmConfig {
            send_overhead: SimDuration::from_us_f64(0.55),
            recv_overhead: SimDuration::from_us_f64(0.55),
            pack_bytes_per_sec: 4_000_000_000,
            eadi: EadiConfig::dawning3000(),
        }
    }
}

/// A received PVM message: envelope + unpack buffer.
pub struct PvmMessage {
    /// Sender's tid.
    pub src_tid: u32,
    /// Message tag.
    pub tag: i32,
    /// Unpack cursor over the typed payload.
    pub buf: UnpackBuf,
}

/// One PVM task (process) in the virtual machine.
pub struct PvmTask {
    eadi: EadiEndpoint,
    cfg: PvmConfig,
    sendbuf: RefCell<PackBuf>,
}

impl PvmTask {
    /// Enroll in the virtual machine as task `tid` (`pvm_mytid`).
    pub fn enroll(
        ctx: &mut ActorCtx,
        node: &Rc<BclNode>,
        proc: &OsProcess,
        universe: Universe,
        tid: u32,
        cfg: PvmConfig,
    ) -> PvmTask {
        let eadi = EadiEndpoint::create(ctx, node, proc, universe, tid, cfg.eadi.clone());
        PvmTask {
            eadi,
            cfg,
            sendbuf: RefCell::new(PackBuf::new()),
        }
    }

    /// This task's tid.
    pub fn tid(&self) -> u32 {
        self.eadi.rank()
    }

    /// Tasks in the virtual machine.
    pub fn ntasks(&self) -> u32 {
        self.eadi.size()
    }

    /// `pvm_initsend`: reset the send buffer; returns a guard to pack into.
    pub fn initsend(&self) -> RefMut<'_, PackBuf> {
        let mut b = self.sendbuf.borrow_mut();
        *b = PackBuf::new();
        b
    }

    fn pack_cost(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::for_bytes(bytes, self.cfg.pack_bytes_per_sec)
        }
    }

    /// `pvm_send`: ship the current send buffer to `dst` with `tag`.
    pub fn send(&self, ctx: &mut ActorCtx, dst_tid: u32, tag: i32) {
        assert!(tag >= 0, "PVM user tags are non-negative");
        let data = std::mem::take(&mut *self.sendbuf.borrow_mut());
        ctx.sleep(self.cfg.send_overhead + self.pack_cost(data.len() as u64));
        self.eadi.send(ctx, dst_tid, tag, data.finish());
    }

    /// `pvm_recv`: blocking receive; `tid = -1` and/or `tag = -1` wildcard.
    pub fn recv(&self, ctx: &mut ActorCtx, tid: i32, tag: i32) -> PvmMessage {
        let src = (tid >= 0).then_some(tid as u32);
        let tagf = (tag >= 0).then_some(tag);
        let done = self.eadi.recv(ctx, src, tagf);
        ctx.sleep(self.cfg.recv_overhead + self.pack_cost(done.data.len() as u64));
        PvmMessage {
            src_tid: done.src,
            tag: done.tag,
            buf: UnpackBuf::new(done.data),
        }
    }

    /// `pvm_nrecv`: non-blocking receive attempt.
    pub fn nrecv(&self, ctx: &mut ActorCtx, tid: i32, tag: i32) -> Option<PvmMessage> {
        let src = (tid >= 0).then_some(tid as u32);
        let tagf = (tag >= 0).then_some(tag);
        let req = self.eadi.irecv(ctx, src, tagf);
        match self.eadi.test(ctx, req) {
            Some(done) => {
                ctx.sleep(self.cfg.recv_overhead + self.pack_cost(done.data.len() as u64));
                Some(PvmMessage {
                    src_tid: done.src,
                    tag: done.tag,
                    buf: UnpackBuf::new(done.data),
                })
            }
            None => {
                // PVM's nrecv leaves nothing posted on a miss; cancel ours
                // (if it matched in the meantime, drain the completion so
                // matching state stays consistent — semantically the message
                // is simply "available for the next recv", but our requests
                // are single-use).
                if !self.eadi.cancel_recv(req) {
                    if let Some(done) = self.eadi.test(ctx, req) {
                        ctx.sleep(self.cfg.recv_overhead + self.pack_cost(done.data.len() as u64));
                        return Some(PvmMessage {
                            src_tid: done.src,
                            tag: done.tag,
                            buf: UnpackBuf::new(done.data),
                        });
                    }
                }
                None
            }
        }
    }

    /// `pvm_bcast`-ish: send the current buffer to every other task.
    pub fn mcast(&self, ctx: &mut ActorCtx, tag: i32) {
        assert!(tag >= 0);
        let data = std::mem::take(&mut *self.sendbuf.borrow_mut());
        ctx.sleep(self.cfg.send_overhead + self.pack_cost(data.len() as u64));
        for t in 0..self.ntasks() {
            if t != self.tid() {
                self.eadi.send(ctx, t, tag, data.finish());
            }
        }
    }
}

//! Collective operations.
//!
//! The paper: "BCL supports point to point message passing. All other
//! collective message passing should be implemented in the higher level
//! software." Barrier, broadcast, reduce and allreduce are one `suca-coll`
//! plan each, run by one of two executors (see [`crate::offload`]): the
//! NIC's plan interpreter when the operands are eligible, otherwise the
//! host, walking the same plan over [`Comm`] point-to-point. Gather,
//! scatter, allgather and alltoall have no plan shape: a plan step sends or
//! folds one whole accumulator, and these move a different slice per peer.
//! They are textbook algorithms over point-to-point — linear
//! gather/scatter, ring allgather, pairwise alltoall.

use suca_coll::CollKind;
use suca_sim::ActorCtx;

use crate::comm::Comm;
use crate::datatype::{bytes_to_f64s, f64s_to_bytes, ReduceOp};

impl Comm {
    /// Barrier: the selected plan with a zero-byte payload.
    pub fn barrier(&self, ctx: &mut ActorCtx) {
        self.run_plan(ctx, CollKind::Barrier, 0, ReduceOp::Sum, &[], true);
    }

    /// Broadcast a pre-sized `f64` buffer from `root` — every rank passes
    /// a buffer of the same length (standard MPI count semantics), which
    /// is what lets the NIC pin the result before the data arrives.
    pub fn bcast_f64(&self, ctx: &mut ActorCtx, root: u32, data: &mut [f64]) {
        let out = self.run_plan(
            ctx,
            CollKind::Bcast,
            root,
            ReduceOp::Sum,
            &f64s_to_bytes(data),
            true,
        );
        data.copy_from_slice(&bytes_to_f64s(&out));
    }

    /// Broadcast a byte buffer whose length only the root knows (non-root
    /// ranks pass an empty vec and adopt the root's). The unknown size
    /// rules out the NIC, whose result buffer is pinned up front, so this
    /// always walks the selected plan on the host. Sized broadcasts should
    /// use [`Comm::bcast_f64`].
    pub fn bcast(&self, ctx: &mut ActorCtx, root: u32, data: &mut Vec<u8>) {
        *data = self.run_plan(ctx, CollKind::Bcast, root, ReduceOp::Sum, data, false);
    }

    /// Reduce `f64` vectors to `root`: the selected plan's fan-in. Returns
    /// the result on the root, `None` elsewhere.
    pub fn reduce_f64(
        &self,
        ctx: &mut ActorCtx,
        root: u32,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let payload = f64s_to_bytes(contribution);
        let out = self.run_plan(ctx, CollKind::Reduce, root, op, &payload, true);
        (self.rank() == root % self.size()).then(|| bytes_to_f64s(&out))
    }

    /// Allreduce over `f64` vectors: the selected plan's fan-in and fan-out,
    /// algorithm picked per fabric and rank count.
    pub fn allreduce_f64(
        &self,
        ctx: &mut ActorCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Vec<f64> {
        let payload = f64s_to_bytes(contribution);
        bytes_to_f64s(&self.run_plan(ctx, CollKind::Allreduce, 0, op, &payload, true))
    }

    /// Linear gather to `root`: returns `Some(parts by rank)` on the root.
    pub fn gather(&self, ctx: &mut ActorCtx, root: u32, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
            parts[root as usize] = data.to_vec();
            for r in 0..n {
                if r != root {
                    parts[r as usize] = self.recv_coll(ctx, r, tag);
                }
            }
            Some(parts)
        } else {
            self.send_coll(ctx, root, tag, data);
            None
        }
    }

    /// Linear scatter from `root`: each rank gets its slice.
    ///
    /// A root calling with `None` or the wrong part count is a contract
    /// violation; it is counted (`mpi.scatter_bad_parts`), trips the
    /// flight recorder, and degrades to empty slices for the missing
    /// ranks — the collective still completes on every rank.
    pub fn scatter(&self, ctx: &mut ActorCtx, root: u32, parts: Option<&[Vec<u8>]>) -> Vec<u8> {
        let n = self.size();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let parts = parts.unwrap_or_default();
            if parts.len() != n as usize {
                ctx.sim().add_count("mpi.scatter_bad_parts", 1);
                ctx.sim()
                    .msg_trace()
                    .dump_once("mpi: scatter root part count mismatch");
            }
            let empty = Vec::new();
            for r in 0..n {
                if r != root {
                    let part = parts.get(r as usize).unwrap_or(&empty);
                    self.send_coll(ctx, r, tag, part);
                }
            }
            parts.get(root as usize).cloned().unwrap_or_default()
        } else {
            self.recv_coll(ctx, root, tag)
        }
    }

    /// Ring allgather: n−1 steps, each rank forwards the slice it just
    /// received.
    pub fn allgather(&self, ctx: &mut ActorCtx, data: &[u8]) -> Vec<Vec<u8>> {
        let n = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag();
        let mut parts: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
        parts[me as usize] = data.to_vec();
        if n == 1 {
            return parts;
        }
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut have = me;
        for _ in 0..n - 1 {
            let rreq = self.eadi.irecv(ctx, Some(left), Some(tag));
            self.send_coll(ctx, right, tag, &parts[have as usize]);
            have = (have + n - 1) % n;
            parts[have as usize] = self.wait_coll(ctx, rreq);
        }
        parts
    }

    /// Pairwise-exchange alltoall: `parts[r]` goes to rank `r`; returns
    /// what every rank sent to me, indexed by source.
    ///
    /// A wrong part count is counted (`mpi.alltoall_bad_parts`), trips the
    /// flight recorder, and missing entries go out as empty slices so the
    /// exchange still completes.
    pub fn alltoall(&self, ctx: &mut ActorCtx, parts: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let n = self.size();
        if parts.len() != n as usize {
            ctx.sim().add_count("mpi.alltoall_bad_parts", 1);
            ctx.sim()
                .msg_trace()
                .dump_once("mpi: alltoall part count mismatch");
        }
        let me = self.rank();
        let tag = self.next_coll_tag();
        let empty = Vec::new();
        let part_for = |r: u32| parts.get(r as usize).unwrap_or(&empty);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
        out[me as usize] = part_for(me).clone();
        for step in 1..n {
            let to = (me + step) % n;
            let from = (me + n - step) % n;
            let rreq = self.eadi.irecv(ctx, Some(from), Some(tag));
            self.send_coll(ctx, to, tag, part_for(to));
            out[from as usize] = self.wait_coll(ctx, rreq);
        }
        out
    }
}

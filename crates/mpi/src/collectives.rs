//! Collective operations.
//!
//! The paper: "BCL supports point to point message passing. All other
//! collective message passing should be implemented in the higher level
//! software." The `*_host` functions are those textbook algorithms over
//! [`Comm`] p2p calls — dissemination barrier, binomial-tree
//! broadcast/reduce, linear gather/scatter, ring allgather, pairwise
//! alltoall — kept as reference baselines. Barrier, sized broadcast and
//! allreduce additionally have a NIC-offloaded path (plan-driven, see
//! [`crate::offload`]) used by default when the operands are eligible.

use suca_coll::CollKind;
use suca_sim::ActorCtx;

use crate::comm::Comm;
use crate::datatype::{bytes_to_f64s, f64s_to_bytes, ReduceOp};

impl Comm {
    /// Barrier. NIC-offloaded (plan-driven, zero payload) when enabled;
    /// otherwise the host dissemination algorithm.
    pub fn barrier(&self, ctx: &mut ActorCtx) {
        if self.size() <= 1 {
            return;
        }
        if self.offload_eligible(0)
            && self
                .offloaded_collective(ctx, CollKind::Barrier, 0, suca_bcl::CollOp::Sum, &[], 0)
                .is_some()
        {
            return;
        }
        self.barrier_host(ctx);
    }

    /// Dissemination barrier: ⌈log₂ n⌉ rounds, each rank sends to
    /// `(me + 2^k) mod n` and receives from `(me - 2^k) mod n`. Host
    /// reference baseline for [`Comm::barrier`].
    pub fn barrier_host(&self, ctx: &mut ActorCtx) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let tag = self.next_coll_tag();
        let me = self.rank();
        let mut k = 1u32;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            // Post the receive first; send; then complete — avoids deadlock
            // when rounds synchronize.
            let req = self.eadi.irecv(ctx, Some(from), Some(tag - k as i32));
            self.send_coll(ctx, to, tag - k as i32, b"");
            let _ = self.eadi.wait(ctx, req);
            k <<= 1;
        }
    }

    /// Broadcast a pre-sized `f64` buffer from `root` — every rank passes
    /// a buffer of the same length (standard MPI count semantics), which
    /// is what lets the NIC pin the result before the data arrives.
    /// NIC-offloaded when eligible; host binomial tree otherwise.
    pub fn bcast_f64(&self, ctx: &mut ActorCtx, root: u32, data: &mut [f64]) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let bytes = (data.len() * 8) as u64;
        if bytes > 0 && self.offload_eligible(bytes) {
            if let Some(out) = self.offloaded_collective(
                ctx,
                CollKind::Bcast,
                root,
                suca_bcl::CollOp::Sum,
                data,
                data.len(),
            ) {
                data.copy_from_slice(&out);
                return;
            }
        }
        let mut raw = if self.rank() == root {
            f64s_to_bytes(data)
        } else {
            Vec::new()
        };
        self.bcast_host(ctx, root, &mut raw);
        if self.rank() != root {
            data.copy_from_slice(&bytes_to_f64s(&raw));
        }
    }

    /// Broadcast a byte buffer whose length only the root knows (non-root
    /// ranks pass an empty vec and learn the size from the tree). The
    /// unknown size rules out the NIC path — the result buffer cannot be
    /// pinned up front — so this always runs the host algorithm; sized
    /// broadcasts should use [`Comm::bcast_f64`].
    pub fn bcast(&self, ctx: &mut ActorCtx, root: u32, data: &mut Vec<u8>) {
        self.bcast_host(ctx, root, data);
    }

    /// Binomial-tree broadcast from `root`: the host reference algorithm.
    pub fn bcast_host(&self, ctx: &mut ActorCtx, root: u32, data: &mut Vec<u8>) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let tag = self.next_coll_tag();
        // Rotate ranks so the root is virtual rank 0.
        let me = (self.rank() + n - root) % n;
        if me != 0 {
            // Receive from the parent: virtual rank with the lowest set bit
            // cleared.
            let real_parent = ((me & (me - 1)) + root) % n;
            *data = self.recv_coll(ctx, real_parent, tag);
        }
        // Forward to children: set bits below my lowest set bit.
        let lowest = if me == 0 {
            n.next_power_of_two()
        } else {
            me & me.wrapping_neg()
        };
        let mut bit = 1u32;
        while bit < lowest && bit < n {
            let child = me | bit;
            if child < n && child != me {
                let real_child = (child + root) % n;
                self.send_coll(ctx, real_child, tag, data);
            }
            bit <<= 1;
        }
    }

    /// Binomial-tree reduce of `f64` vectors to `root`. Returns the result
    /// on the root, `None` elsewhere.
    pub fn reduce_f64(
        &self,
        ctx: &mut ActorCtx,
        root: u32,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let n = self.size();
        let tag = self.next_coll_tag();
        let me = (self.rank() + n - root) % n;
        let mut acc = contribution.to_vec();
        // Receive from children (me | bit), fold; then send to parent.
        let lowest = if me == 0 {
            n.next_power_of_two()
        } else {
            me & me.wrapping_neg()
        };
        let mut bit = 1u32;
        while bit < lowest && bit < n {
            let child = me | bit;
            if child < n && child != me {
                let real_child = (child + root) % n;
                let got = bytes_to_f64s(&self.recv_coll(ctx, real_child, tag));
                op.fold(&mut acc, &got);
            }
            bit <<= 1;
        }
        if me == 0 {
            Some(acc)
        } else {
            let parent = me & (me - 1);
            let real_parent = (parent + root) % n;
            self.send_coll(ctx, real_parent, tag, &f64s_to_bytes(&acc));
            None
        }
    }

    /// Allreduce over `f64` vectors. NIC-offloaded (plan-driven fan-in +
    /// fan-out, algorithm picked per fabric/size) when eligible; host
    /// reference composition otherwise.
    pub fn allreduce_f64(
        &self,
        ctx: &mut ActorCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Vec<f64> {
        let bytes = (contribution.len() * 8) as u64;
        if self.size() > 1 && !contribution.is_empty() && self.offload_eligible(bytes) {
            if let Some(out) = self.offloaded_collective(
                ctx,
                CollKind::Allreduce,
                0,
                op.into(),
                contribution,
                contribution.len(),
            ) {
                return out;
            }
        }
        self.allreduce_f64_host(ctx, contribution, op)
    }

    /// Allreduce = reduce to 0 + broadcast (simple and correct; the paper's
    /// stack did the same composition at the MPI level). Host reference
    /// baseline for [`Comm::allreduce_f64`].
    pub fn allreduce_f64_host(
        &self,
        ctx: &mut ActorCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Vec<f64> {
        let reduced = self.reduce_f64(ctx, 0, contribution, op);
        let mut bytes = reduced.map(|v| f64s_to_bytes(&v)).unwrap_or_default();
        self.bcast_host(ctx, 0, &mut bytes);
        bytes_to_f64s(&bytes)
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
            let got = self.eadi.wait(ctx, rreq);
            ctx.sleep(self.cfg.recv_overhead);
            have = (have + n - 1) % n;
            parts[have as usize] = got.data;
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
            let got = self.eadi.wait(ctx, rreq);
            ctx.sleep(self.cfg.recv_overhead);
            out[from as usize] = got.data;
        }
        out
    }
}

//! Plan-driven collectives: one schedule, two executors.
//!
//! Barrier, broadcast, reduce and allreduce all go through
//! `Comm::run_plan`. It asks the fabric-aware [`PlanRegistry`] for this
//! rank's row of the selected plan (the registry validates each distinct
//! plan once per process; no n-rank plan is built or held here) and hands
//! that row to one of two executors, which run the same steps in the same
//! order:
//!
//! * **NIC executor.** The row is compiled into execution-form
//!   [`CollStep`]s over concrete port addresses and posted to the NIC in one
//!   collective trap (`BclKmod::submit`). The MCP's plan interpreter then
//!   runs the whole collective — fan-in combining, fan-out forwarding,
//!   result DMA — with no further host crossing; the initiator polls one
//!   completion event (`ChainPolicy::collective()`).
//! * **Host executor.** The rank walks the row over EADI point-to-point,
//!   one collective tag per call: per step it posts the step's receives,
//!   sends the accumulator to each `send_to` peer, then waits for the
//!   receives in `recv_from` order and folds or adopts each one. Posting
//!   the receives first keeps a butterfly exchange live when its payload
//!   goes rendezvous.
//!
//! Both executors fold with [`CollOp::fold_bytes`] in the plan's listed
//! order, so their results are bit-identical. The executor decision must be
//! identical on every rank (a rank walking the plan on the host while its
//! peers wait NIC-side would wedge the job), so eligibility depends only on
//! values MPI semantics already require to agree cluster-wide: the
//! communicator size, the element count, and the shared configuration.

use suca_bcl::{CollOp, CollStep, SendStatus};
use suca_coll::{CollKind, Combine, PlanRegistry, PlanStep};
use suca_sim::ActorCtx;

use crate::comm::Comm;
use crate::datatype::fold;

impl Comm {
    /// Run one collective of `kind` rooted at `root` over `payload`, this
    /// rank's contribution (the root's data for a broadcast), and return
    /// the final accumulator.
    ///
    /// `sized` says every rank passes a payload of the agreed length (MPI
    /// count semantics). Only then may the NIC run the plan, whose result
    /// buffer it pins before the data arrives. The byte [`Comm::bcast`],
    /// whose non-root ranks learn the length from the root, passes `false`:
    /// it runs the same selected plan on the host executor. The length
    /// never keys the plan.
    ///
    /// # Panics
    /// If the registry rejects the plan. Every rank computes the same
    /// verdict, so every rank panics alike; the rejection is counted
    /// (`mpi.coll_plan_rejected`) and flight-recorded first.
    pub(crate) fn run_plan(
        &self,
        ctx: &mut ActorCtx,
        kind: CollKind,
        root: u32,
        op: CollOp,
        payload: &[u8],
        sized: bool,
    ) -> Vec<u8> {
        if sized && self.offload_eligible(payload.len() as u64) {
            let steps = self.plan_row(ctx, kind, root);
            if let Some(out) = self.offloaded_collective(ctx, op, steps, payload) {
                return out;
            }
        }
        // After a per-rank launch failure too: the same plan, regenerated
        // rather than held while the NIC runs it.
        let steps = self.plan_row(ctx, kind, root);
        self.host_collective(ctx, op, &steps, payload)
    }

    /// This rank's row of the plan the registry selects.
    fn plan_row(&self, ctx: &ActorCtx, kind: CollKind, root: u32) -> Vec<PlanStep> {
        let registry = PlanRegistry::for_fabric(self.fabric);
        match registry.schedule_for(kind, self.size(), root, self.rank()) {
            Ok(steps) => steps,
            Err(e) => {
                self.offload_error(
                    ctx,
                    "mpi.coll_plan_rejected",
                    "mpi: collective plan failed validation",
                );
                panic!("mpi: {} plan rejected: {e}", kind.as_str());
            }
        }
    }

    /// The host executor: walk `steps` over EADI point-to-point.
    fn host_collective(
        &self,
        ctx: &mut ActorCtx,
        op: CollOp,
        steps: &[PlanStep],
        payload: &[u8],
    ) -> Vec<u8> {
        // Generated plans key every message by chunk 0, so one tag per call
        // is the plan's `(peer, chunk)` edge; EADI matches per source FIFO.
        let tag = self.next_coll_tag();
        let mut acc = payload.to_vec();
        for step in steps {
            let reqs: Vec<_> = step
                .recv_from
                .iter()
                .map(|&peer| self.eadi.irecv(ctx, Some(peer), Some(tag)))
                .collect();
            for &peer in &step.send_to {
                self.send_coll(ctx, peer, tag, &acc);
            }
            for req in reqs {
                let got = self.wait_coll(ctx, req);
                match step.combine {
                    Combine::Reduce => fold(op, &mut acc, &got),
                    Combine::Adopt => acc = got,
                }
            }
        }
        acc
    }

    /// Fresh collective id. Ranks issue collectives in identical order, so
    /// independent counters agree cluster-wide.
    pub(crate) fn next_coll_id(&self) -> u32 {
        let mut id = self.coll_id.borrow_mut();
        let v = *id;
        *id = id.wrapping_add(1);
        v
    }

    /// Can this collective run on the NIC? Pure function of cluster-wide
    /// agreed values only (see module docs).
    pub(crate) fn offload_eligible(&self, bytes: u64) -> bool {
        self.cfg.offload_collectives
            && self.size() > 1
            && bytes <= self.max_coll_payload
            && bytes.is_multiple_of(8)
    }

    /// Counted protocol error on a collective: bump `counter`, trip the
    /// flight recorder once.
    fn offload_error(&self, ctx: &ActorCtx, counter: &'static str, reason: &str) {
        ctx.sim().add_count(counter, 1);
        ctx.sim().msg_trace().dump_once(reason);
    }

    /// One fallible host-side step of a launch (buffer allocation, payload
    /// staging, the descriptor trap, result read-back): a per-rank failure,
    /// counted under `mpi.coll_launch_failed` and flight-recorded.
    fn launch_step<T, E>(&self, ctx: &ActorCtx, step: Result<T, E>, reason: &str) -> Option<T> {
        if step.is_err() {
            self.offload_error(ctx, "mpi.coll_launch_failed", reason);
        }
        step.ok()
    }

    /// The NIC executor: launch `steps` as one offloaded collective and
    /// wait for its completion.
    ///
    /// Returns the final accumulator (empty for a zero-byte payload), or
    /// `None` when the launch could not be made or the NIC rejected the
    /// run. Such per-rank failures (ring full, chaos SRAM wipe mid-run)
    /// cannot be hidden from peers by any local policy; they are counted
    /// and flight-recorded here and NIC-side, and the caller re-runs the
    /// same plan on the host executor to keep this rank live.
    fn offloaded_collective(
        &self,
        ctx: &mut ActorCtx,
        op: CollOp,
        steps: Vec<PlanStep>,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let bytes = payload.len() as u64;
        let coll_id = self.next_coll_id();
        let steps: Vec<CollStep> = steps
            .into_iter()
            .map(|s| CollStep {
                recv_from: s.recv_from.iter().map(|&r| self.eadi.addr_of(r)).collect(),
                send_to: s.send_to.iter().map(|&r| self.eadi.addr_of(r)).collect(),
                adopt: s.combine == Combine::Adopt,
                chunk: s.chunk,
            })
            .collect();
        // The payload and result buffers, one fragment's largest
        // contribution each, from the port's pool.
        let port = self.eadi.port();
        let buf_bytes = self.max_coll_payload;
        let take = |ctx: &ActorCtx, what| self.launch_step(ctx, port.take_buffer(buf_bytes), what);
        let payload_buf = take(ctx, "mpi: no buffer for a collective payload")?;
        let Some(result_buf) = take(ctx, "mpi: no buffer for a collective result") else {
            port.give_buffer(payload_buf, buf_bytes);
            return None;
        };
        // Stage the contribution, hand the NIC the descriptor, wait for the
        // completion, read the result back.
        let run = |ctx: &mut ActorCtx| {
            if bytes > 0 {
                self.launch_step(
                    ctx,
                    port.write_buffer(payload_buf, payload),
                    "mpi: collective payload could not be staged",
                )?;
            }
            let launched = port.collective(
                ctx,
                coll_id,
                op,
                steps,
                payload_buf,
                bytes,
                result_buf,
                bytes,
            );
            let msg_id = self.launch_step(
                ctx,
                launched,
                "mpi: collective descriptor rejected by the kernel",
            )?;
            match self.eadi.wait_external(ctx, msg_id) {
                SendStatus::Ok => {}
                SendStatus::Rejected => {
                    self.offload_error(
                        ctx,
                        "mpi.coll_nic_rejected",
                        "mpi: NIC rejected a collective run",
                    );
                    return None;
                }
            }
            ctx.sleep(self.cfg.recv_overhead);
            if bytes == 0 {
                return Some(Vec::new());
            }
            self.launch_step(
                ctx,
                port.read_buffer(result_buf, bytes),
                "mpi: collective result could not be read back",
            )
        };
        let result = run(ctx);
        if result.is_some() {
            // Back to the pool, so the next run takes them in the same
            // roles: their pages stay in the pin-down table.
            port.give_buffer(result_buf, buf_bytes);
            port.give_buffer(payload_buf, buf_bytes);
        } else {
            // A failed run may have left the NIC holding the pages: free
            // them (the NIC keeps what it may still touch) rather than let
            // a later take re-use them.
            let freed = port
                .free_buffer(payload_buf, buf_bytes)
                .and(port.free_buffer(result_buf, buf_bytes));
            self.launch_step(ctx, freed, "mpi: collective buffers not freed");
        }
        result
    }
}

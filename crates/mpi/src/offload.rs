//! NIC-offloaded collectives: plan selection, compilation, launch.
//!
//! The host side of the tentpole path: ask the fabric-aware
//! [`PlanRegistry`] for this rank's row of the selected plan (the registry
//! validates each distinct plan once per process; no n-rank plan is built or
//! held here), compile that rank-space schedule into execution-form
//! [`CollStep`]s over concrete port addresses, and hand it to the NIC in one
//! collective trap (`BclKmod::submit`). The MCP's plan interpreter
//! then runs the whole collective — fan-in combining, fan-out forwarding,
//! result DMA — with no further host crossing; the initiator polls one
//! completion event (`ChainPolicy::collective()`).
//!
//! The offload decision must be identical on every rank (a rank running the
//! host algorithm while its peers wait NIC-side would wedge the job), so
//! eligibility depends only on values MPI semantics already require to
//! agree cluster-wide: the communicator size, the element count, and the
//! shared configuration.

use suca_bcl::{BclError, CollOp, CollStep, SendStatus};
use suca_coll::{CollKind, Combine, PlanRegistry};
use suca_mem::VirtAddr;
use suca_sim::ActorCtx;

use crate::comm::Comm;
use crate::datatype::{bytes_to_f64s, f64s_to_bytes, ReduceOp};

impl From<ReduceOp> for CollOp {
    fn from(op: ReduceOp) -> CollOp {
        match op {
            ReduceOp::Sum => CollOp::Sum,
            ReduceOp::Max => CollOp::Max,
            ReduceOp::Min => CollOp::Min,
            ReduceOp::Prod => CollOp::Prod,
        }
    }
}

impl Comm {
    /// Fresh collective id. Ranks issue collectives in identical order, so
    /// independent counters agree cluster-wide.
    pub(crate) fn next_coll_id(&self) -> u32 {
        let mut id = self.coll_id.lock();
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

    /// Counted protocol error on the offload path: bump `counter`, trip the
    /// flight recorder once. Never panics — callers degrade to the host
    /// reference algorithm or a local result.
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

    /// This communicator's offload payload and result buffers, one
    /// fragment's largest contribution each.
    fn alloc_offload_bufs(&self, ctx: &ActorCtx) -> Option<[VirtAddr; 2]> {
        let port = self.eadi.port();
        let bytes = self.max_coll_payload;
        let payload = self.launch_step(
            ctx,
            port.alloc_buffer(bytes),
            "mpi: no buffer for a collective payload",
        )?;
        let result = self.launch_step(
            ctx,
            port.alloc_buffer(bytes),
            "mpi: no buffer for a collective result",
        );
        if result.is_none() {
            let freed = port.free_buffer(payload, bytes);
            self.launch_step(ctx, freed, "mpi: collective payload buffer not freed");
        }
        Some([payload, result?])
    }

    /// Free offload buffers from [`Comm::alloc_offload_bufs`].
    pub(crate) fn free_offload_bufs(&self, bufs: [VirtAddr; 2]) -> Result<(), BclError> {
        let port = self.eadi.port();
        let [payload, result] = bufs.map(|buf| port.free_buffer(buf, self.max_coll_payload));
        payload.and(result)
    }

    /// Launch one NIC-offloaded collective and wait for its completion.
    ///
    /// Returns the final accumulator (as `f64`s) when `result_lanes > 0`,
    /// `Some(empty)` for barrier-style calls, and `None` when the launch
    /// could not be made or the NIC rejected the run. Callers degrade to
    /// the host reference algorithm: for the *uniform* failure modes (plan
    /// validation — every rank computes the same plan and fails the same
    /// way) that fallback is collectively consistent. Per-rank failures
    /// (ring full, chaos SRAM wipe mid-run) cannot be hidden from peers by
    /// any local policy; they are counted and flight-recorded here and
    /// NIC-side, and the fallback keeps this rank live.
    pub(crate) fn offloaded_collective(
        &self,
        ctx: &mut ActorCtx,
        kind: CollKind,
        root: u32,
        op: CollOp,
        payload: &[f64],
        result_lanes: usize,
    ) -> Option<Vec<f64>> {
        let n = self.size();
        let me = self.rank();
        let bytes = (payload.len() * 8) as u64;
        let coll_id = self.next_coll_id();
        let registry = PlanRegistry::for_fabric(self.fabric);
        let schedule = match registry.schedule_for(kind, n, root, bytes, me) {
            Ok(s) => s,
            Err(_) => {
                self.offload_error(
                    ctx,
                    "mpi.coll_plan_rejected",
                    "mpi: collective plan failed validation",
                );
                return None;
            }
        };
        let steps: Vec<CollStep> = schedule
            .into_iter()
            .map(|s| CollStep {
                recv_from: s.recv_from.iter().map(|&r| self.eadi.addr_of(r)).collect(),
                send_to: s.send_to.iter().map(|&r| self.eadi.addr_of(r)).collect(),
                adopt: s.combine == Combine::Adopt,
                chunk: s.chunk,
            })
            .collect();
        let port = self.eadi.port();
        let result_len = (result_lanes * 8) as u64;
        let bufs = match self.offload_bufs.lock().take() {
            Some(bufs) => bufs,
            None => self.alloc_offload_bufs(ctx)?,
        };
        let [payload_buf, result_buf] = bufs;
        // Stage the contribution, hand the NIC the descriptor, wait for the
        // completion, read the result back.
        let run = |ctx: &mut ActorCtx| {
            if bytes > 0 {
                self.launch_step(
                    ctx,
                    port.write_buffer(payload_buf, &f64s_to_bytes(payload)),
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
                result_len,
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
            if result_lanes == 0 {
                return Some(Vec::new());
            }
            let raw = self.launch_step(
                ctx,
                port.read_buffer(result_buf, result_len),
                "mpi: collective result could not be read back",
            )?;
            Some(bytes_to_f64s(&raw))
        };
        let result = run(ctx);
        if result.is_some() {
            // Kept for the next run: its pages stay in the pin-down table.
            *self.offload_bufs.lock() = Some(bufs);
        } else {
            // A failed run may have left the NIC holding the pages: give
            // them up (the NIC keeps what it may still touch) and let the
            // next run allocate afresh.
            let freed = self.free_offload_bufs(bufs);
            self.launch_step(ctx, freed, "mpi: collective buffers not freed");
        }
        result
    }
}

//! Per-node operating-system instance.
//!
//! A [`NodeOs`] owns the node's physical memory, creates processes (PID +
//! address space), provides the **trap** primitive that charges kernel entry/
//! exit costs and counts critical-path traps, and raises **interrupts** for
//! the kernel-level architecture's receive path. BCL's kernel module is
//! registered here and reached via `ioctl`, exactly mirroring the paper's
//! structure (user library → ioctl subcommands → kernel module).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use suca_mem::{AddressSpace, Asid, PhysMemory};
use suca_sim::{ActorCtx, Counter, Sim, SimDuration};

use crate::costs::{OsCostModel, OsPersonality};

/// Process identifier, unique per node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

/// Physical node identifier in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// A user process: PID plus its private address space.
#[derive(Clone)]
pub struct OsProcess {
    /// Process id on its node.
    pub pid: Pid,
    /// Node the process runs on.
    pub node: NodeId,
    /// The process's virtual address space.
    pub space: AddressSpace,
}

struct NodeOsInner {
    next_pid: u32,
    live: HashMap<Pid, Asid>,
}

/// One node's OS.
pub struct NodeOs {
    sim: Sim,
    /// This node's id.
    pub node_id: NodeId,
    /// OS flavor (AIX on DAWNING compute nodes).
    pub personality: OsPersonality,
    /// Kernel cost model.
    pub costs: OsCostModel,
    mem: PhysMemory,
    inner: RefCell<NodeOsInner>,
    // Typed handles for the Table 1 counters: cluster-wide and per-node.
    traps: Counter,
    traps_node: Counter,
    interrupts: Counter,
    interrupts_node: Counter,
}

impl NodeOs {
    /// Boot an OS on a node.
    pub fn new(
        sim: &Sim,
        node_id: NodeId,
        mem: PhysMemory,
        personality: OsPersonality,
        costs: OsCostModel,
    ) -> Rc<NodeOs> {
        let metrics = sim.metrics();
        mem.watch(sim);
        Rc::new(NodeOs {
            sim: sim.clone(),
            node_id,
            personality,
            costs,
            mem,
            inner: RefCell::new(NodeOsInner {
                next_pid: 1,
                live: HashMap::new(),
            }),
            traps: metrics.counter("os.traps"),
            traps_node: metrics.counter(&format!("os.traps.n{}", node_id.0)),
            interrupts: metrics.counter("os.interrupts"),
            interrupts_node: metrics.counter(&format!("os.interrupts.n{}", node_id.0)),
        })
    }

    /// The node's physical memory.
    pub fn memory(&self) -> &PhysMemory {
        &self.mem
    }

    /// The simulation this OS runs in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Fork a new process with a fresh address space.
    pub fn create_process(&self) -> OsProcess {
        let mut inner = self.inner.borrow_mut();
        let pid = Pid(inner.next_pid);
        inner.next_pid += 1;
        // ASIDs are globally unique per node: pid doubles as asid seed.
        let asid = Asid(self.node_id.0 << 16 | pid.0);
        inner.live.insert(pid, asid);
        OsProcess {
            pid,
            node: self.node_id,
            space: AddressSpace::new(asid, self.mem.clone()),
        }
    }

    /// True if `pid` is a live process on this node (used by kernel-module
    /// security checks).
    pub fn is_live(&self, pid: Pid) -> bool {
        self.inner.borrow().live.contains_key(&pid)
    }

    /// Terminate a process (its ASID becomes invalid for checks).
    pub fn exit_process(&self, pid: Pid) {
        self.inner.borrow_mut().live.remove(&pid);
    }

    /// Execute `f` in kernel mode from the calling actor: charges trap entry
    /// before and trap exit after, and counts one critical-path trap.
    ///
    /// Kernel code inside `f` charges its own additional costs (checks,
    /// translation, PIO) via `ctx.sleep`.
    pub fn trap<R>(&self, ctx: &mut ActorCtx, f: impl FnOnce(&mut ActorCtx) -> R) -> R {
        self.traps.inc();
        self.traps_node.inc();
        ctx.sleep(self.costs.trap_enter);
        let r = f(ctx);
        ctx.sleep(self.costs.trap_exit);
        r
    }

    /// Raise a hardware interrupt: after entry + service cost, `handler`
    /// runs as an event. Counts one critical-path interrupt. The NIC raises
    /// one per received message under the kernel-level (TCP-like)
    /// architecture (`suca_bcl::Architecture::KernelLevel`) — BCL's whole
    /// point is to have zero of these.
    pub fn interrupt(&self, sim: &Sim, handler: impl FnOnce(&Sim) + 'static) {
        self.interrupts.inc();
        self.interrupts_node.inc();
        let cost = self.costs.interrupt_entry + self.costs.interrupt_service;
        sim.schedule_in(cost, handler);
    }

    /// The cost of one user↔kernel copy of `len` bytes, for the caller to
    /// charge (the kernel-level architecture's send and receive copies,
    /// AM-II's bounce-buffer copy).
    pub fn copy_cost(&self, len: u64) -> SimDuration {
        if len == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::for_bytes(len, self.costs.copy_bytes_per_sec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_sim::RunOutcome;

    fn os(sim: &Sim) -> Rc<NodeOs> {
        NodeOs::new(
            sim,
            NodeId(0),
            PhysMemory::new(1 << 22),
            OsPersonality::AIX,
            OsCostModel::aix_power3(),
        )
    }

    #[test]
    fn processes_get_unique_pids_and_isolated_spaces() {
        let sim = Sim::new(1);
        let os = os(&sim);
        let p1 = os.create_process();
        let p2 = os.create_process();
        assert_ne!(p1.pid, p2.pid);
        assert!(os.is_live(p1.pid));
        let a = p1.space.alloc(64).unwrap();
        p1.space.write(a, b"mine").unwrap();
        assert!(p2.space.read_vec(a, 4).is_err(), "spaces must be isolated");
        os.exit_process(p1.pid);
        assert!(!os.is_live(p1.pid));
    }

    #[test]
    fn trap_charges_time_and_counts() {
        let sim = Sim::new(1);
        let o = os(&sim);
        let o2 = o.clone();
        sim.spawn("p", move |ctx| {
            let r = o2.trap(ctx, |_| 42);
            assert_eq!(r, 42);
            let expect = o2.costs.trap_enter + o2.costs.trap_exit;
            assert_eq!(ctx.now().since(suca_sim::SimTime::ZERO), expect);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.get_count("os.traps"), 1);
        assert_eq!(sim.get_count("os.traps.n0"), 1);
    }

    #[test]
    fn interrupt_costs_and_counts() {
        let sim = Sim::new(1);
        let o = os(&sim);
        let o2 = o.clone();
        let fired = Rc::new(RefCell::new(0u64));
        let f2 = fired.clone();
        sim.schedule_in(SimDuration::from_us(1), move |s| {
            o2.interrupt(s, move |s2| *f2.borrow_mut() = s2.now().as_ns());
        });
        sim.run();
        let cost = o.costs.interrupt_entry + o.costs.interrupt_service;
        assert_eq!(*fired.borrow(), 1_000 + cost.as_ns());
        assert_eq!(sim.get_count("os.interrupts"), 1);
    }

    #[test]
    fn copy_cost_scales() {
        let sim = Sim::new(1);
        let o = os(&sim);
        assert_eq!(o.copy_cost(0), SimDuration::ZERO);
        assert!(o.copy_cost(1 << 20) > o.copy_cost(1 << 10));
    }
}

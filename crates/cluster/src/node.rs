//! One cluster node: SMP host + OS + NIC firmware + BCL stack.

use std::rc::Rc;

use suca_bcl::{BclConfig, BclNode, Mcp};
use suca_mem::PhysMemory;
use suca_myrinet::{FabricNodeId, Network};
use suca_os::{CpuSet, NodeId, NodeOs, OsCostModel, OsPersonality, OsProcess};
use suca_sim::{ActorCtx, Sim};

/// A fully assembled node.
pub struct ClusterNode {
    /// The node's OS instance.
    pub os: Rc<NodeOs>,
    /// The node's BCL stack (kernel module, MCP, intra-node hub).
    pub bcl: Rc<BclNode>,
    /// The node's SMP CPUs (4-way on DAWNING-3000).
    pub cpus: CpuSet,
}

impl ClusterNode {
    /// Assemble a node attached to every rail in `rails` at position `id`
    /// (all current harnesses pass one rail; chaos harnesses pass two).
    #[allow(clippy::too_many_arguments)] // one knob per hardware subsystem
    pub fn new(
        sim: &Sim,
        id: NodeId,
        rails: Vec<Rc<Network>>,
        num_nodes: u32,
        mem_bytes: u64,
        n_cpus: u32,
        personality: OsPersonality,
        os_costs: OsCostModel,
        bcl_cfg: BclConfig,
    ) -> Rc<ClusterNode> {
        let mem = PhysMemory::new(mem_bytes);
        let os = NodeOs::new(sim, id, mem, personality, os_costs);
        let mcp = Mcp::new_multi_rail(sim, os.clone(), FabricNodeId(id.0), rails, bcl_cfg.clone());
        let bcl = BclNode::new(sim, os.clone(), mcp, num_nodes, bcl_cfg);
        Rc::new(ClusterNode {
            os,
            bcl,
            cpus: CpuSet::new(sim, n_cpus),
        })
    }

    /// Fork a user process on this node.
    pub fn create_process(&self) -> OsProcess {
        self.os.create_process()
    }
}

/// Environment handed to a spawned application process.
pub struct ProcessEnv {
    /// The node this process runs on.
    pub node: Rc<ClusterNode>,
    /// The OS process (PID + address space).
    pub proc: OsProcess,
}

impl ProcessEnv {
    /// Open this process's BCL port (convenience).
    pub fn open_port(&self, ctx: &mut ActorCtx) -> suca_bcl::BclPort {
        suca_bcl::BclPort::open(ctx, &self.node.bcl, &self.proc)
            .expect("port open failed in application process")
    }
}

//! # suca — Semi-User-Level Communication Architecture
//!
//! Facade crate re-exporting the whole reproduction of Meng, Ma, He, Xiao,
//! Xu, *"Semi-User-Level Communication Architecture"*, IPPS 2002: the BCL
//! protocol (the paper's contribution) plus every substrate it runs on
//! (simulated Myrinet & nwrc mesh SANs, host memory, PCI, OS kernel) and the
//! layers above it (EADI-2, MPI-like, PVM-like).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

#![warn(missing_docs)]

pub use suca_bcl as bcl;
pub use suca_chaos as chaos;
pub use suca_cluster as cluster;
pub use suca_eadi as eadi;
pub use suca_mem as mem;
pub use suca_mesh as mesh;
pub use suca_mpi as mpi;
pub use suca_myrinet as myrinet;
pub use suca_os as os;
pub use suca_pci as pci;
pub use suca_pvm as pvm;
pub use suca_sim as sim;

/// Commonly used items in one import.
pub mod prelude {
    pub use suca_sim::{ActorCtx, RunOutcome, Sim, SimDuration, SimTime};
}

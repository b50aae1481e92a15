//! # suca-myrinet — the Myrinet system-area network model
//!
//! Links (1.28 Gb/s, serialized, fault-injectable), 8-port cut-through
//! crossbar switches, NIC SRAM accounting, a linear-array-of-switches
//! topology builder for up to the full 70-node DAWNING-3000, and the
//! [`Fabric`] trait that protocol stacks (BCL, in each of its
//! architectures) program against. The nwrc 2-D mesh (`suca-mesh`) implements the same trait,
//! which is the paper's heterogeneous-network portability claim made
//! concrete.

#![warn(missing_docs)]

pub mod fabric;
pub mod link;
pub mod sram;
pub mod switch;
pub mod topology;

pub use fabric::{Fabric, FabricNodeId, FaultPlan, Packet, PacketTrace, RxHandler, FRAMING_BYTES};
pub use link::{Link, PacketSink};
pub use sram::{SramLease, SramPool};
pub use switch::Switch;
pub use topology::{Myrinet, MyrinetConfig};

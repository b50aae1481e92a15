//! # suca-myrinet — the system-area network model
//!
//! Links (1.28 Gb/s, serialized, fault-injectable), 8-port cut-through
//! crossbar switches, NIC SRAM accounting, and the one [`Network`] type
//! that protocol stacks (BCL, in each of its architectures) drive. A
//! `Network` is wired either as Myrinet's linear array of switches
//! ([`Myrinet::build`], up to the full 70-node DAWNING-3000) or as the nwrc
//! 2-D mesh (`suca-mesh`); the stack above it never branches on which, which
//! is the paper's heterogeneous-network portability claim made concrete.

#![warn(missing_docs)]

pub mod fabric;
pub mod link;
pub mod sram;
pub mod switch;
pub mod topology;

pub use fabric::{
    FabricNodeId, FaultPlan, LinkSpec, Network, Packet, PacketTrace, Route, Routing, RxHandler,
    FRAMING_BYTES,
};
pub use link::{Link, PacketSink};
pub use sram::{SramLease, SramPool};
pub use switch::Switch;
pub use topology::{Myrinet, MyrinetConfig};

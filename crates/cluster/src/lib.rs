//! # suca-cluster — whole-system assembly
//!
//! Builds DAWNING-3000-shaped clusters (nodes = OS + NIC firmware + BCL
//! stack + SMP CPUs, wired to a Myrinet or nwrc-mesh SAN) and provides the
//! measurement harnesses used by the paper-reproduction benchmarks.

#![warn(missing_docs)]

pub mod builder;
pub mod harness;
pub mod node;

pub use builder::{Cluster, ClusterSpec, SanKind};
pub use harness::{measure_bandwidth, measure_one_way, BandwidthResult, LatencyResult, SimBarrier};
pub use node::{ClusterNode, ProcessEnv};

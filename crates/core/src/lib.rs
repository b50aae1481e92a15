//! # suca-bcl — the Basic Communication Library
//!
//! The paper's contribution: a **semi-user-level** communication protocol.
//! One kernel trap on the send path (security checks, pin-down address
//! translation, PIO descriptor fill); a completely kernel-free,
//! interrupt-free receive path (the NIC DMAs payloads into user buffers and
//! completion events into user-space queues that the process polls).
//!
//! Three layers, exactly as on DAWNING-3000:
//!
//! * [`api::BclPort`] — the user library,
//! * [`kmod::BclKmod`] — the kernel module (ioctl subcommands),
//! * [`mcp::Mcp`] — the NIC firmware (Message Control Program).
//!
//! Plus the intra-node shared-memory path ([`intranode::IntraHub`]), the
//! go-back-N reliability layer ([`reliable`]), and the calibrated cost
//! model ([`config::BclConfig`]) that reproduces the paper's measurements.
//! The same stack plays the comparators of Tables 1–2 (kernel-level,
//! user-level, GM, AM-II, BIP): [`arch::Architecture`] moves the traps,
//! interrupts, copies and address translation.

#![warn(missing_docs)]

pub mod api;
pub mod arch;
pub mod coll;
pub mod config;
pub mod error;
pub mod intranode;
pub mod kmod;
pub mod mcp;
pub mod port;
pub mod queues;
pub mod reliable;
pub mod sg;
pub mod wire;

pub use api::{BclNode, BclPort};
pub use arch::{Architecture, MmapUnsupported};
pub use coll::{CollOp, CollSetup, CollStep};
pub use config::BclConfig;
pub use error::BclError;
pub use kmod::{BclKmod, Entry, Request, Rma};
pub use mcp::{JobKind, Mcp, SendJob};
pub use port::{
    ChannelId, ChannelKind, PortId, ProcAddr, RecvDataLoc, RecvEvent, SendEvent, SendStatus,
};
pub use queues::{SystemPool, UserQueues};

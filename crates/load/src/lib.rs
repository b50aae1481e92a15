//! # suca-load — deterministic workload generation and SLO reporting
//!
//! The ROADMAP's north star is BCL serving heavy request traffic from
//! many thousands of users. This crate models exactly that, on top of
//! [`suca_rpc`]:
//!
//! * [`kv`] — a reference in-memory KV service (GET/PUT/SCAN op classes
//!   with calibrated service costs; SCAN responses are large enough to
//!   exercise the RMA response path).
//! * [`gen`] — open-loop (fixed-seed Poisson-like arrivals) and
//!   closed-loop (think-time users) generators. Thousands of simulated
//!   users are multiplexed over a few dozen client actors — one
//!   [`suca_rpc::RpcClient`] per actor.
//! * [`slo`] — a deterministic SLO report (per-op-class p50/p95/p99/p99.9,
//!   goodput, shed/timeout/retry accounting) written to `target/slo/`.
//!
//! Everything draws from [`suca_sim::SimRng`] forks, so a fixed master
//! seed reproduces the workload byte-for-byte.

#![warn(missing_docs)]

pub mod gen;
pub mod kv;
pub mod slo;

pub use gen::{
    absorb_completion, run_closed_loop, run_open_loop, ClosedLoopCfg, LatencyHists, LoadStats, Mix,
    OpenLoopCfg, ShardMap, KV_CLASSES,
};
pub use kv::{KvCosts, KvService, OP_GET, OP_PUT, OP_SCAN, SCAN_BYTES, VALUE_BYTES};
pub use slo::{ClassSlo, SloReport, TenantSlo};

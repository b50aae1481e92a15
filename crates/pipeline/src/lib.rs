//! # suca-pipeline — staged dataflow over cluster nodes
//!
//! The third tenant workload of the multi-tenant layer: batch jobs that
//! run `plan → group-schedule → execute → output-fetch` over a set of
//! worker nodes, all through the tenant-stamped RPC layer.
//!
//! * **Planning** ([`plan_stage`]) — pure, deterministic task-to-worker
//!   rotation.
//! * **Workers** ([`PipelineWorker`]) — EXEC materializes a deterministic
//!   output per `(job, stage, task)` and acks its checksum; FETCH returns
//!   the stored output (sized past the inline bound, so output collection
//!   exercises RMA delivery).
//! * **Driver** ([`run_driver`]) — fans each stage out, verifies every
//!   checksum and fetched body against the output model, and feeds
//!   per-stage durations into `pipeline.stage_ns.*` histograms plus
//!   `pipe:*` trace instants — the per-stage event monitoring the mixed
//!   harness's telemetry shows.

#![warn(missing_docs)]

pub mod driver;
pub mod plan;
pub mod worker;

pub use driver::{run_driver, DriverCfg, DriverStats};
pub use plan::{plan_stage, PipelineSpec, TaskGroup};
pub use worker::{
    checksum, dec_header, enc_exec, enc_fetch, output_for, PipelineCosts, PipelineWorker,
    CLASS_NAMES, OP_EXEC, OP_FETCH,
};

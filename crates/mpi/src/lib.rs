//! # suca-mpi — MPI-like layer over EADI-2
//!
//! Point-to-point with MPI envelope semantics ([`Comm`]), collectives
//! ([`collectives`]: one plan per barrier/bcast/allreduce, run on the NIC or
//! walked by the host over point-to-point, see [`offload`]), and typed
//! helpers ([`datatype`]). Mirrors DAWNING-3000's MPICH-on-EADI-2 stack (paper
//! Fig. 1); Table 3's MPI rows are measured through this layer.

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod offload;

pub use comm::{Comm, Message, MpiConfig, ANY_SOURCE, ANY_TAG};
pub use datatype::{bytes_to_f64s, bytes_to_i32s, f64s_to_bytes, i32s_to_bytes, ReduceOp};

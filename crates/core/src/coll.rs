//! NIC-side collective execution types.
//!
//! `suca-coll` describes collectives as rank-space *plans*; this module
//! holds the execution-level form the kernel module writes into NIC memory:
//! a per-participant schedule over concrete [`ProcAddr`]es plus the pinned
//! payload/result scatter-gather lists. The MCP's plan interpreter (see
//! `mcp/interp.rs`) walks the schedule entirely NIC-side — fan-in combining
//! and fan-out forwarding never cross back to the host, so a participant
//! pays exactly one initiating trap and polls one completion event
//! (`ChainPolicy::collective()` in `suca-obs`).

use suca_mem::NicSegs;

use crate::port::{PortId, ProcAddr};

/// Reduction operator the NIC applies to arriving contributions,
/// elementwise over little-endian `f64` lanes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

impl CollOp {
    /// Apply the operator to one lane.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            CollOp::Sum => a + b,
            CollOp::Min => a.min(b),
            CollOp::Max => a.max(b),
            CollOp::Prod => a * b,
        }
    }

    /// Fold `incoming` into `acc` lane by lane. `false` when the buffers
    /// disagree in length or are not whole `f64` lanes — the interpreter
    /// turns that into a counted protocol error, never a panic.
    pub fn fold_bytes(self, acc: &mut [u8], incoming: &[u8]) -> bool {
        if acc.len() != incoming.len() || !acc.len().is_multiple_of(8) {
            return false;
        }
        for (a, b) in acc.chunks_exact_mut(8).zip(incoming.chunks_exact(8)) {
            let va = f64::from_le_bytes([a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]]);
            let vb = f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
            a.copy_from_slice(&self.apply(va, vb).to_le_bytes());
        }
        true
    }
}

/// One step of a participant's schedule, in execution form. Semantics match
/// `suca-coll`: on *entering* the step the NIC sends its accumulator to
/// every `send_to` peer; the step completes when one contribution per
/// `recv_from` entry has arrived on the matching `(peer, chunk)` edge, each
/// folded into ([`CollOp`]) or adopted as the accumulator.
#[derive(Clone, Debug)]
pub struct CollStep {
    /// Peers whose contribution this step waits for, combined in order.
    pub recv_from: Vec<ProcAddr>,
    /// Peers the accumulator is sent to on step entry.
    pub send_to: Vec<ProcAddr>,
    /// Replace the accumulator instead of folding (fan-out half).
    pub adopt: bool,
    /// Chunk index keying contribution matching (plan `chunk`).
    pub chunk: u32,
}

/// A collective descriptor, as written into NIC memory by the kernel
/// module's one send path (`BclKmod::submit`) — the one host crossing of
/// the whole collective. Everything the interpreter needs is here: the
/// schedule, the pinned contribution to fetch, and the pinned buffer the
/// finished result is DMA'd back into.
#[derive(Clone, Debug)]
pub struct CollSetup {
    /// Initiating port; the completion event lands in its send queue.
    pub port: PortId,
    /// Collective id, identical on every participant (matches arrivals to
    /// runs; unique per port among in-flight collectives).
    pub coll_id: u32,
    /// Reduction operator for non-adopt receives.
    pub op: CollOp,
    /// This participant's schedule, executed in order.
    pub steps: Vec<CollStep>,
    /// Pinned segments of the local contribution.
    pub payload: NicSegs,
    /// Contribution length in bytes (0 for barrier).
    pub payload_len: u64,
    /// Pinned segments the final accumulator is DMA'd into.
    pub result: NicSegs,
    /// Result length in bytes; must equal the accumulator's final length.
    pub result_len: u64,
    /// Kernel-assigned message id: stamped on every wire send of this
    /// participant and on the completion event the initiator polls.
    pub msg_id: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn fold_bytes_applies_ops_lanewise() {
        let mut acc = b(&[1.0, 8.0]);
        assert!(CollOp::Sum.fold_bytes(&mut acc, &b(&[2.0, -3.0])));
        assert_eq!(acc, b(&[3.0, 5.0]));
        let mut acc = b(&[1.0, 8.0]);
        assert!(CollOp::Min.fold_bytes(&mut acc, &b(&[2.0, -3.0])));
        assert_eq!(acc, b(&[1.0, -3.0]));
        let mut acc = b(&[1.0, 8.0]);
        assert!(CollOp::Max.fold_bytes(&mut acc, &b(&[2.0, -3.0])));
        assert_eq!(acc, b(&[2.0, 8.0]));
        let mut acc = b(&[2.0, 8.0]);
        assert!(CollOp::Prod.fold_bytes(&mut acc, &b(&[3.0, 0.5])));
        assert_eq!(acc, b(&[6.0, 4.0]));
    }

    #[test]
    fn fold_bytes_rejects_mismatch() {
        let mut acc = b(&[1.0]);
        assert!(!CollOp::Sum.fold_bytes(&mut acc, &b(&[1.0, 2.0])));
        let mut acc = vec![0u8; 7];
        assert!(!CollOp::Sum.fold_bytes(&mut acc, &[0u8; 7]));
        // Zero-length folds (barrier) are trivially fine.
        let mut acc = Vec::new();
        assert!(CollOp::Sum.fold_bytes(&mut acc, &[]));
    }
}

//! Typed views over byte payloads and reduction operators.
//!
//! Our MPI layer moves bytes; these helpers give the examples and
//! collectives typed access (`f64`/`i32` vectors) and elementwise reduction
//! semantics.

/// Reduction operators for numeric collectives: the NIC's own operator, so
/// the host and the MCP fold with one function.
pub use suca_bcl::CollOp as ReduceOp;

/// Fold `incoming` into `acc`, lane by lane over little-endian `f64`s, with
/// [`ReduceOp::fold_bytes`], the fold the MCP's plan interpreter runs.
/// Panics on a length mismatch — ranks disagreeing on count is a
/// collective-contract violation.
pub(crate) fn fold(op: ReduceOp, acc: &mut [u8], incoming: &[u8]) {
    assert!(op.fold_bytes(acc, incoming), "reduce length mismatch");
}

/// Serialize an `f64` slice to little-endian bytes.
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Parse little-endian bytes into `f64`s. Panics on ragged input.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "ragged f64 payload");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// Serialize an `i32` slice to little-endian bytes.
pub fn i32s_to_bytes(v: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Parse little-endian bytes into `i32`s. Panics on ragged input.
pub fn bytes_to_i32s(b: &[u8]) -> Vec<i32> {
    assert_eq!(b.len() % 4, 0, "ragged i32 payload");
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn i32_roundtrip() {
        let v = vec![1, -2, i32::MAX, i32::MIN];
        assert_eq!(bytes_to_i32s(&i32s_to_bytes(&v)), v);
    }

    #[test]
    fn ops() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Prod.apply(2.0, 3.0), 6.0);
        let mut acc = f64s_to_bytes(&[1.0, 5.0]);
        fold(ReduceOp::Max, &mut acc, &f64s_to_bytes(&[3.0, 2.0]));
        assert_eq!(bytes_to_f64s(&acc), vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "reduce length mismatch")]
    fn fold_length_mismatch_panics() {
        fold(
            ReduceOp::Sum,
            &mut f64s_to_bytes(&[1.0]),
            &f64s_to_bytes(&[1.0, 2.0]),
        );
    }
}

//! EADI message header.
//!
//! Every EADI control/eager message travels on the BCL system channel with
//! this 24-byte header in front of the payload. Rendezvous payload segments
//! travel header-less on normal channels (the channel number itself is the
//! context, negotiated by RTS/CTS).

/// Serialized header size.
pub const EADI_HEADER: usize = 24;

/// EADI message kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EadiKind {
    /// Small message: payload follows the header.
    Eager,
    /// Request-to-send for a rendezvous transfer (no payload).
    Rts,
    /// Clear-to-send: receiver granted channels (no payload).
    Cts,
}

impl EadiKind {
    fn to_wire(self) -> u8 {
        match self {
            EadiKind::Eager => 1,
            EadiKind::Rts => 2,
            EadiKind::Cts => 3,
        }
    }
    fn from_wire(b: u8) -> Option<Self> {
        match b {
            1 => Some(EadiKind::Eager),
            2 => Some(EadiKind::Rts),
            3 => Some(EadiKind::Cts),
            _ => None,
        }
    }
}

/// Parsed EADI header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EadiHeader {
    /// Message kind.
    pub kind: EadiKind,
    /// Application tag.
    pub tag: i32,
    /// Sending rank.
    pub src_rank: u32,
    /// Transfer id: rendezvous exchange id, or eager sequence number.
    pub xid: u32,
    /// Total message length in bytes.
    pub total_len: u32,
    /// Kind-specific: CTS → first granted channel; RTS → requested segment
    /// count.
    pub aux: u32,
}

impl EadiHeader {
    /// Serialize with `payload` appended.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(EADI_HEADER + payload.len());
        b.extend_from_slice(&[self.kind.to_wire(), 0, 0, 0]);
        b.extend_from_slice(&self.tag.to_le_bytes());
        b.extend_from_slice(&self.src_rank.to_le_bytes());
        b.extend_from_slice(&self.xid.to_le_bytes());
        b.extend_from_slice(&self.total_len.to_le_bytes());
        b.extend_from_slice(&self.aux.to_le_bytes());
        debug_assert_eq!(b.len(), EADI_HEADER);
        b.extend_from_slice(payload);
        b
    }

    /// Parse; returns header and payload slice. `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<(EadiHeader, &[u8])> {
        if buf.len() < EADI_HEADER {
            return None;
        }
        let kind = EadiKind::from_wire(buf[0])?;
        let i32le = |i: usize| i32::from_le_bytes(buf[i..i + 4].try_into().expect("len checked"));
        let u32le = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("len checked"));
        let h = EadiHeader {
            kind,
            tag: i32le(4),
            src_rank: u32le(8),
            xid: u32le(12),
            total_len: u32le(16),
            aux: u32le(20),
        };
        Some((h, &buf[EADI_HEADER..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = EadiHeader {
            kind: EadiKind::Rts,
            tag: -77,
            src_rank: 12,
            xid: 900,
            total_len: 1 << 20,
            aux: 8,
        };
        let buf = h.encode(b"xyz");
        let (h2, payload) = EadiHeader::decode(&buf).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn rejects_short_and_bad_kind() {
        assert!(EadiHeader::decode(b"short").is_none());
        let mut buf = EadiHeader {
            kind: EadiKind::Eager,
            tag: 0,
            src_rank: 0,
            xid: 0,
            total_len: 0,
            aux: 0,
        }
        .encode(b"");
        buf[0] = 99;
        assert!(EadiHeader::decode(&buf).is_none());
    }
}

//! BCL wire format.
//!
//! Every packet the MCP injects starts with a fixed 32-byte header followed
//! by the fragment payload. Headers are serialized to real bytes — the
//! fabric is given one opaque buffer, exactly as Myrinet sees one packet —
//! and parsed back on the receiving NIC, so header overhead shows up in wire
//! timing and corruption genuinely garbles messages. Control packets
//! (acks, rejects, the epoch handshake, probes) are the header alone, its
//! generic fields overloaded; their layouts are the header constructors in
//! `mcp/peer.rs`. A probe is the one control packet that travels the data
//! path: the sender queues it behind its data and the receiver runs it
//! through its data rx ring, so its reply is ordered after every earlier
//! packet.
//!
//! A packet is one immutable `Rc<[u8]>`, built once by
//! [`WireHeader::encode`] and shared, not copied, by the fabric, the
//! sender's go-back-N window and the receiver's rx ring. The header has a
//! fixed size, so a packet's payload is always `pkt[HEADER_BYTES..]`: the
//! receive path keeps the packet and reads that range.

use std::iter;
use std::rc::Rc;

use crate::port::{ChannelId, ChannelKind, PortId};

/// Serialized header size.
pub const HEADER_BYTES: usize = 32;

/// Header magic (low half of the old 32-bit magic word; the high half now
/// carries the go-back-N stream epoch).
pub const WIRE_MAGIC: u16 = 0xB0C1;

/// Packet type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireKind {
    /// Message fragment.
    Data,
    /// Cumulative acknowledgement of link-level sequence numbers.
    Ack,
    /// Receiver could not accept the message (channel not posted / pool
    /// full); sender should retry the whole message.
    Reject,
    /// RMA read request (target responds with `RmaReadData` fragments on the
    /// requester's pending-read stream).
    RmaReadReq,
    /// RMA read response fragment; `msg_id` matches the original request.
    RmaReadData,
    /// Epoch resync request: the sender opens a new go-back-N stream epoch
    /// (rail failover, NIC reset). The receiver must adopt the epoch, reset
    /// its receive stream, and answer with [`WireKind::EpochSyncAck`].
    EpochSync,
    /// Epoch resync reply; `seq` carries the receiver's cumulative ack for
    /// the *previous* epoch's stream so the sender retransmits only what was
    /// genuinely undelivered.
    EpochSyncAck,
    /// One collective-plan contribution: the sender's accumulator for one
    /// plan step. Single-fragment; the payload starts with a 4-byte LE
    /// collective id and `offset` carries the plan chunk index. Rides the
    /// go-back-N stream like `Data` but is consumed by the receiving NIC's
    /// plan interpreter instead of the host delivery path.
    Coll,
    /// A timer expiry's question, header only: "your cum, once you have
    /// processed everything I sent before this". `seq` carries the sender's
    /// next seq (the fence) and `msg_id` a nonzero token, which the
    /// [`WireKind::Ack`] that answers it echoes in its own `msg_id`. Not
    /// sequenced: it rides behind the go-back-N stream, not in it.
    Probe,
}

impl WireKind {
    fn to_wire(self) -> u8 {
        match self {
            WireKind::Data => 1,
            WireKind::Ack => 2,
            WireKind::Reject => 3,
            WireKind::RmaReadReq => 4,
            WireKind::RmaReadData => 5,
            WireKind::EpochSync => 6,
            WireKind::EpochSyncAck => 7,
            WireKind::Coll => 8,
            WireKind::Probe => 9,
        }
    }
    fn from_wire(b: u8) -> Option<Self> {
        match b {
            1 => Some(WireKind::Data),
            2 => Some(WireKind::Ack),
            3 => Some(WireKind::Reject),
            4 => Some(WireKind::RmaReadReq),
            5 => Some(WireKind::RmaReadData),
            6 => Some(WireKind::EpochSync),
            7 => Some(WireKind::EpochSyncAck),
            8 => Some(WireKind::Coll),
            9 => Some(WireKind::Probe),
            _ => None,
        }
    }
}

/// Parsed packet header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireHeader {
    /// Packet type.
    pub kind: WireKind,
    /// Destination channel (kind + index).
    pub channel: ChannelId,
    /// Sending port on the source node.
    pub src_port: PortId,
    /// Destination port on the destination node.
    pub dst_port: PortId,
    /// Sender-assigned message id (per source NIC, monotonically increasing);
    /// a probe's token on a `Probe` and on the `Ack` that answers it.
    pub msg_id: u32,
    /// Link-level go-back-N sequence number (Data), cumulative ack (Ack) or
    /// fence (Probe).
    pub seq: u32,
    /// Byte offset of this fragment within the message; for RMA, offset
    /// within the bound buffer.
    pub offset: u32,
    /// Total message length in bytes.
    pub total_len: u32,
    /// Payload bytes following the header in this packet.
    pub frag_len: u32,
    /// Go-back-N stream epoch: bumped by the sending kernel on rail failover
    /// or NIC reset so both ends can resync without losing or duplicating
    /// messages. Packets carrying a stale epoch are counted and dropped.
    pub epoch: u16,
}

impl WireHeader {
    /// Serialize, prepending to `payload`. The packet is allocated once at
    /// its final length, and the payload is copied into it once.
    pub fn encode(&self, payload: &[u8]) -> Rc<[u8]> {
        debug_assert_eq!(payload.len(), self.frag_len as usize);
        // Zero-filled, then written in place: collecting a chained iterator
        // into the `Rc` allocates once too, but copies byte by byte.
        let mut pkt: Rc<[u8]> = iter::repeat_n(0, HEADER_BYTES + payload.len()).collect();
        let b = Rc::get_mut(&mut pkt).expect("a new packet is unshared");
        b[0] = self.kind.to_wire();
        b[1] = self.channel.kind.to_wire();
        b[2..4].copy_from_slice(&self.channel.index.to_le_bytes());
        b[4..6].copy_from_slice(&self.src_port.0.to_le_bytes());
        b[6..8].copy_from_slice(&self.dst_port.0.to_le_bytes());
        b[8..12].copy_from_slice(&self.msg_id.to_le_bytes());
        b[12..16].copy_from_slice(&self.seq.to_le_bytes());
        b[16..20].copy_from_slice(&self.offset.to_le_bytes());
        b[20..24].copy_from_slice(&self.total_len.to_le_bytes());
        b[24..28].copy_from_slice(&self.frag_len.to_le_bytes());
        b[28..30].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
        b[30..32].copy_from_slice(&self.epoch.to_le_bytes());
        b[HEADER_BYTES..].copy_from_slice(payload);
        pkt
    }

    /// Parse a packet; returns the header and the payload,
    /// `&b[HEADER_BYTES..]`. `None` on malformed input (short packet,
    /// bad kind, inconsistent lengths) — corrupted packets must never panic
    /// the firmware.
    pub fn decode(b: &[u8]) -> Option<(WireHeader, &[u8])> {
        if b.len() < HEADER_BYTES {
            return None;
        }
        let kind = WireKind::from_wire(b[0])?;
        let chan_kind = ChannelKind::from_wire(b[1])?;
        let u16le = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let u32le = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let header = WireHeader {
            kind,
            channel: ChannelId {
                kind: chan_kind,
                index: u16le(2),
            },
            src_port: PortId(u16le(4)),
            dst_port: PortId(u16le(6)),
            msg_id: u32le(8),
            seq: u32le(12),
            offset: u32le(16),
            total_len: u32le(20),
            frag_len: u32le(24),
            epoch: u16le(30),
        };
        if u16le(28) != WIRE_MAGIC {
            return None;
        }
        if b.len() != HEADER_BYTES + header.frag_len as usize {
            return None;
        }
        Some((header, &b[HEADER_BYTES..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireHeader {
        WireHeader {
            kind: WireKind::Data,
            channel: ChannelId::normal(5),
            src_port: PortId(2),
            dst_port: PortId(9),
            msg_id: 1234,
            seq: 77,
            offset: 8192,
            total_len: 10_000,
            frag_len: 5,
            epoch: 3,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let pkt = h.encode(b"hello");
        assert_eq!(pkt.len(), HEADER_BYTES + 5);
        let (h2, payload) = WireHeader::decode(&pkt).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            WireKind::Data,
            WireKind::Ack,
            WireKind::Reject,
            WireKind::RmaReadReq,
            WireKind::RmaReadData,
            WireKind::EpochSync,
            WireKind::EpochSyncAck,
            WireKind::Coll,
            WireKind::Probe,
        ] {
            let mut h = sample();
            h.kind = kind;
            h.frag_len = 0;
            let (h2, _) = WireHeader::decode(&h.encode(b"")).unwrap();
            assert_eq!(h2.kind, kind);
        }
    }

    #[test]
    fn epoch_roundtrips_through_the_magic_word() {
        for epoch in [0u16, 1, 0x7FFF, u16::MAX] {
            let mut h = sample();
            h.epoch = epoch;
            let (h2, _) = WireHeader::decode(&h.encode(b"hello")).unwrap();
            assert_eq!(h2.epoch, epoch);
        }
    }

    #[test]
    fn malformed_packets_return_none() {
        // Too short.
        assert!(WireHeader::decode(b"tiny").is_none());
        // Bad kind byte.
        let mut raw = sample().encode(b"hello").to_vec();
        raw[0] = 200;
        assert!(WireHeader::decode(&raw).is_none());
        // Length mismatch (truncated payload).
        let good = sample().encode(b"hello");
        let truncated = &good[..good.len() - 1];
        assert!(WireHeader::decode(truncated).is_none());
        // Bad magic.
        let mut raw2 = sample().encode(b"hello").to_vec();
        raw2[28] ^= 0xFF;
        assert!(WireHeader::decode(&raw2).is_none());
    }

    #[test]
    fn received_payload_is_a_view_into_the_sent_packet() {
        // The sender's window and the fabric each hold a clone of one
        // packet; the receiver reads the payload in place.
        let pkt = sample().encode(b"hello");
        let arrived = pkt.clone();
        let (_, payload) = WireHeader::decode(&arrived).unwrap();
        assert!(
            std::ptr::eq(payload, &pkt[HEADER_BYTES..]),
            "payload was copied"
        );
    }
}

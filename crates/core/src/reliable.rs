//! Link-level reliability: go-back-N between NIC pairs.
//!
//! The paper's MCP "performs data checking and guarantees reliable
//! transmission in the on-card control program" — about 5.65 µs of the
//! one-way time — and "performs re-transmission when timeout". We implement
//! a classic go-back-N: per-destination sequence numbers, a bounded window
//! of unacked packets buffered in NIC SRAM, cumulative ACKs, and a
//! full-window retransmission — but only on proof of a loss, never on a
//! timer's guess. Two kinds of ack carry that proof:
//!
//! * a gap ack answers an out-of-order arrival and carries how many
//!   out-of-order arrivals the receiver has seen since its cum last moved;
//!   [`GbnSender::on_gap_ack`] resends at once for a new hole, and again for
//!   a hole already resent when that count exceeds the copies sent behind
//!   the hole before the resend;
//! * a probe's reply. A timer expiry only asks: the sender queues a
//!   header-only probe behind every packet it has sent ([`GbnSender::probe`])
//!   and the receiver answers with its cum after every earlier arrival.
//!   [`GbnSender::on_probe_reply`] resends when the cum still names the
//!   first unacked packet and the probe's fence lies past it, and reports a
//!   receiver that lost its stream when the cum went backwards.
//!
//! Both rest on a rail that never reorders or duplicates. The probe timer's
//! period comes from [`Srtt`], an RFC 6298 smoothed RTT sampled under
//! Karn's rule. The receiver accepts only the next expected sequence
//! number, which also guarantees in-order fragment delivery per NIC pair
//! (BCL relies on this for reassembly-free receives). The paper's MCP
//! retransmits on timeout only; the gap ack and the probe are ours.
//!
//! The window keeps each packet as the `Rc<[u8]>` that went on the wire
//! (`wire.rs`): a retained copy or a resend shares its bytes.
//!
//! This module is pure state logic (no simulator types; times are plain
//! nanoseconds) so the protocol can be exhaustively unit- and
//! property-tested; `mcp/peer.rs` wires it to timers and the fabric.

use std::collections::VecDeque;

use std::rc::Rc;

use crate::wire::WireHeader;

/// Serial-number comparison (RFC 1982 style): true when `a` precedes `b`
/// in the circular u32 sequence space. The signed interpretation of the
/// wrapped difference gives the right answer whenever the live sequence
/// numbers span less than 2³¹ — go-back-N windows are a handful of
/// packets, so this holds by nine orders of magnitude.
#[inline]
fn seq_before(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// A violated go-back-N sender invariant. The firmware never panics on
/// these: `mcp/send.rs` converts them into counted protocol errors that
/// trip the flight recorder and abandon the offending send (the same
/// treatment the MCP state machine gives its own inconsistencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GbnError {
    /// `record_sent` was handed a sequence number other than
    /// [`GbnSender::next_seq`].
    OutOfOrderSeq {
        /// The sequence number the stream expected next.
        expected: u32,
        /// The sequence number actually recorded.
        got: u32,
    },
    /// `record_sent` was called with the window already full.
    WindowOverflow {
        /// The configured window size (packets).
        window: u32,
    },
}

impl GbnError {
    /// Stable reason string for counters / flight-recorder banners.
    pub fn reason(&self) -> &'static str {
        match self {
            GbnError::OutOfOrderSeq { .. } => "go-back-N sender: out-of-order record_sent",
            GbnError::WindowOverflow { .. } => "go-back-N sender: window overflow",
        }
    }
}

/// Sender half of one NIC-pair stream.
///
/// ```
/// use suca_bcl::reliable::{GbnSender, GbnReceiver, GbnVerdict};
/// use std::rc::Rc;
///
/// let mut tx = GbnSender::new(4);
/// let mut rx = GbnReceiver::new();
/// let seq = tx.next_seq();
/// tx.record_sent(seq, Rc::from(*b"frag"), 0).expect("in window");
/// assert_eq!(rx.on_data(seq), GbnVerdict::Accept);
/// assert_eq!(tx.on_ack(rx.cum_ack()).packets, 1); // window slot freed
/// ```
pub struct GbnSender {
    next_seq: u32,
    window: u32,
    /// Unacked packets in seq order.
    inflight: VecDeque<Unacked>,
    /// The last window resend as `(hole, budget)`: the seq it resent first,
    /// and how many copies of the packets behind that seq had gone out
    /// before it.
    last_resend: Option<(u32, u32)>,
    /// The probe whose reply may still prove something, as `(token,
    /// fence)`. A window resend clears it: a copy sent after the probe may
    /// yet arrive, so the reply no longer proves the hole lost.
    probe: Option<(u32, u32)>,
    /// The last probe token issued; 0 before the first (plain acks carry 0).
    last_token: u32,
}

/// One unacknowledged packet.
struct Unacked {
    seq: u32,
    /// The encoded packet, kept for retransmission.
    pkt: Rc<[u8]>,
    /// Copies put on the wire so far, the first included.
    sends: u32,
    /// When the first copy went out (ns), for an RTT sample.
    sent_ns: u64,
}

/// What a cumulative ack freed ([`GbnSender::on_ack`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Freed {
    /// Packets newly acknowledged.
    pub packets: usize,
    /// When the newest of them was sent, if it was sent only once: the one
    /// RTT sample Karn's rule allows. A resent packet's ack may answer
    /// either copy. (In a go-back-N window the copy counts never rise from
    /// front to back, so the newest freed packet is also the newest freed
    /// one sent once.)
    pub sent_once_ns: Option<u64>,
}

/// What a probe's reply proved ([`GbnSender::on_probe_reply`]).
#[derive(Debug, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The first unacked packet was lost: every unacknowledged packet,
    /// oldest first, goes out again.
    Lost(Vec<Rc<[u8]>>),
    /// The receiver's cum is behind what it acknowledged before: it lost
    /// its stream (a NIC reset), and only an epoch resync reconciles.
    ReceiverReset,
}

/// The window resend a gap ack earned ([`GbnSender::on_gap_ack`]).
#[derive(Debug, PartialEq, Eq)]
pub struct FastResend {
    /// Every unacknowledged packet, oldest first.
    pub packets: Vec<Rc<[u8]>>,
    /// The hole had been resent already, and that resend was dropped.
    pub repeat: bool,
}

impl GbnSender {
    /// New stream with the given window (packets).
    pub fn new(window: u32) -> Self {
        assert!(window > 0);
        GbnSender {
            next_seq: 0,
            window,
            inflight: VecDeque::new(),
            last_resend: None,
            probe: None,
            last_token: 0,
        }
    }

    /// True if the window has room for another packet.
    pub fn can_send(&self) -> bool {
        (self.inflight.len() as u32) < self.window
    }

    /// Sequence number the next packet must carry.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Record a packet as sent at `sent_ns` (it must carry
    /// [`GbnSender::next_seq`]). The encoded packet is retained, shared,
    /// for retransmission. A violated precondition is reported instead of
    /// panicking, so firmware can turn it into a counted protocol error.
    pub fn record_sent(&mut self, seq: u32, pkt: Rc<[u8]>, sent_ns: u64) -> Result<(), GbnError> {
        if seq != self.next_seq {
            return Err(GbnError::OutOfOrderSeq {
                expected: self.next_seq,
                got: seq,
            });
        }
        if !self.can_send() {
            return Err(GbnError::WindowOverflow {
                window: self.window,
            });
        }
        self.inflight.push_back(Unacked {
            seq,
            pkt,
            sends: 1,
            sent_ns,
        });
        self.next_seq = self.next_seq.wrapping_add(1);
        Ok(())
    }

    /// Process a cumulative ACK (`cum_ack` = receiver's next expected seq).
    pub fn on_ack(&mut self, cum_ack: u32) -> Freed {
        let mut freed = Freed::default();
        while let Some(u) = self.inflight.front() {
            if !seq_before(u.seq, cum_ack) {
                break;
            }
            freed.packets += 1;
            freed.sent_once_ns = (u.sends == 1).then_some(u.sent_ns);
            self.inflight.pop_front();
        }
        freed
    }

    /// Packets currently unacknowledged (oldest first).
    pub fn unacked(&self) -> impl Iterator<Item = &Rc<[u8]>> + '_ {
        self.inflight.iter().map(|u| &u.pkt)
    }

    /// Go back N: every unacknowledged packet goes out again, oldest first.
    /// The resend is remembered as `(hole, budget)` — its first seq, and the
    /// copies of the packets behind that seq sent before it — for
    /// [`GbnSender::on_gap_ack`], and it voids the outstanding probe. Gap
    /// acks and probe replies both resend here.
    fn resend_window(&mut self) -> Vec<Rc<[u8]>> {
        let Some(hole) = self.inflight.front().map(|u| u.seq) else {
            return Vec::new();
        };
        let budget = self.inflight.iter().skip(1).map(|u| u.sends).sum();
        self.last_resend = Some((hole, budget));
        self.probe = None;
        self.inflight
            .iter_mut()
            .map(|u| {
                u.sends += 1;
                u.pkt.clone()
            })
            .collect()
    }

    /// The fast-retransmit rule, for an ack already applied by
    /// [`GbnSender::on_ack`]. `out_of_order` is the ack's count of
    /// out-of-order arrivals since the receiver's cum last moved; 0 means
    /// the ack is no gap ack. Every such arrival is a copy of a packet
    /// behind the hole at `cum`, and it overtook no copy of the hole: a rail
    /// never reorders. So the window goes out again at once when
    ///
    /// * no resend has started at this hole: the arrival overtook a copy of
    ///   the hole, which was therefore lost (a resend that started at an
    ///   earlier hole may have sent a later copy; resending again is then
    ///   early, never wrong); or
    /// * the last resend did, and `out_of_order` exceeds its budget: a rail
    ///   never duplicates either, so at least one arrival is a copy sent
    ///   after the resend, and the resent hole was lost (a `repeat`).
    ///
    /// Any other gap ack may have been drawn by a copy sent before the
    /// resend, and is ignored; the probe remains the backstop.
    pub fn on_gap_ack(&mut self, cum: u32, out_of_order: u32) -> Option<FastResend> {
        let hole = self.inflight.front()?.seq;
        if out_of_order == 0 || hole != cum {
            return None;
        }
        let repeat = match self.last_resend {
            Some((resent, budget)) if resent == hole => {
                if out_of_order <= budget {
                    return None;
                }
                true
            }
            _ => false,
        };
        let packets = self.resend_window();
        Some(FastResend { packets, repeat })
    }

    /// A timer expiry asks instead of resending: issue a probe and return
    /// its `(token, fence)`. The fence is [`GbnSender::next_seq`]; the
    /// caller must put the probe on the wire behind every packet sent so
    /// far, on the same rail. Tokens skip 0, the value plain acks carry,
    /// and a new probe supersedes the last one.
    pub fn probe(&mut self) -> (u32, u32) {
        self.last_token = self.last_token.wrapping_add(1).max(1);
        let probe = (self.last_token, self.next_seq);
        self.probe = Some(probe);
        probe
    }

    /// The probe rule, for a reply already applied by
    /// [`GbnSender::on_ack`]. The receiver answered after processing every
    /// arrival ahead of the probe, and a rail never reorders, so every
    /// packet sent before the probe has either arrived or been lost. The
    /// reply counts only if it echoes the latest `token` and no window
    /// resend has started since (a later copy could still arrive). Then:
    ///
    /// * `cum` is the first unacked seq and precedes the fence: that packet
    ///   was lost, and the window goes out again;
    /// * `cum` precedes the first unacked seq: the receiver acknowledged
    ///   more than it now holds, so it lost its stream
    ///   ([`ProbeVerdict::ReceiverReset`]);
    /// * anything else (`cum` at or past the fence, whose ack just freed
    ///   the window) proves nothing more.
    pub fn on_probe_reply(&mut self, cum: u32, token: u32) -> Option<ProbeVerdict> {
        let (_, fence) = self.probe.filter(|&(latest, _)| latest == token)?;
        self.probe = None;
        let hole = self.inflight.front()?.seq;
        if seq_before(cum, hole) {
            Some(ProbeVerdict::ReceiverReset)
        } else if cum == hole && seq_before(cum, fence) {
            Some(ProbeVerdict::Lost(self.resend_window()))
        } else {
            None
        }
    }

    /// Number of unacked packets.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

/// The probe interval's floor (50 µs): the period never drops below it,
/// however short the measured RTT.
pub const PROBE_FLOOR_NS: u64 = 50_000;

/// Smoothed RTTs per probe interval.
pub const PROBE_RTTS: u64 = 4;

/// The smoothed ack round-trip time to one destination (RFC 6298's SRTT,
/// gain 1/8), and the probe interval it sets. The caller samples it only as
/// [`Freed::sent_once_ns`] allows (Karn's rule).
///
/// ```
/// use suca_bcl::reliable::Srtt;
///
/// let mut rtt = Srtt::default();
/// assert_eq!(rtt.probe_interval_ns(300_000), 300_000); // no sample yet
/// rtt.sample(20_000);
/// assert_eq!(rtt.probe_interval_ns(300_000), 80_000); // 4 x srtt
/// rtt.sample(12_000);
/// assert_eq!(rtt.probe_interval_ns(300_000), 76_000); // srtt 19 us
/// rtt.sample(1_000);
/// assert_eq!(rtt.probe_interval_ns(300_000), 67_000); // srtt 16.75 us
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Srtt {
    ns: Option<u64>,
}

impl Srtt {
    /// Fold in one RTT sample: the first is taken whole, later ones with
    /// gain 1/8.
    pub fn sample(&mut self, rtt_ns: u64) {
        self.ns = Some(self.ns.map_or(rtt_ns, |s| (7 * s + rtt_ns) / 8));
    }

    /// `clamp(PROBE_RTTS × srtt, PROBE_FLOOR_NS, ceiling_ns)`; the ceiling
    /// until a sample arrives. No backoff: an unanswered probe proves
    /// nothing about the RTT.
    pub fn probe_interval_ns(&self, ceiling_ns: u64) -> u64 {
        let interval = self.ns.map_or(ceiling_ns, |s| s.saturating_mul(PROBE_RTTS));
        interval.max(PROBE_FLOOR_NS).min(ceiling_ns)
    }
}

/// Receiver verdict for an arriving data packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GbnVerdict {
    /// Next expected packet: deliver it.
    Accept,
    /// Already delivered (retransmission overlap): discard, but re-ACK.
    Duplicate,
    /// A gap precedes it (go-back-N never buffers): discard, re-ACK.
    OutOfOrder,
}

impl GbnVerdict {
    /// Whether the re-ACK for this arrival is a gap ack, carrying the
    /// receiver's out-of-order count. Only an out-of-order arrival shows
    /// that the packet at the cum was lost. A duplicate means an ack was
    /// lost or a resend overlapped; its cum names a packet that may well
    /// be in flight, and a gap ack for it would resend a window that was
    /// never lost.
    pub fn reveals_gap(self) -> bool {
        self == GbnVerdict::OutOfOrder
    }
}

/// Receiver half of one NIC-pair stream.
pub struct GbnReceiver {
    expected: u32,
    /// Out-of-order arrivals since `expected` last moved.
    out_of_order: u32,
}

impl GbnReceiver {
    /// New stream.
    pub fn new() -> Self {
        GbnReceiver {
            expected: 0,
            out_of_order: 0,
        }
    }

    /// Classify an arriving sequence number and advance on accept.
    pub fn on_data(&mut self, seq: u32) -> GbnVerdict {
        if seq == self.expected {
            self.expected = self.expected.wrapping_add(1);
            self.out_of_order = 0;
            GbnVerdict::Accept
        } else if seq_before(seq, self.expected) {
            GbnVerdict::Duplicate
        } else {
            self.out_of_order = self.out_of_order.saturating_add(1);
            GbnVerdict::OutOfOrder
        }
    }

    /// Cumulative ACK value to send (next expected seq).
    pub fn cum_ack(&self) -> u32 {
        self.expected
    }

    /// Out-of-order arrivals since the cum last moved — what a gap ack
    /// carries for [`GbnSender::on_gap_ack`].
    pub fn out_of_order(&self) -> u32 {
        self.out_of_order
    }
}

impl Default for GbnReceiver {
    fn default() -> Self {
        Self::new()
    }
}

/// Serial comparison on the 16-bit epoch space: true when `a` is a *newer*
/// epoch than `b`. Epochs only ever step forward by one per failover or NIC
/// reset, so the half-space contract of serial arithmetic is never close to
/// violated.
#[inline]
pub fn epoch_after(a: u16, b: u16) -> bool {
    (a.wrapping_sub(b) as i16) > 0
}

/// Sender half of an *epoch-stamped* go-back-N stream.
///
/// The epoch names one incarnation of the stream. When the kernel fails a
/// connection over to the other rail (or re-initializes a reset NIC) it
/// bumps the epoch and runs a resync handshake before any data moves again:
///
/// 1. [`EpochSender::begin_resync`] parks the old stream and opens a fresh
///    one under `epoch + 1`; the caller transmits an `EpochSync` control
///    packet and pauses data until the handshake completes.
/// 2. The receiver adopts the new epoch and answers with its cumulative ack
///    for the *old* stream ([`EpochReceiver::on_sync`]).
/// 3. [`EpochSender::on_sync_ack`] drops every packet that ack covers and
///    hands back only the genuinely undelivered tail, which the caller
///    re-stamps with fresh sequence numbers under the new epoch.
///
/// Because the receiver reports exactly what it delivered, nothing is sent
/// twice and nothing is skipped — exactly-once delivery holds across the
/// cutover (property-tested in `tests/proptests.rs`).
pub struct EpochSender {
    epoch: u16,
    gbn: GbnSender,
    window: u32,
    /// The pre-resync stream, kept until the handshake tells us which of
    /// its packets were actually delivered.
    pending: Option<GbnSender>,
    /// Epoch the parked stream was live under — carried in `EpochSync` so
    /// the receiver reconciles *that* stream, not whatever interim epoch it
    /// happens to have adopted (repeated failovers with a lost sync-ack
    /// would otherwise replay already-delivered packets).
    parked_epoch: u16,
}

impl EpochSender {
    /// New stream at epoch 0.
    pub fn new(window: u32) -> Self {
        Self::with_epoch(window, 0)
    }

    /// New stream at a given epoch — used when the kernel re-creates NIC
    /// state after a reset: connection epochs live host-side (the paper's
    /// trust model keeps connection state in the OS), so they survive the
    /// SRAM wipe and restart one past their old value.
    pub fn with_epoch(window: u32, epoch: u16) -> Self {
        EpochSender {
            epoch,
            gbn: GbnSender::new(window),
            window,
            pending: None,
            parked_epoch: epoch,
        }
    }

    /// Current epoch (stamped into every outgoing header).
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// True while a resync handshake is outstanding — no data may be sent.
    pub fn is_syncing(&self) -> bool {
        self.pending.is_some()
    }

    /// True if the window has room and no handshake is outstanding.
    pub fn can_send(&self) -> bool {
        !self.is_syncing() && self.gbn.can_send()
    }

    /// Sequence number the next packet must carry.
    pub fn next_seq(&self) -> u32 {
        self.gbn.next_seq()
    }

    /// Record a packet as sent at `sent_ns` on the current epoch's stream.
    pub fn record_sent(&mut self, seq: u32, pkt: Rc<[u8]>, sent_ns: u64) -> Result<(), GbnError> {
        self.gbn.record_sent(seq, pkt, sent_ns)
    }

    /// The one go-back-N stamp: give `header` the next sequence number and
    /// the current epoch, encode it with `payload`, and keep the encoded
    /// packet, sent at `sent_ns`, for retransmission. Returns the packet to
    /// put on the wire.
    pub fn stamp(
        &mut self,
        header: &mut WireHeader,
        payload: &[u8],
        sent_ns: u64,
    ) -> Result<Rc<[u8]>, GbnError> {
        header.seq = self.next_seq();
        header.epoch = self.epoch;
        let pkt = header.encode(payload);
        self.record_sent(header.seq, pkt.clone(), sent_ns)?;
        Ok(pkt)
    }

    /// Process a cumulative ACK stamped with `epoch`. Returns what it
    /// freed, or `None` when the ack belongs to a stale epoch (the caller
    /// counts and drops it).
    pub fn on_ack(&mut self, epoch: u16, cum_ack: u32) -> Option<Freed> {
        if epoch != self.epoch || self.is_syncing() {
            return None;
        }
        Some(self.gbn.on_ack(cum_ack))
    }

    /// Open a new epoch: park the current stream for reconciliation and
    /// start a fresh one. Returns the new epoch to carry in the `EpochSync`
    /// packet. Calling this while a handshake is already outstanding keeps
    /// the originally parked stream (the interim stream is empty — data is
    /// paused during a handshake) and just bumps the epoch again.
    pub fn begin_resync(&mut self) -> u16 {
        let old_epoch = self.epoch;
        self.epoch = self.epoch.wrapping_add(1);
        let fresh = GbnSender::new(self.window);
        let old = std::mem::replace(&mut self.gbn, fresh);
        if self.pending.is_none() {
            self.pending = Some(old);
            self.parked_epoch = old_epoch;
        }
        self.epoch
    }

    /// Epoch of the parked stream — stamp this into the `EpochSync` packet
    /// so the receiver answers with the right stream's cumulative ack.
    pub fn parked_epoch(&self) -> u16 {
        self.parked_epoch
    }

    /// Complete the handshake: the receiver delivered everything before
    /// `old_cum` on the parked stream. Returns the undelivered packets (in
    /// order, still carrying their *old* headers — the caller re-stamps seq
    /// and epoch and records them on the fresh stream), or `None` when the
    /// ack is stale. A duplicate sync-ack returns `Some(empty)`.
    pub fn on_sync_ack(&mut self, epoch: u16, old_cum: u32) -> Option<Vec<Rc<[u8]>>> {
        if epoch != self.epoch {
            return None;
        }
        let Some(mut old) = self.pending.take() else {
            return Some(Vec::new()); // duplicate ack: already reconciled
        };
        old.on_ack(old_cum);
        Some(old.unacked().cloned().collect())
    }

    /// Packets currently unacknowledged on the live stream (oldest first).
    pub fn unacked(&self) -> impl Iterator<Item = &Rc<[u8]>> + '_ {
        self.gbn.unacked()
    }

    /// [`GbnSender::on_gap_ack`] on the live stream, for an ack that
    /// [`EpochSender::on_ack`] applied. A fresh epoch's stream starts with
    /// no resend to compare against.
    pub fn on_gap_ack(&mut self, cum: u32, out_of_order: u32) -> Option<FastResend> {
        self.gbn.on_gap_ack(cum, out_of_order)
    }

    /// [`GbnSender::probe`] on the live stream. A fresh epoch's stream
    /// starts with no probe outstanding.
    pub fn probe(&mut self) -> (u32, u32) {
        self.gbn.probe()
    }

    /// [`GbnSender::on_probe_reply`] on the live stream, for a reply that
    /// [`EpochSender::on_ack`] applied.
    pub fn on_probe_reply(&mut self, cum: u32, token: u32) -> Option<ProbeVerdict> {
        self.gbn.on_probe_reply(cum, token)
    }

    /// Number of unacked packets on the live stream.
    pub fn in_flight(&self) -> usize {
        self.gbn.in_flight()
    }
}

/// Receiver verdict for an epoch-stamped data packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochVerdict {
    /// Packet belongs to the current epoch: the inner go-back-N verdict.
    Gbn(GbnVerdict),
    /// Packet carries an epoch older than the adopted one: count and drop
    /// (it was in flight on a path that has since been failed over).
    Stale,
}

/// How many abandoned-stream cumulative acks an [`EpochReceiver`] keeps.
/// One handshake is outstanding per peer at a time, so a handful covers
/// even pathological flap storms.
const ABANDONED_CAP: usize = 8;

/// Receiver half of an epoch-stamped go-back-N stream.
pub struct EpochReceiver {
    epoch: u16,
    gbn: GbnReceiver,
    /// Cumulative acks of streams abandoned at epoch adoptions, newest
    /// last, keyed by the epoch each ran under. An `EpochSync` names the
    /// epoch of the stream the sender parked; answering with *that*
    /// stream's cum — not whichever interim epoch we last abandoned —
    /// keeps repeated failovers with lost sync-acks from replaying
    /// already-delivered packets or freeing undelivered ones.
    abandoned: Vec<(u16, u32)>,
}

impl EpochReceiver {
    /// New stream at epoch 0.
    pub fn new() -> Self {
        EpochReceiver {
            epoch: 0,
            gbn: GbnReceiver::new(),
            abandoned: Vec::new(),
        }
    }

    /// Current epoch (stamped into outgoing ACKs).
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Classify an arriving data packet. A *newer* epoch on a data packet
    /// adopts it implicitly (a reset NIC restarts its stream from seq 0
    /// with no unacked backlog to reconcile, so it never sends `EpochSync`);
    /// an older epoch is stale.
    pub fn on_data(&mut self, epoch: u16, seq: u32) -> EpochVerdict {
        if epoch == self.epoch {
            return EpochVerdict::Gbn(self.gbn.on_data(seq));
        }
        if epoch_after(epoch, self.epoch) {
            self.adopt(epoch);
            return EpochVerdict::Gbn(self.gbn.on_data(seq));
        }
        EpochVerdict::Stale
    }

    /// Process an `EpochSync` request asking to reconcile the stream that
    /// ran under epoch `parked`. Returns that stream's cumulative ack to
    /// put in the `EpochSyncAck`, or `None` when the request itself is
    /// stale. A retransmitted request (same epoch) replays the original
    /// answer; a parked epoch we never saw data in answers 0 (nothing was
    /// delivered, so the sender replays its whole tail).
    pub fn on_sync(&mut self, epoch: u16, parked: u16) -> Option<u32> {
        if epoch_after(epoch, self.epoch) {
            self.adopt(epoch);
        } else if epoch != self.epoch {
            return None;
        }
        Some(
            self.abandoned
                .iter()
                .rev()
                .find(|(e, _)| *e == parked)
                .map_or(0, |(_, cum)| *cum),
        )
    }

    /// A probe stamped `epoch` asks for the cum; returns it, or `None` when
    /// the probe is stale. A newer epoch is adopted, as a data packet would
    /// adopt it: a reset sender whose first packets were all lost.
    pub fn on_probe(&mut self, epoch: u16) -> Option<u32> {
        if epoch_after(epoch, self.epoch) {
            self.adopt(epoch);
        } else if epoch != self.epoch {
            return None;
        }
        Some(self.cum_ack())
    }

    fn adopt(&mut self, epoch: u16) {
        self.abandoned.push((self.epoch, self.gbn.cum_ack()));
        if self.abandoned.len() > ABANDONED_CAP {
            self.abandoned.remove(0);
        }
        self.epoch = epoch;
        self.gbn = GbnReceiver::new();
    }

    /// Cumulative ACK value for the current epoch's stream.
    pub fn cum_ack(&self) -> u32 {
        self.gbn.cum_ack()
    }

    /// The current epoch's out-of-order count (an adopted epoch starts at 0).
    pub fn out_of_order(&self) -> u32 {
        self.gbn.out_of_order()
    }
}

impl Default for EpochReceiver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(i: u32) -> Rc<[u8]> {
        Rc::from(i.to_le_bytes())
    }

    /// Decode a test packet's payload without slice-length unwraps.
    fn val(b: &Rc<[u8]>) -> u32 {
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    #[test]
    fn window_limits_inflight() {
        let mut s = GbnSender::new(2);
        assert!(s.can_send());
        s.record_sent(0, pkt(0), 0).expect("in window");
        s.record_sent(1, pkt(1), 0).expect("in window");
        assert!(!s.can_send());
        assert_eq!(s.on_ack(1).packets, 1); // acks seq 0
        assert!(s.can_send());
        s.record_sent(2, pkt(2), 0).expect("in window");
        assert_eq!(s.in_flight(), 2);
    }

    #[test]
    fn record_sent_reports_violations_instead_of_panicking() {
        let mut s = GbnSender::new(1);
        assert_eq!(
            s.record_sent(5, pkt(5), 0),
            Err(GbnError::OutOfOrderSeq {
                expected: 0,
                got: 5
            })
        );
        s.record_sent(0, pkt(0), 0).expect("in window");
        assert_eq!(
            s.record_sent(1, pkt(1), 0),
            Err(GbnError::WindowOverflow { window: 1 })
        );
        // A failed record leaves the stream state untouched.
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.next_seq(), 1);
        assert!(GbnError::WindowOverflow { window: 1 }
            .reason()
            .contains("window overflow"));
    }

    #[test]
    fn cumulative_ack_frees_prefix() {
        let mut s = GbnSender::new(8);
        for i in 0..5 {
            s.record_sent(i, pkt(i), 0).expect("in window");
        }
        assert_eq!(s.on_ack(3).packets, 3);
        assert_eq!(s.in_flight(), 2);
        // Stale ack is a no-op.
        assert_eq!(s.on_ack(1).packets, 0);
        assert_eq!(s.on_ack(5).packets, 2);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn unacked_returns_retransmission_set_in_order() {
        let mut s = GbnSender::new(8);
        for i in 0..4 {
            s.record_sent(i, pkt(i), 0).expect("in window");
        }
        s.on_ack(2);
        let set: Vec<u32> = s.unacked().map(val).collect();
        assert_eq!(set, vec![2, 3]);
    }

    #[test]
    fn receiver_in_order_stream() {
        let mut r = GbnReceiver::new();
        for i in 0..5 {
            assert_eq!(r.on_data(i), GbnVerdict::Accept);
            assert_eq!(r.cum_ack(), i + 1);
        }
    }

    #[test]
    fn receiver_rejects_gaps_and_dups() {
        let mut r = GbnReceiver::new();
        assert_eq!(r.on_data(0), GbnVerdict::Accept);
        assert_eq!(r.on_data(2), GbnVerdict::OutOfOrder); // gap: 1 missing
        assert_eq!(r.on_data(0), GbnVerdict::Duplicate);
        assert_eq!(r.on_data(1), GbnVerdict::Accept);
        assert_eq!(r.on_data(2), GbnVerdict::Accept);
    }

    #[test]
    fn wraparound_sequences() {
        let mut s = GbnSender::new(4);
        s.next_seq = u32::MAX;
        s.record_sent(u32::MAX, pkt(1), 0).expect("in window");
        s.record_sent(0, pkt(2), 0).expect("in window");
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.on_ack(1).packets, 2, "ack past the wrap frees both");

        let mut r = GbnReceiver {
            expected: u32::MAX,
            ..GbnReceiver::new()
        };
        assert_eq!(r.on_data(u32::MAX), GbnVerdict::Accept);
        assert_eq!(r.on_data(0), GbnVerdict::Accept);
        assert_eq!(r.on_data(u32::MAX), GbnVerdict::Duplicate);
    }

    #[test]
    fn lockstep_simulation_with_losses_delivers_everything_in_order() {
        // Simple abstract channel: drop every 3rd packet, retransmit on
        // "timeout" (when the sender notices no progress).
        let mut s = GbnSender::new(4);
        let mut r = GbnReceiver::new();
        let mut delivered: Vec<u32> = Vec::new();
        let mut to_send: VecDeque<u32> = (0..20).collect();
        let mut drop_tick = 0u32;
        let mut steps = 0;
        while delivered.len() < 20 {
            steps += 1;
            assert!(steps < 10_000, "no progress");
            // Fill window.
            while s.can_send() {
                let Some(v) = to_send.pop_front() else { break };
                let seq = s.next_seq();
                s.record_sent(seq, pkt(v), 0).expect("in window");
            }
            // "Transmit" the whole unacked window (models a timeout burst);
            // drop some deterministically.
            let window: Vec<(u32, u32)> = s
                .unacked()
                .enumerate()
                .map(|(i, b)| (i as u32, val(b)))
                .collect();
            // First unacked seq = next_seq - inflight.
            let base = s.next_seq().wrapping_sub(s.in_flight() as u32);
            for (i, v) in window {
                drop_tick += 1;
                if drop_tick.is_multiple_of(3) {
                    continue; // dropped
                }
                let seq = base.wrapping_add(i);
                if r.on_data(seq) == GbnVerdict::Accept {
                    delivered.push(v);
                }
            }
            s.on_ack(r.cum_ack());
        }
        assert_eq!(delivered, (0..20).collect::<Vec<u32>>());
    }

    /// The MCP's loss recovery as a seeded lockstep model: data, probes and
    /// acks are lost independently on one wire that never reorders. An ack
    /// carries the receiver's out-of-order count when its arrival
    /// [`GbnVerdict::reveals_gap`], and the sender resends its window at
    /// once when [`GbnSender::on_gap_ack`] says so. A "timeout" round (one
    /// in which nothing reached the sender) resends nothing: it queues a
    /// probe behind the wire, whose reply echoes the token, and the sender
    /// resends when [`GbnSender::on_probe_reply`] says so. Checked against
    /// the model's own log of every copy sent:
    ///
    /// * every resend, by gap ack (first or repeat) or by probe reply,
    ///   answers a real loss: the last copy sent of the hole was dropped;
    /// * a hole whose resend was dropped is resent before the next timeout
    ///   round once a later-sent copy is delivered — provably so, when the
    ///   arrivals behind the hole since the cum reached it outnumber the
    ///   copies sent behind it before the hole's last copy;
    /// * no reply ever reports a receiver reset: none happens here.
    #[test]
    fn lockstep_gap_acks_resend_lost_holes_and_lost_resends_in_order() {
        /// A wire slot: a copy (its index in the log) or a probe's token.
        enum Slot {
            Copy(usize),
            Probe(u32),
        }
        /// Log `seqs` as sent and queue them on the wire.
        fn put(log: &mut Vec<(u32, bool)>, wire: &mut VecDeque<Slot>, seqs: Vec<Rc<[u8]>>) {
            for b in seqs {
                wire.push_back(Slot::Copy(log.len()));
                log.push((val(&b), false));
            }
        }
        const N: u32 = 40;
        let (mut fast_total, mut repeats, mut probe_total) = (0, 0, 0);
        for seed in 1..=64u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut lost = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % 10 < 2 // 20 % loss: data, probes and acks alike
            };
            let mut s = GbnSender::new(4);
            let mut r = GbnReceiver::new();
            let mut delivered: Vec<u32> = Vec::new();
            // Every copy sent, in order: `(seq, dropped)`; seq = payload.
            let mut log: Vec<(u32, bool)> = Vec::new();
            let mut wire: VecDeque<Slot> = VecDeque::new();
            // Out-of-order arrivals since the cum last moved.
            let mut behind = 0u32;
            let mut next = 0u32;
            let mut rounds = 0;
            while delivered.len() < N as usize {
                rounds += 1;
                assert!(rounds < 10_000, "seed {seed}: no progress");
                while s.can_send() && next < N {
                    let seq = s.next_seq();
                    s.record_sent(seq, pkt(next), 0).expect("in window");
                    put(&mut log, &mut wire, vec![pkt(next)]);
                    next += 1;
                }
                // `(cum, count carried, arrivals behind the cum, token)`
                // per ack; a probe's reply carries its token, others 0.
                let mut acks = Vec::new();
                for slot in wire.drain(..) {
                    let (count, token) = match slot {
                        Slot::Copy(i) => {
                            if lost() {
                                log[i].1 = true;
                                continue;
                            }
                            let verdict = r.on_data(log[i].0);
                            match verdict {
                                GbnVerdict::Accept => {
                                    delivered.push(log[i].0);
                                    behind = 0;
                                }
                                GbnVerdict::OutOfOrder => behind += 1,
                                GbnVerdict::Duplicate => {}
                            }
                            let count = if verdict.reveals_gap() {
                                r.out_of_order()
                            } else {
                                0
                            };
                            (count, 0)
                        }
                        Slot::Probe(token) if !lost() => (0, token),
                        Slot::Probe(_) => continue,
                    };
                    if !lost() {
                        acks.push((r.cum_ack(), count, behind, token));
                    }
                }
                let heard = !acks.is_empty();
                for (cum, count, behind, token) in acks {
                    s.on_ack(cum);
                    let last = log.iter().rposition(|&(seq, _)| seq == cum);
                    let resend = if token == 0 {
                        let proven = count > 0
                            && last.is_some_and(|l| {
                                let sent_behind = log[..l].iter().filter(|&&(seq, _)| seq > cum);
                                behind as usize > sent_behind.count()
                            });
                        let Some(resend) = s.on_gap_ack(cum, count) else {
                            assert!(
                                !proven,
                                "seed {seed}: hole {cum} provably lost again, left to the timer"
                            );
                            continue;
                        };
                        fast_total += 1;
                        repeats += usize::from(resend.repeat);
                        resend.packets
                    } else {
                        match s.on_probe_reply(cum, token) {
                            None => continue,
                            Some(ProbeVerdict::Lost(packets)) => {
                                probe_total += 1;
                                packets
                            }
                            Some(ProbeVerdict::ReceiverReset) => {
                                panic!("seed {seed}: reply at {cum} claims a receiver reset")
                            }
                        }
                    };
                    assert!(
                        last.is_some_and(|l| log[l].1),
                        "seed {seed}: hole {cum} resent but never lost"
                    );
                    put(&mut log, &mut wire, resend);
                }
                if !heard && s.in_flight() > 0 {
                    // Timeout: ask, behind everything already on the wire.
                    let (token, _) = s.probe();
                    wire.push_back(Slot::Probe(token));
                }
            }
            assert_eq!(delivered, (0..N).collect::<Vec<u32>>(), "seed {seed}");
        }
        assert!(fast_total > 0, "gap acks never fired");
        assert!(repeats > 0, "no lost resend was ever resent at ack speed");
        assert!(probe_total > 0, "no probe reply ever proved a loss");
    }

    /// Karn's rule and the interval: a resent packet's ack gives no sample,
    /// a packet sent once does, and the interval is `4 × srtt` between the
    /// 50 µs floor and the ceiling.
    #[test]
    fn only_packets_sent_once_give_rtt_samples() {
        let mut s = GbnSender::new(4);
        for i in 0..3 {
            s.record_sent(i, pkt(i), 1_000 * u64::from(i))
                .expect("in window");
        }
        // The newest freed packet, seq 1, was sent once at 1 µs.
        assert_eq!(
            s.on_ack(2),
            Freed {
                packets: 2,
                sent_once_ns: Some(1_000)
            }
        );
        let (token, _) = s.probe();
        let ProbeVerdict::Lost(resent) = s.on_probe_reply(2, token).expect("hole 2 lost") else {
            panic!("no receiver reset here");
        };
        assert_eq!(resent.len(), 1);
        // Its ack may answer either copy: no sample.
        assert_eq!(
            s.on_ack(3),
            Freed {
                packets: 1,
                sent_once_ns: None
            }
        );
        let mut rtt = Srtt::default();
        assert_eq!(rtt.probe_interval_ns(300_000), 300_000, "the ceiling");
        rtt.sample(5_000);
        assert_eq!(rtt.probe_interval_ns(300_000), PROBE_FLOOR_NS, "the floor");
        rtt.sample(1_000_000);
        assert_eq!(rtt.probe_interval_ns(300_000), 300_000, "capped");
        assert_eq!(
            rtt.probe_interval_ns(40_000),
            40_000,
            "a ceiling below the floor wins"
        );
    }

    /// [`GbnSender::on_probe_reply`]: only the latest probe's reply counts,
    /// a resend after the probe voids it, a cum behind the window is a
    /// receiver reset, and a cum at the fence proves nothing.
    #[test]
    fn a_probe_reply_resends_only_what_it_proves() {
        let fresh = || {
            let mut s = GbnSender::new(8);
            for i in 0..3 {
                s.record_sent(i, pkt(i), 0).expect("in window");
            }
            s
        };
        let lost = |s: &mut GbnSender, cum, token| match s.on_probe_reply(cum, token) {
            Some(ProbeVerdict::Lost(p)) => p.iter().map(val).collect::<Vec<_>>(),
            other => panic!("expected a resend, got {other:?}"),
        };
        // The hole at the cum, before the fence: resent.
        let mut s = fresh();
        let (token, fence) = s.probe();
        assert_eq!((token, fence), (1, 3));
        assert_eq!(lost(&mut s, 0, token), vec![0, 1, 2]);
        assert_eq!(s.on_probe_reply(0, token), None, "answered once");
        // A stale token proves nothing; the latest one still does.
        let mut s = fresh();
        let (old, _) = s.probe();
        let (latest, _) = s.probe();
        assert_eq!(s.on_probe_reply(0, old), None);
        assert_eq!(lost(&mut s, 0, latest), vec![0, 1, 2]);
        // A resend after the probe (a gap ack's) voids the reply.
        let mut s = fresh();
        let (token, _) = s.probe();
        assert!(s.on_gap_ack(0, 1).is_some());
        assert_eq!(s.on_probe_reply(0, token), None);
        // A cum behind the first unacked seq: the receiver lost its stream.
        let mut s = fresh();
        s.on_ack(2);
        let (token, _) = s.probe();
        assert_eq!(
            s.on_probe_reply(0, token),
            Some(ProbeVerdict::ReceiverReset)
        );
        // A cum at the fence frees the window and resends nothing, even
        // with packets sent after the probe still in flight.
        let mut s = fresh();
        let (token, fence) = s.probe();
        s.record_sent(3, pkt(3), 0).expect("in window");
        assert_eq!(s.on_ack(fence).packets, 3);
        assert_eq!(s.on_probe_reply(fence, token), None);
        assert_eq!(s.in_flight(), 1);
        // Tokens skip 0, which plain acks carry.
        let mut s = fresh();
        s.last_token = u32::MAX;
        assert_eq!(s.probe().0, 1);
    }

    #[test]
    fn a_probe_adopts_a_newer_epoch_and_drops_a_stale_one() {
        let mut rx = EpochReceiver::new();
        for seq in 0..3 {
            rx.on_data(1, seq);
        }
        assert_eq!(rx.on_probe(1), Some(3));
        assert_eq!(rx.on_probe(0), None, "stale");
        assert_eq!(rx.on_probe(2), Some(0), "a reset sender's stream");
        assert_eq!(rx.on_sync(3, 1), Some(3), "the abandoned cum is kept");
    }

    #[test]
    fn epoch_after_is_serial() {
        assert!(epoch_after(1, 0));
        assert!(!epoch_after(0, 1));
        assert!(!epoch_after(7, 7));
        assert!(epoch_after(0, u16::MAX), "wraps");
    }

    #[test]
    fn epoch_resync_retransmits_only_the_undelivered_tail() {
        let mut tx = EpochSender::new(8);
        let mut rx = EpochReceiver::new();
        // Send 5 packets; receiver gets the first 3, the ack is "lost".
        for i in 0..5 {
            let seq = tx.next_seq();
            tx.record_sent(seq, pkt(i), 0).expect("in window");
            if i < 3 {
                assert_eq!(rx.on_data(0, seq), EpochVerdict::Gbn(GbnVerdict::Accept));
            }
        }
        // Failover: handshake tells the sender packets 0..3 were delivered.
        let e = tx.begin_resync();
        assert!(tx.is_syncing() && !tx.can_send());
        let cum = rx.on_sync(e, tx.parked_epoch()).expect("fresh sync");
        assert_eq!(cum, 3);
        let resend = tx.on_sync_ack(e, cum).expect("matching epoch");
        assert_eq!(resend.iter().map(val).collect::<Vec<_>>(), vec![3, 4]);
        assert!(!tx.is_syncing() && tx.can_send());
        // Re-stamp under the new epoch; the receiver's fresh stream accepts.
        for (i, p) in resend.into_iter().enumerate() {
            let seq = tx.next_seq();
            tx.record_sent(seq, p, 0).expect("fits: old tail <= window");
            assert_eq!(rx.on_data(e, seq), EpochVerdict::Gbn(GbnVerdict::Accept));
            assert_eq!(rx.cum_ack(), i as u32 + 1);
        }
        assert_eq!(tx.on_ack(e, rx.cum_ack()).map(|f| f.packets), Some(2));
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn stale_epoch_traffic_is_flagged_not_processed() {
        let mut tx = EpochSender::new(4);
        let mut rx = EpochReceiver::new();
        let seq = tx.next_seq();
        tx.record_sent(seq, pkt(0), 0).expect("in window");
        let e = tx.begin_resync();
        let cum = rx.on_sync(e, tx.parked_epoch()).expect("adopts");
        // Old-epoch data and acks floating on the dead rail are stale now.
        assert_eq!(rx.on_data(0, 99), EpochVerdict::Stale);
        assert_eq!(tx.on_ack(0, 1), None, "stale ack while syncing");
        assert_eq!(tx.on_sync_ack(0, 0), None, "stale sync-ack");
        let resend = tx.on_sync_ack(e, cum).expect("real sync-ack");
        assert_eq!(resend.len(), 1);
        assert_eq!(tx.on_ack(0, 1), None, "stale ack after resync");
        // A duplicate sync-ack is idempotent.
        assert_eq!(tx.on_sync_ack(e, cum), Some(Vec::new()));
    }

    #[test]
    fn retransmitted_sync_replays_the_original_answer() {
        let mut rx = EpochReceiver::new();
        for s in 0..4 {
            rx.on_data(0, s);
        }
        assert_eq!(rx.on_sync(1, 0), Some(4));
        // New-epoch traffic lands before the duplicate sync arrives.
        assert_eq!(rx.on_data(1, 0), EpochVerdict::Gbn(GbnVerdict::Accept));
        assert_eq!(rx.on_sync(1, 0), Some(4), "replayed, not re-captured");
        assert_eq!(rx.on_sync(0, 0), None, "stale sync");
    }

    #[test]
    fn lost_sync_ack_then_second_failover_still_reconciles_the_parked_stream() {
        // Receiver saw 3 of 5 packets on epoch 0. Failover 1: the sync
        // arrives (rx adopts epoch 1) but the sync-ack is lost. Failover 2
        // before recovery: the sync for epoch 2 names the *parked* epoch 0,
        // so the receiver must answer with epoch 0's cum (3), not the empty
        // interim epoch-1 stream's 0 — otherwise packets 0..3 re-deliver.
        let mut tx = EpochSender::new(8);
        let mut rx = EpochReceiver::new();
        for i in 0..5 {
            let seq = tx.next_seq();
            tx.record_sent(seq, pkt(i), 0).expect("in window");
            if i < 3 {
                rx.on_data(0, seq);
            }
        }
        let e1 = tx.begin_resync();
        assert_eq!(rx.on_sync(e1, tx.parked_epoch()), Some(3)); // ack lost
        let e2 = tx.begin_resync();
        assert_eq!(tx.parked_epoch(), 0, "original stream stays parked");
        let cum = rx.on_sync(e2, tx.parked_epoch()).expect("adopts e2");
        assert_eq!(cum, 3, "answers for the parked stream, not the interim");
        let resend = tx.on_sync_ack(e2, cum).expect("completes");
        assert_eq!(resend.iter().map(val).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn reset_nic_stream_is_adopted_implicitly_by_data() {
        let mut rx = EpochReceiver::new();
        for s in 0..7 {
            rx.on_data(2, s); // mid-stream at epoch 2
        }
        // Sender NIC reset: kernel restarts the stream at epoch 3, seq 0.
        let mut tx = EpochSender::with_epoch(4, 3);
        assert_eq!(tx.epoch(), 3);
        let seq = tx.next_seq();
        tx.record_sent(seq, pkt(0), 0).expect("in window");
        assert_eq!(rx.on_data(3, seq), EpochVerdict::Gbn(GbnVerdict::Accept));
        assert_eq!(tx.on_ack(3, rx.cum_ack()).map(|f| f.packets), Some(1));
    }

    #[test]
    fn double_failover_while_syncing_keeps_the_parked_stream() {
        let mut tx = EpochSender::new(4);
        for i in 0..3 {
            let seq = tx.next_seq();
            tx.record_sent(seq, pkt(i), 0).expect("in window");
        }
        let e1 = tx.begin_resync();
        let e2 = tx.begin_resync(); // second failover before the ack
        assert_eq!(e2, e1 + 1);
        let resend = tx.on_sync_ack(e2, 1).expect("matches current epoch");
        assert_eq!(resend.iter().map(val).collect::<Vec<_>>(), vec![1, 2]);
    }

    mod props {
        use super::super::{seq_before, GbnReceiver, GbnSender, GbnVerdict};
        use super::{pkt, val};
        use proptest::prelude::*;

        proptest! {
            /// `seq_before` must agree with ordinary `<` whenever the two
            /// numbers are within half the sequence space of each other —
            /// the serial-arithmetic contract.
            #[test]
            fn seq_before_matches_linear_order_at_small_distance(
                base in any::<u32>(),
                dist in 1u32..(1 << 30),
            ) {
                let later = base.wrapping_add(dist);
                prop_assert!(seq_before(base, later));
                prop_assert!(!seq_before(later, base));
                prop_assert!(!seq_before(base, base));
            }

            /// Go-back-N with a sequence space that starts just under
            /// `u32::MAX` and always wraps through it mid-run, under an
            /// arbitrary loss pattern: every payload still arrives exactly
            /// once, in order. Starting state is private, which is why this
            /// property lives in the unit-test module rather than
            /// `tests/proptests.rs`.
            #[test]
            fn gbn_survives_sequence_wraparound_under_losses(
                start_offset in 0u32..32,
                n in 40usize..80, // > start_offset + window, so the run must cross u32::MAX
                loss_pattern in prop::collection::vec(any::<bool>(), 0..800),
            ) {
                let start = u32::MAX - start_offset;
                let mut tx = GbnSender::new(8);
                tx.next_seq = start;
                let mut rx = GbnReceiver { expected: start, ..GbnReceiver::new() };
                let mut delivered: Vec<u32> = Vec::new();
                let mut next_to_queue = 0u32;
                let mut losses = loss_pattern.into_iter();
                let mut rounds = 0;
                while delivered.len() < n {
                    rounds += 1;
                    prop_assert!(rounds < 10_000, "no progress");
                    while tx.can_send() && (next_to_queue as usize) < n {
                        let seq = tx.next_seq();
                        tx.record_sent(seq, pkt(next_to_queue), 0).expect("in window");
                        next_to_queue += 1;
                    }
                    // Timeout burst: retransmit the whole unacked window,
                    // losing whatever the pattern says.
                    let base = tx.next_seq().wrapping_sub(tx.in_flight() as u32);
                    let window: Vec<(u32, u32)> = tx
                        .unacked()
                        .enumerate()
                        .map(|(i, b)| (base.wrapping_add(i as u32), val(b)))
                        .collect();
                    for (seq, val) in window {
                        if losses.next().unwrap_or(false) {
                            continue;
                        }
                        if rx.on_data(seq) == GbnVerdict::Accept {
                            delivered.push(val);
                        }
                    }
                    tx.on_ack(rx.cum_ack());
                }
                // The run crossed the wrap point...
                prop_assert!(seq_before(u32::MAX, tx.next_seq()));
                // ...and still delivered everything exactly once, in order.
                prop_assert_eq!(delivered, (0..n as u32).collect::<Vec<u32>>());
            }
        }
    }
}

//! One record per destination NIC: the epoch-stamped go-back-N streams,
//! the retransmit timer, the active rail and path health. The transitions
//! (ack progress, fast retransmit, timeout, path death, rail failover,
//! resync, wipe) are methods on [`Peer`] with no simulator in them; the
//! `McpInner` half of this file wires their verdicts to timers, counters
//! and control packets. Whether a gap ack resends the window is not
//! decided here: the tx stream's [`crate::reliable::GbnSender::on_gap_ack`]
//! holds the rule and the memory of the last resend it judges by.

use std::sync::Arc;

use bytes::Bytes;

use suca_myrinet::FabricNodeId;
use suca_sim::mtrace::{stage, TraceId};
use suca_sim::{EventId, SimTime};

use super::McpInner;
use crate::port::{ChannelId, PortId};
use crate::reliable::{EpochReceiver, EpochSender, FastResend};
use crate::wire::{WireHeader, WireKind};

/// Everything the firmware knows about one destination.
#[derive(Default)]
pub(super) struct Peer {
    /// Outgoing stream. `None` until the first fragment goes out: an ack or
    /// timeout for a destination never sent to is ignored outright, never a
    /// counted stale-epoch drop.
    pub(super) tx: Option<EpochSender>,
    /// Incoming stream (a fresh one expects epoch 0, seq 0).
    pub(super) rx: EpochReceiver,
    /// The armed retransmit timer, if any.
    pub(super) timer: Option<EventId>,
    /// Rail carrying traffic to this destination (index into the NIC's
    /// fabrics). Host-side routing state: it survives a NIC reset.
    pub(super) rail: usize,
    /// Consecutive retransmission timeouts with no ack progress in between
    /// — the paper's kernel-side path-death detector.
    consec_timeouts: u32,
    /// Path deaths (one rail tried each) since the last ack progress.
    failovers_no_progress: u32,
    /// Every rail was tried without progress. The kernel refuses *new*
    /// sends ([`crate::BclError::PathDead`]); the firmware keeps retrying
    /// underneath so a revived path clears itself.
    pub(super) dead: bool,
    /// When the in-progress epoch resync started (for the recovery-latency
    /// histogram).
    sync_started: Option<SimTime>,
}

/// What a cumulative ack did to a peer's tx stream.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Ack {
    /// No tx stream, or nothing newly acknowledged and no new hole.
    Ignored,
    /// For a stream already abandoned, or one mid-resync: never applied.
    Stale,
    /// Window slots freed — the path works, health is cleared.
    Progress {
        /// Packets still unacknowledged (the timer must be re-armed).
        in_flight: bool,
    },
    /// The gap ack proved the packet at `cum` lost (a new hole, or a
    /// resent one whose resend was dropped): go back N now, without waiting
    /// for the timer. Health is cleared if the same ack also freed slots.
    FastRetransmit(FastResend),
}

/// What a retransmit timeout asks the firmware to do.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Timeout {
    /// Go back N: resend every unacknowledged packet.
    Retransmit(Vec<Bytes>),
    /// The `EpochSync` offer itself was lost; re-offer it.
    ResendSync { epoch: u16, parked: u16 },
    /// Retransmission exhausted: the stream was parked and a resync to
    /// `epoch` begun, on the next rail if there is one (`failed_over`).
    PathDead {
        failed_over: bool,
        epoch: u16,
        parked: u16,
    },
}

impl Peer {
    /// The tx stream, opened at epoch 0 on first use.
    pub(super) fn tx_or_open(&mut self, window: u32) -> &mut EpochSender {
        self.tx.get_or_insert_with(|| EpochSender::new(window))
    }

    fn clear_health(&mut self) {
        self.consec_timeouts = 0;
        self.failovers_no_progress = 0;
        self.dead = false;
    }

    /// A cumulative ack arrived. `out_of_order` is nonzero on a gap ack:
    /// the receiver's count of out-of-order arrivals since its cum last
    /// moved. The cum is applied first; the stream's
    /// [`crate::reliable::GbnSender::on_gap_ack`] then decides whether the
    /// window goes out again now. A fast retransmit is not a timeout: path
    /// health counts only timeouts, so a dead link (which delivers no gap
    /// acks) is still detected after `max_path_timeouts` of them.
    pub(super) fn on_ack(&mut self, epoch: u16, cum: u32, out_of_order: u32) -> Ack {
        let Some(tx) = self.tx.as_mut() else {
            return Ack::Ignored;
        };
        let Some(freed) = tx.on_ack(epoch, cum) else {
            return Ack::Stale;
        };
        let resend = tx.on_gap_ack(cum, out_of_order);
        let in_flight = tx.in_flight() > 0;
        if freed > 0 {
            self.clear_health();
        }
        match resend {
            Some(resend) => Ack::FastRetransmit(resend),
            None if freed == 0 => Ack::Ignored,
            None => Ack::Progress { in_flight },
        }
    }

    /// The retransmit timer fired. `None`: nothing was outstanding (or no
    /// stream exists) and the timer simply lapses. After `max_path_timeouts`
    /// consecutive timeouts (0 = never) the path is declared dead: the NIC
    /// — not user code — moves to the next of `rails` and parks the stream
    /// for an epoch resync; once every rail has been tried with no progress
    /// the destination is advisorily dead.
    pub(super) fn on_timeout(
        &mut self,
        max_path_timeouts: u32,
        rails: usize,
        now: SimTime,
    ) -> Option<Timeout> {
        let tx = self.tx.as_mut()?;
        if !tx.is_syncing() && tx.in_flight() == 0 {
            self.consec_timeouts = 0;
            return None;
        }
        self.consec_timeouts += 1;
        if max_path_timeouts > 0 && self.consec_timeouts >= max_path_timeouts {
            self.consec_timeouts = 0;
            self.failovers_no_progress += 1;
            self.dead |= self.failovers_no_progress as usize >= rails;
            let failed_over = rails > 1;
            if failed_over {
                self.rail = (self.rail + 1) % rails;
            }
            let epoch = tx.begin_resync();
            self.sync_started.get_or_insert(now);
            let parked = tx.parked_epoch();
            return Some(Timeout::PathDead {
                failed_over,
                epoch,
                parked,
            });
        }
        Some(if tx.is_syncing() {
            Timeout::ResendSync {
                epoch: tx.epoch(),
                parked: tx.parked_epoch(),
            }
        } else {
            Timeout::Retransmit(tx.resend_window())
        })
    }

    /// The resync handshake completed: the path works again. Returns when
    /// the recovery began.
    fn resynced(&mut self) -> Option<SimTime> {
        self.clear_health();
        self.sync_started.take()
    }

    /// NIC reset. The rail is host-side routing state and stays; so do tx
    /// epochs, which restart one *past* their old value so the peer adopts
    /// the fresh stream instead of mixing it with pre-reset sequence
    /// numbers — but only streams that existed. Returns the armed timer.
    pub(super) fn wipe(&mut self, window: u32) -> Option<EventId> {
        let old = std::mem::take(self);
        self.rail = old.rail;
        let restart = |tx: EpochSender| EpochSender::with_epoch(window, tx.epoch().wrapping_add(1));
        self.tx = old.tx.map(restart);
        old.timer
    }
}

impl McpInner {
    pub(super) fn arm_timer(self: &Arc<Self>, peer: &mut Peer, dst: FabricNodeId) {
        if peer.timer.is_some() {
            return;
        }
        let me = self.clone();
        let timeout = self.cfg.reliability.retransmit_timeout;
        peer.timer = Some(self.sim.schedule_in(timeout, move |_| me.on_timeout(dst)));
    }

    fn on_timeout(self: &Arc<Self>, dst: FabricNodeId) {
        let mut guard = self.state.lock();
        let down = self.is_down(&guard);
        let st = &mut *guard;
        let peer = st.peers.entry(dst.0).or_default();
        peer.timer = None;
        if down {
            return; // crashed node: timers die with the firmware
        }
        let limit = self.cfg.reliability.max_path_timeouts;
        let now = self.sim.now();
        let Some(action) = peer.on_timeout(limit, self.fabrics.len(), now) else {
            return;
        };
        self.sim.add_count("bcl.timeouts", 1);
        let (epoch, parked) = match action {
            Timeout::Retransmit(pkts) => {
                st.send.retx.extend(pkts.into_iter().map(|p| (dst, p)));
                self.arm_timer(peer, dst);
                drop(guard);
                self.kick_sender();
                return;
            }
            Timeout::ResendSync { epoch, parked } => (epoch, parked),
            Timeout::PathDead {
                failed_over,
                epoch,
                parked,
            } => {
                self.path_deaths.inc();
                self.mt_instant(TraceId::NONE, stage::PATH_DEAD);
                if failed_over {
                    self.rail_failovers.inc();
                    self.mt_instant(TraceId::NONE, stage::RAIL_FAILOVER);
                }
                // Old-epoch packets queued for retransmission would only be
                // counted stale drops at the receiver; the parked stream
                // replays the undelivered tail after the handshake instead.
                st.send.retx.retain(|(d, _)| *d != dst);
                (epoch, parked)
            }
        };
        // (Re-)offer the resync on the current rail; keep the timer running.
        self.send_control(peer.rail, dst, Self::sync_header(epoch, parked));
        self.arm_timer(peer, dst);
    }

    pub(super) fn on_ack(
        self: &Arc<Self>,
        src: FabricNodeId,
        epoch: u16,
        cum: u32,
        out_of_order: u32,
    ) {
        {
            let mut st = self.state.lock();
            let st = &mut *st;
            let peer = st.peers.entry(src.0).or_default();
            let in_flight = match peer.on_ack(epoch, cum, out_of_order) {
                Ack::Ignored => return,
                Ack::Stale => {
                    self.stale_epoch_drop(TraceId::NONE);
                    return;
                }
                Ack::Progress { in_flight } => in_flight,
                Ack::FastRetransmit(FastResend { packets, repeat }) => {
                    // The timeout path's queue: each resent fragment pays
                    // `send_per_frag` and the wire, and is traced `mcp:retx`.
                    self.sim.add_count("bcl.fast_retx", 1);
                    if repeat {
                        self.sim.add_count("bcl.fast_retx_repeat", 1);
                    }
                    st.send.retx.extend(packets.into_iter().map(|p| (src, p)));
                    true
                }
            };
            if let Some(timer) = peer.timer.take() {
                self.sim.cancel(timer);
            }
            if in_flight {
                self.arm_timer(peer, src);
            } else {
                st.send.settle(src);
            }
        }
        self.kick_sender(); // window may have opened, or a resend is queued
    }

    /// A peer began an epoch resync toward us: adopt the new epoch (capture
    /// the old stream's cumulative ack first) and reply with the cum of the
    /// stream the peer *parked* (`parked` names its epoch) so the peer can
    /// replay exactly the undelivered tail. Duplicate syncs replay the same
    /// captured ack; stale ones are counted drops.
    pub(super) fn on_epoch_sync(
        self: &Arc<Self>,
        src: FabricNodeId,
        epoch: u16,
        parked: u16,
        rail: usize,
    ) {
        let mut st = self.state.lock();
        if self.is_down(&st) {
            return;
        }
        let Some(old_cum) = st.peers.entry(src.0).or_default().rx.on_sync(epoch, parked) else {
            self.stale_epoch_drop(TraceId::NONE);
            return;
        };
        self.mt_instant(TraceId::NONE, stage::EPOCH_RESYNC);
        // Answer on the rail the sync arrived on: that is the rail the
        // peer failed over to, and the one it is listening on.
        self.send_control(rail, src, Self::sync_ack_header(epoch, old_cum));
    }

    /// The peer acknowledged our epoch resync with the old stream's
    /// cumulative ack: prune what was delivered, re-stamp the undelivered
    /// tail onto the fresh stream, and resume. This is the moment a failover
    /// recovers — the latency since path death goes into the histogram.
    pub(super) fn on_epoch_sync_ack(self: &Arc<Self>, src: FabricNodeId, epoch: u16, old_cum: u32) {
        {
            let mut guard = self.state.lock();
            if self.is_down(&guard) {
                return;
            }
            let st = &mut *guard;
            let peer = st.peers.entry(src.0).or_default();
            let Some(tx) = peer.tx.as_mut() else {
                return;
            };
            let Some(tail) = tx.on_sync_ack(epoch, old_cum) else {
                self.stale_epoch_drop(TraceId::NONE);
                return;
            };
            for pkt in tail {
                let Some((mut h, payload)) = WireHeader::decode(&pkt) else {
                    self.protocol_error(TraceId::NONE, "parked resync packet fails to decode");
                    continue;
                };
                let Ok(enc) = tx.stamp(&mut h, &payload) else {
                    // The tail is at most one window, so this cannot close;
                    // evidence over panic if the invariant ever breaks.
                    self.protocol_error(TraceId::NONE, "resync tail overflows fresh window");
                    continue;
                };
                st.send.retx.push_back((src, enc));
            }
            let in_flight = tx.in_flight() > 0;
            self.mt_instant(TraceId::NONE, stage::EPOCH_RESYNC);
            if let Some(t0) = peer.resynced() {
                self.recovery_ns.record(self.sim.now().since(t0).as_ns());
            }
            if let Some(timer) = peer.timer.take() {
                self.sim.cancel(timer);
            }
            if in_flight || !st.send.retx.is_empty() {
                self.arm_timer(peer, src);
            }
        }
        self.kick_sender(); // data sends were paused during the handshake
    }

    fn control_header(
        kind: WireKind,
        epoch: u16,
        msg_id: u32,
        seq: u32,
        offset: u32,
    ) -> WireHeader {
        WireHeader {
            kind,
            channel: ChannelId::SYSTEM,
            src_port: PortId(0),
            dst_port: PortId(0),
            msg_id,
            seq,
            epoch,
            offset,
            total_len: 0,
            frag_len: 0,
        }
    }

    /// Cumulative ack, stamped with the receive stream's epoch so a sender
    /// mid-resync never applies it to the wrong stream. `offset` carries the
    /// out-of-order count of a gap ack (one answering an out-of-order
    /// arrival), and 0 on any other ack.
    pub(super) fn ack_header(epoch: u16, cum: u32, out_of_order: u32) -> WireHeader {
        Self::control_header(WireKind::Ack, epoch, 0, cum, out_of_order)
    }

    pub(super) fn reject_header(msg_id: u32, fatal: bool) -> WireHeader {
        Self::control_header(WireKind::Reject, 0, msg_id, 0, u32::from(fatal))
    }

    /// Failover handshake: "I am restarting our stream at `epoch`; tell me
    /// how much of the stream I parked at epoch `parked` (carried in
    /// `msg_id`) you actually delivered".
    fn sync_header(epoch: u16, parked: u16) -> WireHeader {
        Self::control_header(WireKind::EpochSync, epoch, u32::from(parked), 0, 0)
    }

    /// Handshake reply: `seq` carries the *old* stream's cumulative ack so
    /// the sender replays exactly the undelivered tail.
    fn sync_ack_header(epoch: u16, old_cum: u32) -> WireHeader {
        Self::control_header(WireKind::EpochSyncAck, epoch, 0, old_cum, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::{EpochVerdict, GbnVerdict};

    const WINDOW: u32 = 4;
    const T0: SimTime = SimTime::from_ns(1_000);

    /// A peer with `n` unacknowledged packets on a fresh epoch-0 stream.
    fn peer_with_in_flight(n: u32) -> Peer {
        let mut peer = Peer::default();
        let tx = peer.tx_or_open(WINDOW);
        for i in 0..n {
            let seq = tx.next_seq();
            tx.record_sent(seq, Bytes::from(vec![i as u8]))
                .expect("in window");
        }
        peer
    }

    #[test]
    fn consecutive_timeouts_kill_the_path_and_rotate_rails() {
        let mut peer = peer_with_in_flight(2);
        let resend = Timeout::Retransmit(vec![Bytes::from(vec![0]), Bytes::from(vec![1])]);
        assert_eq!(peer.on_timeout(3, 2, T0), Some(resend));
        assert!(matches!(
            peer.on_timeout(3, 2, T0),
            Some(Timeout::Retransmit(_))
        ));
        // Third timeout with no progress: path death, failover to rail 1.
        let died = Timeout::PathDead {
            failed_over: true,
            epoch: 1,
            parked: 0,
        };
        assert_eq!(peer.on_timeout(3, 2, T0), Some(died));
        assert_eq!(peer.rail, 1);
        assert!(!peer.dead, "one rail is still untried");
        assert_eq!(peer.sync_started, Some(T0));
        // The handshake is what times out now: re-offered twice, then the
        // second path death wraps the rail modulo the rail count. Every
        // rail has been tried, so the destination is advisorily dead; the
        // stream parked first stays the one to reconcile.
        let reoffer = Timeout::ResendSync {
            epoch: 1,
            parked: 0,
        };
        assert_eq!(peer.on_timeout(3, 2, T0), Some(reoffer));
        assert!(matches!(
            peer.on_timeout(3, 2, T0),
            Some(Timeout::ResendSync { .. })
        ));
        let died_again = Timeout::PathDead {
            failed_over: true,
            epoch: 2,
            parked: 0,
        };
        assert_eq!(
            peer.on_timeout(3, 2, SimTime::from_ns(9_000)),
            Some(died_again)
        );
        assert_eq!(peer.rail, 0);
        assert!(peer.dead);
        assert_eq!(
            peer.sync_started,
            Some(T0),
            "recovery is timed from the first death"
        );
        // The sync-ack is the recovery: health clears, the clock is handed
        // back, the rail stays where the failover left it.
        assert_eq!(peer.resynced(), Some(T0));
        assert!(!peer.dead);
        assert_eq!((peer.consec_timeouts, peer.failovers_no_progress), (0, 0));
    }

    #[test]
    fn single_rail_path_death_is_dead_at_once_and_zero_threshold_never_dies() {
        let mut peer = peer_with_in_flight(1);
        let died = Timeout::PathDead {
            failed_over: false,
            epoch: 1,
            parked: 0,
        };
        assert_eq!(peer.on_timeout(1, 1, T0), Some(died));
        assert_eq!(peer.rail, 0);
        assert!(peer.dead);

        let mut peer = peer_with_in_flight(1);
        for _ in 0..100 {
            assert!(matches!(
                peer.on_timeout(0, 2, T0),
                Some(Timeout::Retransmit(_))
            ));
        }
        assert!(!peer.dead);
    }

    #[test]
    fn ack_progress_clears_all_path_health() {
        let mut peer = peer_with_in_flight(2);
        assert!(peer.on_timeout(3, 2, T0).is_some());
        assert!(peer.on_timeout(3, 2, T0).is_some());
        peer.failovers_no_progress = 1;
        peer.dead = true;
        // A duplicate ack frees nothing and clears nothing.
        assert_eq!(peer.on_ack(0, 0, 0), Ack::Ignored);
        assert_eq!(peer.consec_timeouts, 2);
        assert_eq!(peer.on_ack(0, 1, 0), Ack::Progress { in_flight: true });
        assert_eq!((peer.consec_timeouts, peer.failovers_no_progress), (0, 0));
        assert!(!peer.dead);
        assert_eq!(peer.on_ack(0, 2, 0), Ack::Progress { in_flight: false });
        // Nothing outstanding: the timer lapses without counting.
        assert_eq!(peer.on_timeout(3, 2, T0), None);
        assert_eq!(peer.consec_timeouts, 0);
    }

    fn pkts(vals: &[u8]) -> Vec<Bytes> {
        vals.iter().map(|&v| Bytes::from(vec![v])).collect()
    }

    fn fast(vals: &[u8], repeat: bool) -> Ack {
        Ack::FastRetransmit(FastResend {
            packets: pkts(vals),
            repeat,
        })
    }

    #[test]
    fn a_gap_ack_resends_a_hole_again_only_past_its_budget() {
        let mut peer = peer_with_in_flight(3);
        // A plain duplicate ack is no loss signal.
        assert_eq!(peer.on_ack(0, 0, 0), Ack::Ignored);
        // A new hole: resent at once. Packets 1 and 2 had one copy each out
        // before the resend, so its budget is 2.
        assert_eq!(peer.on_ack(0, 0, 1), fast(&[0, 1, 2], false));
        // The original 2 arriving behind the hole proves nothing about the
        // resent hole.
        assert_eq!(peer.on_ack(0, 0, 2), Ack::Ignored);
        // A third arrival must be a copy sent after the resent hole, which
        // the rail would have delivered first: the resend was dropped.
        assert_eq!(peer.on_ack(0, 0, 3), fast(&[0, 1, 2], true));
        // The budget is now 4.
        assert_eq!(peer.on_ack(0, 0, 4), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 5), fast(&[0, 1, 2], true));
        // Once the cum moves, the next hole is a new one.
        assert_eq!(peer.on_ack(0, 1, 1), fast(&[1, 2], false));
    }

    #[test]
    fn a_timeout_resend_sets_the_budget() {
        let mut peer = peer_with_in_flight(3);
        let resend = Timeout::Retransmit(pkts(&[0, 1, 2]));
        assert_eq!(peer.on_timeout(3, 2, T0), Some(resend));
        // Gap acks drawn by the originals behind the hole come right after
        // the timer's resend and resend nothing.
        assert_eq!(peer.on_ack(0, 0, 1), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 2), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 3), fast(&[0, 1, 2], true));
    }

    #[test]
    fn a_new_epoch_starts_with_no_hole_memory() {
        let mut peer = peer_with_in_flight(3);
        assert_eq!(peer.on_ack(0, 0, 1), fast(&[0, 1, 2], false));
        assert_eq!(
            peer.on_timeout(1, 2, T0),
            Some(Timeout::PathDead {
                failed_over: true,
                epoch: 1,
                parked: 0,
            })
        );
        let tx = peer.tx.as_mut().expect("stream exists");
        for p in tx.on_sync_ack(1, 0).expect("current epoch") {
            let seq = tx.next_seq();
            tx.record_sent(seq, p).expect("tail fits the window");
        }
        // The same seq on the fresh stream is a new hole, budget or not.
        assert_eq!(peer.on_ack(1, 0, 1), fast(&[0, 1, 2], false));
    }

    #[test]
    fn a_gap_ack_that_frees_packets_clears_health_and_resends_the_rest() {
        let mut peer = peer_with_in_flight(3);
        assert!(peer.on_timeout(3, 2, T0).is_some());
        assert!(peer.on_timeout(3, 2, T0).is_some());
        peer.failovers_no_progress = 1;
        peer.dead = true;
        assert_eq!(peer.on_ack(0, 1, 1), fast(&[1, 2], false));
        assert_eq!((peer.consec_timeouts, peer.failovers_no_progress), (0, 0));
        assert!(!peer.dead);
    }

    #[test]
    fn a_gap_ack_mid_resync_is_stale_and_with_nothing_in_flight_resends_nothing() {
        let mut peer = peer_with_in_flight(2);
        assert!(matches!(
            peer.on_timeout(1, 2, T0),
            Some(Timeout::PathDead { .. })
        ));
        assert_eq!(peer.on_ack(0, 0, 1), Ack::Stale, "parked epoch");
        assert_eq!(peer.on_ack(1, 0, 1), Ack::Stale, "resync in flight");

        let mut peer = peer_with_in_flight(2);
        assert_eq!(peer.on_ack(0, 2, 1), Ack::Progress { in_flight: false });
        assert_eq!(peer.on_ack(0, 2, 1), Ack::Ignored);
        let mut idle = peer_with_in_flight(0);
        assert_eq!(idle.on_ack(0, 0, 1), Ack::Ignored);
    }

    #[test]
    fn gap_acks_between_timeouts_do_not_delay_path_death() {
        let mut peer = peer_with_in_flight(2);
        assert!(matches!(peer.on_ack(0, 0, 1), Ack::FastRetransmit(_)));
        for _ in 0..2 {
            assert!(matches!(
                peer.on_timeout(3, 2, T0),
                Some(Timeout::Retransmit(_))
            ));
            assert_eq!(peer.on_ack(0, 0, 1), Ack::Ignored);
        }
        assert_eq!(peer.consec_timeouts, 2);
        assert!(matches!(
            peer.on_timeout(3, 2, T0),
            Some(Timeout::PathDead { .. })
        ));
    }

    #[test]
    fn ack_or_timeout_without_a_tx_stream_is_ignored() {
        let mut peer = Peer::default();
        assert_eq!(peer.on_ack(0, 7, 0), Ack::Ignored);
        assert_eq!(peer.on_ack(3, 7, 0), Ack::Ignored, "not even a stale drop");
        assert_eq!(peer.on_timeout(1, 2, T0), None);
        assert!(peer.tx.is_none(), "looking must not open a stream");
        // With a stream, a wrong-epoch or mid-resync ack *is* stale.
        let mut peer = peer_with_in_flight(1);
        assert_eq!(peer.on_ack(1, 1, 0), Ack::Stale);
        assert!(peer.on_timeout(1, 2, T0).is_some());
        assert_eq!(peer.on_ack(1, 1, 0), Ack::Stale, "resync in flight");
    }

    #[test]
    fn wipe_keeps_rail_and_restarts_only_existing_tx_streams() {
        let mut peer = peer_with_in_flight(2);
        assert!(peer.on_timeout(1, 2, T0).is_some()); // epoch 1, rail 1, syncing
        let accept = EpochVerdict::Gbn(GbnVerdict::Accept);
        assert_eq!(peer.rx.on_data(0, 0), accept);
        peer.dead = true;
        assert_eq!(peer.wipe(WINDOW), None);
        assert_eq!(peer.rail, 1, "routing state is host-side");
        let tx = peer.tx.as_ref().expect("stream existed before the wipe");
        assert_eq!((tx.epoch(), tx.in_flight(), tx.is_syncing()), (2, 0, false));
        assert_eq!((peer.rx.epoch(), peer.rx.cum_ack()), (0, 0));
        assert!(!peer.dead);
        assert_eq!(peer.sync_started, None);

        let mut stranger = Peer {
            rail: 1,
            ..Peer::default()
        };
        stranger.wipe(WINDOW);
        assert!(stranger.tx.is_none(), "a wipe opens no stream");
        assert_eq!(stranger.rail, 1);
    }
}

//! One record per destination NIC: the epoch-stamped go-back-N streams,
//! the probe timer and the RTT that sets it, the active rail and path
//! health. The transitions (ack progress, fast retransmit, probe, probe
//! reply, path death, rail failover, resync, wipe) are methods on [`Peer`]
//! with no simulator in them; the `McpInner` half of this file wires their
//! verdicts to timers, counters and control packets. A timer expiry never
//! resends: it sends a probe, and only an ack resends. Whether a gap ack or
//! a probe's reply resends the window is not decided here: the tx stream's
//! [`crate::reliable::GbnSender::on_gap_ack`] and
//! [`crate::reliable::GbnSender::on_probe_reply`] hold the rules and the
//! memory they judge by.

use std::rc::Rc;

use suca_myrinet::FabricNodeId;
use suca_sim::mtrace::{stage, TraceId};
use suca_sim::{EventId, SimDuration, SimTime};

use super::McpInner;
use crate::port::{ChannelId, PortId};
use crate::reliable::{EpochReceiver, EpochSender, FastResend, ProbeVerdict, Srtt};
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
    /// The armed timer, if any, and the period it was armed for.
    pub(super) timer: Option<(EventId, SimDuration)>,
    /// Rail carrying traffic to this destination (index into the NIC's
    /// fabrics). Host-side routing state: it survives a NIC reset.
    pub(super) rail: usize,
    /// Ack round-trip time to this destination; it sets the probe interval.
    rtt: Srtt,
    /// Timer periods expired with no ack progress in between — the paper's
    /// kernel-side path-death detector, counted in time, not in expiries,
    /// so probing faster does not die faster.
    silence: SimDuration,
    /// Path deaths (one rail tried each) since the last ack progress.
    failovers_no_progress: u32,
    /// Every rail was tried without progress. The kernel refuses *new*
    /// sends ([`crate::BclError::PathDead`]); the firmware keeps probing
    /// underneath so a revived path clears itself.
    pub(super) dead: bool,
    /// When the in-progress epoch resync started (for the recovery-latency
    /// histogram).
    sync_started: Option<SimTime>,
}

/// What a cumulative ack did to a peer's tx stream.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Ack {
    /// No tx stream, or nothing newly acknowledged and nothing proven.
    Ignored,
    /// For a stream already abandoned, or one mid-resync: never applied.
    Stale,
    /// Window slots freed — the path works, health is cleared.
    Progress {
        /// Packets still unacknowledged (the timer must be re-armed).
        in_flight: bool,
    },
    /// The gap ack proved the packet at `cum` lost (a new hole, or a
    /// resent one whose resend was dropped): go back N now. Health is
    /// cleared if the same ack also freed slots.
    FastRetransmit(FastResend),
    /// The probe's reply proved the packet at `cum` lost: go back N now.
    ProbeRetransmit(Vec<Rc<[u8]>>),
    /// The probe's reply showed the receiver lost its stream: the stream
    /// was parked and a resync to `epoch` begun at once, on the same rail.
    /// Path health is left alone: a reply from a wiped receiver proves the
    /// path carries acks, not that the stream moves.
    Resync { epoch: u16, parked: u16 },
}

/// What a timer expiry asks the firmware to do.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Timeout {
    /// Ask the receiver for its cum: a probe stamped `epoch`, carrying
    /// `token` and `fence` (the stream's next seq), queued behind every
    /// packet sent so far.
    Probe { epoch: u16, token: u32, fence: u32 },
    /// The `EpochSync` offer itself was lost; re-offer it.
    ResendSync { epoch: u16, parked: u16 },
    /// `max_path_timeouts` periods of silence: the stream was parked and a
    /// resync to `epoch` begun, on the next rail if there is one
    /// (`failed_over`).
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
        self.silence = SimDuration::ZERO;
        self.failovers_no_progress = 0;
        self.dead = false;
    }

    /// How long the next timer runs: a resync handshake is re-offered
    /// every `retransmit_timeout`; anything else is probed after
    /// `clamp(4·srtt, 50 µs, retransmit_timeout)` ([`Srtt`]).
    pub(super) fn timer_period(&self, retransmit_timeout: SimDuration) -> SimDuration {
        if self.tx.as_ref().is_some_and(EpochSender::is_syncing) {
            return retransmit_timeout;
        }
        SimDuration::from_ns(self.rtt.probe_interval_ns(retransmit_timeout.as_ns()))
    }

    /// A cumulative ack arrived at `now`. `out_of_order` is nonzero on a
    /// gap ack: the receiver's count of out-of-order arrivals since its cum
    /// last moved. `token` is nonzero on a probe's reply. The cum is
    /// applied first (and timed, when Karn's rule allows); the stream's
    /// [`crate::reliable::GbnSender::on_gap_ack`] or
    /// [`crate::reliable::GbnSender::on_probe_reply`] then decides whether
    /// the window goes out again now. A resend is not ack progress: path
    /// health counts silence only, so a dead link (which delivers no acks)
    /// is still detected after `max_path_timeouts` periods of it.
    pub(super) fn on_ack(
        &mut self,
        epoch: u16,
        cum: u32,
        out_of_order: u32,
        token: u32,
        now: SimTime,
    ) -> Ack {
        let Some(tx) = self.tx.as_mut() else {
            return Ack::Ignored;
        };
        let Some(freed) = tx.on_ack(epoch, cum) else {
            return Ack::Stale;
        };
        if let Some(sent) = freed.sent_once_ns {
            self.rtt.sample(now.as_ns().saturating_sub(sent));
        }
        let proven = if token == 0 {
            tx.on_gap_ack(cum, out_of_order).map(Ack::FastRetransmit)
        } else {
            tx.on_probe_reply(cum, token).map(|verdict| match verdict {
                ProbeVerdict::Lost(packets) => Ack::ProbeRetransmit(packets),
                ProbeVerdict::ReceiverReset => Ack::Resync {
                    epoch: tx.begin_resync(),
                    parked: tx.parked_epoch(),
                },
            })
        };
        let in_flight = tx.in_flight() > 0;
        if freed.packets > 0 {
            self.clear_health();
        }
        if let Some(Ack::Resync { .. }) = proven {
            self.sync_started.get_or_insert(now);
        }
        match proven {
            Some(ack) => ack,
            None if freed.packets == 0 => Ack::Ignored,
            None => Ack::Progress { in_flight },
        }
    }

    /// The timer, armed for `period`, fired at `now`. `None`: nothing was
    /// outstanding (or no stream exists) and the timer simply lapses.
    /// Otherwise the period adds to the silence, and once the silence
    /// reaches `max_path_timeouts × retransmit_timeout` (0 = never) the
    /// path is declared dead: the NIC — not user code — moves to the next
    /// of `rails` and parks the stream for an epoch resync; once every rail
    /// has been tried with no progress the destination is advisorily dead.
    /// Short of that, a resync in flight is re-offered and anything else is
    /// probed. Nothing is resent here.
    pub(super) fn on_timeout(
        &mut self,
        max_path_timeouts: u32,
        retransmit_timeout: SimDuration,
        period: SimDuration,
        rails: usize,
        now: SimTime,
    ) -> Option<Timeout> {
        let tx = self.tx.as_mut()?;
        if !tx.is_syncing() && tx.in_flight() == 0 {
            self.silence = SimDuration::ZERO;
            return None;
        }
        self.silence += period;
        let limit = retransmit_timeout * u64::from(max_path_timeouts);
        if max_path_timeouts > 0 && self.silence >= limit {
            self.silence = SimDuration::ZERO;
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
            let (token, fence) = tx.probe();
            Timeout::Probe {
                epoch: tx.epoch(),
                token,
                fence,
            }
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
        old.timer.map(|(event, _)| event)
    }
}

impl McpInner {
    pub(super) fn arm_timer(self: &Rc<Self>, peer: &mut Peer, dst: FabricNodeId) {
        if peer.timer.is_some() {
            return;
        }
        let me = self.clone();
        let period = peer.timer_period(self.cfg.reliability.retransmit_timeout);
        let event = self.sim.schedule_in(period, move |_| me.on_timeout(dst));
        peer.timer = Some((event, period));
    }

    /// Cancel `peer`'s timer, if armed.
    fn cancel_timer(&self, peer: &mut Peer) {
        if let Some((event, _)) = peer.timer.take() {
            self.sim.cancel(event);
        }
    }

    fn on_timeout(self: &Rc<Self>, dst: FabricNodeId) {
        let mut guard = self.state.borrow_mut();
        let down = self.is_down(&guard);
        let st = &mut *guard;
        let peer = st.peers.entry(dst.0).or_default();
        let Some((_, period)) = peer.timer.take() else {
            return;
        };
        if down {
            return; // crashed node: timers die with the firmware
        }
        let rel = &self.cfg.reliability;
        let now = self.sim.now();
        let rails = self.fabrics.len();
        let action = peer.on_timeout(
            rel.max_path_timeouts,
            rel.retransmit_timeout,
            period,
            rails,
            now,
        );
        let Some(action) = action else {
            return;
        };
        self.sim.add_count("bcl.timeouts", 1);
        let (epoch, parked) = match action {
            Timeout::Probe {
                epoch,
                token,
                fence,
            } => {
                // The probe joins the hole's chain, so a live loop is never
                // silent to the watchdog.
                let hole = peer.tx.as_ref().and_then(|tx| tx.unacked().next());
                let trace =
                    hole.and_then(|pkt| WireHeader::decode(pkt))
                        .map_or(TraceId::NONE, |(h, _)| {
                            let t = self.packet_trace(dst, &h);
                            TraceId::new(t.origin, t.msg_id)
                        });
                self.mt_instant(trace, stage::PROBE);
                // Behind every stamped packet, on the data path: the send
                // engine injects the retransmit queue in order, and before
                // any fragment stamped later.
                let probe = Self::probe_header(epoch, token, fence).encode(b"");
                st.send.retx.push_back((dst, probe));
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
        self: &Rc<Self>,
        src: FabricNodeId,
        epoch: u16,
        cum: u32,
        out_of_order: u32,
        token: u32,
    ) {
        {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            let now = self.sim.now();
            let peer = st.peers.entry(src.0).or_default();
            let in_flight = match peer.on_ack(epoch, cum, out_of_order, token, now) {
                Ack::Ignored => return,
                Ack::Stale => {
                    self.stale_epoch_drop(TraceId::NONE);
                    return;
                }
                Ack::Progress { in_flight } => in_flight,
                Ack::FastRetransmit(FastResend { packets, repeat }) => {
                    // Each resent fragment pays `send_per_frag` and the
                    // wire, and is traced `mcp:retx`.
                    self.sim.add_count("bcl.fast_retx", 1);
                    if repeat {
                        self.sim.add_count("bcl.fast_retx_repeat", 1);
                    }
                    st.send.retx.extend(packets.into_iter().map(|p| (src, p)));
                    true
                }
                Ack::ProbeRetransmit(packets) => {
                    self.sim.add_count("bcl.probe_retx", 1);
                    st.send.retx.extend(packets.into_iter().map(|p| (src, p)));
                    true
                }
                Ack::Resync { epoch, parked } => {
                    // As on a path death, minus the death: the same rail
                    // carried the reply, so the handshake goes there.
                    st.send.retx.retain(|(d, _)| *d != src);
                    self.send_control(peer.rail, src, Self::sync_header(epoch, parked));
                    self.cancel_timer(peer);
                    self.arm_timer(peer, src);
                    return;
                }
            };
            self.cancel_timer(peer);
            if in_flight {
                self.arm_timer(peer, src);
            } else {
                st.send.completed.settle(src);
            }
        }
        self.kick_sender(); // window may have opened, or a resend is queued
    }

    /// A probe stamped `epoch` reached the front of the data rx ring, so
    /// every arrival ahead of it has its verdict: answer with the receive
    /// stream's cum, echoing `token`, on the arrival rail. A newer epoch is
    /// adopted first; a stale probe is a counted drop.
    pub(super) fn on_probe(
        self: &Rc<Self>,
        src: FabricNodeId,
        epoch: u16,
        token: u32,
        rail: usize,
    ) {
        let mut st = self.state.borrow_mut();
        let rx = &mut st.peers.entry(src.0).or_default().rx;
        let Some(cum) = rx.on_probe(epoch) else {
            self.stale_epoch_drop(TraceId::NONE);
            return;
        };
        let reply = Self::probe_reply_header(rx.epoch(), cum, token);
        drop(st);
        self.send_control(rail, src, reply);
    }

    /// A peer began an epoch resync toward us: adopt the new epoch (capture
    /// the old stream's cumulative ack first) and reply with the cum of the
    /// stream the peer *parked* (`parked` names its epoch) so the peer can
    /// replay exactly the undelivered tail. Duplicate syncs replay the same
    /// captured ack; stale ones are counted drops.
    pub(super) fn on_epoch_sync(
        self: &Rc<Self>,
        src: FabricNodeId,
        epoch: u16,
        parked: u16,
        rail: usize,
    ) {
        let mut st = self.state.borrow_mut();
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
    pub(super) fn on_epoch_sync_ack(self: &Rc<Self>, src: FabricNodeId, epoch: u16, old_cum: u32) {
        {
            let mut guard = self.state.borrow_mut();
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
                let Ok(enc) = tx.stamp(&mut h, payload, self.sim.now().as_ns()) else {
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
            self.cancel_timer(peer);
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
    /// arrival), and 0 on any other ack; `msg_id` is 0.
    pub(super) fn ack_header(epoch: u16, cum: u32, out_of_order: u32) -> WireHeader {
        Self::control_header(WireKind::Ack, epoch, 0, cum, out_of_order)
    }

    /// "Tell me your cum once you have seen everything I sent before this":
    /// `seq` carries the fence (the sender's next seq, for the trace; the
    /// sender keeps its own copy) and `msg_id` the token the reply echoes.
    fn probe_header(epoch: u16, token: u32, fence: u32) -> WireHeader {
        Self::control_header(WireKind::Probe, epoch, token, fence, 0)
    }

    /// A probe's reply: a plain cumulative ack whose `msg_id` echoes the
    /// probe's token (never 0).
    fn probe_reply_header(epoch: u16, cum: u32, token: u32) -> WireHeader {
        Self::control_header(WireKind::Ack, epoch, token, cum, 0)
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
    /// The ceiling of the probe interval and the unit of silence.
    const RTO: SimDuration = SimDuration::from_us(300);

    /// A peer with `n` unacknowledged packets on a fresh epoch-0 stream,
    /// all sent at time 0.
    fn peer_with_in_flight(n: u32) -> Peer {
        let mut peer = Peer::default();
        let tx = peer.tx_or_open(WINDOW);
        for i in 0..n {
            let seq = tx.next_seq();
            tx.record_sent(seq, Rc::from([i as u8]), 0)
                .expect("in window");
        }
        peer
    }

    /// One full-ceiling timer period expires with `limit` and two rails.
    fn expire(peer: &mut Peer, limit: u32) -> Option<Timeout> {
        peer.on_timeout(limit, RTO, RTO, 2, T0)
    }

    /// The token of the probe a timer expiry issued.
    fn probe_token(timeout: Option<Timeout>) -> u32 {
        match timeout {
            Some(Timeout::Probe { token, .. }) => token,
            other => panic!("expected a probe, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_timeouts_kill_the_path_and_rotate_rails() {
        let mut peer = peer_with_in_flight(2);
        // No RTT sample yet: the timer runs the whole ceiling, and each
        // expiry asks instead of resending.
        assert_eq!(peer.timer_period(RTO), RTO);
        let probe = |token| Timeout::Probe {
            epoch: 0,
            token,
            fence: 2,
        };
        assert_eq!(expire(&mut peer, 3), Some(probe(1)));
        assert_eq!(expire(&mut peer, 3), Some(probe(2)));
        // The third silent period: path death, failover to rail 1.
        let died = Timeout::PathDead {
            failed_over: true,
            epoch: 1,
            parked: 0,
        };
        assert_eq!(expire(&mut peer, 3), Some(died));
        assert_eq!(peer.rail, 1);
        assert!(!peer.dead, "one rail is still untried");
        assert_eq!(peer.sync_started, Some(T0));
        // The handshake is what times out now, at the ceiling: re-offered
        // twice, then the second path death wraps the rail modulo the rail
        // count. Every rail has been tried, so the destination is
        // advisorily dead; the stream parked first stays the one to
        // reconcile.
        assert_eq!(peer.timer_period(RTO), RTO);
        let reoffer = Timeout::ResendSync {
            epoch: 1,
            parked: 0,
        };
        assert_eq!(expire(&mut peer, 3), Some(reoffer));
        assert!(matches!(
            expire(&mut peer, 3),
            Some(Timeout::ResendSync { .. })
        ));
        let died_again = Timeout::PathDead {
            failed_over: true,
            epoch: 2,
            parked: 0,
        };
        assert_eq!(
            peer.on_timeout(3, RTO, RTO, 2, SimTime::from_ns(9_000)),
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
        assert_eq!(peer.silence, SimDuration::ZERO);
        assert_eq!(peer.failovers_no_progress, 0);
    }

    /// `max_path_timeouts` counts periods of `retransmit_timeout`, however
    /// many probes fire in them: at the 50 µs floor, 3 × 300 µs of silence
    /// is 18 expiries, and the first 17 only probe.
    #[test]
    fn path_death_counts_silence_not_probes() {
        let mut peer = peer_with_in_flight(1);
        // A 10 µs sample: 4 × srtt is under the floor.
        let acked = SimTime::from_ns(10_000);
        assert_eq!(
            peer.on_ack(0, 1, 0, 0, acked),
            Ack::Progress { in_flight: false }
        );
        let tx = peer.tx.as_mut().expect("stream exists");
        tx.record_sent(1, Rc::from(*b"x"), 20_000)
            .expect("in window");
        let period = peer.timer_period(RTO);
        assert_eq!(period, SimDuration::from_us(50));
        for n in 1..=17 {
            assert_eq!(
                probe_token(peer.on_timeout(3, RTO, period, 2, T0)),
                n,
                "expiry {n} only probes"
            );
        }
        assert!(matches!(
            peer.on_timeout(3, RTO, period, 2, T0),
            Some(Timeout::PathDead { .. })
        ));
    }

    /// Karn's rule at the peer: an ack that frees a resent packet leaves
    /// the RTT alone; one that frees a packet sent once sets it.
    #[test]
    fn a_resent_packet_gives_no_rtt_sample() {
        let mut peer = peer_with_in_flight(1);
        let token = probe_token(expire(&mut peer, 0));
        let resend = Ack::ProbeRetransmit(vec![Rc::from([0])]);
        assert_eq!(peer.on_ack(0, 0, 0, token, T0), resend);
        let late = SimTime::from_ns(1_000_000);
        assert_eq!(
            peer.on_ack(0, 1, 0, 0, late),
            Ack::Progress { in_flight: false }
        );
        assert_eq!(peer.timer_period(RTO), RTO, "no sample taken");
        let tx = peer.tx.as_mut().expect("stream exists");
        tx.record_sent(1, Rc::from(*b"y"), late.as_ns())
            .expect("in window");
        let acked = SimTime::from_ns(late.as_ns() + 20_000);
        assert_eq!(
            peer.on_ack(0, 2, 0, 0, acked),
            Ack::Progress { in_flight: false }
        );
        assert_eq!(peer.timer_period(RTO), SimDuration::from_us(80));
    }

    #[test]
    fn a_probe_reply_resends_resyncs_or_proves_nothing() {
        // A stale token proves nothing; the latest one proves the hole.
        let mut peer = peer_with_in_flight(2);
        let old = probe_token(expire(&mut peer, 0));
        let latest = probe_token(expire(&mut peer, 0));
        assert_eq!(peer.on_ack(0, 0, 0, old, T0), Ack::Ignored);
        assert_eq!(
            peer.on_ack(0, 0, 0, latest, T0),
            Ack::ProbeRetransmit(pkts(&[0, 1]))
        );
        // A resend that started after the probe voids its reply.
        let mut peer = peer_with_in_flight(2);
        let token = probe_token(expire(&mut peer, 0));
        assert_eq!(peer.on_ack(0, 0, 1, 0, T0), fast(&[0, 1], false));
        assert_eq!(peer.on_ack(0, 0, 0, token, T0), Ack::Ignored);
        // A cum at the fence frees the window and resends nothing.
        let mut peer = peer_with_in_flight(2);
        let token = probe_token(expire(&mut peer, 0));
        assert_eq!(
            peer.on_ack(0, 2, 0, token, T0),
            Ack::Progress { in_flight: false }
        );
        // A cum behind the first unacked seq: the receiver was wiped. The
        // resync starts at once, on the same rail, with health untouched.
        let mut peer = peer_with_in_flight(3);
        assert_eq!(
            peer.on_ack(0, 1, 0, 0, T0),
            Ack::Progress { in_flight: true }
        );
        assert!(expire(&mut peer, 3).is_some());
        let token = probe_token(expire(&mut peer, 3));
        let resync = Ack::Resync {
            epoch: 1,
            parked: 0,
        };
        assert_eq!(peer.on_ack(0, 0, 0, token, T0), resync);
        assert!(peer.tx.as_ref().is_some_and(EpochSender::is_syncing));
        assert_eq!((peer.rail, peer.silence), (0, RTO * 2));
        assert_eq!(peer.sync_started, Some(T0));
        assert_eq!(peer.timer_period(RTO), RTO, "the handshake's period");
    }

    #[test]
    fn single_rail_path_death_is_dead_at_once_and_zero_threshold_never_dies() {
        let mut peer = peer_with_in_flight(1);
        let died = Timeout::PathDead {
            failed_over: false,
            epoch: 1,
            parked: 0,
        };
        assert_eq!(peer.on_timeout(1, RTO, RTO, 1, T0), Some(died));
        assert_eq!(peer.rail, 0);
        assert!(peer.dead);

        let mut peer = peer_with_in_flight(1);
        for _ in 0..100 {
            assert!(matches!(expire(&mut peer, 0), Some(Timeout::Probe { .. })));
        }
        assert!(!peer.dead);
    }

    #[test]
    fn ack_progress_clears_all_path_health() {
        let mut peer = peer_with_in_flight(2);
        assert!(expire(&mut peer, 3).is_some());
        assert!(expire(&mut peer, 3).is_some());
        peer.failovers_no_progress = 1;
        peer.dead = true;
        // A duplicate ack frees nothing and clears nothing.
        assert_eq!(peer.on_ack(0, 0, 0, 0, T0), Ack::Ignored);
        assert_eq!(peer.silence, RTO * 2);
        assert_eq!(
            peer.on_ack(0, 1, 0, 0, T0),
            Ack::Progress { in_flight: true }
        );
        assert_eq!(peer.silence, SimDuration::ZERO);
        assert_eq!(peer.failovers_no_progress, 0);
        assert!(!peer.dead);
        assert_eq!(
            peer.on_ack(0, 2, 0, 0, T0),
            Ack::Progress { in_flight: false }
        );
        // Nothing outstanding: the timer lapses without counting.
        assert_eq!(expire(&mut peer, 3), None);
        assert_eq!(peer.silence, SimDuration::ZERO);
    }

    fn pkts(vals: &[u8]) -> Vec<Rc<[u8]>> {
        vals.iter().map(|&v| Rc::from([v])).collect()
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
        assert_eq!(peer.on_ack(0, 0, 0, 0, T0), Ack::Ignored);
        // A new hole: resent at once. Packets 1 and 2 had one copy each out
        // before the resend, so its budget is 2.
        assert_eq!(peer.on_ack(0, 0, 1, 0, T0), fast(&[0, 1, 2], false));
        // The original 2 arriving behind the hole proves nothing about the
        // resent hole.
        assert_eq!(peer.on_ack(0, 0, 2, 0, T0), Ack::Ignored);
        // A third arrival must be a copy sent after the resent hole, which
        // the rail would have delivered first: the resend was dropped.
        assert_eq!(peer.on_ack(0, 0, 3, 0, T0), fast(&[0, 1, 2], true));
        // The budget is now 4.
        assert_eq!(peer.on_ack(0, 0, 4, 0, T0), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 5, 0, T0), fast(&[0, 1, 2], true));
        // Once the cum moves, the next hole is a new one.
        assert_eq!(peer.on_ack(0, 1, 1, 0, T0), fast(&[1, 2], false));
    }

    #[test]
    fn a_probe_resend_sets_the_budget() {
        let mut peer = peer_with_in_flight(3);
        let token = probe_token(expire(&mut peer, 3));
        assert_eq!(
            peer.on_ack(0, 0, 0, token, T0),
            Ack::ProbeRetransmit(pkts(&[0, 1, 2]))
        );
        // Gap acks drawn by the originals behind the hole come right after
        // the probe's resend and resend nothing.
        assert_eq!(peer.on_ack(0, 0, 1, 0, T0), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 2, 0, T0), Ack::Ignored);
        assert_eq!(peer.on_ack(0, 0, 3, 0, T0), fast(&[0, 1, 2], true));
    }

    #[test]
    fn a_new_epoch_starts_with_no_hole_memory() {
        let mut peer = peer_with_in_flight(3);
        assert_eq!(peer.on_ack(0, 0, 1, 0, T0), fast(&[0, 1, 2], false));
        assert_eq!(
            expire(&mut peer, 1),
            Some(Timeout::PathDead {
                failed_over: true,
                epoch: 1,
                parked: 0,
            })
        );
        let tx = peer.tx.as_mut().expect("stream exists");
        for p in tx.on_sync_ack(1, 0).expect("current epoch") {
            let seq = tx.next_seq();
            tx.record_sent(seq, p, 0).expect("tail fits the window");
        }
        // The same seq on the fresh stream is a new hole, budget or not.
        assert_eq!(peer.on_ack(1, 0, 1, 0, T0), fast(&[0, 1, 2], false));
    }

    #[test]
    fn a_gap_ack_that_frees_packets_clears_health_and_resends_the_rest() {
        let mut peer = peer_with_in_flight(3);
        assert!(expire(&mut peer, 3).is_some());
        assert!(expire(&mut peer, 3).is_some());
        peer.failovers_no_progress = 1;
        peer.dead = true;
        assert_eq!(peer.on_ack(0, 1, 1, 0, T0), fast(&[1, 2], false));
        assert_eq!(peer.silence, SimDuration::ZERO);
        assert_eq!(peer.failovers_no_progress, 0);
        assert!(!peer.dead);
    }

    #[test]
    fn a_gap_ack_mid_resync_is_stale_and_with_nothing_in_flight_resends_nothing() {
        let mut peer = peer_with_in_flight(2);
        assert!(matches!(
            expire(&mut peer, 1),
            Some(Timeout::PathDead { .. })
        ));
        assert_eq!(peer.on_ack(0, 0, 1, 0, T0), Ack::Stale, "parked epoch");
        assert_eq!(peer.on_ack(1, 0, 1, 0, T0), Ack::Stale, "resync in flight");

        let mut peer = peer_with_in_flight(2);
        assert_eq!(
            peer.on_ack(0, 2, 1, 0, T0),
            Ack::Progress { in_flight: false }
        );
        assert_eq!(peer.on_ack(0, 2, 1, 0, T0), Ack::Ignored);
        let mut idle = peer_with_in_flight(0);
        assert_eq!(idle.on_ack(0, 0, 1, 0, T0), Ack::Ignored);
    }

    #[test]
    fn gap_acks_between_timeouts_do_not_delay_path_death() {
        let mut peer = peer_with_in_flight(2);
        assert!(matches!(
            peer.on_ack(0, 0, 1, 0, T0),
            Ack::FastRetransmit(_)
        ));
        for _ in 0..2 {
            assert!(matches!(expire(&mut peer, 3), Some(Timeout::Probe { .. })));
            assert_eq!(peer.on_ack(0, 0, 1, 0, T0), Ack::Ignored);
        }
        assert_eq!(peer.silence, RTO * 2);
        assert!(matches!(
            expire(&mut peer, 3),
            Some(Timeout::PathDead { .. })
        ));
    }

    #[test]
    fn ack_or_timeout_without_a_tx_stream_is_ignored() {
        let mut peer = Peer::default();
        assert_eq!(peer.on_ack(0, 7, 0, 0, T0), Ack::Ignored);
        assert_eq!(
            peer.on_ack(3, 7, 0, 0, T0),
            Ack::Ignored,
            "not even a stale drop"
        );
        assert_eq!(expire(&mut peer, 1), None);
        assert!(peer.tx.is_none(), "looking must not open a stream");
        // With a stream, a wrong-epoch or mid-resync ack *is* stale.
        let mut peer = peer_with_in_flight(1);
        assert_eq!(peer.on_ack(1, 1, 0, 0, T0), Ack::Stale);
        assert!(expire(&mut peer, 1).is_some());
        assert_eq!(peer.on_ack(1, 1, 0, 0, T0), Ack::Stale, "resync in flight");
    }

    #[test]
    fn wipe_keeps_rail_and_restarts_only_existing_tx_streams() {
        let mut peer = peer_with_in_flight(2);
        assert!(expire(&mut peer, 1).is_some()); // epoch 1, rail 1, syncing
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

//! Property-based tests on the core invariants:
//!
//! * any payload, any size mix → delivered intact and in order through the
//!   full BCL stack (including fragmentation), with or without faults;
//! * the wire decoder never panics on arbitrary bytes (corrupted packets
//!   reach it on real hardware);
//! * scatter/gather slicing is consistent with flat byte ranges;
//! * go-back-N delivers every packet exactly once, in order, under any
//!   loss pattern;
//! * the event engine dispatches any program of handlers, pollers, cancels
//!   and actors in exactly the `(time, insertion index)` order of a sorted
//!   `Vec`.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use suca::bcl::reliable::{
    EpochReceiver, EpochSender, EpochVerdict, GbnReceiver, GbnSender, GbnVerdict,
};
use suca::bcl::wire::WireHeader;
use suca::bcl::ChannelId;
use suca::cluster::{ClusterSpec, SanKind, SimBarrier};
use suca::myrinet::FaultPlan;
use suca::prelude::*;
use suca::sim::{EventId, PollerId, Signal};

/// Ship `payloads` through BCL node 0 → node 1 under `fault`, asserting
/// intact in-order delivery. Uses normal channels (rendezvous) so arbitrary
/// sizes work.
fn roundtrip_payloads(payloads: Vec<Vec<u8>>, fault: FaultPlan, seed: u64) {
    let mut spec = ClusterSpec::dawning3000(2).with_seed(seed);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = fault;
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca::bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let expect = payloads.clone();

    let b2 = barrier.clone();
    let a2 = addr.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        // Pre-post channels for the first lap (one channel per message,
        // modulo 8); later messages re-post on consumption below.
        for (i, p) in expect.iter().take(8).enumerate() {
            port.post_recv(ctx, i as u16, p.len().max(1) as u64)
                .expect("post");
        }
        b2.wait(ctx);
        let mut got = 0usize;
        while got < expect.len() {
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).expect("data");
            assert_eq!(
                data,
                expect[got],
                "message {got} damaged (len {} vs {})",
                data.len(),
                expect[got].len()
            );
            got += 1;
            // Re-post the channel for a later message that reuses it.
            let next = got + 7;
            if next < expect.len() {
                port.post_recv(ctx, (next % 8) as u16, expect[next].len().max(1) as u64)
                    .expect("re-post");
            }
        }
    });
    let b3 = barrier.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        for (i, p) in payloads.iter().enumerate() {
            let buf = port.alloc_buffer(p.len().max(1) as u64).expect("alloc");
            port.write_buffer(buf, p).expect("fill");
            port.send(
                ctx,
                dst,
                ChannelId::normal((i % 8) as u16),
                buf,
                p.len() as u64,
            )
            .expect("send");
            let _ = port.wait_send(ctx); // pace: one in flight per channel lap
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "proptest workload hung");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case simulates a whole cluster; keep bounded
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_payload_mix_delivered_intact(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..20_000),
            1..6
        ),
        seed in any::<u64>(),
    ) {
        roundtrip_payloads(payloads, FaultPlan::NONE, seed);
    }

    #[test]
    fn any_payload_mix_survives_faults(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..12_000),
            1..4
        ),
        seed in any::<u64>(),
        drop in 0.0f64..0.08,
        corrupt in 0.0f64..0.08,
    ) {
        roundtrip_payloads(
            payloads,
            FaultPlan { drop_prob: drop, corrupt_prob: corrupt },
            seed,
        );
    }
}

proptest! {
    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; panicking is not (firmware must survive
        // corrupted packets).
        let _ = WireHeader::decode(&bytes);
    }

    #[test]
    fn wire_roundtrip_any_payload(payload in prop::collection::vec(any::<u8>(), 0..4064)) {
        let header = WireHeader {
            kind: suca::bcl::wire::WireKind::Data,
            channel: ChannelId::normal(1),
            src_port: suca::bcl::PortId(3),
            dst_port: suca::bcl::PortId(4),
            msg_id: 9,
            seq: 17,
            offset: 0,
            total_len: payload.len() as u32,
            frag_len: payload.len() as u32,
            epoch: 0,
        };
        let encoded = header.encode(&payload);
        let (h2, p2) = WireHeader::decode(&encoded).expect("own encoding parses");
        prop_assert_eq!(h2, header);
        prop_assert_eq!(p2, &payload[..]);
    }

    #[test]
    fn wire_roundtrip_any_header(
        kind_idx in 0usize..7,
        chan_kind_idx in 0usize..3,
        chan_index in any::<u16>(),
        src in any::<u16>(),
        dst in any::<u16>(),
        msg_id in any::<u32>(),
        seq in any::<u32>(),
        offset in any::<u32>(),
        total_len in any::<u32>(),
        epoch in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..4064),
    ) {
        use suca::bcl::wire::WireKind;
        let kinds = [
            WireKind::Data,
            WireKind::Ack,
            WireKind::Reject,
            WireKind::RmaReadReq,
            WireKind::RmaReadData,
            WireKind::EpochSync,
            WireKind::EpochSyncAck,
        ];
        let chan_kinds = [
            suca::bcl::ChannelId::SYSTEM,
            suca::bcl::ChannelId::normal(chan_index),
            suca::bcl::ChannelId::open(chan_index),
        ];
        let header = WireHeader {
            kind: kinds[kind_idx],
            channel: chan_kinds[chan_kind_idx],
            src_port: suca::bcl::PortId(src),
            dst_port: suca::bcl::PortId(dst),
            msg_id,
            seq,
            offset,
            total_len,
            frag_len: payload.len() as u32,
            epoch,
        };
        let encoded = header.encode(&payload);
        let (h2, p2) = WireHeader::decode(&encoded).expect("own encoding parses");
        prop_assert_eq!(h2, header);
        prop_assert_eq!(p2, &payload[..]);
    }

    #[test]
    fn wire_truncation_at_any_point_is_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        cut_seed in any::<usize>(),
    ) {
        // Chopping any tail off a valid packet must yield a clean parse
        // failure — short header and short payload alike.
        let header = suca::bcl::wire::WireHeader {
            kind: suca::bcl::wire::WireKind::Data,
            channel: ChannelId::normal(1),
            src_port: suca::bcl::PortId(3),
            dst_port: suca::bcl::PortId(4),
            msg_id: 9,
            seq: 17,
            offset: 0,
            total_len: payload.len() as u32,
            frag_len: payload.len() as u32,
            epoch: 0,
        };
        let encoded = header.encode(&payload);
        let cut = cut_seed % encoded.len(); // 0..len, strictly short of full
        prop_assert!(WireHeader::decode(&encoded[..cut]).is_none());
    }

    #[test]
    fn wire_invalid_kind_bytes_are_rejected(
        bad_kind in 10u8..=255, // 1..=9 are the valid WireKind encodings; 0 is reserved
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let header = suca::bcl::wire::WireHeader {
            kind: suca::bcl::wire::WireKind::Data,
            channel: ChannelId::normal(1),
            src_port: suca::bcl::PortId(3),
            dst_port: suca::bcl::PortId(4),
            msg_id: 9,
            seq: 17,
            offset: 0,
            total_len: payload.len() as u32,
            frag_len: payload.len() as u32,
            epoch: 0,
        };
        let mut raw = header.encode(&payload).to_vec();
        raw[0] = bad_kind;
        prop_assert!(WireHeader::decode(&raw).is_none());
        // Kind byte 0 is reserved/invalid too.
        raw[0] = 0;
        prop_assert!(WireHeader::decode(&raw).is_none());
    }

    #[test]
    fn gbn_delivers_exactly_once_in_order_under_any_losses(
        n in 1usize..60,
        loss_pattern in prop::collection::vec(any::<bool>(), 0..600),
    ) {
        let mut tx = GbnSender::new(8);
        let mut rx = GbnReceiver::new();
        let mut delivered: Vec<u32> = Vec::new();
        let mut next_to_queue = 0u32;
        let mut losses = loss_pattern.into_iter();
        let mut rounds = 0;
        while delivered.len() < n {
            rounds += 1;
            prop_assert!(rounds < 10_000, "no progress");
            while tx.can_send() && (next_to_queue as usize) < n {
                let seq = tx.next_seq();
                tx.record_sent(seq, Rc::from(next_to_queue.to_le_bytes()), 0)
                    .expect("seq from next_seq() under can_send()");
                next_to_queue += 1;
            }
            // "Transmit" the window; some packets get lost.
            let base = tx.next_seq().wrapping_sub(tx.in_flight() as u32);
            let window: Vec<(u32, u32)> = tx
                .unacked()
                .enumerate()
                .map(|(i, b)| (
                    base.wrapping_add(i as u32),
                    u32::from_le_bytes(b[..4].try_into().expect("4")),
                ))
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
        prop_assert_eq!(delivered, (0..n as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn epoch_resync_delivers_exactly_once_under_flaps_and_losses(
        n in 1usize..50,
        flap_pattern in prop::collection::vec(any::<bool>(), 0..64),
        loss_pattern in prop::collection::vec(any::<bool>(), 0..600),
    ) {
        // The full failover model: arbitrary link flaps force epoch resyncs
        // mid-stream, and the EpochSync, EpochSyncAck, data, and ack packets
        // are each subject to independent loss (a lost handshake leg is
        // retried the next round, like the retransmit timer does). Every
        // message must still arrive exactly once, in order.
        let mut tx = EpochSender::new(8);
        let mut rx = EpochReceiver::new();
        let mut delivered: Vec<u32> = Vec::new();
        let mut next_to_queue = 0u32;
        let mut losses = loss_pattern.into_iter();
        let mut flaps = flap_pattern.into_iter();
        let mut rounds = 0;
        while delivered.len() < n {
            rounds += 1;
            prop_assert!(rounds < 20_000, "no progress");
            if flaps.next().unwrap_or(false) {
                // Path death: the kernel fails over and starts a resync.
                tx.begin_resync();
            }
            if tx.is_syncing() {
                if !losses.next().unwrap_or(false) {
                    if let Some(old_cum) = rx.on_sync(tx.epoch(), tx.parked_epoch()) {
                        if !losses.next().unwrap_or(false) {
                            if let Some(tail) = tx.on_sync_ack(tx.epoch(), old_cum) {
                                // Re-stamp the undelivered tail on the fresh
                                // stream, exactly as the MCP does.
                                for pkt in tail {
                                    let seq = tx.next_seq();
                                    tx.record_sent(seq, pkt, 0)
                                        .expect("tail is at most one window");
                                }
                            }
                        }
                    }
                }
                continue; // data is paused until the handshake completes
            }
            while tx.can_send() && (next_to_queue as usize) < n {
                let seq = tx.next_seq();
                tx.record_sent(seq, Rc::from(next_to_queue.to_le_bytes()), 0)
                    .expect("seq from next_seq() under can_send()");
                next_to_queue += 1;
            }
            // "Transmit" the window under the current epoch; some packets
            // get lost, and packets from abandoned epochs read as stale.
            let base = tx.next_seq().wrapping_sub(tx.in_flight() as u32);
            let window: Vec<(u32, u32)> = tx
                .unacked()
                .enumerate()
                .map(|(i, b)| (
                    base.wrapping_add(i as u32),
                    u32::from_le_bytes(b[..4].try_into().expect("4")),
                ))
                .collect();
            let epoch = tx.epoch();
            for (seq, val) in window {
                if losses.next().unwrap_or(false) {
                    continue;
                }
                if let EpochVerdict::Gbn(GbnVerdict::Accept) = rx.on_data(epoch, seq) {
                    delivered.push(val);
                }
            }
            if !losses.next().unwrap_or(false) {
                let _ = tx.on_ack(rx.epoch(), rx.cum_ack());
            }
        }
        prop_assert_eq!(delivered, (0..n as u32).collect::<Vec<u32>>());
    }
}

/// Every valid kind byte, 1..=9, decodes to its own kind and re-encodes to
/// the same packet.
#[test]
fn wire_every_valid_kind_byte_round_trips() {
    let header = WireHeader {
        kind: suca::bcl::wire::WireKind::Data,
        channel: ChannelId::normal(1),
        src_port: suca::bcl::PortId(3),
        dst_port: suca::bcl::PortId(4),
        msg_id: 9,
        seq: 17,
        offset: 0,
        total_len: 3,
        frag_len: 3,
        epoch: 0,
    };
    let mut raw = header.encode(b"abc").to_vec();
    let mut kinds = Vec::new();
    for kind in 1u8..=9 {
        raw[0] = kind;
        let (decoded, payload) = WireHeader::decode(&raw).expect("a valid kind byte");
        assert_eq!(payload, b"abc");
        assert_eq!(&decoded.encode(payload)[..], &raw[..], "kind byte {kind}");
        assert!(
            !kinds.contains(&decoded.kind),
            "kind byte {kind} decodes to a taken kind"
        );
        kinds.push(decoded.kind);
    }
}

proptest! {
    #[test]
    fn sg_slicing_matches_flat_ranges(
        len in 1u64..30_000,
        a in 0u64..30_000,
        b in 0u64..30_000,
    ) {
        use suca::bcl::sg::{read_sg, sg_total};
        use suca::mem::{AddressSpace, Asid, PhysMemory};
        let (off, want) = (a.min(b) % len, (a.max(b) % len).max(1));
        let take = want.min(len - off);
        let mem = PhysMemory::new(1 << 24);
        let space = AddressSpace::new(Asid(1), mem.clone());
        let base = space.alloc(len).expect("alloc");
        let pattern: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        space.write(base, &pattern).expect("fill");
        // Held as the kernel module would hold it: `read_sg` is a DMA.
        let segs = mem.nic_hold(space.sg_list(base, len).expect("sg"), false);
        prop_assert_eq!(sg_total(&segs), len);
        let got = read_sg(&mem, &segs, off, take).expect("read");
        prop_assert_eq!(&got[..], &pattern[off as usize..(off + take) as usize]);
        prop_assert_eq!(mem.lifetime_violations(), 0);
    }
}

// ---- event-engine order oracle ---------------------------------------------

/// Delays in ns; the repeated 0 and the small spread make ties common.
const DELAYS: [u64; 5] = [0, 0, 1, 2, 7];
/// Actor sleeps in ns: the short ones tie queued events or move the clock
/// in place, the long one crosses every `run_until` split.
const SLEEPS: [u64; 6] = [0, 1, 2, 7, 15, 40];
/// Log tag of poller `p` is `POLL_TAG + p`, of actor `a` `ACTOR_TAG + a`;
/// a handler node logs its own index.
const POLL_TAG: usize = 1_000;
const ACTOR_TAG: usize = 2_000;
const ACTOR_NAMES: [&str; 2] = ["a0", "a1"];

/// One schedulable event of the generated program.
struct Node {
    delay: u64,
    /// `Some(p)`: a tick of poller `p` (a leaf). `None`: a handler that
    /// schedules `kids`, then cancels `cancel`.
    poller: Option<usize>,
    kids: Vec<usize>,
    cancel: Option<usize>,
}

#[derive(Clone, Copy)]
enum Step {
    Sleep(u64),
    Yield,
    /// Wait on this actor's own signal.
    Wait,
    /// Notify the other actor's signal.
    Notify,
    Cancel(usize),
    Schedule(usize),
}

struct Program {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    scripts: [Vec<Step>; 2],
    split: Option<u64>,
}

#[derive(Clone, Debug, PartialEq)]
enum Entry {
    Fired(u64, usize),
    Cancelled(usize, bool),
    /// A `run`/`run_until` returned: outcome, clock, dispatches so far.
    Ran(RunOutcome, u64, u64),
}

type RawNode = (usize, u16, u16, u8);
type RawStep = (u8, u16);

fn build_program(raw: &[RawNode], raw_scripts: [&[RawStep]; 2], split: u64) -> Program {
    let n = raw.len();
    let mut nodes: Vec<Node> = Vec::with_capacity(n);
    let mut roots = Vec::new();
    for (k, &(delay, parent, cancel, kind)) in raw.iter().enumerate() {
        let poller = (kind == 0).then_some(k % 2);
        let cancel = Some(usize::from(cancel) % (2 * n)).filter(|&t| poller.is_none() && t < n);
        nodes.push(Node {
            delay: DELAYS[delay],
            poller,
            kids: Vec::new(),
            cancel,
        });
        // Parents have smaller indices, so every chain ends.
        match usize::from(parent) % (k + 1) {
            j if j < k && nodes[j].poller.is_none() => nodes[j].kids.push(k),
            _ => roots.push(k),
        }
    }
    let script = |raw: &[RawStep]| {
        raw.iter()
            .map(|&(kind, pick)| match kind {
                0 | 1 => Step::Sleep(SLEEPS[usize::from(pick) % SLEEPS.len()]),
                2 => Step::Wait,
                3 => Step::Notify,
                4 => Step::Cancel(usize::from(pick) % n),
                5 => Step::Schedule(usize::from(pick) % n),
                _ => Step::Yield,
            })
            .collect()
    };
    Program {
        nodes,
        roots,
        scripts: [script(raw_scripts[0]), script(raw_scripts[1])],
        split: (split >= 3).then_some(split),
    }
}

/// What the handlers and actors of the real run share.
struct Real {
    prog: Program,
    log: Rc<RefCell<Vec<Entry>>>,
    ids: RefCell<Vec<Option<EventId>>>,
    pollers: [PollerId; 2],
}

impl Real {
    fn schedule(self: &Rc<Self>, sim: &Sim, k: usize) {
        let node = &self.prog.nodes[k];
        let delay = SimDuration::from_ns(node.delay);
        let id = match node.poller {
            Some(p) => sim.schedule_poll_in(delay, self.pollers[p]),
            None => {
                let me = self.clone();
                sim.schedule_in(delay, move |s| me.fire(s, k))
            }
        };
        self.ids.borrow_mut()[k] = Some(id);
    }

    fn fire(self: &Rc<Self>, sim: &Sim, k: usize) {
        self.log
            .borrow_mut()
            .push(Entry::Fired(sim.now().as_ns(), k));
        let node = &self.prog.nodes[k];
        for &kid in &node.kids {
            self.schedule(sim, kid);
        }
        if let Some(target) = node.cancel {
            self.cancel(sim, target);
        }
    }

    fn cancel(&self, sim: &Sim, target: usize) {
        let id = self.ids.borrow_mut()[target];
        if let Some(id) = id {
            let hit = sim.cancel(id);
            self.log.borrow_mut().push(Entry::Cancelled(target, hit));
        }
    }

    fn ran(&self, sim: &Sim, outcome: RunOutcome) {
        self.log.borrow_mut().push(Entry::Ran(
            outcome,
            sim.now().as_ns(),
            sim.events_dispatched(),
        ));
    }
}

fn run_real(prog: Program) -> Vec<Entry> {
    let sim = Sim::new(1);
    let log = Rc::new(RefCell::new(Vec::new()));
    let pollers = [0, 1].map(|p| {
        let log = log.clone();
        sim.register_poller(move |s| {
            log.borrow_mut()
                .push(Entry::Fired(s.now().as_ns(), POLL_TAG + p));
        })
    });
    let sigs = [Signal::new(&sim), Signal::new(&sim)];
    let real = Rc::new(Real {
        ids: RefCell::new(vec![None; prog.nodes.len()]),
        prog,
        log,
        pollers,
    });
    let spawn = |a: usize| {
        let (real, sigs) = (real.clone(), sigs.clone());
        sim.spawn(ACTOR_NAMES[a], move |ctx| {
            for &step in &real.prog.scripts[a] {
                match step {
                    Step::Sleep(d) => ctx.sleep(SimDuration::from_ns(d)),
                    Step::Yield => ctx.yield_now(),
                    Step::Wait => sigs[a].wait(ctx),
                    Step::Notify => sigs[1 - a].notify(),
                    Step::Cancel(k) => real.cancel(ctx.sim(), k),
                    Step::Schedule(k) => real.schedule(ctx.sim(), k),
                }
                if matches!(step, Step::Sleep(_) | Step::Yield | Step::Wait) {
                    let now = ctx.now().as_ns();
                    real.log.borrow_mut().push(Entry::Fired(now, ACTOR_TAG + a));
                }
            }
        });
    };
    spawn(0);
    for &k in &real.prog.roots {
        real.schedule(&sim, k);
    }
    spawn(1);
    if let Some(t) = real.prog.split {
        let out = sim.run_until(SimTime::from_ns(t));
        real.ran(&sim, out);
    }
    loop {
        let out = sim.run();
        real.ran(&sim, out.clone());
        if out == RunOutcome::Completed {
            break;
        }
        sigs.iter().for_each(Signal::notify);
    }
    assert_eq!(sim.pending_events(), 0);
    let log = real.log.borrow().clone();
    log
}

#[derive(Clone, Copy, PartialEq)]
enum Ev {
    Node(usize),
    Wake(usize),
}

/// The reference: pending events in a `Vec`, dispatched by stable sort on
/// time, so ties fall back to insertion order.
struct Model<'a> {
    prog: &'a Program,
    now: u64,
    inserted: usize,
    dispatched: u64,
    /// `(time, insertion index, event)`, live events only.
    pending: Vec<(u64, usize, Ev)>,
    /// Insertion index of the latest scheduling of each node.
    ids: Vec<Option<usize>>,
    /// Next script step per actor; `waiting` actors sit in `Step::Wait`.
    pos: [usize; 2],
    started: [bool; 2],
    waiting: [bool; 2],
    log: Vec<Entry>,
}

impl Model<'_> {
    fn push(&mut self, delay: u64, ev: Ev) -> usize {
        self.inserted += 1;
        self.pending.push((self.now + delay, self.inserted, ev));
        self.inserted
    }

    fn schedule(&mut self, k: usize) {
        let id = self.push(self.prog.nodes[k].delay, Ev::Node(k));
        self.ids[k] = Some(id);
    }

    fn cancel(&mut self, target: usize) {
        if let Some(id) = self.ids[target] {
            let live = self.pending.iter().position(|e| e.1 == id);
            if let Some(i) = live {
                self.pending.remove(i);
            }
            self.log.push(Entry::Cancelled(target, live.is_some()));
        }
    }

    fn notify(&mut self, a: usize) {
        if std::mem::take(&mut self.waiting[a]) {
            self.push(0, Ev::Wake(a));
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Node(k) => {
                let prog = self.prog;
                let node = &prog.nodes[k];
                let tag = node.poller.map_or(k, |p| POLL_TAG + p);
                self.log.push(Entry::Fired(self.now, tag));
                for &kid in &node.kids {
                    self.schedule(kid);
                }
                if let Some(target) = node.cancel {
                    self.cancel(target);
                }
            }
            Ev::Wake(a) => {
                if std::mem::replace(&mut self.started[a], true) {
                    self.log.push(Entry::Fired(self.now, ACTOR_TAG + a));
                }
                while let Some(&step) = self.prog.scripts[a].get(self.pos[a]) {
                    self.pos[a] += 1;
                    match step {
                        Step::Sleep(d) => {
                            self.push(d, Ev::Wake(a));
                            return;
                        }
                        Step::Yield => {
                            self.push(0, Ev::Wake(a));
                            return;
                        }
                        Step::Wait => {
                            self.waiting[a] = true;
                            return;
                        }
                        Step::Notify => self.notify(1 - a),
                        Step::Cancel(k) => self.cancel(k),
                        Step::Schedule(k) => self.schedule(k),
                    }
                }
            }
        }
    }

    fn run(&mut self, limit: u64) {
        let outcome = loop {
            self.pending.sort_by_key(|e| e.0); // stable: ties keep insertion order
            match self.pending.first() {
                Some(&(t, _, ev)) if t <= limit => {
                    self.pending.remove(0);
                    self.now = t;
                    self.dispatched += 1;
                    self.dispatch(ev);
                }
                Some(_) => {
                    self.now = limit;
                    break RunOutcome::Pending;
                }
                None if self.waiting == [false; 2] => break RunOutcome::Completed,
                None => {
                    let stuck = (0..2).filter(|&a| self.waiting[a]);
                    break RunOutcome::Deadlock(stuck.map(|a| ACTOR_NAMES[a].into()).collect());
                }
            }
        };
        self.log
            .push(Entry::Ran(outcome, self.now, self.dispatched));
    }
}

fn run_model(prog: &Program) -> Vec<Entry> {
    let mut m = Model {
        prog,
        now: 0,
        inserted: 0,
        dispatched: 0,
        pending: Vec::new(),
        ids: vec![None; prog.nodes.len()],
        pos: [0; 2],
        started: [false; 2],
        waiting: [false; 2],
        log: Vec::new(),
    };
    m.push(0, Ev::Wake(0));
    for &k in &prog.roots {
        m.schedule(k);
    }
    m.push(0, Ev::Wake(1));
    if let Some(t) = prog.split {
        m.run(t);
    }
    loop {
        m.run(u64::MAX);
        if matches!(m.log.last(), Some(Entry::Ran(RunOutcome::Completed, ..))) {
            return m.log;
        }
        m.notify(0);
        m.notify(1);
    }
}

proptest! {
    #[test]
    fn engine_dispatch_order_matches_sorted_vec_model(
        nodes in prop::collection::vec(
            (0usize..DELAYS.len(), any::<u16>(), any::<u16>(), 0u8..6),
            1..40
        ),
        script0 in prop::collection::vec((0u8..7, any::<u16>()), 0..12),
        script1 in prop::collection::vec((0u8..7, any::<u16>()), 0..12),
        split in 0u64..25,
    ) {
        let expect = run_model(&build_program(&nodes, [&script0, &script1], split));
        let got = run_real(build_program(&nodes, [&script0, &script1], split));
        prop_assert_eq!(got, expect);
    }
}

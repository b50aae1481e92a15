//! The collective plan interpreter: walks each posted [`CollSetup`]
//! schedule entirely NIC-side. A run is a small state machine
//! ([`CollRun::advance`], no simulator in it) that the `McpInner` half of
//! this file drives: it turns the machine's verdicts into wire sends, local
//! copy ticks, per-step interpreter delays and the completion DMA.
//!
//! Contributions ride the point-to-point reliable path as
//! [`JobKind::Coll`] fragments; recovery from loss is go-back-N's.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use suca_myrinet::FabricNodeId;
use suca_sim::mtrace::{stage, TraceId, TraceLayer};

use super::{JobKind, McpInner, McpState, RxDesc, SendJob};
use crate::coll::CollSetup;
use crate::port::{ChannelId, PortId, ProcAddr, SendStatus};
use crate::sg::read_sg;

/// Early-arrival buffer for collective contributions whose local descriptor
/// has not been posted yet. Overflow is a counted drop with a flight-record
/// dump — a wedged collective must leave evidence, never a stuck node.
const COLL_EARLY_CAP: usize = 4096;

/// A run is keyed `(initiating port, collective id)`.
type RunKey = (u16, u32);

/// The plan edge a contribution travels: `(src node, src port, chunk)`.
type Edge = (u32, u16, u32);

/// One contribution: a wire arrival or a co-located participant's copy.
type CollArrival = (Edge, Vec<u8>);

/// Where a run is within its current step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// The contribution's staging DMA is in flight; arrivals queue up.
    Staging,
    /// At the top of step `step`: its entry sends have not fired.
    Enter,
    /// Entry sends fired; waiting for one arrival per `recv_from` edge.
    Gather,
    /// Past the last step; waiting for the last wire send to be injected,
    /// so the initiator can never observe done-before-inject.
    Drain,
}

/// What [`CollRun::advance`] wants done next.
#[derive(PartialEq, Eq, Debug)]
enum Next {
    /// Nothing: waiting on staging, on arrivals, or on injections.
    Parked,
    /// Step entered: send `data` to each of `to`, then advance again.
    Send {
        to: Vec<ProcAddr>,
        chunk: u32,
        data: Vec<u8>,
    },
    /// The step's arrivals were combined: charge the interpreter's work
    /// for `combines` of them, then advance again.
    Folded { combines: u64 },
    /// A contribution's length disagrees with the accumulator.
    Mismatch,
    /// Schedule finished and every wire send injected.
    Complete,
}

/// One in-flight collective. Lives entirely in NIC SRAM — a chaos wipe
/// discards it like any other firmware state, rejecting the initiator's
/// completion so no chain wedges.
struct CollRun {
    setup: CollSetup,
    /// Accumulator; seeded from the pinned payload by the staging DMA.
    acc: Vec<u8>,
    phase: Phase,
    /// Current step index into `setup.steps`.
    step: usize,
    /// Wire sends queued but not yet fully injected.
    outstanding_sends: u32,
    /// Arrived contributions per edge, FIFO.
    inbox: HashMap<Edge, VecDeque<Vec<u8>>>,
}

impl CollRun {
    fn new(setup: CollSetup) -> Self {
        CollRun {
            setup,
            acc: Vec::new(),
            phase: Phase::Staging,
            step: 0,
            outstanding_sends: 0,
            inbox: HashMap::new(),
        }
    }

    fn accept(&mut self, (edge, data): CollArrival) {
        self.inbox.entry(edge).or_default().push_back(data);
    }

    /// The staging DMA delivered the local contribution.
    fn staged(&mut self, acc: Vec<u8>) {
        self.acc = acc;
        self.enter_step(0);
    }

    fn enter_step(&mut self, step: usize) {
        self.step = step;
        self.phase = if step < self.setup.steps.len() {
            Phase::Enter
        } else {
            Phase::Drain
        };
    }

    /// Run the machine one transition. `local_node` tells wire sends
    /// (counted in `outstanding_sends`) from co-located copies.
    fn advance(&mut self, local_node: u32) -> Next {
        match self.phase {
            Phase::Staging => Next::Parked,
            Phase::Drain if self.outstanding_sends > 0 => Next::Parked,
            Phase::Drain => Next::Complete,
            Phase::Enter => {
                // Fire this step's sends exactly once.
                let step = &self.setup.steps[self.step];
                let wire = step.send_to.iter().filter(|d| d.node.0 != local_node);
                self.outstanding_sends += wire.count() as u32;
                self.phase = Phase::Gather;
                Next::Send {
                    to: step.send_to.clone(),
                    chunk: step.chunk,
                    data: self.acc.clone(),
                }
            }
            Phase::Gather => self.gather(),
        }
    }

    /// Step exit: once one arrival per `recv_from` entry is present on its
    /// `(peer, chunk)` edge, consume them, folding (or adopting) in listed
    /// order.
    fn gather(&mut self) -> Next {
        let step = &self.setup.steps[self.step];
        let edge = |p: &ProcAddr| (p.node.0, p.port.0, step.chunk);
        let mut need: HashMap<Edge, usize> = HashMap::new();
        for p in &step.recv_from {
            *need.entry(edge(p)).or_default() += 1;
        }
        let have = |e| self.inbox.get(e).map_or(0, |q| q.len());
        if !need.iter().all(|(e, k)| have(e) >= *k) {
            return Next::Parked;
        }
        for p in &step.recv_from {
            let Some(v) = self.inbox.get_mut(&edge(p)).and_then(|q| q.pop_front()) else {
                return Next::Mismatch;
            };
            if step.adopt {
                self.acc = v;
            } else if !self.setup.op.fold_bytes(&mut self.acc, &v) {
                return Next::Mismatch;
            }
        }
        self.inbox.retain(|_, q| !q.is_empty());
        let combines = step.recv_from.len() as u64;
        self.enter_step(self.step + 1);
        Next::Folded { combines }
    }
}

/// Interpreter SRAM state.
#[derive(Default)]
pub(super) struct Interp {
    runs: HashMap<RunKey, CollRun>,
    /// Contributions that arrived before the local descriptor (the peer's
    /// schedule outran ours); merged into the run at post time. Bounded by
    /// [`COLL_EARLY_CAP`] across all keys.
    early: HashMap<RunKey, Vec<CollArrival>>,
    early_total: usize,
}

impl Interp {
    /// Register a posted descriptor's run, claiming its early arrivals.
    /// `false` (and nothing registered) when the id is already in flight.
    fn post(&mut self, setup: CollSetup) -> bool {
        let key = (setup.port.0, setup.coll_id);
        if self.runs.contains_key(&key) {
            return false;
        }
        let mut run = CollRun::new(setup);
        for a in self.early.remove(&key).unwrap_or_default() {
            self.early_total -= 1;
            run.accept(a);
        }
        self.runs.insert(key, run);
        true
    }

    /// Route one contribution to its run, or park it until the run exists.
    /// `false`: no run yet and the early-arrival buffer is full.
    fn deliver(&mut self, key: RunKey, a: CollArrival) -> bool {
        if let Some(run) = self.runs.get_mut(&key) {
            run.accept(a);
        } else if self.early_total >= COLL_EARLY_CAP {
            return false;
        } else {
            self.early_total += 1;
            self.early.entry(key).or_default().push(a);
        }
        true
    }

    /// NIC reset: every run lived in the wiped SRAM. Returns each
    /// initiator's `(port, msg id)` in key order.
    pub(super) fn wipe(&mut self) -> Vec<(PortId, u32)> {
        let mut dead: Vec<_> = std::mem::take(self).runs.into_iter().collect();
        dead.sort_unstable_by_key(|&(key, _)| key);
        let owner = |(_, run): (RunKey, CollRun)| (run.setup.port, run.setup.msg_id);
        dead.into_iter().map(owner).collect()
    }
}

impl McpInner {
    /// Kernel module posted a collective descriptor. Registers the run,
    /// merges contributions that beat the descriptor to the NIC, then
    /// fetches the pinned contribution by DMA and starts the schedule.
    pub(super) fn post_collective(self: &Rc<Self>, setup: CollSetup) {
        let (port, msg_id) = (setup.port, setup.msg_id);
        let key = (port.0, setup.coll_id);
        let trace = self.local_trace(msg_id);
        let t0 = self.sim.now();
        let segs = setup.payload.clone();
        let len = setup.payload_len;
        {
            let mut st = self.state.borrow_mut();
            if !st.ports.contains_key(&port.0) {
                self.protocol_error(trace, "collective descriptor on unregistered port");
                return;
            }
            if !st.interp.post(setup) {
                // A duplicate id would cross-wire two collectives'
                // arrivals; refuse the newcomer, reject its initiator.
                self.post_local_event(&st, port, msg_id, SendStatus::Rejected);
                self.protocol_error(trace, "duplicate collective id on port");
                return;
            }
        }
        // Fetch the contribution into the SRAM accumulator; the COLL_POST
        // span covers descriptor post through staging DMA.
        let me = self.clone();
        self.host_dma.submit(len, move |_| {
            let data = if len == 0 {
                Vec::new()
            } else {
                read_sg(me.os.memory(), &segs, 0, len).expect("collective payload DMA faulted")
            };
            let at = t0..me.sim.now();
            me.mt_span(trace, TraceLayer::Mcp, stage::COLL_POST, at, 0, len);
            let mut st = me.state.borrow_mut();
            let Some(run) = st.interp.runs.get_mut(&key) else {
                return; // wiped meanwhile; the initiator was already rejected
            };
            run.staged(data);
            me.coll_advance(&mut st, key);
        });
    }

    /// Run one collective's interpreter until it parks — waiting on
    /// arrivals, on the per-step interpreter delay, or on outstanding wire
    /// sends — or completes. State borrowed.
    fn coll_advance(self: &Rc<Self>, st: &mut McpState, key: RunKey) {
        loop {
            let Some(run) = st.interp.runs.get_mut(&key) else {
                return;
            };
            let msg_id = run.setup.msg_id;
            match run.advance(self.os.node_id.0) {
                Next::Parked => return,
                Next::Send { to, chunk, data } => self.coll_send(st, key, msg_id, to, chunk, data),
                Next::Folded { combines } => {
                    // One interpreter tick for a pure-send step, one per
                    // combine otherwise; then continue.
                    let me = self.clone();
                    let d = self.cfg.mcp.coll_step * combines.max(1);
                    self.sim.schedule_in(d, move |_| {
                        let mut st = me.state.borrow_mut();
                        me.coll_advance(&mut st, key);
                    });
                    return;
                }
                Next::Mismatch => {
                    // Readiness was checked and plans are validated before a
                    // descriptor reaches the NIC, so a mismatch here is
                    // corrupted firmware state: evidence plus a rejected
                    // initiator, never a panic.
                    st.interp.runs.remove(&key);
                    self.post_local_event(st, PortId(key.0), msg_id, SendStatus::Rejected);
                    let trace = self.local_trace(msg_id);
                    self.protocol_error(trace, "collective fold length mismatch");
                    return;
                }
                Next::Complete => {
                    if let Some(run) = st.interp.runs.remove(&key) {
                        self.coll_complete(st, run);
                    }
                    return;
                }
            }
        }
    }

    /// Fire one step's entry sends for run `key`, in `to` order.
    fn coll_send(
        self: &Rc<Self>,
        st: &mut McpState,
        key: RunKey,
        msg_id: u32,
        to: Vec<ProcAddr>,
        chunk: u32,
        data: Vec<u8>,
    ) {
        let (src_port, coll_id) = (PortId(key.0), key.1);
        let mut queued = false;
        for dst in to {
            if dst.node.0 == self.os.node_id.0 {
                // Co-located participant on this same NIC: a local copy
                // step — one interpreter tick, no wire, no go-back-N.
                let me = self.clone();
                let arrival = ((self.os.node_id.0, src_port.0, chunk), data.clone());
                self.sim.schedule_in(self.cfg.mcp.coll_step, move |_| {
                    let mut st = me.state.borrow_mut();
                    me.mt_instant(me.local_trace(msg_id), stage::COLL_COMBINE);
                    me.coll_deliver(&mut st, (dst.port.0, coll_id), arrival);
                });
                continue;
            }
            st.send.queue.push_back(SendJob {
                src_port,
                dst_fid: FabricNodeId(dst.node.0),
                dst_port: dst.port,
                channel: ChannelId::SYSTEM,
                msg_id,
                segments: Default::default(),
                total_len: 4 + data.len() as u64,
                kind: JobKind::Coll {
                    coll_id,
                    chunk,
                    data: data.clone(),
                },
                retries: 0,
                notify_sender: false,
            });
            queued = true;
        }
        if queued {
            self.kick_sender_deferred();
        }
    }

    /// The send engine finished injecting one of a run's wire sends; the
    /// run may now be eligible to complete. State borrowed.
    pub(super) fn coll_send_injected(self: &Rc<Self>, st: &mut McpState, key: RunKey) {
        if let Some(run) = st.interp.runs.get_mut(&key) {
            run.outstanding_sends = run.outstanding_sends.saturating_sub(1);
            self.coll_advance(st, key);
        }
    }

    /// One contribution (wire arrival or local copy) for `key`. State borrowed.
    fn coll_deliver(self: &Rc<Self>, st: &mut McpState, key: RunKey, arrival: CollArrival) {
        if st.interp.deliver(key, arrival) {
            self.coll_advance(st, key); // no-op while the run does not exist
        } else {
            self.sim.add_count("mcp.coll_early_drops", 1);
            self.protocol_error(TraceId::NONE, "collective early-arrival buffer overflow");
        }
    }

    /// An accepted `WireKind::Coll` packet: strip the 4-byte collective id
    /// sub-header and hand the contribution to the interpreter. State borrowed.
    pub(super) fn coll_rx(self: &Rc<Self>, st: &mut McpState, d: RxDesc) {
        let (src, header) = (d.src, d.header);
        let trace = self.header_trace(src, &header);
        let Some((id, data)) = d.payload().split_first_chunk::<4>() else {
            self.protocol_error(trace, "collective packet shorter than its id");
            return;
        };
        // The combine is attributed to the *sender's* chain: its message
        // ends by merging into this NIC's accumulator, not at a host.
        self.mt_instant(trace, stage::COLL_COMBINE);
        let arrival = ((src.0, header.src_port.0, header.offset), data.to_vec());
        let key = (header.dst_port.0, u32::from_le_bytes(*id));
        self.coll_deliver(st, key, arrival);
    }

    /// Schedule finished and every wire send injected: DMA the accumulator
    /// into the pinned result buffer, then the completion event the
    /// initiator is polling. State borrowed.
    fn coll_complete(self: &Rc<Self>, st: &mut McpState, run: CollRun) {
        let (port, msg_id) = (run.setup.port, run.setup.msg_id);
        let trace = self.local_trace(msg_id);
        if run.acc.len() as u64 != run.setup.result_len {
            self.protocol_error(trace, "collective result length mismatch");
            self.post_local_event(st, port, msg_id, SendStatus::Rejected);
            return;
        }
        self.mt_instant(trace, stage::COLL_DONE);
        if run.setup.result_len == 0 {
            self.post_local_event(st, port, msg_id, SendStatus::Ok);
            return;
        }
        // Both staging buffers ride the result DMA: busy until the event.
        let payload = run.setup.payload;
        self.dma_payload(trace, run.setup.result, run.acc, 0, 0, move |me| {
            let st = me.state.borrow();
            me.post_local_event(&st, port, msg_id, SendStatus::Ok);
            drop(payload);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::{CollOp, CollStep};
    use suca_os::NodeId;

    const KEY: RunKey = (1, 77);

    fn addr(node: u32) -> ProcAddr {
        ProcAddr {
            node: NodeId(node),
            port: PortId(1),
        }
    }

    fn lanes(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn from(node: u32, data: Vec<u8>) -> CollArrival {
        ((node, 1, 0), data)
    }

    /// Rank 0 of a 3-rank allreduce: fan in from ranks 1 and 2 (on nodes 1
    /// and 2), then fan the sum back out to both.
    fn root_setup() -> CollSetup {
        let step = |recv_from, send_to| CollStep {
            recv_from,
            send_to,
            adopt: false,
            chunk: 0,
        };
        CollSetup {
            port: PortId(KEY.0),
            coll_id: KEY.1,
            op: CollOp::Sum,
            steps: vec![
                step(vec![addr(1), addr(2)], vec![]),
                step(vec![], vec![addr(1), addr(2)]),
            ],
            payload: Default::default(),
            payload_len: 8,
            result: Default::default(),
            result_len: 8,
            msg_id: 5,
        }
    }

    #[test]
    fn early_contributions_are_merged_at_post() {
        let mut interp = Interp::default();
        assert!(interp.deliver(KEY, from(1, lanes(&[2.0]))));
        assert!(interp.deliver((9, 9), from(1, Vec::new())));
        assert_eq!(interp.early_total, 2);
        assert!(interp.post(root_setup()));
        assert_eq!(
            interp.early_total, 1,
            "only this run's arrivals are claimed"
        );
        assert!(
            !interp.post(root_setup()),
            "duplicate id in flight is refused"
        );
        assert!(interp.deliver(KEY, from(2, lanes(&[4.0]))));
        assert_eq!(interp.early_total, 1, "a live run takes arrivals directly");
        let run = interp.runs.get_mut(&KEY).expect("registered");
        assert_eq!(
            run.advance(0),
            Next::Parked,
            "arrivals wait for the staging DMA"
        );
        run.staged(lanes(&[1.0]));
        assert!(matches!(run.advance(0), Next::Send { to, .. } if to.is_empty()));
        assert_eq!(run.advance(0), Next::Folded { combines: 2 });
        assert_eq!(run.acc, lanes(&[7.0]));
        // Wiping rejects every initiator and forgets the early buffer.
        assert_eq!(interp.wipe(), vec![(PortId(KEY.0), 5)]);
        assert_eq!((interp.runs.len(), interp.early_total), (0, 0));
    }

    #[test]
    fn early_buffer_overflow_is_reported_not_grown() {
        let mut interp = Interp::default();
        for _ in 0..COLL_EARLY_CAP {
            assert!(interp.deliver(KEY, from(1, Vec::new())));
        }
        assert!(!interp.deliver(KEY, from(1, Vec::new())));
        assert_eq!(interp.early_total, COLL_EARLY_CAP);
    }

    #[test]
    fn step_needs_one_arrival_per_edge_and_completion_waits_for_injection() {
        let mut run = CollRun::new(root_setup());
        run.staged(lanes(&[1.0]));
        assert!(matches!(run.advance(0), Next::Send { .. }));
        assert_eq!(run.advance(0), Next::Parked);
        // Two arrivals on the *same* edge do not stand in for the other.
        run.accept(from(1, lanes(&[2.0])));
        run.accept(from(1, lanes(&[100.0])));
        assert_eq!(run.advance(0), Next::Parked);
        run.accept(from(2, lanes(&[4.0])));
        assert_eq!(run.advance(0), Next::Folded { combines: 2 });
        assert_eq!(run.acc, lanes(&[7.0]));
        assert_eq!(
            run.inbox.len(),
            1,
            "the surplus arrival stays queued on its edge"
        );
        // Fan-out: both destinations are remote, so both sends must leave
        // the NIC before the run may complete.
        let fan_out = Next::Send {
            to: vec![addr(1), addr(2)],
            chunk: 0,
            data: lanes(&[7.0]),
        };
        assert_eq!(run.advance(0), fan_out);
        assert_eq!(run.outstanding_sends, 2);
        assert_eq!(
            run.advance(0),
            Next::Folded { combines: 0 },
            "pure-send step"
        );
        assert_eq!(run.phase, Phase::Drain);
        assert_eq!(run.advance(0), Next::Parked);
        run.outstanding_sends -= 1;
        assert_eq!(run.advance(0), Next::Parked);
        run.outstanding_sends -= 1;
        assert_eq!(run.advance(0), Next::Complete);
    }

    #[test]
    fn co_located_destinations_are_not_wire_sends() {
        let mut run = CollRun::new(root_setup());
        run.staged(lanes(&[1.0]));
        run.enter_step(1);
        // Seen from node 1, rank 1 is a local copy; only rank 2 is a wire send.
        assert!(matches!(run.advance(1), Next::Send { to, .. } if to.len() == 2));
        assert_eq!(run.outstanding_sends, 1);
    }

    #[test]
    fn fold_length_mismatch_is_a_verdict_not_a_panic() {
        let mut run = CollRun::new(root_setup());
        run.staged(lanes(&[1.0]));
        assert!(matches!(run.advance(0), Next::Send { .. }));
        run.accept(from(1, lanes(&[2.0, 3.0])));
        run.accept(from(2, lanes(&[4.0])));
        assert_eq!(run.advance(0), Next::Mismatch);
    }
}

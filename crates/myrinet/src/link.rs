//! Point-to-point Myrinet links.
//!
//! Each link is full-duplex; we model one [`Link`] per direction. A link
//! serializes packets (1.28 Gb/s ≙ 160 MB/s per direction on DAWNING-3000),
//! adds a propagation delay, and applies stochastic fault injection with a
//! per-link deterministic RNG stream.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use suca_sim::mtrace::stage as trace_stage;
use suca_sim::{Counter, Sim, SimDuration, SimRng, SimTime};

use crate::fabric::{FaultPlan, Packet};

/// Anything that can accept a packet coming off a link (a switch or a NIC).
pub trait PacketSink {
    /// Handle an arriving packet at the current simulation instant.
    fn deliver(&self, sim: &Sim, pkt: Packet);
}

struct LinkState {
    busy_until: SimTime,
    rng: SimRng,
    sent: u64,
    sent_bytes: u64,
    dropped: u64,
    corrupted: u64,
}

/// One unidirectional link.
pub struct Link {
    label: String,
    bytes_per_sec: u64,
    propagation: SimDuration,
    fault: FaultPlan,
    dst: Rc<dyn PacketSink>,
    /// Chaos state: a downed link consumes packets without delivering
    /// (counted). Flipped by the chaos controller via [`Link::set_up`].
    up: Cell<bool>,
    state: RefCell<LinkState>,
    // Typed metric handles, registered once at link creation; shared cells
    // across all links ("fabric.*" / "link.*" are fabric-wide totals).
    drops: Counter,
    corruptions: Counter,
    tx_bytes: Counter,
    down_drops: Counter,
}

impl Link {
    /// Create a link delivering into `dst`.
    pub fn new(
        sim: &Sim,
        label: impl Into<String>,
        bytes_per_sec: u64,
        propagation: SimDuration,
        fault: FaultPlan,
        dst: Rc<dyn PacketSink>,
    ) -> Rc<Link> {
        assert!(bytes_per_sec > 0);
        let label = label.into();
        let rng = sim.fork_rng(&format!("link:{label}"));
        let metrics = sim.metrics();
        let link = Rc::new(Link {
            label,
            bytes_per_sec,
            propagation,
            fault,
            dst,
            up: Cell::new(true),
            drops: metrics.counter("fabric.dropped"),
            corruptions: metrics.counter("fabric.corrupted"),
            tx_bytes: metrics.counter("link.tx_bytes"),
            down_drops: metrics.counter("link.down_drops"),
            state: RefCell::new(LinkState {
                busy_until: SimTime::ZERO,
                rng,
                sent: 0,
                sent_bytes: 0,
                dropped: 0,
                corrupted: 0,
            }),
        });
        // Per-link telemetry probes. Bytes-in-flight is derived from the
        // serialization backlog (busy_until - now) at line rate; a switch
        // output port's queue depth is exactly its outgoing link's backlog in
        // this cut-through model, so these three probes also cover per-port
        // switch occupancy.
        let ts = sim.timeseries();
        let w = Rc::downgrade(&link);
        ts.register(
            format!("link.{}.backlog_bytes", link.label),
            suca_sim::FABRIC_NODE,
            None,
            move |now_ns| {
                w.upgrade().map_or(0, |l| {
                    let ahead = l
                        .state
                        .borrow_mut()
                        .busy_until
                        .as_ns()
                        .saturating_sub(now_ns);
                    ahead * l.bytes_per_sec / 1_000_000_000
                })
            },
        );
        let w = Rc::downgrade(&link);
        ts.register(
            format!("link.{}.tx_bytes", link.label),
            suca_sim::FABRIC_NODE,
            None,
            move |_| w.upgrade().map_or(0, |l| l.state.borrow().sent_bytes),
        );
        let w = Rc::downgrade(&link);
        ts.register(
            format!("link.{}.busy", link.label),
            suca_sim::FABRIC_NODE,
            None,
            move |now_ns| {
                w.upgrade().map_or(0, |l| {
                    u64::from(l.state.borrow().busy_until.as_ns() > now_ns)
                })
            },
        );
        link
    }

    /// Chaos hook: force the link up or down. A downed link blackholes
    /// every packet offered to it (counted `link.down_drops`, no delivery,
    /// no wire time — the transmitter sees a dead line, not a busy one).
    pub fn set_up(&self, up: bool) {
        self.up.set(up);
    }

    /// True unless the chaos controller downed this link.
    pub fn is_up(&self) -> bool {
        self.up.get()
    }

    /// Transmit a packet: seize the wire for `wire_len / bandwidth`, then
    /// deliver after propagation. Faults are decided here.
    pub fn send(self: &Rc<Self>, sim: &Sim, mut pkt: Packet) {
        if !self.is_up() {
            self.down_drops.inc();
            self.state.borrow_mut().dropped += 1;
            crate::switch::trace_wire_instant(sim, &pkt, trace_stage::DROP_LINK_DOWN);
            return;
        }
        let tx = SimDuration::for_bytes(pkt.wire_len(), self.bytes_per_sec);
        self.tx_bytes.add(pkt.wire_len());
        let arrival = {
            let mut st = self.state.borrow_mut();
            let start = st.busy_until.max(sim.now());
            st.busy_until = start + tx;
            st.sent += 1;
            st.sent_bytes += pkt.wire_len();
            if st.rng.chance(self.fault.drop_prob) {
                st.dropped += 1;
                self.drops.inc();
                crate::switch::trace_wire_instant(sim, &pkt, trace_stage::DROP_LINK);
                return; // the wire time is still consumed (damaged in flight)
            }
            if st.rng.chance(self.fault.corrupt_prob) {
                st.corrupted += 1;
                self.corruptions.inc();
                pkt.corrupted = true;
                crate::switch::trace_wire_instant(sim, &pkt, trace_stage::CORRUPT);
            }
            start + tx + self.propagation
        };
        let dst = Rc::clone(&self.dst);
        sim.schedule_at(arrival, move |s| dst.deliver(s, pkt));
    }

    /// `(sent, dropped, corrupted)` counts.
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.state.borrow();
        (st.sent, st.dropped, st.corrupted)
    }

    /// Link label (for debugging).
    pub fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricNodeId, Route};
    use suca_sim::RunOutcome;

    struct Recorder {
        arrivals: RefCell<Vec<(u64, bool)>>,
    }
    impl PacketSink for Recorder {
        fn deliver(&self, sim: &Sim, pkt: Packet) {
            self.arrivals
                .borrow_mut()
                .push((sim.now().as_ns(), pkt.corrupted));
        }
    }

    fn pkt(n: usize) -> Packet {
        Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(vec![0u8; n]),
            corrupted: false,
            route: Route::EMPTY,
            trace: None,
        }
    }

    #[test]
    fn transmission_and_propagation_timing() {
        let sim = Sim::new(1);
        let rec = Rc::new(Recorder {
            arrivals: RefCell::new(Vec::new()),
        });
        let link = Link::new(
            &sim,
            "t",
            160_000_000,
            SimDuration::from_ns(50),
            FaultPlan::NONE,
            rec.clone(),
        );
        link.send(&sim, pkt(1584)); // 1584+16 = 1600 B -> 10 us at 160 MB/s
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*rec.arrivals.borrow(), vec![(10_050, false)]);
    }

    #[test]
    fn wire_serializes_packets() {
        let sim = Sim::new(1);
        let rec = Rc::new(Recorder {
            arrivals: RefCell::new(Vec::new()),
        });
        let link = Link::new(
            &sim,
            "t",
            160_000_000,
            SimDuration::ZERO,
            FaultPlan::NONE,
            rec.clone(),
        );
        for _ in 0..3 {
            link.send(&sim, pkt(1584));
        }
        sim.run();
        let times: Vec<u64> = rec.arrivals.borrow().iter().map(|a| a.0).collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn downed_link_blackholes_then_revives() {
        let sim = Sim::new(1);
        let rec = Rc::new(Recorder {
            arrivals: RefCell::new(Vec::new()),
        });
        let link = Link::new(
            &sim,
            "t",
            160_000_000,
            SimDuration::ZERO,
            FaultPlan::NONE,
            rec.clone(),
        );
        link.set_up(false);
        assert!(!link.is_up());
        for _ in 0..3 {
            link.send(&sim, pkt(100));
        }
        sim.run();
        assert!(rec.arrivals.borrow().is_empty(), "down link must blackhole");
        assert_eq!(sim.get_count("link.down_drops"), 3);
        link.set_up(true);
        link.send(&sim, pkt(100));
        sim.run();
        assert_eq!(rec.arrivals.borrow().len(), 1, "revived link delivers");
    }

    #[test]
    fn drops_and_corruption_are_deterministic_per_seed() {
        let run = |seed| {
            let sim = Sim::new(seed);
            let rec = Rc::new(Recorder {
                arrivals: RefCell::new(Vec::new()),
            });
            let link = Link::new(
                &sim,
                "t",
                160_000_000,
                SimDuration::ZERO,
                FaultPlan {
                    drop_prob: 0.3,
                    corrupt_prob: 0.3,
                },
                rec.clone(),
            );
            for _ in 0..50 {
                link.send(&sim, pkt(100));
            }
            sim.run();
            let delivered = rec.arrivals.borrow().clone();
            let stats = link.stats();
            (delivered, stats)
        };
        let (d1, s1) = run(7);
        let (d2, s2) = run(7);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(s1.1 > 0, "expected some drops");
        assert!(s1.2 > 0, "expected some corruption");
        assert_eq!(d1.len() as u64, s1.0 - s1.1);
    }
}

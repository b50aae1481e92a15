//! Cut-through crossbar switches (M2M-OCT-SW8 model).
//!
//! A Myrinet switch reads the leading route byte of a packet, strips it, and
//! forwards the packet out of that port after a small cut-through latency.
//! Output-port contention is inherited from the output [`Link`]'s
//! serialization; the crossbar itself is non-blocking.

use std::cell::RefCell;
use std::rc::Rc;

use suca_sim::mtrace::{stage, TraceEvent, TraceId, TraceLayer};
use suca_sim::{Counter, Sim, SimDuration};

use crate::fabric::Packet;
use crate::link::{Link, PacketSink};

/// Record a wire-layer instant for a packet carrying trace identity. The
/// event lands on the *origin* node's ring so a message's whole journey
/// stays together even when it crosses many switches.
pub fn trace_wire_instant(sim: &Sim, pkt: &Packet, stage_name: &'static str) {
    let Some(t) = pkt.trace else { return };
    sim.trace_event(
        TraceEvent::instant(
            TraceId::new(t.origin, t.msg_id),
            t.origin,
            TraceLayer::Wire,
            stage_name,
            sim.now().as_ns(),
        )
        .with_seq(t.seq)
        .with_bytes(pkt.wire_len()),
    );
}

/// One crossbar switch with up to `radix` output ports.
pub struct Switch {
    label: String,
    cut_through: SimDuration,
    out: RefCell<Vec<Option<Rc<Link>>>>,
    /// Chaos state: ports the controller has killed. Packets routed through
    /// a dead port are counted drops, never panics.
    dead: RefCell<Vec<bool>>,
    unwired_drops: Counter,
    route_exhausted_drops: Counter,
    dead_port_drops: Counter,
}

impl Switch {
    /// Create a switch with `radix` (initially unwired) ports.
    pub fn new(
        sim: &Sim,
        label: impl Into<String>,
        radix: usize,
        cut_through: SimDuration,
    ) -> Rc<Switch> {
        let metrics = sim.metrics();
        Rc::new(Switch {
            label: label.into(),
            cut_through,
            out: RefCell::new(vec![None; radix]),
            dead: RefCell::new(vec![false; radix]),
            unwired_drops: metrics.counter("switch.unwired_drop"),
            route_exhausted_drops: metrics.counter("switch.route_exhausted_drop"),
            dead_port_drops: metrics.counter("switch.dead_port_drop"),
        })
    }

    /// Wire output port `port` to `link`. Panics on double-wiring: topology
    /// construction bugs should fail loudly.
    pub fn connect(&self, port: usize, link: Rc<Link>) {
        let mut out = self.out.borrow_mut();
        assert!(
            out[port].is_none(),
            "switch {} port {port} wired twice",
            self.label
        );
        out[port] = Some(link);
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.out.borrow().len()
    }

    /// Chaos hook: kill or revive an output port. Out-of-range ports return
    /// `false` (a chaos plan naming a bad port must not panic the sim).
    pub fn set_port_dead(&self, port: usize, dead: bool) -> bool {
        let mut d = self.dead.borrow_mut();
        match d.get_mut(port) {
            Some(slot) => {
                *slot = dead;
                true
            }
            None => false,
        }
    }
}

impl PacketSink for Switch {
    fn deliver(&self, sim: &Sim, mut pkt: Packet) {
        // Malformed routes can reach a switch from fault injection (a
        // corrupted route byte) — they must never panic the sim thread.
        // The packet is counted and dropped; end-to-end reliability
        // (go-back-N in the MCP) recovers it like any other loss.
        let Some(port) = pkt.route.next_hop() else {
            self.route_exhausted_drops.inc();
            trace_wire_instant(sim, &pkt, stage::DROP_ROUTE);
            return;
        };
        let port = port as usize;
        if self.dead.borrow_mut().get(port).copied().unwrap_or(false) {
            self.dead_port_drops.inc();
            trace_wire_instant(sim, &pkt, stage::DROP_DEAD_PORT);
            return;
        }
        let link = {
            let out = self.out.borrow();
            match out.get(port).and_then(|l| l.as_ref()) {
                Some(link) => link.clone(),
                None => {
                    self.unwired_drops.inc();
                    trace_wire_instant(sim, &pkt, stage::DROP_ROUTE);
                    return;
                }
            }
        };
        trace_wire_instant(sim, &pkt, stage::HOP);
        let cut = self.cut_through;
        sim.schedule_in(cut, move |s| link.send(s, pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricNodeId, FaultPlan, Route};

    struct Recorder(RefCell<Vec<u64>>);
    impl PacketSink for Recorder {
        fn deliver(&self, sim: &Sim, _pkt: Packet) {
            self.0.borrow_mut().push(sim.now().as_ns());
        }
    }

    #[test]
    fn routes_through_ports_with_cut_through_latency() {
        let sim = Sim::new(1);
        let rec = Rc::new(Recorder(RefCell::new(Vec::new())));
        let sw = Switch::new(&sim, "sw0", 8, SimDuration::from_ns(300));
        let out = Link::new(
            &sim,
            "out",
            160_000_000,
            SimDuration::ZERO,
            FaultPlan::NONE,
            rec.clone(),
        );
        sw.connect(3, out);
        let pkt = Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(*b""), // 16 B framing -> 100 ns at 160 MB/s
            corrupted: false,
            route: Route::direct(3),
            trace: None,
        };
        sw.deliver(&sim, pkt);
        sim.run();
        assert_eq!(*rec.0.borrow(), vec![400]); // 300 cut-through + 100 wire
    }

    #[test]
    fn unwired_port_is_a_counted_drop() {
        let sim = Sim::new(1);
        let sw = Switch::new(&sim, "swx", 8, SimDuration::ZERO);
        let pkt = Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(*b""),
            corrupted: false,
            route: Route::direct(5),
            trace: None,
        };
        sw.deliver(&sim, pkt);
        sim.run();
        assert_eq!(sim.get_count("switch.unwired_drop"), 1);
    }

    #[test]
    fn out_of_radix_port_is_a_counted_drop() {
        // A corrupted route byte can name a port past the radix; that must
        // not panic either.
        let sim = Sim::new(1);
        let sw = Switch::new(&sim, "swx", 8, SimDuration::ZERO);
        let pkt = Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(*b""),
            corrupted: false,
            route: Route::direct(200),
            trace: None,
        };
        sw.deliver(&sim, pkt);
        sim.run();
        assert_eq!(sim.get_count("switch.unwired_drop"), 1);
    }

    #[test]
    fn dead_port_is_a_counted_drop_and_revivable() {
        let sim = Sim::new(1);
        let rec = Rc::new(Recorder(RefCell::new(Vec::new())));
        let sw = Switch::new(&sim, "swx", 8, SimDuration::ZERO);
        let out = Link::new(
            &sim,
            "out",
            160_000_000,
            SimDuration::ZERO,
            FaultPlan::NONE,
            rec.clone(),
        );
        sw.connect(3, out);
        assert!(sw.set_port_dead(3, true));
        assert!(
            !sw.set_port_dead(99, true),
            "out of range: refused, no panic"
        );
        let mk = || Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(*b""),
            corrupted: false,
            route: Route::direct(3),
            trace: None,
        };
        sw.deliver(&sim, mk());
        sim.run();
        assert_eq!(sim.get_count("switch.dead_port_drop"), 1);
        assert!(rec.0.borrow().is_empty());
        assert!(sw.set_port_dead(3, false));
        sw.deliver(&sim, mk());
        sim.run();
        assert_eq!(rec.0.borrow().len(), 1, "revived port forwards again");
    }

    #[test]
    fn exhausted_route_is_a_counted_drop() {
        let sim = Sim::new(1);
        let sw = Switch::new(&sim, "swx", 8, SimDuration::ZERO);
        let pkt = Packet {
            src: FabricNodeId(0),
            dst: FabricNodeId(1),
            payload: Rc::from(*b""),
            corrupted: false,
            route: Route::EMPTY,
            trace: None,
        };
        sw.deliver(&sim, pkt);
        sim.run();
        assert_eq!(sim.get_count("switch.route_exhausted_drop"), 1);
    }
}

//! Whole-network construction and source routing.
//!
//! DAWNING-3000 interconnects its 70 nodes with 8-port M2M-OCT-SW8 switches.
//! We build a linear array of switches: each switch hosts up to
//! `hosts_per_switch` NICs on its low ports and uses two high ports as left/
//! right neighbor trunks. Source routes are computed at injection time, as
//! Myrinet does: one route byte per switch hop.

use std::sync::Arc;

use parking_lot::Mutex;

use suca_sim::mtrace::stage as trace_stage;
use suca_sim::{Counter, Sim, SimDuration};

use crate::fabric::{Fabric, FabricNodeId, FaultPlan, Packet, PacketTrace, RxHandler};
use crate::link::{Link, PacketSink};
use crate::switch::Switch;

/// Tunables for a Myrinet build-out.
#[derive(Clone, Debug)]
pub struct MyrinetConfig {
    /// Per-direction link bandwidth. DAWNING-3000: 1.28 Gb/s ⇒ 160 MB/s.
    pub link_bytes_per_sec: u64,
    /// Cable propagation delay per link.
    pub propagation: SimDuration,
    /// Switch cut-through latency per hop.
    pub switch_cut_through: SimDuration,
    /// Hosts attached per switch (radix 8 minus two trunk ports).
    pub hosts_per_switch: usize,
    /// Largest packet payload; protocols fragment above this.
    pub mtu: usize,
    /// Link-level fault injection.
    pub fault: FaultPlan,
}

impl MyrinetConfig {
    /// DAWNING-3000 calibration. The 160 MB/s link rate is the paper's
    /// "peak performance of Myrinet switch is around 160 MB/s".
    pub fn dawning3000() -> Self {
        MyrinetConfig {
            link_bytes_per_sec: 160_000_000,
            propagation: SimDuration::from_ns(50),
            switch_cut_through: SimDuration::from_ns(300),
            hosts_per_switch: 6,
            mtu: 4096,
            fault: FaultPlan::NONE,
        }
    }
}

/// NIC attachment endpoint: terminates a switch→host link and dispatches to
/// the protocol's registered handler.
struct NicEndpoint {
    node: FabricNodeId,
    handler: Mutex<Option<RxHandler>>,
    delivered: Counter,
}

impl PacketSink for NicEndpoint {
    fn deliver(&self, sim: &Sim, pkt: Packet) {
        // A packet can reach the wrong endpoint when chaos rewires the
        // fabric under it (or a corrupted route byte survives). Real NICs
        // sink such packets; panicking a sim thread is never acceptable.
        if pkt.dst != self.node {
            sim.add_count("fabric.misrouted", 1);
            crate::switch::trace_wire_instant(sim, &pkt, trace_stage::DROP_MISROUTE);
            return;
        }
        self.delivered.inc();
        let guard = self.handler.lock();
        match guard.as_ref() {
            Some(h) => h(sim, pkt),
            None => {
                // No protocol attached: hardware would sink the packet.
                sim.add_count("fabric.unclaimed", 1);
            }
        }
    }
}

/// A built Myrinet network.
pub struct Myrinet {
    cfg: MyrinetConfig,
    /// Host→switch uplinks, indexed by node.
    uplinks: Vec<Arc<Link>>,
    /// Switch→host downlinks, indexed by node (retained for chaos hooks:
    /// a node's "link down" kills both directions).
    downlinks: Vec<Arc<Link>>,
    /// The switch array, retained so chaos plans can kill ports.
    switches: Vec<Arc<Switch>>,
    endpoints: Vec<Arc<NicEndpoint>>,
    injected: Counter,
}

/// Trunk port indices on every switch.
const PORT_RIGHT: usize = 6;
const PORT_LEFT: usize = 7;

impl Myrinet {
    /// Build a network with `n_nodes` attachment points.
    pub fn build(sim: &Sim, n_nodes: u32, cfg: MyrinetConfig) -> Arc<Myrinet> {
        assert!(n_nodes > 0);
        assert!(cfg.hosts_per_switch >= 1 && cfg.hosts_per_switch <= PORT_RIGHT);
        let h = cfg.hosts_per_switch;
        let n_switches = (n_nodes as usize).div_ceil(h);

        let switches: Vec<Arc<Switch>> = (0..n_switches)
            .map(|i| Switch::new(sim, format!("sw{i}"), 8, cfg.switch_cut_through))
            .collect();

        // Trunks between neighboring switches, both directions.
        for i in 0..n_switches.saturating_sub(1) {
            let right = Link::new(
                sim,
                format!("sw{i}->sw{}", i + 1),
                cfg.link_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                switches[i + 1].clone() as Arc<dyn PacketSink>,
            );
            switches[i].connect(PORT_RIGHT, right);
            let left = Link::new(
                sim,
                format!("sw{}->sw{i}", i + 1),
                cfg.link_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                switches[i].clone() as Arc<dyn PacketSink>,
            );
            switches[i + 1].connect(PORT_LEFT, left);
        }

        // Host links, both directions.
        let metrics = sim.metrics();
        let delivered = metrics.counter("fabric.delivered");
        let mut uplinks = Vec::with_capacity(n_nodes as usize);
        let mut downlinks = Vec::with_capacity(n_nodes as usize);
        let mut endpoints = Vec::with_capacity(n_nodes as usize);
        for node in 0..n_nodes {
            let sw = node as usize / h;
            let port = node as usize % h;
            let ep = Arc::new(NicEndpoint {
                node: FabricNodeId(node),
                handler: Mutex::new(None),
                delivered: delivered.clone(),
            });
            let down = Link::new(
                sim,
                format!("sw{sw}->n{node}"),
                cfg.link_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                ep.clone() as Arc<dyn PacketSink>,
            );
            switches[sw].connect(port, down.clone());
            downlinks.push(down);
            let up = Link::new(
                sim,
                format!("n{node}->sw{sw}"),
                cfg.link_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                switches[sw].clone() as Arc<dyn PacketSink>,
            );
            uplinks.push(up);
            endpoints.push(ep);
        }

        Arc::new(Myrinet {
            cfg,
            uplinks,
            downlinks,
            switches,
            endpoints,
            injected: metrics.counter("fabric.injected"),
        })
    }

    /// Source route from `src` to `dst`: a port byte per switch visited.
    fn route(&self, src: FabricNodeId, dst: FabricNodeId) -> Vec<u8> {
        let h = self.cfg.hosts_per_switch;
        let src_sw = src.0 as usize / h;
        let dst_sw = dst.0 as usize / h;
        let mut route = Vec::with_capacity(src_sw.abs_diff(dst_sw) + 1);
        let mut cur = src_sw;
        while cur != dst_sw {
            if dst_sw > cur {
                route.push(PORT_RIGHT as u8);
                cur += 1;
            } else {
                route.push(PORT_LEFT as u8);
                cur -= 1;
            }
        }
        route.push((dst.0 as usize % h) as u8);
        route
    }

    /// Number of switch hops between two nodes (for latency assertions).
    pub fn hops(&self, src: FabricNodeId, dst: FabricNodeId) -> usize {
        self.route(src, dst).len()
    }
}

impl Fabric for Myrinet {
    fn name(&self) -> &'static str {
        "myrinet"
    }

    fn num_nodes(&self) -> u32 {
        self.endpoints.len() as u32
    }

    fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    fn link_bytes_per_sec(&self) -> u64 {
        self.cfg.link_bytes_per_sec
    }

    fn attach(&self, node: FabricNodeId, rx: RxHandler) {
        let ep = &self.endpoints[node.0 as usize];
        let mut guard = ep.handler.lock();
        assert!(guard.is_none(), "node {} attached twice", node.0);
        *guard = Some(rx);
    }

    fn inject(&self, sim: &Sim, src: FabricNodeId, dst: FabricNodeId, payload: bytes::Bytes) {
        self.inject_traced(sim, src, dst, payload, None);
    }

    fn inject_traced(
        &self,
        sim: &Sim,
        src: FabricNodeId,
        dst: FabricNodeId,
        payload: bytes::Bytes,
        trace: Option<PacketTrace>,
    ) {
        assert!(
            payload.len() <= self.cfg.mtu,
            "packet of {} B exceeds MTU {} — fragmentation is the protocol's job",
            payload.len(),
            self.cfg.mtu
        );
        self.injected.inc();
        let pkt = Packet {
            src,
            dst,
            payload,
            corrupted: false,
            route: self.route(src, dst),
            route_pos: 0,
            trace,
        };
        self.uplinks[src.0 as usize].send(sim, pkt);
    }

    fn set_node_link_up(&self, _sim: &Sim, node: FabricNodeId, up: bool) -> bool {
        let Some(uplink) = self.uplinks.get(node.0 as usize) else {
            return false;
        };
        // A host cable carries both directions: kill the uplink and the
        // switch-side downlink together.
        uplink.set_up(up);
        self.downlinks[node.0 as usize].set_up(up);
        true
    }

    fn set_switch_port_dead(&self, _sim: &Sim, switch: usize, port: usize, dead: bool) -> bool {
        match self.switches.get(switch) {
            Some(sw) => sw.set_port_dead(port, dead),
            None => false,
        }
    }

    fn num_switches(&self) -> usize {
        self.switches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use suca_sim::RunOutcome;

    type Arrivals = Arc<Mutex<Vec<(u64, Vec<u8>, bool)>>>;

    fn collect_arrivals(sim: &Sim, net: &Arc<Myrinet>, node: u32) -> Arrivals {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        net.attach(
            FabricNodeId(node),
            Box::new(move |s, pkt| {
                l2.lock()
                    .push((s.now().as_ns(), pkt.payload.to_vec(), pkt.corrupted));
            }),
        );
        let _ = sim;
        log
    }

    #[test]
    fn same_switch_delivery() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 4, MyrinetConfig::dawning3000());
        let log = collect_arrivals(&sim, &net, 1);
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"ping"),
        );
        assert_eq!(sim.run(), RunOutcome::Completed);
        let got = log.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"ping");
        // 2 links * (20 B / 160 MB/s = 125 ns + 50 ns prop) + 300 ns switch.
        assert_eq!(got[0].0, 2 * (125 + 50) + 300);
        assert_eq!(net.hops(FabricNodeId(0), FabricNodeId(1)), 1);
    }

    #[test]
    fn cross_switch_routing() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 14, MyrinetConfig::dawning3000());
        // Node 0 on sw0, node 13 on sw2: two trunk hops.
        assert_eq!(net.hops(FabricNodeId(0), FabricNodeId(13)), 3);
        let log = collect_arrivals(&sim, &net, 13);
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(13),
            Bytes::from_static(b"x"),
        );
        sim.run();
        assert_eq!(log.lock().len(), 1);
        // And the reverse direction too.
        let back = collect_arrivals(&sim, &net, 0);
        net.inject(
            &sim,
            FabricNodeId(13),
            FabricNodeId(0),
            Bytes::from_static(b"y"),
        );
        sim.run();
        assert_eq!(back.lock().len(), 1);
    }

    #[test]
    fn all_pairs_reachable_in_70_node_cluster() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 70, MyrinetConfig::dawning3000());
        let counts: Vec<_> = (0..70).map(|n| collect_arrivals(&sim, &net, n)).collect();
        for src in 0..70u32 {
            for dst in 0..70u32 {
                net.inject(
                    &sim,
                    FabricNodeId(src),
                    FabricNodeId(dst),
                    Bytes::copy_from_slice(&src.to_le_bytes()),
                );
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        for (n, log) in counts.iter().enumerate() {
            assert_eq!(log.lock().len(), 70, "node {n} missed packets");
        }
        assert_eq!(sim.get_count("fabric.delivered"), 70 * 70);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_packet_panics() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 2, MyrinetConfig::dawning3000());
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from(vec![0u8; 5000]),
        );
    }

    #[test]
    fn node_link_chaos_hook_downs_both_directions() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 4, MyrinetConfig::dawning3000());
        let at1 = collect_arrivals(&sim, &net, 1);
        let at2 = collect_arrivals(&sim, &net, 2);
        assert!(net.set_node_link_up(&sim, FabricNodeId(1), false));
        assert!(!net.set_node_link_up(&sim, FabricNodeId(99), false));
        // Outbound from the downed node and inbound toward it both blackhole.
        net.inject(
            &sim,
            FabricNodeId(1),
            FabricNodeId(2),
            Bytes::from_static(b"a"),
        );
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"b"),
        );
        sim.run();
        assert!(at1.lock().is_empty());
        assert!(at2.lock().is_empty());
        assert_eq!(sim.get_count("link.down_drops"), 2);
        // Revival restores both directions.
        assert!(net.set_node_link_up(&sim, FabricNodeId(1), true));
        net.inject(
            &sim,
            FabricNodeId(1),
            FabricNodeId(2),
            Bytes::from_static(b"c"),
        );
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"d"),
        );
        sim.run();
        assert_eq!(at1.lock().len(), 1);
        assert_eq!(at2.lock().len(), 1);
    }

    #[test]
    fn switch_port_chaos_hook_is_bounds_checked() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 14, MyrinetConfig::dawning3000());
        assert_eq!(net.num_switches(), 3);
        let log = collect_arrivals(&sim, &net, 13);
        // Kill sw0's right trunk: cross-switch traffic from node 0 dies at
        // the switch, counted, without panicking.
        assert!(net.set_switch_port_dead(&sim, 0, PORT_RIGHT, true));
        assert!(!net.set_switch_port_dead(&sim, 7, 0, true));
        assert!(!net.set_switch_port_dead(&sim, 0, 200, true));
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(13),
            Bytes::from_static(b"x"),
        );
        sim.run();
        assert!(log.lock().is_empty());
        assert_eq!(sim.get_count("switch.dead_port_drop"), 1);
        assert!(net.set_switch_port_dead(&sim, 0, PORT_RIGHT, false));
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(13),
            Bytes::from_static(b"y"),
        );
        sim.run();
        assert_eq!(log.lock().len(), 1);
    }

    #[test]
    fn unclaimed_packets_are_counted_not_lost_silently() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 2, MyrinetConfig::dawning3000());
        net.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"z"),
        );
        sim.run();
        assert_eq!(sim.get_count("fabric.unclaimed"), 1);
    }
}

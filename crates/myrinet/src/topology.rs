//! The Myrinet wiring.
//!
//! DAWNING-3000 interconnects its 70 nodes with 8-port M2M-OCT-SW8 switches.
//! We build a linear array of switches: each switch hosts up to
//! `hosts_per_switch` NICs on its low ports and uses two high ports as left/
//! right neighbor trunks. Source routes are computed at injection time, as
//! Myrinet does: one route byte per switch hop.

use std::rc::Rc;

use suca_sim::{Sim, SimDuration};

use crate::fabric::{FaultPlan, LinkSpec, Network, Routing, PORT_LEFT, PORT_RIGHT};
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

/// Builder of the Myrinet wiring of a [`Network`].
pub struct Myrinet;

impl Myrinet {
    /// Build a network with `n_nodes` attachment points.
    pub fn build(sim: &Sim, n_nodes: u32, cfg: MyrinetConfig) -> Rc<Network> {
        assert!(n_nodes > 0);
        assert!(cfg.hosts_per_switch >= 1 && cfg.hosts_per_switch <= PORT_RIGHT);
        let hosts_per_switch = cfg.hosts_per_switch;
        let switches: Vec<Rc<Switch>> = (0..(n_nodes as usize).div_ceil(hosts_per_switch))
            .map(|i| Switch::new(sim, format!("sw{i}"), 8, cfg.switch_cut_through))
            .collect();
        let link = LinkSpec {
            bytes_per_sec: cfg.link_bytes_per_sec,
            propagation: cfg.propagation,
            fault: cfg.fault,
        };
        // Trunks between neighboring switches, both directions.
        for (i, pair) in switches.windows(2).enumerate() {
            let (a, b, j) = (&pair[0], &pair[1], i + 1);
            let right = link.link(sim, format!("sw{i}->sw{j}"), b.clone());
            a.connect(PORT_RIGHT, right);
            let left = link.link(sim, format!("sw{j}->sw{i}"), a.clone());
            b.connect(PORT_LEFT, left);
        }
        let routing = Routing::LinearArray { hosts_per_switch };
        Network::attach_hosts(sim, routing, cfg.mtu, link, switches, n_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricNodeId;
    use std::cell::RefCell;
    use suca_sim::RunOutcome;

    type Arrivals = Rc<RefCell<Vec<(u64, Vec<u8>, bool)>>>;

    fn collect_arrivals(net: &Network, node: u32) -> Arrivals {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        net.attach(
            FabricNodeId(node),
            Box::new(move |s, pkt| {
                l2.borrow_mut()
                    .push((s.now().as_ns(), pkt.payload.to_vec(), pkt.corrupted));
            }),
        );
        log
    }

    fn send(sim: &Sim, net: &Network, src: u32, dst: u32, payload: &'static [u8]) {
        net.inject(
            sim,
            FabricNodeId(src),
            FabricNodeId(dst),
            Rc::from(payload),
            None,
        );
    }

    #[test]
    fn same_switch_delivery() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 4, MyrinetConfig::dawning3000());
        let log = collect_arrivals(&net, 1);
        send(&sim, &net, 0, 1, b"ping");
        assert_eq!(sim.run(), RunOutcome::Completed);
        let got = log.borrow();
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
        let log = collect_arrivals(&net, 13);
        send(&sim, &net, 0, 13, b"x");
        sim.run();
        assert_eq!(log.borrow().len(), 1);
        // And the reverse direction too.
        let back = collect_arrivals(&net, 0);
        send(&sim, &net, 13, 0, b"y");
        sim.run();
        assert_eq!(back.borrow().len(), 1);
    }

    #[test]
    fn all_pairs_reachable_in_70_node_cluster() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 70, MyrinetConfig::dawning3000());
        let counts: Vec<_> = (0..70).map(|n| collect_arrivals(&net, n)).collect();
        for src in 0..70u32 {
            for dst in 0..70u32 {
                net.inject(
                    &sim,
                    FabricNodeId(src),
                    FabricNodeId(dst),
                    Rc::from(src.to_le_bytes()),
                    None,
                );
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        for (n, log) in counts.iter().enumerate() {
            assert_eq!(log.borrow().len(), 70, "node {n} missed packets");
        }
        assert_eq!(sim.get_count("fabric.delivered"), 70 * 70);
    }

    #[test]
    fn node_link_chaos_hook_downs_both_directions() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 4, MyrinetConfig::dawning3000());
        let at1 = collect_arrivals(&net, 1);
        let at2 = collect_arrivals(&net, 2);
        assert!(net.set_node_link_up(FabricNodeId(1), false));
        assert!(!net.set_node_link_up(FabricNodeId(99), false));
        // Outbound from the downed node and inbound toward it both blackhole.
        send(&sim, &net, 1, 2, b"a");
        send(&sim, &net, 0, 1, b"b");
        sim.run();
        assert!(at1.borrow().is_empty());
        assert!(at2.borrow().is_empty());
        assert_eq!(sim.get_count("link.down_drops"), 2);
        // Revival restores both directions.
        assert!(net.set_node_link_up(FabricNodeId(1), true));
        send(&sim, &net, 1, 2, b"c");
        send(&sim, &net, 0, 1, b"d");
        sim.run();
        assert_eq!(at1.borrow().len(), 1);
        assert_eq!(at2.borrow().len(), 1);
    }

    #[test]
    fn switch_port_chaos_hook_is_bounds_checked() {
        let sim = Sim::new(1);
        let net = Myrinet::build(&sim, 14, MyrinetConfig::dawning3000());
        assert_eq!(net.num_switches(), 3);
        let log = collect_arrivals(&net, 13);
        // Kill sw0's right trunk: cross-switch traffic from node 0 dies at
        // the switch, counted, without panicking.
        assert!(net.set_switch_port_dead(0, PORT_RIGHT, true));
        assert!(!net.set_switch_port_dead(7, 0, true));
        assert!(!net.set_switch_port_dead(0, 200, true));
        send(&sim, &net, 0, 13, b"x");
        sim.run();
        assert!(log.borrow().is_empty());
        assert_eq!(sim.get_count("switch.dead_port_drop"), 1);
        assert!(net.set_switch_port_dead(0, PORT_RIGHT, false));
        send(&sim, &net, 0, 13, b"y");
        sim.run();
        assert_eq!(log.borrow().len(), 1);
    }
}

//! # suca-mesh — the custom nwrc 2-D mesh SAN
//!
//! DAWNING-3000's alternative system-area network is a custom 2-D mesh built
//! from the nwrc1032 wormhole routing chip (40 MHz, 6 channels of 32 bits)
//! fronted by the PMI960 NIC. We model it as a grid of cut-through routers
//! with dimension-order (XY) routing: the same [`suca_myrinet::Network`] as
//! Myrinet, cabled as a grid instead of a row of switches. That is what makes
//! the paper's heterogeneous-network portability claim testable: the
//! identical BCL/MPI binary runs over either network (see
//! `examples/heterogeneous.rs`).
//!
//! XY routing is deadlock-free on a mesh, and since our routes are computed
//! at injection (source routing), the model cannot deadlock by construction;
//! what it *does* reproduce is hop-count-dependent latency and per-channel
//! serialization.

#![warn(missing_docs)]

use std::rc::Rc;

use suca_sim::{Sim, SimDuration};

use suca_myrinet::fabric::mesh_port as port;
use suca_myrinet::{FaultPlan, LinkSpec, Network, Routing, Switch};

/// Tunables for a mesh build-out.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Per-channel bandwidth: 32 bits at 40 MHz = 160 MB/s raw.
    pub channel_bytes_per_sec: u64,
    /// Per-router cut-through latency. The nwrc1032 at 40 MHz spends a few
    /// cycles per header flit; noticeably slower than the Myrinet crossbar.
    pub router_latency: SimDuration,
    /// Wire propagation per hop (2-inch AMP cables: short).
    pub propagation: SimDuration,
    /// Largest packet payload.
    pub mtu: usize,
    /// Fault injection per channel traversal.
    pub fault: FaultPlan,
}

impl MeshConfig {
    /// DAWNING-3000 nwrc calibration.
    pub fn dawning3000() -> Self {
        MeshConfig {
            channel_bytes_per_sec: 160_000_000,
            router_latency: SimDuration::from_ns(500),
            propagation: SimDuration::from_ns(20),
            mtu: 4096,
            fault: FaultPlan::NONE,
        }
    }
}

/// Builder of the nwrc mesh wiring of a [`Network`].
pub struct Mesh;

impl Mesh {
    /// Build a `width × height` mesh; node ids are row-major. `n_nodes` may
    /// be smaller than `width * height` (unused tail positions get routers
    /// but no hosts — matching a partially populated machine).
    pub fn build(sim: &Sim, width: u32, height: u32, n_nodes: u32, cfg: MeshConfig) -> Rc<Network> {
        assert!(width >= 1 && height >= 1);
        assert!(n_nodes >= 1 && n_nodes <= width * height);
        let routers: Vec<Rc<Switch>> = (0..width * height)
            .map(|i| {
                Switch::new(
                    sim,
                    format!("r{}x{}", i % width, i / width),
                    5,
                    cfg.router_latency,
                )
            })
            .collect();
        let link = LinkSpec {
            bytes_per_sec: cfg.channel_bytes_per_sec,
            propagation: cfg.propagation,
            fault: cfg.fault,
        };
        // One channel each way between routers `a` and `b`, leaving `a` on
        // port `ab` and `b` on port `ba`; the labels name the direction.
        let channel = |a: usize, b: usize, (ab, to_b): (u8, char), (ba, to_a): (u8, char)| {
            let there = link.link(sim, format!("m{a}->{to_b}{b}"), routers[b].clone());
            routers[a].connect(ab as usize, there);
            let back = link.link(sim, format!("m{b}->{to_a}{a}"), routers[a].clone());
            routers[b].connect(ba as usize, back);
        };
        let idx = |x: u32, y: u32| (y * width + x) as usize;
        for y in 0..height {
            for x in 0..width {
                let me = idx(x, y);
                if x + 1 < width {
                    channel(me, idx(x + 1, y), (port::EAST, 'e'), (port::WEST, 'w'));
                }
                if y + 1 < height {
                    channel(me, idx(x, y + 1), (port::SOUTH, 's'), (port::NORTH, 'n'));
                }
            }
        }
        let routing = Routing::Mesh2D { width };
        Network::attach_hosts(sim, routing, cfg.mtu, link, routers, n_nodes)
    }

    /// Convenience: near-square mesh for `n_nodes`.
    pub fn build_square(sim: &Sim, n_nodes: u32, cfg: MeshConfig) -> Rc<Network> {
        let width = (n_nodes as f64).sqrt().ceil() as u32;
        let height = n_nodes.div_ceil(width);
        Self::build(sim, width, height, n_nodes, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use suca_myrinet::fabric::PORT_RIGHT;
    use suca_myrinet::{FabricNodeId, Myrinet, MyrinetConfig, PacketTrace};
    use suca_sim::mtrace::stage;
    use suca_sim::RunOutcome;

    fn listen(net: &Network, node: u32) -> Rc<RefCell<Vec<Vec<u8>>>> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        net.attach(
            FabricNodeId(node),
            Box::new(move |_, pkt| l.borrow_mut().push(pkt.payload.to_vec())),
        );
        log
    }

    fn send(sim: &Sim, net: &Network, src: u32, dst: u32, payload: Rc<[u8]>) {
        net.inject(sim, FabricNodeId(src), FabricNodeId(dst), payload, None);
    }

    #[test]
    fn xy_route_shape() {
        let sim = Sim::new(1);
        let m = Mesh::build(&sim, 4, 4, 16, MeshConfig::dawning3000());
        // (0,0) -> (3,2): 3 east + 2 south + host eject = 6 hops.
        assert_eq!(m.hops(FabricNodeId(0), FabricNodeId(11)), 6);
        // Self-delivery: just the host port.
        assert_eq!(m.hops(FabricNodeId(5), FabricNodeId(5)), 1);
    }

    #[test]
    fn delivers_across_the_mesh() {
        let sim = Sim::new(1);
        let m = Mesh::build(&sim, 4, 4, 16, MeshConfig::dawning3000());
        let log = listen(&m, 15);
        send(&sim, &m, 0, 15, Rc::from(*b"diag"));
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*log.borrow(), vec![b"diag".to_vec()]);
    }

    #[test]
    fn all_pairs_reachable_in_partial_mesh() {
        let sim = Sim::new(1);
        // 70 nodes in a 9x8 grid (2 unpopulated positions).
        let m = Mesh::build_square(&sim, 70, MeshConfig::dawning3000());
        let logs: Vec<_> = (0..70).map(|n| listen(&m, n)).collect();
        for src in 0..70u32 {
            for dst in 0..70u32 {
                send(&sim, &m, src, dst, Rc::from(*b"p"));
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        for (n, log) in logs.iter().enumerate() {
            assert_eq!(log.borrow().len(), 70, "node {n}");
        }
    }

    #[test]
    fn farther_nodes_take_longer() {
        let time_to = |dst: u32| {
            let sim = Sim::new(1);
            let m = Mesh::build(&sim, 8, 8, 64, MeshConfig::dawning3000());
            let t = Rc::new(RefCell::new(0u64));
            let t2 = t.clone();
            m.attach(
                FabricNodeId(dst),
                Box::new(move |s, _| *t2.borrow_mut() = s.now().as_ns()),
            );
            send(&sim, &m, 0, dst, Rc::from(*b"t"));
            sim.run();
            let v = *t.borrow();
            v
        };
        let near = time_to(1);
        let far = time_to(63);
        assert!(near > 0 && far > near, "near={near} far={far}");
    }

    #[test]
    fn mesh_chaos_hooks_down_host_cable_and_router_channel() {
        let sim = Sim::new(1);
        let m = Mesh::build(&sim, 2, 2, 4, MeshConfig::dawning3000());
        assert_eq!(m.num_switches(), 4);
        let log = listen(&m, 1);
        assert!(m.set_node_link_up(FabricNodeId(1), false));
        assert!(!m.set_node_link_up(FabricNodeId(9), false));
        send(&sim, &m, 0, 1, Rc::from(*b"a"));
        send(&sim, &m, 1, 0, Rc::from(*b"b"));
        sim.run();
        assert!(log.borrow().is_empty());
        assert_eq!(sim.get_count("link.down_drops"), 2);
        assert!(m.set_node_link_up(FabricNodeId(1), true));
        // Kill router 0's east channel: node 0 -> node 1 now dies in-switch.
        assert!(m.set_switch_port_dead(0, port::EAST as usize, true));
        assert!(!m.set_switch_port_dead(99, 0, true));
        send(&sim, &m, 0, 1, Rc::from(*b"c"));
        sim.run();
        assert!(log.borrow().is_empty());
        assert_eq!(sim.get_count("switch.dead_port_drop"), 1);
        assert!(m.set_switch_port_dead(0, port::EAST as usize, false));
        send(&sim, &m, 0, 1, Rc::from(*b"d"));
        sim.run();
        assert_eq!(log.borrow().len(), 1);
    }

    // The shared path, once per wiring: both builders return one `Network`,
    // so each case below runs the same code over Myrinet and the mesh.

    type Build = fn(&Sim, u32) -> Rc<Network>;
    const WIRINGS: [Build; 2] = [
        |sim, n| Myrinet::build(sim, n, MyrinetConfig::dawning3000()),
        |sim, n| Mesh::build_square(sim, n, MeshConfig::dawning3000()),
    ];

    /// Run `case` on each wiring with `n` nodes, in a fresh simulation.
    fn each_wiring(n: u32, mut case: impl FnMut(&Sim, &Network)) {
        for build in WIRINGS {
            let sim = Sim::new(1);
            case(&sim, &build(&sim, n));
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn each_wiring_is_one_network_named_for_plan_selection() {
        let mut names = Vec::new();
        each_wiring(4, |_, net| {
            assert_eq!(net.num_nodes(), 4);
            assert_eq!(net.mtu(), 4096);
            assert_eq!(net.link_bytes_per_sec(), 160_000_000);
            names.push(net.name());
        });
        assert_eq!(names, ["myrinet", "nwrc-mesh"]);
    }

    #[test]
    fn delivery_anchors_per_wiring() {
        // (wiring, nodes, src, dst, hops, ns for 0 B, ns for the 4096 B MTU).
        // Both: (hops + 1) links × (wire bytes / 160 MB/s + propagation)
        // + hops × switch latency, with 16 B of framing per packet.
        for (build, nodes, src, dst, hops, ns_empty, ns_mtu) in [
            (WIRINGS[0], 70, 0, 1, 1, 600, 51_800),
            (WIRINGS[0], 70, 0, 69, 12, 5_550, 338_350),
            (WIRINGS[1], 64, 0, 1, 2, 1_360, 78_160),
            (WIRINGS[1], 64, 0, 63, 15, 9_420, 419_020),
        ] {
            for (len, ns) in [(0, ns_empty), (4096, ns_mtu)] {
                let sim = Sim::new(1);
                let net = build(&sim, nodes);
                let at = Rc::new(RefCell::new(None));
                let at2 = at.clone();
                net.attach(
                    FabricNodeId(dst),
                    Box::new(move |s, _| *at2.borrow_mut() = Some(s.now().as_ns())),
                );
                send(&sim, &net, src, dst, Rc::from(vec![0u8; len]));
                sim.run();
                let what = format!("{} {src}->{dst} {len} B", net.name());
                assert_eq!(*at.borrow(), Some(ns), "{what}");
                assert_eq!(
                    net.hops(FabricNodeId(src), FabricNodeId(dst)),
                    hops,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn oversized_packet_panics() {
        each_wiring(2, |sim, net| {
            let msg = panic_message(|| send(sim, net, 0, 1, Rc::from(vec![0u8; 5000])));
            assert_eq!(
                msg,
                "packet of 5000 B exceeds MTU 4096 — fragmentation is the protocol's job"
            );
        });
    }

    #[test]
    fn unclaimed_packets_are_counted_not_lost_silently() {
        each_wiring(2, |sim, net| {
            send(sim, net, 0, 1, Rc::from(*b"z"));
            sim.run();
            assert_eq!(sim.get_count("fabric.delivered"), 1, "{}", net.name());
            assert_eq!(sim.get_count("fabric.unclaimed"), 1, "{}", net.name());
        });
    }

    #[test]
    fn double_attach_panics() {
        each_wiring(2, |_, net| {
            let _ = listen(net, 1);
            assert_eq!(
                panic_message(|| drop(listen(net, 1))),
                "node 1 attached twice"
            );
        });
    }

    #[test]
    fn out_of_range_chaos_hooks_return_false() {
        each_wiring(4, |_, net| {
            let last = net.num_switches() - 1;
            assert!(!net.set_node_link_up(FabricNodeId(4), false));
            assert!(!net.set_switch_port_dead(last + 1, 0, true));
            assert!(!net.set_switch_port_dead(last, 8, true));
            assert!(net.set_switch_port_dead(last, 0, true));
        });
    }

    #[test]
    fn misrouted_packet_leaves_a_drop_instant_on_its_origin_ring() {
        // Each wiring with one miscabled trunk: switch 0's port toward
        // switch 1 loops back into switch 0, so a packet from node 0 for
        // node 1 is ejected at node 0.
        for (routing, trunk_port) in [
            (
                Routing::LinearArray {
                    hosts_per_switch: 1,
                },
                PORT_RIGHT,
            ),
            (Routing::Mesh2D { width: 2 }, port::EAST as usize),
        ] {
            let sim = Sim::new(1);
            let cfg = MyrinetConfig::dawning3000();
            let link = LinkSpec {
                bytes_per_sec: cfg.link_bytes_per_sec,
                propagation: cfg.propagation,
                fault: cfg.fault,
            };
            let sw: Vec<_> = (0..2)
                .map(|i| Switch::new(&sim, format!("s{i}"), 8, cfg.switch_cut_through))
                .collect();
            sw[0].connect(trunk_port, link.link(&sim, "s0->s0".into(), sw[0].clone()));
            let net = Network::attach_hosts(&sim, routing, cfg.mtu, link, sw, 2);
            let at0 = listen(&net, 0);
            let at1 = listen(&net, 1);
            let trace = PacketTrace {
                origin: 0,
                msg_id: 7,
                seq: 0,
            };
            let payload = Rc::from(*b"lost");
            net.inject(&sim, FabricNodeId(0), FabricNodeId(1), payload, Some(trace));
            sim.run();
            assert!(at0.borrow().is_empty(), "the wrong host saw the packet");
            assert!(at1.borrow().is_empty());
            assert_eq!(sim.get_count("fabric.misrouted"), 1);
            let drops: Vec<_> = sim
                .trace_events()
                .into_iter()
                .filter(|e| e.stage == stage::DROP_MISROUTE)
                .collect();
            assert_eq!(drops.len(), 1, "{} {drops:?}", net.name());
            assert_eq!(drops[0].node, 0, "the drop belongs on the origin's ring");
            assert_eq!(drops[0].trace, suca_sim::TraceId::new(0, 7));
        }
    }
}

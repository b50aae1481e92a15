//! # suca-mesh — the custom nwrc 2-D mesh SAN
//!
//! DAWNING-3000's alternative system-area network is a custom 2-D mesh built
//! from the nwrc1032 wormhole routing chip (40 MHz, 6 channels of 32 bits)
//! fronted by the PMI960 NIC. We model it as a grid of cut-through routers
//! with dimension-order (XY) routing, implementing the same
//! [`suca_myrinet::Fabric`] trait as Myrinet — which is what makes the
//! paper's heterogeneous-network portability claim testable: the identical
//! BCL/MPI binary runs over either network (see `examples/heterogeneous.rs`).
//!
//! XY routing is deadlock-free on a mesh, and since our routes are computed
//! at injection (source routing), the model cannot deadlock by construction;
//! what it *does* reproduce is hop-count-dependent latency and per-channel
//! serialization.

#![warn(missing_docs)]

use std::sync::Arc;

use suca_sim::mtrace::stage;
use suca_sim::{Counter, Sim, SimDuration};

use suca_myrinet::fabric::{Fabric, FabricNodeId, FaultPlan, RxHandler};
use suca_myrinet::link::Link;
use suca_myrinet::switch::Switch;

/// Router port assignment on every nwrc1032.
mod port {
    pub const HOST: u8 = 0;
    pub const EAST: u8 = 1;
    pub const WEST: u8 = 2;
    pub const NORTH: u8 = 3;
    pub const SOUTH: u8 = 4;
}

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

/// A built 2-D mesh.
pub struct Mesh {
    cfg: MeshConfig,
    width: u32,
    /// Host→router injection links, indexed by node id.
    uplinks: Vec<Arc<Link>>,
    /// Router→host ejection links, indexed by node id (retained so chaos
    /// plans can down a host cable in both directions).
    downlinks: Vec<Arc<Link>>,
    /// The router grid, retained so chaos plans can kill channels.
    routers: Vec<Arc<Switch>>,
    endpoints: Vec<Arc<MeshEndpoint>>,
    injected: Counter,
}

struct MeshEndpoint {
    node: FabricNodeId,
    handler: parking_lot::Mutex<Option<RxHandler>>,
    delivered: Counter,
}

impl suca_myrinet::link::PacketSink for MeshEndpoint {
    fn deliver(&self, sim: &Sim, pkt: suca_myrinet::fabric::Packet) {
        // Chaos rewiring or a corrupted route byte can steer a packet to the
        // wrong host; real NICs sink it, so we count and drop — never panic.
        if pkt.dst != self.node {
            sim.add_count("fabric.misrouted", 1);
            suca_myrinet::switch::trace_wire_instant(sim, &pkt, stage::DROP_MISROUTE);
            return;
        }
        self.delivered.inc();
        match self.handler.lock().as_ref() {
            Some(h) => h(sim, pkt),
            None => sim.add_count("fabric.unclaimed", 1),
        }
    }
}

impl Mesh {
    /// Build a `width × height` mesh; node ids are row-major. `n_nodes` may
    /// be smaller than `width * height` (unused tail positions get routers
    /// but no hosts — matching a partially populated machine).
    pub fn build(sim: &Sim, width: u32, height: u32, n_nodes: u32, cfg: MeshConfig) -> Arc<Mesh> {
        assert!(width >= 1 && height >= 1);
        assert!(n_nodes >= 1 && n_nodes <= width * height);
        let routers: Vec<Arc<Switch>> = (0..width * height)
            .map(|i| {
                Switch::new(
                    sim,
                    format!("r{}x{}", i % width, i / width),
                    5,
                    cfg.router_latency,
                )
            })
            .collect();
        let idx = |x: u32, y: u32| (y * width + x) as usize;

        // Neighbor channels, both directions.
        for y in 0..height {
            for x in 0..width {
                let me = idx(x, y);
                if x + 1 < width {
                    let east = idx(x + 1, y);
                    routers[me].connect(
                        port::EAST as usize,
                        Link::new(
                            sim,
                            format!("m{me}->e{east}"),
                            cfg.channel_bytes_per_sec,
                            cfg.propagation,
                            cfg.fault,
                            routers[east].clone(),
                        ),
                    );
                    routers[east].connect(
                        port::WEST as usize,
                        Link::new(
                            sim,
                            format!("m{east}->w{me}"),
                            cfg.channel_bytes_per_sec,
                            cfg.propagation,
                            cfg.fault,
                            routers[me].clone(),
                        ),
                    );
                }
                if y + 1 < height {
                    let south = idx(x, y + 1);
                    routers[me].connect(
                        port::SOUTH as usize,
                        Link::new(
                            sim,
                            format!("m{me}->s{south}"),
                            cfg.channel_bytes_per_sec,
                            cfg.propagation,
                            cfg.fault,
                            routers[south].clone(),
                        ),
                    );
                    routers[south].connect(
                        port::NORTH as usize,
                        Link::new(
                            sim,
                            format!("m{south}->n{me}"),
                            cfg.channel_bytes_per_sec,
                            cfg.propagation,
                            cfg.fault,
                            routers[me].clone(),
                        ),
                    );
                }
            }
        }

        // Host channels.
        let metrics = sim.metrics();
        let delivered = metrics.counter("fabric.delivered");
        let mut uplinks = Vec::with_capacity(n_nodes as usize);
        let mut downlinks = Vec::with_capacity(n_nodes as usize);
        let mut endpoints = Vec::with_capacity(n_nodes as usize);
        for node in 0..n_nodes {
            let ep = Arc::new(MeshEndpoint {
                node: FabricNodeId(node),
                handler: parking_lot::Mutex::new(None),
                delivered: delivered.clone(),
            });
            let down = Link::new(
                sim,
                format!("m{node}->h{node}"),
                cfg.channel_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                ep.clone(),
            );
            routers[node as usize].connect(port::HOST as usize, down.clone());
            downlinks.push(down);
            uplinks.push(Link::new(
                sim,
                format!("h{node}->m{node}"),
                cfg.channel_bytes_per_sec,
                cfg.propagation,
                cfg.fault,
                routers[node as usize].clone(),
            ));
            endpoints.push(ep);
        }

        Arc::new(Mesh {
            cfg,
            width,
            uplinks,
            downlinks,
            routers,
            endpoints,
            injected: metrics.counter("fabric.injected"),
        })
    }

    /// Convenience: near-square mesh for `n_nodes`.
    pub fn build_square(sim: &Sim, n_nodes: u32, cfg: MeshConfig) -> Arc<Mesh> {
        let width = (n_nodes as f64).sqrt().ceil() as u32;
        let height = n_nodes.div_ceil(width);
        Self::build(sim, width, height, n_nodes, cfg)
    }

    fn coords(&self, n: FabricNodeId) -> (u32, u32) {
        (n.0 % self.width, n.0 / self.width)
    }

    /// Dimension-order (X then Y) source route, terminated by the host port.
    fn route(&self, src: FabricNodeId, dst: FabricNodeId) -> Vec<u8> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut r = Vec::with_capacity((sx.abs_diff(dx) + sy.abs_diff(dy) + 1) as usize);
        let mut x = sx;
        while x != dx {
            if dx > x {
                r.push(port::EAST);
                x += 1;
            } else {
                r.push(port::WEST);
                x -= 1;
            }
        }
        let mut y = sy;
        while y != dy {
            if dy > y {
                r.push(port::SOUTH);
                y += 1;
            } else {
                r.push(port::NORTH);
                y -= 1;
            }
        }
        r.push(port::HOST);
        r
    }

    /// Number of router hops between two nodes.
    pub fn hops(&self, src: FabricNodeId, dst: FabricNodeId) -> usize {
        self.route(src, dst).len()
    }
}

impl Fabric for Mesh {
    fn name(&self) -> &'static str {
        "nwrc-mesh"
    }

    fn num_nodes(&self) -> u32 {
        self.endpoints.len() as u32
    }

    fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    fn link_bytes_per_sec(&self) -> u64 {
        self.cfg.channel_bytes_per_sec
    }

    fn attach(&self, node: FabricNodeId, rx: RxHandler) {
        let mut guard = self.endpoints[node.0 as usize].handler.lock();
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
        trace: Option<suca_myrinet::PacketTrace>,
    ) {
        assert!(
            payload.len() <= self.cfg.mtu,
            "packet of {} B exceeds mesh MTU {}",
            payload.len(),
            self.cfg.mtu
        );
        self.injected.inc();
        let pkt = suca_myrinet::fabric::Packet {
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
        uplink.set_up(up);
        self.downlinks[node.0 as usize].set_up(up);
        true
    }

    fn set_switch_port_dead(&self, _sim: &Sim, switch: usize, port: usize, dead: bool) -> bool {
        match self.routers.get(switch) {
            Some(r) => r.set_port_dead(port, dead),
            None => false,
        }
    }

    fn num_switches(&self) -> usize {
        self.routers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use suca_sim::RunOutcome;

    fn listen(net: &Arc<Mesh>, node: u32) -> Arc<Mutex<Vec<Vec<u8>>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        net.attach(
            FabricNodeId(node),
            Box::new(move |_, pkt| l.lock().push(pkt.payload.to_vec())),
        );
        log
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
        m.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(15),
            Bytes::from_static(b"diag"),
        );
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*log.lock(), vec![b"diag".to_vec()]);
    }

    #[test]
    fn all_pairs_reachable_in_partial_mesh() {
        let sim = Sim::new(1);
        // 70 nodes in a 9x8 grid (2 unpopulated positions).
        let m = Mesh::build_square(&sim, 70, MeshConfig::dawning3000());
        let logs: Vec<_> = (0..70).map(|n| listen(&m, n)).collect();
        for src in 0..70u32 {
            for dst in 0..70u32 {
                m.inject(
                    &sim,
                    FabricNodeId(src),
                    FabricNodeId(dst),
                    Bytes::from_static(b"p"),
                );
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        for (n, log) in logs.iter().enumerate() {
            assert_eq!(log.lock().len(), 70, "node {n}");
        }
    }

    #[test]
    fn farther_nodes_take_longer() {
        let time_to = |dst: u32| {
            let sim = Sim::new(1);
            let m = Mesh::build(&sim, 8, 8, 64, MeshConfig::dawning3000());
            let t = Arc::new(Mutex::new(0u64));
            let t2 = t.clone();
            m.attach(
                FabricNodeId(dst),
                Box::new(move |s, _| *t2.lock() = s.now().as_ns()),
            );
            m.inject(
                &sim,
                FabricNodeId(0),
                FabricNodeId(dst),
                Bytes::from_static(b"t"),
            );
            sim.run();
            let v = *t.lock();
            v
        };
        let near = time_to(1);
        let far = time_to(63);
        assert!(near > 0 && far > near, "near={near} far={far}");
    }

    #[test]
    fn misrouted_packet_leaves_a_drop_instant_on_its_origin_ring() {
        use suca_myrinet::link::PacketSink;
        use suca_myrinet::{Packet, PacketTrace};

        let sim = Sim::new(1);
        let m = Mesh::build(&sim, 2, 2, 4, MeshConfig::dawning3000());
        let log = listen(&m, 3);
        // What chaos rewiring or a corrupted route byte produces: a packet
        // for node 2 ejected at node 3.
        let pkt = Packet {
            src: FabricNodeId(1),
            dst: FabricNodeId(2),
            payload: Bytes::from_static(b"lost"),
            corrupted: false,
            route: vec![port::HOST],
            route_pos: 1,
            trace: Some(PacketTrace {
                origin: 1,
                msg_id: 7,
                seq: 0,
            }),
        };
        m.endpoints[3].deliver(&sim, pkt);
        assert!(log.lock().is_empty(), "the wrong host saw the packet");
        assert_eq!(sim.get_count("fabric.misrouted"), 1);
        let events = sim.trace_events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].stage, stage::DROP_MISROUTE);
        assert_eq!(events[0].node, 1, "the drop belongs on the origin's ring");
        assert_eq!(events[0].trace, suca_sim::TraceId::new(1, 7));
    }

    #[test]
    fn mesh_chaos_hooks_down_host_cable_and_router_channel() {
        let sim = Sim::new(1);
        let m = Mesh::build(&sim, 2, 2, 4, MeshConfig::dawning3000());
        assert_eq!(m.num_switches(), 4);
        let log = listen(&m, 1);
        assert!(m.set_node_link_up(&sim, FabricNodeId(1), false));
        assert!(!m.set_node_link_up(&sim, FabricNodeId(9), false));
        m.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"a"),
        );
        m.inject(
            &sim,
            FabricNodeId(1),
            FabricNodeId(0),
            Bytes::from_static(b"b"),
        );
        sim.run();
        assert!(log.lock().is_empty());
        assert_eq!(sim.get_count("link.down_drops"), 2);
        assert!(m.set_node_link_up(&sim, FabricNodeId(1), true));
        // Kill router 0's east channel: node 0 -> node 1 now dies in-switch.
        assert!(m.set_switch_port_dead(&sim, 0, port::EAST as usize, true));
        assert!(!m.set_switch_port_dead(&sim, 99, 0, true));
        m.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"c"),
        );
        sim.run();
        assert!(log.lock().is_empty());
        assert_eq!(sim.get_count("switch.dead_port_drop"), 1);
        assert!(m.set_switch_port_dead(&sim, 0, port::EAST as usize, false));
        m.inject(
            &sim,
            FabricNodeId(0),
            FabricNodeId(1),
            Bytes::from_static(b"d"),
        );
        sim.run();
        assert_eq!(log.lock().len(), 1);
    }

    #[test]
    fn mesh_and_myrinet_share_the_fabric_interface() {
        // Compile-time check that both SANs are interchangeable.
        fn takes_fabric(_f: &dyn Fabric) {}
        let sim = Sim::new(1);
        let mesh = Mesh::build(&sim, 2, 2, 4, MeshConfig::dawning3000());
        let myr = suca_myrinet::Myrinet::build(&sim, 4, suca_myrinet::MyrinetConfig::dawning3000());
        takes_fabric(mesh.as_ref());
        takes_fabric(myr.as_ref());
    }
}

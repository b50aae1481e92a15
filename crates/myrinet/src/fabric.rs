//! The system-area network.
//!
//! BCL's heterogeneous-network claim (paper §3, benefit 3) is that the NIC is
//! invisible to user space, so the same binary runs over Myrinet or the
//! custom nwrc 2-D mesh. Here both SANs are one concrete [`Network`] of
//! serialized links, cut-through switches and host endpoints; they differ
//! only in how the switches are cabled and routed ([`Routing`]). The MCP
//! holds `Network`s and never branches on the wiring: [`Network::name`] is
//! the one topology key anything above reads (collective plan selection).
//!
//! Payload bytes are opaque to the fabric — protocols serialize their own
//! headers into the payload, exactly as on real hardware. The fabric adds a
//! fixed per-packet framing overhead (route bytes + CRC) to the wire length.
//! A packet's bytes are one immutable `Rc<[u8]>`: cloning a packet in
//! flight, in a retransmit window or in an rx ring shares them.

use std::cell::OnceCell;
use std::rc::Rc;

use suca_sim::mtrace::stage;
use suca_sim::{Counter, Sim, SimDuration};

use crate::link::{Link, PacketSink};
use crate::switch::{trace_wire_instant, Switch};

/// Index of a host attachment point (one per node NIC).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FabricNodeId(pub u32);

/// Per-message trace identity carried alongside a packet so switches and
/// links — which never parse protocol headers, matching the hardware — can
/// still attribute hop/drop events to the message. This is simulator
/// metadata, not wire bytes: it does not count toward `wire_len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketTrace {
    /// Node that originated the traced message.
    pub origin: u32,
    /// Message id allocated by the origin.
    pub msg_id: u32,
    /// Fragment sequence number.
    pub seq: u32,
}

/// One packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Injecting NIC.
    pub src: FabricNodeId,
    /// Destination NIC.
    pub dst: FabricNodeId,
    /// Protocol payload (headers included).
    pub payload: Rc<[u8]>,
    /// Set by fault injection when the packet was damaged in flight; the
    /// receiving firmware's CRC check observes this and discards the packet.
    pub corrupted: bool,
    /// Source route: the hops still ahead of the packet.
    pub route: Route,
    /// Trace identity for per-message causal tracing (`None` for untraced
    /// traffic). Survives corruption so damaged packets stay attributable.
    pub trace: Option<PacketTrace>,
}

impl Packet {
    /// Bytes that occupy the wire: payload plus framing (route + type + CRC).
    pub fn wire_len(&self) -> u64 {
        self.payload.len() as u64 + FRAMING_BYTES
    }
}

/// A source route: the output port at each switch or router a packet
/// visits, the last one the destination's host port. Every route a
/// [`Routing`] computes is at most one run of a single trunk port per
/// dimension, then the exit, so it is held as run lengths, inline: a
/// packet's route allocates nothing, and its length is arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// `(port, hops left)` per dimension, taken in order.
    legs: [(u8, u32); 2],
    /// The last hop, until taken.
    exit: Option<u8>,
}

impl Route {
    /// No hop left: a switch that receives a packet on it drops it.
    pub const EMPTY: Route = Route {
        legs: [(0, 0); 2],
        exit: None,
    };

    /// A single hop, out of `port`.
    pub const fn direct(port: u8) -> Route {
        Route {
            legs: [(0, 0); 2],
            exit: Some(port),
        }
    }

    /// Hops left.
    pub fn len(&self) -> usize {
        let runs: u32 = self.legs.iter().map(|&(_, n)| n).sum();
        runs as usize + usize::from(self.exit.is_some())
    }

    /// No hop left?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the next hop: the output port the current switch uses.
    pub fn next_hop(&mut self) -> Option<u8> {
        match self.legs.iter_mut().find(|(_, n)| *n > 0) {
            Some((port, n)) => {
                *n -= 1;
                Some(*port)
            }
            None => self.exit.take(),
        }
    }
}

/// Per-packet framing overhead on the wire (Myrinet header, padded route
/// bytes, trailing CRC-32).
pub const FRAMING_BYTES: u64 = 16;

/// Receive callback a protocol registers on its NIC attachment. Runs as a
/// simulation event at packet-arrival time.
pub type RxHandler = Box<dyn Fn(&Sim, Packet) + 'static>;

/// Stochastic fault injection applied per link traversal.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Probability a packet is silently dropped on a link.
    pub drop_prob: f64,
    /// Probability a packet is delivered with a bad CRC.
    pub corrupt_prob: f64,
}

impl FaultPlan {
    /// No faults (the default).
    pub const NONE: FaultPlan = FaultPlan {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
    };
}

/// Trunk ports of every switch in a [`Routing::LinearArray`]; hosts sit on
/// the ports below them.
pub const PORT_RIGHT: usize = 6;
/// See [`PORT_RIGHT`].
pub const PORT_LEFT: usize = 7;

/// Router ports of every node of a [`Routing::Mesh2D`] grid.
pub mod mesh_port {
    /// The router's own host.
    pub const HOST: u8 = 0;
    /// Toward `x + 1`.
    pub const EAST: u8 = 1;
    /// Toward `x - 1`.
    pub const WEST: u8 = 2;
    /// Toward `y - 1`.
    pub const NORTH: u8 = 3;
    /// Toward `y + 1`.
    pub const SOUTH: u8 = 4;
}

/// How a network's switches are cabled: where each host plugs in and the
/// source route between two hosts. This is all that tells the SANs apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Myrinet: a row of 8-port crossbars, `hosts_per_switch` hosts on the
    /// low ports of each, neighbours trunked on [`PORT_RIGHT`] / [`PORT_LEFT`].
    LinearArray {
        /// Hosts per switch (radix 8 minus the two trunk ports, at most).
        hosts_per_switch: usize,
    },
    /// The nwrc mesh: a row-major grid of routers, one host each on
    /// [`mesh_port::HOST`], dimension-order (X then Y) routes.
    Mesh2D {
        /// Routers per row.
        width: u32,
    },
}

impl Routing {
    /// Node `n`'s host cable: its switch, the port there, and the labels of
    /// the switch→host and host→switch links.
    fn host_cable(self, n: u32) -> (usize, usize, String, String) {
        match self {
            Routing::LinearArray { hosts_per_switch } => {
                let sw = n as usize / hosts_per_switch;
                let port = n as usize % hosts_per_switch;
                (sw, port, format!("sw{sw}->n{n}"), format!("n{n}->sw{sw}"))
            }
            Routing::Mesh2D { .. } => (
                n as usize,
                mesh_port::HOST as usize,
                format!("m{n}->h{n}"),
                format!("h{n}->m{n}"),
            ),
        }
    }

    /// Source route from `src` to `dst`: one output port per switch visited,
    /// the last one the destination's host port.
    fn route(self, src: FabricNodeId, dst: FabricNodeId) -> Route {
        let (s, d) = (src.0, dst.0);
        // Per dimension: (from, to, port when `to` is higher, port when
        // lower); a linear array's second dimension is empty.
        let (legs, exit) = match self {
            Routing::LinearArray { hosts_per_switch } => {
                let h = hosts_per_switch as u32;
                let x = (s / h, d / h, PORT_RIGHT as u8, PORT_LEFT as u8);
                ([x, (0, 0, 0, 0)], (d % h) as u8)
            }
            Routing::Mesh2D { width: w } => {
                let x = (s % w, d % w, mesh_port::EAST, mesh_port::WEST);
                let y = (s / w, d / w, mesh_port::SOUTH, mesh_port::NORTH);
                ([x, y], mesh_port::HOST)
            }
        };
        let leg = |(from, to, up, down): (u32, u32, u8, u8)| {
            (if to > from { up } else { down }, from.abs_diff(to))
        };
        Route {
            legs: legs.map(leg),
            exit: Some(exit),
        }
    }
}

/// What every link of one network shares, copied from its builder's config.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Per-direction bandwidth.
    pub bytes_per_sec: u64,
    /// Propagation delay.
    pub propagation: SimDuration,
    /// Fault injection per traversal.
    pub fault: FaultPlan,
}

impl LinkSpec {
    /// A link labelled `label` delivering into `dst`.
    pub fn link(&self, sim: &Sim, label: String, dst: Rc<dyn PacketSink>) -> Rc<Link> {
        Link::new(
            sim,
            label,
            self.bytes_per_sec,
            self.propagation,
            self.fault,
            dst,
        )
    }
}

/// A NIC attachment: terminates a switch→host link and hands packets to the
/// protocol's handler, attached once at boot.
struct Endpoint {
    node: FabricNodeId,
    handler: OnceCell<RxHandler>,
    delivered: Counter,
}

impl PacketSink for Endpoint {
    fn deliver(&self, sim: &Sim, pkt: Packet) {
        // Miscabling or a corrupted route byte can steer a packet to the
        // wrong host. Real NICs sink it; panicking a sim thread never is.
        if pkt.dst != self.node {
            sim.add_count("fabric.misrouted", 1);
            trace_wire_instant(sim, &pkt, stage::DROP_MISROUTE);
            return;
        }
        self.delivered.inc();
        match self.handler.get() {
            Some(h) => h(sim, pkt),
            // No protocol attached: hardware would sink the packet.
            None => sim.add_count("fabric.unclaimed", 1),
        }
    }
}

/// A built system-area network: Myrinet or the nwrc mesh, depending only on
/// its [`Routing`].
pub struct Network {
    routing: Routing,
    mtu: usize,
    link_bytes_per_sec: u64,
    /// Switches (Myrinet) or routers (mesh), retained so chaos plans can
    /// kill ports.
    switches: Vec<Rc<Switch>>,
    /// Host→switch links, indexed by node.
    uplinks: Vec<Rc<Link>>,
    /// Switch→host links, indexed by node (a host cable carries both
    /// directions, so a node's "link down" kills both).
    downlinks: Vec<Rc<Link>>,
    endpoints: Vec<Rc<Endpoint>>,
    injected: Counter,
}

impl Network {
    /// Cable one host per node to `switches`, which the builder has already
    /// trunked together, at the switch and port `routing` places it on, and
    /// assemble the network. Both SAN builders end here.
    pub fn attach_hosts(
        sim: &Sim,
        routing: Routing,
        mtu: usize,
        link: LinkSpec,
        switches: Vec<Rc<Switch>>,
        n_nodes: u32,
    ) -> Rc<Network> {
        let metrics = sim.metrics();
        let delivered = metrics.counter("fabric.delivered");
        let mut uplinks = Vec::with_capacity(n_nodes as usize);
        let mut downlinks = Vec::with_capacity(n_nodes as usize);
        let mut endpoints = Vec::with_capacity(n_nodes as usize);
        for node in 0..n_nodes {
            let (sw, port, down_label, up_label) = routing.host_cable(node);
            let ep = Rc::new(Endpoint {
                node: FabricNodeId(node),
                handler: OnceCell::new(),
                delivered: delivered.clone(),
            });
            let down = link.link(sim, down_label, ep.clone());
            switches[sw].connect(port, down.clone());
            downlinks.push(down);
            uplinks.push(link.link(sim, up_label, switches[sw].clone()));
            endpoints.push(ep);
        }
        Rc::new(Network {
            routing,
            mtu,
            link_bytes_per_sec: link.bytes_per_sec,
            switches,
            uplinks,
            downlinks,
            endpoints,
            injected: metrics.counter("fabric.injected"),
        })
    }

    /// Topology name ("myrinet", "nwrc-mesh").
    pub fn name(&self) -> &'static str {
        match self.routing {
            Routing::LinearArray { .. } => "myrinet",
            Routing::Mesh2D { .. } => "nwrc-mesh",
        }
    }

    /// Number of host attachment points.
    pub fn num_nodes(&self) -> u32 {
        self.endpoints.len() as u32
    }

    /// Largest payload one packet may carry. Protocols fragment above this.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Per-direction bandwidth of a host link. NIC firmware uses this to
    /// pace injection (the LANai polls send-DMA completion before starting
    /// the next fragment).
    pub fn link_bytes_per_sec(&self) -> u64 {
        self.link_bytes_per_sec
    }

    /// Register the receive handler for a node's NIC. Panics if the node is
    /// out of range or already attached — both are wiring bugs.
    pub fn attach(&self, node: FabricNodeId, rx: RxHandler) {
        let fresh = self.endpoints[node.0 as usize].handler.set(rx).is_ok();
        assert!(fresh, "node {} attached twice", node.0);
    }

    /// Inject a packet, tagged with `trace` for per-message tracing. The
    /// network models transmission, switching and fault injection, then
    /// invokes the destination's handler (if the packet survives). Panics
    /// if `payload` exceeds the MTU — fragmentation is the protocol's job
    /// and an oversized packet is a protocol bug.
    pub fn inject(
        &self,
        sim: &Sim,
        src: FabricNodeId,
        dst: FabricNodeId,
        payload: Rc<[u8]>,
        trace: Option<PacketTrace>,
    ) {
        assert!(
            payload.len() <= self.mtu,
            "packet of {} B exceeds MTU {} — fragmentation is the protocol's job",
            payload.len(),
            self.mtu
        );
        self.injected.inc();
        let pkt = Packet {
            src,
            dst,
            payload,
            corrupted: false,
            route: self.routing.route(src, dst),
            trace,
        };
        self.uplinks[src.0 as usize].send(sim, pkt);
    }

    /// Number of switch hops between two nodes (for latency assertions).
    pub fn hops(&self, src: FabricNodeId, dst: FabricNodeId) -> usize {
        self.routing.route(src, dst).len()
    }

    /// Chaos hook: force a node's host cable up or down (both directions).
    /// While down, every traversal is a counted drop — the packet is
    /// consumed, nothing is delivered. Returns `false` for an unknown node.
    pub fn set_node_link_up(&self, node: FabricNodeId, up: bool) -> bool {
        let Some(uplink) = self.uplinks.get(node.0 as usize) else {
            return false;
        };
        uplink.set_up(up);
        self.downlinks[node.0 as usize].set_up(up);
        true
    }

    /// Chaos hook: kill or revive one output port of one switch/router.
    /// Packets routed through a dead port are counted drops. Returns `false`
    /// when the switch or port is out of range.
    pub fn set_switch_port_dead(&self, switch: usize, port: usize, dead: bool) -> bool {
        self.switches
            .get(switch)
            .is_some_and(|sw| sw.set_port_dead(port, dead))
    }

    /// Number of switching elements (for chaos plans to pick targets from).
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The route as a list of port bytes, built the way Myrinet writes a
    /// source route: every trunk hop along the first dimension, then the
    /// second, then the host port.
    fn port_bytes(routing: Routing, s: u32, d: u32) -> Vec<u8> {
        let mut legs = match routing {
            Routing::LinearArray { hosts_per_switch } => {
                let h = hosts_per_switch as u32;
                vec![(s / h, d / h, PORT_RIGHT as u8, PORT_LEFT as u8)]
            }
            Routing::Mesh2D { width: w } => vec![
                (s % w, d % w, mesh_port::EAST, mesh_port::WEST),
                (s / w, d / w, mesh_port::SOUTH, mesh_port::NORTH),
            ],
        };
        let mut bytes = Vec::new();
        for (from, to, up, down) in legs.drain(..) {
            let mut at = from;
            while at != to {
                bytes.push(if to > from { up } else { down });
                at = if to > from { at + 1 } else { at - 1 };
            }
        }
        bytes.push(match routing {
            Routing::LinearArray { hosts_per_switch } => (d % hosts_per_switch as u32) as u8,
            Routing::Mesh2D { .. } => mesh_port::HOST,
        });
        bytes
    }

    #[test]
    fn every_route_takes_the_source_routes_hops_in_order() {
        let fabrics = [
            (
                Routing::LinearArray {
                    hosts_per_switch: 6,
                },
                70,
            ),
            (
                Routing::LinearArray {
                    hosts_per_switch: 1,
                },
                9,
            ),
            (Routing::Mesh2D { width: 5 }, 23),
        ];
        for (routing, nodes) in fabrics {
            for (s, d) in (0..nodes).flat_map(|s| (0..nodes).map(move |d| (s, d))) {
                let want = port_bytes(routing, s, d);
                let mut route = routing.route(FabricNodeId(s), FabricNodeId(d));
                assert_eq!(route.len(), want.len(), "{routing:?} {s}->{d}");
                let got: Vec<u8> = std::iter::from_fn(|| route.next_hop()).collect();
                assert_eq!(got, want, "{routing:?} {s}->{d}");
                assert!(route.is_empty() && route.next_hop().is_none());
            }
        }
    }
}

//! # suca-chaos — deterministic fault injection and recovery reporting
//!
//! Chaos runs answer the question the clean SLO harnesses cannot: does the
//! stack *recover*? This crate supplies the three pieces:
//!
//! * [`ChaosPlan`] — a seeded, fully deterministic fault schedule (link
//!   flaps, switch-port deaths, NIC resets, whole-node crashes). Plans are
//!   plain data: scripted storms are built by hand, randomized ones through
//!   [`StormBuilder`], and both replay byte-identically at a fixed seed.
//! * [`ChaosController`] — installs a plan on a running
//!   [`suca_cluster::Cluster`], applying each fault at its scheduled sim
//!   time through the fabric chaos hooks and the MCP chaos entry points.
//!   Every injected fault is a counted `chaos.*` metric and a trace
//!   instant, so fault timelines line up with recovery events in Perfetto.
//! * [`ChaosReport`] — recovery accounting gathered from the metrics
//!   registry (injections, path deaths, rail failovers, epoch resyncs,
//!   stale-epoch drops, recovery-latency percentiles), serialized as
//!   stable JSON (the `chaos` artifact kind: `target/chaos/`).

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

use suca_cluster::Cluster;
use suca_myrinet::FabricNodeId;
use suca_sim::mtrace::stage;
use suca_sim::{Sim, SimDuration, SimTime, TraceEvent, TraceId, TraceLayer, FABRIC_NODE};

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Both directions of `node`'s cable on `rail` go down for `down_for`,
    /// then revive (a link *flap*).
    LinkFlap {
        /// Rail index into [`Cluster::rails`].
        rail: usize,
        /// Node whose cable flaps.
        node: u32,
        /// Outage duration.
        down_for: SimDuration,
    },
    /// A switch port on `rail` dies permanently (no revival — failover is
    /// the only way around it).
    SwitchPortDeath {
        /// Rail index into [`Cluster::rails`].
        rail: usize,
        /// Switch (Myrinet) or router (mesh) index.
        switch: usize,
        /// Port index on that switch.
        port: usize,
    },
    /// `node`'s NIC resets, wiping all MCP SRAM state (streams, staging,
    /// reassembly). Host-side epochs survive and bump, so peers adopt the
    /// fresh streams.
    NicReset {
        /// Node whose NIC resets.
        node: u32,
    },
    /// `node` crashes whole (SRAM wipe + dead window), restarting after
    /// `down_for`.
    NodeCrash {
        /// Node that crashes.
        node: u32,
        /// Outage before the restart.
        down_for: SimDuration,
    },
}

/// A fault scheduled at an absolute sim time.
#[derive(Clone, Copy, Debug)]
pub struct ChaosEvent {
    /// When to inject.
    pub at: SimTime,
    /// What to inject.
    pub fault: Fault,
}

/// A deterministic fault schedule. Events are kept sorted by time (stable
/// within a tick in insertion order), so a plan prints and replays in
/// injection order.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// The schedule, sorted by [`ChaosEvent::at`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Add one event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimTime, fault: Fault) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ChaosEvent { at, fault });
    }

    /// Number of scheduled faults of each kind:
    /// `(link_flaps, port_deaths, nic_resets, node_crashes)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.events {
            match e.fault {
                Fault::LinkFlap { .. } => c.0 += 1,
                Fault::SwitchPortDeath { .. } => c.1 += 1,
                Fault::NicReset { .. } => c.2 += 1,
                Fault::NodeCrash { .. } => c.3 += 1,
            }
        }
        c
    }
}

/// Seeded storm generator: draws fault targets and times from its own
/// splitmix64 stream so a fixed seed reproduces the schedule exactly,
/// independent of the cluster's RNG.
pub struct StormBuilder {
    state: u64,
    plan: ChaosPlan,
}

impl StormBuilder {
    /// Start a storm from `seed`.
    pub fn new(seed: u64) -> StormBuilder {
        StormBuilder {
            state: seed ^ 0xC4A0_5C4A_05C4_A05C,
            plan: ChaosPlan::new(),
        }
    }

    fn next(&mut self) -> u64 {
        // splitmix64: full-period, no external crate.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn time_in(&mut self, window: (SimTime, SimTime)) -> SimTime {
        let span = window.1.as_ns().saturating_sub(window.0.as_ns()).max(1);
        SimTime::from_ns(window.0.as_ns() + self.below(span))
    }

    fn dur_in(&mut self, range: (SimDuration, SimDuration)) -> SimDuration {
        let span = range.1.as_ns().saturating_sub(range.0.as_ns()).max(1);
        SimDuration::from_ns(range.0.as_ns() + self.below(span))
    }

    /// Schedule `count` link flaps on `rail`, drawing targets from
    /// `nodes`, times from `window`, and outage lengths from `down`.
    pub fn link_flaps(
        mut self,
        rail: usize,
        nodes: &[u32],
        count: usize,
        window: (SimTime, SimTime),
        down: (SimDuration, SimDuration),
    ) -> Self {
        for _ in 0..count {
            let node = nodes[self.below(nodes.len() as u64) as usize];
            let at = self.time_in(window);
            let down_for = self.dur_in(down);
            self.plan.push(
                at,
                Fault::LinkFlap {
                    rail,
                    node,
                    down_for,
                },
            );
        }
        self
    }

    /// Schedule `count` permanent port deaths on `rail`, drawing
    /// `(switch, port)` pairs from `candidates`.
    pub fn port_deaths(
        mut self,
        rail: usize,
        candidates: &[(usize, usize)],
        count: usize,
        window: (SimTime, SimTime),
    ) -> Self {
        for _ in 0..count {
            let (switch, port) = candidates[self.below(candidates.len() as u64) as usize];
            let at = self.time_in(window);
            self.plan
                .push(at, Fault::SwitchPortDeath { rail, switch, port });
        }
        self
    }

    /// Schedule `count` NIC resets across `nodes`.
    pub fn nic_resets(mut self, nodes: &[u32], count: usize, window: (SimTime, SimTime)) -> Self {
        for _ in 0..count {
            let node = nodes[self.below(nodes.len() as u64) as usize];
            let at = self.time_in(window);
            self.plan.push(at, Fault::NicReset { node });
        }
        self
    }

    /// Schedule `count` node crashes across `nodes` with outage lengths
    /// from `down`.
    pub fn node_crashes(
        mut self,
        nodes: &[u32],
        count: usize,
        window: (SimTime, SimTime),
        down: (SimDuration, SimDuration),
    ) -> Self {
        for _ in 0..count {
            let node = nodes[self.below(nodes.len() as u64) as usize];
            let at = self.time_in(window);
            let down_for = self.dur_in(down);
            self.plan.push(at, Fault::NodeCrash { node, down_for });
        }
        self
    }

    /// Finish the storm.
    pub fn build(self) -> ChaosPlan {
        self.plan
    }
}

fn instant(sim: &Sim, node: u32, stage_name: &'static str) {
    sim.trace_event(TraceEvent::instant(
        TraceId::NONE,
        node,
        TraceLayer::Wire,
        stage_name,
        sim.now().as_ns(),
    ));
}

/// Applies a [`ChaosPlan`] to a built cluster. Stateless after
/// [`ChaosController::install`] — every event is a scheduled sim closure
/// holding only the rails and firmware handles it needs.
pub struct ChaosController;

impl ChaosController {
    /// Schedule every event in `plan` on `cluster`'s sim clock. Call after
    /// [`suca_cluster::ClusterSpec::build`] and before `sim.run()`.
    ///
    /// Each injection bumps `chaos.faults` plus a per-kind counter and
    /// emits a chaos trace instant; a fault whose hook refuses (index out
    /// of range) is counted under `chaos.skipped` instead of silently
    /// vanishing.
    pub fn install(cluster: &Cluster, plan: &ChaosPlan) {
        let sim = &cluster.sim;
        for ev in &plan.events {
            let fault = ev.fault;
            match fault {
                Fault::LinkFlap {
                    rail,
                    node,
                    down_for,
                } => {
                    let fabric = cluster.rails[rail].clone();
                    let revive = fabric.clone();
                    sim.schedule_at(ev.at, move |s| {
                        if fabric.set_node_link_up(FabricNodeId(node), false) {
                            s.add_count("chaos.faults", 1);
                            s.add_count("chaos.link_down", 1);
                            instant(s, node, stage::CHAOS_LINK_DOWN);
                        } else {
                            s.add_count("chaos.skipped", 1);
                        }
                    });
                    sim.schedule_at(ev.at + down_for, move |s| {
                        if revive.set_node_link_up(FabricNodeId(node), true) {
                            s.add_count("chaos.link_up", 1);
                            instant(s, node, stage::CHAOS_LINK_UP);
                        }
                    });
                }
                Fault::SwitchPortDeath { rail, switch, port } => {
                    let fabric = cluster.rails[rail].clone();
                    sim.schedule_at(ev.at, move |s| {
                        if fabric.set_switch_port_dead(switch, port, true) {
                            s.add_count("chaos.faults", 1);
                            s.add_count("chaos.port_dead", 1);
                            // A switch port belongs to no node: the instant
                            // goes on the fabric track.
                            instant(s, FABRIC_NODE, stage::CHAOS_PORT_DEAD);
                        } else {
                            s.add_count("chaos.skipped", 1);
                        }
                    });
                }
                Fault::NicReset { node } => {
                    let mcp = cluster.nodes[node as usize].bcl.mcp.clone();
                    sim.schedule_at(ev.at, move |s| {
                        s.add_count("chaos.faults", 1);
                        s.add_count("chaos.nic_reset", 1);
                        // The MCP emits the CHAOS_NIC_RESET instant itself.
                        mcp.chaos_reset();
                    });
                }
                Fault::NodeCrash { node, down_for } => {
                    let mcp = cluster.nodes[node as usize].bcl.mcp.clone();
                    sim.schedule_at(ev.at, move |s| {
                        s.add_count("chaos.faults", 1);
                        s.add_count("chaos.node_crash", 1);
                        // The MCP counts mcp.node_crashes/restarts and
                        // emits the crash/restart instants itself.
                        mcp.chaos_crash(down_for);
                    });
                }
            }
        }
    }
}

/// Recovery accounting for one chaos run, gathered from the metrics
/// registry. Stable JSON — `chaos_slo` compares two fixed-seed runs
/// byte-for-byte.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Run label.
    pub variant: String,
    /// Storm seed.
    pub seed: u64,
    /// Faults injected (hooks accepted).
    pub injected: u64,
    /// Faults whose hook refused (bad index) — `chaos_slo` asserts 0.
    pub skipped: u64,
    /// Link-down injections.
    pub link_down: u64,
    /// Link revivals.
    pub link_up: u64,
    /// Port deaths.
    pub port_dead: u64,
    /// NIC resets.
    pub nic_resets: u64,
    /// Node crashes.
    pub node_crashes: u64,
    /// Node restarts observed (must equal `node_crashes` after the run).
    pub node_restarts: u64,
    /// Paths declared dead by retransmission exhaustion.
    pub path_deaths: u64,
    /// Rail failovers performed.
    pub rail_failovers: u64,
    /// Epoch resyncs completed (go-back-N handshakes).
    pub epoch_resyncs: u64,
    /// Stale-epoch packets counted and dropped.
    pub stale_epoch_drops: u64,
    /// Packets dropped at downed links.
    pub link_down_drops: u64,
    /// Packets dropped at dead switch ports.
    pub dead_port_drops: u64,
    /// Packets dropped at crashed nodes.
    pub node_down_drops: u64,
    /// RPC requests terminated as dead-destination.
    pub rpc_dead_dests: u64,
    /// Watchdog stalls (0 once recovery works).
    pub watchdog_stalls: u64,
    /// Path-death-to-resync recovery latency, median (µs).
    pub recovery_p50_us: f64,
    /// Recovery latency, 99th percentile (µs).
    pub recovery_p99_us: f64,
    /// Worst recovery latency (µs).
    pub recovery_max_us: f64,
}

impl ChaosReport {
    /// Assemble the report from `sim`'s metrics registry.
    pub fn gather(sim: &Sim, variant: &str, seed: u64) -> ChaosReport {
        let snap = sim.metrics().snapshot();
        let (p50, p99, max) = snap
            .histograms
            .get("chaos.recovery_ns")
            .filter(|h| h.count > 0)
            .map_or((0.0, 0.0, 0.0), |h| {
                (h.p50() / 1_000.0, h.p99() / 1_000.0, h.max as f64 / 1_000.0)
            });
        ChaosReport {
            variant: variant.to_string(),
            seed,
            injected: snap.counter("chaos.faults"),
            skipped: snap.counter("chaos.skipped"),
            link_down: snap.counter("chaos.link_down"),
            link_up: snap.counter("chaos.link_up"),
            port_dead: snap.counter("chaos.port_dead"),
            nic_resets: snap.counter("mcp.nic_resets"),
            node_crashes: snap.counter("mcp.node_crashes"),
            node_restarts: snap.counter("mcp.node_restarts"),
            path_deaths: snap.counter("mcp.path_deaths"),
            rail_failovers: snap.counter("mcp.rail_failovers"),
            epoch_resyncs: snap
                .histograms
                .get("chaos.recovery_ns")
                .map_or(0, |h| h.count),
            stale_epoch_drops: snap.counter("mcp.stale_epoch_drops"),
            link_down_drops: snap.counter("link.down_drops"),
            dead_port_drops: snap.counter("switch.dead_port_drop"),
            node_down_drops: snap.counter("mcp.node_down_drops"),
            rpc_dead_dests: snap.counter("rpc.cli_dead_dest"),
            watchdog_stalls: snap.counter("watchdog.stalls"),
            recovery_p50_us: p50,
            recovery_p99_us: p99,
            recovery_max_us: max,
        }
    }

    /// Stable JSON (fixed key order, `{:.3}` floats, trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"variant\": \"{}\",", self.variant);
        let _ = writeln!(o, "  \"seed\": {},", self.seed);
        let _ = writeln!(o, "  \"injected\": {},", self.injected);
        let _ = writeln!(o, "  \"skipped\": {},", self.skipped);
        let _ = writeln!(o, "  \"link_down\": {},", self.link_down);
        let _ = writeln!(o, "  \"link_up\": {},", self.link_up);
        let _ = writeln!(o, "  \"port_dead\": {},", self.port_dead);
        let _ = writeln!(o, "  \"nic_resets\": {},", self.nic_resets);
        let _ = writeln!(o, "  \"node_crashes\": {},", self.node_crashes);
        let _ = writeln!(o, "  \"node_restarts\": {},", self.node_restarts);
        let _ = writeln!(o, "  \"path_deaths\": {},", self.path_deaths);
        let _ = writeln!(o, "  \"rail_failovers\": {},", self.rail_failovers);
        let _ = writeln!(o, "  \"epoch_resyncs\": {},", self.epoch_resyncs);
        let _ = writeln!(o, "  \"stale_epoch_drops\": {},", self.stale_epoch_drops);
        let _ = writeln!(o, "  \"link_down_drops\": {},", self.link_down_drops);
        let _ = writeln!(o, "  \"dead_port_drops\": {},", self.dead_port_drops);
        let _ = writeln!(o, "  \"node_down_drops\": {},", self.node_down_drops);
        let _ = writeln!(o, "  \"rpc_dead_dests\": {},", self.rpc_dead_dests);
        let _ = writeln!(o, "  \"watchdog_stalls\": {},", self.watchdog_stalls);
        let _ = writeln!(o, "  \"recovery_p50_us\": {:.3},", self.recovery_p50_us);
        let _ = writeln!(o, "  \"recovery_p99_us\": {:.3},", self.recovery_p99_us);
        let _ = writeln!(o, "  \"recovery_max_us\": {:.3}", self.recovery_max_us);
        o.push_str("}\n");
        o
    }

    /// Write as the `chaos` artifact `file_stem` and return the path.
    pub fn write_named(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        suca_sim::artifact::write_artifact("chaos", file_stem, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_are_deterministic_and_sorted() {
        let build = || {
            StormBuilder::new(7)
                .link_flaps(
                    0,
                    &[1, 2, 3],
                    3,
                    (SimTime::from_ns(1_000), SimTime::from_ns(9_000)),
                    (SimDuration::from_ns(100), SimDuration::from_ns(500)),
                )
                .nic_resets(
                    &[0, 1],
                    2,
                    (SimTime::from_ns(2_000), SimTime::from_ns(8_000)),
                )
                .node_crashes(
                    &[2],
                    1,
                    (SimTime::from_ns(3_000), SimTime::from_ns(7_000)),
                    (SimDuration::from_ns(1_000), SimDuration::from_ns(2_000)),
                )
                .build()
        };
        let a = build();
        let b = build();
        assert_eq!(a.events.len(), 6);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.fault, y.fault);
        }
        assert_eq!(a.kind_counts(), (3, 0, 2, 1));
    }

    #[test]
    fn port_death_instant_lands_on_the_fabric_track() {
        // Switch 1 port 3 is node 9's cable; node 1 has nothing to do with it.
        let cluster = suca_cluster::ClusterSpec::dawning3000(14).build();
        let mut plan = ChaosPlan::new();
        let port_death = Fault::SwitchPortDeath {
            rail: 0,
            switch: 1,
            port: 3,
        };
        plan.push(SimTime::from_ns(1_000), port_death);
        ChaosController::install(&cluster, &plan);
        cluster.sim.run();
        assert_eq!(cluster.sim.get_count("chaos.port_dead"), 1);
        let deaths: Vec<u32> = cluster
            .trace_events()
            .iter()
            .filter(|e| e.stage == stage::CHAOS_PORT_DEAD)
            .map(|e| e.node)
            .collect();
        assert_eq!(deaths, [FABRIC_NODE], "not on node 1's track");
    }

    #[test]
    fn plan_push_keeps_time_order() {
        let mut p = ChaosPlan::new();
        p.push(SimTime::from_ns(500), Fault::NicReset { node: 1 });
        p.push(SimTime::from_ns(100), Fault::NicReset { node: 2 });
        p.push(SimTime::from_ns(300), Fault::NicReset { node: 3 });
        let order: Vec<u64> = p.events.iter().map(|e| e.at.as_ns()).collect();
        assert_eq!(order, vec![100, 300, 500]);
    }

    #[test]
    fn report_json_is_stable() {
        let r = ChaosReport {
            variant: "storm".into(),
            seed: 42,
            injected: 5,
            skipped: 0,
            link_down: 2,
            link_up: 2,
            port_dead: 1,
            nic_resets: 1,
            node_crashes: 1,
            node_restarts: 1,
            path_deaths: 3,
            rail_failovers: 3,
            epoch_resyncs: 3,
            stale_epoch_drops: 7,
            link_down_drops: 20,
            dead_port_drops: 4,
            node_down_drops: 11,
            rpc_dead_dests: 2,
            watchdog_stalls: 0,
            recovery_p50_us: 412.5,
            recovery_p99_us: 901.25,
            recovery_max_us: 910.0,
        };
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        assert!(j.contains("\"recovery_p99_us\": 901.250,"));
        assert!(j.ends_with("\"recovery_max_us\": 910.000\n}\n"));
        assert_eq!(suca_sim::artifact::validate_json(&j), Ok(()));
        for key in [
            "variant",
            "seed",
            "injected",
            "skipped",
            "link_down",
            "link_up",
            "port_dead",
            "nic_resets",
            "node_crashes",
            "node_restarts",
            "path_deaths",
            "rail_failovers",
            "epoch_resyncs",
            "stale_epoch_drops",
            "link_down_drops",
            "dead_port_drops",
            "node_down_drops",
            "rpc_dead_dests",
            "watchdog_stalls",
            "recovery_p50_us",
            "recovery_p99_us",
            "recovery_max_us",
        ] {
            assert!(j.contains(&format!("\n  \"{key}\": ")), "missing {key}");
        }
    }
}

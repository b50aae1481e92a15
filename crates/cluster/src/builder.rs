//! Cluster construction.

use std::rc::Rc;

use suca_bcl::{Architecture, BclConfig};
use suca_mesh::{Mesh, MeshConfig};
use suca_myrinet::{Myrinet, MyrinetConfig, Network};
use suca_os::{NodeId, OsCostModel, OsPersonality};
use suca_sim::{ActorCtx, ActorId, HealthRule, Sim, TelemetryConfig};

use crate::node::{ClusterNode, ProcessEnv};

/// Which system-area network to build.
#[derive(Clone, Debug)]
pub enum SanKind {
    /// Myrinet (the default on DAWNING-3000).
    Myrinet(MyrinetConfig),
    /// The custom nwrc 2-D mesh.
    Mesh(MeshConfig),
}

/// Everything needed to stand up a cluster.
///
/// ```
/// use suca_cluster::ClusterSpec;
/// use suca_sim::RunOutcome;
///
/// let cluster = ClusterSpec::dawning3000(2).build();
/// cluster.spawn_process(0, "hello", |ctx, env| {
///     let port = env.open_port(ctx); // one kernel trap
///     assert_eq!(port.addr().node.0, 0);
/// });
/// assert_eq!(cluster.sim.run(), RunOutcome::Completed);
/// ```
#[derive(Clone)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// Network choice.
    pub san: SanKind,
    /// Optional second rail: every NIC also attaches to this fabric and
    /// fails over to it when the MCP declares a path dead. `None` (the
    /// default) keeps the classic single-rail machine byte-identical.
    pub san2: Option<SanKind>,
    /// Host OS flavor.
    pub personality: OsPersonality,
    /// Kernel cost model.
    pub os_costs: OsCostModel,
    /// BCL configuration.
    pub bcl: BclConfig,
    /// Physical memory per node.
    pub mem_bytes: u64,
    /// CPUs per node.
    pub cpus: u32,
    /// Master RNG seed.
    pub seed: u64,
    /// Telemetry sampling period and stall-watchdog thresholds. Armed in
    /// [`ClusterSpec::build`] for every cluster, so all harnesses get the
    /// sampler and the watchdog without opting in.
    pub telemetry: TelemetryConfig,
    /// Enable the engine self-profiler ([`Sim::set_profiling`]) for this
    /// run. Off by default: profiled runs register an extra `sim.prof.*`
    /// telemetry probe, which unprofiled determinism comparisons must not
    /// see.
    pub profile: bool,
    /// Deterministic trace sampling rate in parts-per-million, applied to
    /// the per-message tracer at build time (`None` = record everything).
    /// Sampling is by hash of the chain's `TraceId`, so every hop of an
    /// admitted message is kept on every node and the sampled population is
    /// identical for a fixed seed.
    pub trace_sample_ppm: Option<u32>,
    /// Health rule set ([`Sim::install_health`]). `None` (the default)
    /// leaves the health engine unarmed and registers nothing, keeping
    /// unmonitored harnesses' snapshots byte-identical.
    pub health: Option<Vec<HealthRule>>,
}

impl ClusterSpec {
    /// The DAWNING-3000 configuration: AIX on 4-way Power3 SMPs over
    /// Myrinet, with the paper-calibrated cost models.
    pub fn dawning3000(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            nodes,
            san: SanKind::Myrinet(MyrinetConfig::dawning3000()),
            san2: None,
            personality: OsPersonality::AIX,
            os_costs: OsCostModel::aix_power3(),
            bcl: BclConfig::dawning3000(),
            mem_bytes: 64 << 20, // plenty for the experiments; real nodes had GBs
            cpus: 4,
            seed: 0xDA3000,
            telemetry: TelemetryConfig::default(),
            profile: false,
            trace_sample_ppm: None,
            health: None,
        }
    }

    /// Same machine, nwrc 2-D mesh SAN.
    pub fn dawning3000_mesh(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            san: SanKind::Mesh(MeshConfig::dawning3000()),
            ..Self::dawning3000(nodes)
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the SAN.
    pub fn with_san(mut self, san: SanKind) -> Self {
        self.san = san;
        self
    }

    /// Attach a second rail (dual-fabric nodes for chaos/failover runs).
    /// It must be a *different* fabric kind than the primary
    /// ([`ClusterSpec::build`] refuses otherwise): link labels name the
    /// per-link telemetry probes and the `link:{label}` fault streams, and
    /// two fabrics of one kind would share both. Heterogeneous rails are
    /// also the paper's story: the same binary runs over Myrinet or the nwrc
    /// mesh.
    pub fn with_second_san(mut self, san: SanKind) -> Self {
        self.san2 = Some(san);
        self
    }

    /// Override the BCL config (the translation ablation's pin-table
    /// sizes, and tests).
    pub fn with_bcl(mut self, bcl: BclConfig) -> Self {
        self.bcl = bcl;
        self
    }

    /// Run `arch` on this machine: BCL's preset for it
    /// ([`BclConfig::for_architecture`]), and an OS with device `mmap` when
    /// user code touches the NIC (AIX has none).
    pub fn with_architecture(mut self, arch: Architecture) -> Self {
        self.bcl = BclConfig::for_architecture(arch);
        if arch.user_nic_access() {
            self.personality = OsPersonality::LINUX;
        }
        self
    }

    /// Override the telemetry/watchdog configuration (fault-injection tests
    /// tighten the thresholds to trip the watchdog within a short run).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enable the engine self-profiler for this run (see
    /// [`Sim::set_profiling`]).
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Sample the per-message tracer at `rate_ppm` parts-per-million
    /// (deterministic by-`TraceId` hash; `1_000_000` records everything).
    /// The flight recorder stays armed either way — `TraceId::NONE` events
    /// always record.
    pub fn with_trace_sampling(mut self, rate_ppm: u32) -> Self {
        self.trace_sample_ppm = Some(rate_ppm);
        self
    }

    /// Install a health rule set for this run (see [`suca_sim::health`]).
    /// The engine arms at build time, before any traffic, so its SLO
    /// windows cover the whole run.
    pub fn with_health(mut self, rules: Vec<HealthRule>) -> Self {
        self.health = Some(rules);
        self
    }

    /// Build the cluster. Every layer (OS, kernel module, MCP, fabric, DMA
    /// engines, completion queues) registers its instruments in the run's
    /// shared [`suca_sim::Metrics`] registry, reachable afterwards via
    /// [`Cluster::metrics_snapshot`].
    ///
    /// Panics when the architecture cannot exist on the host OS
    /// ([`Architecture::check_os`]), or when the second rail is the
    /// primary's kind ([`ClusterSpec::with_second_san`]).
    pub fn build(self) -> Cluster {
        if let Err(e) = self.bcl.arch.check_os(&self.personality) {
            panic!("{e}");
        }
        if let Some(san2) = &self.san2 {
            assert!(
                std::mem::discriminant(san2) != std::mem::discriminant(&self.san),
                "the second rail must be a different SAN kind than the primary: \
                 one kind's link labels would repeat on both rails"
            );
        }
        let sim = Sim::new(self.seed);
        if self.profile {
            sim.set_profiling(true);
        }
        if let Some(ppm) = self.trace_sample_ppm {
            sim.msg_trace()
                .set_sampling(suca_sim::mtrace::SampleSpec::ratio_ppm(ppm).with_seed(self.seed));
        }
        let metrics = sim.metrics();
        metrics.set_meta("nodes", self.nodes.to_string());
        metrics.set_meta(
            "san",
            match &self.san {
                SanKind::Myrinet(_) => "myrinet",
                SanKind::Mesh(_) => "mesh",
            },
        );
        let build_san = |san: &SanKind| -> Rc<Network> {
            match san {
                SanKind::Myrinet(cfg) => Myrinet::build(&sim, self.nodes, cfg.clone()),
                SanKind::Mesh(cfg) => Mesh::build_square(&sim, self.nodes, cfg.clone()),
            }
        };
        let fabric = build_san(&self.san);
        let mut rails = vec![fabric.clone()];
        if let Some(san2) = &self.san2 {
            rails.push(build_san(san2));
        }
        let nodes = (0..self.nodes)
            .map(|i| {
                ClusterNode::new(
                    &sim,
                    NodeId(i),
                    rails.clone(),
                    self.nodes,
                    self.mem_bytes,
                    self.cpus,
                    self.personality,
                    self.os_costs.clone(),
                    self.bcl.clone(),
                )
            })
            .collect();
        // Every layer has registered its probes by now; arm health (so
        // saturation rules see every probe) and then the sampler + stall
        // watchdog that drive it.
        if let Some(rules) = &self.health {
            sim.install_health(rules.clone());
        }
        sim.start_telemetry(self.telemetry.clone());
        Cluster {
            sim,
            nodes,
            fabric,
            rails,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    /// The simulation.
    pub sim: Sim,
    /// All nodes, indexed by node id.
    pub nodes: Vec<Rc<ClusterNode>>,
    /// The primary SAN (rail 0).
    pub fabric: Rc<Network>,
    /// Every rail, primary first. Single-rail clusters have one entry.
    pub rails: Vec<Rc<Network>>,
}

impl Cluster {
    /// Spawn an application process on `node` as a simulation actor. The
    /// body receives the actor context and a [`ProcessEnv`].
    pub fn spawn_process(
        &self,
        node: u32,
        name: impl Into<String>,
        body: impl FnOnce(&mut ActorCtx, ProcessEnv) + 'static,
    ) -> ActorId {
        let n = self.nodes[node as usize].clone();
        let proc = n.create_process();
        self.sim
            .spawn(name, move |ctx| body(ctx, ProcessEnv { node: n, proc }))
    }

    /// Point-in-time copy of every instrument registered by any layer of
    /// this cluster; serializes to JSON for the experiment harnesses.
    pub fn metrics_snapshot(&self) -> suca_sim::MetricsSnapshot {
        self.sim.metrics_snapshot()
    }

    /// All buffered per-message trace events, merged across node rings and
    /// sorted by time (for Perfetto export and the completeness checker).
    pub fn trace_events(&self) -> Vec<suca_sim::TraceEvent> {
        self.sim.trace_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_sim::RunOutcome;

    #[test]
    fn builds_both_sans() {
        for spec in [
            ClusterSpec::dawning3000(4),
            ClusterSpec::dawning3000_mesh(4),
        ] {
            let c = spec.build();
            assert_eq!(c.nodes.len(), 4);
            assert_eq!(c.fabric.num_nodes(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "the second rail must be a different SAN kind than the primary")]
    fn same_kind_second_rail_is_refused() {
        let _ = ClusterSpec::dawning3000(4)
            .with_second_san(SanKind::Myrinet(MyrinetConfig::dawning3000()))
            .build();
    }

    #[test]
    fn spawned_processes_run() {
        let c = ClusterSpec::dawning3000(2).build();
        c.spawn_process(0, "hello", |ctx, env| {
            assert_eq!(env.node.os.node_id.0, 0);
            let _port = env.open_port(ctx);
        });
        assert_eq!(c.sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn every_layer_registers_instruments() {
        let c = ClusterSpec::dawning3000(2).build();
        c.spawn_process(0, "noop", |ctx, env| {
            let _port = env.open_port(ctx);
        });
        assert_eq!(c.sim.run(), RunOutcome::Completed);
        let snap = c.metrics_snapshot();
        // One prefix per reporting subsystem: kernel module, OS, MCP
        // protocol + firmware, fabric links/switches, DMA engines.
        for prefix in [
            "kmod.", "os.", "bcl.", "mcp.", "fabric.", "link.", "switch.", "dma.",
        ] {
            assert!(
                snap.counters.keys().any(|k| k.starts_with(prefix)),
                "no counter registered under {prefix}"
            );
        }
        assert!(
            snap.counter_count() >= 20,
            "expected >= 20 distinct counters, got {}",
            snap.counter_count()
        );
        assert!(
            snap.gauges.contains_key("cq.recv_depth"),
            "completion-queue gauges missing"
        );
        assert_eq!(snap.meta.get("san").map(String::as_str), Some("myrinet"));
        let json = snap.to_json();
        assert!(json.contains("\"os.traps\""));
    }
}

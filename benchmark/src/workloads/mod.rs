//! The seven workloads and the harness they share.
//!
//! A workload is a function from a seed to a built cluster plus actors
//! that the benchmark itself wrote; the stack only ever sees the generated
//! inputs. Each one is described where it is defined and, with the reason
//! it was chosen, in `benchmark/README.md`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use suca_cluster::{Cluster, ClusterSpec, SimBarrier};
use suca_sim::{
    ActorCtx, MetricsSnapshot, ProfReport, RunOutcome, SimDuration, TelemetryConfig, TraceEvent,
};

use crate::spans::Recorder;
use crate::sys;

pub mod coll;
pub mod kv;
pub mod pingpong;
pub mod ring;
pub mod stream;

/// Telemetry sampling period used by every workload, in virtual µs. Fixed
/// (and printed) because the sampler's tick count is part of `sim.events`.
pub const TELEMETRY_PERIOD_US: u64 = 1_000;

/// The workloads, in the order they are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingpongSmall,
    StreamLarge,
    RingStorm512,
    KvClosed32,
    KvOpenSweep8,
    CollMesh256,
    KvLoss5x4,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 7] = [
        Workload::PingpongSmall,
        Workload::StreamLarge,
        Workload::RingStorm512,
        Workload::KvClosed32,
        Workload::KvOpenSweep8,
        Workload::CollMesh256,
        Workload::KvLoss5x4,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::StreamLarge => "stream_large",
            Workload::RingStorm512 => "ring_storm_512",
            Workload::KvClosed32 => "kv_closed_32",
            Workload::KvOpenSweep8 => "kv_open_sweep_8",
            Workload::CollMesh256 => "coll_mesh_256",
            Workload::KvLoss5x4 => "kv_loss5_4",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A clean workload must finish with zero interrupts and zero watchdog
    /// stalls. The overload sweep and the lossy fabric are not expected to;
    /// a hang there still fails `RunOutcome::Completed`.
    pub fn is_clean(self) -> bool {
        !matches!(self, Workload::KvOpenSweep8 | Workload::KvLoss5x4)
    }

    /// Run one rep of this workload.
    pub fn run(self, h: &mut Harness) -> Outcome {
        match self {
            Workload::PingpongSmall => pingpong::run(h),
            Workload::StreamLarge => stream::run(h),
            Workload::RingStorm512 => ring::run(h),
            Workload::KvClosed32 => kv::run_closed_32(h),
            Workload::KvOpenSweep8 => kv::run_open_sweep_8(h),
            Workload::CollMesh256 => coll::run(h),
            Workload::KvLoss5x4 => kv::run_loss5_4(h),
        }
    }
}

/// What one rep of a workload reports, in virtual time and counts only.
#[derive(Default)]
pub struct Outcome {
    /// Operations the generator scheduled.
    pub attempted: u64,
    /// Operations that completed with every byte verified.
    pub ok: u64,
    /// Operations that ended in a way the workload does not allow (bad
    /// payload everywhere; shed, timed out or refused on every workload
    /// except the deliberate overload steps of `kv_open_sweep_8`).
    pub failed: u64,
    /// Verified payload bytes.
    pub payload_bytes: u64,
    /// Per-op latency samples, virtual ns.
    pub lat_ns: Vec<u64>,
    /// Virtual length of the measured phase, ns.
    pub phase_ns: u64,
    /// Operations the phase counters below cover, when that is not all of
    /// `attempted` (a rep of several simulations); 0 means all.
    pub phase_ops: u64,
    /// Counter increments during the measured phase.
    pub phase_counters: BTreeMap<String, u64>,
    /// Physical frames allocated (all nodes) during the measured phase.
    pub phase_frames: u64,
    /// Workload-specific per-layer values (`bcl.paper_lat0_err_pct`, …).
    pub layer: BTreeMap<&'static str, f64>,
    /// Correctness-gate failures; empty means the rep passed.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a correctness failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }
}

/// What one `Sim::run` left behind.
pub struct SimArtifacts {
    pub snapshot: MetricsSnapshot,
    pub trace: Vec<TraceEvent>,
    pub prof: Option<ProfReport>,
    pub events: u64,
    pub sim_ns: u64,
    pub nodes: u32,
    /// Deepest MCP send queue any node showed at a telemetry tick.
    pub send_queue_hw: u64,
}

/// Per-rep state shared by all workloads: the seed, the two clocks'
/// bookkeeping, the span recorder, and what the last simulation left.
pub struct Harness {
    pub seed: u64,
    pub traced: bool,
    pub rec: Recorder,
    mark: Instant,
    pub setup: Duration,
    pub wall: Duration,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub voluntary_switches: u64,
    pub events: u64,
    pub threads: u64,
    /// Artifacts of every simulation run this rep, in order.
    pub sims: Vec<SimArtifacts>,
}

impl Harness {
    /// `start` is the moment the child process entered `main`.
    pub fn new(seed: u64, traced: bool, start: Instant) -> Harness {
        Harness {
            seed,
            traced,
            rec: Recorder::new(traced, start),
            mark: start,
            setup: Duration::ZERO,
            wall: Duration::ZERO,
            cpu_user_s: 0.0,
            cpu_sys_s: 0.0,
            voluntary_switches: 0,
            events: 0,
            threads: 0,
            sims: Vec::new(),
        }
    }

    /// Apply the run protocol to a cluster spec: the rep's seed, the fixed
    /// telemetry period, health off, and tracing + profiling either fully
    /// off (timed reps) or fully on (the traced rep).
    pub fn spec(&self, base: ClusterSpec) -> ClusterSpec {
        base.with_seed(self.seed)
            .with_telemetry(TelemetryConfig {
                sample_period: SimDuration::from_us(TELEMETRY_PERIOD_US),
                ..TelemetryConfig::default()
            })
            .with_trace_sampling(if self.traced { 1_000_000 } else { 0 })
            .with_profiling(self.traced)
    }

    /// Build a cluster; set-up time keeps running until [`Harness::run`].
    pub fn build(&self, spec: ClusterSpec) -> Cluster {
        let cluster = self.spec(spec).build();
        if self.traced {
            // The completeness check needs whole chains: never evict.
            cluster.sim.msg_trace().set_capacity(usize::MAX / 2);
        }
        cluster
    }

    /// Start timing the set-up of a further simulation in the same rep
    /// (the first one is timed from process start).
    pub fn begin_setup(&mut self) {
        self.mark = Instant::now();
    }

    /// Time `Sim::run` on the host clock and keep what it produced.
    pub fn run(&mut self, cluster: &Cluster, out: &mut Outcome) {
        self.threads = self.threads.max(sys::proc_status("Threads").unwrap_or(0));
        self.setup += self.mark.elapsed();
        let ru0 = sys::rusage();
        let t0 = Instant::now();
        let outcome = cluster.sim.run();
        self.wall += t0.elapsed();
        let ru1 = sys::rusage();
        self.cpu_user_s += ru1.user_s - ru0.user_s;
        self.cpu_sys_s += ru1.sys_s - ru0.sys_s;
        self.voluntary_switches += ru1.voluntary_switches - ru0.voluntary_switches;
        if outcome != RunOutcome::Completed {
            out.fail(format!("Sim::run ended {outcome:?}, not Completed"));
        }
        let events = cluster.sim.events_dispatched();
        self.events += events;
        self.sims.push(SimArtifacts {
            snapshot: cluster.metrics_snapshot(),
            trace: if self.traced {
                cluster.trace_events()
            } else {
                Vec::new()
            },
            prof: self.traced.then(|| cluster.sim.prof_report()),
            events,
            sim_ns: cluster.sim.now().as_ns(),
            nodes: cluster.nodes.len() as u32,
            send_queue_hw: cluster
                .sim
                .timeseries()
                .snapshot()
                .series
                .iter()
                .filter(|s| s.name.ends_with(".mcp.send_queue"))
                .flat_map(|s| s.points.iter().map(|p| p.1))
                .max()
                .unwrap_or(0),
        });
    }
}

/// Counter values, allocated frames and the virtual clock at one instant.
#[derive(Clone, Default)]
struct Mark {
    counters: BTreeMap<String, u64>,
    frames: u64,
    now_ns: u64,
}

/// Brackets the measured phase of a simulation so that per-op ratios
/// (traps, link bytes, frames) exclude port opens, buffer posts and
/// teardown. Barriers cost no virtual time; the leader takes its marks
/// while every other participant is parked in the second barrier.
#[derive(Clone)]
pub struct Phase {
    gather: SimBarrier,
    release: SimBarrier,
    finish: SimBarrier,
    memories: Arc<Vec<suca_mem::PhysMemory>>,
    marks: Arc<Mutex<(Mark, Mark)>>,
}

impl Phase {
    /// `starters` actors call [`Phase::enter`]; `finishers` of them also
    /// call [`Phase::exit`] (servers that idle out on their own do not).
    pub fn new(cluster: &Cluster, starters: u32, finishers: u32) -> Phase {
        Phase {
            gather: SimBarrier::new(&cluster.sim, starters),
            release: SimBarrier::new(&cluster.sim, starters),
            finish: SimBarrier::new(&cluster.sim, finishers),
            memories: Arc::new(
                cluster
                    .nodes
                    .iter()
                    .map(|n| n.os.memory().clone())
                    .collect(),
            ),
            marks: Arc::new(Mutex::new((Mark::default(), Mark::default()))),
        }
    }

    fn mark(&self, ctx: &ActorCtx) -> Mark {
        Mark {
            counters: ctx.sim().metrics().counter_values(),
            frames: self.memories.iter().map(|m| m.allocated_frames()).sum(),
            now_ns: ctx.now().as_ns(),
        }
    }

    /// Wait for every starter, then begin the measured phase.
    pub fn enter(&self, ctx: &mut ActorCtx, leader: bool) {
        self.gather.wait(ctx);
        if leader {
            let m = self.mark(ctx);
            self.marks.lock().expect("phase marks poisoned").0 = m;
        }
        self.release.wait(ctx);
    }

    /// Wait for every finisher; the measured phase ends when the last one
    /// arrives.
    pub fn exit(&self, ctx: &mut ActorCtx, leader: bool) {
        self.finish.wait(ctx);
        if leader {
            let m = self.mark(ctx);
            self.marks.lock().expect("phase marks poisoned").1 = m;
        }
    }

    /// Fill the phase fields of `out` from the two marks.
    pub fn collect(&self, out: &mut Outcome) {
        let marks = self.marks.lock().expect("phase marks poisoned");
        let (start, end) = (&marks.0, &marks.1);
        out.phase_ns = end.now_ns.saturating_sub(start.now_ns);
        out.phase_frames = end.frames.saturating_sub(start.frames);
        out.phase_counters = end
            .counters
            .iter()
            .map(|(k, v)| {
                let before = start.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        if out.phase_ns == 0 {
            out.fail("measured phase has zero virtual length");
        }
    }
}

/// Block until a message arrives on `port`, on behalf of op `op`.
///
/// Built from the non-blocking polls so that the spans show the library's
/// own cost, not the wait: an empty poll costs no virtual time, and send
/// completions are drained while the message is still in flight, so
/// neither sits inside an op's latency.
pub fn recv_polled(
    ctx: &mut ActorCtx,
    port: &suca_bcl::BclPort,
    log: &mut crate::spans::SpanLog,
    op: u64,
) -> suca_bcl::RecvEvent {
    loop {
        if let Some(ev) = log.poll(ctx, "bcl.poll_recv", op, |ctx| port.poll_recv(ctx)) {
            return ev;
        }
        while log
            .poll(ctx, "bcl.poll_send", op, |ctx| port.poll_send(ctx))
            .is_some()
        {}
        port.wait_event(ctx);
    }
}

/// Consume send completions until the port stays quiet for `grace`, so
/// every chain this actor started closes with a user poll.
pub fn drain_sends(ctx: &mut ActorCtx, port: &suca_bcl::BclPort, grace: SimDuration) {
    while port.wait_send_timeout(ctx, grace).is_some() {}
}

/// Deterministic payload bytes for `(seed, stream)`: what the sender
/// writes and what the receiver, knowing only the seed, checks against.
pub fn pattern(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = suca_sim::SimRng::fork(seed, &format!("bench.pattern.{stream}"));
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Shared slot table for per-op send stamps `(virtual ns, host ns)`,
/// written by the sending actor and read by the receiving one.
pub type Stamps = Arc<Mutex<Vec<(u64, u64)>>>;

/// A stamp table with `n` empty slots.
pub fn stamps(n: usize) -> Stamps {
    Arc::new(Mutex::new(vec![(0, 0); n]))
}

/// Results the actors of one simulation accumulate into.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    pub payload_bytes: u64,
    pub lat_ns: Vec<u64>,
    /// Latency samples again, split by op class (`get`, `barrier`, …).
    pub by_class: BTreeMap<&'static str, Vec<u64>>,
    pub errors: Vec<String>,
}

/// A shareable [`Tally`].
pub type SharedTally = Arc<Mutex<Tally>>;

impl Tally {
    /// Count one verified op.
    pub fn record(&mut self, class: &'static str, lat_ns: u64, payload_bytes: u64) {
        self.ok += 1;
        self.payload_bytes += payload_bytes;
        self.lat_ns.push(lat_ns);
        self.by_class.entry(class).or_default().push(lat_ns);
    }

    /// Fold another actor's results into this one.
    pub fn merge(&mut self, mut other: Tally) {
        self.ok += other.ok;
        self.payload_bytes += other.payload_bytes;
        self.lat_ns.append(&mut other.lat_ns);
        for (class, mut v) in other.by_class {
            self.by_class.entry(class).or_default().append(&mut v);
        }
        self.errors.append(&mut other.errors);
    }

    /// Take the shared tally out once the simulation has ended.
    pub fn take(shared: &SharedTally) -> Tally {
        std::mem::take(&mut *shared.lock().expect("tally poisoned"))
    }
}

impl Outcome {
    /// Fold the actors' tally in; whatever was attempted and did not end
    /// verified counts as failed.
    pub fn absorb(&mut self, t: Tally) -> BTreeMap<&'static str, Vec<u64>> {
        self.ok += t.ok;
        self.payload_bytes += t.payload_bytes;
        self.lat_ns.extend(t.lat_ns);
        self.errors.extend(t.errors);
        self.failed = self.attempted - self.ok.min(self.attempted);
        t.by_class
    }
}

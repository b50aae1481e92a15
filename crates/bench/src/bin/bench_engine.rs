//! Event-engine scalability benchmark: a neighbor-ring message storm
//! through the full stack (BCL library, kernel trap, MCP firmware rings,
//! fabric) at 32/128/512/1,024 nodes on both SANs, timed against the wall
//! clock.
//!
//! Every node runs one process that sends `SUCA_BENCH_ENGINE_MSGS`
//! (default 4) small messages to its right neighbor and receives as many
//! from its left — all-to-neighbor traffic, one actor thread per node.
//! Three throughput numbers per `(fabric, nodes)` cell:
//!
//! * **sim-events/sec** — raw engine dispatch rate (`events_dispatched`
//!   over wall time);
//! * **delivered-messages/sec** — end-to-end message rate;
//! * **wall-clock ms** — time for `Sim::run` on this host.
//!
//! Before the sweep, the 32-node cells assert that a run, a rerun and a
//! profiled run produce byte-identical metrics snapshots and identical
//! event counts.
//!
//! Sweep rows run with the engine self-profiler on: each cell's full
//! report lands in `<prof_dir>/engine_<fabric>_<nodes>.json` and a
//! summary is merged into the row. The 512-node cells must attribute
//! ≥ 80% of scheduler wall clock to named phases. At 1,024 nodes the run
//! switches to fleet mode — 1% deterministic trace sampling plus the
//! timeseries rollup — and must pass the sampled crossing-budget check
//! while emitting < 10% of the unsampled 32-node baseline's observability
//! bytes per delivered message.
//!
//! The machine-readable report lands in `<bench_dir>/BENCH_engine.json`
//! (`SUCA_BENCH_DIR` overrides the directory; CI points it at the
//! workspace root and archives the file per PR, giving the perf
//! trajectory a paper trail). The host/rustc/thread metadata makes rows
//! comparable across machines.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use suca_bcl::{ChannelId, ProcAddr};
use suca_bench::report::{bench_dir, host_meta, prof_dir, timeseries_dir, traces_dir};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::mtrace::{check_completeness_sampled, ChainPolicy, SampleSpec};
use suca_sim::{ProfReport, RunOutcome, SimDuration, TelemetryConfig};

const SEED: u64 = 0xE7617E; // "engine"
const PAYLOAD: usize = 512;
/// Fleet-mode trace sampling rate (1%) applied at the largest node count.
const FLEET_SAMPLE_PPM: u32 = 10_000;
/// Node count at which the bench switches to fleet-mode observability.
const FLEET_NODES: u32 = 1024;

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One `(fabric, nodes)` measurement.
struct Row {
    nodes: u32,
    fabric: &'static str,
    sim_events: u64,
    delivered_msgs: u64,
    wall_ms: f64,
    events_per_sec: f64,
    msgs_per_sec: f64,
    sim_us: f64,
    trace_sample_ppm: u32,
    /// Self-profiler summary (None for unprofiled cross-check runs).
    prof: Option<ProfReport>,
    /// Observability artifact bytes (trace + timeseries + metrics JSON),
    /// when this run captured them.
    obs_bytes: Option<u64>,
}

/// Everything a run produces: the measured row plus the byte artifacts the
/// determinism cross-checks compare and the observability-size audit sums.
struct RunResult {
    row: Row,
    metrics_json: String,
    /// `(trace_json, timeseries_or_rollup_json)` when observability output
    /// was captured.
    obs: Option<(String, String)>,
    /// Violations from the sampled crossing-budget check (sampled runs).
    sampled_violations: Option<Vec<String>>,
}

/// How to run one cell.
#[derive(Clone, Copy)]
struct RunOpts {
    msgs: u32,
    profile: bool,
    /// Trace sampling rate (None = record everything).
    sample_ppm: Option<u32>,
    /// Capture trace/timeseries artifacts and (for sampled runs) the
    /// sampled completeness check. Rollup timeseries for >= 512 nodes,
    /// full snapshot below.
    capture_obs: bool,
}

impl RunOpts {
    fn plain(msgs: u32) -> RunOpts {
        RunOpts {
            msgs,
            profile: false,
            sample_ppm: None,
            capture_obs: false,
        }
    }
}

fn spec_for(fabric: &'static str, nodes: u32) -> ClusterSpec {
    let base = match fabric {
        "myrinet" => ClusterSpec::dawning3000(nodes),
        "mesh" => ClusterSpec::dawning3000_mesh(nodes),
        other => panic!("unknown fabric {other}"),
    };
    // Sample telemetry at 1 ms instead of the default 10 µs: at 1,024
    // nodes the probe registry is thousands of entries and per-10 µs
    // sampling would measure the sampler, not the engine.
    base.with_seed(SEED).with_telemetry(TelemetryConfig {
        sample_period: SimDuration::from_ms(1),
        ..TelemetryConfig::default()
    })
}

/// Run the neighbor ring and measure.
fn run_ring(fabric: &'static str, nodes: u32, opts: RunOpts) -> RunResult {
    let mut spec = spec_for(fabric, nodes).with_profiling(opts.profile);
    if let Some(ppm) = opts.sample_ppm {
        spec = spec.with_trace_sampling(ppm);
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let msgs = opts.msgs;
    let barrier = SimBarrier::new(&sim, nodes);
    let addrs: Arc<Mutex<Vec<Option<ProcAddr>>>> = Arc::new(Mutex::new(vec![None; nodes as usize]));
    let delivered = Arc::new(Mutex::new(0u64));
    for node in 0..nodes {
        let (b, a, d) = (barrier.clone(), addrs.clone(), delivered.clone());
        cluster.spawn_process(node, "ring", move |ctx, env| {
            let port = env.open_port(ctx);
            a.lock().unwrap()[node as usize] = Some(port.addr());
            // One channel per in-flight message: a channel holds a single
            // outstanding recv, so message i rides channel i.
            for i in 0..msgs {
                port.post_recv(ctx, i as u16, PAYLOAD as u64)
                    .expect("post recv");
            }
            b.wait(ctx);
            let right = a.lock().unwrap()[((node + 1) % nodes) as usize].expect("neighbor up");
            let payload = vec![node as u8; PAYLOAD];
            for i in 0..msgs {
                port.send_bytes(ctx, right, ChannelId::normal(i as u16), &payload)
                    .expect("send");
            }
            let mut got = 0u64;
            for _ in 0..msgs {
                let ev = port.wait_recv(ctx);
                assert_eq!(ev.len, PAYLOAD as u64, "short delivery");
                got += 1;
            }
            *d.lock().unwrap() += got;
        });
    }
    let wall = Instant::now();
    assert_eq!(sim.run(), RunOutcome::Completed, "ring workload hung");
    let wall_s = wall.elapsed().as_secs_f64();
    let delivered = *delivered.lock().unwrap();
    assert_eq!(delivered, u64::from(nodes) * u64::from(msgs));
    let sim_events = sim.events_dispatched();
    let metrics_json = cluster.metrics_snapshot().to_json();

    let mut obs = None;
    let mut sampled_violations = None;
    let mut obs_bytes = None;
    if opts.capture_obs {
        let events = sim.trace_events();
        let trace_json = suca_sim::mtrace::to_chrome_json(&events);
        let ts_snap = sim.timeseries().snapshot();
        // Fleet scale bounds the timeseries artifact via the rollup; small
        // runs keep the full per-probe snapshot.
        let ts_json = if nodes >= 512 {
            ts_snap.rollup().to_json()
        } else {
            ts_snap.to_json()
        };
        if let Some(ppm) = opts.sample_ppm {
            let spec = SampleSpec::ratio_ppm(ppm).with_seed(SEED);
            let report = check_completeness_sampled(&events, &ChainPolicy::bcl(), spec);
            sampled_violations = Some(report.violations.clone());
        }
        obs_bytes = Some((trace_json.len() + ts_json.len() + metrics_json.len()) as u64);
        obs = Some((trace_json, ts_json));
    }

    RunResult {
        row: Row {
            nodes,
            fabric,
            sim_events,
            delivered_msgs: delivered,
            wall_ms: wall_s * 1e3,
            events_per_sec: sim_events as f64 / wall_s,
            msgs_per_sec: delivered as f64 / wall_s,
            sim_us: sim.now().as_us(),
            trace_sample_ppm: opts.sample_ppm.unwrap_or(1_000_000),
            prof: opts.profile.then(|| sim.prof_report()),
            obs_bytes,
        },
        metrics_json,
        obs,
        sampled_violations,
    }
}

fn prof_row_json(r: &ProfReport) -> String {
    format!(
        "{{\"attributed_pct\": {:.1}, \"lock_acquisitions\": {}, \"lock_hold_ms\": {:.3}}}",
        r.attributed_pct(),
        r.lock_acquisitions,
        r.lock_hold_ns() as f64 / 1e6,
    )
}

fn to_json(rows: &[Row], msgs: u32) -> String {
    use std::fmt::Write as _;
    let (os, arch, rustc, threads) = host_meta();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"suca.bench_engine.v3\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"msgs_per_node\": {msgs},");
    let _ = writeln!(out, "  \"payload_bytes\": {PAYLOAD},");
    let _ = writeln!(
        out,
        "  \"host\": {{\"os\": \"{os}\", \"arch\": \"{arch}\", \"rustc\": \"{rustc}\", \
         \"threads\": {threads}}},"
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let prof = r
            .prof
            .as_ref()
            .map(prof_row_json)
            .unwrap_or_else(|| "null".to_string());
        let obs = r
            .obs_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = writeln!(
            out,
            "    {{\"nodes\": {}, \"fabric\": \"{}\", \
             \"sim_events\": {}, \"delivered_msgs\": {}, \"wall_ms\": {:.3}, \
             \"events_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}, \"sim_us\": {:.3}, \
             \"trace_sample_ppm\": {}, \"obs_bytes\": {obs}, \"prof\": {prof}}}{comma}",
            r.nodes,
            r.fabric,
            r.sim_events,
            r.delivered_msgs,
            r.wall_ms,
            r.events_per_sec,
            r.msgs_per_sec,
            r.sim_us,
            r.trace_sample_ppm,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let msgs = env_u32("SUCA_BENCH_ENGINE_MSGS", 4);
    let max_nodes = env_u32("SUCA_BENCH_ENGINE_MAX_NODES", 1024);
    println!("-- bench_engine: neighbor-ring storm, {msgs} msgs/node x {PAYLOAD} B\n");

    // Determinism cross-check at the smallest scale, both fabrics: a rerun
    // must reproduce the run byte for byte, and turning the profiler on
    // must perturb nothing.
    let mut baseline_obs_per_msg = f64::MAX;
    for fabric in ["myrinet", "mesh"] {
        let run = run_ring(
            fabric,
            32,
            RunOpts {
                capture_obs: true,
                ..RunOpts::plain(msgs)
            },
        );
        let rerun = run_ring(fabric, 32, RunOpts::plain(msgs));
        assert_eq!(
            run.metrics_json, rerun.metrics_json,
            "{fabric}: run not reproducible at fixed seed"
        );
        assert_eq!(run.row.sim_events, rerun.row.sim_events);
        let profiled = run_ring(
            fabric,
            32,
            RunOpts {
                profile: true,
                ..RunOpts::plain(msgs)
            },
        );
        assert_eq!(
            run.metrics_json, profiled.metrics_json,
            "{fabric}: profiling perturbed the run"
        );
        assert_eq!(run.row.sim_events, profiled.row.sim_events);
        // The unsampled 32-node run is the observability-size baseline the
        // fleet-mode acceptance below is measured against.
        if fabric == "myrinet" {
            let bytes = run.row.obs_bytes.expect("captured") as f64;
            baseline_obs_per_msg = bytes / run.row.delivered_msgs as f64;
            println!(
                "[baseline] myrinet/32 unsampled observability: {:.0} B/msg",
                baseline_obs_per_msg
            );
        }
        println!(
            "[determinism] {fabric}/32: run == rerun == profiled ({} events, {} msgs)",
            run.row.sim_events, run.row.delivered_msgs
        );
    }

    let prof_out = prof_dir();
    std::fs::create_dir_all(&prof_out).expect("create prof dir");
    let mut rows = Vec::new();
    for fabric in ["myrinet", "mesh"] {
        for nodes in [32u32, 128, 512, 1024] {
            if nodes > max_nodes {
                continue;
            }
            let fleet = nodes >= FLEET_NODES;
            let res = run_ring(
                fabric,
                nodes,
                RunOpts {
                    msgs,
                    profile: true,
                    sample_ppm: fleet.then_some(FLEET_SAMPLE_PPM),
                    capture_obs: nodes >= 512,
                },
            );
            let cell = format!("engine_{fabric}_{nodes}");
            if let Some(p) = &res.row.prof {
                std::fs::write(prof_out.join(format!("{cell}.json")), p.to_json())
                    .expect("write prof report");
            }
            if let Some((trace_json, ts_json)) = &res.obs {
                let tdir = traces_dir();
                std::fs::create_dir_all(&tdir).expect("create traces dir");
                std::fs::write(tdir.join(format!("{cell}.json")), trace_json)
                    .expect("write trace json");
                let tsdir = timeseries_dir();
                std::fs::create_dir_all(&tsdir).expect("create timeseries dir");
                std::fs::write(tsdir.join(format!("{cell}.rollup.json")), ts_json)
                    .expect("write rollup json");
            }
            // Acceptance: the profiler must explain where a 512-node run's
            // scheduler wall clock goes.
            if nodes == 512 {
                let p = res.row.prof.as_ref().expect("profiled");
                assert!(
                    p.attributed_pct() >= 80.0,
                    "{fabric}/512: only {:.1}% of scheduler wall clock attributed",
                    p.attributed_pct()
                );
                // Cap on the scheduler's own overhead (the pop phase). The
                // profiler attributes the large-run slowdown to actor-thread
                // baton handoffs inside dispatch (~90% of wall at 512 nodes,
                // an OS context-switch cost structural to thread-backed
                // actors, not an engine cost); this assertion keeps the
                // engine's share from regressing back into the picture.
                assert!(
                    p.pop_ns * 4 <= p.attributed_ns(),
                    "{fabric}/512: queue pop takes {:.1}% of attributed wall (cap 25%)",
                    p.pop_ns as f64 / p.attributed_ns() as f64 * 100.0
                );
                println!(
                    "[prof] {fabric}/512: {:.1}% of {:.0} ms attributed \
                     (pop {:.1} ms, dispatch {:.1} ms)",
                    p.attributed_pct(),
                    p.run_ns as f64 / 1e6,
                    p.pop_ns as f64 / 1e6,
                    p.dispatch_ns.iter().sum::<u64>() as f64 / 1e6,
                );
            }
            // Acceptance: fleet mode (1% sampling + rollup) passes the
            // sampled crossing-budget check and emits < 10% of the
            // unsampled baseline's observability bytes per message.
            if fleet {
                let violations = res.sampled_violations.as_ref().expect("sampled check ran");
                assert!(
                    violations.is_empty(),
                    "{fabric}/{nodes}: sampled crossing-budget check failed:\n{}",
                    violations.join("\n")
                );
                let per_msg =
                    res.row.obs_bytes.expect("captured") as f64 / res.row.delivered_msgs as f64;
                assert!(
                    per_msg < baseline_obs_per_msg * 0.10,
                    "{fabric}/{nodes}: fleet observability {per_msg:.0} B/msg \
                     >= 10% of baseline {baseline_obs_per_msg:.0} B/msg"
                );
                println!(
                    "[fleet] {fabric}/{nodes}: sampled budget check clean, \
                     {per_msg:.0} B/msg ({:.1}% of baseline)",
                    per_msg / baseline_obs_per_msg * 100.0
                );
            }
            rows.push(res.row);
        }
    }

    println!("\nfabric   nodes    events     msgs   wall_ms   events/s     msgs/s  attr%");
    for r in &rows {
        let attr = r.prof.as_ref().map_or(0.0, ProfReport::attributed_pct);
        println!(
            "{:<8} {:>5} {:>9} {:>8} {:>9.2} {:>10.0} {:>10.0} {:>6.1}",
            r.fabric,
            r.nodes,
            r.sim_events,
            r.delivered_msgs,
            r.wall_ms,
            r.events_per_sec,
            r.msgs_per_sec,
            attr,
        );
    }

    let dir = bench_dir();
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("BENCH_engine.json");
    std::fs::write(&path, to_json(&rows, msgs)).expect("write BENCH_engine.json");
    println!("\n[bench] {} rows -> {}", rows.len(), path.display());
    println!("\nbench_engine OK: deterministic across reruns, profiled sweep recorded");
}

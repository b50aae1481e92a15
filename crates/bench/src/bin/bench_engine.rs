//! Event-engine scalability benchmark: a neighbor-ring message storm
//! through the full stack (BCL library, kernel trap, MCP firmware rings,
//! fabric) at 32/128/512/1,024 nodes on both SANs, timed against the wall
//! clock.
//!
//! Every node runs one process that sends `MSGS` small messages to its
//! right neighbor and receives as many from its left (`suca_bench::ring`).
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
//! report lands in `target/prof/engine_<fabric>_<nodes>.json` and a
//! summary is merged into the row. The 512-node cells must attribute
//! ≥ 80% of scheduler wall clock to named phases. At 1,024 nodes the run
//! switches to fleet mode — 1% deterministic trace sampling plus the
//! timeseries rollup — and must pass the sampled crossing-budget check
//! while emitting < 10% of the unsampled 32-node baseline's observability
//! bytes per delivered message.
//!
//! The machine-readable report lands in `target/bench/BENCH_engine.json`,
//! one row per line; CI runs the sweep pinned to one CPU, compares each
//! cell's events/sec against the committed root `BENCH_engine.json`, and
//! archives the file per PR. The host/rustc/thread metadata makes rows
//! comparable across machines. `SUCA_BENCH_ENGINE_MAX_NODES` caps the
//! sweep (the tier-1 gate stops at 32 nodes).

use suca_bench::report::host_meta;
use suca_bench::{env_u32, ring, sweep_spec};
use suca_sim::artifact::write_artifact;
use suca_sim::mtrace::{check_completeness_sampled, ChainPolicy, SampleSpec};
use suca_sim::ProfReport;

const SEED: u64 = 0xE7617E; // "engine"
const PAYLOAD: usize = 512;
/// Messages each node sends.
const MSGS: u32 = 4;
/// Fleet-mode trace sampling rate (1%) applied at the largest node count.
const FLEET_SAMPLE_PPM: u32 = 10_000;
/// Node count at which the bench switches to fleet-mode observability.
const FLEET_NODES: u32 = 1024;

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
}

/// How to run one cell.
#[derive(Clone, Copy, Default)]
struct RunOpts {
    profile: bool,
    /// Trace sampling rate (None = record everything).
    sample_ppm: Option<u32>,
    /// Capture trace/timeseries artifacts and (for sampled runs) the
    /// sampled completeness check. Rollup timeseries for >= 512 nodes,
    /// full snapshot below.
    capture_obs: bool,
}

/// Run the neighbor ring and measure.
fn run_ring(fabric: &'static str, nodes: u32, opts: RunOpts) -> RunResult {
    let mut spec = sweep_spec(fabric, nodes, SEED).with_profiling(opts.profile);
    if let Some(ppm) = opts.sample_ppm {
        spec = spec.with_trace_sampling(ppm);
    }
    let (cluster, wall) = ring::run(spec, MSGS, PAYLOAD);
    let sim = &cluster.sim;
    let wall_s = wall.as_secs_f64();
    let delivered = u64::from(nodes) * u64::from(MSGS);
    let sim_events = sim.events_dispatched();
    assert!(
        sim_events > 0 && wall_s > 0.0,
        "{fabric}/{nodes}: empty measurement ({sim_events} events in {wall_s} s)"
    );
    let metrics_json = cluster.metrics_snapshot().to_json();

    let mut obs = None;
    let mut obs_bytes = None;
    if opts.capture_obs {
        let events = sim.trace_events();
        let trace_json = suca_sim::mtrace::to_chrome_json(&events);
        let ts_snap = sim.timeseries().snapshot();
        // Fleet scale bounds the timeseries artifact via the rollup; small
        // runs keep the full per-probe snapshot.
        let ts_json = if nodes >= 512 {
            let rollup = ts_snap.rollup();
            assert!(
                !rollup.groups.is_empty() && rollup.groups.len() < 100,
                "{fabric}/{nodes}: rollup of {} probes has {} groups (want 1..100)",
                rollup.probes,
                rollup.groups.len()
            );
            rollup.to_json()
        } else {
            ts_snap.to_json()
        };
        if let Some(ppm) = opts.sample_ppm {
            let spec = SampleSpec::ratio_ppm(ppm).with_seed(SEED);
            let report = check_completeness_sampled(&events, &ChainPolicy::bcl(), spec);
            assert!(
                report.violations.is_empty(),
                "{fabric}/{nodes}: sampled crossing-budget check failed:\n{}",
                report.violations.join("\n")
            );
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

fn to_json(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let (os, arch, rustc, threads) = host_meta();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"suca.bench_engine.v3\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"msgs_per_node\": {MSGS},");
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
    let max_nodes = env_u32("SUCA_BENCH_ENGINE_MAX_NODES", 1024);
    println!("-- bench_engine: neighbor-ring storm, {MSGS} msgs/node x {PAYLOAD} B\n");

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
                ..RunOpts::default()
            },
        );
        let rerun = run_ring(fabric, 32, RunOpts::default());
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
                ..RunOpts::default()
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
                    profile: true,
                    sample_ppm: fleet.then_some(FLEET_SAMPLE_PPM),
                    capture_obs: nodes >= 512,
                },
            );
            let cell = format!("engine_{fabric}_{nodes}");
            let p = res.row.prof.as_ref().expect("sweep rows are profiled");
            // The phases are disjoint intervals inside the run loop, so
            // their sum may pass the loop's own time by timer skew only;
            // past twice it, a timer is counting something else.
            assert!(
                p.attributed_ns() <= 2 * p.run_ns,
                "{fabric}/{nodes}: {} ns attributed to phases of a {} ns run loop",
                p.attributed_ns(),
                p.run_ns
            );
            write_artifact("prof", &cell, &p.to_json()).expect("write prof report");
            if let Some((trace_json, rollup_json)) = &res.obs {
                write_artifact("traces", &cell, trace_json).expect("write trace json");
                write_artifact("timeseries", &format!("{cell}.rollup"), rollup_json)
                    .expect("write rollup json");
            }
            // Acceptance: the profiler must explain where a 512-node run's
            // scheduler wall clock goes.
            if nodes == 512 {
                assert!(
                    p.attributed_pct() >= 80.0,
                    "{fabric}/512: only {:.1}% of scheduler wall clock attributed",
                    p.attributed_pct()
                );
                // Cap on the scheduler's own overhead (the pop phase). The
                // rest of the wall clock is dispatch: handlers, and each
                // wake's stack switch plus the actor's own run (BCL calls,
                // payload copies); this assertion keeps the engine's share
                // from growing into the picture.
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
            // Acceptance: fleet mode (1% sampling + rollup) passed the
            // sampled crossing-budget check in `run_ring` and emits < 10% of
            // the unsampled baseline's observability bytes per message.
            if fleet {
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

    let path =
        write_artifact("bench", "BENCH_engine", &to_json(&rows)).expect("write BENCH_engine.json");
    println!("\n[bench] {} rows -> {}", rows.len(), path.display());
    println!("\nbench_engine OK: deterministic across reruns, profiled sweep recorded");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed_with_and_without_optional_columns() {
        let row = |prof: Option<ProfReport>, obs_bytes| Row {
            nodes: 32,
            fabric: "myrinet",
            sim_events: 1_000,
            delivered_msgs: 128,
            wall_ms: 1.5,
            events_per_sec: 666_666.7,
            msgs_per_sec: 85_333.3,
            sim_us: 84.25,
            trace_sample_ppm: 1_000_000,
            prof,
            obs_bytes,
        };
        let prof = suca_sim::EngineProf::new().report();
        let j = to_json(&[row(Some(prof), Some(4096)), row(None, None)]);
        assert_eq!(suca_sim::artifact::validate_json(&j), Ok(()));
        assert!(j.contains("\"schema\": \"suca.bench_engine.v3\""));
        assert!(j.contains("\"msgs_per_node\": 4,"));
        assert!(j.contains("\"obs_bytes\": null, \"prof\": null}"));
        for key in ["os", "arch", "rustc", "threads"] {
            assert!(
                j.contains(&format!("\"{key}\": ")),
                "host meta missing {key}"
            );
        }
        // One row per line: CI's perf gate reads the file with awk.
        let first = j.lines().find(|l| l.contains("\"nodes\"")).expect("a row");
        for key in [
            "nodes",
            "fabric",
            "sim_events",
            "delivered_msgs",
            "wall_ms",
            "events_per_sec",
            "msgs_per_sec",
            "sim_us",
            "trace_sample_ppm",
            "obs_bytes",
            "prof",
            "attributed_pct",
            "lock_acquisitions",
            "lock_hold_ms",
        ] {
            assert!(first.contains(&format!("\"{key}\": ")), "row missing {key}");
        }
    }
}

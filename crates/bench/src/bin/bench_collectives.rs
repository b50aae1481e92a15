//! One collective plan, two executors.
//!
//! Latency (and bandwidth, for payload-carrying ops) of barrier, sized
//! broadcast and allreduce at 64 → 1,024 nodes on both SANs. Each cell
//! runs the plan the fabric-aware registry selects twice: `offloaded` (the
//! MCP plan interpreter) and `host` (the host walking the same plan over
//! point-to-point, `offload_collectives = false`), so a row pair differs
//! only in the executor. One rank per node. After one warmup, each of
//! `REPS` timed repetitions starts on every rank at one agreed virtual
//! instant and ends when the last rank returns, so a bcast row is the time
//! until the last rank has the root's data, not the root's send time. The
//! row is the mean over repetitions. The 64-node payload sweep adds 8 KiB
//! and 64 KiB allreduce and bcast as `host` rows only: payloads above one
//! NIC fragment never run on the NIC, so an `offloaded` row of them would
//! be mislabelled.
//!
//! In-binary acceptance, before the report is written:
//!
//! * **Determinism** — the 64-node offloaded myrinet cell is byte-identical
//!   (latencies and metrics snapshot) on a rerun.
//! * **Crossing budget** — at 64 and 256 nodes every traced chain of the
//!   offloaded cells closes under `ChainPolicy::collective()` (exactly
//!   1 kernel trap, 0 interrupts, at least one wire injection per
//!   participant) and every traced chain of the host cells, one message
//!   each, under `ChainPolicy::bcl()`. At 1,024 nodes the same checks run
//!   on a 1% deterministic trace sample.
//! * **Offload wins at scale** — the offloaded barrier is faster than the
//!   host-executed one at ≥ 256 nodes, and both ran the plan `select`
//!   names.
//! * **Large payloads stay fast** — each 8 KiB and 64 KiB cell stays under
//!   its bound in `LARGE_CELLS`.
//!
//! The machine-readable report lands in
//! `target/bench/BENCH_collectives.json` (schema
//! `suca.bench_collectives.v1`), written only after every check above held.
//! Then each row is compared with the committed row of the same fabric,
//! nodes, op, executor and bytes in `BENCH_collectives.json` at the
//! repository root, and the run fails on the first that differs or is
//! missing. `SUCA_BENCH_COLL_MAX_NODES` caps the sweep (the tier-1 gate
//! stops at 64 nodes, below the crossover cells, and checks the committed
//! rows up to there).

use std::cell::RefCell;
use std::rc::Rc;

use suca_bench::report::{field, fields, ledger_rows, render_markdown, Recovery};
use suca_bench::{env_u32, sweep_spec};
use suca_coll::{CollKind, PlanRegistry};
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::artifact::write_artifact;
use suca_sim::mtrace::{check_completeness, check_completeness_sampled, ChainPolicy, SampleSpec};
use suca_sim::{ActorCtx, RunOutcome, SimDuration, SimTime};

/// The committed ledger every row of the sweep must reproduce.
const COMMITTED: &str = include_str!("../../../../BENCH_collectives.json");

const SEED: u64 = 0xC0113C7;
/// Timed repetitions per op (after one untimed warmup). The simulator is
/// deterministic — repetitions guard against cold-start effects in virtual
/// time (buffer pools, pin tables), not noise. On the host clock the warmup
/// also absorbs `suca-coll`'s validate-once verdict memo: the first launch of
/// each plan shape validates it, every later one reads the verdict.
const REPS: u32 = 2;
/// Fleet-mode trace sampling at the largest node count.
const FLEET_SAMPLE_PPM: u32 = 10_000;
/// How far past its own clock rank 0 sets a repetition's start instant. It
/// covers the broadcast of that instant to every rank; a rank the instant
/// reaches too late fails the run rather than skewing the row.
const START_MARGIN: SimDuration = SimDuration::from_us(5_000);
/// `(op, f64 lanes, bound µs)`: the 64-node payload sweep's cells above one
/// NIC fragment, `host` rows only, on both fabrics. Each bound is at least
/// 1.3× the latency of the tree the registry selects and under a fifth of
/// the chain's it selected from 8 KiB up before the chain was deleted
/// (EXPERIMENTS.md, "Large payloads").
const LARGE_CELLS: [(&str, usize, f64); 4] = [
    ("bcast", 1_024, 2_000.0),
    ("allreduce", 1_024, 4_000.0),
    ("bcast", 8_192, 6_000.0),
    ("allreduce", 8_192, 12_000.0),
];

/// `(op, f64 lanes)` cells measured at a given node count. The payload
/// sweep runs at the smallest count only; the node sweep fixes 1 KiB.
fn op_list(nodes: u32) -> Vec<(&'static str, usize)> {
    let mut ops = vec![("barrier", 0), ("bcast", 128), ("allreduce", 128)];
    if nodes == 64 {
        ops.push(("allreduce", 8));
        ops.push(("allreduce", 504)); // largest single-fragment payload
    }
    ops
}

/// Agree on one start instant for a timed repetition and sleep to it: after
/// a barrier, rank 0 broadcasts its clock plus `START_MARGIN`. Returns the
/// instant.
fn start_together(ctx: &mut ActorCtx, comm: &Comm) -> SimTime {
    comm.barrier(ctx);
    let mut at = [(ctx.now().as_ns() + START_MARGIN.as_ns()) as f64];
    comm.bcast_f64(ctx, 0, &mut at);
    let start = SimTime::from_ns(at[0] as u64);
    let now = ctx.now();
    assert!(
        now <= start,
        "rank {}: the start instant arrived {} us late",
        comm.rank(),
        now.since(start).as_us()
    );
    ctx.sleep(start.since(now));
    start
}

struct Row {
    fabric: &'static str,
    nodes: u32,
    op: &'static str,
    impl_: &'static str,
    algorithm: &'static str,
    bytes: u64,
    latency_us: f64,
    bw_mbps: f64,
}

struct CellResult {
    /// `(op, lanes, latency_us)` in measurement order.
    latencies: Vec<(String, usize, f64)>,
    metrics_json: String,
}

fn run_op(ctx: &mut ActorCtx, comm: &Comm, op: &str, lanes: usize) {
    match op {
        "barrier" => comm.barrier(ctx),
        "bcast" => {
            let me = comm.rank();
            let mut buf = vec![0.0f64; lanes];
            if me == 0 {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = i as f64;
                }
            }
            comm.bcast_f64(ctx, 0, &mut buf);
            assert_eq!(buf[lanes - 1], (lanes - 1) as f64, "bcast payload wrong");
        }
        "allreduce" => {
            let me = comm.rank();
            let contrib = vec![me as f64 + 1.0; lanes];
            let n = comm.size();
            let out = comm.allreduce_f64(ctx, &contrib, ReduceOp::Sum);
            let expect = (u64::from(n) * (u64::from(n) + 1) / 2) as f64;
            assert_eq!(out[0], expect, "allreduce sum wrong");
        }
        other => panic!("unknown op {other}"),
    }
}

/// Build one cluster and measure `ops` on it. `check_budget` runs the
/// crossing-budget check of the cell's executor (full below fleet scale,
/// sampled at it).
fn run_cell(
    fabric_label: &'static str,
    nodes: u32,
    offload: bool,
    ops: &[(&'static str, usize)],
    check_budget: bool,
) -> CellResult {
    let fleet = nodes >= 1024;
    let mut spec = sweep_spec(fabric_label, nodes, SEED);
    if fleet {
        spec = spec.with_trace_sampling(FLEET_SAMPLE_PPM);
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, nodes);
    let ops = ops.to_vec();
    // `slowest[op][rep]`: the latest any rank returned, in ns past the start.
    let slowest = Rc::new(RefCell::new(vec![[0u64; REPS as usize]; ops.len()]));
    for r in 0..nodes {
        let uni = uni.clone();
        let ops = ops.clone();
        let slowest = slowest.clone();
        cluster.spawn_process(r, format!("coll{r}"), move |ctx, env| {
            let mut cfg = MpiConfig::dawning3000();
            cfg.offload_collectives = offload;
            let comm = Comm::init(ctx, &env.node.bcl, &env.proc, uni, r, cfg);
            for (i, &(op, lanes)) in ops.iter().enumerate() {
                run_op(ctx, &comm, op, lanes); // warmup
                for rep in 0..REPS as usize {
                    let start = start_together(ctx, &comm);
                    run_op(ctx, &comm, op, lanes);
                    let took = ctx.now().since(start).as_ns();
                    let slot = &mut slowest.borrow_mut()[i][rep];
                    *slot = (*slot).max(took);
                }
            }
        });
    }
    assert_eq!(
        sim.run(),
        RunOutcome::Completed,
        "{fabric_label}/{nodes} collective cell hung"
    );
    for counter in [
        "mpi.coll_plan_rejected",
        "mpi.coll_launch_failed",
        "mpi.coll_nic_rejected",
        "mcp.protocol_errors",
    ] {
        assert_eq!(
            sim.get_count(counter),
            0,
            "{fabric_label}/{nodes}: {counter} tripped"
        );
    }
    // The sweep runs loss-free: nothing may be resent.
    Recovery::of(&sim).assert_none(&format!("{fabric_label}/{nodes} offload={offload}"));
    if check_budget {
        let events = sim.trace_events();
        assert!(!events.is_empty(), "{fabric_label}/{nodes}: no trace");
        let policy = if offload {
            ChainPolicy::collective()
        } else {
            ChainPolicy::bcl()
        };
        if fleet {
            let spec = SampleSpec::ratio_ppm(FLEET_SAMPLE_PPM).with_seed(SEED);
            let report = check_completeness_sampled(&events, &policy, spec);
            assert!(
                report.violations.is_empty(),
                "{fabric_label}/{nodes} offload={offload}: sampled budget violated:\n{}",
                report.violations.join("\n")
            );
        } else {
            let report = check_completeness(&events, &policy);
            assert!(
                report.is_closed(),
                "{fabric_label}/{nodes} offload={offload}: budget violated:\n{}",
                report.violations.join("\n")
            );
        }
    }
    let slowest = Rc::into_inner(slowest).unwrap().into_inner();
    CellResult {
        latencies: ops
            .iter()
            .zip(slowest)
            .map(|(&(op, lanes), reps)| {
                let mean_ns = reps.iter().sum::<u64>() as f64 / f64::from(REPS);
                (op.to_string(), lanes, mean_ns / 1e3)
            })
            .collect(),
        metrics_json: cluster.metrics_snapshot().to_json(),
    }
}

/// The plan both executors run for this cell.
fn algorithm_for(fabric_name: &str, op: &str, nodes: u32) -> &'static str {
    let kind = match op {
        "barrier" => CollKind::Barrier,
        "bcast" => CollKind::Bcast,
        _ => CollKind::Allreduce,
    };
    PlanRegistry::for_fabric(fabric_name)
        .select(kind, nodes)
        .as_str()
}

fn to_json(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"suca.bench_collectives.v1\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"reps\": {REPS},");
    let _ = writeln!(out, "  \"determinism_ok\": true,");
    let _ = writeln!(out, "  \"budget_ok\": true,");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"fabric\": \"{}\", \"nodes\": {}, \"op\": \"{}\", \"impl\": \"{}\", \
             \"algorithm\": \"{}\", \"bytes\": {}, \"latency_us\": {:.3}, \
             \"bw_mbps\": {:.2}}}{comma}",
            r.fabric, r.nodes, r.op, r.impl_, r.algorithm, r.bytes, r.latency_us, r.bw_mbps,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// (fabric, nodes, op, impl, bytes): what names a row of the ledger.
fn key(row: &str) -> Vec<&str> {
    let named = |&(k, _): &(&str, &str)| matches!(k, "fabric" | "nodes" | "op" | "impl" | "bytes");
    fields(row)
        .into_iter()
        .filter(named)
        .map(|(_, v)| v)
        .collect()
}

/// Fail on the first row of `json` that differs from the committed row
/// with its key, or has none, and when a committed row of at most
/// `max_nodes` nodes was not measured.
fn check_committed(json: &str, max_nodes: u32, path: &str) {
    let intended = format!(
        "if the change is intended, run the full sweep and copy {path} over BENCH_collectives.json"
    );
    let committed: Vec<&str> = ledger_rows(COMMITTED)
        .into_iter()
        .filter(|row| field(row, "nodes").and_then(|n| n.parse().ok()) <= Some(max_nodes))
        .collect();
    let measured = ledger_rows(json);
    for row in &measured {
        match committed.iter().find(|c| key(c) == key(row)) {
            None => panic!(
                "BENCH_collectives.json has no row {:?}; {intended}",
                key(row)
            ),
            Some(c) if c != row => {
                panic!("BENCH_collectives.json: committed `{c}`, measured `{row}`; {intended}")
            }
            Some(_) => {}
        }
    }
    assert_eq!(
        measured.len(),
        committed.len(),
        "BENCH_collectives.json: committed rows of at most {max_nodes} nodes the sweep did not \
         measure; {intended}"
    );
    println!(
        "[ledger] {} rows equal the committed BENCH_collectives.json",
        measured.len()
    );
}

fn main() {
    let max_nodes = env_u32("SUCA_BENCH_COLL_MAX_NODES", 1024);
    println!("-- bench_collectives: one plan, NIC executor vs host executor\n");

    // Determinism: the 64-node offloaded myrinet cell must produce the
    // same latencies and metrics bytes on a rerun.
    let run = run_cell("myrinet", 64, true, &op_list(64), false);
    let rerun = run_cell("myrinet", 64, true, &op_list(64), false);
    assert_eq!(run.latencies, rerun.latencies, "latencies diverged");
    assert_eq!(run.metrics_json, rerun.metrics_json, "metrics diverged");
    println!("[determinism] myrinet/64 offloaded: run == rerun");

    let mut rows: Vec<Row> = Vec::new();
    // The bench labels follow `bench_engine`; the plan registry keys on
    // `Network::name()`.
    for (fabric, fabric_name) in [("myrinet", "myrinet"), ("mesh", "nwrc-mesh")] {
        for nodes in [64u32, 256, 1024] {
            if nodes > max_nodes {
                continue;
            }
            for offload in [true, false] {
                let impl_ = if offload { "offloaded" } else { "host" };
                let mut latencies =
                    run_cell(fabric, nodes, offload, &op_list(nodes), true).latencies;
                if nodes == 64 && !offload {
                    // A cluster of their own: their fragments overflow the
                    // per-node trace rings, so no chain survives whole for
                    // the budget check. The NIC never runs them.
                    let ops = LARGE_CELLS.map(|(op, lanes, _)| (op, lanes));
                    latencies.extend(run_cell(fabric, nodes, false, &ops, false).latencies);
                }
                for (op, lanes, us) in &latencies {
                    assert!(
                        *us > 0.0,
                        "{fabric}/{nodes} {impl_} {op}: empty measurement"
                    );
                    let bytes = (*lanes * 8) as u64;
                    let bw = bytes as f64 / *us; // B/µs == MB/s
                    rows.push(Row {
                        fabric,
                        nodes,
                        op: match op.as_str() {
                            "barrier" => "barrier",
                            "bcast" => "bcast",
                            _ => "allreduce",
                        },
                        impl_,
                        algorithm: algorithm_for(fabric_name, op, nodes),
                        bytes,
                        latency_us: *us,
                        bw_mbps: bw,
                    });
                }
            }
        }
    }

    let json = to_json(&rows);
    print!("\n{}", render_markdown(&ledger_rows(&json)));

    // Offload must win where it matters: barrier at scale.
    for fabric in ["myrinet", "mesh"] {
        for nodes in [256u32, 1024] {
            if nodes > max_nodes {
                continue;
            }
            let row = |impl_: &str| {
                rows.iter()
                    .find(|r| {
                        r.fabric == fabric
                            && r.nodes == nodes
                            && r.op == "barrier"
                            && r.impl_ == impl_
                    })
                    .expect("barrier row present")
            };
            let (off, host) = (row("offloaded").latency_us, row("host").latency_us);
            assert!(
                off < host,
                "{fabric}/{nodes}: offloaded barrier {off:.2} us not faster than host {host:.2} us"
            );
            assert_eq!(
                row("offloaded").algorithm,
                row("host").algorithm,
                "{fabric}/{nodes}: the executors ran different plans"
            );
            println!(
                "[crossover] {fabric}/{nodes}: offloaded barrier {off:.2} us vs host {host:.2} us \
                 ({:.1}x)",
                host / off
            );
        }
    }

    // Above one NIC fragment the registry's trees must hold their bounds.
    for (op, lanes, bound) in LARGE_CELLS {
        let bytes = (lanes * 8) as u64;
        for fabric in ["myrinet", "mesh"] {
            let Some(row) = rows
                .iter()
                .find(|r| r.fabric == fabric && r.op == op && r.bytes == bytes)
            else {
                continue; // a sweep capped below 64 nodes
            };
            assert!(
                row.latency_us < bound,
                "{fabric}/64 host {op} of {bytes} B: {:.2} us, bound {bound} us",
                row.latency_us
            );
            println!(
                "[large] {fabric}/64 host {op} {bytes} B: {} {:.2} us < {bound} us",
                row.algorithm, row.latency_us
            );
        }
    }

    let path =
        write_artifact("bench", "BENCH_collectives", &json).expect("write BENCH_collectives.json");
    println!("\n[bench] {} rows -> {}", rows.len(), path.display());
    check_committed(&json, max_nodes, &path.display().to_string());
    println!("\nbench_collectives OK: deterministic, budget-clean, offload wins at scale");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed_and_attests_the_checks() {
        let row = |op, bytes, bw_mbps| Row {
            fabric: "mesh",
            nodes: 64,
            op,
            impl_: "offloaded",
            algorithm: "mesh-xy-tree",
            bytes,
            latency_us: 42.125,
            bw_mbps,
        };
        let j = to_json(&[row("barrier", 0, 0.0), row("bcast", 1024, 24.31)]);
        assert_eq!(suca_sim::artifact::validate_json(&j), Ok(()));
        assert!(j.contains("\"schema\": \"suca.bench_collectives.v1\""));
        // Constants: the report is only written after both checks passed.
        assert!(j.contains("\"determinism_ok\": true,"));
        assert!(j.contains("\"budget_ok\": true,"));
        assert!(j.contains(
            "{\"fabric\": \"mesh\", \"nodes\": 64, \"op\": \"bcast\", \"impl\": \"offloaded\", \
             \"algorithm\": \"mesh-xy-tree\", \"bytes\": 1024, \"latency_us\": 42.125, \
             \"bw_mbps\": 24.31}\n"
        ));
    }
}

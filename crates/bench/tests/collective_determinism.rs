//! NIC-offloaded collectives are deterministic: at a fixed seed the
//! per-rank results, the metrics snapshot, and the per-message trace
//! export must be byte-identical across reruns, on both fabrics
//! independently. The plan interpreter lives in per-node NIC state and its
//! event ordering must not leak HashMap iteration order into anything
//! observable.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::{ActorCtx, RunOutcome};

const SEED: u64 = 0xC0117;
const NODES: u32 = 8;
const RANKS: u32 = 11; // co-located ranks on some nodes, idle-ish others

/// Per-rank transcripts: (rank, bytes), shared across actor closures.
type Transcripts = Rc<RefCell<Vec<(u32, Vec<u8>)>>>;

struct RunBytes {
    results: String,
    metrics: String,
    trace: String,
}

fn collective_workload(ctx: &mut ActorCtx, comm: &Comm) -> Vec<u8> {
    let me = comm.rank();
    let mut out = Vec::new();
    comm.barrier(ctx);
    let mut blob = vec![if me == 3 { 7.0 } else { 0.0 }; 16];
    if me == 3 {
        for (i, v) in blob.iter_mut().enumerate() {
            *v = (i * i) as f64;
        }
    }
    comm.bcast_f64(ctx, 3, &mut blob);
    let s = comm.allreduce_f64(ctx, &[me as f64, 1.0, (me % 3) as f64], ReduceOp::Sum);
    let m = comm.allreduce_f64(ctx, &[(me as f64) - 4.5], ReduceOp::Max);
    comm.barrier(ctx);
    for v in blob.iter().chain(&s).chain(&m) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn run_once(spec: ClusterSpec) -> RunBytes {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, RANKS);
    let transcripts: Transcripts = Rc::new(RefCell::new(Vec::new()));
    for r in 0..RANKS {
        let uni = uni.clone();
        let t = transcripts.clone();
        cluster.spawn_process(r % NODES, format!("mpi{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            let bytes = collective_workload(ctx, &comm);
            t.borrow_mut().push((comm.rank(), bytes));
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "collective workload hung");

    let mut ranks = Rc::into_inner(transcripts).unwrap().into_inner();
    ranks.sort_by_key(|(r, _)| *r);
    let mut results = String::new();
    for (r, bytes) in &ranks {
        let _ = writeln!(results, "{r}: {bytes:02x?}");
    }
    let mut trace = String::new();
    for e in cluster.trace_events() {
        let _ = writeln!(
            trace,
            "{:?} {} n{} {:?} {}..{} seq{} b{}",
            e.trace, e.stage, e.node, e.layer, e.start_ns, e.end_ns, e.seq, e.bytes
        );
    }
    RunBytes {
        results,
        metrics: cluster.metrics_snapshot().to_json(),
        trace,
    }
}

fn assert_same(a: &RunBytes, b: &RunBytes, what: &str) {
    assert_eq!(a.results, b.results, "{what}: collective results diverged");
    assert_eq!(a.trace, b.trace, "{what}: trace export diverged");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics diverged");
}

fn assert_rerun_identical(spec: impl Fn() -> ClusterSpec, what: &str) {
    let reference = run_once(spec());
    assert!(
        reference.trace.contains("mcp:coll_post"),
        "NIC collective path not exercised"
    );
    assert_same(&reference, &run_once(spec()), what);
}

#[test]
fn collectives_identical_across_reruns_myrinet() {
    assert_rerun_identical(
        || ClusterSpec::dawning3000(NODES).with_seed(SEED),
        "myrinet rerun",
    );
}

#[test]
fn collectives_identical_across_reruns_mesh() {
    assert_rerun_identical(
        || ClusterSpec::dawning3000_mesh(NODES).with_seed(SEED),
        "mesh rerun",
    );
}

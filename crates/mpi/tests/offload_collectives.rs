//! NIC-offloaded collectives: correctness on both fabrics, and the
//! crossing contract — every participant of an offloaded collective pays
//! exactly one kernel trap and zero interrupts
//! (`ChainPolicy::collective()`), the fan-in/fan-out happening entirely in
//! the NIC's plan interpreter.

use std::sync::Arc;

use parking_lot::Mutex;

use suca_cluster::{Cluster, ClusterSpec};
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::mtrace::{check_completeness, stage, ChainPolicy};
use suca_sim::RunOutcome;

/// Per-rank transcripts: (rank, bytes), shared across actor closures.
type RankTranscripts = Vec<(u32, Vec<u8>)>;
type Transcripts = Arc<Mutex<RankTranscripts>>;

fn mpi_job_on(
    spec: ClusterSpec,
    nodes: u32,
    ranks: u32,
    cfg: MpiConfig,
    body: impl Fn(&mut suca_sim::ActorCtx, &Comm) + Send + Sync + 'static,
) -> Cluster {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let body = Arc::new(body);
    for r in 0..ranks {
        let uni = uni.clone();
        let body = body.clone();
        let cfg = cfg.clone();
        cluster.spawn_process(r % nodes, format!("mpi{r}"), move |ctx, env| {
            let comm = Comm::init(ctx, &env.node.bcl, &env.proc, uni, r, cfg);
            body(ctx, &comm);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "MPI job hung");
    cluster
}

/// Offload-eligible collectives only; returns a per-rank transcript and
/// the cluster's `kmod.pin_misses` once every rank has run its first
/// bcast and allreduce, then at the end.
fn offloaded_suite(ctx: &mut suca_sim::ActorCtx, comm: &Comm) -> (Vec<u8>, [u64; 2]) {
    let me = comm.rank();
    let n = comm.size();
    let mut transcript = Vec::new();

    comm.barrier(ctx);

    // Sized broadcast: every rank knows the length (MPI count semantics).
    let mut blob: Vec<f64> = if me == 2 {
        (0..32).map(|i| (i * 3) as f64).collect()
    } else {
        vec![0.0; 32]
    };
    comm.bcast_f64(ctx, 2, &mut blob);
    let expect: Vec<f64> = (0..32).map(|i| (i * 3) as f64).collect();
    assert_eq!(blob, expect, "rank {me}: bcast_f64 payload wrong");
    for v in &blob {
        transcript.extend_from_slice(&v.to_le_bytes());
    }

    let contrib = vec![me as f64 + 1.0, (me * me) as f64, -(me as f64)];
    let summed = comm.allreduce_f64(ctx, &contrib, ReduceOp::Sum);
    let expect_sum: Vec<f64> = (0..3)
        .map(|lane| {
            (0..n)
                .map(|r| match lane {
                    0 => r as f64 + 1.0,
                    1 => (r * r) as f64,
                    _ => -(r as f64),
                })
                .sum()
        })
        .collect();
    assert_eq!(summed, expect_sum, "rank {me}: allreduce sum wrong");
    comm.barrier(ctx);
    let misses_warm = ctx.sim().get_count("kmod.pin_misses");
    comm.bcast_f64(ctx, 2, &mut blob);
    assert_eq!(blob, expect, "rank {me}: second bcast_f64 payload wrong");

    let minned = comm.allreduce_f64(ctx, &[me as f64, 100.0 - me as f64], ReduceOp::Min);
    assert_eq!(minned, vec![0.0, 100.0 - (n - 1) as f64]);
    let maxed = comm.allreduce_f64(ctx, &[me as f64], ReduceOp::Max);
    assert_eq!(maxed, vec![(n - 1) as f64]);
    let prod = comm.allreduce_f64(ctx, &[2.0], ReduceOp::Prod);
    assert_eq!(prod, vec![2f64.powi(n as i32)]);
    for v in summed.iter().chain(&minned).chain(&maxed).chain(&prod) {
        transcript.extend_from_slice(&v.to_le_bytes());
    }

    comm.barrier(ctx);
    (
        transcript,
        [misses_warm, ctx.sim().get_count("kmod.pin_misses")],
    )
}

#[test]
fn offloaded_collectives_correct_and_one_trap_on_both_fabrics() {
    const NODES: u32 = 4;
    const RANKS: u32 = 7; // odd: co-located ranks, uneven placement
    let mut per_fabric: Vec<(&str, RankTranscripts)> = Vec::new();

    for (name, spec) in [
        ("myrinet", ClusterSpec::dawning3000(NODES)),
        ("mesh", ClusterSpec::dawning3000_mesh(NODES)),
    ] {
        let transcripts: Transcripts = Arc::new(Mutex::new(Vec::new()));
        let t2 = transcripts.clone();
        let cluster = mpi_job_on(
            spec,
            NODES,
            RANKS,
            MpiConfig::dawning3000(),
            move |ctx, comm| {
                let (transcript, [warm, end]) = offloaded_suite(ctx, comm);
                // The communicator's offload buffers stay pinned: after the
                // first bcast and allreduce, every pin-down lookup hits.
                assert_eq!(warm, end, "rank {}: offload pins missed", comm.rank());
                t2.lock().push((comm.rank(), transcript));
            },
        );

        // The NIC path really ran: plan-interpreter stages in the trace,
        // and no offload fell back or was rejected.
        let events = cluster.trace_events();
        let posts = events
            .iter()
            .filter(|e| e.stage == stage::COLL_POST)
            .count();
        let dones = events
            .iter()
            .filter(|e| e.stage == stage::COLL_DONE)
            .count();
        let combines = events
            .iter()
            .filter(|e| e.stage == stage::COLL_COMBINE)
            .count();
        assert!(posts > 0, "{name}: no collective descriptors posted");
        assert_eq!(posts, dones, "{name}: collective runs left unfinished");
        assert!(combines > 0, "{name}: no NIC-side combining happened");
        for counter in [
            "mpi.coll_plan_rejected",
            "mpi.coll_launch_failed",
            "mpi.coll_nic_rejected",
            "mcp.protocol_errors",
        ] {
            assert_eq!(
                cluster.sim.get_count(counter),
                0,
                "{name}: {counter} tripped"
            );
        }

        // Crossing contract: this workload is collectives-only, so every
        // traced chain must close with exactly 1 trap and 0 interrupts.
        let report = check_completeness(&events, &ChainPolicy::collective());
        assert!(
            report.is_closed(),
            "{name}: open or over-budget collective chains:\n{}",
            report.violations.join("\n")
        );

        let mut ranks = Arc::into_inner(transcripts).unwrap().into_inner();
        ranks.sort_by_key(|(r, _)| *r);
        assert_eq!(ranks.len(), RANKS as usize, "{name}: missing ranks");
        per_fabric.push((name, ranks));
    }

    let (_, ref myrinet) = per_fabric[0];
    let (_, ref mesh) = per_fabric[1];
    for ((r1, t1), (r2, t2)) in myrinet.iter().zip(mesh.iter()) {
        assert_eq!(r1, r2);
        assert_eq!(t1, t2, "rank {r1}: results differ between fabrics");
    }
}

/// Forcing the host path off the NIC must give byte-identical results.
#[test]
fn offloaded_matches_host_reference() {
    const NODES: u32 = 3;
    const RANKS: u32 = 6;
    let mut runs: Vec<RankTranscripts> = Vec::new();
    for offload in [true, false] {
        let mut cfg = MpiConfig::dawning3000();
        cfg.offload_collectives = offload;
        let transcripts: Transcripts = Arc::new(Mutex::new(Vec::new()));
        let t2 = transcripts.clone();
        mpi_job_on(
            ClusterSpec::dawning3000(NODES),
            NODES,
            RANKS,
            cfg,
            move |ctx, comm| {
                let (transcript, _) = offloaded_suite(ctx, comm);
                t2.lock().push((comm.rank(), transcript));
            },
        );
        let mut ranks = Arc::into_inner(transcripts).unwrap().into_inner();
        ranks.sort_by_key(|(r, _)| *r);
        runs.push(ranks);
    }
    assert_eq!(
        runs[0], runs[1],
        "offloaded and host reference collectives disagree"
    );
}

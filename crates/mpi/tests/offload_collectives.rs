//! NIC-offloaded collectives: correctness on both fabrics, and the
//! crossing contract — every participant of an offloaded collective pays
//! exactly one kernel trap and zero interrupts
//! (`ChainPolicy::collective()`), the fan-in/fan-out happening entirely in
//! the NIC's plan interpreter.

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::{Cluster, ClusterSpec};
use suca_coll::{Algorithm, CollKind, Plan, PlanRegistry, Topology};
use suca_eadi::{Universe, EADI_HEADER};
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::mtrace::{check_completeness, stage, ChainPolicy};
use suca_sim::RunOutcome;

/// Per-rank transcripts: (rank, bytes), shared across actor closures.
type RankTranscripts = Vec<(u32, Vec<u8>)>;
type Transcripts = Rc<RefCell<RankTranscripts>>;

fn mpi_job_on(
    spec: ClusterSpec,
    nodes: u32,
    ranks: u32,
    cfg: MpiConfig,
    body: impl Fn(&mut suca_sim::ActorCtx, &Comm) + 'static,
) -> Cluster {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let body = Rc::new(body);
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
    let reduced = comm.reduce_f64(ctx, 3, &[me as f64 + 1.0], ReduceOp::Prod);
    let factorial = (1..=n).map(f64::from).product::<f64>();
    assert_eq!(
        reduced,
        (me == 3).then(|| vec![factorial]),
        "rank {me}: reduce wrong"
    );
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
        let transcripts: Transcripts = Rc::new(RefCell::new(Vec::new()));
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
                t2.borrow_mut().push((comm.rank(), transcript));
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

        let mut ranks = Rc::into_inner(transcripts).unwrap().into_inner();
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

/// Lane values whose sum depends on the association order: `1e16 + 1.0`
/// rounds the `1.0` away, `(1e16 - 1e16) + 1.0` keeps it. Rank `r`'s lane
/// `l` is `SUM_LANES[(r + l) % 3]`.
const SUM_LANES: [f64; 3] = [1e16, -1e16, 1.0];
/// The same for a product: `1e200 * 1e200` overflows, `1e200 * 1e-200`
/// does not.
const PROD_LANES: [f64; 3] = [1e200, 1e-200, 3.0];

fn lanes(values: [f64; 3], rank: u32, len: usize) -> Vec<f64> {
    (0..len).map(|l| values[(rank as usize + l) % 3]).collect()
}

/// `Plan::execute_f64_reference` of the plan the registry selects for a
/// `kind` rooted at `root`: each rank's lane 0, from `SUM_LANES` inputs.
fn reference_lane0(topology: Topology, kind: CollKind, ranks: u32, root: u32) -> Vec<f64> {
    let algorithm = PlanRegistry::new(topology).select(kind, ranks);
    let inputs: Vec<f64> = (0..ranks).map(|r| lanes(SUM_LANES, r, 1)[0]).collect();
    Plan::build(kind, algorithm, ranks, root)
        .execute_f64_reference(&inputs)
        .expect("generated plan runs to completion")
}

/// Barrier, `bcast_f64`, allreduce under every operator, and a sum
/// `reduce_f64` to the first and to the last rank, over order-sensitive
/// lanes; returns the results as one byte transcript. A reduce result is
/// appended on its root only: rank 0 and rank n−1 end with their reduce's
/// three lanes, and no other rank gets one.
fn executor_suite(ctx: &mut suca_sim::ActorCtx, comm: &Comm) -> Vec<u8> {
    let me = comm.rank();
    let mut transcript = Vec::new();
    comm.barrier(ctx);
    let mut blob = lanes(SUM_LANES, me, 5);
    comm.bcast_f64(ctx, 1, &mut blob);
    assert_eq!(blob, lanes(SUM_LANES, 1, 5), "rank {me}: bcast_f64 wrong");
    let mut results = vec![blob];
    for (op, values) in [
        (ReduceOp::Sum, SUM_LANES),
        (ReduceOp::Prod, PROD_LANES),
        (ReduceOp::Max, SUM_LANES),
        (ReduceOp::Min, SUM_LANES),
    ] {
        results.push(comm.allreduce_f64(ctx, &lanes(values, me, 3), op));
    }
    for root in [0, comm.size() - 1] {
        let reduced = comm.reduce_f64(ctx, root, &lanes(SUM_LANES, me, 3), ReduceOp::Sum);
        assert_eq!(
            reduced.is_some(),
            me == root,
            "rank {me}: reduce to {root} returned {reduced:?}"
        );
        results.extend(reduced);
    }
    comm.barrier(ctx);
    for v in results.iter().flatten() {
        transcript.extend_from_slice(&v.to_le_bytes());
    }
    transcript
}

/// Run `body` on every rank of an MPI job; returns each rank's result,
/// sorted by rank.
fn transcripts_of(
    spec: ClusterSpec,
    nodes: u32,
    ranks: u32,
    cfg: MpiConfig,
    body: impl Fn(&mut suca_sim::ActorCtx, &Comm) -> Vec<u8> + 'static,
) -> RankTranscripts {
    let transcripts: Transcripts = Rc::new(RefCell::new(Vec::new()));
    let t2 = transcripts.clone();
    mpi_job_on(spec, nodes, ranks, cfg, move |ctx, comm| {
        let transcript = body(ctx, comm);
        t2.borrow_mut().push((comm.rank(), transcript));
    });
    let mut ranks = Rc::into_inner(transcripts).unwrap().into_inner();
    ranks.sort_by_key(|(r, _)| *r);
    ranks
}

/// One plan, two executors: the NIC and the host walking the same plan
/// fold the same lanes in the same order, so every result is byte-equal,
/// and each rank's sum is the plan's reference sum; so is each reduce
/// root's. 4 ranks run the flat fan-in, 7 and 8 binomial on Myrinet and
/// odd / power-of-two recursive doubling on the mesh (reduce is binomial on
/// both).
#[test]
fn offloaded_matches_host_reference() {
    const NODES: u32 = 4;
    for (name, topology) in [
        ("myrinet", Topology::LinearSwitchArray),
        ("mesh", Topology::Mesh2D),
    ] {
        for ranks in [4u32, 7, 8] {
            let runs = [true, false].map(|offload| {
                let spec = match topology {
                    Topology::Mesh2D => ClusterSpec::dawning3000_mesh(NODES),
                    Topology::LinearSwitchArray => ClusterSpec::dawning3000(NODES),
                };
                let mut cfg = MpiConfig::dawning3000();
                cfg.offload_collectives = offload;
                transcripts_of(spec, NODES, ranks, cfg, executor_suite)
            });
            assert_eq!(
                runs[0], runs[1],
                "{name}/{ranks}: NIC and host executors disagree"
            );
            // The sum is the transcript's lanes 5..8; lane 5 is each rank's
            // lane 0 of the order-sensitive sum. A reduce root's result
            // follows the four allreduces, from lane 17.
            let lane = |transcript: &[u8], l: usize| transcript[l * 8..(l + 1) * 8].to_vec();
            let reference = reference_lane0(topology, CollKind::Allreduce, ranks, 0);
            for (rank, transcript) in &runs[0] {
                assert_eq!(
                    lane(transcript, 5),
                    reference[*rank as usize].to_le_bytes(),
                    "{name}/{ranks}: rank {rank} sum differs from the plan's reference"
                );
                let reduced = if [0, ranks - 1].contains(rank) {
                    let reference = reference_lane0(topology, CollKind::Reduce, ranks, *rank);
                    assert_eq!(
                        lane(transcript, 17),
                        reference[*rank as usize].to_le_bytes(),
                        "{name}/{ranks}: reduce to {rank} differs from the plan's reference"
                    );
                    3
                } else {
                    0
                };
                assert_eq!(
                    transcript.len(),
                    (17 + reduced) * 8,
                    "{name}/{ranks}: rank {rank}"
                );
            }
        }
    }
}

/// Payloads too large for one NIC fragment run on the host executor even
/// with offload on, and still follow the selected plan: a 600-lane
/// allreduce (4,800 B) is recursive doubling on the mesh and goes
/// rendezvous, so its butterfly relies on the receives being posted before
/// the sends; 1,100 lanes (8,800 B) run the same plans as small payloads,
/// binomial on Myrinet and recursive doubling on the mesh. Each rank's
/// lane 0 equals the plan's reference sum bit for bit.
#[test]
fn host_executor_runs_plans_the_nic_cannot_take() {
    const NODES: u32 = 4;
    const RANKS: u32 = 8;
    // EADI's eager limit: a system-channel buffer less its header.
    let eager_limit =
        ClusterSpec::dawning3000(NODES).bcl.system_pool.buffer_bytes - EADI_HEADER as u64;
    for (name, topology, len, algorithm) in [
        ("mesh", Topology::Mesh2D, 600, Algorithm::RecursiveDoubling),
        (
            "mesh",
            Topology::Mesh2D,
            1_100,
            Algorithm::RecursiveDoubling,
        ),
        (
            "myrinet",
            Topology::LinearSwitchArray,
            1_100,
            Algorithm::BinomialTree,
        ),
    ] {
        let bytes = (len * 8) as u64;
        assert!(bytes > eager_limit, "{name}/{len}: payload would go eager");
        assert_eq!(
            PlanRegistry::new(topology).select(CollKind::Allreduce, RANKS),
            algorithm
        );
        let spec = match topology {
            Topology::Mesh2D => ClusterSpec::dawning3000_mesh(NODES),
            Topology::LinearSwitchArray => ClusterSpec::dawning3000(NODES),
        };
        let runs = transcripts_of(
            spec,
            NODES,
            RANKS,
            MpiConfig::dawning3000(),
            move |ctx, comm| {
                let out =
                    comm.allreduce_f64(ctx, &lanes(SUM_LANES, comm.rank(), len), ReduceOp::Sum);
                assert_eq!(out.len(), len);
                out[0].to_le_bytes().to_vec()
            },
        );
        let reference = reference_lane0(topology, CollKind::Allreduce, RANKS, 0);
        for (rank, lane0) in &runs {
            assert_eq!(
                lane0[..],
                reference[*rank as usize].to_le_bytes(),
                "{name}/{len} lanes: rank {rank} sum differs from the plan's reference"
            );
        }
    }
}

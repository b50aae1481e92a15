//! `coll_mesh_256` — 256 MPI ranks on the nwrc 2-D mesh run rounds of
//! `barrier`, `allreduce_f64` (128 lanes) and `bcast_f64` with collective
//! offload on.
//!
//! `suca-coll` plan selection and the MCP plan interpreter do the work, at
//! one trap per participant, on the fabric no other workload uses. An op is
//! one rank's call, timed from entering it to leaving it; a collective
//! completes when its slowest rank does, so the tail grows with the rank
//! count. Every result is checked against sums the benchmark computed on
//! the host from the same seed.

use std::sync::Arc;

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::{SimDuration, SimRng};

use super::{Harness, Outcome, Phase, SharedTally, Tally};
use crate::stats::Latencies;

const RANKS: u32 = 256;
/// Measured rounds; each is one barrier, one allreduce and one bcast.
const ROUNDS: usize = 2;
/// `f64` lanes of the allreduce and the bcast (1 KiB).
const LANES: usize = 128;

/// One round's inputs, the same on every rank.
struct Round {
    /// Root of the bcast.
    root: u32,
    /// Per-rank arrival skew before the round, ns: ranks of a real job do
    /// not reach a collective at the same instant.
    skew_ns: Vec<u64>,
    /// `contrib[rank][lane]`: small integers, so sums are exact in `f64`.
    contrib: Vec<Vec<f64>>,
    /// Lane-wise sum over ranks, computed here on the host.
    sum: Vec<f64>,
    /// What the root broadcasts.
    bcast: Vec<f64>,
}

fn schedule(seed: u64) -> Vec<Round> {
    let mut rng = SimRng::fork(seed, "bench.coll.ops");
    (0..ROUNDS)
        .map(|r| {
            let contrib: Vec<Vec<f64>> = (0..RANKS)
                .map(|_| (0..LANES).map(|_| rng.below(1_000) as f64).collect())
                .collect();
            let sum = (0..LANES)
                .map(|l| contrib.iter().map(|c| c[l]).sum())
                .collect();
            Round {
                // Roots are spread over the mesh but not seeded: a root's
                // position sets the depth of the bcast tree, and with two
                // rounds a seeded root would be most of the variance.
                root: (r as u32 * RANKS) / ROUNDS as u32,
                skew_ns: (0..RANKS).map(|_| rng.below(20_000)).collect(),
                contrib,
                sum,
                bcast: (0..LANES).map(|_| rng.below(1 << 20) as f64).collect(),
            }
        })
        .collect()
}

/// Run one rep.
pub fn run(h: &mut Harness) -> Outcome {
    let mut out = Outcome::default();
    let rounds = Arc::new(schedule(h.seed));
    out.attempted = u64::from(RANKS) * 3 * ROUNDS as u64;

    let cluster = h.build(ClusterSpec::dawning3000_mesh(RANKS));
    let phase = Phase::new(&cluster, RANKS, RANKS);
    let universe = Universe::new(&cluster.sim, RANKS);
    let tally: SharedTally = Arc::default();

    for rank in 0..RANKS {
        let (rounds, phase, universe, tally) = (
            rounds.clone(),
            phase.clone(),
            universe.clone(),
            tally.clone(),
        );
        let rec = h.rec.clone();
        cluster.spawn_process(rank, format!("rank{rank}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                universe,
                rank,
                MpiConfig::dawning3000(),
            );
            let mut log = rec.log(rank, rank);
            let mut t = Tally::default();
            // One untimed round of each collective: plan caches, buffers.
            comm.barrier(ctx);
            let _ = comm.allreduce_f64(ctx, &vec![1.0; LANES], ReduceOp::Sum);
            let mut warm = vec![0.0; LANES];
            comm.bcast_f64(ctx, 0, &mut warm);

            phase.enter(ctx, rank == 0);
            for (r, round) in rounds.iter().enumerate() {
                ctx.sleep(SimDuration::from_ns(round.skew_ns[rank as usize]));
                let op = |kind: u64| (r as u64 * 3 + kind) << 16 | u64::from(rank);

                let t0 = ctx.now().as_ns();
                log.call(ctx, "coll.barrier", op(0), |ctx| comm.barrier(ctx));
                t.record("barrier", ctx.now().as_ns() - t0, 0);

                let t0 = ctx.now().as_ns();
                let sum = log.call(ctx, "coll.allreduce", op(1), |ctx| {
                    comm.allreduce_f64(ctx, &round.contrib[rank as usize], ReduceOp::Sum)
                });
                if sum == round.sum {
                    t.record("allreduce", ctx.now().as_ns() - t0, LANES as u64 * 8);
                } else {
                    t.errors
                        .push(format!("rank {rank} round {r}: allreduce sum wrong"));
                }

                let mut buf = if rank == round.root {
                    round.bcast.clone()
                } else {
                    vec![0.0; LANES]
                };
                let t0 = ctx.now().as_ns();
                log.call(ctx, "coll.bcast", op(2), |ctx| {
                    comm.bcast_f64(ctx, round.root, &mut buf)
                });
                if buf == round.bcast {
                    t.record("bcast", ctx.now().as_ns() - t0, LANES as u64 * 8);
                } else {
                    t.errors
                        .push(format!("rank {rank} round {r}: bcast payload wrong"));
                }
            }
            phase.exit(ctx, rank == 0);
            tally.lock().expect("tally poisoned").merge(t);
        });
    }

    h.run(&cluster, &mut out);
    phase.collect(&mut out);
    let by_class = out.absorb(Tally::take(&tally));
    for (class, key) in [
        ("barrier", "coll.barrier_us_p50"),
        ("allreduce", "coll.allreduce_us_p50"),
        ("bcast", "coll.bcast_us_p50"),
    ] {
        let lat = Latencies::new(by_class.get(class).cloned().unwrap_or_default());
        out.layer.insert(key, lat.quantile_us(0.5));
    }
    let traps = out.phase_counters.get("os.traps").copied().unwrap_or(0);
    out.layer.insert(
        "coll.traps_per_collective",
        traps as f64 / out.attempted as f64,
    );
    // Offload must have been taken: a silent fall-back to the host
    // algorithms would measure a different workload.
    let sim = h.sims.last().expect("one simulation ran");
    for counter in [
        "mpi.coll_plan_rejected",
        "mpi.coll_launch_failed",
        "mpi.coll_nic_rejected",
    ] {
        if sim.snapshot.counter(counter) != 0 {
            out.fail(format!(
                "{counter} = {}: collectives fell back to the host",
                sim.snapshot.counter(counter)
            ));
        }
    }
    out
}

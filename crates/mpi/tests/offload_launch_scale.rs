//! Scale guard on the host cost of launching an offloaded collective.
//!
//! A launch must cost what one rank needs — its own O(log n) row of the
//! plan — not the n-rank plan. Measured as heap allocations per rank per
//! offloaded barrier (everything inside `Sim::run`: launch, firmware,
//! fabric), which repeat to within 0.1 % between runs. When every launch
//! built and validated the whole plan this grew 9.1× from 16 to 128 ranks
//! (419 → 3,810); with per-rank generation it grows 2.4× (162 → 393), which
//! is the row length (4 → 7 butterfly steps) times the longer mesh routes.
//!
//! Its own test file, hence its own process: arming the process-global
//! allocation counter races with nothing.

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig};
use suca_sim::RunOutcome;

/// Allowed growth of allocations per rank per barrier from 16 to 128 ranks:
/// twice the 2.4× measured, well under the whole-plan launch's 9.1×.
const MAX_GROWTH: f64 = 5.0;

/// Allocations counted inside `Sim::run` for a `ranks`-rank mesh job (one
/// rank per node) running `barriers` offloaded barriers.
fn job_allocs(ranks: u32, barriers: u32) -> u64 {
    let cluster = ClusterSpec::dawning3000_mesh(ranks).build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    for r in 0..ranks {
        let uni = uni.clone();
        cluster.spawn_process(r, format!("mpi{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            for _ in 0..barriers {
                comm.barrier(ctx);
            }
        });
    }
    let (before, _) = suca_sim::alloc::counts();
    suca_sim::alloc::set_counting(true);
    let outcome = sim.run();
    suca_sim::alloc::set_counting(false);
    assert_eq!(outcome, RunOutcome::Completed, "MPI job hung");
    let snap = cluster.metrics_snapshot();
    for fell_back in [
        "mpi.coll_plan_rejected",
        "mpi.coll_launch_failed",
        "mpi.coll_nic_rejected",
    ] {
        assert_eq!(snap.counter(fell_back), 0, "a barrier left the NIC path");
    }
    suca_sim::alloc::counts().0 - before
}

/// Marginal allocations per rank per barrier: the difference between a
/// 9-barrier and a 1-barrier job, so job set-up cancels out.
fn allocs_per_rank_barrier(ranks: u32) -> f64 {
    // Warm-up: the first job of a shape also pays its one-off validation.
    job_allocs(ranks, 1);
    let extra = job_allocs(ranks, 9) - job_allocs(ranks, 1);
    extra as f64 / f64::from(8 * ranks)
}

#[test]
fn launch_allocations_do_not_grow_with_the_rank_count() {
    let small = allocs_per_rank_barrier(16);
    let large = allocs_per_rank_barrier(128);
    eprintln!(
        "allocations per rank per offloaded barrier: 16 ranks {small:.1}, 128 ranks {large:.1}"
    );
    assert!(small > 0.0, "allocation counting is off");
    assert!(
        large <= MAX_GROWTH * small,
        "a launch at 128 ranks allocates {large:.1} times per rank per barrier, \
         {:.1}× the {small:.1} at 16 ranks (limit {MAX_GROWTH}×): \
         is every rank building the whole plan again?",
        large / small
    );
}

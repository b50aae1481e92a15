//! MPI collectives over both SANs. `crates/mpi/src/collectives.rs` was
//! historically exercised only over Myrinet; the MPI layer is supposed to
//! be fabric-agnostic (the paper ports BCL to the nwrc 2-D mesh with the
//! same upper layers), so the same collective workload must produce
//! identical results on both fabrics — and every traced message must close
//! its causal chain within the BCL crossing budget (1 trap, 0 interrupts)
//! regardless of which SAN carried it.

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::{Cluster, ClusterSpec};
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp};
use suca_sim::mtrace::{check_completeness, ChainPolicy};
use suca_sim::RunOutcome;

/// Per-rank transcripts: (rank, bytes), shared across actor closures.
type RankTranscripts = Vec<(u32, Vec<u8>)>;
type Transcripts = Rc<RefCell<RankTranscripts>>;

/// Run an MPI job on an explicit cluster spec (the stock helper in
/// `mpi_e2e.rs` hardcodes Myrinet); returns the cluster so the caller can
/// inspect trace chains after the run.
fn mpi_job_on(
    spec: ClusterSpec,
    nodes: u32,
    ranks: u32,
    body: impl Fn(&mut suca_sim::ActorCtx, &Comm) + 'static,
) -> Cluster {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let body = Rc::new(body);
    for r in 0..ranks {
        let uni = uni.clone();
        let body = body.clone();
        cluster.spawn_process(r % nodes, format!("mpi{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            body(ctx, &comm);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "MPI job hung");
    cluster
}

/// Every collective once, results folded into a per-rank transcript so the
/// two fabrics can be compared byte-for-byte.
fn collective_suite(ctx: &mut suca_sim::ActorCtx, comm: &Comm) -> Vec<u8> {
    let me = comm.rank();
    let size = comm.size();
    let mut transcript = Vec::new();

    comm.barrier(ctx);

    let mut blob = if me == 1 {
        (0..4096u32).map(|i| (i % 251) as u8).collect()
    } else {
        Vec::new()
    };
    comm.bcast(ctx, 1, &mut blob);
    transcript.extend_from_slice(&blob);

    let contrib = vec![me as f64, (me * me) as f64];
    let summed = comm.allreduce_f64(ctx, &contrib, ReduceOp::Sum);
    for v in &summed {
        transcript.extend_from_slice(&v.to_le_bytes());
    }

    let red = comm.reduce_f64(ctx, 0, &[me as f64 + 1.0], ReduceOp::Prod);
    if let Some(r) = red {
        for v in &r {
            transcript.extend_from_slice(&v.to_le_bytes());
        }
    }

    let mine = vec![me as u8; (me + 1) as usize];
    let gathered = comm.gather(ctx, 0, &mine);
    let parts = gathered.inspect(|parts| {
        for p in parts {
            transcript.extend_from_slice(p);
        }
    });
    let back = comm.scatter(ctx, 0, parts.as_deref());
    assert_eq!(back, mine, "scatter returned the wrong slice");

    for p in comm.allgather(ctx, &me.to_le_bytes()) {
        transcript.extend_from_slice(&p);
    }

    let outgoing: Vec<Vec<u8>> = (0..size).map(|r| vec![(me * 16 + r) as u8; 5]).collect();
    for p in comm.alltoall(ctx, &outgoing) {
        transcript.extend_from_slice(&p);
    }

    transcript
}

#[test]
fn collectives_identical_on_myrinet_and_mesh_with_closed_chains() {
    const NODES: u32 = 4;
    const RANKS: u32 = 7; // odd count: uneven node placement on both SANs
    let mut per_fabric: Vec<(&str, RankTranscripts)> = Vec::new();

    for (name, spec) in [
        ("myrinet", ClusterSpec::dawning3000(NODES)),
        ("mesh", ClusterSpec::dawning3000_mesh(NODES)),
    ] {
        let transcripts: Transcripts = Rc::new(RefCell::new(Vec::new()));
        let t2 = transcripts.clone();
        let cluster = mpi_job_on(spec, NODES, RANKS, move |ctx, comm| {
            let transcript = collective_suite(ctx, comm);
            t2.borrow_mut().push((comm.rank(), transcript));
        });

        // Every traced message — whichever fabric carried it — must close
        // its chain within the BCL budget: 1 trap, 0 interrupts.
        let events = cluster.trace_events();
        assert!(!events.is_empty(), "{name}: no trace events recorded");
        let report = check_completeness(&events, &ChainPolicy::bcl());
        assert!(
            report.is_closed(),
            "{name}: open or over-budget chains:\n{}",
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
        assert_eq!(
            t1, t2,
            "rank {r1}: collective results differ between fabrics"
        );
    }
}

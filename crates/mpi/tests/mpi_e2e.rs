//! MPI layer end-to-end: point-to-point semantics and every collective,
//! across varied rank counts and both placements (inter- and intra-node).

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig, ReduceOp, ANY_SOURCE, ANY_TAG};
use suca_sim::RunOutcome;

/// Run an MPI job: `ranks` processes round-robin over `nodes` nodes.
fn mpi_job(nodes: u32, ranks: u32, body: impl Fn(&mut suca_sim::ActorCtx, &Comm) + 'static) {
    let cluster = ClusterSpec::dawning3000(nodes).build();
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
}

#[test]
fn send_recv_basic() {
    mpi_job(2, 2, |ctx, comm| {
        if comm.rank() == 0 {
            comm.send(ctx, 1, 99, b"mpi hello");
        } else {
            let m = comm.recv(ctx, 0, 99);
            assert_eq!(m.data, b"mpi hello");
            assert_eq!((m.src, m.tag), (0, 99));
        }
    });
}

#[test]
fn wildcards_work() {
    mpi_job(2, 2, |ctx, comm| {
        if comm.rank() == 0 {
            comm.send(ctx, 1, 5, b"x");
        } else {
            let m = comm.recv(ctx, ANY_SOURCE, ANY_TAG);
            assert_eq!((m.src, m.tag), (0, 5));
        }
    });
}

#[test]
fn sendrecv_symmetric_exchange_does_not_deadlock() {
    mpi_job(2, 2, |ctx, comm| {
        let me = comm.rank();
        let other = 1 - me;
        let m = comm.sendrecv(ctx, other, 7, &me.to_le_bytes(), other as i32, 7);
        assert_eq!(m.data, other.to_le_bytes());
    });
}

#[test]
fn barrier_synchronizes() {
    let order: Rc<RefCell<Vec<(u32, &'static str)>>> = Rc::new(RefCell::new(Vec::new()));
    let o2 = order.clone();
    mpi_job(3, 3, move |ctx, comm| {
        // Rank 2 dawdles before the barrier; nobody may pass it first.
        if comm.rank() == 2 {
            ctx.sleep(suca_sim::SimDuration::from_ms(1));
        }
        o2.borrow_mut().push((comm.rank(), "before"));
        comm.barrier(ctx);
        o2.borrow_mut().push((comm.rank(), "after"));
    });
    let log = order.borrow();
    let last_before = log.iter().rposition(|e| e.1 == "before").expect("befores");
    let first_after = log.iter().position(|e| e.1 == "after").expect("afters");
    assert!(last_before < first_after, "barrier violated: {log:?}");
}

#[test]
fn bcast_from_every_root() {
    for nodes_ranks in [(2u32, 2u32), (3, 3), (4, 7)] {
        let (nodes, ranks) = nodes_ranks;
        for root in 0..ranks {
            mpi_job(nodes, ranks, move |ctx, comm| {
                let mut data = if comm.rank() == root {
                    format!("payload-from-{root}").into_bytes()
                } else {
                    Vec::new()
                };
                comm.bcast(ctx, root, &mut data);
                assert_eq!(data, format!("payload-from-{root}").into_bytes());
            });
        }
    }
}

#[test]
fn reduce_sum_is_exact() {
    mpi_job(3, 5, |ctx, comm| {
        let me = comm.rank() as f64;
        let contrib = vec![me, me * 10.0, 1.0];
        let got = comm.reduce_f64(ctx, 0, &contrib, ReduceOp::Sum);
        if comm.rank() == 0 {
            // ranks 0..5: sum = 10, sum*10 = 100, count = 5
            assert_eq!(got.expect("root gets result"), vec![10.0, 100.0, 5.0]);
        } else {
            assert!(got.is_none());
        }
    });
}

#[test]
fn allreduce_max_everywhere() {
    mpi_job(2, 4, |ctx, comm| {
        let me = comm.rank() as f64;
        let got = comm.allreduce_f64(ctx, &[me, -me], ReduceOp::Max);
        assert_eq!(got, vec![3.0, 0.0]);
    });
}

#[test]
fn gather_scatter_roundtrip() {
    mpi_job(2, 4, |ctx, comm| {
        let me = comm.rank();
        let mine = vec![me as u8; (me + 1) as usize];
        let gathered = comm.gather(ctx, 0, &mine);
        let parts = if comm.rank() == 0 {
            let parts = gathered.expect("root");
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(*p, vec![r as u8; r + 1]);
            }
            Some(parts)
        } else {
            None
        };
        let back = comm.scatter(ctx, 0, parts.as_deref());
        assert_eq!(back, mine, "scatter returned the wrong slice");
    });
}

#[test]
fn allgather_ring() {
    mpi_job(3, 6, |ctx, comm| {
        let me = comm.rank();
        let parts = comm.allgather(ctx, &me.to_le_bytes());
        for (r, p) in parts.iter().enumerate() {
            assert_eq!(*p, (r as u32).to_le_bytes());
        }
    });
}

#[test]
fn alltoall_pairwise() {
    mpi_job(2, 4, |ctx, comm| {
        let me = comm.rank();
        let outgoing: Vec<Vec<u8>> = (0..4).map(|r| vec![(me * 10 + r) as u8; 3]).collect();
        let incoming = comm.alltoall(ctx, &outgoing);
        for (src, p) in incoming.iter().enumerate() {
            assert_eq!(*p, vec![(src as u32 * 10 + me) as u8; 3]);
        }
    });
}

#[test]
fn large_payload_collectives_use_rendezvous() {
    mpi_job(2, 3, |ctx, comm| {
        let mut blob = if comm.rank() == 1 {
            (0..60_000u32).map(|i| (i % 251) as u8).collect()
        } else {
            Vec::new()
        };
        comm.bcast(ctx, 1, &mut blob);
        assert_eq!(blob.len(), 60_000);
        assert_eq!(blob[12345], (12345u32 % 251) as u8);
    });
}

#[test]
fn nonblocking_overlap() {
    mpi_job(2, 2, |ctx, comm| {
        if comm.rank() == 0 {
            let r1 = comm.irecv(ctx, 1, 1);
            let r2 = comm.irecv(ctx, 1, 2);
            // Complete them out of order.
            let m2 = comm.wait(ctx, r2);
            let m1 = comm.wait(ctx, r1);
            assert_eq!(m1.data, b"one");
            assert_eq!(m2.data, b"two");
        } else {
            comm.send(ctx, 0, 1, b"one");
            comm.send(ctx, 0, 2, b"two");
        }
    });
}

#[test]
fn single_rank_collectives_are_no_ops() {
    mpi_job(1, 1, |ctx, comm| {
        comm.barrier(ctx);
        let mut data = b"solo".to_vec();
        comm.bcast(ctx, 0, &mut data);
        assert_eq!(data, b"solo");
        let red = comm.reduce_f64(ctx, 0, &[5.0], ReduceOp::Sum);
        assert_eq!(red, Some(vec![5.0]));
        assert_eq!(comm.allreduce_f64(ctx, &[2.0], ReduceOp::Prod), vec![2.0]);
        let parts = comm.allgather(ctx, b"me");
        assert_eq!(parts, vec![b"me".to_vec()]);
        let a2a = comm.alltoall(ctx, &[b"self".to_vec()]);
        assert_eq!(a2a, vec![b"self".to_vec()]);
    });
}

#[test]
fn collectives_with_empty_payloads() {
    mpi_job(2, 3, |ctx, comm| {
        let mut empty = Vec::new();
        comm.bcast(ctx, 0, &mut empty);
        assert!(empty.is_empty());
        let gathered = comm.gather(ctx, 1, b"");
        if comm.rank() == 1 {
            assert_eq!(gathered.expect("root"), vec![Vec::new(); 3]);
        }
        let red = comm.allreduce_f64(ctx, &[], ReduceOp::Sum);
        assert!(red.is_empty());
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_talk() {
    // Successive collectives on fresh internal tags must not steal each
    // other's messages even when ranks enter them skewed in time.
    mpi_job(2, 4, |ctx, comm| {
        for round in 0..5u8 {
            if comm.rank() == round as u32 % 4 {
                ctx.sleep(suca_sim::SimDuration::from_us(200));
            }
            let mut v = if comm.rank() == 0 {
                vec![round; 100]
            } else {
                Vec::new()
            };
            comm.bcast(ctx, 0, &mut v);
            assert_eq!(v, vec![round; 100], "round {round} corrupted");
            let s = comm.allreduce_f64(ctx, &[1.0], ReduceOp::Sum);
            assert_eq!(s, vec![4.0]);
        }
    });
}

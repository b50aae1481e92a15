//! Whole-system integration tests spanning every crate: MPI applications
//! over both SANs, faults injected under a full MPI workload, scale-out to
//! the full 70-node DAWNING-3000, and SMP CPU accounting.

use std::cell::RefCell;
use std::rc::Rc;

use suca::cluster::{ClusterSpec, SanKind};
use suca::eadi::Universe;
use suca::mpi::{Comm, MpiConfig, ReduceOp};
use suca::myrinet::FaultPlan;
use suca::prelude::*;

fn mpi_allreduce_job(spec: ClusterSpec, ranks: u32) -> Vec<f64> {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let nodes = cluster.nodes.len() as u32;
    let out = Rc::new(RefCell::new(Vec::new()));
    for r in 0..ranks {
        let uni = uni.clone();
        let out = out.clone();
        cluster.spawn_process(r % nodes, format!("r{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            let got = comm.allreduce_f64(ctx, &[r as f64, 1.0], ReduceOp::Sum);
            if r == 0 {
                *out.borrow_mut() = got;
            }
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "MPI job hung");
    let v = out.borrow().clone();
    v
}

#[test]
fn mpi_allreduce_identical_over_myrinet_and_mesh() {
    let n = 6u32;
    let expect = vec![(0..n).map(f64::from).sum::<f64>(), n as f64];
    let myri = mpi_allreduce_job(ClusterSpec::dawning3000(3), n);
    let mesh = mpi_allreduce_job(ClusterSpec::dawning3000_mesh(3), n);
    assert_eq!(myri, expect);
    assert_eq!(mesh, expect, "same MPI binary, different SAN, same result");
}

#[test]
fn mpi_survives_lossy_network() {
    // 5 % drops + 5 % corruption on every link; the BCL reliability layer
    // must make MPI collectives exact anyway.
    let mut spec = ClusterSpec::dawning3000(3);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.05,
            corrupt_prob: 0.05,
        };
    }
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, 6);
    let results = Rc::new(RefCell::new(Vec::new()));
    for r in 0..6u32 {
        let uni = uni.clone();
        let results = results.clone();
        cluster.spawn_process(r % 3, format!("r{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            // A chained computation: bcast -> local work -> reduce.
            let mut seed = vec![0u8; 8];
            if r == 2 {
                seed = 31415u64.to_le_bytes().to_vec();
            }
            comm.bcast(ctx, 2, &mut seed);
            let x = u64::from_le_bytes(seed.clone().try_into().expect("8")) as f64;
            let total = comm.allreduce_f64(ctx, &[x * (r + 1) as f64], ReduceOp::Sum);
            results.borrow_mut().push(total[0]);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "lossy MPI job hung");
    let rs = results.borrow();
    let expect = 31415.0 * (1..=6).sum::<u64>() as f64;
    assert!(
        rs.iter().all(|&v| v == expect),
        "collective corrupted: {rs:?}"
    );
    assert!(
        sim.get_count("fabric.dropped") + sim.get_count("fabric.corrupted") > 0,
        "faults never fired; test is vacuous"
    );
    assert!(sim.get_count("bcl.retx_packets") > 0, "no retransmissions");
}

#[test]
fn full_dawning_70_nodes_all_to_root() {
    // The full machine: every node sends its id to node 0 over BCL.
    let cluster = ClusterSpec::dawning3000(70).build();
    let sim = cluster.sim.clone();
    let root_addr: Rc<RefCell<Option<suca::bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let barrier = suca::cluster::SimBarrier::new(&sim, 70);
    let sum = Rc::new(RefCell::new(0u64));

    let s2 = sum.clone();
    let ra = root_addr.clone();
    let b0 = barrier.clone();
    cluster.spawn_process(0, "root", move |ctx, env| {
        let port = env.open_port(ctx);
        *ra.borrow_mut() = Some(port.addr());
        b0.wait(ctx);
        for _ in 0..69 {
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).expect("payload");
            *s2.borrow_mut() += u64::from(u32::from_le_bytes(data.try_into().expect("4B")));
        }
    });
    for n in 1..70u32 {
        let ra = root_addr.clone();
        let b = barrier.clone();
        cluster.spawn_process(n, format!("n{n}"), move |ctx, env| {
            let port = env.open_port(ctx);
            b.wait(ctx);
            let dst = ra.borrow_mut().expect("root first");
            // Stagger to avoid exhausting the root's 64-buffer system pool.
            ctx.sleep(SimDuration::from_us(30 * u64::from(n)));
            port.send_bytes(ctx, dst, suca::bcl::ChannelId::SYSTEM, &n.to_le_bytes())
                .expect("send");
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "70-node job hung");
    assert_eq!(*sum.borrow(), (1..70).sum::<u64>());
}

#[test]
fn smp_cpu_slots_bound_parallel_compute() {
    // 6 compute-bound processes on one 4-way node: makespan shows exactly
    // the 4-slot limit.
    let cluster = ClusterSpec::dawning3000(1).build();
    let sim = cluster.sim.clone();
    for i in 0..6 {
        let node = cluster.nodes[0].clone();
        cluster.spawn_process(0, format!("hog{i}"), move |ctx, _env| {
            node.cpus.compute(ctx, SimDuration::from_ms(1));
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(sim.now().as_us(), 2000.0, "6 jobs / 4 CPUs => 2 waves");
}

#[test]
fn deterministic_replay_same_seed_same_world() {
    let run = || {
        let spec = ClusterSpec::dawning3000(3).with_seed(0xFEED);
        let counters;
        let end;
        {
            let mut spec = spec;
            if let SanKind::Myrinet(ref mut cfg) = spec.san {
                cfg.fault = FaultPlan {
                    drop_prob: 0.02,
                    corrupt_prob: 0.02,
                };
            }
            let cluster = spec.build();
            let sim = cluster.sim.clone();
            let uni = Universe::new(&sim, 3);
            for r in 0..3u32 {
                let uni = uni.clone();
                cluster.spawn_process(r, format!("r{r}"), move |ctx, env| {
                    let comm = Comm::init(
                        ctx,
                        &env.node.bcl,
                        &env.proc,
                        uni,
                        r,
                        MpiConfig::dawning3000(),
                    );
                    let _ = comm.allreduce_f64(ctx, &[f64::from(r)], ReduceOp::Max);
                });
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            counters = sim.counters();
            end = sim.now().as_ns();
        }
        (counters, end)
    };
    let (c1, t1) = run();
    let (c2, t2) = run();
    assert_eq!(t1, t2, "end times differ between identical runs");
    assert_eq!(c1, c2, "counters differ between identical runs");
}

#[test]
fn thirty_two_rank_allreduce_over_sixteen_nodes() {
    // A quarter of the DAWNING-3000 with 2 ranks per node: collectives
    // crossing many switches and the intra-node path at once.
    let cluster = ClusterSpec::dawning3000(16).build();
    let sim = cluster.sim.clone();
    const R: u32 = 32;
    let uni = Universe::new(&sim, R);
    let checked = Rc::new(RefCell::new(0u32));
    for r in 0..R {
        let uni = uni.clone();
        let checked = checked.clone();
        cluster.spawn_process(r / 2, format!("r{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            comm.barrier(ctx);
            let got = comm.allreduce_f64(ctx, &[f64::from(r), 1.0], ReduceOp::Sum);
            assert_eq!(got, vec![f64::from((0..R).sum::<u32>()), f64::from(R)]);
            // And a broadcast from a non-zero root for good measure.
            let mut blob = if r == 13 {
                vec![0xCD; 9000]
            } else {
                Vec::new()
            };
            comm.bcast(ctx, 13, &mut blob);
            assert_eq!(blob.len(), 9000);
            assert!(blob.iter().all(|b| *b == 0xCD));
            *checked.borrow_mut() += 1;
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "32-rank job hung");
    assert_eq!(*checked.borrow(), R);
}

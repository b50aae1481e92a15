//! PVM layer end-to-end over the simulated cluster.

use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_pvm::{PvmConfig, PvmTask};
use suca_sim::RunOutcome;

fn pvm_job(nodes: u32, tasks: u32, body: impl Fn(&mut suca_sim::ActorCtx, &PvmTask) + 'static) {
    let cluster = ClusterSpec::dawning3000(nodes).build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, tasks);
    let body = Rc::new(body);
    for t in 0..tasks {
        let uni = uni.clone();
        let body = body.clone();
        cluster.spawn_process(t % nodes, format!("pvm{t}"), move |ctx, env| {
            let task = PvmTask::enroll(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                t,
                PvmConfig::dawning3000(),
            );
            body(ctx, &task);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "PVM job hung");
}

#[test]
fn typed_roundtrip_between_tasks() {
    pvm_job(2, 2, |ctx, task| {
        if task.tid() == 0 {
            task.initsend()
                .pack_str("measurement")
                .pack_i32(&[42, -7])
                .pack_f64(&[3.125, 2.5]);
            task.send(ctx, 1, 11);
        } else {
            let mut m = task.recv(ctx, 0, 11);
            assert_eq!(m.buf.unpack_str().unwrap(), "measurement");
            assert_eq!(m.buf.unpack_i32().unwrap(), vec![42, -7]);
            assert_eq!(m.buf.unpack_f64().unwrap(), vec![3.125, 2.5]);
            assert_eq!((m.src_tid, m.tag), (0, 11));
        }
    });
}

#[test]
fn wildcard_recv_collects_from_all() {
    pvm_job(3, 3, |ctx, task| {
        if task.tid() == 0 {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut m = task.recv(ctx, -1, -1);
                seen.push((m.src_tid, m.buf.unpack_i32().unwrap()[0]));
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![(1, 100), (2, 200)]);
        } else {
            task.initsend().pack_i32(&[task.tid() as i32 * 100]);
            task.send(ctx, 0, 5);
        }
    });
}

#[test]
fn mcast_reaches_everyone() {
    pvm_job(2, 4, |ctx, task| {
        if task.tid() == 0 {
            task.initsend().pack_str("to all");
            task.mcast(ctx, 9);
        } else {
            let mut m = task.recv(ctx, 0, 9);
            assert_eq!(m.buf.unpack_str().unwrap(), "to all");
        }
    });
}

#[test]
fn large_typed_payload_uses_rendezvous() {
    pvm_job(2, 2, |ctx, task| {
        let doubles: Vec<f64> = (0..20_000).map(|i| i as f64 * 0.5).collect();
        if task.tid() == 0 {
            task.initsend().pack_f64(&doubles);
            task.send(ctx, 1, 1);
        } else {
            let mut m = task.recv(ctx, 0, 1);
            let got = m.buf.unpack_f64().unwrap();
            assert_eq!(got.len(), 20_000);
            assert_eq!(got[19_999], 19_999.0 * 0.5);
        }
    });
}

#[test]
fn nrecv_returns_none_before_arrival() {
    pvm_job(1, 2, |ctx, task| {
        if task.tid() == 0 {
            ctx.sleep(suca_sim::SimDuration::from_us(200));
            task.initsend().pack_i32(&[1]);
            task.send(ctx, 1, 2);
        } else {
            assert!(task.nrecv(ctx, 0, 2).is_none());
            // Blocking recv still completes.
            let mut m = task.recv(ctx, 0, 2);
            assert_eq!(m.buf.unpack_i32().unwrap(), vec![1]);
        }
    });
}

#[test]
fn master_worker_pattern() {
    // Classic PVM shape: master farms out work, collects typed results.
    pvm_job(4, 4, |ctx, task| {
        if task.tid() == 0 {
            for w in 1..4u32 {
                task.initsend().pack_i32(&[(w * 11) as i32]);
                task.send(ctx, w, 1);
            }
            let mut sum = 0i64;
            for _ in 1..4 {
                let mut m = task.recv(ctx, -1, 2);
                sum += i64::from(m.buf.unpack_i32().unwrap()[0]);
            }
            assert_eq!(sum, i64::from(11 * 2 + 22 * 2 + 33 * 2));
        } else {
            let mut m = task.recv(ctx, 0, 1);
            let x = m.buf.unpack_i32().unwrap()[0];
            task.initsend().pack_i32(&[x * 2]);
            task.send(ctx, 0, 2);
        }
    });
}

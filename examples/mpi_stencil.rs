//! MPI over BCL: a 1-D heat-diffusion stencil with halo exchange and a
//! global residual reduction — the scientific-computing workload the
//! paper's intro motivates ("technical computing").
//!
//! Eight ranks across four SMP nodes (so both the intra-node shared-memory
//! path and the Myrinet path carry halos). The parallel result is checked
//! against a serial reference computation.
//!
//! ```text
//! cargo run --example mpi_stencil
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::cluster::ClusterSpec;
use suca::eadi::Universe;
use suca::mpi::{bytes_to_f64s, f64s_to_bytes, Comm, MpiConfig, ReduceOp};
use suca::prelude::*;

const RANKS: u32 = 8;
const NODES: u32 = 4;
const CELLS_PER_RANK: usize = 64;
const STEPS: usize = 50;
const ALPHA: f64 = 0.25;

fn initial(i: usize) -> f64 {
    // A hot spike in the middle of the global rod.
    let n = RANKS as usize * CELLS_PER_RANK;
    if i == n / 2 {
        1000.0
    } else {
        0.0
    }
}

fn serial_reference() -> Vec<f64> {
    let n = RANKS as usize * CELLS_PER_RANK;
    let mut u: Vec<f64> = (0..n).map(initial).collect();
    for _ in 0..STEPS {
        let mut next = u.clone();
        for i in 1..n - 1 {
            next[i] = u[i] + ALPHA * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
        }
        u = next;
    }
    u
}

fn main() {
    let cluster = ClusterSpec::dawning3000(NODES).build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, RANKS);
    let gathered: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));

    for rank in 0..RANKS {
        let uni = uni.clone();
        let gathered = gathered.clone();
        // Two ranks per node: halos cross both the intra-node and the
        // Myrinet path.
        cluster.spawn_process(rank / 2, format!("rank{rank}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                rank,
                MpiConfig::dawning3000(),
            );
            let me = comm.rank() as usize;
            let mut u: Vec<f64> = (0..CELLS_PER_RANK)
                .map(|i| initial(me * CELLS_PER_RANK + i))
                .collect();

            for step in 0..STEPS {
                // Halo exchange with neighbors (sendrecv avoids deadlock).
                let left_halo = if me > 0 {
                    let m = comm.sendrecv(
                        ctx,
                        (me - 1) as u32,
                        step as i32 * 2,
                        &u[0].to_le_bytes(),
                        (me - 1) as i32,
                        step as i32 * 2 + 1,
                    );
                    f64::from_le_bytes(m.data.try_into().expect("8 bytes"))
                } else {
                    u[0]
                };
                let right_halo = if me + 1 < RANKS as usize {
                    let m = comm.sendrecv(
                        ctx,
                        (me + 1) as u32,
                        step as i32 * 2 + 1,
                        &u[CELLS_PER_RANK - 1].to_le_bytes(),
                        (me + 1) as i32,
                        step as i32 * 2,
                    );
                    f64::from_le_bytes(m.data.try_into().expect("8 bytes"))
                } else {
                    u[CELLS_PER_RANK - 1]
                };

                // Stencil update (global boundary cells are held fixed).
                let mut next = u.clone();
                for i in 0..CELLS_PER_RANK {
                    let gi = me * CELLS_PER_RANK + i;
                    if gi == 0 || gi == RANKS as usize * CELLS_PER_RANK - 1 {
                        continue;
                    }
                    let l = if i == 0 { left_halo } else { u[i - 1] };
                    let r = if i == CELLS_PER_RANK - 1 {
                        right_halo
                    } else {
                        u[i + 1]
                    };
                    next[i] = u[i] + ALPHA * (l - 2.0 * u[i] + r);
                }
                u = next;

                // Every 10 steps: global heat conservation check.
                if step % 10 == 9 {
                    let local: f64 = u.iter().sum();
                    let total = comm.allreduce_f64(ctx, &[local], ReduceOp::Sum)[0];
                    if me == 0 {
                        println!(
                            "step {:>2}: total heat = {total:.3} (t={})",
                            step + 1,
                            ctx.now()
                        );
                    }
                }
            }

            // Gather the final field on rank 0 and verify.
            if let Some(parts) = comm.gather(ctx, 0, &f64s_to_bytes(&u)) {
                let mut full = Vec::new();
                for p in parts {
                    full.extend(bytes_to_f64s(&p));
                }
                *gathered.borrow_mut() = full;
            }
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed);
    let parallel = gathered.borrow().clone();
    let serial = serial_reference();
    assert_eq!(parallel.len(), serial.len());
    let max_err = parallel
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nparallel vs serial reference: max |error| = {max_err:.3e}");
    assert!(max_err < 1e-9, "stencil diverged from the serial reference");
    println!("8 MPI ranks over 4 SMP nodes (intra-node + Myrinet halos): exact match.");
}

//! A pairwise exchange of large messages on a loss-free fabric resends
//! nothing.
//!
//! Every rank swaps 64 KiB with partner `rank ^ 2^k` for each bit `k` of
//! its rank — the communication pattern of recursive doubling. On the mesh
//! the cumulative acks queue behind a 16-fragment message on every link, so
//! an ack can take longer than any fixed retransmit timeout. When a timer
//! expiry resent the window, the 32-rank run resent thousands of packets
//! that were never lost and took 53.6 ms of virtual time; with the timer
//! only probing, nothing is resent and it takes about 9 ms.

use std::cell::RefCell;
use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_eadi::Universe;
use suca_mpi::{Comm, MpiConfig};
use suca_sim::{RunOutcome, SimDuration, SimTime};

/// The byte `rank` sends at offset `i` in round `k`.
fn byte(rank: u32, k: u32, i: usize) -> u8 {
    (rank as usize * 31 + k as usize * 7 + i) as u8
}

/// One rank per node: `log2(ranks)` rounds of `sendrecv` of `bytes` with
/// partner `rank ^ 2^k`, every byte checked. Returns the virtual time from
/// the start of the first round to the last rank's last receive, with the
/// run's `bcl.retx_packets` and `bcl.rx_discarded`.
fn exchange(spec: ClusterSpec, ranks: u32, bytes: usize) -> (SimDuration, u64, u64) {
    assert!(ranks.is_power_of_two());
    let cluster = spec.with_trace_sampling(0).build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let span: Rc<RefCell<(SimTime, SimTime)>> =
        Rc::new(RefCell::new((SimTime::from_ns(u64::MAX), SimTime::ZERO)));
    for r in 0..ranks {
        let (uni, span) = (uni.clone(), span.clone());
        cluster.spawn_process(r, format!("mpi{r}"), move |ctx, env| {
            let comm = Comm::init(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                MpiConfig::dawning3000(),
            );
            comm.barrier(ctx);
            let start = ctx.now();
            for k in 0..ranks.trailing_zeros() {
                let partner = r ^ (1 << k);
                let out: Vec<u8> = (0..bytes).map(|i| byte(r, k, i)).collect();
                let got = comm.sendrecv(ctx, partner, k as i32, &out, partner as i32, k as i32);
                assert_eq!(got.data.len(), bytes, "rank {r} round {k}: short");
                let bad = (0..bytes).find(|&i| got.data[i] != byte(partner, k, i));
                assert_eq!(bad, None, "rank {r} round {k}: first wrong byte");
            }
            let mut span = span.borrow_mut();
            span.0 = span.0.min(start);
            span.1 = span.1.max(ctx.now());
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "exchange hung");
    let (start, end) = *span.borrow();
    let resent = sim.get_count("bcl.retx_packets");
    (end.since(start), resent, sim.get_count("bcl.rx_discarded"))
}

#[test]
fn a_loss_free_mesh_exchange_resends_nothing() {
    let (took, resent, discarded) = exchange(ClusterSpec::dawning3000_mesh(32), 32, 64 << 10);
    eprintln!("mesh/32 x 64 KiB pairwise exchange: {took:?}");
    assert_eq!(
        (resent, discarded),
        (0, 0),
        "a loss-free run resent packets"
    );
    assert!(
        took < SimDuration::from_ms(12),
        "mesh/32 x 64 KiB took {took:?}: the exchange stalls on the timer again"
    );
}

/// The 64-rank cells, on both fabrics (a few seconds each in release).
#[test]
#[ignore]
fn a_loss_free_exchange_at_64_ranks_resends_nothing() {
    for (name, spec, kib) in [
        ("mesh", ClusterSpec::dawning3000_mesh(64), 64),
        ("mesh", ClusterSpec::dawning3000_mesh(64), 256),
        ("myrinet", ClusterSpec::dawning3000(64), 64),
    ] {
        let (took, resent, discarded) = exchange(spec, 64, kib << 10);
        eprintln!("{name}/64 x {kib} KiB pairwise exchange: {took:?}");
        assert_eq!(
            (resent, discarded),
            (0, 0),
            "{name}/64 x {kib} KiB resent packets"
        );
    }
}

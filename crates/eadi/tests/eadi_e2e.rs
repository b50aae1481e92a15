//! End-to-end EADI-2 tests over the full simulated cluster: matching with
//! wildcards, unexpected messages, eager↔rendezvous switchover, many-peer
//! traffic, and both SANs.

use std::rc::Rc;

use suca_cluster::ClusterSpec;
use suca_eadi::{EadiConfig, EadiEndpoint, Universe};
use suca_sim::RunOutcome;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(17).wrapping_add(salt))
        .collect()
}

/// Spawn `n` EADI ranks (one per node, round-robin) and run `body(rank)`.
fn run_ranks(
    nodes: u32,
    ranks: u32,
    body: impl Fn(&mut suca_sim::ActorCtx, EadiEndpoint) + 'static,
) {
    let cluster = ClusterSpec::dawning3000(nodes).build();
    let sim = cluster.sim.clone();
    let uni = Universe::new(&sim, ranks);
    let body = Rc::new(body);
    for r in 0..ranks {
        let uni = uni.clone();
        let body = body.clone();
        cluster.spawn_process(r % nodes, format!("rank{r}"), move |ctx, env| {
            let ep = EadiEndpoint::create(
                ctx,
                &env.node.bcl,
                &env.proc,
                uni,
                r,
                EadiConfig::dawning3000(),
            );
            body(ctx, ep);
        });
    }
    assert_eq!(sim.run(), RunOutcome::Completed, "EADI job hung");
}

#[test]
fn eager_send_recv_with_exact_match() {
    run_ranks(2, 2, |ctx, ep| {
        if ep.rank() == 0 {
            ep.send(ctx, 1, 42, b"hello eadi");
        } else {
            let m = ep.recv(ctx, Some(0), Some(42));
            assert_eq!((m.src, m.tag), (0, 42));
            assert_eq!(m.data, b"hello eadi");
        }
    });
}

#[test]
fn rendezvous_large_message_integrity() {
    let payload = pattern(200_000, 3);
    let expect = payload.clone();
    run_ranks(2, 2, move |ctx, ep| {
        if ep.rank() == 0 {
            ep.send(ctx, 1, 7, &payload);
        } else {
            let m = ep.recv(ctx, Some(0), Some(7));
            assert_eq!(m.data.len(), 200_000);
            assert_eq!(m.data, expect, "rendezvous payload damaged");
        }
    });
}

#[test]
fn unexpected_eager_messages_queue_and_match_later() {
    run_ranks(2, 2, |ctx, ep| {
        if ep.rank() == 0 {
            // Send before the receiver posts anything.
            ep.send(ctx, 1, 1, b"first");
            ep.send(ctx, 1, 2, b"second");
            ep.send(ctx, 1, 1, b"third");
        } else {
            ctx.sleep(suca_sim::SimDuration::from_us(500));
            // Out-of-order receives by tag; same-tag order must hold.
            let m2 = ep.recv(ctx, Some(0), Some(2));
            assert_eq!(m2.data, b"second");
            let m1 = ep.recv(ctx, Some(0), Some(1));
            assert_eq!(m1.data, b"first");
            let m3 = ep.recv(ctx, Some(0), Some(1));
            assert_eq!(m3.data, b"third");
        }
    });
}

#[test]
fn wildcard_source_and_tag() {
    run_ranks(3, 3, |ctx, ep| {
        match ep.rank() {
            0 => ep.send(ctx, 2, 10, b"from zero"),
            1 => ep.send(ctx, 2, 20, b"from one"),
            _ => {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let m = ep.recv(ctx, None, None); // ANY_SOURCE, ANY_TAG
                    got.push((m.src, m.tag, m.data));
                }
                got.sort();
                assert_eq!(got[0], (0, 10, b"from zero".to_vec()));
                assert_eq!(got[1], (1, 20, b"from one".to_vec()));
            }
        }
    });
}

#[test]
fn late_receiver_rendezvous_still_completes() {
    let payload = pattern(150_000, 9);
    let expect = payload.clone();
    run_ranks(2, 2, move |ctx, ep| {
        if ep.rank() == 0 {
            ep.send(ctx, 1, 5, &payload); // RTS waits as unexpected
        } else {
            ctx.sleep(suca_sim::SimDuration::from_us(800));
            let m = ep.recv(ctx, Some(0), Some(5));
            assert_eq!(m.data, expect);
        }
    });
}

#[test]
fn nonblocking_irecv_and_test() {
    run_ranks(2, 2, |ctx, ep| {
        if ep.rank() == 0 {
            ctx.sleep(suca_sim::SimDuration::from_us(100));
            ep.send(ctx, 1, 3, b"async");
        } else {
            let req = ep.irecv(ctx, Some(0), Some(3));
            assert!(ep.test(ctx, req).is_none(), "must not be complete yet");
            let m = ep.wait(ctx, req);
            assert_eq!(m.data, b"async");
        }
    });
}

#[test]
fn intra_node_ranks_communicate_over_shared_memory() {
    // Both ranks on node 0: EADI rides the intra-node path transparently.
    run_ranks(1, 2, |ctx, ep| {
        if ep.rank() == 0 {
            ep.send(ctx, 1, 1, b"same node");
            let big = pattern(100_000, 4);
            ep.send(ctx, 1, 2, &big);
        } else {
            let m = ep.recv(ctx, Some(0), Some(1));
            assert_eq!(m.data, b"same node");
            let m = ep.recv(ctx, Some(0), Some(2));
            assert_eq!(m.data, pattern(100_000, 4));
        }
    });
}

#[test]
fn many_to_one_traffic() {
    run_ranks(4, 4, |ctx, ep| {
        if ep.rank() == 0 {
            let mut total = 0usize;
            for _ in 0..3 {
                let m = ep.recv(ctx, None, None);
                assert_eq!(m.data, pattern(10_000, m.src as u8));
                total += m.data.len();
            }
            assert_eq!(total, 30_000);
        } else {
            let r = ep.rank();
            ep.send(ctx, 0, r as i32, &pattern(10_000, r as u8));
        }
    });
}

#[test]
fn ping_pong_many_iterations_mixed_sizes() {
    run_ranks(2, 2, |ctx, ep| {
        let sizes = [0usize, 100, 4000, 5000, 40_000, 100_000];
        if ep.rank() == 0 {
            for (i, &s) in sizes.iter().enumerate() {
                ep.send(ctx, 1, i as i32, &pattern(s, i as u8));
                let back = ep.recv(ctx, Some(1), Some(i as i32));
                assert_eq!(back.data.len(), s);
            }
        } else {
            for (i, &s) in sizes.iter().enumerate() {
                let m = ep.recv(ctx, Some(0), Some(i as i32));
                assert_eq!(m.data, pattern(s, i as u8));
                ep.send(ctx, 0, i as i32, &m.data);
            }
        }
    });
}

#[test]
fn many_concurrent_rendezvous_exceed_channel_pool_and_backlog() {
    // 16 concurrent large transfers × up to 8 channels each cannot all hold
    // channels at once (64 per port); the CTS backlog must serialize the
    // excess instead of failing.
    let payloads: Vec<Vec<u8>> = (0..16u8).map(|i| pattern(150_000, i)).collect();
    let expect = payloads.clone();
    run_ranks(2, 2, move |ctx, ep| {
        if ep.rank() == 0 {
            let reqs: Vec<_> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| ep.isend(ctx, 1, i as i32, p))
                .collect();
            for r in reqs {
                ep.wait_send(ctx, r);
            }
        } else {
            // Post all receives up front so every RTS matches immediately
            // and channel pressure peaks.
            let reqs: Vec<_> = (0..16i32)
                .map(|t| ep.irecv(ctx, Some(0), Some(t)))
                .collect();
            for (i, r) in reqs.into_iter().enumerate() {
                let m = ep.wait(ctx, r);
                assert_eq!(m.data, expect[i], "transfer {i} damaged");
            }
        }
    });
}

#[test]
fn interleaved_eager_and_rendezvous_streams_stay_ordered_per_tag() {
    run_ranks(2, 2, |ctx, ep| {
        if ep.rank() == 0 {
            for i in 0..6u8 {
                // Alternate small (eager) and large (rendezvous) on one tag.
                let len = if i % 2 == 0 { 100 } else { 50_000 };
                ep.send(ctx, 1, 1, &pattern(len, i));
            }
        } else {
            for i in 0..6u8 {
                let m = ep.recv(ctx, Some(0), Some(1));
                let len = if i % 2 == 0 { 100 } else { 50_000 };
                assert_eq!(
                    m.data,
                    pattern(len, i),
                    "message {i} out of order or damaged"
                );
            }
        }
    });
}

#[test]
fn cancel_recv_releases_the_posting() {
    run_ranks(1, 2, |ctx, ep| {
        if ep.rank() == 0 {
            ctx.sleep(suca_sim::SimDuration::from_us(100));
            ep.send(ctx, 1, 7, b"late");
        } else {
            let r1 = ep.irecv(ctx, Some(0), Some(7));
            assert!(ep.cancel_recv(r1), "unmatched request must cancel");
            // The message must match a *new* request, not the cancelled one.
            let m = ep.recv(ctx, Some(0), Some(7));
            assert_eq!(m.data, b"late");
        }
    });
}

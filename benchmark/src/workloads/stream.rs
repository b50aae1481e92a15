//! `stream_large` — two nodes on Myrinet, a one-way stream of ~128 KiB
//! messages over eight normal channels, the sender rotating over 64
//! distinct buffers (8 MiB, 2,048 pages).
//!
//! Wire transmission and data DMA dominate (71 % of self-time at 64 KiB),
//! the 7 µs host window is amortised to a few percent, and the buffer
//! rotation makes pin-down lookups a working set instead of one hot
//! buffer. The bandwidth the paper quotes (146 MB/s) is this workload's
//! `sim_payload_mb_s`.

use std::sync::{Arc, Mutex};

use suca_bcl::{BclError, ChannelId, ProcAddr};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::{SimDuration, SimRng};

use super::{
    drain_sends, pattern, recv_polled, stamps, Harness, Outcome, Phase, SharedTally, Tally,
};

/// Measured messages per rep.
const COUNT: usize = 1_536;
/// Channels posted round-robin by the receiver.
const WINDOW: usize = 8;
/// Distinct sender buffers.
const BUFFERS: usize = 64;
/// Buffer size and largest message; sizes are drawn from the top 4 KiB
/// below it in 64-byte steps, so quantiles depend on the seed.
const MSG_BYTES: u64 = 128 * 1024;
/// Peak inter-node bandwidth on DAWNING-3000, MB/s (paper §5).
const PAPER_BW_MB_S: f64 = 146.0;

#[derive(Clone, Copy)]
struct Msg {
    buffer: usize,
    len: u64,
}

/// One warm-up lap over every buffer, then `COUNT` measured messages
/// walking a seeded rotation of the buffers.
fn schedule(seed: u64) -> Vec<Msg> {
    let mut rng = SimRng::fork(seed, "bench.stream.ops");
    let mut order: Vec<usize> = (0..BUFFERS).collect();
    for i in (1..BUFFERS).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..BUFFERS + COUNT)
        .map(|i| Msg {
            buffer: order[i % BUFFERS],
            len: MSG_BYTES - 64 * rng.below(64),
        })
        .collect()
}

/// Run one rep.
pub fn run(h: &mut Harness) -> Outcome {
    let mut out = Outcome::default();
    let msgs = Arc::new(schedule(h.seed));
    out.attempted = COUNT as u64;

    let cluster = h.build(ClusterSpec::dawning3000(2));
    let phase = Phase::new(&cluster, 2, 2);
    let stamps = stamps(msgs.len());
    let tally: SharedTally = Arc::default();
    let recv_addr: Arc<Mutex<Option<ProcAddr>>> = Arc::default();
    let meet = SimBarrier::new(&cluster.sim, 2);
    // Closes the warm-up lap: the sender may not start the measured phase
    // before the receiver has taken the last warm-up message.
    let warm = SimBarrier::new(&cluster.sim, 2);

    {
        let (msgs, phase, stamps, tally) =
            (msgs.clone(), phase.clone(), stamps.clone(), tally.clone());
        let (recv_addr, meet, warm, rec, seed) = (
            recv_addr.clone(),
            meet.clone(),
            warm.clone(),
            h.rec.clone(),
            h.seed,
        );
        cluster.spawn_process(1, "stream-recv", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut log = rec.log(1, 1);
            let bufs: Vec<_> = (0..WINDOW)
                .map(|c| port.post_recv(ctx, c as u16, MSG_BYTES).expect("post recv"))
                .collect();
            *recv_addr.lock().expect("addr poisoned") = Some(port.addr());
            let sender_bytes: Vec<Vec<u8>> = (0..BUFFERS)
                .map(|b| pattern(seed, b as u64, MSG_BYTES as usize))
                .collect();
            meet.wait(ctx);
            let mut t = Tally::default();
            // Messages on one channel arrive in order, so the k-th arrival
            // on channel c is message c + k·WINDOW.
            let mut laps = [0usize; WINDOW];
            for n in 0..msgs.len() {
                if n == BUFFERS {
                    warm.wait(ctx);
                    phase.enter(ctx, false);
                }
                let ev = recv_polled(ctx, &port, &mut log, n as u64);
                let chan = ev.channel.index as usize;
                let i = chan + laps[chan] * WINDOW;
                laps[chan] += 1;
                let sent = stamps.lock().expect("stamps poisoned")[i];
                let lat = ctx.now().as_ns() - sent.0;
                let msg = msgs[i];
                let good = port
                    .recv_bytes(ctx, &ev)
                    .is_ok_and(|d| d == sender_bytes[msg.buffer][..msg.len as usize]);
                if i + WINDOW < msgs.len() {
                    port.post_recv_at(ctx, chan as u16, bufs[chan], MSG_BYTES)
                        .expect("re-post");
                }
                if i < BUFFERS {
                    if !good {
                        t.errors.push(format!("warm-up message {i} corrupt"));
                    }
                    continue;
                }
                log.root(ctx, "op.oneway", i as u64, sent);
                if good {
                    t.record("msg", lat, msg.len);
                } else {
                    t.errors
                        .push(format!("message {i} corrupt ({} B)", msg.len));
                }
            }
            phase.exit(ctx, true);
            tally.lock().expect("tally poisoned").merge(t);
        });
    }

    {
        let (msgs, phase, stamps) = (msgs.clone(), phase.clone(), stamps.clone());
        let (recv_addr, meet, warm, rec, seed) = (
            recv_addr.clone(),
            meet.clone(),
            warm.clone(),
            h.rec.clone(),
            h.seed,
        );
        cluster.spawn_process(0, "stream-send", move |ctx, env| {
            let port = env.open_port(ctx);
            let mut log = rec.log(0, 0);
            let bufs: Vec<_> = (0..BUFFERS)
                .map(|b| {
                    let addr = port.alloc_buffer(MSG_BYTES).expect("send buffer");
                    port.write_buffer(addr, &pattern(seed, b as u64, MSG_BYTES as usize))
                        .expect("fill buffer");
                    addr
                })
                .collect();
            meet.wait(ctx);
            let dst = recv_addr
                .lock()
                .expect("addr poisoned")
                .expect("receiver up");
            for (i, msg) in msgs.iter().enumerate() {
                if i == BUFFERS {
                    drain_sends(ctx, &port, SimDuration::from_us(500));
                    log.clear();
                    warm.wait(ctx);
                    phase.enter(ctx, true);
                }
                stamps.lock().expect("stamps poisoned")[i] = (ctx.now().as_ns(), log.host_ns());
                let chan = ChannelId::normal((i % WINDOW) as u16);
                loop {
                    let sent = log.call(ctx, "bcl.send", i as u64, |ctx| {
                        port.send(ctx, dst, chan, bufs[msg.buffer], msg.len)
                    });
                    match sent {
                        Ok(_) => break,
                        // Ring backpressure: park until a completion frees
                        // a slot. The wait is part of the op's latency.
                        Err(BclError::RingFull) => {
                            let _ = port.wait_send(ctx);
                        }
                        Err(e) => panic!("stream send failed: {e}"),
                    }
                }
                while log
                    .poll(ctx, "bcl.poll_send", i as u64, |ctx| port.poll_send(ctx))
                    .is_some()
                {}
            }
            phase.exit(ctx, false);
            drain_sends(ctx, &port, SimDuration::from_us(500));
        });
    }

    h.run(&cluster, &mut out);
    phase.collect(&mut out);
    out.absorb(Tally::take(&tally));

    let mb_s = out.payload_bytes as f64 / (out.phase_ns as f64 / 1e3);
    out.layer.insert(
        "bcl.paper_bw128k_err_pct",
        (mb_s - PAPER_BW_MB_S).abs() / PAPER_BW_MB_S * 100.0,
    );
    // Acceptance: the stream sustains the paper's bandwidth plateau.
    if mb_s < 144.0 {
        out.fail(format!("stream bandwidth {mb_s:.2} MB/s, below 144 MB/s"));
    }
    out
}

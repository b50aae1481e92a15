//! `pingpong_small` — two nodes on Myrinet trade small messages on the
//! system channel, one in flight at a time.
//!
//! The paper's headline path (library → trap → PIO → MCP → wire → DMA →
//! completion-queue poll) does all the work; with two actor threads the
//! engine, the fabric's queues and the RPC layer do next to nothing. Every
//! message is one op, timed one-way from just before `BclPort::send` to
//! just after the receiver's `poll_recv` returns it.

use std::sync::{Arc, Mutex};

use suca_bcl::{BclPort, ChannelId, ProcAddr};
use suca_cluster::ClusterSpec;
use suca_mem::VirtAddr;
use suca_sim::{ActorCtx, SimDuration, SimRng};

use super::{
    drain_sends, pattern, recv_polled, stamps, Harness, Outcome, Phase, SharedTally, Stamps, Tally,
};
use crate::spans::SpanLog;

/// Ping-pong rounds per rep; each is two ops.
const ROUNDS: usize = 3_000;
/// Size classes of the mix, 20 % each. A non-zero class is drawn from
/// `[3/4·c, c]` so that the latency quantiles depend on the seed; the
/// 0-byte class stays exact because the paper's 18.3 µs is quoted for it.
const CLASSES: [u64; 5] = [0, 64, 256, 1_024, 4_096];
/// Each side sends from one buffer of two pages, allocated once.
const BUF_BYTES: u64 = 8_192;
/// One-way latency of a 0-byte message on DAWNING-3000, µs (paper §5).
const PAPER_LAT0_US: f64 = 18.3;

#[derive(Clone, Copy)]
struct Op {
    len: u64,
    /// Offset into the sender's buffer the bytes are sent from.
    off: u64,
    /// Think time before the op (pings only), ns.
    gap_ns: u64,
}

fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = SimRng::fork(seed, "bench.pingpong.ops");
    (0..2 * ROUNDS)
        .map(|_| {
            let class = CLASSES[rng.below(CLASSES.len() as u64) as usize];
            let len = class - rng.below(class / 4 + 1);
            Op {
                len,
                off: rng.below((BUF_BYTES - len) / 8 + 1) * 8,
                gap_ns: rng.range(1_000, 3_000),
            }
        })
        .collect()
}

/// One side's fixed state.
struct Side {
    port: BclPort,
    buf: VirtAddr,
    peer: ProcAddr,
    /// What the peer's buffer holds.
    peer_bytes: Vec<u8>,
    log: SpanLog,
}

impl Side {
    fn send(&mut self, ctx: &mut ActorCtx, k: usize, op: Op, stamps: &Stamps) {
        stamps.lock().expect("stamps poisoned")[k] = (ctx.now().as_ns(), self.log.host_ns());
        let (port, peer, addr) = (&self.port, self.peer, VirtAddr(self.buf.0 + op.off));
        self.log
            .call(ctx, "bcl.send", k as u64, |ctx| {
                port.send(ctx, peer, ChannelId::SYSTEM, addr, op.len)
            })
            .expect("system-channel send refused");
    }

    /// Receive op `k`, time it from its send stamp, and check its bytes.
    fn recv_op(&mut self, ctx: &mut ActorCtx, k: usize, op: Op, stamps: &Stamps, t: &mut Tally) {
        let ev = recv_polled(ctx, &self.port, &mut self.log, k as u64);
        let sent = stamps.lock().expect("stamps poisoned")[k];
        let lat = ctx.now().as_ns() - sent.0;
        self.log.root(ctx, "op.oneway", k as u64, sent);
        let data = self.port.recv_bytes(ctx, &ev).expect("system buffer read");
        let want = &self.peer_bytes[op.off as usize..(op.off + op.len) as usize];
        if data == want {
            t.record(if op.len == 0 { "len0" } else { "sized" }, lat, op.len);
        } else {
            t.errors
                .push(format!("op {k}: payload mismatch ({} B)", op.len));
        }
    }
}

/// Run one rep.
pub fn run(h: &mut Harness) -> Outcome {
    let mut out = Outcome::default();
    let ops = Arc::new(schedule(h.seed));
    out.attempted = ops.len() as u64;

    let cluster = h.build(ClusterSpec::dawning3000(2));
    let phase = Phase::new(&cluster, 2, 2);
    let stamps = stamps(ops.len());
    let tally: SharedTally = Arc::default();
    let addrs: Arc<Mutex<[Option<ProcAddr>; 2]>> = Arc::default();
    let meet = suca_cluster::SimBarrier::new(&cluster.sim, 2);

    for me in 0..2u32 {
        let (ops, phase, stamps, tally) =
            (ops.clone(), phase.clone(), stamps.clone(), tally.clone());
        let (addrs, meet, rec, seed) = (addrs.clone(), meet.clone(), h.rec.clone(), h.seed);
        cluster.spawn_process(me, format!("pingpong{me}"), move |ctx, env| {
            let port = env.open_port(ctx);
            let buf = port.alloc_buffer(BUF_BYTES).expect("buffer");
            port.write_buffer(buf, &pattern(seed, u64::from(me), BUF_BYTES as usize))
                .expect("fill buffer");
            addrs.lock().expect("addrs poisoned")[me as usize] = Some(port.addr());
            meet.wait(ctx);
            let peer = addrs.lock().expect("addrs poisoned")[1 - me as usize].expect("peer up");
            let mut side = Side {
                port,
                buf,
                peer,
                peer_bytes: pattern(seed, u64::from(1 - me), BUF_BYTES as usize),
                log: rec.log(me, me),
            };
            let mut t = Tally::default();
            let pinger = me == 0;

            // Warm-up outside the measured phase: one exchange per buffer
            // page, so the pin-down table already holds both pages.
            let mut scratch = Tally::default();
            for page in 0..BUF_BYTES / 4_096 {
                let warm = Op {
                    len: 4_096,
                    off: page * 4_096,
                    gap_ns: 0,
                };
                let warm_stamps = super::stamps(1);
                if pinger {
                    side.send(ctx, 0, warm, &warm_stamps);
                    side.recv_op(ctx, 0, warm, &warm_stamps, &mut scratch);
                } else {
                    side.recv_op(ctx, 0, warm, &warm_stamps, &mut scratch);
                    side.send(ctx, 0, warm, &warm_stamps);
                }
            }
            while side.port.poll_send(ctx).is_some() {}
            side.log.clear();

            phase.enter(ctx, pinger);
            for round in 0..ROUNDS {
                let (ping, pong) = (2 * round, 2 * round + 1);
                if pinger {
                    ctx.sleep(SimDuration::from_ns(ops[ping].gap_ns));
                    side.send(ctx, ping, ops[ping], &stamps);
                    side.recv_op(ctx, pong, ops[pong], &stamps, &mut t);
                } else {
                    side.recv_op(ctx, ping, ops[ping], &stamps, &mut t);
                    side.send(ctx, pong, ops[pong], &stamps);
                }
            }
            while side.port.poll_send(ctx).is_some() {}
            phase.exit(ctx, pinger);

            drain_sends(ctx, &side.port, SimDuration::from_us(500));
            t.errors.append(&mut scratch.errors);
            tally.lock().expect("tally poisoned").merge(t);
        });
    }

    h.run(&cluster, &mut out);
    phase.collect(&mut out);
    let by_class = out.absorb(Tally::take(&tally));

    let lat0 = by_class.get("len0").cloned().unwrap_or_default();
    if lat0.is_empty() {
        out.fail("no 0-byte op in the mix");
    } else {
        let mean_us = lat0.iter().sum::<u64>() as f64 / lat0.len() as f64 / 1e3;
        out.layer.insert(
            "bcl.paper_lat0_err_pct",
            (mean_us - PAPER_LAT0_US).abs() / PAPER_LAT0_US * 100.0,
        );
        // Acceptance: the 0-byte one-way latency is the paper's 18.30 µs.
        if (mean_us - PAPER_LAT0_US).abs() > 0.005 {
            out.fail(format!(
                "0-byte one-way latency {mean_us:.3} us, paper 18.30 us"
            ));
        }
    }
    out
}

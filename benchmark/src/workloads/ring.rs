//! `ring_storm_512` — 512 nodes on Myrinet, every node sends eight small
//! messages to its right neighbour and receives eight from its left.
//!
//! The message path is the one `pingpong_small` uses, but here 512 actor
//! threads are alive at once, so the simulator's host time goes to handing
//! the baton between threads while the model layers do almost nothing per
//! event. It is the engine workload, and the contrast to `pingpong_small`:
//! a change to the engine must move `host_wall_s` here and no virtual-time
//! number anywhere.

use std::sync::{Arc, Mutex};

use suca_bcl::{ChannelId, ProcAddr};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_mem::VirtAddr;
use suca_sim::{SimDuration, SimRng};

use super::{
    drain_sends, pattern, recv_polled, stamps, Harness, Outcome, Phase, SharedTally, Tally,
};

const NODES: u32 = 512;
/// Messages each node sends; message `i` rides normal channel `i`.
const MSGS: usize = 8;
/// Largest message; sizes are drawn from `[7/8·512, 512]`.
const MSG_BYTES: u64 = 512;

/// Per node: a start delay and the size of each message.
struct NodePlan {
    start_ns: u64,
    len: [u64; MSGS],
}

fn schedule(seed: u64) -> Vec<NodePlan> {
    let mut rng = SimRng::fork(seed, "bench.ring.ops");
    (0..NODES)
        .map(|_| NodePlan {
            start_ns: rng.below(20_000),
            len: std::array::from_fn(|_| MSG_BYTES - rng.below(MSG_BYTES / 8 + 1)),
        })
        .collect()
}

/// Run one rep.
pub fn run(h: &mut Harness) -> Outcome {
    let mut out = Outcome::default();
    let plan = Arc::new(schedule(h.seed));
    out.attempted = u64::from(NODES) * MSGS as u64;

    let cluster = h.build(ClusterSpec::dawning3000(NODES));
    let phase = Phase::new(&cluster, NODES, NODES);
    let stamps = stamps(NODES as usize * MSGS);
    let tally: SharedTally = Arc::default();
    let addrs: Arc<Mutex<Vec<Option<ProcAddr>>>> = Arc::new(Mutex::new(vec![None; NODES as usize]));
    let meet = SimBarrier::new(&cluster.sim, NODES);

    for me in 0..NODES {
        let (plan, phase, stamps, tally) =
            (plan.clone(), phase.clone(), stamps.clone(), tally.clone());
        let (addrs, meet, rec, seed) = (addrs.clone(), meet.clone(), h.rec.clone(), h.seed);
        cluster.spawn_process(me, format!("ring{me}"), move |ctx, env| {
            let (left, right) = ((me + NODES - 1) % NODES, (me + 1) % NODES);
            let port = env.open_port(ctx);
            let mut log = rec.log(me, me);
            let buf_len = MSG_BYTES as usize * MSGS;
            let buf = port.alloc_buffer(buf_len as u64).expect("send buffer");
            port.write_buffer(buf, &pattern(seed, u64::from(me), buf_len))
                .expect("fill buffer");
            let left_bytes = pattern(seed, u64::from(left), buf_len);
            for i in 0..MSGS {
                port.post_recv(ctx, i as u16, MSG_BYTES).expect("post recv");
            }
            addrs.lock().expect("addrs poisoned")[me as usize] = Some(port.addr());
            meet.wait(ctx);
            let right_addr = addrs.lock().expect("addrs poisoned")[right as usize].expect("up");
            let mut t = Tally::default();

            phase.enter(ctx, me == 0);
            ctx.sleep(SimDuration::from_ns(plan[me as usize].start_ns));
            for i in 0..MSGS {
                let op = me as usize * MSGS + i;
                stamps.lock().expect("stamps poisoned")[op] = (ctx.now().as_ns(), log.host_ns());
                let addr = VirtAddr(buf.0 + i as u64 * MSG_BYTES);
                let len = plan[me as usize].len[i];
                log.call(ctx, "bcl.send", op as u64, |ctx| {
                    port.send(ctx, right_addr, ChannelId::normal(i as u16), addr, len)
                })
                .expect("send refused");
            }
            for _ in 0..MSGS {
                let ev = recv_polled(ctx, &port, &mut log, u64::from(left) * MSGS as u64);
                let i = ev.channel.index as usize;
                let op = left as usize * MSGS + i;
                let sent = stamps.lock().expect("stamps poisoned")[op];
                let lat = ctx.now().as_ns() - sent.0;
                log.root(ctx, "op.oneway", op as u64, sent);
                let len = plan[left as usize].len[i];
                let want = &left_bytes[i * MSG_BYTES as usize..][..len as usize];
                match port.recv_bytes(ctx, &ev) {
                    Ok(data) if data == want => t.record("msg", lat, len),
                    _ => t
                        .errors
                        .push(format!("node {me}: message {i} from {left} corrupt")),
                }
            }
            phase.exit(ctx, me == 0);
            drain_sends(ctx, &port, SimDuration::from_us(200));
            tally.lock().expect("tally poisoned").merge(t);
        });
    }

    h.run(&cluster, &mut out);
    phase.collect(&mut out);
    out.absorb(Tally::take(&tally));
    out
}

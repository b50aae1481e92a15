//! Measurement harnesses.
//!
//! These functions run the same micro-benchmarks the paper runs on
//! DAWNING-3000 — one-way latency and bandwidth sweeps, inter- and
//! intra-node — each on a freshly built, deterministic cluster. Because the
//! simulation clock is global, one-way latency is measured directly (no
//! RTT/2 approximation).

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{BclError, ChannelId};
use suca_sim::critpath::{self, MessageCritPath};
use suca_sim::{ActorCtx, RunOutcome, Signal, Sim, TraceId};

use crate::builder::{Cluster, ClusterSpec};

/// A reusable rendezvous barrier for test/benchmark actors. Crossing it
/// costs no virtual time; it only sequences setup phases.
#[derive(Clone)]
pub struct SimBarrier {
    n: u32,
    state: Rc<RefCell<(u32, u64)>>, // (arrived, generation)
    signal: Signal,
}

impl SimBarrier {
    /// Barrier for `n` participants.
    pub fn new(sim: &Sim, n: u32) -> Self {
        assert!(n > 0);
        SimBarrier {
            n,
            state: Rc::new(RefCell::new((0, 0))),
            signal: Signal::new(sim),
        }
    }

    /// Block until all `n` participants have arrived.
    pub fn wait(&self, ctx: &mut ActorCtx) {
        let gen = {
            let mut st = self.state.borrow_mut();
            let gen = st.1;
            st.0 += 1;
            if st.0 == self.n {
                st.0 = 0;
                st.1 += 1;
                self.signal.notify();
                return;
            }
            gen
        };
        let state = self.state.clone();
        self.signal.wait_until(ctx, || state.borrow().1 != gen);
    }
}

/// Outcome of a latency measurement.
pub struct LatencyResult {
    /// Message size in bytes.
    pub size: u64,
    /// Mean one-way latency over the timed messages, µs.
    pub one_way_us: f64,
    /// Summed one-way latency of the timed messages, ns: send call to the
    /// receiver's poll return.
    pub timed_ns: u64,
    /// The timed messages, in send order.
    pub timed: Vec<TraceId>,
    /// The finished run, for callers that read its trace or write its
    /// artifacts.
    pub cluster: Cluster,
}

impl LatencyResult {
    /// The timed messages' critical paths, in send order. Intra-node
    /// messages are not traced, so a `src == dst` run has none.
    pub fn critpath(&self) -> Vec<MessageCritPath> {
        let mut paths = critpath::analyze(&self.cluster.trace_events());
        paths.retain(|p| self.timed.contains(&p.trace));
        paths
    }
}

/// Measure mean one-way latency between two BCL processes: `warmup`
/// untimed, then `iters` timed messages, each answered by a 0 B pacing
/// reply.
///
/// * `src == dst` measures the intra-node shared-memory path.
/// * Sizes up to the system-buffer size use the system channel (as the
///   paper prescribes for small messages); larger sizes use a normal
///   channel re-posted each iteration.
pub fn measure_one_way(
    spec: ClusterSpec,
    src: u32,
    dst: u32,
    size: u64,
    warmup: u32,
    iters: u32,
) -> LatencyResult {
    let system_max = spec.bcl.system_pool.buffer_bytes;
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_of_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    // Per message: (send call, trace id) on the sender, poll return on the
    // receiver.
    let sends = Rc::new(RefCell::new(Vec::new()));
    let recv_times = Rc::new(RefCell::new(Vec::new()));
    let total = warmup + iters;
    let use_system = size <= system_max;
    let channel = if use_system {
        ChannelId::SYSTEM
    } else {
        ChannelId::normal(0)
    };

    // Receiver.
    {
        let barrier = barrier.clone();
        let addr_of_b = addr_of_b.clone();
        let recv_times = recv_times.clone();
        cluster.spawn_process(dst, "latency-recv", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr_of_b.borrow_mut() = Some(port.addr());
            let buf = if use_system {
                None
            } else {
                Some(port.post_recv(ctx, 0, size).expect("post"))
            };
            barrier.wait(ctx);
            for _ in 0..total {
                let ev = port.wait_recv(ctx);
                recv_times.borrow_mut().push(ctx.now().as_ns());
                let data = port.recv_bytes(ctx, &ev).expect("recv data");
                assert_eq!(data.len() as u64, size, "payload length corrupted");
                if let Some(addr) = buf {
                    port.post_recv_at(ctx, 0, addr, size).expect("re-post");
                }
                // Pace the sender.
                port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, b"")
                    .expect("reply token");
            }
        });
    }

    // Sender.
    {
        let barrier = barrier.clone();
        let sends = sends.clone();
        cluster.spawn_process(src, "latency-send", move |ctx, env| {
            let port = env.open_port(ctx);
            let buf = port.alloc_buffer(size.max(1)).expect("alloc");
            port.write_buffer(buf, &vec![0xA5u8; size as usize])
                .expect("fill");
            barrier.wait(ctx);
            let dst_addr = addr_of_b.borrow_mut().expect("receiver opened first");
            for _ in 0..total {
                let at = ctx.now().as_ns();
                let id = port.send(ctx, dst_addr, channel, buf, size).expect("send");
                sends.borrow_mut().push((at, TraceId::new(src, id)));
                // Wait for the pacing reply before the next iteration
                // (consuming it returns its system-pool buffer).
                loop {
                    let ev = port.wait_recv(ctx);
                    let _ = port.recv_bytes(ctx, &ev).expect("consume reply");
                    if ev.len == 0 {
                        break;
                    }
                }
                // Drain send-completion events.
                while port.poll_send(ctx).is_some() {}
            }
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed, "latency harness stuck");
    assert_eq!(sim.get_count("watchdog.stalls"), 0, "latency run stalled");
    let (sends, recv_times) = (
        sends.borrow_mut().split_off(warmup as usize),
        recv_times.borrow_mut(),
    );
    assert_eq!(sends.len() as u32, iters);
    assert_eq!(recv_times.len() as u32, total);
    let timed_ns = sends
        .iter()
        .zip(&recv_times[warmup as usize..])
        .map(|(&(sent, _), &got)| got - sent)
        .sum::<u64>();
    LatencyResult {
        size,
        one_way_us: timed_ns as f64 / iters as f64 / 1_000.0,
        timed_ns,
        timed: sends.iter().map(|&(_, id)| id).collect(),
        cluster,
    }
}

/// Outcome of a bandwidth measurement.
#[derive(Clone, Debug)]
pub struct BandwidthResult {
    /// Message size in bytes.
    pub size: u64,
    /// Sustained bandwidth in MB/s (decimal megabytes, as the paper uses).
    pub mb_per_sec: f64,
}

/// Measure sustained bandwidth with a stream of `count` messages of `size`
/// bytes over normal channels (`window` channels posted round-robin).
/// `src == dst` measures the intra-node path.
pub fn measure_bandwidth(
    spec: ClusterSpec,
    src: u32,
    dst: u32,
    size: u64,
    count: u32,
    window: u16,
) -> BandwidthResult {
    assert!(size > 0 && count > 0 && window > 0);
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr_of_b: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let t0 = Rc::new(RefCell::new(0.0f64));
    let t1 = Rc::new(RefCell::new(0.0f64));
    let intra = src == dst;

    {
        let barrier = barrier.clone();
        let addr_of_b = addr_of_b.clone();
        let t1 = t1.clone();
        cluster.spawn_process(dst, "bw-recv", move |ctx, env| {
            let port = env.open_port(ctx);
            *addr_of_b.borrow_mut() = Some(port.addr());
            let mut bufs = Vec::new();
            for c in 0..window {
                bufs.push(port.post_recv(ctx, c, size).expect("post"));
            }
            barrier.wait(ctx);
            for i in 0..count {
                let ev = port.wait_recv(ctx);
                // Re-post the channel for the next lap (skip on final laps).
                let chan = ev.channel.index;
                if !intra && i + u32::from(window) < count {
                    port.post_recv_at(ctx, chan, bufs[chan as usize], size)
                        .expect("re-post");
                }
            }
            *t1.borrow_mut() = ctx.now().as_us();
        });
    }

    {
        let barrier = barrier.clone();
        let t0 = t0.clone();
        cluster.spawn_process(src, "bw-send", move |ctx, env| {
            let port = env.open_port(ctx);
            let buf = port.alloc_buffer(size).expect("alloc");
            port.write_buffer(buf, &vec![0x5Au8; size as usize])
                .expect("fill");
            barrier.wait(ctx);
            let dst_addr = addr_of_b.borrow_mut().expect("receiver first");
            // Warm the pin-down table so the stream measures steady state.
            // (One throwaway message, subtracted by starting the clock after
            // its completion event.)
            port.send(ctx, dst_addr, ChannelId::normal(0), buf, size)
                .expect("warmup send");
            let _ = port.wait_send(ctx);
            *t0.borrow_mut() = ctx.now().as_us();
            let channel_of = |i: u32| ChannelId::normal((i % u32::from(window)) as u16);
            for i in 1..count {
                loop {
                    match port.send(ctx, dst_addr, channel_of(i), buf, size) {
                        Ok(_) => break,
                        Err(BclError::RingFull) => {
                            let _ = port.wait_send(ctx);
                        }
                        Err(e) => panic!("send failed: {e}"),
                    }
                }
                while port.poll_send(ctx).is_some() {}
            }
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed, "bandwidth harness stuck");
    let start = *t0.borrow();
    let end = *t1.borrow();
    assert!(end > start, "no time elapsed");
    // count-1 timed messages (the warmup message started the clock).
    let bytes = size as f64 * (count - 1) as f64;
    BandwidthResult {
        size,
        mb_per_sec: bytes / (end - start),
    }
}

#[cfg(test)]
mod tests {
    //! The comparator architectures through the same harnesses as BCL.

    use super::*;
    use suca_bcl::{Architecture, BclConfig};
    use suca_myrinet::FaultPlan;
    use suca_os::{OsCostModel, OsPersonality};
    use suca_sim::{SimDuration, SimTime};

    use crate::builder::SanKind;

    fn spec(arch: Architecture) -> ClusterSpec {
        ClusterSpec::dawning3000(2).with_architecture(arch)
    }

    /// Inter-node 0 B one-way latency, Table 2's 3 warm-up + 10 timed.
    fn one_way(arch: Architecture) -> f64 {
        measure_one_way(spec(arch), 0, 1, 0, 3, 10).one_way_us
    }

    /// Inter-node bandwidth streaming 12 × 128 KB after the warm-up.
    fn bandwidth(arch: Architecture) -> f64 {
        measure_bandwidth(spec(arch), 0, 1, 128 * 1024, 12, 8).mb_per_sec
    }

    #[test]
    fn user_level_latency_is_bcl_minus_the_kernel() {
        // Only trap enter, ioctl dispatch + security checks and the pin-down
        // lookup sit before BCL's doorbell; its trap exit runs while the NIC
        // already fetches the descriptor. So the user-level one-way latency
        // is BCL's minus exactly those, to the ns — not minus all 4.17 us.
        let (os, cfg) = (OsCostModel::aix_power3(), BclConfig::dawning3000());
        let before_doorbell =
            os.trap_enter + cfg.copyin_dispatch + os.security_check + os.pin_lookup_hit;
        assert_eq!(before_doorbell.as_ns(), 3_100);
        let bcl = one_way(Architecture::SemiUser);
        let user = one_way(Architecture::UserLevel);
        let delta_ns = ((bcl - user) * 1e3).round() as u64;
        assert_eq!(
            delta_ns,
            before_doorbell.as_ns(),
            "BCL {bcl} us, user-level {user} us"
        );
    }

    #[test]
    fn kernel_level_is_much_slower() {
        let lat = one_way(Architecture::KernelLevel);
        assert!(
            lat > 40.0,
            "kernel-level 0-len one-way {lat} us; should be tens of us"
        );
    }

    #[test]
    fn bip_has_lowest_latency_but_lower_bandwidth_than_user_level() {
        let bip = one_way(Architecture::Bip);
        for other in [
            Architecture::UserLevel,
            Architecture::Gm,
            Architecture::SemiUser,
        ] {
            let lat = one_way(other);
            assert!(bip < lat, "BIP {bip} us !< {} {lat} us", other.name());
        }
        let bip_bw = bandwidth(Architecture::Bip);
        for other in [Architecture::UserLevel, Architecture::SemiUser] {
            let bw = bandwidth(other);
            assert!(
                bip_bw < bw,
                "BIP {bip_bw} MB/s !< {} {bw} MB/s",
                other.name()
            );
        }
    }

    #[test]
    fn am2_bandwidth_is_well_below_gm() {
        let am2 = bandwidth(Architecture::Am2);
        let gm = bandwidth(Architecture::Gm);
        assert!(am2 < gm * 0.8, "AM-II {am2} not clearly below GM {gm}");
    }

    #[test]
    fn gm_matches_its_published_range() {
        let lat = one_way(Architecture::Gm);
        assert!(
            (11.0..=21.0).contains(&lat),
            "GM latency {lat} outside the paper's 11–21 us"
        );
        let bw = bandwidth(Architecture::Gm);
        assert!(bw > 140.0, "GM bandwidth {bw} not over 140 MB/s");
    }

    #[test]
    fn user_level_cannot_exist_on_aix() {
        let on_aix = |arch| ClusterSpec {
            personality: OsPersonality::AIX,
            ..spec(arch)
        };
        let refused = std::panic::catch_unwind(|| on_aix(Architecture::UserLevel).build());
        let Err(panic) = refused else {
            panic!("a user-level protocol must be unbuildable on AIX");
        };
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(
            msg,
            "user-level (generic) requires mmap of device memory, which AIX does not support"
        );
        // The kernel-level protocol is fine on AIX.
        assert_eq!(on_aix(Architecture::KernelLevel).build().nodes.len(), 2);
    }

    /// Messages out of 30 single-fragment sends that node 1 receives
    /// within 30 ms, under 5 % drop + 5 % corruption per link.
    fn delivered_under_faults(arch: Architecture) -> u32 {
        let mut spec = spec(arch).with_seed(7);
        spec.san = SanKind::Myrinet(suca_myrinet::MyrinetConfig {
            fault: FaultPlan {
                drop_prob: 0.05,
                corrupt_prob: 0.05,
            },
            ..suca_myrinet::MyrinetConfig::dawning3000()
        });
        let cluster = spec.build();
        let barrier = SimBarrier::new(&cluster.sim, 2);
        let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
        let got = Rc::new(RefCell::new(0u32));
        let (b2, a2, g2) = (barrier.clone(), addr.clone(), got.clone());
        cluster.spawn_process(1, "rx", move |ctx, env| {
            let port = env.open_port(ctx);
            *a2.borrow_mut() = Some(port.addr());
            b2.wait(ctx);
            // Poll for a bounded interval, then report what arrived.
            for _ in 0..30 {
                ctx.sleep(SimDuration::from_ms(1));
                while let Some(ev) = port.poll_recv(ctx) {
                    port.recv_bytes(ctx, &ev).expect("data");
                    *g2.borrow_mut() += 1;
                }
            }
        });
        cluster.spawn_process(0, "tx", move |ctx, env| {
            let port = env.open_port(ctx);
            barrier.wait(ctx);
            let dst = addr.borrow_mut().expect("rx ready");
            for i in 0..30u32 {
                port.send_bytes(ctx, dst, ChannelId::SYSTEM, &i.to_le_bytes())
                    .expect("send");
            }
        });
        cluster.sim.run_until(SimTime::from_ns(60_000_000));
        let n = *got.borrow();
        n
    }

    #[test]
    fn reliable_archs_survive_faults_bip_loses_data() {
        for arch in Architecture::ALL {
            let n = delivered_under_faults(arch);
            if arch.reliable() {
                assert_eq!(n, 30, "{} lost data", arch.name());
            } else {
                assert!(
                    n < 30,
                    "BIP should lose messages under faults (no error correction)"
                );
            }
        }
    }
}

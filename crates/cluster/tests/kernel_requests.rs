//! What each kind of send-class request costs on its way through the kernel
//! module: the send call's virtual time, the kernel counters it moves, and
//! the duration of every `kernel:*` event on its trace chain. The numbers
//! are the calibrated model's own; any drift is a finding.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{Architecture, BclPort, ChannelId, CollOp, CollStep, ProcAddr};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::{ActorCtx, RunOutcome, TraceId};

/// One send-class request, issued by node 0 towards node 1.
#[derive(Clone, Copy, Debug)]
enum Req {
    /// `send` of this many bytes on a posted normal channel.
    Message(u64),
    /// `rma_write` of this many bytes into a bound open channel.
    RmaWrite(u64),
    /// `rma_read` of this many bytes out of a bound open channel.
    RmaRead(u64),
    /// A two-rank offloaded collective over this many f64 lanes (0 is a
    /// barrier).
    Collective(u64),
}

/// What one request charged the sender.
#[derive(Debug, PartialEq)]
struct Charges {
    /// Virtual time of the library call, entry to return.
    call_ns: u64,
    /// `kmod.ioctls` delta.
    ioctls: u64,
    /// `kmod.pio_descriptors` delta.
    pio_descriptors: u64,
    /// `kmod.pin_hits + kmod.pin_misses` delta.
    pin_lookups: u64,
    /// `os.traps` delta.
    traps: u64,
    /// Every `kernel:*` event on the request's chain: (node, stage, ns).
    kernel: Vec<(u32, String, u64)>,
}

/// Either rank's two-rank collective schedule: send to and fold from the
/// one peer.
fn exchange(peer: ProcAddr) -> Vec<CollStep> {
    vec![CollStep {
        recv_from: vec![peer],
        send_to: vec![peer],
        adopt: false,
        chunk: 0,
    }]
}

/// Issue `req` from node 0 of a two-node cluster playing `arch`, once node
/// 1 has set up its side, and return what the call charged.
fn measure(arch: Architecture, req: Req) -> Charges {
    const WINDOW: u64 = 64 << 10;
    let cluster = ClusterSpec::dawning3000(2).with_architecture(arch).build();
    let (ready, go) = (
        SimBarrier::new(&cluster.sim, 2),
        SimBarrier::new(&cluster.sim, 2),
    );
    let addrs: Rc<RefCell<[Option<ProcAddr>; 2]>> = Rc::new(RefCell::new([None; 2]));
    let measured = Rc::new(RefCell::new(None));
    {
        let (ready, go, addrs) = (ready.clone(), go.clone(), addrs.clone());
        cluster.spawn_process(1, "peer", move |ctx, env| {
            let port = env.open_port(ctx);
            addrs.borrow_mut()[1] = Some(port.addr());
            ready.wait(ctx);
            let peer = addrs.borrow_mut()[0].expect("node 0 opened");
            match req {
                Req::Message(_) => {
                    port.post_recv(ctx, 0, WINDOW).expect("post");
                }
                Req::RmaWrite(_) | Req::RmaRead(_) => {
                    port.bind_open(ctx, 0, WINDOW).expect("bind");
                }
                Req::Collective(lanes) => {
                    let buf = port.alloc_buffer(lanes * 8).expect("buf");
                    port.collective(
                        ctx,
                        7,
                        CollOp::Sum,
                        exchange(peer),
                        buf,
                        lanes * 8,
                        buf,
                        lanes * 8,
                    )
                    .expect("peer collective");
                }
            }
            go.wait(ctx);
            if let Req::Message(_) = req {
                port.wait_recv(ctx);
            }
        });
    }
    let m2 = measured.clone();
    cluster.spawn_process(0, "caller", move |ctx, env| {
        let port = env.open_port(ctx);
        addrs.borrow_mut()[0] = Some(port.addr());
        ready.wait(ctx);
        let peer = addrs.borrow_mut()[1].expect("node 1 opened");
        go.wait(ctx);
        let bytes = match req {
            Req::Message(len) | Req::RmaWrite(len) | Req::RmaRead(len) => len,
            Req::Collective(lanes) => lanes * 8,
        };
        let buf = port.alloc_buffer(bytes).expect("buf");
        port.write_buffer(buf, &vec![1; bytes as usize])
            .expect("fill");
        let counts = |ctx: &ActorCtx| {
            let sim = ctx.sim();
            [
                sim.get_count("kmod.ioctls"),
                sim.get_count("kmod.pio_descriptors"),
                sim.get_count("kmod.pin_hits") + sim.get_count("kmod.pin_misses"),
                sim.get_count("os.traps"),
            ]
        };
        let (before, t0) = (counts(ctx), ctx.now());
        let msg_id = issue(ctx, &port, req, peer, buf, bytes);
        let call_ns = ctx.now().since(t0).as_ns();
        let after = counts(ctx);
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        *m2.borrow_mut() = Some((msg_id, call_ns, delta));
    });
    assert_eq!(cluster.sim.run(), RunOutcome::Completed, "{arch:?} {req:?}");
    let (msg_id, call_ns, delta) = measured.borrow_mut().take().expect("measured");
    let trace = TraceId::new(0, msg_id);
    let kernel = cluster
        .trace_events()
        .into_iter()
        .filter(|e| e.trace == trace && e.stage.starts_with("kernel:"))
        .map(|e| (e.node, e.stage.to_string(), e.end_ns - e.start_ns))
        .collect();
    Charges {
        call_ns,
        ioctls: delta[0],
        pio_descriptors: delta[1],
        pin_lookups: delta[2],
        traps: delta[3],
        kernel,
    }
}

/// Node 0's call for `req`; returns its message id.
fn issue(
    ctx: &mut ActorCtx,
    port: &BclPort,
    req: Req,
    peer: ProcAddr,
    buf: suca_mem::VirtAddr,
    bytes: u64,
) -> u32 {
    match req {
        Req::Message(_) => port.send(ctx, peer, ChannelId::normal(0), buf, bytes),
        Req::RmaWrite(_) => port.rma_write(ctx, peer, 0, 0, buf, bytes),
        Req::RmaRead(_) => port.rma_read(ctx, peer, 0, 0, buf, bytes),
        Req::Collective(_) => {
            port.collective(ctx, 7, CollOp::Sum, exchange(peer), buf, bytes, buf, bytes)
        }
    }
    .expect("request accepted")
}

/// The `kernel:*` events of one BCL send trap on node 0: trap entry, the
/// trap instant, then dispatch, the whole ioctl, pin, PIO and trap exit.
fn one_trap(dispatch: u64, ioctl: u64, pin: u64, pio: u64) -> Vec<(u32, String, u64)> {
    [
        ("kernel:trap_enter", 1_100),
        ("kernel:trap", 0),
        ("kernel:dispatch", dispatch),
        ("kernel:ioctl_send", ioctl),
        ("kernel:pin", pin),
        ("kernel:pio", pio),
        ("kernel:trap_exit", 1_070),
    ]
    .into_iter()
    .map(|(stage, ns)| (0, stage.to_string(), ns))
    .collect()
}

/// A trapped request: one ioctl, one descriptor PIO, one trap.
fn trapped(call_ns: u64, pin_lookups: u64, kernel: Vec<(u32, String, u64)>) -> Charges {
    Charges {
        call_ns,
        ioctls: 1,
        pio_descriptors: 1,
        pin_lookups,
        traps: 1,
        kernel,
    }
}

#[test]
fn each_request_kind_charges_what_it_always_has() {
    use Architecture::{KernelLevel, SemiUser, UserLevel};
    let mut kernel_level = one_trap(15_550, 38_583, 20_153, 2_880);
    kernel_level.extend([
        (1, "kernel:interrupt".to_string(), 0),
        (1, "kernel:trap".to_string(), 0),
    ]);
    let cases = [
        // An empty message still consults the pin table once: 450 ns.
        (
            SemiUser,
            Req::Message(0),
            trapped(7_040, 0, one_trap(1_550, 4_400, 450, 2_400)),
        ),
        (
            SemiUser,
            Req::Message(4 << 10),
            trapped(15_520, 1, one_trap(1_550, 12_880, 8_450, 2_880)),
        ),
        (
            SemiUser,
            Req::Message(64 << 10),
            trapped(142_720, 16, one_trap(1_550, 140_080, 128_450, 10_080)),
        ),
        // An empty RMA write pins (and misses) the page its address names.
        (
            SemiUser,
            Req::RmaWrite(0),
            trapped(15_040, 1, one_trap(1_550, 12_400, 8_450, 2_400)),
        ),
        (
            SemiUser,
            Req::RmaWrite(8 << 10),
            trapped(24_000, 2, one_trap(1_550, 21_360, 16_450, 3_360)),
        ),
        // A read request's descriptor is one segment, whatever it pins.
        (
            SemiUser,
            Req::RmaRead(8 << 10),
            trapped(23_520, 2, one_trap(1_550, 20_880, 16_450, 2_880)),
        ),
        // A barrier pins nothing, pays one lookup and PIOs one segment.
        (
            SemiUser,
            Req::Collective(0),
            trapped(7_520, 0, one_trap(1_550, 4_880, 450, 2_880)),
        ),
        (
            SemiUser,
            Req::Collective(8),
            trapped(16_450, 2, one_trap(1_550, 13_810, 8_900, 3_360)),
        ),
        (
            KernelLevel,
            Req::Message(4 << 10),
            trapped(41_223, 1, kernel_level),
        ),
        // The doorbell: no trap, no ioctl, no pin-down table; just the PIO.
        (
            UserLevel,
            Req::Message(4 << 10),
            Charges {
                call_ns: 3_350,
                ioctls: 0,
                pio_descriptors: 1,
                pin_lookups: 0,
                traps: 0,
                kernel: Vec::new(),
            },
        ),
    ];
    for (arch, req, want) in cases {
        assert_eq!(measure(arch, req), want, "{arch:?} {req:?}");
    }
}

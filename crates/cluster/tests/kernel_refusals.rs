//! The kernel module's §4.3 refusals, per send-class request kind: a dead
//! caller, a port the caller does not own, an unknown node or port, a
//! buffer the caller has not mapped, and an out-of-range channel. Each is
//! refused with its own error, counted once in `kmod.security_rejects`, and
//! costs the caller the trap, the dispatch and the security check — no pin,
//! no descriptor PIO, no message id.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{
    BclError, BclPort, ChannelId, CollOp, CollStep, Entry, PortId, ProcAddr, Request, Rma,
};
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_mem::VirtAddr;
use suca_os::NodeId;
use suca_sim::{ActorCtx, RunOutcome, SimDuration};

#[derive(Clone, Copy, Debug)]
enum Kind {
    Message,
    RmaWrite,
    RmaRead,
    Collective,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// The caller has exited.
    DeadProcess,
    /// The caller submits on another process's port.
    ForeignPort,
    BadNode,
    BadPort,
    UnmappedBuffer,
    BadChannel,
}

/// Payload bytes of every request: whole f64 lanes, one fragment.
const LEN: u64 = 64;
/// An address no process here has mapped.
const UNMAPPED: VirtAddr = VirtAddr(1 << 40);

/// A request of `kind` to `dst` over `addr`, on channel `chan` where the
/// kind has channels.
fn request(kind: Kind, dst: ProcAddr, chan: u16, addr: VirtAddr) -> Request {
    let buf = (addr, LEN);
    let rma = Rma {
        dst,
        chan,
        offset: 0,
        buf,
    };
    match kind {
        Kind::Message => Request::Message {
            dst,
            channel: ChannelId::normal(chan),
            buf,
        },
        Kind::RmaWrite => Request::RmaWrite(rma),
        Kind::RmaRead => Request::RmaRead(rma),
        Kind::Collective => Request::Collective {
            coll_id: 1,
            op: CollOp::Sum,
            steps: vec![CollStep {
                recv_from: vec![dst],
                send_to: vec![dst],
                adopt: false,
                chunk: 0,
            }],
            payload: buf,
            result: buf,
        },
    }
}

/// Issue `req` through the library call for its kind.
fn issue(ctx: &mut ActorCtx, port: &BclPort, req: Request) -> Result<u32, BclError> {
    match req {
        Request::Message {
            dst,
            channel,
            buf: (addr, len),
        } => port.send(ctx, dst, channel, addr, len),
        Request::RmaWrite(Rma {
            dst,
            chan,
            offset,
            buf: (addr, len),
        }) => port.rma_write(ctx, dst, chan, offset, addr, len),
        Request::RmaRead(Rma {
            dst,
            chan,
            offset,
            buf: (into, len),
        }) => port.rma_read(ctx, dst, chan, offset, into, len),
        Request::Collective {
            coll_id,
            op,
            steps,
            payload,
            result,
        } => port.collective(
            ctx, coll_id, op, steps, payload.0, payload.1, result.0, result.1,
        ),
    }
}

/// `kmod.security_rejects`, `kmod.ioctls`, `os.traps`,
/// `kmod.pio_descriptors` and `kmod.pin_hits + kmod.pin_misses`.
fn counts(ctx: &ActorCtx) -> [u64; 5] {
    let sim = ctx.sim();
    [
        sim.get_count("kmod.security_rejects"),
        sim.get_count("kmod.ioctls"),
        sim.get_count("os.traps"),
        sim.get_count("kmod.pio_descriptors"),
        sim.get_count("kmod.pin_hits") + sim.get_count("kmod.pin_misses"),
    ]
}

#[test]
fn every_refusal_costs_one_checked_trap_and_nothing_else() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let ready = SimBarrier::new(&cluster.sim, 2);
    let peer: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let refused = Rc::new(RefCell::new(0));
    {
        let (ready, peer) = (ready.clone(), peer.clone());
        cluster.spawn_process(1, "peer", move |ctx, env| {
            let port = env.open_port(ctx);
            port.post_recv(ctx, 0, LEN).expect("post");
            *peer.borrow_mut() = Some(port.addr());
            ready.wait(ctx);
            port.wait_recv(ctx);
        });
    }
    let done = refused.clone();
    cluster.spawn_process(0, "caller", move |ctx, env| {
        let port = env.open_port(ctx);
        let buf = port.alloc_buffer(LEN).expect("buf");
        // A second process on the node: the foreign caller, then the dead one.
        let other = env.node.create_process();
        let other_port = BclPort::open(ctx, &env.node.bcl, &other).expect("open");
        let other_buf = other_port.alloc_buffer(LEN).expect("buf");
        ready.wait(ctx);
        let peer = peer.borrow_mut().expect("peer opened");
        let (cfg, os) = (env.node.bcl.config().clone(), env.node.os.clone());
        let trap = os.costs.trap_enter + os.costs.trap_exit;
        let checked = cfg.copyin_dispatch + os.costs.security_check;
        let own = port.addr().port;
        let max_port = PortId(cfg.limits.max_ports);
        for fault in [
            Fault::ForeignPort,
            Fault::BadNode,
            Fault::BadPort,
            Fault::UnmappedBuffer,
            Fault::BadChannel,
            Fault::DeadProcess,
        ] {
            if fault == Fault::DeadProcess {
                os.exit_process(other.pid);
            }
            for kind in [
                Kind::Message,
                Kind::RmaWrite,
                Kind::RmaRead,
                Kind::Collective,
            ] {
                let (mut dst, mut chan, mut addr) = (peer, 0, buf);
                let want = match fault {
                    Fault::DeadProcess => BclError::DeadProcess(other.pid),
                    Fault::ForeignPort => BclError::NotPortOwner {
                        port: own,
                        pid: other.pid,
                    },
                    Fault::BadNode => {
                        dst.node = NodeId(2);
                        BclError::BadNode(dst.node)
                    }
                    Fault::BadPort => {
                        dst.port = max_port;
                        BclError::BadPort(max_port)
                    }
                    Fault::UnmappedBuffer => {
                        addr = UNMAPPED;
                        BclError::BadBuffer {
                            addr: UNMAPPED.0,
                            len: LEN,
                        }
                    }
                    Fault::BadChannel => match kind {
                        Kind::Message => {
                            chan = cfg.limits.normal_channels;
                            BclError::BadChannel(ChannelId::normal(chan))
                        }
                        Kind::RmaWrite | Kind::RmaRead => {
                            chan = cfg.limits.open_channels;
                            BclError::BadChannel(ChannelId::open(chan))
                        }
                        // A collective names no channel.
                        Kind::Collective => continue,
                    },
                };
                let (before, t0) = (counts(ctx), ctx.now());
                let (got, charged) = match fault {
                    Fault::DeadProcess => {
                        let req = request(kind, dst, chan, other_buf);
                        (
                            issue(ctx, &other_port, req),
                            cfg.lib_compose + trap + checked,
                        )
                    }
                    // No library call names another process's port; the
                    // forged request goes straight to the module.
                    Fault::ForeignPort => {
                        let req = request(kind, dst, chan, other_buf);
                        let kmod = &env.node.bcl.kmod;
                        let got =
                            os.trap(ctx, |ctx| kmod.submit(ctx, &other, own, Entry::Trap, req));
                        (got, trap + checked)
                    }
                    _ => {
                        let req = request(kind, dst, chan, addr);
                        (issue(ctx, &port, req), cfg.lib_compose + trap + checked)
                    }
                };
                let case = format!("{kind:?} with {fault:?}");
                assert_eq!(got, Err(want), "{case}");
                let elapsed: SimDuration = ctx.now().since(t0);
                assert_eq!(elapsed, charged, "{case}: charged beyond the checks");
                let after = counts(ctx);
                let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                assert_eq!(
                    delta,
                    [1, 1, 1, 0, 0],
                    "{case}: (rejects, ioctls, traps, descriptor PIOs, pin lookups)"
                );
                *done.borrow_mut() += 1;
            }
        }
        // No refusal consumed a message id: the first accepted send gets
        // the module's first one.
        let first = port
            .send(ctx, peer, ChannelId::normal(0), buf, LEN)
            .expect("accepted");
        assert_eq!(first, 2, "a refusal consumed a message id");
    });
    assert_eq!(cluster.sim.run(), RunOutcome::Completed);
    assert_eq!(*refused.borrow(), 23, "every case ran");
}

//! Direct tests of the BCL stack assembled by hand (no cluster crate):
//! exercises the public wiring (`Mcp::new_multi_rail` + `BclNode::new`), hostile
//! wire-level inputs, and NIC-level observability.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{BclNode, BclPort, ChannelId, Mcp, ProcAddr};
use suca_mem::PhysMemory;
use suca_myrinet::{FabricNodeId, Myrinet, MyrinetConfig, Network};
use suca_os::{NodeId, NodeOs, OsCostModel, OsPersonality};
use suca_sim::{RunOutcome, Signal, Sim, SimDuration};

fn build_pair(sim: &Sim) -> (Rc<BclNode>, Rc<BclNode>, Rc<Network>) {
    let fabric = Myrinet::build(sim, 2, MyrinetConfig::dawning3000());
    let cfg = suca_bcl::BclConfig::dawning3000();
    let mut nodes = Vec::new();
    for i in 0..2u32 {
        let mem = PhysMemory::new(32 << 20);
        let os = NodeOs::new(
            sim,
            NodeId(i),
            mem,
            OsPersonality::AIX,
            OsCostModel::aix_power3(),
        );
        let rails = vec![fabric.clone()];
        let mcp = Mcp::new_multi_rail(sim, os.clone(), FabricNodeId(i), rails, cfg.clone());
        nodes.push(BclNode::new(sim, os, mcp, 2, cfg.clone()));
    }
    let b = nodes.pop().expect("two");
    let a = nodes.pop().expect("one");
    (a, b, fabric)
}

#[test]
fn hand_assembled_stack_round_trips() {
    let sim = Sim::new(1);
    let (na, nb, _) = build_pair(&sim);
    let ready = Signal::new(&sim);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    let a2 = addr.clone();
    let r2 = ready.clone();
    let nb2 = nb.clone();
    sim.spawn("rx", move |ctx| {
        let proc = nb2.os.create_process();
        let port = BclPort::open(ctx, &nb2, &proc).expect("open");
        *a2.borrow_mut() = Some(port.addr());
        r2.notify();
        let ev = port.wait_recv(ctx);
        assert_eq!(port.recv_bytes(ctx, &ev).expect("data"), b"direct".to_vec());
    });
    let na2 = na.clone();
    sim.spawn("tx", move |ctx| {
        let proc = na2.os.create_process();
        let port = BclPort::open(ctx, &na2, &proc).expect("open");
        let addr2 = addr.clone();
        ready.wait_until(ctx, || addr2.borrow_mut().is_some());
        let dst = addr.borrow_mut().expect("set");
        port.send_bytes(ctx, dst, ChannelId::SYSTEM, b"direct")
            .expect("send");
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
}

#[test]
fn garbage_packets_on_the_wire_do_not_crash_the_firmware() {
    let sim = Sim::new(2);
    let (na, nb, fabric) = build_pair(&sim);
    let _ = (&na, &nb);
    // Inject raw garbage straight into the fabric, addressed at node 1's
    // NIC: the firmware must count it as malformed and carry on.
    for i in 0..5u8 {
        let junk = Rc::from(vec![i; 7 + i as usize * 13]);
        fabric.inject(&sim, FabricNodeId(0), FabricNodeId(1), junk, None);
    }
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(sim.get_count("bcl.malformed"), 5);
}

#[test]
fn sram_high_water_reflects_staging() {
    let sim = Sim::new(3);
    let (na, nb, _) = build_pair(&sim);
    let ready = Signal::new(&sim);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let a2 = addr.clone();
    let r2 = ready.clone();
    let nb2 = nb.clone();
    sim.spawn("rx", move |ctx| {
        let proc = nb2.os.create_process();
        let port = BclPort::open(ctx, &nb2, &proc).expect("open");
        *a2.borrow_mut() = Some(port.addr());
        port.post_recv(ctx, 0, 100_000).expect("post");
        r2.notify();
        let _ = port.wait_recv(ctx);
    });
    let na2 = na.clone();
    let na3 = na.clone();
    sim.spawn("tx", move |ctx| {
        let proc = na2.os.create_process();
        let port = BclPort::open(ctx, &na2, &proc).expect("open");
        let addr2 = addr.clone();
        ready.wait_until(ctx, || addr2.borrow_mut().is_some());
        let dst = addr.borrow_mut().expect("set");
        let buf = port.alloc_buffer(100_000).expect("buf");
        port.send(ctx, dst, ChannelId::normal(0), buf, 100_000)
            .expect("send");
        let _ = port.wait_send(ctx);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    let (used, high, cap) = na3.mcp.sram_stats();
    assert_eq!(used, 0, "all staging leases returned");
    assert!(high > 0, "staging never touched SRAM");
    assert!(high <= cap);
}

#[test]
fn queue_depth_drains_to_zero() {
    let sim = Sim::new(4);
    let (na, nb, _) = build_pair(&sim);
    let ready = Signal::new(&sim);
    let addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    let a2 = addr.clone();
    let r2 = ready.clone();
    let nb2 = nb.clone();
    sim.spawn("rx", move |ctx| {
        let proc = nb2.os.create_process();
        let port = BclPort::open(ctx, &nb2, &proc).expect("open");
        *a2.borrow_mut() = Some(port.addr());
        r2.notify();
        for _ in 0..6 {
            let ev = port.wait_recv(ctx);
            let _ = port.recv_bytes(ctx, &ev).expect("data");
        }
    });
    let na2 = na.clone();
    let na3 = na.clone();
    sim.spawn("tx", move |ctx| {
        let proc = na2.os.create_process();
        let port = BclPort::open(ctx, &na2, &proc).expect("open");
        let addr2 = addr.clone();
        ready.wait_until(ctx, || addr2.borrow_mut().is_some());
        let dst = addr.borrow_mut().expect("set");
        for i in 0..6u8 {
            port.send_bytes(ctx, dst, ChannelId::SYSTEM, &[i; 64])
                .expect("send");
        }
        // Queue may be nonzero immediately after posting a burst…
        ctx.sleep(SimDuration::from_ms(1));
        // …but must drain once the MCP works through it.
        assert_eq!(na2.mcp.queue_depth(), 0);
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(na3.mcp.queue_depth(), 0);
}

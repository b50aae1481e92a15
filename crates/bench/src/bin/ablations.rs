//! §1/§3 ablation: address translation under growing working sets.
//!
//! NIC-resident translation caches thrash under large working sets; the
//! kernel-resident pin-down table does not. This sweeps the working set of
//! the user-level architecture's NIC TLB against BCL's pin-down table, both
//! on the one stack, and asserts the shape. It keeps its number 4:
//! ablations 1–3, the §5.4 discussion's PCI, CPU and reliable-protocol
//! levers, are each linear in one constant and are read off `paper`'s
//! sensitivity matrix (EXPERIMENTS.md §5.4).
//!
//! Every cluster built here must finish with `watchdog.stalls == 0`.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{Architecture, BclConfig, ChannelId};
use suca_bench::report::assert_anchor;
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::mtrace::stage;
use suca_sim::TraceId;

/// What one arm of the translation sweep measured in its second round
/// over `working_set` distinct 64 B buffers (the first round only warms the
/// caches): the mean send-call time, the MCP's NIC-TLB misses, and the
/// mean descriptor-fetch stall — each message's `mcp:descriptor` span past
/// the configured fetch cost.
#[derive(Default)]
struct TranslationArm {
    send_us: f64,
    misses: u64,
    stall_us: f64,
}

/// Cycle `working_set` buffers from node 0 to node 1 twice, one paced
/// message at a time, on `spec`. Each buffer is `alloc_buffer`'d, so each
/// is one page for whichever table translates it. The sender takes the
/// trace recorded so far after every timed message, so the rings (and the
/// watchdog's scans of them) stay as short as one round trip.
fn translation_arm(spec: ClusterSpec, working_set: u64) -> TranslationArm {
    let send_fixed = spec.bcl.mcp.send_fixed.as_ns();
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let out = Rc::new(RefCell::new(TranslationArm::default()));

    let b2 = barrier.clone();
    let a2 = addr.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        for _ in 0..working_set * 2 {
            let ev = port.wait_recv(ctx);
            let _ = port.recv_bytes(ctx, &ev).expect("data");
            port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, b"")
                .expect("token");
        }
    });
    let b3 = barrier.clone();
    let o2 = out.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        let bufs: Vec<_> = (0..working_set)
            .map(|_| port.alloc_buffer(64).expect("buf"))
            .collect();
        b3.wait(ctx);
        let dst = addr.borrow_mut().expect("rx");
        let mut warm_misses = 0;
        for round in 0..2 {
            for &buf in &bufs {
                let t0 = ctx.now().as_us();
                let msg_id = port
                    .send(ctx, dst, ChannelId::SYSTEM, buf, 64)
                    .expect("send");
                let send_us = ctx.now().as_us() - t0;
                loop {
                    let ev = port.wait_recv(ctx);
                    let _ = port.recv_bytes(ctx, &ev).expect("consume token");
                    if ev.len == 0 {
                        break;
                    }
                }
                while port.poll_send(ctx).is_some() {}
                if round == 1 {
                    let id = TraceId::new(0, msg_id);
                    let events = ctx.sim().msg_trace().take_events();
                    let fetch = events
                        .iter()
                        .find(|ev| ev.trace == id && ev.stage == stage::DESCRIPTOR)
                        .expect("descriptor fetch traced");
                    let mut o = o2.borrow_mut();
                    o.send_us += send_us;
                    o.stall_us += (fetch.duration_ns() - send_fixed) as f64 / 1_000.0;
                }
            }
            if round == 0 {
                warm_misses = ctx.sim().get_count("mcp.nic_tlb_misses");
            }
        }
        o2.borrow_mut().misses = ctx.sim().get_count("mcp.nic_tlb_misses") - warm_misses;
    });
    assert_eq!(
        sim.run(),
        suca_sim::RunOutcome::Completed,
        "ablation harness hung"
    );
    // A full pin-down table evicts (the paper's scalable translation): load,
    // not a stall.
    assert_eq!(
        sim.get_count("watchdog.stalls"),
        0,
        "translation arm stalled"
    );
    let arm = std::mem::take(&mut *out.borrow_mut());
    let n = working_set as f64;
    TranslationArm {
        send_us: arm.send_us / n,
        stall_us: arm.stall_us / n,
        ..arm
    }
}

fn main() {
    println!("-- Ablation 4: address translation under growing working sets");
    println!(
        "   (user-level: 256-entry NIC TLB, 16 us/miss; BCL: pin-down table in host kernel memory)"
    );
    println!(
        "{:>12} {:>18} {:>26} {:>26} {:>26}",
        "buffers",
        "user-level misses",
        "user-level stall/send",
        "BCL send (64K-page table)",
        "BCL send (256-page table)"
    );
    let bcl = |pin_table_pages| {
        let mut cfg = BclConfig::dawning3000();
        cfg.pin_table_pages = pin_table_pages;
        ClusterSpec::dawning3000(2).with_bcl(cfg)
    };
    let mut bcl_flat = None;
    for ws in [64u64, 256, 1024, 4096] {
        let user = translation_arm(
            ClusterSpec::dawning3000(2).with_architecture(Architecture::UserLevel),
            ws,
        );
        let bcl_big = translation_arm(bcl(65_536), ws);
        let bcl_small = translation_arm(bcl(256), ws);
        println!(
            "{ws:>12} {:>18} {:>23.2} us {:>23.2} us {:>23.2} us",
            user.misses, user.stall_us, bcl_big.send_us, bcl_small.send_us
        );
        // The shape the paper argues, asserted: the NIC cache is free while
        // it covers the working set and collapses past it; BCL's kernel
        // table never involves the NIC's fetch and stays flat.
        let shape = match ws {
            ..=256 => user.stall_us < 0.01,
            4096 => user.stall_us >= 10.0,
            _ => true,
        };
        assert!(shape, "user-level stall at {ws}: {} us", user.stall_us);
        assert_eq!((bcl_big.misses, bcl_big.stall_us), (0, 0.0));
        let flat = *bcl_flat.get_or_insert(bcl_big.send_us);
        assert_anchor("BCL send, 64K-page table", bcl_big.send_us, flat);
    }
    println!("\nshape: user-level stall explodes past its NIC cache; BCL stays flat as long");
    println!("as the host-resident pin-down table covers the working set — the paper's");
    println!("\"usage of large memory\" argument (§1, §3 benefit 4).");
}

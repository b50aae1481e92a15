//! Actors add no OS threads and finished actors leave no stack mapped.
//!
//! Both are process-wide observations (`Threads:` in `/proc/self/status`,
//! `/proc/self/maps`), so they live in one test, alone in its binary: a
//! second test would start and stop its own harness thread mid-count.

use std::cell::Cell;
use std::rc::Rc;

use suca_sim::{RunOutcome, Signal, Sim, SimDuration};

fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Is `addr` inside any mapping of this process?
fn mapped(addr: usize) -> bool {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    maps.lines().any(|l| {
        let range = l.split_whitespace().next().expect("an address range");
        let (lo, hi) = range.split_once('-').expect("lo-hi");
        let lo = usize::from_str_radix(lo, 16).expect("hex");
        let hi = usize::from_str_radix(hi, 16).expect("hex");
        (lo..hi).contains(&addr)
    })
}

#[test]
fn actors_add_no_threads_and_leave_no_stacks() {
    let before = live_threads();

    // 1,024 actors, each parking a few times.
    let sim = Sim::new(1);
    let done = Rc::new(Cell::new(0));
    for i in 0..1024u64 {
        let done = done.clone();
        sim.spawn(format!("a{i}"), move |ctx| {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_ns(1 + i % 7));
            }
            done.set(done.get() + 1);
        });
    }
    assert_eq!(live_threads(), before, "spawning started threads");
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_eq!(done.get(), 1024);
    assert_eq!(live_threads(), before, "running started threads");
    drop(sim);

    // 50 sims, each deadlocked on one stuck actor and then dropped. The
    // stuck actor's stack stays mapped (its `ActorCtx` holds the `Sim`), but
    // no OS thread is left behind.
    for _ in 0..50 {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        sim.spawn("stuck", move |ctx| sig.wait(ctx)); // never notified
        assert_eq!(sim.run(), RunOutcome::Deadlock(vec!["stuck".to_string()]));
        drop(sim);
    }
    assert_eq!(live_threads(), before, "stuck actors left threads");

    // A finished actor's stack is unmapped by the driver before `run`
    // returns: a handler after the actor's exit no longer finds the address
    // of one of its locals in any mapping.
    let sim = Sim::new(1);
    let local = Rc::new(Cell::new(0));
    let still_mapped = Rc::new(Cell::new(true));
    let l = local.clone();
    sim.spawn("brief", move |ctx| {
        let on_stack = 0u8;
        let addr = std::ptr::from_ref(&on_stack).addr();
        assert!(mapped(addr), "a live stack must show in the maps");
        l.set(addr);
        ctx.sleep(SimDuration::from_us(1));
    });
    let (l, m) = (local.clone(), still_mapped.clone());
    sim.schedule_in(SimDuration::from_us(2), move |_| {
        m.set(mapped(l.get()));
    });
    assert_eq!(sim.run(), RunOutcome::Completed);
    assert_ne!(local.get(), 0);
    assert!(!still_mapped.get(), "stack still mapped");
}

//! Fetching an already-registered counter, gauge or histogram by name must
//! not allocate: every layer of every node fetches its instruments while a
//! cluster is built, most of them under names another node registered.
//!
//! Its own test file, hence its own process: arming the process-global
//! allocation counter races with nothing.

use suca_sim::{alloc, Sim};

#[test]
fn fetching_a_registered_instrument_does_not_allocate() {
    let sim = Sim::new(1);
    let metrics = sim.metrics();
    metrics.counter("kmod.ioctls").inc();
    metrics.gauge("kmod.pinned_bytes").add(4096);
    metrics.histogram("rpc.lat_us").record(7);
    let expect = sim.metrics_snapshot().to_json();

    let (before, _) = alloc::counts();
    alloc::set_counting(true);
    let counter = metrics.counter("kmod.ioctls");
    let gauge = metrics.gauge("kmod.pinned_bytes");
    let histogram = metrics.histogram("rpc.lat_us");
    alloc::set_counting(false);
    assert_eq!(alloc::counts().0 - before, 0, "a second fetch allocated");

    // The handles are the registered instruments, and nothing was added.
    assert_eq!(
        (counter.get(), gauge.get(), histogram.count()),
        (1, 4096, 1)
    );
    assert_eq!(sim.metrics_snapshot().to_json(), expect);
}

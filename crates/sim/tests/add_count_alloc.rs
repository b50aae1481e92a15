//! `Sim::add_count` on an already-registered counter must not allocate:
//! `bcl.intra_msgs` is bumped by name once per message.
//!
//! Its own test file, hence its own process: arming the process-global
//! allocation counter races with nothing.

use suca_sim::{alloc, Sim};

#[test]
fn add_count_of_a_registered_name_does_not_allocate() {
    let sim = Sim::new(1);
    sim.add_count("bcl.intra_msgs", 1);
    let mut expect = sim.metrics_snapshot();
    assert_eq!(expect.counter("bcl.intra_msgs"), 1);

    let (before, _) = alloc::counts();
    alloc::set_counting(true);
    sim.add_count("bcl.intra_msgs", 2);
    alloc::set_counting(false);
    assert_eq!(alloc::counts().0 - before, 0, "second add_count allocated");

    // The snapshot is the first call's with only the value moved: no
    // instrument appeared or disappeared.
    expect.counters.insert("bcl.intra_msgs".into(), 3);
    assert_eq!(sim.metrics_snapshot().to_json(), expect.to_json());
}

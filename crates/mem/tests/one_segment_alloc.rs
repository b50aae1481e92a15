//! A buffer within one page — every pool buffer, most messages — is named
//! by a one-segment scatter/gather list, held inline: translating it,
//! holding it for the NIC, cloning the hold, ending its busy mark and
//! dropping it allocate nothing.
//!
//! Its own test file, hence its own process: arming the process-global
//! allocation counter races with nothing.

use suca_mem::{AddressSpace, Asid, PhysMemory, PAGE_SIZE};
use suca_sim::alloc;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let (before, _) = alloc::counts();
    alloc::set_counting(true);
    f();
    alloc::set_counting(false);
    alloc::counts().0 - before
}

#[test]
fn holding_cloning_and_dropping_a_one_segment_list_allocates_nothing() {
    let mem = PhysMemory::new(1 << 20);
    let space = AddressSpace::new(Asid(1), mem.clone());
    let buf = space.alloc(2 * PAGE_SIZE).expect("alloc");
    let one_page = || {
        let segs = space.sg_list(buf.add(64), 512).expect("translate");
        assert_eq!(segs.len(), 1);
        let mut held = mem.nic_hold(segs, true);
        let copy = held.clone();
        held.end_busy();
        drop(copy);
        drop(held);
    };
    assert_eq!(allocations(one_page), 0, "a one-segment list allocated");
    // The counter is armed: a list across two pages does allocate.
    let two_pages = || drop(mem.nic_hold(space.sg_list(buf, 2 * PAGE_SIZE).unwrap(), false));
    assert!(allocations(two_pages) > 0);
    assert_eq!(mem.allocated_frames(), 2, "every reference was released");
    assert_eq!(mem.lifetime_violations(), 0);
}

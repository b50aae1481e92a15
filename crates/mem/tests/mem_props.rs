//! Property tests on the memory substrate: pin-down table invariants under
//! arbitrary pin/unpin sequences, the table against a reference map, and
//! address-space read/write consistency across page boundaries.

use std::collections::HashMap;

use proptest::prelude::*;

use suca_mem::{
    AddressSpace, Asid, MemError, PhysFrame, PhysMemory, PinDownTable, PinLookup, VirtAddr,
    VirtPage, PAGE_SIZE,
};

/// The pin-down table as a map from `(asid, page)` to the frame it was
/// translated to, its pin count and its last use, with the same clock,
/// statistics and least-recently-used eviction.
struct RefTable {
    entries: HashMap<(Asid, VirtPage), (PhysFrame, u32, u64)>,
    capacity: usize,
    clock: u64,
    stats: (u64, u64, u64),
}

type Pinned = Result<Vec<(PhysFrame, PinLookup)>, MemError>;

impl RefTable {
    fn pin_range(&mut self, space: &AddressSpace, addr: VirtAddr, len: u64) -> Pinned {
        let asid = space.asid();
        let mut out = Vec::new();
        for i in 0..suca_mem::pages_spanned(addr, len.max(1)) {
            let vp = VirtPage(addr.page().0 + i);
            match self.pin_one(space, asid, vp) {
                Ok(r) => out.push(r),
                Err(e) => {
                    for (j, _) in out.iter().enumerate() {
                        self.unpin(asid, VirtPage(addr.page().0 + j as u64));
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn pin_one(
        &mut self,
        space: &AddressSpace,
        asid: Asid,
        vp: VirtPage,
    ) -> Result<(PhysFrame, PinLookup), MemError> {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&(asid, vp)) {
            e.1 += 1;
            e.2 = self.clock;
            self.stats.0 += 1;
            return Ok((e.0, PinLookup::Hit));
        }
        let frame = space.translate(vp.base())?.frame();
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.1 == 0)
                .min_by_key(|(_, e)| e.2)
                .map(|(k, _)| *k)
                .ok_or(MemError::PinTableFull)?;
            self.entries.remove(&victim);
            self.stats.2 += 1;
        }
        self.entries.insert((asid, vp), (frame, 1, self.clock));
        self.stats.1 += 1;
        Ok((frame, PinLookup::Miss))
    }

    fn unpin(&mut self, asid: Asid, vp: VirtPage) {
        if let Some(e) = self.entries.get_mut(&(asid, vp)) {
            e.1 = e.1.saturating_sub(1);
        }
    }

    fn purge_range(&mut self, asid: Asid, addr: VirtAddr, len: u64) {
        for i in 0..suca_mem::pages_spanned(addr, len.max(1)) {
            self.entries.remove(&(asid, VirtPage(addr.page().0 + i)));
        }
    }
}

proptest! {
    #[test]
    fn pin_table_never_exceeds_capacity_and_never_evicts_pinned(
        ops in prop::collection::vec((0u64..32, any::<bool>()), 1..200),
        capacity in 2usize..16,
    ) {
        let mem = PhysMemory::new(64 << 20);
        let space = AddressSpace::new(Asid(1), mem);
        let base = space.alloc(PAGE_SIZE * 32).unwrap();
        let mut table = PinDownTable::new(capacity);
        let mut pin_counts = [0u32; 32];

        for (page, is_pin) in ops {
            let addr = base.add(page * PAGE_SIZE);
            if is_pin {
                match table.pin_range(&space, addr, 1) {
                    Ok(r) => {
                        prop_assert_eq!(r.len(), 1);
                        pin_counts[page as usize] += 1;
                    }
                    Err(suca_mem::MemError::PinTableFull) => {
                        // Legal only when every entry is pinned.
                        let live: u32 = pin_counts.iter().filter(|c| **c > 0).count() as u32;
                        prop_assert!(live as usize >= capacity,
                            "PinTableFull with {} pinned pages < capacity {}", live, capacity);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            } else {
                table.unpin(space.asid(), VirtPage(addr.page().0));
                pin_counts[page as usize] = pin_counts[page as usize].saturating_sub(1);
            }
            prop_assert!(table.len() <= capacity, "table overflowed capacity");
        }

        // Every page pinned right now must still be resident (it was never
        // evicted): re-pinning it must be a Hit.
        for (page, &pins) in pin_counts.iter().enumerate() {
            if pins > 0 {
                let addr = base.add(page as u64 * PAGE_SIZE);
                let r = table.pin_range(&space, addr, 1).unwrap();
                prop_assert_eq!(r[0].1, suca_mem::PinLookup::Hit,
                    "pinned page {} was evicted", page);
            }
        }
    }

    #[test]
    fn space_rw_roundtrip_arbitrary_offsets(
        len in 1usize..40_000,
        off in 0u64..40_000,
        data in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        let space = AddressSpace::new(Asid(2), PhysMemory::new(64 << 20));
        let region = len as u64 + off + data.len() as u64;
        let base = space.alloc(region).unwrap();
        let at = base.add(off);
        space.write(at, &data).unwrap();
        let back = space.read_vec(at, data.len() as u64).unwrap();
        prop_assert_eq!(back, data.clone());
        // Bytes before the write are still zero (fresh region).
        if off > 0 {
            let before = space.read_vec(base, off.min(64)).unwrap();
            prop_assert!(before.iter().all(|b| *b == 0));
        }
    }

    #[test]
    fn pin_table_matches_a_reference_map(
        ops in prop::collection::vec((0u8..9, 0u64..2, 0u64..40, 1u64..4), 1..250),
        capacity in 2usize..12,
    ) {
        // Two processes over one memory, each with four 8-page regions:
        // pages 32..40 of the range lie past them, and forged low
        // addresses sit below every mapping.
        let mem = PhysMemory::new(64 << 20);
        let spaces = [
            AddressSpace::new(Asid(1), mem.clone()),
            AddressSpace::new(Asid(7), mem.clone()),
        ];
        let bases: Vec<VirtAddr> = spaces
            .iter()
            .map(|s| {
                let regions: Vec<VirtAddr> =
                    (0..4).map(|_| s.alloc(8 * PAGE_SIZE).unwrap()).collect();
                assert!(regions.windows(2).all(|w| w[1].0 == w[0].0 + 8 * PAGE_SIZE));
                regions[0]
            })
            .collect();
        let mut mapped = [[true; 4]; 2];
        let mut table = PinDownTable::new(capacity);
        let mut model = RefTable {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            stats: (0, 0, 0),
        };
        for (step, (kind, who, page, pages)) in ops.into_iter().enumerate() {
            let (space, asid) = (&spaces[who as usize], spaces[who as usize].asid());
            let addr = match page {
                39 => VirtAddr(0x10),
                _ => bases[who as usize].add(page * PAGE_SIZE),
            };
            let len = pages * PAGE_SIZE - 1;
            let unpin_range = |table: &mut PinDownTable, model: &mut RefTable| {
                table.unpin_range(asid, addr, len);
                for i in 0..suca_mem::pages_spanned(addr, len) {
                    model.unpin(asid, VirtPage(addr.page().0 + i));
                }
            };
            match kind {
                // Mostly the kernel's pattern, a pin released at once, so
                // the cache fills with evictable entries; sometimes held.
                0..=3 => {
                    let got = table.pin_range(space, addr, len);
                    let want = model.pin_range(space, addr, len);
                    let ok = got.is_ok();
                    prop_assert_eq!(got, want, "pin at step {}", step);
                    if ok && kind < 3 {
                        unpin_range(&mut table, &mut model);
                    }
                }
                4 => {
                    table.unpin(asid, addr.page());
                    model.unpin(asid, addr.page());
                }
                5 => unpin_range(&mut table, &mut model),
                6 => {
                    table.purge_range(asid, addr, len);
                    model.purge_range(asid, addr, len);
                }
                7 => {
                    table.purge_asid(asid);
                    model.entries.retain(|(a, _), _| *a != asid);
                }
                _ => {
                    // Unmap one region the way the kernel does: purge its
                    // pins, then free its pages.
                    let region = (page / 8) as usize;
                    if region < 4 && mapped[who as usize][region] {
                        mapped[who as usize][region] = false;
                        let base = bases[who as usize].add(region as u64 * 8 * PAGE_SIZE);
                        table.purge_range(asid, base, 8 * PAGE_SIZE);
                        model.purge_range(asid, base, 8 * PAGE_SIZE);
                        space.free(base, 8 * PAGE_SIZE).unwrap();
                    }
                }
            }
            prop_assert_eq!(table.stats(), model.stats, "stats after step {}", step);
            prop_assert_eq!(table.len(), model.entries.len(), "len after step {}", step);
        }
    }
}

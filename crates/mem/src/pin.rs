//! The kernel's pin-down buffer page table.
//!
//! In the semi-user-level architecture, DMA-able buffers are pinned and
//! translated **in the host kernel**, and the table of pinned pages lives in
//! host memory — not in the NIC's scarce SRAM. The paper contrasts this with
//! VMMC-2/U-Net, which cache translations on the NIC and thrash when a node's
//! working set outgrows the NIC cache (the "usage of large memory" argument;
//! reproduced by ablation 4 of the `ablations` harness).
//!
//! The table caches `(asid, virtual page)` entries with an LRU eviction
//! policy and a pin count so that pages in use by an in-flight DMA are never
//! evicted. An entry's frame is the process page table's: a page is never
//! remapped while it stays mapped, and unmapping it purges its entry.

use std::num::NonZeroU64;

use crate::addr::{PhysFrame, VirtAddr, VirtPage};
use crate::dense::DenseTable;
use crate::pagetable::{AddressSpace, Asid, USER_BASE_PAGE};
use crate::MemError;

struct PinEntry {
    pins: u32,
    /// The clock at the last pin; unique, so the LRU victim is too.
    last_use: NonZeroU64,
}

/// Outcome of one lookup, so cost accounting can distinguish hits (cheap
/// table search) from misses (pin + translate, the expensive path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PinLookup {
    /// Entry was already cached.
    Hit,
    /// Entry had to be created (page pinned and translated).
    Miss,
}

/// Kernel-resident pin-down page table with capacity-bounded LRU caching.
pub struct PinDownTable {
    /// One table per address space, indexed by virtual page.
    spaces: Vec<(Asid, DenseTable<PinEntry>)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PinDownTable {
    /// Create with space for `capacity` page entries. Host memory is big —
    /// DAWNING nodes dedicate megabytes to this — so a typical capacity is
    /// tens of thousands of pages (vs. a few hundred in a NIC SRAM cache).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pin-down table needs capacity");
        PinDownTable {
            spaces: Vec::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn space_mut(&mut self, asid: Asid) -> Option<&mut DenseTable<PinEntry>> {
        let (_, table) = self.spaces.iter_mut().find(|(a, _)| *a == asid)?;
        Some(table)
    }

    /// Look up (and if necessary create) the translation for every page of
    /// `[addr, addr+len)` in `space`, incrementing each page's pin count.
    /// Returns per-page results in order; the caller charges miss costs.
    ///
    /// On any failure (e.g. unmapped page) all pins taken by this call are
    /// released before returning the error.
    pub fn pin_range(
        &mut self,
        space: &AddressSpace,
        addr: VirtAddr,
        len: u64,
    ) -> Result<Vec<(PhysFrame, PinLookup)>, MemError> {
        let pages = crate::addr::pages_spanned(addr, len.max(1));
        let asid = space.asid();
        let mut out = Vec::with_capacity(pages as usize);
        let mut pinned: Vec<VirtPage> = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let vp = VirtPage(addr.page().0 + i);
            match self.pin_one(space, asid, vp) {
                Ok(res) => {
                    pinned.push(vp);
                    out.push(res);
                }
                Err(e) => {
                    for vp in pinned {
                        self.unpin(asid, vp);
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
        let clock = NonZeroU64::new(self.clock).expect("the clock starts at 1");
        // Translate through the process page table (kernel privilege): a hit
        // reads its frame there too.
        let frame = space.translate(vp.base())?.frame();
        if let Some(e) = self.space_mut(asid).and_then(|t| t.get_mut(&vp.0)) {
            e.pins += 1;
            e.last_use = clock;
            self.hits += 1;
            return Ok((frame, PinLookup::Hit));
        }
        // Miss: pin and install, evicting an unpinned LRU entry if full.
        if self.len() >= self.capacity {
            self.evict_one()?;
        }
        let entry = PinEntry {
            pins: 1,
            last_use: clock,
        };
        match self.space_mut(asid) {
            Some(table) => table.insert(vp.0, entry),
            None => {
                let mut table = DenseTable::new(USER_BASE_PAGE);
                table.insert(vp.0, entry);
                self.spaces.push((asid, table));
            }
        }
        self.misses += 1;
        Ok((frame, PinLookup::Miss))
    }

    fn evict_one(&mut self) -> Result<(), MemError> {
        let victim = self
            .spaces
            .iter()
            .enumerate()
            .flat_map(|(i, (_, t))| t.iter().map(move |(vp, e)| (i, vp, e)))
            .filter(|(_, _, e)| e.pins == 0)
            .min_by_key(|(_, _, e)| e.last_use)
            .map(|(i, vp, _)| (i, vp));
        match victim {
            Some((i, vp)) => {
                self.spaces[i].1.remove(&vp);
                self.evictions += 1;
                Ok(())
            }
            // Every entry is pinned by an in-flight DMA: the kernel cannot
            // safely unpin anything.
            None => Err(MemError::PinTableFull),
        }
    }

    /// Drop one pin on `(asid, page)`. The entry stays cached (pin count 0)
    /// until evicted — that is the table's whole point: repeat sends from the
    /// same buffer hit without re-pinning.
    pub fn unpin(&mut self, asid: Asid, vp: VirtPage) {
        if let Some(e) = self.space_mut(asid).and_then(|t| t.get_mut(&vp.0)) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Unpin every page of a byte range.
    pub fn unpin_range(&mut self, asid: Asid, addr: VirtAddr, len: u64) {
        let pages = crate::addr::pages_spanned(addr, len.max(1));
        for i in 0..pages {
            self.unpin(asid, VirtPage(addr.page().0 + i));
        }
    }

    /// Remove the entries of every page of a byte range the process
    /// unmapped: a dead page can never hit again (virtual pages are not
    /// re-used), so keeping it would only count it as pinned.
    pub fn purge_range(&mut self, asid: Asid, addr: VirtAddr, len: u64) {
        let pages = crate::addr::pages_spanned(addr, len.max(1));
        if let Some(table) = self.space_mut(asid) {
            for i in 0..pages {
                table.remove(&(addr.page().0 + i));
            }
        }
    }

    /// Remove all entries belonging to a process (port close / exit).
    pub fn purge_asid(&mut self, asid: Asid) {
        self.spaces.retain(|(a, _)| *a != asid);
    }

    /// (hits, misses, evictions) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.spaces.iter().map(|(_, t)| t.len()).sum()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the table reserves.
    pub fn table_bytes(&self) -> usize {
        let spaces = self.spaces.capacity() * std::mem::size_of::<(Asid, DenseTable<PinEntry>)>();
        spaces + self.spaces.iter().map(|(_, t)| t.bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::phys::PhysMemory;

    fn setup() -> (AddressSpace, PinDownTable) {
        let s = AddressSpace::new(Asid(1), PhysMemory::new(1 << 22));
        (s, PinDownTable::new(8))
    }

    #[test]
    fn first_pin_misses_second_hits() {
        let (s, mut t) = setup();
        let base = s.alloc(PAGE_SIZE * 2).unwrap();
        let r1 = t.pin_range(&s, base, PAGE_SIZE * 2).unwrap();
        assert!(r1.iter().all(|(_, l)| *l == PinLookup::Miss));
        t.unpin_range(s.asid(), base, PAGE_SIZE * 2);
        let r2 = t.pin_range(&s, base, PAGE_SIZE * 2).unwrap();
        assert!(r2.iter().all(|(_, l)| *l == PinLookup::Hit));
        assert_eq!(t.stats(), (2, 2, 0));
    }

    #[test]
    fn translation_matches_page_table() {
        let (s, mut t) = setup();
        let base = s.alloc(PAGE_SIZE).unwrap();
        let r = t.pin_range(&s, base, 16).unwrap();
        assert_eq!(r[0].0, s.translate(base).unwrap().frame());
    }

    #[test]
    fn unmapped_page_fails_and_releases_pins() {
        let (s, mut t) = setup();
        let base = s.alloc(PAGE_SIZE).unwrap();
        // Range extends one page past the mapped region.
        let err = t.pin_range(&s, base, PAGE_SIZE * 2).unwrap_err();
        assert!(matches!(err, MemError::Unmapped(_)));
        // The successfully pinned first page must have been unpinned, so it
        // is evictable: fill the table and expect no PinTableFull.
        let big = s.alloc(PAGE_SIZE * 8).unwrap();
        assert!(t.pin_range(&s, big, PAGE_SIZE * 8).is_ok());
    }

    #[test]
    fn lru_eviction_skips_pinned_entries() {
        let (s, mut t) = setup();
        let a = s.alloc(PAGE_SIZE * 8).unwrap();
        // Fill the table, keep all pinned.
        t.pin_range(&s, a, PAGE_SIZE * 8).unwrap();
        let b = s.alloc(PAGE_SIZE).unwrap();
        assert!(matches!(
            t.pin_range(&s, b, PAGE_SIZE),
            Err(MemError::PinTableFull)
        ));
        // Unpin one page; now there is a victim.
        t.unpin(s.asid(), a.page());
        assert!(t.pin_range(&s, b, PAGE_SIZE).is_ok());
        let (_, _, ev) = t.stats();
        assert_eq!(ev, 1);
    }

    #[test]
    fn eviction_takes_the_least_recently_used_unpinned_entry() {
        let s = AddressSpace::new(Asid(1), PhysMemory::new(1 << 22));
        let mut t = PinDownTable::new(3);
        let base = s.alloc(PAGE_SIZE * 4).unwrap();
        let page = |i| base.add(i * PAGE_SIZE);
        // p0 stays pinned, the oldest; p1 and p2 are released, then p1 is
        // used again, which leaves p2 the least recently used unpinned one.
        t.pin_range(&s, page(0), 1).unwrap();
        for i in [1, 2, 1] {
            t.pin_range(&s, page(i), 1).unwrap();
            t.unpin(s.asid(), page(i).page());
        }
        t.pin_range(&s, page(3), 1).unwrap();
        assert_eq!(t.stats(), (1, 4, 1));
        for i in [0, 1, 3] {
            assert_eq!(t.pin_range(&s, page(i), 1).unwrap()[0].1, PinLookup::Hit);
            t.unpin(s.asid(), page(i).page());
        }
        assert_eq!(t.pin_range(&s, page(2), 1).unwrap()[0].1, PinLookup::Miss);
    }

    #[test]
    fn purge_range_forgets_exactly_the_unmapped_pages() {
        let (s, mut t) = setup();
        let base = s.alloc(PAGE_SIZE * 3).unwrap();
        t.pin_range(&s, base, PAGE_SIZE * 3).unwrap();
        t.purge_range(s.asid(), base.add(PAGE_SIZE), PAGE_SIZE * 2);
        assert_eq!(t.len(), 1);
        let again = t.pin_range(&s, base, 1).unwrap();
        assert_eq!(again[0].1, PinLookup::Hit, "the other page stays cached");
    }

    #[test]
    fn purge_asid_clears_only_that_process() {
        let mem = PhysMemory::new(1 << 22);
        let s1 = AddressSpace::new(Asid(1), mem.clone());
        let s2 = AddressSpace::new(Asid(2), mem);
        let mut t = PinDownTable::new(8);
        let b1 = s1.alloc(PAGE_SIZE).unwrap();
        let b2 = s2.alloc(PAGE_SIZE).unwrap();
        t.pin_range(&s1, b1, 1).unwrap();
        t.pin_range(&s2, b2, 1).unwrap();
        t.purge_asid(Asid(1));
        assert_eq!(t.len(), 1);
    }
}

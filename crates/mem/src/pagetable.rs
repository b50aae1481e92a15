//! Per-process virtual address spaces.
//!
//! Each simulated user process owns an [`AddressSpace`]: a page table mapping
//! virtual pages to physical frames of the node's [`PhysMemory`], plus a bump
//! allocator for fresh regions. User code accesses its buffers exclusively
//! through the address space, which is what lets the BCL kernel module (and
//! nothing else) perform virtual→physical translation — the paper's central
//! security property.

use std::cell::RefCell;
use std::num::NonZeroU64;
use std::rc::Rc;

use crate::addr::{pages_spanned, PhysAddr, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
use crate::dense::DenseTable;
use crate::phys::{PhysMemory, SegList};
use crate::MemError;

/// Address-space identifier (one per process).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Asid(pub u32);

struct SpaceInner {
    asid: Asid,
    /// Frame number by virtual page; frame 0 is never handed out.
    table: DenseTable<NonZeroU64>,
    next_page: u64,
}

/// One process's virtual address space. Clones share the page table.
///
/// ```
/// use suca_mem::{AddressSpace, Asid, PhysMemory};
/// let mem = PhysMemory::new(1 << 20);
/// let space = AddressSpace::new(Asid(1), mem);
/// let buf = space.alloc(8192).unwrap();
/// space.write(buf, b"payload").unwrap();
/// assert_eq!(space.read_vec(buf, 7).unwrap(), b"payload");
/// // The kernel's view: physical scatter/gather segments.
/// let segs = space.sg_list(buf, 8192).unwrap();
/// assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), 8192);
/// ```
#[derive(Clone)]
pub struct AddressSpace {
    mem: PhysMemory,
    inner: Rc<RefCell<SpaceInner>>,
}

/// Base of the user heap in every simulated process (an arbitrary non-zero
/// constant so that a forged null/low pointer is always invalid).
pub(crate) const USER_BASE_PAGE: u64 = 0x1000;

impl AddressSpace {
    /// Create an empty space over a node's physical memory.
    pub fn new(asid: Asid, mem: PhysMemory) -> Self {
        AddressSpace {
            mem,
            inner: Rc::new(RefCell::new(SpaceInner {
                asid,
                table: DenseTable::new(USER_BASE_PAGE),
                next_page: USER_BASE_PAGE,
            })),
        }
    }

    /// This space's id.
    pub fn asid(&self) -> Asid {
        self.inner.borrow().asid
    }

    /// The physical memory this space maps into.
    pub fn phys(&self) -> &PhysMemory {
        &self.mem
    }

    /// Allocate and map a fresh zeroed region of at least `len` bytes.
    /// Returns its base virtual address (page-aligned).
    pub fn alloc(&self, len: u64) -> Result<VirtAddr, MemError> {
        let pages = pages_spanned(VirtAddr(0), len.max(1));
        let frames = self.mem.alloc_frames(pages)?;
        Ok(self.map_frames(&frames))
    }

    /// Unmap and free a region previously returned by [`AddressSpace::alloc`].
    /// The pages fault from now on; frames the NIC still references are
    /// reclaimed when it lets go (see [`crate::phys`]).
    pub fn free(&self, base: VirtAddr, len: u64) -> Result<(), MemError> {
        assert_eq!(base.page_offset(), 0, "free of non page-aligned region");
        let pages = pages_spanned(base, len.max(1));
        let mut inner = self.inner.borrow_mut();
        for i in 0..pages {
            let vp = VirtPage(base.page().0 + i);
            let frame = inner
                .table
                .remove(&vp.0)
                .ok_or(MemError::Unmapped(vp.base()))?;
            self.mem.free_frame(PhysFrame(frame.get()))?;
        }
        Ok(())
    }

    /// Translate one virtual address; fails on unmapped pages.
    pub fn translate(&self, addr: VirtAddr) -> Result<PhysAddr, MemError> {
        let inner = self.inner.borrow();
        let frame = inner
            .table
            .get(&addr.page().0)
            .ok_or(MemError::Unmapped(addr))?;
        Ok(PhysFrame(frame.get()).base().add(addr.page_offset()))
    }

    /// True if the whole byte range `[addr, addr+len)` is mapped.
    pub fn is_mapped(&self, addr: VirtAddr, len: u64) -> bool {
        let inner = self.inner.borrow();
        let pages = pages_spanned(addr, len.max(1));
        (0..pages).all(|i| inner.table.get(&(addr.page().0 + i)).is_some())
    }

    /// Map an existing physical frame at a fresh virtual page (the shared-
    /// memory primitive used by the intra-node path). Returns the virtual
    /// base of the new page.
    pub fn map_frame(&self, frame: PhysFrame) -> VirtAddr {
        self.map_frames(std::slice::from_ref(&frame))
    }

    /// Map a run of existing frames at consecutive fresh virtual pages;
    /// returns the base of the contiguous region.
    pub fn map_frames(&self, frames: &[PhysFrame]) -> VirtAddr {
        assert!(!frames.is_empty(), "mapping zero frames");
        let mut inner = self.inner.borrow_mut();
        let base = VirtPage(inner.next_page);
        inner.next_page += frames.len() as u64;
        for (i, f) in frames.iter().enumerate() {
            let frame = NonZeroU64::new(f.0).expect("frame 0 is never handed out");
            inner.table.insert(base.0 + i as u64, frame);
        }
        base.base()
    }

    /// Heap bytes the page table reserves.
    pub fn table_bytes(&self) -> usize {
        self.inner.borrow().table.bytes()
    }

    /// Read user memory (as the process itself would).
    pub fn read(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.for_each_segment(addr, buf.len() as u64, |phys, range| {
            self.mem.read(phys, &mut buf[range.0..range.1])
        })
    }

    /// Write user memory (as the process itself would).
    pub fn write(&self, addr: VirtAddr, buf: &[u8]) -> Result<(), MemError> {
        self.for_each_segment(addr, buf.len() as u64, |phys, range| {
            self.mem.write(phys, &buf[range.0..range.1])
        })
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: VirtAddr, len: u64) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len as usize];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Physical scatter/gather segments covering `[addr, addr+len)`, in
    /// order. Each segment lies within one frame. This is exactly the list
    /// the BCL kernel module writes into a send descriptor; a buffer within
    /// one page gets a one-segment list, held inline.
    pub fn sg_list(&self, addr: VirtAddr, len: u64) -> Result<SegList, MemError> {
        let mut segs = SegList::new();
        self.for_each_segment(addr, len, |phys, range| {
            segs.push((phys, (range.1 - range.0) as u64));
            Ok(())
        })?;
        Ok(segs)
    }

    fn for_each_segment(
        &self,
        addr: VirtAddr,
        len: u64,
        mut f: impl FnMut(PhysAddr, (usize, usize)) -> Result<(), MemError>,
    ) -> Result<(), MemError> {
        let mut pos = addr;
        let mut done = 0u64;
        while done < len {
            let chunk = (PAGE_SIZE - pos.page_offset()).min(len - done);
            let phys = self.translate(pos)?;
            f(phys, (done as usize, (done + chunk) as usize))?;
            done += chunk;
            pos = pos.add(chunk);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(Asid(1), PhysMemory::new(1 << 22))
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let s = space();
        let base = s.alloc(10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        s.write(base, &data).unwrap();
        assert_eq!(s.read_vec(base, 10_000).unwrap(), data);
    }

    #[test]
    fn unmapped_access_faults() {
        let s = space();
        let mut b = [0u8; 4];
        assert!(matches!(
            s.read(VirtAddr(0x10), &mut b),
            Err(MemError::Unmapped(_))
        ));
        assert!(!s.is_mapped(VirtAddr(0x10), 4));
    }

    #[test]
    fn sg_list_covers_range_in_order() {
        let s = space();
        let base = s.alloc(3 * PAGE_SIZE).unwrap();
        let start = base.add(100);
        let len = 2 * PAGE_SIZE; // crosses 3 pages starting mid-page
        let segs = s.sg_list(start, len).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].1, PAGE_SIZE - 100);
        assert_eq!(segs[1].1, PAGE_SIZE);
        assert_eq!(segs[2].1, 100);
        assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), len);
        // Writing via phys segments is visible via virtual reads.
        let m = s.phys();
        m.write(segs[0].0, &[7u8; 16]).unwrap();
        assert_eq!(s.read_vec(start, 16).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn free_unmaps() {
        let s = space();
        let base = s.alloc(PAGE_SIZE * 2).unwrap();
        s.free(base, PAGE_SIZE * 2).unwrap();
        assert!(!s.is_mapped(base, 1));
        assert!(s.translate(base).is_err());
    }

    #[test]
    fn alloc_failure_rolls_back() {
        let s = AddressSpace::new(Asid(1), PhysMemory::new(PAGE_SIZE * 2));
        assert!(s.alloc(PAGE_SIZE * 3).is_err());
        assert_eq!(s.phys().allocated_frames(), 0, "partial alloc leaked");
        // The space still works for a smaller request.
        assert!(s.alloc(PAGE_SIZE * 2).is_ok());
    }

    #[test]
    fn shared_frame_mapping_is_coherent() {
        let mem = PhysMemory::new(1 << 20);
        let a = AddressSpace::new(Asid(1), mem.clone());
        let b = AddressSpace::new(Asid(2), mem.clone());
        let frame = mem.alloc_frame().unwrap();
        let va = a.map_frame(frame);
        let vb = b.map_frame(frame);
        a.write(va, b"shared!").unwrap();
        assert_eq!(b.read_vec(vb, 7).unwrap(), b"shared!".to_vec());
    }

    #[test]
    fn distinct_spaces_are_isolated() {
        let mem = PhysMemory::new(1 << 20);
        let a = AddressSpace::new(Asid(1), mem.clone());
        let b = AddressSpace::new(Asid(2), mem);
        let va = a.alloc(64).unwrap();
        a.write(va, b"secret").unwrap();
        // Same numeric address in b is unmapped.
        assert!(b.read_vec(va, 6).is_err());
    }
}

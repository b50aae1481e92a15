//! Shared-memory segments for intra-node communication.
//!
//! BCL's intra-node path (paper §4.2) moves data through shared-memory buffer
//! queues rather than bouncing through the NIC, because host memcpy bandwidth
//! beats PCI DMA bandwidth. A [`SharedRegion`] is a run of physical frames
//! that any process on the node can map into its own address space; the
//! region is also directly addressable for queue bookkeeping.

use std::rc::Rc;

use crate::addr::{PhysAddr, PhysFrame, VirtAddr, PAGE_SIZE};
use crate::pagetable::AddressSpace;
use crate::phys::PhysMemory;
use crate::MemError;

struct RegionInner {
    mem: PhysMemory,
    frames: Vec<PhysFrame>,
    len: u64,
}

impl Drop for RegionInner {
    fn drop(&mut self) {
        for f in &self.frames {
            let _ = self.mem.free_frame(*f);
        }
    }
}

/// A reference-counted shared segment. Freed (frames returned) when the last
/// clone drops; processes that mapped it keep valid mappings only as long as
/// they hold a clone, mirroring SysV `shmat` lifetime rules.
#[derive(Clone)]
pub struct SharedRegion {
    inner: Rc<RegionInner>,
}

impl SharedRegion {
    /// Allocate a zeroed shared segment of at least `len` bytes.
    pub fn alloc(mem: &PhysMemory, len: u64) -> Result<Self, MemError> {
        let frames = mem.alloc_frames(len.max(1).div_ceil(PAGE_SIZE))?;
        Ok(SharedRegion {
            inner: Rc::new(RegionInner {
                mem: mem.clone(),
                frames,
                len,
            }),
        })
    }

    /// Usable length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.len
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Map the whole segment contiguously into `space`; returns the base.
    pub fn map_into(&self, space: &AddressSpace) -> VirtAddr {
        space.map_frames(&self.inner.frames)
    }

    /// Physical address of byte `offset` (for DMA or queue bookkeeping).
    pub fn phys_at(&self, offset: u64) -> Result<PhysAddr, MemError> {
        if offset >= self.inner.len.max(1) {
            return Err(MemError::OutOfRange {
                offset,
                len: self.inner.len,
            });
        }
        let frame = self.inner.frames[(offset / PAGE_SIZE) as usize];
        Ok(frame.base().add(offset % PAGE_SIZE))
    }

    /// Read directly from the segment (bypassing any mapping).
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len() as u64)?;
        let mut pos = offset;
        let mut done = 0usize;
        while done < buf.len() {
            let chunk = ((PAGE_SIZE - pos % PAGE_SIZE) as usize).min(buf.len() - done);
            let phys = self.phys_at(pos)?;
            self.inner.mem.read(phys, &mut buf[done..done + chunk])?;
            done += chunk;
            pos += chunk as u64;
        }
        Ok(())
    }

    /// Write directly into the segment.
    pub fn write(&self, offset: u64, buf: &[u8]) -> Result<(), MemError> {
        self.check(offset, buf.len() as u64)?;
        let mut pos = offset;
        let mut done = 0usize;
        while done < buf.len() {
            let chunk = ((PAGE_SIZE - pos % PAGE_SIZE) as usize).min(buf.len() - done);
            let phys = self.phys_at(pos)?;
            self.inner.mem.write(phys, &buf[done..done + chunk])?;
            done += chunk;
            pos += chunk as u64;
        }
        Ok(())
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), MemError> {
        if offset + len > self.inner.len {
            return Err(MemError::OutOfRange {
                offset: offset + len,
                len: self.inner.len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Asid;

    #[test]
    fn two_processes_see_the_same_bytes() {
        let mem = PhysMemory::new(1 << 20);
        let a = AddressSpace::new(Asid(1), mem.clone());
        let b = AddressSpace::new(Asid(2), mem.clone());
        let region = SharedRegion::alloc(&mem, 10_000).unwrap();
        let va = region.map_into(&a);
        let vb = region.map_into(&b);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        a.write(va, &payload).unwrap();
        assert_eq!(b.read_vec(vb, 10_000).unwrap(), payload);
    }

    #[test]
    fn direct_and_mapped_views_agree() {
        let mem = PhysMemory::new(1 << 20);
        let a = AddressSpace::new(Asid(1), mem.clone());
        let region = SharedRegion::alloc(&mem, 8192).unwrap();
        let va = region.map_into(&a);
        region.write(4090, b"crosses").unwrap(); // spans the page boundary
        assert_eq!(a.read_vec(va.add(4090), 7).unwrap(), b"crosses".to_vec());
    }

    #[test]
    fn bounds_are_enforced() {
        let mem = PhysMemory::new(1 << 20);
        let region = SharedRegion::alloc(&mem, 100).unwrap();
        assert!(region.write(90, &[0u8; 20]).is_err());
        let mut b = [0u8; 1];
        assert!(region.read(100, &mut b).is_err());
        assert!(region.phys_at(100).is_err());
    }

    #[test]
    fn frames_freed_on_last_drop() {
        let mem = PhysMemory::new(1 << 20);
        let before = mem.allocated_frames();
        {
            let region = SharedRegion::alloc(&mem, PAGE_SIZE * 3).unwrap();
            let clone = region.clone();
            assert_eq!(mem.allocated_frames(), before + 3);
            drop(region);
            assert_eq!(mem.allocated_frames(), before + 3, "clone keeps it alive");
            drop(clone);
        }
        assert_eq!(mem.allocated_frames(), before);
    }
}

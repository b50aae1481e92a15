//! Scatter/gather helpers over physical segment lists.
//!
//! The kernel module translates a user buffer into a list of
//! `(PhysAddr, len)` segments (one per page at most); the MCP's DMA engines
//! then read/write those segments at arbitrary byte offsets — fragments
//! rarely align with page boundaries.
//!
//! [`read_sg`] and [`write_sg`] are the only way NIC-side code touches host
//! memory, and they go through `suca-mem`'s DMA accessors: they reach a
//! buffer its owner already freed for as long as the NIC holds it
//! ([`suca_mem::NicSegs`]), and touching anything the NIC does *not* hold
//! is a counted lifetime violation.

use suca_mem::{MemError, PhysAddr, PhysMemory, SegList};

/// Total byte length of a segment list.
pub fn sg_total(segs: &[(PhysAddr, u64)]) -> u64 {
    segs.iter().map(|s| s.1).sum()
}

/// The sub-list covering `[offset, offset + len)` of the logical buffer.
/// Panics if the range exceeds the list — callers bounds-check first
/// (the kernel module or the NIC-side RMA validation). A slice within one
/// segment is held inline.
pub fn slice_sg(segs: &[(PhysAddr, u64)], offset: u64, len: u64) -> SegList {
    assert!(
        offset + len <= sg_total(segs),
        "sg slice [{offset}, {}) out of range {}",
        offset + len,
        sg_total(segs)
    );
    let mut out = SegList::new();
    let mut skip = offset;
    let mut need = len;
    for &(addr, seg_len) in segs {
        if need == 0 {
            break;
        }
        if skip >= seg_len {
            skip -= seg_len;
            continue;
        }
        let take = (seg_len - skip).min(need);
        out.push((addr.add(skip), take));
        need -= take;
        skip = 0;
    }
    out
}

/// DMA-read `len` bytes starting at logical `offset` of the segment list.
pub fn read_sg(
    mem: &PhysMemory,
    segs: &[(PhysAddr, u64)],
    offset: u64,
    len: u64,
) -> Result<Vec<u8>, MemError> {
    let mut out = vec![0u8; len as usize];
    let mut done = 0usize;
    for &(addr, seg_len) in slice_sg(segs, offset, len).iter() {
        mem.dma_read(addr, &mut out[done..done + seg_len as usize])?;
        done += seg_len as usize;
    }
    Ok(out)
}

/// DMA-write `data` starting at logical `offset` of the segment list.
pub fn write_sg(
    mem: &PhysMemory,
    segs: &[(PhysAddr, u64)],
    offset: u64,
    data: &[u8],
) -> Result<(), MemError> {
    let mut done = 0usize;
    for &(addr, seg_len) in slice_sg(segs, offset, data.len() as u64).iter() {
        mem.dma_write(addr, &data[done..done + seg_len as usize])?;
        done += seg_len as usize;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_mem::{AddressSpace, Asid, NicSegs, PAGE_SIZE};

    fn setup(len: u64) -> (PhysMemory, NicSegs) {
        let mem = PhysMemory::new(1 << 22);
        let space = AddressSpace::new(Asid(1), mem.clone());
        let base = space.alloc(len).unwrap();
        // Write a recognizable pattern through the virtual view.
        let pattern: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        space.write(base, &pattern).unwrap();
        let segs = mem.nic_hold(space.sg_list(base, len).unwrap(), false);
        (mem, segs)
    }

    #[test]
    fn read_across_pages() {
        let (mem, segs) = setup(3 * PAGE_SIZE);
        let got = read_sg(&mem, &segs, PAGE_SIZE - 10, 20).unwrap();
        let expect: Vec<u8> = (PAGE_SIZE - 10..PAGE_SIZE + 10)
            .map(|i| (i % 241) as u8)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mem, segs) = setup(2 * PAGE_SIZE);
        write_sg(&mem, &segs, 100, b"patch").unwrap();
        assert_eq!(read_sg(&mem, &segs, 100, 5).unwrap(), b"patch");
        // Neighbors untouched.
        assert_eq!(read_sg(&mem, &segs, 99, 1).unwrap(), vec![99u8]);
        assert_eq!(mem.lifetime_violations(), 0, "the list is held");
    }

    #[test]
    fn slice_handles_zero_len() {
        let (_, segs) = setup(PAGE_SIZE);
        assert!(slice_sg(&segs, 50, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let (_, segs) = setup(PAGE_SIZE);
        slice_sg(&segs, PAGE_SIZE - 1, 2);
    }

    #[test]
    fn sg_total_sums() {
        let (_, segs) = setup(PAGE_SIZE * 2 + 7);
        assert_eq!(sg_total(&segs), PAGE_SIZE * 2 + 7);
    }
}

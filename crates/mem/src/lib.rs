//! # suca-mem — host memory substrate
//!
//! Simulated physical memory with real contents, per-process virtual address
//! spaces, the kernel's pin-down page table, and shared-memory segments for
//! the intra-node path. Everything the paper's address-translation and
//! protection story depends on.

#![warn(missing_docs)]

pub mod addr;
mod dense;
pub mod pagetable;
pub mod phys;
pub mod pin;
pub mod shm;

pub use addr::{pages_spanned, BusAddr, PhysAddr, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
pub use pagetable::{AddressSpace, Asid};
pub use phys::{NicSegs, PhysMemory, SegList};
pub use pin::{PinDownTable, PinLookup};
pub use shm::SharedRegion;

/// Errors from the memory substrate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// Access to a frame that is not allocated (or was freed).
    BadFrame(PhysFrame),
    /// Access through an unmapped virtual address.
    Unmapped(VirtAddr),
    /// Offset beyond the end of a region.
    OutOfRange {
        /// Offset (or end of the accessed range) that exceeded the region.
        offset: u64,
        /// Region length.
        len: u64,
    },
    /// Pin-down table is full of pinned (unevictable) entries.
    PinTableFull,
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of physical memory"),
            MemError::BadFrame(fr) => write!(f, "access to unallocated frame {fr:?}"),
            MemError::Unmapped(a) => write!(f, "unmapped virtual address {a:?}"),
            MemError::OutOfRange { offset, len } => {
                write!(f, "offset {offset} out of range (len {len})")
            }
            MemError::PinTableFull => write!(f, "pin-down table full of pinned entries"),
        }
    }
}

impl std::error::Error for MemError {}

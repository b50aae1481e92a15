//! Simulated physical memory with real contents.
//!
//! Every node owns one [`PhysMemory`]: a sparse array of 4 KiB frames, each
//! of which holds only its written prefix — bytes `[0, hw)` with `hw` the
//! highest offset ever written, rounded up to a power of two (at most a
//! page); every byte past the prefix reads as zero. An unwritten frame costs
//! one small record and no bytes, a 512 B message into a page-sized buffer
//! costs 512 B, and a full-page DMA allocates the 4 KiB once. All data
//! movement in the reproduction — PIO, host DMA, intra-node shared-memory
//! copies — reads and writes these frames, so data integrity can be asserted
//! end to end (through fragmentation, packet drops and retransmission).
//!
//! ## Frame lifetime
//!
//! One record per frame decides when it exists and when it dies, the way a
//! kernel treats a page that is `munmap`ped while pinned for I/O:
//!
//! * **mapped** — set by allocation, cleared by [`PhysMemory::free_frame`].
//!   Host access ([`PhysMemory::read`] / [`PhysMemory::write`]) to an
//!   unmapped frame faults at once.
//! * **NIC references** — one per scatter/gather list in NIC state that
//!   names the frame, held through a [`NicSegs`] guard
//!   ([`PhysMemory::nic_hold`]). A freed frame is *reclaimed* — record and
//!   bytes dropped, its share of the capacity returned — only when the last
//!   reference is gone, so a buffer may be freed the moment it has been
//!   handed to the NIC.
//! * **busy** — the references whose owner has not yet been told (by a
//!   completion event) that the buffer is its own again.
//!
//! The same record is the DMA-lifetime checker. Two things are violations,
//! counted (`mem.dma_lifetime_violations`, plus one flight-recorder dump per
//! run) rather than panicking: a **host write to a busy frame** — the NIC
//! may still be reading it — and a **DMA** ([`PhysMemory::dma_read`] /
//! [`PhysMemory::dma_write`]) **to a frame the NIC holds no reference on**.

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::ops::{Deref, Range, RangeInclusive};
use std::rc::Rc;

use suca_sim::{Counter, MsgTracer, Sim};

use crate::addr::{PhysAddr, PhysFrame, PAGE_SIZE};
use crate::dense::DenseTable;
use crate::MemError;

const HOST_WRITE_TO_BUSY: &str = "mem: host write to a frame with DMA in flight";
const DMA_UNREFERENCED: &str = "mem: DMA to a frame the NIC holds no reference on";
/// The first frame number handed out: frame 0 is reserved, which catches
/// null-frame bugs.
const FIRST_FRAME: u64 = 1;

struct Frame {
    /// The written prefix (see the module docs): empty, holding no
    /// allocation, until the first write; a power of two long, at most a
    /// page, after it. Bytes past it read as zeros.
    data: Box<[u8]>,
    /// Cleared by `free_frame`; an unmapped frame lives on only while
    /// `nic_refs > 0`.
    mapped: bool,
    /// Scatter/gather lists in NIC state naming this frame.
    nic_refs: u32,
    /// Of those, the ones whose owner still awaits its completion event.
    nic_busy: u32,
}

impl Frame {
    /// Copy bytes `[off, off + out.len())` of the frame into `out`.
    fn read(&self, off: usize, out: &mut [u8]) {
        let held = self.data.get(off..).unwrap_or_default();
        let n = held.len().min(out.len());
        out[..n].copy_from_slice(&held[..n]);
        out[n..].fill(0);
    }

    /// Copy `buf` into the frame at `off`, first growing the prefix to the
    /// next power of two that holds it.
    fn write(&mut self, off: usize, buf: &[u8]) {
        let end = off + buf.len();
        if self.data.len() < end {
            let len = end.next_power_of_two().min(PAGE_SIZE as usize);
            let mut grown = Vec::from(std::mem::take(&mut self.data));
            grown.reserve_exact(len - grown.len());
            grown.resize(len, 0);
            self.data = grown.into_boxed_slice();
        }
        self.data[off..end].copy_from_slice(buf);
    }
}

/// Who is touching memory; decides which lifetime rule applies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Accessor {
    Host,
    Nic,
}

struct PhysInner {
    /// Indexed by frame number.
    frames: DenseTable<Frame>,
    /// Next frame number to hand out. Frames are never reused after free in
    /// this model; a u64 namespace cannot realistically be exhausted and
    /// non-reuse catches use-after-free bugs deterministically.
    next_frame: u64,
    total_frames: u64,
    /// Frames not yet reclaimed: mapped, or freed but still NIC-referenced.
    allocated: u64,
    violations: u64,
    /// Where violations are published once a simulation watches this memory.
    reporter: Option<(Counter, MsgTracer)>,
}

impl PhysInner {
    /// The record of a frame `who` is about to touch, after applying its
    /// lifetime rule: a fault is an error, a violation is noted and allowed.
    fn access(
        &mut self,
        frame: PhysFrame,
        who: Accessor,
        write: bool,
        violation: &mut Option<&'static str>,
    ) -> Result<&mut Frame, MemError> {
        let f = self
            .frames
            .get_mut(&frame.0)
            .ok_or(MemError::BadFrame(frame))?;
        match who {
            Accessor::Host if !f.mapped => return Err(MemError::BadFrame(frame)),
            Accessor::Host if write && f.nic_busy > 0 => *violation = Some(HOST_WRITE_TO_BUSY),
            Accessor::Nic if f.nic_refs == 0 => *violation = Some(DMA_UNREFERENCED),
            _ => {}
        }
        Ok(f)
    }

    /// Apply `f` to the record of every frame `segs` touches (frames that
    /// no longer exist are skipped), then reclaim the ones nothing holds.
    fn for_each_seg_frame(&mut self, segs: &[(PhysAddr, u64)], mut f: impl FnMut(&mut Frame)) {
        for &(addr, len) in segs.iter().filter(|s| s.1 > 0) {
            for n in frames_of(addr, len) {
                let Some(frame) = self.frames.get_mut(&n) else {
                    continue;
                };
                f(frame);
                if !frame.mapped && frame.nic_refs == 0 {
                    self.frames.remove(&n);
                    self.allocated -= 1;
                }
            }
        }
    }
}

/// Frame numbers touched by the `len > 0` bytes at `addr`.
fn frames_of(addr: PhysAddr, len: u64) -> RangeInclusive<u64> {
    addr.frame().0..=addr.add(len - 1).frame().0
}

/// Handle to one node's physical memory. Clones share storage.
#[derive(Clone)]
pub struct PhysMemory {
    inner: Rc<RefCell<PhysInner>>,
}

impl PhysMemory {
    /// Create a memory of `total_bytes` capacity (rounded down to frames).
    /// DAWNING-3000 nodes carried 1–4 GiB; tests typically use a few MiB.
    pub fn new(total_bytes: u64) -> Self {
        PhysMemory {
            inner: Rc::new(RefCell::new(PhysInner {
                frames: DenseTable::new(FIRST_FRAME),
                next_frame: FIRST_FRAME,
                total_frames: total_bytes / PAGE_SIZE,
                allocated: 0,
                violations: 0,
                reporter: None,
            })),
        }
    }

    /// Publish this memory's lifetime violations in `sim`: each one bumps
    /// the `mem.dma_lifetime_violations` counter and the first of the run
    /// dumps the flight recorder. The node's OS calls this at boot.
    pub fn watch(&self, sim: &Sim) {
        let counter = sim.metrics().counter("mem.dma_lifetime_violations");
        self.inner.borrow_mut().reporter = Some((counter, sim.msg_trace().clone()));
    }

    /// Lifetime violations seen so far (see the module docs for the two
    /// kinds).
    pub fn lifetime_violations(&self) -> u64 {
        self.inner.borrow().violations
    }

    /// Allocate one frame (zero-filled, as every fresh frame reads).
    pub fn alloc_frame(&self) -> Result<PhysFrame, MemError> {
        Ok(self.alloc_frames(1)?[0])
    }

    /// Allocate `n` consecutively numbered frames, all or none. A fresh
    /// frame reads as zeros and holds no bytes until first written.
    pub fn alloc_frames(&self, n: u64) -> Result<Vec<PhysFrame>, MemError> {
        let mut inner = self.inner.borrow_mut();
        if inner.allocated + n > inner.total_frames {
            return Err(MemError::OutOfMemory);
        }
        let first = inner.next_frame;
        inner.next_frame += n;
        inner.allocated += n;
        let fresh = || Frame {
            data: Box::default(),
            mapped: true,
            nic_refs: 0,
            nic_busy: 0,
        };
        for f in first..first + n {
            inner.frames.insert(f, fresh());
        }
        Ok((first..first + n).map(PhysFrame).collect())
    }

    /// Free a frame. Host access afterwards is a [`MemError::BadFrame`];
    /// the frame is reclaimed now, or — while the NIC still references it —
    /// when the last [`NicSegs`] naming it is dropped.
    pub fn free_frame(&self, f: PhysFrame) -> Result<(), MemError> {
        let mut inner = self.inner.borrow_mut();
        let frame = inner.frames.get_mut(&f.0).filter(|fr| fr.mapped);
        let frame = frame.ok_or(MemError::BadFrame(f))?;
        frame.mapped = false;
        if frame.nic_refs == 0 {
            inner.frames.remove(&f.0);
            inner.allocated -= 1;
        }
        Ok(())
    }

    /// Frames currently allocated: mapped, or freed but not yet let go of
    /// by the NIC. This is what counts against the capacity.
    pub fn allocated_frames(&self) -> u64 {
        self.inner.borrow().allocated
    }

    /// Bytes the frames hold: the sum of their written prefixes (see the
    /// module docs). Unwritten frames hold none.
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.frames.values().map(|f| f.data.len() as u64).sum()
    }

    /// Heap bytes the frame table reserves for its records (the written
    /// prefixes they point to are [`PhysMemory::resident_bytes`]).
    pub fn table_bytes(&self) -> usize {
        self.inner.borrow().frames.bytes()
    }

    /// Total frame capacity.
    pub fn total_frames(&self) -> u64 {
        self.inner.borrow().total_frames
    }

    /// Take a NIC reference on every frame of `segs` — the kernel module
    /// does this where a translated buffer enters NIC state. `busy` marks
    /// the frames as in flight until [`NicSegs::end_busy`]: set it for
    /// buffers whose owner will get a completion event, not for windows and
    /// pools the owner may write while the NIC holds them.
    pub fn nic_hold(&self, segs: impl Into<SegList>, busy: bool) -> NicSegs {
        let segs = segs.into();
        self.inner.borrow_mut().for_each_seg_frame(&segs, |f| {
            f.nic_refs += 1;
            f.nic_busy += u32::from(busy);
        });
        NicSegs {
            mem: Some(self.clone()),
            segs,
            busy,
        }
    }

    /// Host read of `buf.len()` bytes starting at `addr`, possibly crossing
    /// frame boundaries. Fails if any touched frame is unallocated or freed.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.read_as(Accessor::Host, addr, buf)
    }

    /// Host write of `buf` starting at `addr`, possibly crossing frame
    /// boundaries. Writing a busy frame is a counted lifetime violation.
    pub fn write(&self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        self.write_as(Accessor::Host, addr, buf)
    }

    /// NIC (DMA) read. Reaches freed frames the NIC still references;
    /// touching a frame it holds no reference on is a counted violation.
    pub fn dma_read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.read_as(Accessor::Nic, addr, buf)
    }

    /// NIC (DMA) write; the counterpart of [`PhysMemory::dma_read`].
    pub fn dma_write(&self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        self.write_as(Accessor::Nic, addr, buf)
    }

    fn read_as(&self, who: Accessor, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut violation = None;
        let mut inner = self.inner.borrow_mut();
        let r = each_chunk(addr, buf.len(), |frame, off, range| {
            inner
                .access(frame, who, false, &mut violation)?
                .read(off, &mut buf[range]);
            Ok(())
        });
        Self::report(inner, violation);
        r
    }

    fn write_as(&self, who: Accessor, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        let mut violation = None;
        let mut inner = self.inner.borrow_mut();
        let r = each_chunk(addr, buf.len(), |frame, off, range| {
            inner
                .access(frame, who, true, &mut violation)?
                .write(off, &buf[range]);
            Ok(())
        });
        Self::report(inner, violation);
        r
    }

    /// Count one access's violation (if any) and publish it once the borrow
    /// is released. An access that faulted on a later frame still reports
    /// the violation it committed on an earlier one.
    fn report(mut inner: RefMut<'_, PhysInner>, violation: Option<&'static str>) {
        let Some(reason) = violation else {
            return;
        };
        inner.violations += 1;
        let reporter = inner.reporter.clone();
        drop(inner);
        if let Some((counter, recorder)) = reporter {
            counter.inc();
            recorder.dump_once(reason);
        }
    }
}

/// Walk the `len` bytes at `addr` one frame at a time, calling `f(frame,
/// offset in the frame, range of the buffer)`; stop at the first fault.
fn each_chunk(
    addr: PhysAddr,
    len: usize,
    mut f: impl FnMut(PhysFrame, usize, Range<usize>) -> Result<(), MemError>,
) -> Result<(), MemError> {
    let mut pos = addr;
    let mut done = 0usize;
    while done < len {
        let off = pos.frame_offset() as usize;
        let chunk = ((PAGE_SIZE as usize) - off).min(len - done);
        f(pos.frame(), off, done..done + chunk)?;
        done += chunk;
        pos = pos.add(chunk as u64);
    }
    Ok(())
}

/// A physical scatter/gather list: `(address, length)` segments in buffer
/// order. A list of one segment — a buffer within one page, which is every
/// pool buffer and most messages — holds it inline, with no allocation; only
/// a list of two or more segments allocates.
///
/// Dereferences to the segments.
#[derive(Clone, Default)]
pub struct SegList(Segs);

#[derive(Clone)]
enum Segs {
    One((PhysAddr, u64)),
    /// Empty (no allocation) or two segments and more.
    Many(Vec<(PhysAddr, u64)>),
}

impl Default for Segs {
    fn default() -> Self {
        Segs::Many(Vec::new())
    }
}

impl SegList {
    /// The empty list.
    pub fn new() -> Self {
        SegList::default()
    }

    /// Append one segment.
    pub fn push(&mut self, seg: (PhysAddr, u64)) {
        match &mut self.0 {
            Segs::Many(v) if v.is_empty() => self.0 = Segs::One(seg),
            Segs::One(first) => self.0 = Segs::Many(vec![*first, seg]),
            Segs::Many(v) => v.push(seg),
        }
    }
}

impl From<Vec<(PhysAddr, u64)>> for SegList {
    fn from(segs: Vec<(PhysAddr, u64)>) -> Self {
        match segs[..] {
            [seg] => SegList(Segs::One(seg)),
            _ => SegList(Segs::Many(segs)),
        }
    }
}

impl Deref for SegList {
    type Target = [(PhysAddr, u64)];

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            Segs::One(seg) => std::slice::from_ref(seg),
            Segs::Many(segs) => segs,
        }
    }
}

impl fmt::Debug for SegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A physical scatter/gather list whose frames the NIC holds a reference
/// on, from [`PhysMemory::nic_hold`]. NIC-side state stores buffers only in
/// this form, so a list cannot outlive its references nor its references
/// the list: dropping it (completion, port close, SRAM wipe, eviction) is
/// the release, and the last release reclaims frames their owner already
/// freed. A clone is a second, never-busy reference — what an in-flight DMA
/// keeps while the state that started it may be wiped underneath. Holding,
/// cloning and dropping a one-segment list allocates nothing ([`SegList`]).
///
/// Dereferences to the `(address, length)` segments.
pub struct NicSegs {
    /// `None` only for the empty list, which holds nothing.
    mem: Option<PhysMemory>,
    segs: SegList,
    busy: bool,
}

impl NicSegs {
    /// The owner has been told (completion event) that the buffer is its
    /// own again: host writes stop being violations. The reference stays
    /// until drop. Idempotent.
    pub fn end_busy(&mut self) {
        if let Some(mem) = self.mem.as_ref().filter(|_| self.busy) {
            let mut inner = mem.inner.borrow_mut();
            inner.for_each_seg_frame(&self.segs, |f| f.nic_busy = f.nic_busy.saturating_sub(1));
        }
        self.busy = false;
    }
}

impl Default for NicSegs {
    /// The empty list (zero-length payloads, NIC-generated packets).
    fn default() -> Self {
        NicSegs {
            mem: None,
            segs: SegList::new(),
            busy: false,
        }
    }
}

impl Clone for NicSegs {
    fn clone(&self) -> Self {
        match &self.mem {
            Some(mem) => mem.nic_hold(self.segs.clone(), false),
            None => NicSegs::default(),
        }
    }
}

impl Drop for NicSegs {
    fn drop(&mut self) {
        if let Some(mem) = &self.mem {
            let busy = u32::from(self.busy);
            mem.inner.borrow_mut().for_each_seg_frame(&self.segs, |f| {
                f.nic_busy = f.nic_busy.saturating_sub(busy);
                f.nic_refs = f.nic_refs.saturating_sub(1);
            });
        }
    }
}

impl Deref for NicSegs {
    type Target = [(PhysAddr, u64)];

    fn deref(&self) -> &Self::Target {
        &self.segs
    }
}

impl fmt::Debug for NicSegs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NicSegs")
            .field("segs", &self.segs)
            .field("busy", &self.busy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_and_rw_single_frame() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        let a = f.base().add(100);
        m.write(a, b"hello").unwrap();
        let mut out = [0u8; 5];
        m.read(a, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn rw_crossing_frames_requires_both_allocated() {
        let m = PhysMemory::new(1 << 20);
        let f1 = m.alloc_frame().unwrap();
        let f2 = m.alloc_frame().unwrap();
        // Frames are consecutive in this allocator, so a write near the end
        // of f1 spills into f2.
        assert_eq!(f2.0, f1.0 + 1);
        let a = f1.base().add(PAGE_SIZE - 2);
        m.write(a, b"abcd").unwrap();
        let mut out = [0u8; 4];
        m.read(a, &mut out).unwrap();
        assert_eq!(&out, b"abcd");
    }

    #[test]
    fn unallocated_frame_faults() {
        let m = PhysMemory::new(1 << 20);
        let mut buf = [0u8; 1];
        let err = m.read(PhysAddr(PAGE_SIZE * 999), &mut buf).unwrap_err();
        assert!(matches!(err, MemError::BadFrame(_)));
    }

    #[test]
    fn capacity_enforced() {
        let m = PhysMemory::new(PAGE_SIZE * 2);
        m.alloc_frame().unwrap();
        m.alloc_frame().unwrap();
        assert!(matches!(m.alloc_frame(), Err(MemError::OutOfMemory)));
        assert_eq!(m.allocated_frames(), 2);
    }

    #[test]
    fn free_then_use_is_detected() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        m.free_frame(f).unwrap();
        assert!(matches!(m.free_frame(f), Err(MemError::BadFrame(_))));
        let mut buf = [0u8; 1];
        assert!(m.read(f.base(), &mut buf).is_err());
        // Freed frames are not recycled, so a fresh alloc gets a new number.
        let g = m.alloc_frame().unwrap();
        assert_ne!(g, f);
    }

    fn materialised(m: &PhysMemory) -> usize {
        let inner = m.inner.borrow();
        inner.frames.values().filter(|f| !f.data.is_empty()).count()
    }

    #[test]
    fn a_frame_record_is_no_larger_than_four_words() {
        assert!(std::mem::size_of::<Frame>() <= 4 * std::mem::size_of::<usize>());
    }

    #[test]
    fn frame_churn_costs_the_table_under_a_byte_per_frame_handed_out() {
        const PAIRS: u64 = 100_000;
        let m = PhysMemory::new(1 << 20);
        let kept = m.alloc_frame().unwrap();
        for _ in 0..PAIRS {
            let f = m.alloc_frame().unwrap();
            m.free_frame(f).unwrap();
        }
        assert_eq!(m.allocated_frames(), 1);
        let bytes = m.table_bytes();
        assert!(bytes < PAIRS as usize, "{bytes} B after {PAIRS} pairs");
        // A frame number never handed out reads as absent, above and below.
        let mut out = [0u8; 1];
        for n in [0, PAIRS + 2, u64::MAX / PAGE_SIZE] {
            let err = m.read(PhysFrame(n).base(), &mut out).unwrap_err();
            assert!(matches!(err, MemError::BadFrame(_)));
        }
        assert_eq!(m.table_bytes(), bytes);
        m.read(kept.base(), &mut out).unwrap();
    }

    #[test]
    fn unwritten_frame_reads_zeros_and_holds_no_box() {
        let m = PhysMemory::new(1 << 20);
        let frames = m.alloc_frames(3).unwrap();
        assert_eq!(m.allocated_frames(), 3);
        let mut out = vec![0xFFu8; 2 * PAGE_SIZE as usize];
        m.read(frames[0].base().add(7), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(materialised(&m), 0, "a read must not materialise");
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn partial_write_materialises_exactly_one_frame() {
        let m = PhysMemory::new(1 << 20);
        let frames = m.alloc_frames(3).unwrap();
        m.write(frames[1].base().add(10), b"x").unwrap();
        assert_eq!(materialised(&m), 1);
        assert!(m.resident_bytes() <= 16, "a 1-byte write holds its prefix");
        let mut out = [0xFFu8; 12];
        m.read(frames[1].base(), &mut out).unwrap();
        assert_eq!(
            &out, b"\0\0\0\0\0\0\0\0\0\0x\0",
            "rest of the frame is zero"
        );
    }

    #[test]
    fn a_write_at_the_last_offset_reads_back_after_zeros() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        m.write(f.base().add(PAGE_SIZE - 1), b"z").unwrap();
        let mut out = vec![0xFFu8; PAGE_SIZE as usize];
        m.read(f.base(), &mut out).unwrap();
        assert!(out[..PAGE_SIZE as usize - 1].iter().all(|&b| b == 0));
        assert_eq!(out[PAGE_SIZE as usize - 1], b'z');
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn a_full_page_write_holds_exactly_one_page() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        m.dma_write(f.base(), &[7u8; PAGE_SIZE as usize]).unwrap();
        assert_eq!(m.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn appends_grow_the_prefix_but_never_past_a_page() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        for i in 0..PAGE_SIZE / 32 {
            m.write(f.base().add(i * 32), &[i as u8 + 1; 32]).unwrap();
            let held = m.resident_bytes();
            assert!(held <= PAGE_SIZE, "{held} B after {} appends", i + 1);
            assert!(held >= (i + 1) * 32, "the prefix holds every append");
        }
        let mut out = vec![0u8; PAGE_SIZE as usize];
        m.read(f.base(), &mut out).unwrap();
        assert!(out
            .chunks(32)
            .zip(1u8..)
            .all(|(c, i)| c.iter().all(|&b| b == i)));
    }

    #[test]
    fn alloc_frames_is_all_or_nothing() {
        let m = PhysMemory::new(PAGE_SIZE * 2);
        assert!(matches!(m.alloc_frames(3), Err(MemError::OutOfMemory)));
        assert_eq!(m.allocated_frames(), 0);
        assert_eq!(m.alloc_frames(2).unwrap().len(), 2);
    }

    #[test]
    fn referenced_frame_unmaps_at_free_and_reclaims_at_last_release() {
        let m = PhysMemory::new(PAGE_SIZE * 2);
        let f = m.alloc_frame().unwrap();
        m.write(f.base(), b"in flight").unwrap();
        let held = m.nic_hold(vec![(f.base(), 9)], true);
        let dma_copy = held.clone();
        m.free_frame(f).unwrap();
        // Unmapped at once: the host faults, a second free is an error...
        let mut out = [0u8; 9];
        assert!(matches!(
            m.read(f.base(), &mut out),
            Err(MemError::BadFrame(_))
        ));
        assert!(matches!(m.free_frame(f), Err(MemError::BadFrame(_))));
        // ...but the NIC still reads what it was given, and the frame still
        // counts against the capacity.
        m.dma_read(f.base(), &mut out).unwrap();
        assert_eq!(&out, b"in flight");
        assert_eq!(m.allocated_frames(), 1);
        m.alloc_frame().unwrap();
        assert!(matches!(m.alloc_frame(), Err(MemError::OutOfMemory)));
        drop(held);
        assert_eq!(m.allocated_frames(), 2, "a clone is a reference too");
        drop(dma_copy);
        assert_eq!(m.allocated_frames(), 1, "reclaimed at the last release");
        assert!(matches!(
            m.dma_read(f.base(), &mut out),
            Err(MemError::BadFrame(_))
        ));
        assert_eq!(m.lifetime_violations(), 0);
    }

    #[test]
    fn host_write_to_a_busy_frame_is_a_violation_until_the_owner_is_told() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        let mut held = m.nic_hold(vec![(f.base(), 64)], true);
        let mut out = [0u8; 1];
        m.read(f.base(), &mut out).unwrap();
        assert_eq!(m.lifetime_violations(), 0, "host reads are always fine");
        m.write(f.base(), b"scribble").unwrap();
        assert_eq!(m.lifetime_violations(), 1);
        held.end_busy();
        held.end_busy(); // idempotent
        m.write(f.base(), b"mine again").unwrap();
        assert_eq!(m.lifetime_violations(), 1);
        // Referenced-not-busy (pool buffers, bound windows) may be written.
        let window = m.nic_hold(vec![(f.base(), 64)], false);
        m.write(f.base(), b"by design").unwrap();
        assert_eq!(m.lifetime_violations(), 1);
        drop((held, window));
        assert_eq!(m.allocated_frames(), 1, "still mapped, so not reclaimed");
    }

    #[test]
    fn a_fault_on_a_later_frame_still_counts_the_violation_before_it() {
        // The write covers the last 4 bytes of a busy frame, then the
        // first 4 of the unallocated frame after it.
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        let _held = m.nic_hold(vec![(f.base(), PAGE_SIZE)], true);
        let at = f.base().add(PAGE_SIZE - 4);
        assert!(matches!(
            m.write(at, b"overflow"),
            Err(MemError::BadFrame(_))
        ));
        assert_eq!(m.lifetime_violations(), 1, "the busy frame was written");
        let mut out = [0u8; 4];
        m.read(at, &mut out).unwrap();
        assert_eq!(&out, b"over", "the chunk before the fault landed");
    }

    #[test]
    fn a_dma_read_faulting_on_a_later_frame_still_counts_the_violation_before_it() {
        // The read covers the end of an unreferenced frame, then the
        // unallocated frame after it: the read path reports like the write.
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        let mut out = [0u8; 8];
        assert!(matches!(
            m.dma_read(f.base().add(PAGE_SIZE - 4), &mut out),
            Err(MemError::BadFrame(_))
        ));
        assert_eq!(m.lifetime_violations(), 1, "an unreferenced read");
    }

    #[test]
    fn dma_to_an_unreferenced_frame_is_a_violation() {
        let m = PhysMemory::new(1 << 20);
        let f = m.alloc_frame().unwrap();
        m.dma_write(f.base(), b"stray").unwrap();
        assert_eq!(m.lifetime_violations(), 1);
        let mut out = [0u8; 5];
        m.dma_read(f.base(), &mut out).unwrap();
        assert_eq!(m.lifetime_violations(), 2);
        assert_eq!(&out, b"stray", "counted, not refused");
        let _held = m.nic_hold(vec![(f.base(), 5)], false);
        m.dma_write(f.base(), b"legit").unwrap();
        assert_eq!(m.lifetime_violations(), 2);
    }

    #[test]
    fn a_watched_memory_publishes_violations_and_dumps_once() {
        let sim = Sim::new(1);
        let m = PhysMemory::new(1 << 20);
        m.watch(&sim);
        let f = m.alloc_frame().unwrap();
        assert!(!sim.msg_trace().has_dumped());
        m.dma_write(f.base(), b"a").unwrap();
        m.dma_write(f.base(), b"b").unwrap();
        assert_eq!(sim.get_count("mem.dma_lifetime_violations"), 2);
        assert!(sim.msg_trace().has_dumped());
    }

    /// The record a frame should have; `None` once reclaimed (or never
    /// allocated).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct ModelFrame {
        mapped: bool,
        refs: u32,
        busy: u32,
    }

    /// Physical memory as a flat byte array plus per-frame lifetime state,
    /// written straight from the module docs.
    struct Model {
        bytes: Vec<u8>,
        frames: Vec<Option<ModelFrame>>,
        violations: u64,
    }

    impl Model {
        /// One host or NIC access of `buf.len()` bytes at `off`: chunk by
        /// chunk, so a fault on a later frame leaves earlier chunks written
        /// and still counts their violation.
        fn access(&mut self, who: Accessor, write: bool, off: usize, buf: &mut [u8]) -> bool {
            let page = PAGE_SIZE as usize;
            let mut violation = false;
            let mut done = 0;
            while done < buf.len() {
                let at = off + done;
                let chunk = (page - at % page).min(buf.len() - done);
                let f = match (who, self.frames[at / page]) {
                    (_, None) | (Accessor::Host, Some(ModelFrame { mapped: false, .. })) => break,
                    (_, Some(f)) => f,
                };
                match who {
                    Accessor::Host => violation |= write && f.busy > 0,
                    Accessor::Nic => violation |= f.refs == 0,
                }
                let mem = &mut self.bytes[at..at + chunk];
                let out = &mut buf[done..done + chunk];
                if write {
                    mem.copy_from_slice(out);
                } else {
                    out.copy_from_slice(mem);
                }
                done += chunk;
            }
            self.violations += u64::from(violation);
            done == buf.len()
        }

        /// Apply `f` once per segment to every live frame it touches, then
        /// reclaim the ones nothing holds.
        fn each_seg_frame(&mut self, segs: &[(usize, usize)], f: impl Fn(&mut ModelFrame)) {
            for &(off, len) in segs {
                self.each_frame(off, len, &f);
            }
        }

        /// Apply `f` to every live frame of `[off, off + len)`, then
        /// reclaim the ones nothing holds.
        fn each_frame(&mut self, off: usize, len: usize, f: impl Fn(&mut ModelFrame)) {
            let page = PAGE_SIZE as usize;
            for slot in &mut self.frames[off / page..=(off + len - 1) / page] {
                if let Some(frame) = slot {
                    f(frame);
                    if !frame.mapped && frame.refs == 0 {
                        *slot = None;
                    }
                }
            }
        }
    }

    /// A scatter/gather list as `(offset, length)` pairs of the model.
    type ModelSegs = Vec<(usize, usize)>;

    /// `[off, off + len)` as a list of `shape % 3` kinds: no segment, one,
    /// or one per page it touches (as `sg_list` cuts) with the first of
    /// them split once more, so any range of two bytes or more has two.
    fn segments(off: usize, len: usize, shape: u8) -> ModelSegs {
        let page = PAGE_SIZE as usize;
        match shape % 3 {
            0 => Vec::new(),
            1 => vec![(off, len)],
            _ => {
                let mut segs = Vec::new();
                let mut at = off;
                while at < off + len {
                    let chunk = (page - at % page).min(off + len - at);
                    segs.push((at, chunk));
                    at += chunk;
                }
                let (first, n) = segs[0];
                if n > 1 {
                    segs.splice(0..1, [(first, n / 2), (first + n / 2, n - n / 2)]);
                }
                segs
            }
        }
    }

    proptest! {
        #[test]
        fn frames_match_a_flat_byte_model(
            ops in prop::collection::vec(
                (0u8..9, 0u64..4 * PAGE_SIZE, 0usize..9_000, any::<u8>()),
                1..80,
            ),
        ) {
            // Three frames and, past them, one page that was never allocated.
            const FRAMES: usize = 3;
            let page = PAGE_SIZE as usize;
            let m = PhysMemory::new(1 << 20);
            let base = m.alloc_frames(FRAMES as u64).unwrap()[0].base();
            let fresh = ModelFrame { mapped: true, refs: 0, busy: 0 };
            let mut model = Model {
                bytes: vec![0; (FRAMES + 1) * page],
                frames: [vec![Some(fresh); FRAMES], vec![None]].concat(),
                violations: 0,
            };
            let first = base.frame().0;
            let mut holds: Vec<(NicSegs, ModelSegs, bool)> = Vec::new();
            for (step, (kind, off, raw, seed)) in ops.into_iter().enumerate() {
                // Page-aligned starts (how every real buffer begins) and
                // short, message-sized and multi-page lengths, all common.
                let off = if seed & 0x10 != 0 { off & !(PAGE_SIZE - 1) } else { off } as usize;
                let len = 1 + raw % [16, 700, 9_000][usize::from(seed) % 3];
                let len = len.min(model.bytes.len() - off);
                let addr = base.add(off as u64);
                let busy = seed & 0x20 != 0;
                match kind {
                    0 | 2 => {
                        let mut data: Vec<u8> =
                            (0..len).map(|i| ((step + i) % 255 + 1) as u8).collect();
                        let (ok, who) = match kind {
                            0 => (m.write(addr, &data).is_ok(), Accessor::Host),
                            _ => (m.dma_write(addr, &data).is_ok(), Accessor::Nic),
                        };
                        prop_assert_eq!(ok, model.access(who, true, off, &mut data), "write {}", step);
                    }
                    1 | 3 => {
                        let (mut got, mut want) = (vec![0xEE; len], vec![0xEE; len]);
                        let (ok, who) = match kind {
                            1 => (m.read(addr, &mut got).is_ok(), Accessor::Host),
                            _ => (m.dma_read(addr, &mut got).is_ok(), Accessor::Nic),
                        };
                        prop_assert_eq!(ok, model.access(who, false, off, &mut want), "read {}", step);
                        if ok {
                            prop_assert!(got == want, "read {} of {} B at {}", step, len, off);
                        }
                    }
                    4 => {
                        let segs = segments(off, len, seed >> 6);
                        let mut list = SegList::new();
                        for &(o, n) in &segs {
                            list.push((base.add(o as u64), n as u64));
                        }
                        prop_assert_eq!(list.len(), segs.len());
                        holds.push((m.nic_hold(list, busy), segs.clone(), busy));
                        model.each_seg_frame(&segs, |f| {
                            f.refs += 1;
                            f.busy += u32::from(busy);
                        });
                    }
                    5 => {
                        let n = off / page;
                        let ok = m.free_frame(PhysFrame(addr.frame().0)).is_ok();
                        prop_assert_eq!(ok, model.frames[n].is_some_and(|f| f.mapped));
                        if ok {
                            model.each_frame(off, 1, |f| f.mapped = false);
                        }
                    }
                    _ if holds.is_empty() => {}
                    6 => {
                        let (held, segs, busy) = holds.swap_remove(raw % holds.len());
                        drop(held);
                        model.each_seg_frame(&segs, |f| {
                            f.busy -= u32::from(busy);
                            f.refs -= 1;
                        });
                    }
                    7 => {
                        let i = raw % holds.len();
                        let (held, segs, busy) = &mut holds[i];
                        held.end_busy();
                        if std::mem::take(busy) {
                            model.each_seg_frame(segs, |f| f.busy -= 1);
                        }
                    }
                    _ => {
                        // A clone is one more reference, never busy.
                        let (held, segs, _) = &holds[raw % holds.len()];
                        let copy = (held.clone(), segs.clone(), false);
                        prop_assert_eq!(&copy.0[..], &held[..]);
                        model.each_seg_frame(&copy.1, |f| f.refs += 1);
                        holds.push(copy);
                    }
                }
                // Every frame's record: mapped, references and busy ones.
                for (n, want) in model.frames.iter().enumerate() {
                    let inner = m.inner.borrow();
                    let got = inner.frames.get(&(first + n as u64)).map(|f| ModelFrame {
                        mapped: f.mapped,
                        refs: f.nic_refs,
                        busy: f.nic_busy,
                    });
                    prop_assert_eq!(got, *want, "frame {} after step {}", n, step);
                }
                prop_assert_eq!(m.lifetime_violations(), model.violations, "step {}", step);
                let live = model.frames.iter().flatten().count() as u64;
                prop_assert_eq!(m.allocated_frames(), live);
                prop_assert!(m.resident_bytes() <= live * PAGE_SIZE);
            }
            // Every byte of every frame the NIC can still reach.
            for (n, f) in model.frames.iter().enumerate() {
                let mut got = vec![0xEE; page];
                let ok = m.dma_read(base.add((n * page) as u64), &mut got).is_ok();
                prop_assert_eq!(ok, f.is_some());
                if ok {
                    prop_assert!(got[..] == model.bytes[n * page..(n + 1) * page], "frame {}", n);
                }
            }
        }
    }
}

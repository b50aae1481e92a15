//! Counting global allocator for the engine self-profiler.
//!
//! Installs a [`GlobalAlloc`] wrapper around [`System`] that counts
//! allocations and bytes while counting is armed — the scheduler arms it
//! only for profiled runs and reads the deltas around each dispatch to
//! attribute hot-path allocations per event kind. Disarmed cost is one
//! relaxed atomic load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Arm/disarm allocation counting.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Cumulative `(allocations, bytes)` counted while armed. Monotonic; read
/// a delta around a region to attribute its allocations.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter bumps have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) && new_size > layout.size() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes unit tests that arm the (process-global) counting state.
/// Test threads really share that state, so this is std's lock; a failed
/// test's panic does not stop the next one.
#[cfg(test)]
static TEST_ARM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Take [`TEST_ARM_LOCK`].
#[cfg(test)]
pub(crate) fn arm_for_test() -> std::sync::MutexGuard<'static, ()> {
    TEST_ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_move_only_while_armed() {
        let _arm = arm_for_test();
        set_counting(false);
        let (a0, b0) = counts();
        let v = vec![0u8; 4096];
        drop(v);
        let (a1, b1) = counts();
        assert_eq!((a0, b0), (a1, b1), "disarmed allocations must not count");
        set_counting(true);
        let v = vec![0u8; 4096];
        set_counting(false);
        let (a2, b2) = counts();
        assert!(a2 > a1, "armed allocation not counted");
        assert!(b2 >= b1 + 4096, "armed bytes not counted");
        drop(v);
    }
}

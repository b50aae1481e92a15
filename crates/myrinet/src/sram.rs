//! NIC-resident SRAM accounting.
//!
//! LANai boards carried only a small local memory (the paper leans on this:
//! the NIC *cannot* hold a big address-translation table, which is why the
//! semi-user-level design keeps the pin-down table in host memory). The MCP
//! stages packets through SRAM buffers; this pool enforces the capacity so
//! protocols experience back-pressure when staging outruns draining.

use std::cell::RefCell;
use std::rc::Rc;

use suca_sim::Gauge;

struct PoolInner {
    capacity: u64,
    used: u64,
    high_water: u64,
    gauge: Option<Gauge>,
}

/// Byte-granular SRAM allocator. Clones share the pool.
#[derive(Clone)]
pub struct SramPool {
    inner: Rc<RefCell<PoolInner>>,
}

/// RAII lease on SRAM bytes; returned to the pool on drop.
pub struct SramLease {
    pool: SramPool,
    len: u64,
}

impl SramPool {
    /// Pool with `capacity` bytes (M2M-PCI64A boards shipped with 2–8 MB;
    /// the MCP reserves most of it for staging buffers).
    pub fn new(capacity: u64) -> Self {
        SramPool {
            inner: Rc::new(RefCell::new(PoolInner {
                capacity,
                used: 0,
                high_water: 0,
                gauge: None,
            })),
        }
    }

    /// Mirror the pool's occupancy (and hence its high-water mark) into a
    /// registry gauge. The gauge cell may be shared cluster-wide, so the
    /// pool publishes add/sub deltas rather than absolute levels.
    pub fn attach_gauge(&self, gauge: Gauge) {
        let mut st = self.inner.borrow_mut();
        gauge.add(st.used);
        st.gauge = Some(gauge);
    }

    /// Try to lease `len` bytes; `None` if the pool cannot satisfy it.
    pub fn try_alloc(&self, len: u64) -> Option<SramLease> {
        let mut st = self.inner.borrow_mut();
        if st.used + len > st.capacity {
            return None;
        }
        st.used += len;
        st.high_water = st.high_water.max(st.used);
        if let Some(g) = &st.gauge {
            g.add(len);
        }
        Some(SramLease {
            pool: self.clone(),
            len,
        })
    }

    /// Bytes currently leased.
    pub fn used(&self) -> u64 {
        self.inner.borrow().used
    }

    /// Largest simultaneous usage observed.
    pub fn high_water(&self) -> u64 {
        self.inner.borrow().high_water
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.inner.borrow().capacity
    }
}

impl SramLease {
    /// Leased size.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-byte lease.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for SramLease {
    fn drop(&mut self) {
        let mut st = self.pool.inner.borrow_mut();
        st.used -= self.len;
        if let Some(g) = &st.gauge {
            g.sub(self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_release() {
        let pool = SramPool::new(100);
        let a = pool.try_alloc(60).unwrap();
        assert_eq!(pool.used(), 60);
        assert!(pool.try_alloc(50).is_none(), "over capacity");
        let b = pool.try_alloc(40).unwrap();
        assert_eq!(pool.used(), 100);
        drop(a);
        assert_eq!(pool.used(), 40);
        drop(b);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.high_water(), 100);
    }

    #[test]
    fn zero_byte_lease_is_fine() {
        let pool = SramPool::new(0);
        let l = pool.try_alloc(0).unwrap();
        assert!(l.is_empty());
    }
}

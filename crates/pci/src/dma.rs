//! DMA engine model.
//!
//! A Myrinet M2M-PCI64A carries several independent DMA engines (host↔SRAM,
//! SRAM→wire, wire→SRAM). Each [`DmaEngine`] serializes its own transfers —
//! a request issued while the engine is busy queues behind the current one —
//! which is what produces the store-and-forward pipelining visible in the
//! bandwidth curve (Fig. 9). The actual byte movement is performed by the
//! completion closure, so data and timing stay consistent.

use std::cell::RefCell;
use std::rc::Rc;

use suca_sim::{Counter, Gauge, Sim, SimDuration, SimTime};

use crate::bus::PciModel;

struct EngineState {
    busy_until: SimTime,
    completed: u64,
    bytes_moved: u64,
}

/// One serialized DMA engine.
#[derive(Clone)]
pub struct DmaEngine {
    sim: Sim,
    name: &'static str,
    setup: SimDuration,
    bytes_per_sec: u64,
    state: Rc<RefCell<EngineState>>,
    // Typed metric handles (registered once; hot-path updates are plain adds).
    transfers: Counter,
    busy_ns: Counter,
    queued_bytes: Gauge,
}

impl DmaEngine {
    /// Create an engine with explicit rate parameters.
    pub fn new(sim: &Sim, name: &'static str, setup: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0);
        let metrics = sim.metrics();
        DmaEngine {
            sim: sim.clone(),
            name,
            setup,
            bytes_per_sec,
            state: Rc::new(RefCell::new(EngineState {
                busy_until: SimTime::ZERO,
                completed: 0,
                bytes_moved: 0,
            })),
            transfers: metrics.counter(&format!("dma.{name}.transfers")),
            busy_ns: metrics.counter(&format!("dma.{name}.busy_ns")),
            queued_bytes: metrics.gauge(&format!("dma.{name}.queued_bytes")),
        }
    }

    /// Create an engine from a [`PciModel`] (host↔device transfers).
    pub fn from_pci(sim: &Sim, name: &'static str, pci: &PciModel) -> Self {
        Self::new(sim, name, pci.dma_setup, pci.dma_bytes_per_sec)
    }

    /// Submit a transfer of `len` bytes. `on_done` runs (as a simulation
    /// event) when the transfer completes; it should perform the byte copy
    /// and any follow-up notification. Returns the completion time.
    pub fn submit(&self, len: u64, on_done: impl FnOnce(&Sim) + 'static) -> SimTime {
        let now = self.sim.now();
        let duration = self.setup
            + if len == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::for_bytes(len, self.bytes_per_sec)
            };
        let done = {
            let mut st = self.state.borrow_mut();
            let start = st.busy_until.max(now);
            let done = start + duration;
            st.busy_until = done;
            st.completed += 1;
            st.bytes_moved += len;
            done
        };
        self.transfers.inc();
        self.busy_ns.add(duration.as_ns());
        self.queued_bytes.add(len);
        let queued = self.queued_bytes.clone();
        self.sim.schedule_at(done, move |s| {
            queued.sub(len);
            on_done(s);
        });
        done
    }

    /// Instant at which the engine becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.state.borrow().busy_until
    }

    /// (transfers completed or queued, bytes moved).
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.borrow();
        (st.completed, st.bytes_moved)
    }

    /// Engine name (for counters and traces).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use suca_sim::RunOutcome;

    #[test]
    fn transfer_takes_setup_plus_bytes() {
        let sim = Sim::new(1);
        let eng = DmaEngine::new(&sim, "t", SimDuration::from_us(1), 100_000_000);
        let done = Rc::new(Cell::new(0));
        let d = done.clone();
        eng.submit(1000, move |s| {
            d.set(s.now().as_ns());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        // 1 us setup + 1000 B / 100 MB/s = 10 us transfer.
        assert_eq!(done.get(), 11_000);
    }

    #[test]
    fn engine_serializes_back_to_back_transfers() {
        let sim = Sim::new(1);
        let eng = DmaEngine::new(&sim, "t", SimDuration::ZERO, 1_000_000_000);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = times.clone();
            eng.submit(1000, move |s| t.borrow_mut().push(s.now().as_ns()));
        }
        sim.run();
        assert_eq!(*times.borrow(), vec![1_000, 2_000, 3_000]);
        assert_eq!(eng.stats(), (3, 3000));
    }

    #[test]
    fn idle_engine_starts_at_now() {
        let sim = Sim::new(1);
        let eng = DmaEngine::new(&sim, "t", SimDuration::ZERO, 1_000_000_000);
        let eng2 = eng.clone();
        let fin = Rc::new(Cell::new(0));
        let f2 = fin.clone();
        sim.schedule_in(SimDuration::from_us(100), move |_| {
            eng2.submit(1000, move |s| {
                f2.set(s.now().as_ns());
            });
        });
        sim.run();
        // Starts at 100 us, not at the engine's stale busy_until of 0.
        assert_eq!(fin.get(), 101_000);
    }

    #[test]
    fn zero_len_costs_only_setup() {
        let sim = Sim::new(1);
        let eng = DmaEngine::new(&sim, "t", SimDuration::from_us(2), 1_000);
        let done = eng.submit(0, |_| {});
        assert_eq!(done.as_us(), 2.0);
        sim.run();
    }
}

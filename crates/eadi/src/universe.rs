//! Rank registry for an EADI job.
//!
//! MPI/PVM address peers by rank/tid; BCL addresses by `(node, port)`. Each
//! process registers its port address under its rank at startup; peers block
//! until the whole universe is present (the usual `MPI_Init` rendezvous).

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::ProcAddr;
use suca_sim::{ActorCtx, Signal, Sim};

struct UniverseState {
    slots: Vec<Option<ProcAddr>>,
    registered: u32,
}

/// The job-wide rank → address map.
#[derive(Clone)]
pub struct Universe {
    state: Rc<RefCell<UniverseState>>,
    signal: Signal,
}

impl Universe {
    /// A universe of `n` ranks.
    pub fn new(sim: &Sim, n: u32) -> Universe {
        Universe {
            state: Rc::new(RefCell::new(UniverseState {
                slots: vec![None; n as usize],
                registered: 0,
            })),
            signal: Signal::new(sim),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.state.borrow().slots.len() as u32
    }

    /// Register this process's port under `rank`, then block until every
    /// rank has registered.
    pub fn register_and_wait(&self, ctx: &mut ActorCtx, rank: u32, addr: ProcAddr) {
        {
            let mut st = self.state.borrow_mut();
            assert!(
                st.slots[rank as usize].is_none(),
                "rank {rank} registered twice"
            );
            st.slots[rank as usize] = Some(addr);
            st.registered += 1;
        }
        self.signal.notify();
        let state = self.state.clone();
        self.signal.wait_until(ctx, || {
            let st = state.borrow();
            st.registered as usize == st.slots.len()
        });
    }

    /// Address of `rank`. Panics if called before the universe is complete.
    pub fn addr_of(&self, rank: u32) -> ProcAddr {
        self.state.borrow().slots[rank as usize].expect("universe incomplete")
    }

    /// Reverse lookup: rank of a port address.
    pub fn rank_of(&self, addr: ProcAddr) -> Option<u32> {
        self.state
            .borrow_mut()
            .slots
            .iter()
            .position(|s| *s == Some(addr))
            .map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_bcl::PortId;
    use suca_os::NodeId;
    use suca_sim::RunOutcome;

    #[test]
    fn all_ranks_rendezvous() {
        let sim = Sim::new(1);
        let uni = Universe::new(&sim, 3);
        for r in 0..3u32 {
            let uni = uni.clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                let addr = ProcAddr {
                    node: NodeId(r),
                    port: PortId(0),
                };
                uni.register_and_wait(ctx, r, addr);
                // After the barrier every address resolves.
                for p in 0..3 {
                    assert_eq!(uni.addr_of(p).node, NodeId(p));
                }
                assert_eq!(uni.rank_of(addr), Some(r));
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
    }
}

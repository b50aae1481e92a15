//! SMP CPU accounting.
//!
//! DAWNING-3000 nodes are 4-way SMPs. Most experiments run one communicating
//! process per node, but the intra-node path and the oversubscription
//! ablation need CPU slots to contend for: a [`CpuSet`] is a counting
//! resource actors hold while "computing".

use suca_sim::{ActorCtx, Semaphore, Sim, SimDuration};

/// The CPUs of one SMP node.
#[derive(Clone)]
pub struct CpuSet {
    cpus: Semaphore,
}

impl CpuSet {
    /// A node with `n` CPUs.
    pub fn new(sim: &Sim, n: u32) -> Self {
        assert!(n > 0);
        CpuSet {
            cpus: Semaphore::new(sim, n as u64),
        }
    }

    /// CPUs currently idle.
    pub fn idle(&self) -> u64 {
        self.cpus.available()
    }

    /// Run `f` while holding a CPU; blocks until one is free. Models a
    /// runnable process being scheduled.
    pub fn run<R>(&self, ctx: &mut ActorCtx, f: impl FnOnce(&mut ActorCtx) -> R) -> R {
        self.cpus.acquire(ctx);
        let r = f(ctx);
        self.cpus.release();
        r
    }

    /// Convenience: occupy a CPU for `d` of pure compute.
    pub fn compute(&self, ctx: &mut ActorCtx, d: SimDuration) {
        self.run(ctx, |ctx| ctx.sleep(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_sim::{RunOutcome, Sim};

    #[test]
    fn four_way_smp_runs_four_in_parallel_fifth_waits() {
        let sim = Sim::new(1);
        let cpus = CpuSet::new(&sim, 4);
        for i in 0..5 {
            let c = cpus.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                c.compute(ctx, SimDuration::from_us(100));
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        // 5 jobs of 100 us on 4 CPUs: makespan 200 us.
        assert_eq!(sim.now().as_us(), 200.0);
        assert_eq!(cpus.idle(), 4);
    }

    #[test]
    fn uncontended_cpu_adds_no_latency() {
        let sim = Sim::new(1);
        let cpus = CpuSet::new(&sim, 4);
        let c = cpus.clone();
        sim.spawn("solo", move |ctx| {
            c.compute(ctx, SimDuration::from_us(10));
            assert_eq!(ctx.now().as_us(), 10.0);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }
}

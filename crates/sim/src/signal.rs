//! Wakeup primitives for actors.
//!
//! [`Signal`] has condition-variable semantics: `notify` wakes every actor
//! currently waiting; waiters re-check their predicate in a loop. Because
//! the engine is single-threaded-deterministic, there is no lost-wakeup
//! window between checking a predicate and calling [`Signal::wait`] — nothing
//! else can run in between.
//!
//! [`Semaphore`] builds counting-resource semantics (DMA engines, CPU slots)
//! on top of `Signal`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::actor::{ActorCtx, ActorId};
use crate::engine::Sim;

struct SignalState {
    waiters: Vec<(ActorId, u64)>,
}

/// A broadcast wakeup channel. Clones share state.
#[derive(Clone)]
pub struct Signal {
    sim: Sim,
    state: Rc<RefCell<SignalState>>,
}

impl Signal {
    /// Create a signal bound to a simulation.
    pub fn new(sim: &Sim) -> Self {
        Signal {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(SignalState {
                waiters: Vec::new(),
            })),
        }
    }

    /// Block the calling actor until the next `notify` after this call.
    ///
    /// Callers typically loop: `while !cond() { sig.wait(ctx); }`.
    pub fn wait(&self, ctx: &mut ActorCtx) {
        let gen = self.sim.next_park_gen(ctx.id());
        self.state.borrow_mut().waiters.push((ctx.id(), gen));
        ctx.park();
    }

    /// Wake every actor currently waiting. May be called from event handlers
    /// or other actors; wakeups are delivered as events at the current
    /// instant, in registration order: seq numbers are assigned here and
    /// dispatch follows the `(time, seq)` order.
    pub fn notify(&self) {
        let waiters = std::mem::take(&mut self.state.borrow_mut().waiters);
        for (id, gen) in waiters {
            self.sim.schedule_wake_now(id, gen);
        }
    }

    /// Convenience: wait until `pred()` becomes true, re-checking after each
    /// notification. `pred` is evaluated before the first wait, so an
    /// already-true condition never blocks.
    pub fn wait_until(&self, ctx: &mut ActorCtx, mut pred: impl FnMut() -> bool) {
        while !pred() {
            self.wait(ctx);
        }
    }

    /// Wait for a notification or until `timeout` elapses, whichever comes
    /// first. Returns `true` if (possibly) notified, `false` on a pure
    /// timeout — like a condition variable, callers re-check their
    /// predicate either way.
    pub fn wait_timeout(&self, ctx: &mut ActorCtx, timeout: crate::SimDuration) -> bool {
        let deadline = ctx.now() + timeout;
        let gen = self.sim.next_park_gen(ctx.id());
        self.state.borrow_mut().waiters.push((ctx.id(), gen));
        // The same generation wakes from either source; stale ones no-op.
        self.sim.schedule_wake_in(timeout, ctx.id(), gen);
        ctx.park();
        ctx.now() < deadline
    }
}

struct SemState {
    permits: u64,
}

/// A counting semaphore over [`Signal`]; models exclusive/limited hardware
/// resources that actors contend for.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
    signal: Signal,
}

impl Semaphore {
    /// Create with an initial number of permits.
    pub fn new(sim: &Sim, permits: u64) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState { permits })),
            signal: Signal::new(sim),
        }
    }

    /// Acquire one permit, blocking the actor until one is available.
    pub fn acquire(&self, ctx: &mut ActorCtx) {
        loop {
            {
                let mut st = self.state.borrow_mut();
                if st.permits > 0 {
                    st.permits -= 1;
                    return;
                }
            }
            self.signal.wait(ctx);
        }
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.borrow_mut();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Return one permit and wake waiters.
    pub fn release(&self) {
        self.state.borrow_mut().permits += 1;
        self.signal.notify();
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.state.borrow().permits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunOutcome;
    use crate::time::SimDuration;

    #[test]
    fn signal_wakes_waiter() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        let done = Rc::new(RefCell::new(false));

        let s2 = sig.clone();
        let d2 = done.clone();
        sim.spawn("waiter", move |ctx| {
            s2.wait(ctx);
            *d2.borrow_mut() = true;
        });
        let s3 = sig.clone();
        sim.schedule_in(SimDuration::from_us(5), move |_| s3.notify());

        assert_eq!(sim.run(), RunOutcome::Completed);
        assert!(*done.borrow());
        assert_eq!(sim.now().as_us(), 5.0);
    }

    #[test]
    fn notify_before_wait_is_not_remembered() {
        // Condition-variable semantics: callers must check a predicate.
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        sig.notify(); // nobody waiting; lost by design
        let sig2 = sig.clone();
        sim.spawn("late", move |ctx| {
            sig2.wait(ctx);
        });
        match sim.run() {
            RunOutcome::Deadlock(names) => assert_eq!(names, vec!["late".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wait_until_checks_before_blocking() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        let sig2 = sig.clone();
        sim.spawn("p", move |ctx| {
            // Predicate already true: must not block.
            sig2.wait_until(ctx, || true);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn notify_wakes_all_current_waiters_in_order() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let sig = sig.clone();
            let log = log.clone();
            sim.spawn(format!("w{i}"), move |ctx| {
                sig.wait(ctx);
                log.borrow_mut().push(i);
            });
        }
        let sig2 = sig.clone();
        sim.schedule_in(SimDuration::from_us(1), move |_| sig2.notify());
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn semaphore_serializes_access() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(&sim, 1);
        let max_inside = Rc::new(RefCell::new((0u32, 0u32))); // (current, max)
        for i in 0..4u32 {
            let sem = sem.clone();
            let mi = max_inside.clone();
            sim.spawn(format!("u{i}"), move |ctx| {
                sem.acquire(ctx);
                {
                    let mut g = mi.borrow_mut();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                ctx.sleep(SimDuration::from_us(10));
                mi.borrow_mut().0 -= 1;
                sem.release();
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(max_inside.borrow().1, 1, "mutual exclusion violated");
        assert_eq!(sim.now().as_us(), 40.0, "holders serialized");
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn try_acquire_does_not_block() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(&sim, 1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }
}

#[cfg(test)]
mod timeout_tests {
    use super::*;
    use crate::engine::RunOutcome;
    use crate::time::SimDuration;

    #[test]
    fn wait_timeout_expires_without_notify() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        sim.spawn("t", move |ctx| {
            let notified = sig.wait_timeout(ctx, SimDuration::from_us(50));
            assert!(!notified, "nothing notified this signal");
            assert_eq!(ctx.now().as_us(), 50.0);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn wait_timeout_wakes_early_on_notify() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        let sig2 = sig.clone();
        sim.spawn("t", move |ctx| {
            let notified = sig2.wait_timeout(ctx, SimDuration::from_us(500));
            assert!(notified);
            assert_eq!(ctx.now().as_us(), 10.0, "woke at notify, not deadline");
        });
        sim.schedule_in(SimDuration::from_us(10), move |_| sig.notify());
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn stale_timeout_wake_does_not_disturb_later_parks() {
        let sim = Sim::new(1);
        let sig = Signal::new(&sim);
        let sig2 = sig.clone();
        sim.spawn("t", move |ctx| {
            // Woken by notify at 10us; the timeout event at 100us is stale.
            assert!(sig2.wait_timeout(ctx, SimDuration::from_us(100)));
            // Sleep past the stale wake; it must not cut this short.
            ctx.sleep(SimDuration::from_us(500));
            assert_eq!(ctx.now().as_us(), 510.0);
        });
        sim.schedule_in(SimDuration::from_us(10), move |_| sig.notify());
        assert_eq!(sim.run(), RunOutcome::Completed);
    }
}

//! Simulation actors: blocking code on stackful coroutines.
//!
//! Application code in this reproduction (the processes that call the BCL
//! API, the MPI ranks, …) is written as ordinary blocking Rust. Each such
//! process runs on a coroutine stack of its own ([`crate::coro`]), on the OS
//! thread that called [`Sim::run`](crate::Sim::run). The driver loop runs on
//! that caller's stack: closure and poller events run inline, and a wakeup
//! switches into the actor it names, which runs until it parks and switches
//! back:
//!
//! ```text
//! driver (the `run` caller's stack)     actor B (its own stack)
//! ---------------------------------     -----------------------
//! pop Call / Poll       run inline
//! pop Wake(B, gen)      switch ───────► park() returns, user code runs
//!                                       ctx.sleep(..) -> park()
//! next event            ◄─────── switch
//! ```
//!
//! Exactly one stack runs at a time and virtual time advances only through
//! the event queue, so execution is sequential and fully deterministic. A
//! switch is a function call into a few dozen instructions; no OS thread is
//! created or woken.
//!
//! Parks are *generational*: every park gets a fresh generation number and a
//! `WakeActor` event only resumes the actor if the generations match. Stale
//! wakeups (e.g. a signal notification racing a sleep timer) are dropped
//! instead of resuming the actor early.

use std::panic::{self, AssertUnwindSafe};

use crate::coro::{Coro, Link};
use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Raw index (useful for deterministic per-actor seeding).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Scheduler-side record of one actor.
pub(crate) struct ActorRecord {
    pub(crate) name: String,
    /// Park generation; a `WakeActor` event must match this to resume.
    pub(crate) gen: u64,
    /// The suspended coroutine. The driver takes it out while the actor
    /// runs, and drops it (unmapping the stack) once the actor finished.
    pub(crate) coro: Option<Coro>,
    /// Set as the body returns (`Ok`) or panics (`Err(message)`).
    pub(crate) exit: Option<Result<(), String>>,
}

/// Handle passed to actor bodies; the actor's view of the simulation.
///
/// All blocking operations (`sleep`, [`crate::signal::Signal::wait`]) go
/// through this context so the engine can keep virtual time consistent.
pub struct ActorCtx {
    sim: Sim,
    id: ActorId,
    name: String,
}

impl ActorCtx {
    /// The simulation handle (for scheduling events, reading the clock, …).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Advance virtual time by `d` — models this process spending `d` of
    /// CPU/elapsed time. Other events scheduled inside the window run while
    /// this actor is parked.
    pub fn sleep(&mut self, d: SimDuration) {
        if d.is_zero() {
            return self.yield_now();
        }
        let gen = self.sim.next_park_gen(self.id);
        let id = self.id;
        self.sim.schedule_wake_in(d, id, gen);
        self.park();
    }

    /// Yield without advancing time: all other events scheduled at the
    /// current instant run before this actor resumes.
    pub fn yield_now(&mut self) {
        let gen = self.sim.next_park_gen(self.id);
        let id = self.id;
        self.sim.schedule_wake_in(SimDuration::ZERO, id, gen);
        self.park();
    }

    /// Park until a matching wakeup. Internal: used by `sleep` and signals,
    /// which must have arranged a wake *before* calling this.
    pub(crate) fn park(&mut self) {
        // SAFETY: an `ActorCtx` exists only on its actor's own stack (the
        // body borrows it for its whole run and cannot move it out), and
        // that actor runs only when this sim's driver resumed it.
        unsafe { self.sim.link().suspend() };
    }
}

/// What a new actor's stack starts with: leaked by [`new_coro`], taken back
/// by [`actor_main`] on the first resume.
struct Start {
    ctx: ActorCtx,
    body: Box<dyn FnOnce(&mut ActorCtx) + 'static>,
}

/// Spawn machinery, called from [`Sim::spawn`]: a coroutine whose first
/// resume runs `body`.
pub(crate) fn new_coro(
    sim: Sim,
    id: ActorId,
    name: String,
    body: Box<dyn FnOnce(&mut ActorCtx) + 'static>,
) -> Coro {
    let coro_name = name.as_str().into();
    let start = Box::new(Start {
        ctx: ActorCtx { sim, id, name },
        body,
    });
    Coro::new(actor_main, Box::into_raw(start).cast(), coro_name)
}

/// The coroutine base. It never returns: the finished actor switches to the
/// driver for good, which unmaps the stack.
extern "C" fn actor_main(start: *mut u8) -> ! {
    // SAFETY: `new_coro` leaked this `Box<Start>` for exactly this call.
    let start = unsafe { Box::from_raw(start.cast::<Start>()) };
    let link = run_body(*start);
    // SAFETY: this is the actor's own stack, resumed by the driver of the
    // sim `link` belongs to, and `run_body` dropped every value on it.
    unsafe { Link::finish(link) }
}

/// Run the body to its end, catching a panic, and record the exit. Every
/// value on the coroutine stack is dropped by the time this returns.
fn run_body(Start { mut ctx, body }: Start) -> *const Link {
    let exit = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    });
    ctx.sim.actor_exited(ctx.id, exit);
    ctx.sim.link()
}

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

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

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

/// Scheduler-side record of one actor, shared by the actor table and the
/// actor's own [`ActorCtx`]: the actor bumps its park generation and
/// records its exit through its own handle, so a park/wake cycle takes the
/// table only once, when the driver looks the woken actor up.
pub(crate) struct ActorRecord {
    pub(crate) name: String,
    /// Park generation; a `WakeActor` event must match this to resume.
    pub(crate) gen: Cell<u64>,
    /// The suspended coroutine. The driver takes it out while the actor
    /// runs, and drops it (unmapping the stack) once the actor finished.
    pub(crate) coro: Cell<Option<Coro>>,
    /// Set as the body returns (`Ok`) or panics (`Err(message)`).
    pub(crate) exit: RefCell<Option<Result<(), String>>>,
}

impl ActorRecord {
    /// Is the actor suspended, waiting for a wake? False while it runs and
    /// once it finished.
    pub(crate) fn parked(&self) -> bool {
        let coro = self.coro.take();
        let parked = coro.is_some();
        self.coro.set(coro);
        parked
    }
}

/// Handle passed to actor bodies; the actor's view of the simulation.
///
/// All blocking operations (`sleep`, [`crate::signal::Signal::wait`]) go
/// through this context so the engine can keep virtual time consistent.
pub struct ActorCtx {
    sim: Sim,
    id: ActorId,
    rec: Rc<ActorRecord>,
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
        &self.rec.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Advance virtual time by `d` — models this process spending `d` of
    /// CPU/elapsed time. Other events scheduled inside the window run while
    /// this actor is parked.
    pub fn sleep(&mut self, d: SimDuration) {
        self.park_for(d);
    }

    /// Yield without advancing time: all other events scheduled at the
    /// current instant run before this actor resumes.
    pub fn yield_now(&mut self) {
        self.park_for(SimDuration::ZERO);
    }

    /// Park until `d` from now. When the wake would be the very next event,
    /// the clock moves in place instead ([`Sim::wake_in_place`]): no
    /// queue round-trip, no stack switch, and the same dispatch order.
    fn park_for(&mut self, d: SimDuration) {
        let gen = self.next_park_gen();
        if !self.sim.wake_in_place(d) {
            self.sim.schedule_wake_in(d, self.id, gen);
            self.park();
        }
    }

    /// Bump and return the park generation for an upcoming park.
    pub(crate) fn next_park_gen(&self) -> u64 {
        let gen = self.rec.gen.get() + 1;
        self.rec.gen.set(gen);
        gen
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
    rec: Rc<ActorRecord>,
    body: Box<dyn FnOnce(&mut ActorCtx) + 'static>,
) -> Coro {
    let coro_name = rec.name.as_str().into();
    let start = Box::new(Start {
        ctx: ActorCtx { sim, id, rec },
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
    *ctx.rec.exit.borrow_mut() = Some(exit);
    ctx.sim.link()
}

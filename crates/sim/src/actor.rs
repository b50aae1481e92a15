//! Thread-backed simulation actors.
//!
//! Application code in this reproduction (the processes that call the BCL
//! API, the MPI ranks, …) is written as ordinary blocking Rust. Each such
//! process runs on a real OS thread, but the engine enforces that **exactly
//! one thread runs at a time**: the one holding the baton. Execution is
//! therefore sequential and fully deterministic even though the code is
//! multi-threaded; virtual time only advances through the event queue.
//!
//! The baton stays on the thread that parks. A parking actor runs the event
//! loop itself ([`Sim::drive`](crate::Sim)): closure and poller events run
//! inline on its stack, its *own* wakeup simply returns from `park()` with no
//! thread switch at all, and a wakeup for another actor is one direct
//! hand-off:
//!
//! ```text
//! actor A (parking, drives)             actor B (blocked on its mailbox)
//! -------------------------             --------------------------------
//! pop Call / Poll        run inline
//! pop Wake(A, gen)       return from park()        -- no switch
//! pop Wake(B, gen)
//! B.mailbox.post(Run) ────────────────► wait() returns, user code runs
//! A.mailbox.wait()                      (B parks: B drives from here on)
//! ```
//!
//! The thread blocked in `Sim::run` starts the loop and then sleeps until a
//! driver reports that the queue drained, the time limit was reached, or
//! something panicked. A mailbox hand-off is `store(Release)` + `unpark`,
//! the wait is `swap(Acquire)` in a `park()` loop; that pair is the
//! happens-before edge between consecutive baton holders, which the engine's
//! `Relaxed` atomics (clock, event counters) rely on.
//!
//! Parks are *generational*: every park gets a fresh generation number and a
//! `WakeActor` event only resumes the actor if the generations match. Stale
//! wakeups (e.g. a signal notification racing a sleep timer) are dropped
//! instead of resuming the actor early.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

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

/// Zero-sized panic payload used to unwind actor threads at teardown.
/// Recognized (and swallowed) by the actor runner and the global panic hook.
pub(crate) struct ShutdownToken;

/// One-slot mailbox an actor thread blocks on while it does not hold the
/// baton.
pub(crate) struct Mailbox(AtomicU8);

const EMPTY: u8 = 0;
const RUN: u8 = 1;
const SHUTDOWN: u8 = 2;

impl Mailbox {
    fn post(&self, msg: u8, owner: &Thread) {
        // Release: everything the poster did under the baton is visible to
        // the owner once its Acquire swap in `wait` reads this message.
        self.0.store(msg, Ordering::Release);
        owner.unpark();
    }

    /// Hand the baton to `owner`, the thread blocked on this mailbox.
    pub(crate) fn post_run(&self, owner: &Thread) {
        self.post(RUN, owner);
    }

    /// Tell `owner` the simulation is being torn down.
    pub(crate) fn post_shutdown(&self, owner: &Thread) {
        self.post(SHUTDOWN, owner);
    }

    /// Block until the baton (`Ok`) or a teardown order (`Err`) arrives.
    /// `park` can return spuriously or on a left-over token, so the slot is
    /// re-checked every time.
    fn wait(&self) -> Result<(), ShutdownToken> {
        loop {
            match self.0.swap(EMPTY, Ordering::Acquire) {
                EMPTY => std::thread::park(),
                RUN => return Ok(()),
                _ => return Err(ShutdownToken),
            }
        }
    }
}

/// Scheduler-side record of one actor.
pub(crate) struct ActorRecord {
    pub(crate) name: String,
    pub(crate) mailbox: Arc<Mailbox>,
    /// The actor's thread, to unpark after posting to `mailbox`.
    pub(crate) thread: Thread,
    /// Park generation; a `WakeActor` event must match this to resume.
    pub(crate) gen: u64,
    pub(crate) status: ActorStatus,
    pub(crate) join: Option<JoinHandle<()>>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ActorStatus {
    Parked,
    Running,
    Done,
}

/// Handle passed to actor bodies; the actor's view of the simulation.
///
/// All blocking operations (`sleep`, [`crate::signal::Signal::wait`]) go
/// through this context so the engine can keep virtual time consistent.
pub struct ActorCtx {
    sim: Sim,
    id: ActorId,
    name: String,
    mailbox: Arc<Mailbox>,
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

    /// Yield the baton without advancing time: all other events scheduled at
    /// the current instant run before this actor resumes.
    pub fn yield_now(&mut self) {
        let gen = self.sim.next_park_gen(self.id);
        let id = self.id;
        self.sim.schedule_wake_in(SimDuration::ZERO, id, gen);
        self.park();
    }

    /// Park until a matching wakeup. Internal: used by `sleep` and signals,
    /// which must have arranged a wake *before* calling this.
    pub(crate) fn park(&mut self) {
        self.sim.mark_parked(self.id);
        // Keep the baton and run the event loop here until this actor's own
        // wakeup comes up; if the baton went elsewhere first, wait for it.
        if !self.sim.drive(Some(self.id)) {
            if let Err(token) = self.mailbox.wait() {
                panic::panic_any(token);
            }
        }
    }
}

/// Spawn machinery, called from [`Sim::spawn`].
pub(crate) fn spawn_actor_thread(
    sim: Sim,
    id: ActorId,
    name: String,
    body: Box<dyn FnOnce(&mut ActorCtx) + Send + 'static>,
) -> (Arc<Mailbox>, JoinHandle<()>) {
    let mailbox = Arc::new(Mailbox(AtomicU8::new(EMPTY)));
    let thread_name = format!("sim-actor-{}-{}", id.0, name);
    let mut ctx = ActorCtx {
        sim,
        id,
        name,
        mailbox: mailbox.clone(),
    };
    let join = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            // Wait to be scheduled for the first time.
            if ctx.mailbox.wait().is_err() {
                return;
            }
            let panicked = match panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                Ok(()) => None,
                // Teardown unwind: exit quietly, nobody is listening.
                Err(payload) if payload.is::<ShutdownToken>() => return,
                Err(payload) => Some(if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "<non-string panic payload>".to_string()
                }),
            };
            ctx.sim.actor_exited(id, panicked);
        })
        .expect("failed to spawn actor thread");
    (mailbox, join)
}

/// Install a process-global panic hook that silences [`ShutdownToken`]
/// unwinds (they are control flow, not errors) while delegating everything
/// else to the previously installed hook. Idempotent.
pub(crate) fn install_quiet_shutdown_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownToken>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

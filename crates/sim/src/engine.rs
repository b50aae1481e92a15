//! The discrete-event scheduler.
//!
//! Events are `(time, seq)`-ordered, ties broken by insertion order, so runs
//! are bit-for-bit reproducible. Three kinds of events exist: boxed closures
//! (used by hardware models — NIC firmware, DMA engines, switches), actor
//! wakeups (used by application processes on coroutine stacks, see
//! [`crate::actor`]), and unboxed poller ticks (used by descriptor-ring
//! firmware loops, see [`Sim::register_poller`]).
//!
//! # One queue
//!
//! All events live in one binary heap of `(time, seq, slot)` keys over a
//! slab of actions, in one `RefCell`. A [`Sim`] is `!Send`, so the thread
//! that builds a simulation is the one that runs it. `seq` is a single
//! counter bumped in program order,
//! and exactly one stack — the driver loop's or one actor's, see
//! [`crate::actor`] — runs at a time, so the dispatch order is the strict
//! `(time, seq)` order and a fixed seed yields byte-identical reports on
//! every rerun. The
//! self-profiler ([`suca_obs::prof`], enabled via [`Sim::set_profiling`])
//! counts per-kind dispatch cost and times the pop phase.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::rc::Rc;
use std::time::Instant;

use suca_obs::prof::{KIND_CALL, KIND_POLL, KIND_WAKE};

use crate::actor::{new_coro, ActorCtx, ActorId, ActorRecord};
use crate::coro::Link;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event; returned by the `schedule_*` methods and
/// accepted by [`Sim::cancel`] (used for e.g. retransmission timers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// Handle to a registered poller callback (see [`Sim::register_poller`]).
/// Scheduling a poll tick allocates nothing: the event carries only this id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PollerId(u32);

/// A registered poller callback; a poll tick runs it from the registry.
type PollerFn = Box<dyn Fn(&Sim) + 'static>;

enum EventAction {
    Call(Box<dyn FnOnce(&Sim) + 'static>),
    Wake(ActorId, u64),
    Poll(u32),
}

/// Why [`Sim::run`] (or [`Sim::run_until`]) returned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Event queue drained and every actor finished.
    Completed,
    /// Event queue drained but some actors are still parked waiting for a
    /// signal that can never fire. The names of the stuck actors are listed —
    /// this is how protocol-level deadlocks surface in tests.
    Deadlock(Vec<String>),
    /// `run_until` reached its time limit with work still pending.
    Pending,
}

/// The event queue: a min-heap of `(time, seq, slot)` keys over a slab of
/// actions. A slot holds its event's action until the key pops;
/// [`Sim::cancel`] takes the action out early and leaves the key behind as a
/// tombstone, which the pop discards without advancing time. A slot is
/// reused only after its key popped, and then carries the new event's seq,
/// so a fired or cancelled [`EventId`] never matches again. Nothing grows
/// without bound: the slab is as long as the most keys ever queued at once.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Slot>,
    /// Slots whose key popped, ready for reuse.
    free: Vec<u32>,
    /// Events scheduled and neither dispatched nor cancelled.
    pending: usize,
    /// Next event sequence number; allocation order == program order.
    seq: u64,
    dispatched: u64,
}

struct Slot {
    seq: u64,
    /// `None` once the event was dispatched or cancelled.
    action: Option<EventAction>,
}

impl Queue {
    fn push(&mut self, time: SimTime, action: EventAction) -> EventId {
        let seq = self.seq;
        self.seq += 1;
        let slot = Slot {
            seq,
            action: Some(action),
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("event queue overflow")
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        self.pending += 1;
        EventId { seq, slot }
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.seq == id.seq => slot.action.take().is_some(),
            _ => false,
        };
        self.pending -= usize::from(cancelled);
        cancelled
    }

    /// The next live event in `(time, seq)` order, unless the queue drained
    /// or that event lies past `limit`.
    fn pop(&mut self, limit: SimTime) -> Option<(SimTime, EventAction)> {
        while let Some(&Reverse((time, _, slot))) = self.heap.peek() {
            if time > limit {
                return None;
            }
            self.heap.pop();
            self.free.push(slot);
            if let Some(action) = self.slots[slot as usize].action.take() {
                self.pending -= 1;
                self.dispatched += 1;
                return Some((time, action));
            }
            // Cancelled tombstone: discard, no time advance.
        }
        None
    }
}

/// Profiler stamp opening a dispatch interval: `(start, allocs, bytes)`.
type Stamp = (Instant, u64, u64);

/// Why the driver loop stopped before the queue drained.
enum Abort {
    /// A handler or poller panicked; `run` re-raises the payload.
    HandlerPanic(Box<dyn Any + Send>),
    /// An actor's body panicked: `(name, message)`.
    ActorPanic(String, String),
}

pub(crate) struct SimInner {
    queue: RefCell<Queue>,
    /// Actor table, in a cell of its own apart from the hot event queue.
    actors: RefCell<Vec<ActorRecord>>,
    /// Stack-pointer slots for switching between the driver loop and the
    /// actor it resumed.
    link: Link,
    /// Current virtual time in ns, apart from the queue so `Sim::now`
    /// never borrows it.
    now_ns: Cell<u64>,
    running: Cell<bool>,
    seed: u64,
    /// Registered poller callbacks, indexed by `PollerId`. Append-only.
    pollers: RefCell<Vec<PollerFn>>,
    /// Metrics registry lives *outside* the queue: bumping a counter from
    /// inside an event handler must not borrow the scheduler's state.
    metrics: suca_obs::Metrics,
    /// Per-message causal tracer / flight recorder. Also outside the queue
    /// so protocol code can record events from anywhere.
    mtrace: suca_obs::trace::MsgTracer,
    /// Continuous-telemetry probe registry (sim-clock sampled rings). Also
    /// outside the queue: probes are registered at construction time
    /// and sampled only from the telemetry tick.
    timeseries: suca_obs::timeseries::TimeSeries,
    /// Guard so `start_telemetry` arms exactly one sampler per run.
    pub(crate) telemetry_started: Cell<bool>,
    /// Engine self-profiler cells (see [`suca_obs::prof`]). Off by default.
    prof: suca_obs::prof::EngineProf,
    /// Guard so `set_profiling` registers the `sim.prof.events`
    /// counter-track probe exactly once (and never for unprofiled runs,
    /// whose timeseries JSON must not carry it).
    prof_probes: Cell<bool>,
    /// Online health engine (see [`suca_obs::health`]). Created unarmed —
    /// it registers its `health.*` instruments only when a harness installs
    /// rules via [`Sim::install_health`], keeping unmonitored runs'
    /// snapshots byte-identical.
    health: suca_obs::health::HealthEngine,
}

/// Resets `running` even when `run_inner` re-raises a handler or actor
/// panic, so a harness that catches the panic can run the same `Sim` again
/// instead of dying on the reentrancy assert.
struct RunningGuard<'a>(&'a SimInner);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.0.running.set(false);
    }
}

/// Handle to one simulation. Cheap to clone; all clones refer to the same
/// engine. Hardware components keep a `Sim` to schedule their own events.
///
/// A simulation runs on one thread, and the compiler holds it there: the
/// engine's state sits in `Cell`s and `RefCell`s, so a `Sim`, and anything
/// that holds one, is `!Send`.
///
/// ```compile_fail
/// let sim = suca_sim::Sim::new(1);
/// std::thread::spawn(move || sim.run());
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Sim {
    /// Create a simulation with the given master RNG seed. The seed fixes
    /// every random decision in the run (fault injection, jitter), so a
    /// `(seed, program)` pair is a complete reproduction recipe.
    pub fn new(seed: u64) -> Self {
        let metrics = suca_obs::Metrics::new();
        metrics.set_meta("seed", seed.to_string());
        Sim {
            inner: Rc::new(SimInner {
                queue: RefCell::default(),
                actors: RefCell::new(Vec::new()),
                link: Link::default(),
                now_ns: Cell::new(0),
                running: Cell::new(false),
                seed,
                pollers: RefCell::new(Vec::new()),
                metrics,
                mtrace: suca_obs::trace::MsgTracer::new(),
                timeseries: suca_obs::timeseries::TimeSeries::new(),
                telemetry_started: Cell::new(false),
                prof: suca_obs::prof::EngineProf::new(),
                prof_probes: Cell::new(false),
                health: suca_obs::health::HealthEngine::new(),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.inner.now_ns.get())
    }

    /// Schedule `f` to run `delay` after the current instant.
    pub fn schedule_in(&self, delay: SimDuration, f: impl FnOnce(&Sim) + 'static) -> EventId {
        let time = self.now() + delay;
        self.push_event(time, EventAction::Call(Box::new(f)))
    }

    /// Schedule `f` at an absolute instant. Panics if `time` is in the past —
    /// a causality violation is always a modeling bug.
    pub fn schedule_at(&self, time: SimTime, f: impl FnOnce(&Sim) + 'static) -> EventId {
        assert!(
            time >= self.now(),
            "cannot schedule event in the past ({time} < {})",
            self.now()
        );
        self.push_event(time, EventAction::Call(Box::new(f)))
    }

    /// Register a reusable poller callback. Pollers are the zero-alloc
    /// alternative to boxed closures for recurring firmware work
    /// (descriptor-ring drains): registration allocates once, every
    /// [`Sim::schedule_poll_in`] after that is allocation-free. A poll tick
    /// runs its callback from the registry, so a poller must not register
    /// another: that panics, naming the caller.
    #[track_caller]
    pub fn register_poller(&self, f: impl Fn(&Sim) + 'static) -> PollerId {
        let Ok(mut pollers) = self.inner.pollers.try_borrow_mut() else {
            panic!(
                "Sim::register_poller at {} ran inside a poll tick",
                Location::caller()
            );
        };
        let idx = u32::try_from(pollers.len()).expect("poller registry overflow");
        pollers.push(Box::new(f));
        PollerId(idx)
    }

    /// Schedule a tick of a registered poller `delay` after the current
    /// instant. No allocation: the event carries only the [`PollerId`].
    pub fn schedule_poll_in(&self, delay: SimDuration, id: PollerId) -> EventId {
        let time = self.now() + delay;
        self.push_event(time, EventAction::Poll(id.0))
    }

    fn push_event(&self, time: SimTime, action: EventAction) -> EventId {
        self.inner.queue.borrow_mut().push(time, action)
    }

    /// Cancel a pending event. Returns `false` if it already fired or was
    /// already cancelled. Cancelling a wakeup event is safe: generational
    /// parking means a cancelled wake simply never matches.
    pub fn cancel(&self, id: EventId) -> bool {
        // The key stays in the heap as a tombstone and is discarded
        // (without advancing time) when it reaches the front.
        self.inner.queue.borrow_mut().cancel(id)
    }

    /// Spawn an actor on a coroutine stack of its own; it starts running at
    /// the current instant (after already-scheduled events at this instant).
    pub fn spawn(
        &self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ActorCtx) + 'static,
    ) -> ActorId {
        let name = name.into();
        let mut actors = self.inner.actors.borrow_mut();
        let id = ActorId(u32::try_from(actors.len()).expect("actor table overflow"));
        let coro = new_coro(self.clone(), id, name.clone(), Box::new(body));
        actors.push(ActorRecord {
            name,
            gen: 0,
            coro: Some(coro),
            exit: None,
        });
        drop(actors);
        let now = self.now();
        self.push_event(now, EventAction::Wake(id, 0));
        id
    }

    /// Run until the event queue drains.
    pub fn run(&self) -> RunOutcome {
        self.run_inner(SimTime::MAX)
    }

    /// Run until the event queue drains or the clock would pass `limit`.
    /// On `Pending`, the clock is left at `limit`.
    pub fn run_until(&self, limit: SimTime) -> RunOutcome {
        self.run_inner(limit)
    }

    fn run_inner(&self, limit: SimTime) -> RunOutcome {
        assert!(
            !self.inner.running.replace(true),
            "Sim::run called reentrantly"
        );
        let _guard = RunningGuard(&self.inner);
        let prof_t0 = self.prof_on().then(|| {
            crate::alloc::set_counting(true);
            Instant::now()
        });
        let result = self.drive(limit);
        if let Some(t0) = prof_t0 {
            self.inner.prof.add_run_ns(t0.elapsed().as_nanos() as u64);
            crate::alloc::set_counting(false);
        }
        match result {
            Ok(()) => self.finish(limit),
            Err(Abort::HandlerPanic(payload)) => resume_unwind(payload),
            Err(Abort::ActorPanic(name, msg)) => {
                // Actor panics include failed harness assertions: dump the
                // flight recorder before propagating.
                self.inner
                    .mtrace
                    .dump_once(&format!("sim actor '{name}' panicked: {msg}"));
                panic!("sim actor '{name}' panicked: {msg}");
            }
        }
    }

    /// Is the self-profiler counting?
    #[inline]
    fn prof_on(&self) -> bool {
        self.inner.prof.enabled()
    }

    /// Open a dispatch interval for the profiler.
    fn stamp() -> Stamp {
        let (allocs, bytes) = crate::alloc::counts();
        (Instant::now(), allocs, bytes)
    }

    /// Close a dispatch interval opened by [`Sim::stamp`].
    fn prof_dispatch(&self, kind: usize, (t0, a0, b0): Stamp) {
        let ns = t0.elapsed().as_nanos() as u64;
        let (a1, b1) = crate::alloc::counts();
        self.inner
            .prof
            .dispatch(kind, ns, a1.saturating_sub(a0), b1.saturating_sub(b0));
    }

    /// The next event in `(time, seq)` order; `None` when the queue drained
    /// or the next event lies past `limit`.
    fn next_event(&self, limit: SimTime) -> Option<EventAction> {
        let pop_t0 = self.prof_on().then(Instant::now);
        let next = self.inner.queue.borrow_mut().pop(limit);
        if let Some(t0) = pop_t0 {
            self.inner.prof.lock_acq(1);
            self.inner.prof.add_pop_ns(t0.elapsed().as_nanos() as u64);
        }
        let (time, action) = next?;
        self.inner.now_ns.set(time.as_ns());
        Some(action)
    }

    /// The driver loop, on the `run` caller's stack: `Call` and `Poll`
    /// events run inline, a `Wake` switches into its actor until the actor
    /// parks or finishes. Returns once the queue drained or the next event
    /// lies past `limit`, or early on the first panic.
    fn drive(&self, limit: SimTime) -> Result<(), Abort> {
        while let Some(action) = self.next_event(limit) {
            let stamp = self.prof_on().then(Self::stamp);
            match action {
                EventAction::Call(f) => {
                    self.run_handler(KIND_CALL, stamp, "sim event handler panicked", || f(self))?;
                }
                EventAction::Poll(idx) => {
                    let pollers = self.inner.pollers.borrow();
                    let f = &pollers[idx as usize];
                    self.run_handler(KIND_POLL, stamp, "sim poller panicked", || f(self))?;
                }
                EventAction::Wake(id, gen) => {
                    let r = self.resume(id, gen);
                    if let Some(stamp) = stamp {
                        self.prof_dispatch(KIND_WAKE, stamp);
                    }
                    r?;
                }
            }
        }
        Ok(())
    }

    /// Run one handler inline. A panic is caught so the flight recorder can
    /// dump before `run` re-raises it.
    fn run_handler(
        &self,
        kind: usize,
        stamp: Option<Stamp>,
        what: &str,
        f: impl FnOnce(),
    ) -> Result<(), Abort> {
        let r = catch_unwind(AssertUnwindSafe(f));
        if let Some(stamp) = stamp {
            self.prof_dispatch(kind, stamp);
        }
        r.map_err(|payload| {
            // Flight recorder: dump the per-message trace rings before the
            // panic propagates.
            self.inner.mtrace.dump_once(what);
            Abort::HandlerPanic(payload)
        })
    }

    /// Dispatch a wake: switch into actor `id` unless the wake is stale,
    /// then put its coroutine back, or unmap its stack if it finished.
    fn resume(&self, id: ActorId, gen: u64) -> Result<(), Abort> {
        let mut coro = {
            let mut actors = self.inner.actors.borrow_mut();
            let rec = &mut actors[id.0 as usize];
            if rec.gen != gen {
                return Ok(()); // stale wake: the actor moved on
            }
            match rec.coro.take() {
                Some(coro) => coro,
                None => return Ok(()), // the actor finished
            }
        };
        // SAFETY: this is the sim's driver loop and no actor is running
        // (`running` admits one driver, which runs actors one at a time);
        // `coro` sat in the table, so it is suspended and not finished.
        unsafe { self.inner.link.resume(&mut coro) };
        let mut actors = self.inner.actors.borrow_mut();
        let rec = &mut actors[id.0 as usize];
        match &rec.exit {
            None => rec.coro = Some(coro),
            Some(Ok(())) => {}
            Some(Err(msg)) => return Err(Abort::ActorPanic(rec.name.clone(), msg.clone())),
        }
        Ok(())
    }

    fn finish(&self, limit: SimTime) -> RunOutcome {
        // Live events only: a cancelled tombstone past `limit` is not work.
        if self.pending_events() > 0 {
            // Stopped by the time limit with events still queued.
            self.inner.now_ns.set(limit.as_ns());
            return RunOutcome::Pending;
        }
        let stuck: Vec<String> = self
            .inner
            .actors
            .borrow_mut()
            .iter()
            .filter(|a| a.coro.is_some())
            .map(|a| a.name.clone())
            .collect();
        if stuck.is_empty() {
            RunOutcome::Completed
        } else {
            RunOutcome::Deadlock(stuck)
        }
    }

    // ---- actor support (crate-internal) ------------------------------------

    /// Bump and return the park generation for an upcoming park.
    pub(crate) fn next_park_gen(&self, id: ActorId) -> u64 {
        let mut actors = self.inner.actors.borrow_mut();
        let rec = &mut actors[id.0 as usize];
        rec.gen += 1;
        rec.gen
    }

    /// Schedule a generational wakeup.
    pub(crate) fn schedule_wake_in(&self, delay: SimDuration, id: ActorId, gen: u64) -> EventId {
        let time = self.now() + delay;
        self.push_event(time, EventAction::Wake(id, gen))
    }

    /// Schedule a generational wakeup at the current instant (signal notify).
    pub(crate) fn schedule_wake_now(&self, id: ActorId, gen: u64) -> EventId {
        self.schedule_wake_in(SimDuration::ZERO, id, gen)
    }

    /// An actor's body returned (`Ok`) or panicked with a message; called
    /// on the actor's stack just before it switches away for good.
    pub(crate) fn actor_exited(&self, id: ActorId, exit: Result<(), String>) {
        self.inner.actors.borrow_mut()[id.0 as usize].exit = Some(exit);
    }

    /// The driver loop's switch slots.
    pub(crate) fn link(&self) -> &Link {
        &self.inner.link
    }

    // ---- observability ------------------------------------------------------

    /// The per-message causal tracer (always-armed flight recorder). Hot
    /// paths check [`suca_obs::trace::MsgTracer::enabled`] before building
    /// an event.
    pub fn msg_trace(&self) -> &suca_obs::trace::MsgTracer {
        &self.inner.mtrace
    }

    /// Record one per-message trace event.
    pub fn trace_event(&self, ev: suca_obs::trace::TraceEvent) {
        self.inner.mtrace.record(ev);
    }

    /// Snapshot of all buffered per-message trace events, merged across
    /// node rings and sorted by start time.
    pub fn trace_events(&self) -> Vec<suca_obs::trace::TraceEvent> {
        self.inner.mtrace.events()
    }

    /// The metrics registry for this run. Components register typed
    /// counters/gauges/histograms here once at construction time and keep
    /// the handles for cheap hot-path updates.
    pub fn metrics(&self) -> suca_obs::Metrics {
        self.inner.metrics.clone()
    }

    /// Point-in-time copy of every registered instrument; serializes to
    /// JSON via [`suca_obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> suca_obs::MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Increment a named counter (name-based compat path; resolves through
    /// the metrics registry).
    pub fn add_count(&self, name: &str, n: u64) {
        self.inner.metrics.add(name, n);
    }

    /// Read a named counter (0 if never incremented).
    pub fn get_count(&self, name: &str) -> u64 {
        self.inner.metrics.get(name)
    }

    /// Snapshot all counters.
    pub fn counters(&self) -> HashMap<String, u64> {
        self.inner.metrics.counter_values().into_iter().collect()
    }

    /// Derive a deterministic, independent RNG stream for a named component.
    /// Same `(seed, label)` always yields the same stream.
    pub fn fork_rng(&self, label: &str) -> SimRng {
        SimRng::fork(self.inner.seed, label)
    }

    /// The master seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Number of events dispatched so far (observability / runaway-loop
    /// diagnosis).
    pub fn events_dispatched(&self) -> u64 {
        self.inner.queue.borrow().dispatched
    }

    /// The continuous-telemetry probe registry. Components register named
    /// probes at construction time; the telemetry tick (see
    /// [`Sim::start_telemetry`](crate::telemetry)) samples them on the sim
    /// clock.
    pub fn timeseries(&self) -> &suca_obs::timeseries::TimeSeries {
        &self.inner.timeseries
    }

    /// Number of live (non-cancelled) events still in the queue. O(1): a
    /// counter, read every telemetry tick to decide whether the sampler
    /// reschedules itself.
    pub fn pending_events(&self) -> usize {
        self.inner.queue.borrow().pending
    }

    /// The online health engine. Unarmed (every hook a no-op) until a
    /// harness calls [`Sim::install_health`]; completion hooks
    /// (`suca-rpc`/`suca-load`) and the telemetry tick feed it.
    pub fn health(&self) -> &suca_obs::health::HealthEngine {
        &self.inner.health
    }

    /// Install a health rule set, arming the engine and registering its
    /// `health.*` instruments. Call once per run, after every probe is
    /// registered and before traffic starts (the cluster builder does this
    /// when a spec carries rules).
    pub fn install_health(&self, rules: Vec<suca_obs::health::HealthRule>) {
        self.inner
            .health
            .install(rules, &self.inner.metrics, &self.inner.timeseries);
    }

    /// Enable/disable the engine self-profiler. While on, the scheduler counts
    /// per-kind dispatch cost and times the pop phase (see
    /// [`suca_obs::prof`]). The first enable also registers the
    /// `sim.prof.events` telemetry probe so profiled runs export a Perfetto
    /// counter track; unprofiled runs register nothing.
    pub fn set_profiling(&self, on: bool) {
        self.inner.prof.set_enabled(on);
        if on && !self.inner.prof_probes.replace(true) {
            let p = self.inner.prof.clone();
            self.inner.timeseries.register(
                "sim.prof.events",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.events(),
            );
        }
    }

    /// Is the engine self-profiler on?
    pub fn profiling(&self) -> bool {
        self.inner.prof.enabled()
    }

    /// Point-in-time copy of the self-profiler's counters and timers.
    pub fn prof_report(&self) -> suca_obs::prof::ProfReport {
        self.inner.prof.report()
    }

    pub(crate) fn inner(&self) -> &SimInner {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, d) in [(0u32, 30u64), (1, 10), (2, 10), (3, 20)] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_ns(d), move |_| log.borrow_mut().push(i));
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*log.borrow(), vec![1, 2, 3, 0]);
        assert_eq!(sim.now().as_ns(), 30);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let id = sim.schedule_in(SimDuration::from_us(1), move |_| {
            h.set(h.get() + 1);
        });
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run();
        assert_eq!(hits.get(), 0);
    }

    #[test]
    fn cancel_after_fire_returns_false_and_leaks_nothing() {
        // Regression: cancelling an already-fired event used to return
        // `true` and grow the cancelled set forever (retransmission timers
        // cancel constantly).
        let sim = Sim::new(1);
        let mut ids = Vec::new();
        for _ in 0..100 {
            ids.push(sim.schedule_in(SimDuration::from_us(1), |_| {}));
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        for id in &ids {
            assert!(!sim.cancel(*id), "cancel of a fired event must be false");
            assert!(!sim.cancel(*id), "and stays false on retry");
        }
        // Nothing is retained for fired or cancelled events: every slot is
        // free and the queue is empty, bounded regardless of churn.
        let q = sim.inner.queue.borrow();
        assert_eq!(q.free.len(), q.slots.len(), "every slot must be freed");
        assert!(q.heap.is_empty(), "queue must drain");
        drop(q);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn cancelled_churn_stays_bounded() {
        // Schedule/cancel cycles (a retransmission timer's life) must not
        // accumulate state anywhere.
        let sim = Sim::new(1);
        for round in 0..50u64 {
            let id = sim.schedule_in(SimDuration::from_us(round + 1), |_| {});
            assert!(sim.cancel(id));
            sim.schedule_in(SimDuration::from_us(round + 1), |_| {});
            sim.run();
        }
        let q = sim.inner.queue.borrow();
        assert_eq!(q.free.len(), q.slots.len());
        assert!(q.heap.is_empty());
        drop(q);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn panicking_handler_leaves_sim_runnable() {
        // Regression: a panic unwinding through run_inner used to leave
        // `running == true`, so the next run died on the reentrancy assert.
        // A sleeping actor is driving when the handler fires: the panic must
        // surface from `run` with its payload, not unwind the actor's frames.
        let sim = Sim::new(1);
        let woke = Rc::new(Cell::new(0));
        let w = woke.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_us(2));
            w.set(ctx.now().as_ns());
        });
        sim.schedule_in(SimDuration::from_us(1), |_| panic!("injected"));
        let r = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let payload = r.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected"));
        assert_eq!(woke.get(), 0, "actor must stay parked");
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        sim.schedule_in(SimDuration::from_us(1), move |_| {
            h.set(h.get() + 1);
        });
        assert_eq!(sim.run(), RunOutcome::Completed, "sim must run again");
        assert_eq!(hits.get(), 1);
        assert_eq!(woke.get(), 2_000, "actor resumed on time");
    }

    #[test]
    fn a_handler_panicking_mid_borrow_leaves_the_state_readable() {
        // The panic unwinds through the handler's `borrow_mut()`, which
        // releases the borrow: `run` re-raises the payload, and whoever
        // reports the failure still reads the state as the handler left it.
        let sim = Sim::new(1);
        let state = Rc::new(RefCell::new(vec![1, 2]));
        let s = state.clone();
        sim.schedule_in(SimDuration::from_us(1), move |_| {
            let mut held = s.borrow_mut();
            held.push(3);
            panic!("holder fails");
        });
        let r = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let payload = r.expect_err("the handler's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"holder fails"));
        assert_eq!(
            *state.borrow(),
            [1, 2, 3],
            "the data as the handler left it"
        );
    }

    #[test]
    fn a_poller_registering_a_poller_panics_naming_the_caller() {
        let sim = Sim::new(1);
        let line = Rc::new(Cell::new(0));
        let l = line.clone();
        let p = sim.register_poller(move |s| {
            l.set(line!() + 1);
            s.register_poller(|_| {});
        });
        sim.schedule_poll_in(SimDuration::ZERO, p);
        let r = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let payload = r.expect_err("a nested registration must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        let site = format!("{}:{}:", file!(), line.get());
        assert!(msg.contains(&site), "{msg} does not name {site}");
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        sim.schedule_in(SimDuration::from_us(1), move |s| {
            let h2 = h.clone();
            s.schedule_in(SimDuration::from_us(2), move |_| {
                h2.set(h2.get() + 1);
            });
        });
        sim.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(sim.now().as_us(), 3.0);
    }

    #[test]
    fn actor_sleep_advances_virtual_time() {
        let sim = Sim::new(1);
        let t = Rc::new(RefCell::new(SimTime::ZERO));
        let t2 = t.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_us(5));
            ctx.sleep(SimDuration::from_us(7));
            *t2.borrow_mut() = ctx.now();
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(t.borrow_mut().as_us(), 12.0);
    }

    #[test]
    fn actors_interleave_deterministically() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for who in ["a", "b"] {
            let log = log.clone();
            sim.spawn(who, move |ctx| {
                for i in 0..3 {
                    ctx.sleep(SimDuration::from_us(10));
                    log.borrow_mut().push(format!("{who}{i}"));
                }
            });
        }
        sim.run();
        // Same sleep times -> FIFO tie-break: 'a' was spawned first.
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn run_until_reports_pending() {
        let sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_us(100), |_| {});
        let out = sim.run_until(SimTime::from_ns(50_000));
        assert_eq!(out, RunOutcome::Pending);
        assert_eq!(sim.now().as_us(), 50.0);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.now().as_us(), 100.0);
    }

    #[test]
    #[should_panic(expected = "sim actor 'oops' panicked: boom")]
    fn actor_panics_propagate() {
        let sim = Sim::new(1);
        sim.spawn("oops", |_| panic!("boom"));
        sim.run();
    }

    #[test]
    fn dropping_engine_reclaims_parked_actor_threads() {
        // An actor parked forever must not wedge drop.
        let sim = Sim::new(1);
        let sig = crate::signal::Signal::new(&sim);
        sim.spawn("stuck", move |ctx| {
            sig.wait(ctx); // never notified
        });
        match sim.run() {
            RunOutcome::Deadlock(names) => assert_eq!(names, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        drop(sim); // must not hang
    }

    #[test]
    fn events_dispatched_counts_and_runs_resume_after_deadlock() {
        let sim = Sim::new(1);
        let sig = crate::signal::Signal::new(&sim);
        let sig2 = sig.clone();
        sim.spawn("blocked", move |ctx| sig2.wait(ctx));
        // First run deadlocks (nothing notifies).
        assert!(matches!(sim.run(), RunOutcome::Deadlock(_)));
        let before = sim.events_dispatched();
        // New work can still be scheduled and a later run un-sticks the
        // actor.
        let sig3 = sig.clone();
        sim.schedule_in(SimDuration::from_us(1), move |_| sig3.notify());
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert!(sim.events_dispatched() > before);
    }

    #[test]
    fn counters_accumulate() {
        let sim = Sim::new(1);
        sim.add_count("traps", 1);
        sim.add_count("traps", 2);
        assert_eq!(sim.get_count("traps"), 3);
        assert_eq!(sim.get_count("absent"), 0);
    }

    #[test]
    fn fork_rng_is_deterministic_per_label() {
        let sim = Sim::new(42);
        let a1: u64 = sim.fork_rng("link0").next_u64();
        let a2: u64 = sim.fork_rng("link0").next_u64();
        let b: u64 = sim.fork_rng("link1").next_u64();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    /// Run a messy program of rescheduling chains with zero-delay hops and
    /// same-instant ties, optionally profiled; returns its dispatch log, the
    /// dispatch count and the sim (for the profiler report).
    fn torture(prof: bool) -> (Vec<(u64, u32)>, u64, Sim) {
        let sim = Sim::new(9);
        sim.set_profiling(prof);
        let log = Rc::new(RefCell::new(Vec::new()));
        for node in 0..8u32 {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_ns(u64::from(node % 3)), move |s| {
                chain(s, node, 0, log.clone());
            });
        }
        fn chain(s: &Sim, node: u32, depth: u32, log: Rc<RefCell<Vec<(u64, u32)>>>) {
            log.borrow_mut().push((s.now().as_ns(), node));
            if depth >= 6 {
                return;
            }
            let peer = (node + 1) % 8;
            let l2 = log.clone();
            s.schedule_in(
                SimDuration::from_ns(u64::from(depth % 2)), // 0 or 1 ns hops
                move |s| chain(s, peer, depth + 1, l2),
            );
            if depth.is_multiple_of(3) {
                // A tie at the current instant.
                let l3 = log.clone();
                s.schedule_in(SimDuration::ZERO, move |s| {
                    l3.borrow_mut().push((s.now().as_ns(), 1000 + node));
                });
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        let l = Rc::try_unwrap(log).unwrap().into_inner();
        let n = sim.events_dispatched();
        (l, n, sim)
    }

    #[test]
    fn pollers_fire_in_seq_order_with_zero_alloc_events() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let p1 = sim.register_poller(move |s| l1.borrow_mut().push(("p1", s.now().as_ns())));
        let l2 = log.clone();
        let p2 = sim.register_poller(move |s| l2.borrow_mut().push(("p2", s.now().as_ns())));
        sim.schedule_poll_in(SimDuration::from_ns(10), p2);
        sim.schedule_poll_in(SimDuration::from_ns(10), p1); // tie: p2 first (earlier seq)
        sim.schedule_poll_in(SimDuration::from_ns(5), p1);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(
            *log.borrow(),
            vec![("p1", 5), ("p2", 10), ("p1", 10)],
            "poll ticks follow the (time, seq) order"
        );
    }

    #[test]
    fn pending_events_counter_tracks_push_pop_cancel() {
        let sim = Sim::new(1);
        assert_eq!(sim.pending_events(), 0);
        let a = sim.schedule_in(SimDuration::from_us(1), |_| {});
        let _b = sim.schedule_in(SimDuration::from_us(2), |_| {});
        assert_eq!(sim.pending_events(), 2);
        assert!(sim.cancel(a));
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn profiled_run_keeps_order_and_balances_counters() {
        let _arm = crate::alloc::arm_for_test();
        let (plain, n_plain, _) = torture(false);
        let (profiled, n_prof, sim) = torture(true);
        assert_eq!(plain, profiled, "profiling must not change dispatch order");
        assert_eq!(n_plain, n_prof);
        let r = sim.prof_report();
        assert!(r.enabled);
        assert_eq!(r.events(), n_prof, "every dispatch attributed to a kind");
        assert_eq!(
            r.lock_acquisitions,
            n_prof + 1,
            "one queue borrow per pop, plus the pop that found it empty"
        );
        // The deterministic counter section is byte-stable across reruns.
        let (_, _, again) = torture(true);
        assert_eq!(
            r.counters_json(),
            again.prof_report().counters_json(),
            "profiler counters must follow the (deterministic) schedule"
        );
        // Wall clock: phases were actually timed and attribution is sane.
        assert!(r.run_ns > 0);
        assert!(r.attributed_ns() <= r.run_ns * 2, "timer nesting broken?");
    }

    #[test]
    fn disabled_profiler_counts_nothing() {
        let (_, n, sim) = torture(false);
        assert!(n > 0);
        let r = sim.prof_report();
        assert!(!r.enabled);
        assert_eq!(r.events(), 0);
        assert_eq!(r.lock_acquisitions, 0);
        assert_eq!(r.run_ns, 0);
    }

    #[test]
    fn run_until_ignores_cancelled_tombstones_past_the_limit() {
        // Regression: `finish` used to count tombstones as pending work, so
        // a cancelled timer beyond the limit turned `Completed` into
        // `Pending` and dragged the clock to the limit.
        let sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_us(1), |_| {});
        let id = sim.schedule_in(SimDuration::from_us(100), |_| {});
        assert!(sim.cancel(id));
        assert_eq!(
            sim.run_until(SimTime::from_ns(10_000)),
            RunOutcome::Completed
        );
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.now().as_us(), 1.0, "clock stays at the last event");
    }

    #[test]
    fn run_until_reports_deadlock_behind_a_cancelled_tombstone() {
        // Same hole, worse symptom: a wedged actor behind a cancelled timer
        // was reported as "work pending".
        let sim = Sim::new(1);
        let sig = crate::signal::Signal::new(&sim);
        sim.spawn("stuck", move |ctx| sig.wait(ctx)); // never notified
        let id = sim.schedule_in(SimDuration::from_us(100), |_| {});
        assert!(sim.cancel(id));
        assert_eq!(
            sim.run_until(SimTime::from_ns(10_000)),
            RunOutcome::Deadlock(vec!["stuck".to_string()])
        );
    }

    // ---- coroutine tests ----------------------------------------------------

    #[test]
    fn run_until_limit_on_an_actor_thread_resumes_with_the_same_order() {
        // The limit is reached while the sleeping actor is driving.
        let go = |split: Option<u64>| {
            let sim = Sim::new(4);
            let log = Rc::new(RefCell::new(Vec::new()));
            let l = log.clone();
            sim.spawn("a", move |ctx| {
                for i in 0..4u64 {
                    ctx.sleep(SimDuration::from_ns(30));
                    l.borrow_mut().push((ctx.now().as_ns(), i));
                }
            });
            for k in 0..12u64 {
                let l = log.clone();
                sim.schedule_in(SimDuration::from_ns(10 * k + 5), move |s| {
                    l.borrow_mut().push((s.now().as_ns(), 100 + k));
                });
            }
            if let Some(t) = split {
                assert_eq!(sim.run_until(SimTime::from_ns(t)), RunOutcome::Pending);
                assert_eq!(sim.now().as_ns(), t);
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.borrow().clone();
            l
        };
        assert_eq!(go(None), go(Some(47)));
    }

    #[test]
    fn actors_and_handlers_run_on_the_run_callers_thread() {
        // Two actors hand off to each other through sleeps; every body step
        // and every handler must run on the thread that called `run`.
        let sim = Sim::new(1);
        let ids = Rc::new(RefCell::new(Vec::new()));
        for who in 0..2u64 {
            let ids = ids.clone();
            sim.spawn(format!("a{who}"), move |ctx| {
                for _ in 0..3 {
                    ids.borrow_mut().push(std::thread::current().id());
                    let i = ids.clone();
                    ctx.sim().schedule_in(SimDuration::from_ns(1), move |_| {
                        i.borrow_mut().push(std::thread::current().id());
                    });
                    ctx.sleep(SimDuration::from_ns(2 + who));
                }
                ids.borrow_mut().push(std::thread::current().id());
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        let ids = ids.borrow();
        assert_eq!(ids.len(), 2 * 7);
        assert!(ids.iter().all(|&t| t == std::thread::current().id()));
    }

    #[test]
    fn finished_actor_stack_is_unmapped_before_run_returns() {
        // The body returns at t=0; a handler at t=3 µs sees its stack gone
        // (dropping a `Coro` unmaps it) while the run is still going.
        let sim = Sim::new(1);
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        sim.spawn("brief", |_| {});
        sim.schedule_in(SimDuration::from_us(3), move |sim| {
            let rec = &sim.inner.actors.borrow_mut()[0];
            *s.borrow_mut() = Some((rec.coro.is_none(), rec.exit.clone()));
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*seen.borrow(), Some((true, Some(Ok(())))));
    }

    #[test]
    fn a_parked_actor_is_never_resumed_on_another_thread() {
        // Driving the loop from a second thread does not compile (see the
        // `compile_fail` example on `Sim`), so what is left to check is
        // that both halves of a body parked across two `run_until` calls
        // run on the thread that drives the loop.
        let sim = Sim::new(1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        sim.spawn("a", move |ctx| {
            s.borrow_mut().push(std::thread::current().id());
            ctx.sleep(SimDuration::from_us(2));
            s.borrow_mut().push(std::thread::current().id());
        });
        assert_eq!(sim.run_until(SimTime::from_ns(1_000)), RunOutcome::Pending);
        assert!(sim.inner.actors.borrow()[0].coro.is_some(), "still parked");
        assert_eq!(sim.run(), RunOutcome::Completed);
        let here = std::thread::current().id();
        assert_eq!(*seen.borrow(), [here, here]);
    }

    #[test]
    fn a_sim_built_on_a_worker_thread_runs_its_actors_there() {
        // `!Send` confines a `Sim` to the thread that builds it, whichever
        // thread that is: a worker thread may own a whole run.
        let (worker, seen) = std::thread::spawn(|| {
            let sim = Sim::new(1);
            let seen = Rc::new(Cell::new(None));
            let s = seen.clone();
            sim.spawn("a", move |ctx| {
                ctx.sleep(SimDuration::from_us(1));
                s.set(Some(std::thread::current().id()));
            });
            assert_eq!(sim.run(), RunOutcome::Completed);
            (std::thread::current().id(), seen.get())
        })
        .join()
        .expect("the worker's run completes");
        assert_ne!(worker, std::thread::current().id());
        assert_eq!(seen, Some(worker));
    }

    #[test]
    fn an_actor_frame_can_use_a_mebibyte_of_stack() {
        let sim = Sim::new(1);
        let sum = Rc::new(Cell::new(0));
        let s = sum.clone();
        sim.spawn("deep", move |ctx| {
            let mut frame = [0u8; 1 << 20];
            for page in frame.chunks_mut(4096) {
                page[0] = 1;
            }
            ctx.sleep(SimDuration::from_us(1)); // live across a switch
            let frame = std::hint::black_box(&frame);
            s.set(frame.iter().map(|&b| u64::from(b)).sum());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sum.get(), (1 << 20) / 4096);
    }
}

//! The discrete-event scheduler.
//!
//! Events are `(time, seq)`-ordered, ties broken by insertion order, so runs
//! are bit-for-bit reproducible. Three kinds of events exist: boxed closures
//! (used by hardware models — NIC firmware, DMA engines, switches), actor
//! wakeups (used by thread-backed application processes, see
//! [`crate::actor`]), and unboxed poller ticks (used by descriptor-ring
//! firmware loops, see [`Sim::register_poller`]).
//!
//! # Sharded queues, one global order
//!
//! The queue is sharded: each shard (normally one per simulated node, see
//! `ClusterSpec::with_engine_shards`) owns its own binary heap plus a
//! live-event set, and a small *index heap* tracks the advertised minimum key
//! of every non-empty shard. The driver — whichever thread holds the baton,
//! see [`crate::actor`] — picks the globally smallest
//! `(time, seq)` key from the index, then **batch-drains** the winning shard
//! while its keys stay strictly below the *horizon* — the best key any other
//! shard advertises. Cross-shard pushes below the horizon tighten a
//! *pushed-min watermark*; the batch keeps draining while its next key stays
//! strictly below the watermark and ends when it reaches it. Because a
//! freshly allocated `seq` is larger than every seq already in any queue, a
//! cross-shard push *at* the horizon time can never sort before the horizon
//! event, so the time-only horizon test is conservative and the dispatch
//! order is exactly the strict global `(time, seq)` order of the
//! single-queue engine. A fixed seed therefore yields byte-identical reports
//! at any shard count; wormhole link latency (cross-node events land at
//! least one propagation delay in the future) is what makes the batches long
//! in practice.
//!
//! Mid-batch pushes onto the *drained* shard skip the advertise/index-heap
//! path entirely — the batch owns the shard (its `advertised` is `None`)
//! and re-advertises the true minimum at batch end, so those index entries
//! would only ever be popped as stale. The self-profiler
//! ([`suca_obs::prof`], enabled via [`Sim::set_profiling`]) counts batches,
//! end causes, index churn, and per-kind dispatch cost; with the `prof`
//! cargo feature off the hooks compile out.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::thread::Thread;
use std::time::Instant;

use parking_lot::Mutex;
use suca_obs::prof::{BatchEnd, KIND_CALL, KIND_POLL, KIND_WAKE};

use crate::actor::{
    install_quiet_shutdown_hook, spawn_actor_thread, ActorCtx, ActorId, ActorRecord, ActorStatus,
};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event; returned by the `schedule_*` methods and
/// accepted by [`Sim::cancel`] (used for e.g. retransmission timers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    time: SimTime,
    seq: u64,
    shard: u32,
}

/// Handle to a registered poller callback (see [`Sim::register_poller`]).
/// Scheduling a poll tick allocates nothing: the event carries only this id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PollerId {
    idx: u32,
    shard: u32,
}

/// A registered poller callback (shared so a poll tick can run it without
/// holding the registry lock).
type PollerFn = Arc<dyn Fn(&Sim) + Send + Sync + 'static>;

enum EventAction {
    Call(Box<dyn FnOnce(&Sim) + Send + 'static>),
    Wake(ActorId, u64),
    Poll(u32),
}

struct EventEntry {
    time: SimTime,
    seq: u64,
    action: EventAction,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
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

/// One event-queue shard. `live` tracks the seqs of still-pending (never
/// fired, never cancelled) events, which makes [`Sim::cancel`] exact: a
/// cancel succeeds iff the seq is removed here, a popped event whose seq is
/// absent is a cancelled tombstone and is discarded. Nothing grows without
/// bound: every seq leaves `live` exactly once, at cancel or at pop.
struct Shard {
    queue: BinaryHeap<Reverse<EventEntry>>,
    live: HashSet<u64>,
    /// The `(time, seq)` key this shard currently advertises in the index
    /// heap (`None` while a batch owns the shard, or while it is empty).
    advertised: Option<(SimTime, u64)>,
}

/// Sentinel for "no batch in progress" in `current_shard`.
const IDLE_SHARD: u32 = u32::MAX;

/// The batch being drained: the owned shard, the best key any other shard
/// advertised when it was picked, and the profiler's view of it so far.
struct Batch {
    sh: u32,
    horizon: Option<(SimTime, u64)>,
    len: u64,
    pm_seen: bool,
}

/// Profiler stamp opening a dispatch interval: `(start, allocs, bytes)`.
type Stamp = (Instant, u64, u64);

/// Scheduler state that travels with the baton: whichever thread drives next
/// resumes the batch the previous driver left. Only the baton holder locks
/// it, so the mutex is never contended.
struct DriveState {
    limit: SimTime,
    batch: Option<Batch>,
    /// A `Wake`'s dispatch interval covers the hand-off and the actor's run,
    /// so it stays open until the next [`Sim::next_event`], on any thread.
    open_wake: Option<Stamp>,
}

/// What a driver tells the thread blocked in [`Sim::run`] when it gives the
/// baton back.
enum RunReport {
    /// The queue drained or the next event lies past the limit.
    Idle,
    /// A handler or poller panicked; `run` re-raises the payload.
    HandlerPanic(Box<dyn Any + Send>),
    /// An actor's body panicked: `(name, message)`.
    ActorPanic(String, String),
}

/// Mailbox of the thread blocked in [`Sim::run`].
struct RunCaller {
    thread: Thread,
    report: Option<RunReport>,
}

pub(crate) struct SimInner {
    shards: Vec<Mutex<Shard>>,
    /// Advertised per-shard minima: `(time, seq, shard)`. Lazy — stale
    /// entries (a shard whose advertised key moved on) are skipped at pop.
    index: Mutex<BinaryHeap<Reverse<(SimTime, u64, u32)>>>,
    /// Actor table: mutated only by the baton holder, kept in one mutex
    /// separate from the hot event-queue shards.
    actors: Mutex<Vec<ActorRecord>>,
    /// Current virtual time in ns. Atomic so `Sim::now` never touches a
    /// queue lock from hot paths.
    now_ns: AtomicU64,
    /// Global event sequence counter; allocation order == program order.
    seq: AtomicU64,
    dispatched: AtomicU64,
    /// Live (never fired, never cancelled) events across all shards.
    pending: AtomicU64,
    /// Shard being batch-drained, or `IDLE_SHARD`. Doubles as the ambient
    /// placement for events scheduled without an explicit shard hint.
    current_shard: AtomicU32,
    /// Time component of the batch horizon (0 while no batch is active):
    /// a cross-shard push strictly below this must bound the batch.
    horizon_ns: AtomicU64,
    /// Smallest cross-shard push time seen below the active horizon
    /// (`u64::MAX` = none). The batch keeps draining strictly below this
    /// watermark. At the watermark time the drained shard may hold events
    /// scheduled *after* the cross-shard push (larger seq — they must sort
    /// after it), so only events strictly below the watermark are provably
    /// still the global minimum.
    batch_pushed_min_ns: AtomicU64,
    drive: Mutex<DriveState>,
    run_caller: Mutex<RunCaller>,
    running: AtomicBool,
    seed: u64,
    /// Registered poller callbacks, indexed by `PollerId::idx`. Append-only.
    pollers: RwLock<Vec<PollerFn>>,
    /// Metrics registry lives *outside* the engine mutex: bumping a counter
    /// from inside an event handler must not touch the scheduler lock.
    metrics: suca_obs::Metrics,
    /// Per-message causal tracer / flight recorder. Also outside the engine
    /// mutex so protocol code can record events from anywhere.
    mtrace: suca_obs::trace::MsgTracer,
    /// Continuous-telemetry probe registry (sim-clock sampled rings). Also
    /// outside the engine mutex: probes are registered at construction time
    /// and sampled only from the telemetry tick.
    timeseries: suca_obs::timeseries::TimeSeries,
    /// Guard so `start_telemetry` arms exactly one sampler per run.
    pub(crate) telemetry_started: AtomicBool,
    /// Engine self-profiler cells (see [`suca_obs::prof`]). Off by default;
    /// hooks compile out without the `prof` cargo feature.
    prof: suca_obs::prof::EngineProf,
    /// Guard so `set_profiling` registers the `sim.prof.*` counter-track
    /// probes exactly once (and never for unprofiled runs, whose timeseries
    /// JSON must stay byte-identical across shard counts).
    prof_probes: AtomicBool,
    /// Online health engine (see [`suca_obs::health`]). Created unarmed —
    /// it registers its `health.*` instruments only when a harness installs
    /// rules via [`Sim::install_health`], keeping unmonitored runs'
    /// snapshots byte-identical.
    health: suca_obs::health::HealthEngine,
}

/// `SUCA_SIM_TRACE_DISPATCH` is read once per process, not once per event.
fn trace_dispatch_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("SUCA_SIM_TRACE_DISPATCH").is_some())
}

/// Resets `running` (and the batch state) even when `run_inner` re-raises a
/// handler or actor panic, so a harness that catches the panic can run the
/// same `Sim` again instead of dying on the reentrancy assert.
struct RunningGuard<'a>(&'a SimInner);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        let inner = self.0;
        let mut st = inner.drive.lock();
        if let Some(b) = st.batch.take() {
            // A panic ended the run mid-batch while a driver owned this
            // shard (`advertised == None`, mid-batch own-shard pushes skip
            // the index). Re-advertise its minimum or its remaining events
            // would be invisible to the next run.
            inner.release_shard(b.sh);
        }
        st.open_wake = None;
        inner.running.store(false, Ordering::Release);
    }
}

impl SimInner {
    /// Batch end: stand down and re-advertise shard `sh`'s minimum. Returns
    /// whether that pushed an index entry.
    fn release_shard(&self, sh: u32) -> bool {
        self.horizon_ns.store(0, Ordering::Relaxed);
        self.batch_pushed_min_ns.store(u64::MAX, Ordering::Relaxed);
        self.current_shard.store(IDLE_SHARD, Ordering::Relaxed);
        let mut g = self.shards[sh as usize].lock();
        let key = g.queue.peek().map(|Reverse(top)| (top.time, top.seq));
        let moved = key.is_some() && g.advertised != key;
        g.advertised = key;
        if let Some((t, s)) = key.filter(|_| moved) {
            self.index.lock().push(Reverse((t, s, sh)));
        }
        moved
    }
}

/// Handle to one simulation. Cheap to clone; all clones refer to the same
/// engine. Hardware components keep a `Sim` to schedule their own events.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

impl Sim {
    /// Create a single-shard simulation with the given master RNG seed. The
    /// seed fixes every random decision in the run (fault injection, jitter),
    /// so a `(seed, program)` pair is a complete reproduction recipe.
    pub fn new(seed: u64) -> Self {
        Self::new_with_shards(seed, 1)
    }

    /// Create a simulation whose event queue is split into `shards` shards
    /// (clamped to at least 1). Shard count affects scheduling *throughput*
    /// only: dispatch order is the strict global `(time, seq)` order at any
    /// shard count, so reports are byte-identical across shard counts.
    pub fn new_with_shards(seed: u64, shards: usize) -> Self {
        install_quiet_shutdown_hook();
        let shards = shards.max(1);
        let metrics = suca_obs::Metrics::new();
        metrics.set_meta("seed", seed.to_string());
        Sim {
            inner: Arc::new(SimInner {
                shards: (0..shards)
                    .map(|_| {
                        Mutex::new(Shard {
                            queue: BinaryHeap::new(),
                            live: HashSet::new(),
                            advertised: None,
                        })
                    })
                    .collect(),
                index: Mutex::new(BinaryHeap::new()),
                actors: Mutex::new(Vec::new()),
                now_ns: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                dispatched: AtomicU64::new(0),
                pending: AtomicU64::new(0),
                current_shard: AtomicU32::new(IDLE_SHARD),
                horizon_ns: AtomicU64::new(0),
                batch_pushed_min_ns: AtomicU64::new(u64::MAX),
                drive: Mutex::new(DriveState {
                    limit: SimTime::MAX,
                    batch: None,
                    open_wake: None,
                }),
                run_caller: Mutex::new(RunCaller {
                    thread: std::thread::current(),
                    report: None,
                }),
                running: AtomicBool::new(false),
                seed,
                pollers: RwLock::new(Vec::new()),
                metrics,
                mtrace: suca_obs::trace::MsgTracer::new(),
                timeseries: suca_obs::timeseries::TimeSeries::new(),
                telemetry_started: AtomicBool::new(false),
                prof: suca_obs::prof::EngineProf::new(shards),
                prof_probes: AtomicBool::new(false),
                health: suca_obs::health::HealthEngine::new(),
            }),
        }
    }

    /// Number of event-queue shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.inner.now_ns.load(Ordering::Relaxed))
    }

    /// The shard new events land on when no explicit hint is given: the
    /// shard currently being drained (so work a handler or actor schedules
    /// stays local), or shard 0 outside a run.
    fn ambient_shard(&self) -> u32 {
        let cur = self.inner.current_shard.load(Ordering::Relaxed);
        if cur == IDLE_SHARD {
            0
        } else {
            cur
        }
    }

    fn resolve_hint(&self, hint: u32) -> u32 {
        hint % self.inner.shards.len() as u32
    }

    /// Schedule `f` to run `delay` after the current instant.
    pub fn schedule_in(
        &self,
        delay: SimDuration,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> EventId {
        let time = self.now() + delay;
        self.push_event(self.ambient_shard(), time, EventAction::Call(Box::new(f)))
    }

    /// Schedule `f` at an absolute instant. Panics if `time` is in the past —
    /// a causality violation is always a modeling bug.
    pub fn schedule_at(&self, time: SimTime, f: impl FnOnce(&Sim) + Send + 'static) -> EventId {
        assert!(
            time >= self.now(),
            "cannot schedule event in the past ({time} < {})",
            self.now()
        );
        self.push_event(self.ambient_shard(), time, EventAction::Call(Box::new(f)))
    }

    /// Like [`Sim::schedule_in`] but places the event on the shard named by
    /// `hint` (normally the destination node id; reduced mod shard count).
    /// Placement never changes dispatch order — only batching locality.
    pub fn schedule_in_on(
        &self,
        hint: u32,
        delay: SimDuration,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> EventId {
        let time = self.now() + delay;
        self.push_event(
            self.resolve_hint(hint),
            time,
            EventAction::Call(Box::new(f)),
        )
    }

    /// Like [`Sim::schedule_at`] but with an explicit shard hint.
    pub fn schedule_at_on(
        &self,
        hint: u32,
        time: SimTime,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> EventId {
        assert!(
            time >= self.now(),
            "cannot schedule event in the past ({time} < {})",
            self.now()
        );
        self.push_event(
            self.resolve_hint(hint),
            time,
            EventAction::Call(Box::new(f)),
        )
    }

    /// Register a reusable poller callback on shard `hint`. Pollers are the
    /// zero-alloc alternative to boxed closures for recurring firmware work
    /// (descriptor-ring drains): registration allocates once, every
    /// [`Sim::schedule_poll_in`] after that is allocation-free.
    pub fn register_poller(&self, hint: u32, f: impl Fn(&Sim) + Send + Sync + 'static) -> PollerId {
        let mut pollers = self
            .inner
            .pollers
            .write()
            .expect("poller registry poisoned");
        let idx = u32::try_from(pollers.len()).expect("poller registry overflow");
        pollers.push(Arc::new(f));
        PollerId {
            idx,
            shard: self.resolve_hint(hint),
        }
    }

    /// Schedule a tick of a registered poller `delay` after the current
    /// instant. No allocation: the event carries only the [`PollerId`].
    pub fn schedule_poll_in(&self, delay: SimDuration, id: PollerId) -> EventId {
        let time = self.now() + delay;
        self.push_event(id.shard, time, EventAction::Poll(id.idx))
    }

    fn push_event(&self, shard_idx: u32, time: SimTime, action: EventAction) -> EventId {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        // `current_shard` is written only by the baton holder, and while a
        // batch on shard `cur` is active the only code that can push is the
        // handler or actor holding the baton — so `cur` cannot change under
        // us mid-push.
        let cur = self.inner.current_shard.load(Ordering::Relaxed);
        let own_batch = shard_idx == cur;
        {
            let mut sh = self.inner.shards[shard_idx as usize].lock();
            sh.queue.push(Reverse(EventEntry { time, seq, action }));
            sh.live.insert(seq);
            // Mid-batch pushes onto the drained shard skip the index: the
            // batch owns it (`advertised == None`) and re-advertises the
            // true minimum at batch end, so an entry pushed here could only
            // ever be popped as stale.
            if !own_batch {
                let key = (time, seq);
                if sh.advertised.is_none_or(|a| key < a) {
                    sh.advertised = Some(key);
                    self.inner
                        .index
                        .lock()
                        .push(Reverse((time, seq, shard_idx)));
                    if self.prof_on() {
                        self.inner.prof.index_push();
                    }
                }
            }
        }
        self.inner.pending.fetch_add(1, Ordering::Relaxed);
        // A cross-shard push strictly below the active batch horizon bounds
        // the drain window: tighten the pushed-min watermark. A push *at*
        // the horizon time is safe: this seq is fresher than the horizon
        // event's, so it sorts after it.
        let mut dirty = false;
        if !own_batch && time.as_ns() < self.inner.horizon_ns.load(Ordering::Relaxed) {
            self.inner
                .batch_pushed_min_ns
                .fetch_min(time.as_ns(), Ordering::AcqRel);
            dirty = true;
        }
        if self.prof_on() {
            self.inner.prof.push(!own_batch && cur != IDLE_SHARD, dirty);
        }
        EventId {
            time,
            seq,
            shard: shard_idx,
        }
    }

    /// Cancel a pending event. Returns `false` if it already fired or was
    /// already cancelled. Cancelling a wakeup event is safe: generational
    /// parking means a cancelled wake simply never matches.
    pub fn cancel(&self, id: EventId) -> bool {
        let removed = self.inner.shards[id.shard as usize]
            .lock()
            .live
            .remove(&id.seq);
        if removed {
            // The entry stays in the heap as a tombstone and is discarded
            // (without advancing time) when it reaches the front.
            self.inner.pending.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Spawn a thread-backed actor; it starts running at the current instant
    /// (after already-scheduled events at this instant). The actor's events
    /// land on the ambient shard; use [`Sim::spawn_pinned`] to place it.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ActorCtx) + Send + 'static,
    ) -> ActorId {
        self.spawn_pinned(self.ambient_shard(), name, body)
    }

    /// Spawn a thread-backed actor whose wakeups are pinned to the shard
    /// named by `hint` (normally the node the process runs on).
    pub fn spawn_pinned(
        &self,
        hint: u32,
        name: impl Into<String>,
        body: impl FnOnce(&mut ActorCtx) + Send + 'static,
    ) -> ActorId {
        let name = name.into();
        let shard = self.resolve_hint(hint);
        let id = ActorId(self.inner.actors.lock().len() as u32);
        let (mailbox, join) = spawn_actor_thread(self.clone(), id, name.clone(), Box::new(body));
        self.inner.actors.lock().push(ActorRecord {
            name,
            mailbox,
            thread: join.thread().clone(),
            gen: 0,
            status: ActorStatus::Parked,
            join: Some(join),
            shard,
        });
        let now = self.now();
        self.push_event(shard, now, EventAction::Wake(id, 0));
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
            !self.inner.running.swap(true, Ordering::Acquire),
            "Sim::run called reentrantly"
        );
        let _guard = RunningGuard(&self.inner);
        self.inner.drive.lock().limit = limit;
        {
            let mut rc = self.inner.run_caller.lock();
            rc.thread = std::thread::current();
            rc.report = None;
        }
        let prof_t0 = self.prof_on().then(|| {
            crate::alloc::set_counting(true);
            Instant::now()
        });
        // Start the loop here; from the first actor wake on, the baton moves
        // between actor threads and this thread only waits for the report.
        self.drive(None);
        let report = loop {
            if let Some(r) = self.inner.run_caller.lock().report.take() {
                break r;
            }
            std::thread::park();
        };
        if let Some(t0) = prof_t0 {
            self.inner.prof.add_run_ns(t0.elapsed().as_nanos() as u64);
            crate::alloc::set_counting(false);
        }
        match report {
            RunReport::Idle => self.finish(limit),
            RunReport::HandlerPanic(payload) => resume_unwind(payload),
            RunReport::ActorPanic(name, msg) => {
                // Actor panics include failed harness assertions: dump the
                // flight recorder before propagating.
                self.inner
                    .mtrace
                    .dump_once(&format!("sim actor '{name}' panicked: {msg}"));
                panic!("sim actor '{name}' panicked: {msg}");
            }
        }
    }

    /// Is the self-profiler counting? With the `prof` feature off this is
    /// `false` at compile time and every profiling branch folds away.
    #[inline]
    fn prof_on(&self) -> bool {
        cfg!(feature = "prof") && self.inner.prof.enabled()
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

    /// Pick phase: take ownership of the shard advertising the globally
    /// smallest key (skipping stale index entries) and compute its horizon.
    /// `None` when nothing is queued at or before `limit`.
    fn pick_batch(&self, limit: SimTime, prof_on: bool) -> Option<Batch> {
        let prof = &self.inner.prof;
        let pick_t0 = prof_on.then(Instant::now);
        let picked = loop {
            let top = self.inner.index.lock().pop();
            let Some(Reverse((t, s, sh))) = top else {
                break None;
            };
            let fresh = self.inner.shards[sh as usize].lock().advertised == Some((t, s));
            if prof_on {
                prof.pick_pop(!fresh);
                prof.lock_acq(2);
            }
            if !fresh {
                continue; // the shard's minimum moved on; a fresher entry exists
            }
            if t > limit {
                // Leave the entry (and `advertised`) intact for a later run.
                self.inner.index.lock().push(Reverse((t, s, sh)));
                if prof_on {
                    prof.index_push();
                    prof.lock_acq(1);
                }
                break None;
            }
            break Some(sh);
        };
        let Some(sh) = picked else {
            if let Some(t0) = pick_t0 {
                prof.add_pick_ns(t0.elapsed().as_nanos() as u64);
            }
            return None;
        };
        // Take ownership of the shard: from here until batch end, every
        // index entry naming `sh` is stale.
        self.inner.shards[sh as usize].lock().advertised = None;
        // Horizon: the smallest *fresh* key any other shard advertises.
        // Stale entries (including our own superseded advertisements,
        // which would otherwise wedge the batch at zero progress) are
        // dropped here; the fresh one is pushed back.
        let horizon = loop {
            let top = self.inner.index.lock().pop();
            let Some(Reverse((t, s, xsh))) = top else {
                break None;
            };
            let fresh =
                xsh != sh && self.inner.shards[xsh as usize].lock().advertised == Some((t, s));
            if prof_on {
                prof.horizon_pop(!fresh);
                prof.lock_acq(2);
            }
            if fresh {
                self.inner.index.lock().push(Reverse((t, s, xsh)));
                if prof_on {
                    prof.index_push();
                    prof.lock_acq(1);
                }
                break Some((t, s));
            }
        };
        self.inner.current_shard.store(sh, Ordering::Relaxed);
        self.inner
            .batch_pushed_min_ns
            .store(u64::MAX, Ordering::Relaxed);
        self.inner.horizon_ns.store(
            horizon.map_or(u64::MAX, |(t, _)| t.as_ns()),
            Ordering::Relaxed,
        );
        if let Some(t0) = pick_t0 {
            prof.add_pick_ns(t0.elapsed().as_nanos() as u64);
        }
        Some(Batch {
            sh,
            horizon,
            len: 0,
            pm_seen: false,
        })
    }

    /// The next event in global `(time, seq)` order, resuming the batch the
    /// previous driver left; `None` when the queue drained or the next event
    /// lies past the run's limit. Callable from whichever thread holds the
    /// baton.
    fn next_event(&self) -> Option<EventEntry> {
        let prof = &self.inner.prof;
        let prof_on = self.prof_on();
        let mut st = self.inner.drive.lock();
        let limit = st.limit;
        if let Some(stamp) = st.open_wake.take() {
            self.prof_dispatch(KIND_WAKE, stamp);
        }
        loop {
            let mut b = match st.batch.take() {
                Some(b) => b,
                None => self.pick_batch(limit, prof_on)?,
            };
            // Batch phase: drain this shard while it holds the global
            // minimum. The shard lock is released around each dispatch so
            // handlers can schedule freely.
            let pop_t0 = prof_on.then(Instant::now);
            let next = {
                let mut g = self.inner.shards[b.sh as usize].lock();
                loop {
                    let Some(Reverse(e)) = g.queue.peek() else {
                        break Err(BatchEnd::Empty);
                    };
                    if e.time > limit {
                        break Err(BatchEnd::Limit);
                    }
                    if b.horizon.is_some_and(|h| (e.time, e.seq) >= h) {
                        break Err(BatchEnd::Horizon);
                    }
                    // A cross-shard push below the horizon tightened the
                    // watermark: keep draining strictly below it (those
                    // events still precede the pushed one in global
                    // order), end the batch at or above it.
                    let pm = self.inner.batch_pushed_min_ns.load(Ordering::Acquire);
                    if pm != u64::MAX {
                        b.pm_seen = true;
                        if e.time.as_ns() >= pm {
                            break Err(BatchEnd::Dirty);
                        }
                    }
                    let Reverse(e) = g.queue.pop().expect("peeked");
                    if !g.live.remove(&e.seq) {
                        continue; // cancelled tombstone: discard, no time advance
                    }
                    break Ok(e);
                }
            };
            if let Some(t0) = pop_t0 {
                prof.lock_acq(1);
                prof.add_pop_ns(t0.elapsed().as_nanos() as u64);
            }
            let cause = match next {
                Err(cause) => cause,
                Ok(e) => {
                    self.inner.now_ns.store(e.time.as_ns(), Ordering::Relaxed);
                    self.inner.dispatched.fetch_add(1, Ordering::Relaxed);
                    self.inner.pending.fetch_sub(1, Ordering::Relaxed);
                    if trace_dispatch_enabled() {
                        let kind = match &e.action {
                            EventAction::Call(_) => "call".to_string(),
                            EventAction::Wake(id, gen) => format!("wake a{} g{gen}", id.0),
                            EventAction::Poll(idx) => format!("poll p{idx}"),
                        };
                        eprintln!("[dispatch] t={} seq={} {kind}", e.time, e.seq);
                    }
                    b.len += 1;
                    st.batch = Some(b);
                    return Some(e);
                }
            };
            let end_t0 = prof_on.then(Instant::now);
            let pushed = self.inner.release_shard(b.sh);
            if let Some(t0) = end_t0 {
                if pushed {
                    prof.index_push();
                }
                prof.lock_acq(2);
                prof.add_batch_end_ns(t0.elapsed().as_nanos() as u64);
                let continued = b.pm_seen && cause != BatchEnd::Dirty;
                prof.batch(b.sh as usize, b.len, cause, continued);
            }
        }
    }

    /// Run the event loop on the calling thread, which holds the baton:
    /// `Call`/`Poll` events run inline, a `Wake` for another actor hands the
    /// baton to that actor's thread. Returns `true` when `me`'s own wakeup
    /// came up (the caller still holds the baton and resumes user code) and
    /// `false` once the baton is gone — to another actor, or back to the
    /// `run` caller with a [`RunReport`]. After `false` the caller must
    /// touch no engine state until its own mailbox hands the baton back.
    pub(crate) fn drive(&self, me: Option<ActorId>) -> bool {
        loop {
            let Some(e) = self.next_event() else {
                self.report(RunReport::Idle);
                return false;
            };
            let stamp = self.prof_on().then(Self::stamp);
            let ok = match e.action {
                EventAction::Call(f) => {
                    self.run_handler(KIND_CALL, stamp, "sim event handler panicked", || f(self))
                }
                EventAction::Poll(idx) => {
                    let f = self.inner.pollers.read().expect("poller registry poisoned")
                        [idx as usize]
                        .clone();
                    self.run_handler(KIND_POLL, stamp, "sim poller panicked", || f(self))
                }
                EventAction::Wake(id, gen) => {
                    if stamp.is_some() {
                        self.inner.drive.lock().open_wake = stamp;
                    }
                    let mut actors = self.inner.actors.lock();
                    let rec = &mut actors[id.0 as usize];
                    if rec.status != ActorStatus::Parked || rec.gen != gen {
                        continue; // stale wake: the actor moved on or finished
                    }
                    rec.status = ActorStatus::Running;
                    if me == Some(id) {
                        return true;
                    }
                    let (mailbox, thread) = (rec.mailbox.clone(), rec.thread.clone());
                    drop(actors);
                    mailbox.post_run(&thread);
                    return false;
                }
            };
            if !ok {
                return false;
            }
        }
    }

    /// Run one handler inline. A panic must not unwind through the user
    /// frames of whichever actor happens to be driving: it is caught here
    /// and carried to the `run` caller, which re-raises it.
    fn run_handler(&self, kind: usize, stamp: Option<Stamp>, what: &str, f: impl FnOnce()) -> bool {
        let r = catch_unwind(AssertUnwindSafe(f));
        if let Some(stamp) = stamp {
            self.prof_dispatch(kind, stamp);
        }
        let Err(payload) = r else { return true };
        // Flight recorder: dump the per-message trace rings before the
        // panic propagates.
        self.inner.mtrace.dump_once(what);
        self.report(RunReport::HandlerPanic(payload));
        false
    }

    /// Give the baton back to the thread blocked in `run`.
    fn report(&self, r: RunReport) {
        let mut rc = self.inner.run_caller.lock();
        rc.report = Some(r);
        let thread = rc.thread.clone();
        drop(rc);
        thread.unpark();
    }

    fn finish(&self, limit: SimTime) -> RunOutcome {
        let raw_pending: usize = self.inner.shards.iter().map(|s| s.lock().queue.len()).sum();
        if raw_pending > 0 {
            // Stopped by the time limit with events still queued.
            self.inner.now_ns.store(limit.as_ns(), Ordering::Relaxed);
            return RunOutcome::Pending;
        }
        let stuck: Vec<String> = self
            .inner
            .actors
            .lock()
            .iter()
            .filter(|a| a.status == ActorStatus::Parked)
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
        let mut actors = self.inner.actors.lock();
        let rec = &mut actors[id.0 as usize];
        rec.gen += 1;
        rec.gen
    }

    /// Schedule a generational wakeup on the actor's pinned shard.
    pub(crate) fn schedule_wake_in(&self, delay: SimDuration, id: ActorId, gen: u64) -> EventId {
        let shard = self.inner.actors.lock()[id.0 as usize].shard;
        let time = self.now() + delay;
        self.push_event(shard, time, EventAction::Wake(id, gen))
    }

    /// Schedule a generational wakeup at the current instant (signal notify).
    pub(crate) fn schedule_wake_now(&self, id: ActorId, gen: u64) -> EventId {
        self.schedule_wake_in(SimDuration::ZERO, id, gen)
    }

    /// Record that an actor is about to park.
    pub(crate) fn mark_parked(&self, id: ActorId) {
        self.inner.actors.lock()[id.0 as usize].status = ActorStatus::Parked;
    }

    /// An actor's body returned (`panicked == None`) or panicked with a
    /// message; called on the actor's thread, which holds the baton.
    pub(crate) fn actor_exited(&self, id: ActorId, panicked: Option<String>) {
        let mut actors = self.inner.actors.lock();
        let rec = &mut actors[id.0 as usize];
        rec.status = ActorStatus::Done;
        let report = panicked.map(|msg| RunReport::ActorPanic(rec.name.clone(), msg));
        drop(actors);
        match report {
            Some(r) => self.report(r),
            // Keep driving until the baton goes to someone else, then let
            // the thread exit.
            None => {
                self.drive(None);
            }
        }
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
    /// the handles for lock-cheap hot-path updates.
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
        self.inner.dispatched.load(Ordering::Relaxed)
    }

    /// The continuous-telemetry probe registry. Components register named
    /// probes at construction time; the telemetry tick (see
    /// [`Sim::start_telemetry`](crate::telemetry)) samples them on the sim
    /// clock.
    pub fn timeseries(&self) -> &suca_obs::timeseries::TimeSeries {
        &self.inner.timeseries
    }

    /// Number of live (non-cancelled) events still in the queue. O(1): a
    /// counter maintained at push/pop/cancel, read every telemetry tick to
    /// decide whether the sampler reschedules itself.
    pub fn pending_events(&self) -> usize {
        self.inner.pending.load(Ordering::Relaxed) as usize
    }

    /// The online health engine. Unarmed (every hook a no-op) until a
    /// harness calls [`Sim::install_health`]; completion hooks
    /// (`suca-rpc`/`suca-load`) and the telemetry tick feed it.
    pub fn health(&self) -> &suca_obs::health::HealthEngine {
        &self.inner.health
    }

    /// Install a health rule set, arming the engine and registering its
    /// `health.*` instruments. Call once per run, before traffic starts
    /// (the cluster builder does this when a spec carries rules).
    pub fn install_health(&self, rules: Vec<suca_obs::health::HealthRule>) {
        self.inner.health.install(rules, &self.inner.metrics);
    }

    /// Enable/disable the engine self-profiler. While on, the scheduler counts
    /// batches, end causes, index churn and per-kind dispatch cost, and
    /// times its phases (see [`suca_obs::prof`]). The first enable also
    /// registers `sim.prof.*` telemetry probes so profiled runs export
    /// Perfetto counter tracks; unprofiled runs register nothing, keeping
    /// their timeseries JSON byte-identical across shard counts.
    pub fn set_profiling(&self, on: bool) {
        self.inner.prof.set_enabled(on);
        if on && !self.inner.prof_probes.swap(true, Ordering::Relaxed) {
            let ts = &self.inner.timeseries;
            let p = self.inner.prof.clone();
            ts.register(
                "sim.prof.events",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.events(),
            );
            let p = self.inner.prof.clone();
            ts.register(
                "sim.prof.batches",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.batches(),
            );
            let p = self.inner.prof.clone();
            ts.register(
                "sim.prof.index_pushes",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.index_pushes(),
            );
            let p = self.inner.prof.clone();
            ts.register(
                "sim.prof.cross_shard_pushes",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.cross_shard_pushes(),
            );
            let p = self.inner.prof.clone();
            ts.register(
                "sim.prof.stale_pops",
                suca_obs::timeseries::FABRIC_NODE,
                None,
                move |_| p.stale_pops(),
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

impl Drop for SimInner {
    fn drop(&mut self) {
        // Unwind any still-parked actor threads so tests don't leak threads.
        let mut actors = std::mem::take(&mut *self.actors.lock());
        for rec in &mut actors {
            if rec.status != ActorStatus::Done {
                // The actor is blocked on its mailbox; a shutdown order makes
                // it unwind via ShutdownToken and exit quietly.
                rec.mailbox.post_shutdown(&rec.thread);
            }
            if let Some(join) = rec.join.take() {
                // A finishing actor can hold the last `Sim` clone (it gives
                // the baton away before its closure is dropped), so this
                // drop may run *on* an actor thread — joining itself would
                // be EDEADLK. Let such a thread detach instead.
                if join.thread().id() != std::thread::current().id() {
                    let _ = join.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in [(0u32, 30u64), (1, 10), (2, 10), (3, 20)] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_ns(d), move |_| log.lock().push(i));
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(*log.lock(), vec![1, 2, 3, 0]);
        assert_eq!(sim.now().as_ns(), 30);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let id = sim.schedule_in(SimDuration::from_us(1), move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
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
        // Nothing is retained for fired or cancelled events: the live set
        // and the queue are both empty, bounded regardless of churn.
        for sh in &sim.inner.shards {
            let g = sh.lock();
            assert!(g.live.is_empty(), "live set must drain");
            assert!(g.queue.is_empty(), "queue must drain");
        }
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
        for sh in &sim.inner.shards {
            let g = sh.lock();
            assert!(g.live.is_empty());
            assert!(g.queue.is_empty());
        }
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn panicking_handler_leaves_sim_runnable() {
        // Regression: a panic unwinding through run_inner used to leave
        // `running == true`, so the next run died on the reentrancy assert.
        // A sleeping actor is driving when the handler fires: the panic must
        // surface from `run` with its payload, not unwind the actor's frames.
        let sim = Sim::new(1);
        let woke = Arc::new(AtomicU64::new(0));
        let w = woke.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_us(2));
            w.store(ctx.now().as_ns(), Ordering::Relaxed);
        });
        sim.schedule_in(SimDuration::from_us(1), |_| panic!("injected"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        let payload = r.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected"));
        assert_eq!(woke.load(Ordering::Relaxed), 0, "actor must stay parked");
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        sim.schedule_in(SimDuration::from_us(1), move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(sim.run(), RunOutcome::Completed, "sim must run again");
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(woke.load(Ordering::Relaxed), 2_000, "actor resumed on time");
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let sim = Sim::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        sim.schedule_in(SimDuration::from_us(1), move |s| {
            let h2 = h.clone();
            s.schedule_in(SimDuration::from_us(2), move |_| {
                h2.fetch_add(1, Ordering::Relaxed);
            });
        });
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(sim.now().as_us(), 3.0);
    }

    #[test]
    fn actor_sleep_advances_virtual_time() {
        let sim = Sim::new(1);
        let t = Arc::new(Mutex::new(SimTime::ZERO));
        let t2 = t.clone();
        sim.spawn("sleeper", move |ctx| {
            ctx.sleep(SimDuration::from_us(5));
            ctx.sleep(SimDuration::from_us(7));
            *t2.lock() = ctx.now();
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(t.lock().as_us(), 12.0);
    }

    #[test]
    fn actors_interleave_deterministically() {
        let sim = Sim::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for who in ["a", "b"] {
            let log = log.clone();
            sim.spawn(who, move |ctx| {
                for i in 0..3 {
                    ctx.sleep(SimDuration::from_us(10));
                    log.lock().push(format!("{who}{i}"));
                }
            });
        }
        sim.run();
        // Same sleep times -> FIFO tie-break: 'a' was spawned first.
        assert_eq!(*log.lock(), vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
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

    // ---- sharded-engine tests ----------------------------------------------

    /// Run a messy cross-shard program and return its dispatch log.
    fn shard_torture(shards: usize) -> (Vec<(u64, u32)>, u64) {
        shard_torture_prof(shards, false).0
    }

    /// Like [`shard_torture`] but optionally profiled; also returns the sim
    /// so callers can inspect the profiler report.
    fn shard_torture_prof(shards: usize, prof: bool) -> ((Vec<(u64, u32)>, u64), Sim) {
        let sim = Sim::new_with_shards(9, shards);
        sim.set_profiling(prof);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Chains on every shard that keep rescheduling onto other shards,
        // including zero-delay cross-shard hops and same-instant ties.
        for node in 0..8u32 {
            let log = log.clone();
            sim.schedule_in_on(node, SimDuration::from_ns(u64::from(node % 3)), move |s| {
                chain(s, node, 0, log.clone());
            });
        }
        fn chain(s: &Sim, node: u32, depth: u32, log: Arc<Mutex<Vec<(u64, u32)>>>) {
            log.lock().push((s.now().as_ns(), node));
            if depth >= 6 {
                return;
            }
            let peer = (node + 1) % 8;
            let l2 = log.clone();
            s.schedule_in_on(
                peer,
                SimDuration::from_ns(u64::from(depth % 2)), // 0 or 1 ns hops
                move |s| chain(s, peer, depth + 1, l2),
            );
            if depth.is_multiple_of(3) {
                // A same-shard tie at the current instant.
                let l3 = log.clone();
                s.schedule_in(SimDuration::ZERO, move |s| {
                    l3.lock().push((s.now().as_ns(), 1000 + node));
                });
            }
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        let l = Arc::try_unwrap(log).unwrap().into_inner();
        let n = sim.events_dispatched();
        ((l, n), sim)
    }

    #[test]
    fn sharded_dispatch_order_matches_single_queue() {
        let (one, n1) = shard_torture(1);
        for shards in [2, 3, 8] {
            let (many, nm) = shard_torture(shards);
            assert_eq!(one, many, "dispatch order diverged at {shards} shards");
            assert_eq!(n1, nm);
        }
    }

    #[test]
    fn pinned_actors_on_shards_interleave_like_single_queue() {
        let run = |shards: usize| {
            let sim = Sim::new_with_shards(3, shards);
            let log = Arc::new(Mutex::new(Vec::new()));
            for (i, who) in ["a", "b", "c", "d"].iter().enumerate() {
                let log = log.clone();
                sim.spawn_pinned(i as u32, *who, move |ctx| {
                    for k in 0..4 {
                        ctx.sleep(SimDuration::from_us(10));
                        log.lock().push(format!("{who}{k}"));
                    }
                });
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.lock().clone();
            l
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cross_shard_zero_delay_signal_wakes_preserve_order() {
        let run = |shards: usize| {
            let sim = Sim::new_with_shards(5, shards);
            let sig = crate::signal::Signal::new(&sim);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..4u32 {
                let sig = sig.clone();
                let log = log.clone();
                sim.spawn_pinned(i, format!("w{i}"), move |ctx| {
                    sig.wait(ctx);
                    log.lock().push(i);
                });
            }
            let sig2 = sig.clone();
            sim.schedule_in_on(3, SimDuration::from_us(5), move |_| sig2.notify());
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.lock().clone();
            l
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cancel_works_across_shards() {
        let sim = Sim::new_with_shards(1, 4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let id = sim.schedule_in_on(2, SimDuration::from_us(1), move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        sim.schedule_in_on(3, SimDuration::from_us(2), |_| {});
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id));
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(sim.now().as_us(), 2.0);
    }

    #[test]
    fn pollers_fire_in_seq_order_with_zero_alloc_events() {
        let sim = Sim::new_with_shards(1, 2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let p1 = sim.register_poller(0, move |s| l1.lock().push(("p1", s.now().as_ns())));
        let l2 = log.clone();
        let p2 = sim.register_poller(1, move |s| l2.lock().push(("p2", s.now().as_ns())));
        sim.schedule_poll_in(SimDuration::from_ns(10), p2);
        sim.schedule_poll_in(SimDuration::from_ns(10), p1); // tie: p2 first (earlier seq)
        sim.schedule_poll_in(SimDuration::from_ns(5), p1);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(
            *log.lock(),
            vec![("p1", 5), ("p2", 10), ("p1", 10)],
            "poll ticks follow the global (time, seq) order"
        );
    }

    #[test]
    fn pending_events_counter_tracks_push_pop_cancel() {
        let sim = Sim::new_with_shards(1, 4);
        assert_eq!(sim.pending_events(), 0);
        let a = sim.schedule_in_on(0, SimDuration::from_us(1), |_| {});
        let _b = sim.schedule_in_on(1, SimDuration::from_us(2), |_| {});
        assert_eq!(sim.pending_events(), 2);
        assert!(sim.cancel(a));
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    #[cfg(feature = "prof")]
    fn profiled_run_keeps_order_and_balances_counters() {
        let _arm = crate::alloc::TEST_ARM_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let ((plain, n_plain), _) = shard_torture_prof(8, false);
        let ((profiled, n_prof), sim) = shard_torture_prof(8, true);
        assert_eq!(plain, profiled, "profiling must not change dispatch order");
        assert_eq!(n_plain, n_prof);
        let r = sim.prof_report();
        assert!(r.enabled);
        assert_eq!(r.shards, 8);
        assert_eq!(r.events(), n_prof, "every dispatch attributed to a kind");
        assert_eq!(
            r.per_shard_events.iter().sum::<u64>(),
            n_prof,
            "every dispatch attributed to a shard"
        );
        assert_eq!(
            r.end_horizon + r.end_dirty + r.end_empty + r.end_limit,
            r.batches,
            "every batch has exactly one end cause"
        );
        assert_eq!(r.batch_len.sum, n_prof);
        assert!(r.pushes >= n_prof, "every dispatched event was pushed");
        assert!(r.pick_pops >= r.batches, "each batch needs a pick");
        // The deterministic counter section is byte-stable across reruns.
        let ((_, _), again) = shard_torture_prof(8, true);
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
        let ((_, n), sim) = shard_torture_prof(4, false);
        assert!(n > 0);
        let r = sim.prof_report();
        assert!(!r.enabled);
        assert_eq!(r.batches, 0);
        assert_eq!(r.events(), 0);
        assert_eq!(r.pushes, 0);
        assert_eq!(r.run_ns, 0);
    }

    #[test]
    fn panic_mid_batch_re_advertises_the_owned_shard() {
        // Regression for the mid-batch ownership hole: the scheduler takes a
        // shard (`advertised = None`) and own-shard pushes skip the index,
        // so a panic unwinding mid-batch must re-advertise the shard's
        // remaining minimum or those events stay invisible forever.
        let sim = Sim::new_with_shards(1, 4);
        // The first panic fires while this actor drives, the second (the
        // actor now waits on its mailbox) on the `run` caller's thread.
        sim.spawn_pinned(0, "bystander", |ctx| ctx.sleep(SimDuration::from_us(9)));
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        sim.schedule_in_on(1, SimDuration::from_us(1), |s| {
            // Mid-batch own-shard push (skips the index), then panic.
            s.schedule_in(SimDuration::from_us(1), |_| {
                panic!("should be cancelled-free")
            });
            panic!("injected");
        });
        sim.schedule_in_on(1, SimDuration::from_us(5), move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(r.is_err(), "panic must propagate");
        // Cancel the re-scheduled panic bomb, then the survivor must fire.
        // (Its EventId is unknown here; drain it by letting it panic again.)
        let r2 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(r2.is_err(), "own-shard push must also be re-advertised");
        assert_eq!(sim.run(), RunOutcome::Completed, "shard must stay visible");
        assert_eq!(hits.load(Ordering::Relaxed), 1, "survivor event must fire");
    }

    #[test]
    fn cross_shard_push_at_watermark_ends_batch_conservatively() {
        // A handler pushes cross-shard at time T and then own-shard at the
        // same T: the own-shard event carries the larger seq and must
        // dispatch *after* the cross-shard one. The watermark drain must not
        // keep draining at T.
        let run = |shards: usize| {
            let sim = Sim::new_with_shards(2, shards);
            let log = Arc::new(Mutex::new(Vec::new()));
            for node in 0..4u32 {
                let log = log.clone();
                sim.schedule_in_on(node, SimDuration::from_ns(10), move |s| {
                    let peer = (node + 1) % 4;
                    let l1 = log.clone();
                    // Cross-shard push at now+5…
                    s.schedule_in_on(peer, SimDuration::from_ns(5), move |s| {
                        l1.lock().push((s.now().as_ns(), peer, "x"));
                    });
                    // …then own-shard at the same instant (larger seq).
                    let l2 = log.clone();
                    s.schedule_in(SimDuration::from_ns(5), move |s| {
                        l2.lock().push((s.now().as_ns(), node, "o"));
                    });
                });
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.lock().clone();
            l
        };
        let single = run(1);
        for shards in [2, 4] {
            assert_eq!(single, run(shards), "order diverged at {shards} shards");
        }
    }

    // ---- migrating-driver tests --------------------------------------------

    #[test]
    fn run_until_limit_on_an_actor_thread_resumes_with_the_same_order() {
        // The limit falls inside a batch the sleeping actor is draining.
        let go = |split: Option<u64>| {
            let sim = Sim::new_with_shards(4, 2);
            let log = Arc::new(Mutex::new(Vec::new()));
            let l = log.clone();
            sim.spawn_pinned(0, "a", move |ctx| {
                for i in 0..4u64 {
                    ctx.sleep(SimDuration::from_ns(30));
                    l.lock().push((ctx.now().as_ns(), i));
                }
            });
            for k in 0..12u64 {
                let l = log.clone();
                sim.schedule_in_on(k as u32 % 2, SimDuration::from_ns(10 * k + 5), move |s| {
                    l.lock().push((s.now().as_ns(), 100 + k));
                });
            }
            if let Some(t) = split {
                assert_eq!(sim.run_until(SimTime::from_ns(t)), RunOutcome::Pending);
                assert_eq!(sim.now().as_ns(), t);
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.lock().clone();
            l
        };
        assert_eq!(go(None), go(Some(47)));
    }

    #[test]
    fn finished_actor_keeps_driving_until_the_queue_drains() {
        // The body returns at t=0 holding the baton; the pending handler
        // must still run (on that thread) and the thread must then exit.
        let sim = Sim::new(1);
        let ran_on = Arc::new(Mutex::new(None));
        let r = ran_on.clone();
        sim.spawn("brief", |_| {});
        sim.schedule_in(SimDuration::from_us(3), move |_| {
            *r.lock() = Some(std::thread::current().id());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let join = sim.inner.actors.lock()[0].join.take().unwrap();
        assert_eq!(*ran_on.lock(), Some(join.thread().id()));
        join.join().expect("actor thread exits cleanly");
    }

    #[test]
    fn self_wake_takes_no_hand_off() {
        // While the only live actor sleeps, handlers run on its thread and
        // its own wakeup just returns from `park`.
        let sim = Sim::new(1);
        let ids = Arc::new(Mutex::new(Vec::new()));
        let (i1, i2) = (ids.clone(), ids.clone());
        sim.spawn("only", move |ctx| {
            ctx.sim().schedule_in(SimDuration::from_us(1), move |_| {
                i1.lock().push(std::thread::current().id());
            });
            ctx.sleep(SimDuration::from_us(2));
            i2.lock().push(std::thread::current().id());
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
        let ids = ids.lock();
        assert_eq!((ids.len(), ids[0]), (2, ids[1]));
        assert_ne!(ids[0], std::thread::current().id());
    }

    #[test]
    fn mixed_actor_signal_timeout_order_is_shard_count_invariant() {
        // Even nodes sleep, then notify from a cross-shard call; odd nodes
        // wait with a timeout the notify sometimes beats, so both sources
        // leave stale wakes behind.
        let go = |shards: usize| {
            let sim = Sim::new_with_shards(6, shards);
            let sig = crate::signal::Signal::new(&sim);
            let log = Arc::new(Mutex::new(Vec::new()));
            for n in 0..6u32 {
                let (sig, log) = (sig.clone(), log.clone());
                sim.spawn_pinned(n, format!("n{n}"), move |ctx| {
                    for k in 0..5u32 {
                        if n % 2 == 1 {
                            let d = SimDuration::from_ns(4 + 5 * u64::from(n));
                            let hit = sig.wait_timeout(ctx, d);
                            log.lock().push((ctx.now().as_ns(), n, k, hit));
                            continue;
                        }
                        ctx.sleep(SimDuration::from_ns(15 + 3 * u64::from(n)));
                        log.lock().push((ctx.now().as_ns(), n, k, false));
                        let (sig, log) = (sig.clone(), log.clone());
                        let d = SimDuration::from_ns(u64::from(k % 2));
                        ctx.sim().schedule_in_on(n + 1, d, move |s| {
                            log.lock().push((s.now().as_ns(), 100 + n, k, false));
                            sig.notify();
                        });
                    }
                });
            }
            assert_eq!(sim.run(), RunOutcome::Completed);
            let l = log.lock().clone();
            l
        };
        let one = go(1);
        let waits = || one.iter().filter(|e| e.1 % 2 == 1);
        assert!(waits().any(|e| e.3) && waits().any(|e| !e.3));
        assert_eq!(one, go(3));
        assert_eq!(one, go(6));
    }
}

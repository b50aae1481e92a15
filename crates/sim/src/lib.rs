//! # suca-sim — deterministic discrete-event engine
//!
//! Foundation of the Semi-User-Level Communication Architecture
//! reproduction (Meng et al., IPPS 2002). Every hardware model (PCI bus,
//! Myrinet NIC/switch, DMA engine) and every OS cost (trap, interrupt) is
//! simulated on a virtual nanosecond clock driven by this engine, so the
//! paper's microsecond-scale timelines can be regenerated exactly and
//! reproducibly.
//!
//! Two execution styles coexist:
//!
//! * **Event handlers** — hardware components are state machines that
//!   schedule boxed closures ([`Sim::schedule_in`]).
//! * **Actors** — application processes (the code calling the BCL/MPI APIs)
//!   are ordinary blocking Rust ([`Sim::spawn`], [`ActorCtx`]), each on a
//!   stackful coroutine of its own. The whole simulation runs on the thread
//!   that calls [`Sim::run`]: the event loop runs on its stack and switches
//!   into an actor for each of the actor's wakeups, so exactly one stack
//!   runs at a time and execution stays deterministic.
//!
//! ```
//! use suca_sim::{Sim, SimDuration, Signal, RunOutcome};
//!
//! let sim = Sim::new(42);
//! let sig = Signal::new(&sim);
//! let sig2 = sig.clone();
//! sim.spawn("consumer", move |ctx| {
//!     sig2.wait(ctx);                      // blocks until notified
//!     assert_eq!(ctx.now().as_us(), 3.0);
//! });
//! sim.schedule_in(SimDuration::from_us(3), move |_| sig.notify());
//! assert_eq!(sim.run(), RunOutcome::Completed);
//! ```

#![warn(missing_docs)]

pub mod alloc;

mod actor;
mod coro;
mod engine;
mod rng;
mod signal;
mod telemetry;
mod time;

pub use actor::{ActorCtx, ActorId};
pub use engine::{EventId, PollerId, RunOutcome, Sim};
pub use rng::SimRng;
pub use signal::{Semaphore, Signal};
pub use telemetry::TelemetryConfig;
pub use time::{SimDuration, SimTime};

// Re-export the observability layer so components taking a `Sim` handle can
// hold typed instrument handles without a separate suca-obs dependency.
pub use suca_obs::{Counter, Gauge, Histogram, Metrics, MetricsSnapshot};

// The one artifact writer (see `suca_obs::artifact`), for report types in
// crates that depend on the engine only.
pub use suca_obs::artifact;

// Per-message causal tracing (see `suca_obs::trace`): the event model and
// the flight-recorder ring.
pub use suca_obs::trace as mtrace;
pub use suca_obs::trace::{MsgTracer, SampleSpec, TraceEvent, TraceId, TraceLayer, TracePhase};

// Continuous telemetry (probe rings), per-message critical-path analysis,
// and the stall watchdog (see the matching suca-obs modules).
pub use suca_obs::critpath;
pub use suca_obs::timeseries;
pub use suca_obs::timeseries::{TimeSeries, TimeSeriesSnapshot, FABRIC_NODE};
pub use suca_obs::watchdog::{Stall, Watchdog, WatchdogConfig};

// Online health engine (see `suca_obs::health`): streaming SLO windows,
// burn-rate/saturation/rate rules, and the alert lifecycle driven from the
// telemetry tick ([`Sim::install_health`] / [`Sim::health`]).
pub use suca_obs::health;
pub use suca_obs::health::{
    AlertRecord, AlertReport, DetectionSpec, HealthEngine, HealthRule, RuleKind,
};

// Engine self-profiler (see `suca_obs::prof`): the scheduler bumps these
// counters/timers when profiling is on ([`Sim::set_profiling`]).
pub use suca_obs::prof;
pub use suca_obs::prof::{EngineProf, ProfReport};

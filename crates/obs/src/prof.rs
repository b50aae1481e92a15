//! Engine self-profiler.
//!
//! PRs 2–3 instrumented the *simulated machine*; nothing measured the
//! *simulator*. This module holds the counters and wall-clock accumulators
//! the scheduler (`suca-sim`'s engine) bumps while it runs, so a slow
//! 512-node sweep can explain its own slowdown:
//!
//! * **dispatch cost** — per-event-kind (closure / actor wake / poller)
//!   counts, wall time, and heap allocations attributed by reading the
//!   counting allocator around each dispatch;
//! * **scheduler wall clock** — the run loop's time split into named
//!   phases (queue pop, dispatch by kind) so a report can state what
//!   fraction of the wall clock is attributed.
//!
//! Lock accounting is phase-based: `lock_acquisitions` counts every
//! event-queue borrow the pop phase takes, while `lock_hold_ns` is the pop
//! phase's wall time — it runs entirely inside the queue borrow (dispatch
//! never does).
//!
//! The profiler is **off by default**. Disabled cost is one `Cell` read per
//! hook. Counters in [`ProfReport::counters_json`]
//! are deterministic for a fixed seed (they follow the dispatch schedule);
//! wall-clock and allocation numbers are not and live in separate JSON
//! sections.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Event-kind index for closure events.
pub const KIND_CALL: usize = 0;
/// Event-kind index for actor wakeups.
pub const KIND_WAKE: usize = 1;
/// Event-kind index for poller ticks.
pub const KIND_POLL: usize = 2;

const KIND_NAMES: [&str; 3] = ["call", "wake", "poll"];

#[derive(Default)]
struct ProfShared {
    enabled: Cell<bool>,
    dispatch_count: [Cell<u64>; 3],
    dispatch_ns: [Cell<u64>; 3],
    alloc_count: [Cell<u64>; 3],
    alloc_bytes: [Cell<u64>; 3],
    run_ns: Cell<u64>,
    pop_ns: Cell<u64>,
    lock_acquisitions: Cell<u64>,
}

/// Add `n` to a profiler cell.
#[inline]
fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get().wrapping_add(n));
}

/// Shared handle to one engine's profiler state. Cloning shares the cells;
/// every hook is a plain add on the engine's thread.
#[derive(Clone, Default)]
pub struct EngineProf {
    inner: Rc<ProfShared>,
}

impl EngineProf {
    /// Fresh, disabled profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is profiling on? The engine checks this once per hook.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Turn profiling on/off. Accumulated numbers are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// `n` scheduler-side queue borrows.
    #[inline]
    pub fn lock_acq(&self, n: u64) {
        bump(&self.inner.lock_acquisitions, n);
    }

    /// One dispatched event of `kind` that took `ns` wall nanoseconds and
    /// made `allocs` heap allocations totalling `alloc_bytes`.
    #[inline]
    pub fn dispatch(&self, kind: usize, ns: u64, allocs: u64, alloc_bytes: u64) {
        let s = &self.inner;
        bump(&s.dispatch_count[kind], 1);
        bump(&s.dispatch_ns[kind], ns);
        bump(&s.alloc_count[kind], allocs);
        bump(&s.alloc_bytes[kind], alloc_bytes);
    }

    /// Add wall time to the queue-pop phase (runs inside the queue borrow).
    #[inline]
    pub fn add_pop_ns(&self, ns: u64) {
        bump(&self.inner.pop_ns, ns);
    }

    /// Add wall time to the whole run loop.
    #[inline]
    pub fn add_run_ns(&self, ns: u64) {
        bump(&self.inner.run_ns, ns);
    }

    /// Total events dispatched while profiling (all kinds).
    pub fn events(&self) -> u64 {
        self.inner.dispatch_count.iter().map(Cell::get).sum()
    }

    /// Point-in-time report.
    pub fn report(&self) -> ProfReport {
        let s = &self.inner;
        let ld = Cell::get;
        ProfReport {
            enabled: self.enabled(),
            cross_shard_pushes: 0,
            dispatch_count: s.dispatch_count.each_ref().map(ld),
            dispatch_ns: s.dispatch_ns.each_ref().map(ld),
            alloc_count: s.alloc_count.each_ref().map(ld),
            alloc_bytes: s.alloc_bytes.each_ref().map(ld),
            run_ns: ld(&s.run_ns),
            pop_ns: ld(&s.pop_ns),
            lock_acquisitions: ld(&s.lock_acquisitions),
        }
    }
}

/// Point-in-time copy of every profiler cell, serializable as JSON.
#[derive(Clone, Debug)]
pub struct ProfReport {
    /// Was profiling on when the report was taken?
    pub enabled: bool,
    /// Always 0. Exists only because `benchmark/` reads it; goes with the
    /// `sim.cross_shard_pushes` per-layer row in the next benchmark PR.
    pub cross_shard_pushes: u64,
    /// Dispatched events by kind (`[call, wake, poll]`).
    pub dispatch_count: [u64; 3],
    /// Dispatch wall nanoseconds by kind.
    pub dispatch_ns: [u64; 3],
    /// Heap allocations made during dispatch, by kind.
    pub alloc_count: [u64; 3],
    /// Heap bytes allocated during dispatch, by kind.
    pub alloc_bytes: [u64; 3],
    /// Run-loop wall nanoseconds.
    pub run_ns: u64,
    /// Queue-pop phase wall nanoseconds (inside the queue borrow).
    pub pop_ns: u64,
    /// Scheduler-side queue borrows.
    pub lock_acquisitions: u64,
}

impl ProfReport {
    /// Total dispatched events (all kinds).
    pub fn events(&self) -> u64 {
        self.dispatch_count.iter().sum()
    }

    /// Always `events()`. Exists only because `benchmark/` reads it; goes
    /// with the `sim.mean_batch_len` per-layer row in the next benchmark PR.
    pub fn mean_batch_len(&self) -> f64 {
        self.events() as f64
    }

    /// Wall nanoseconds attributed to a named phase (pop, per-kind
    /// dispatch).
    pub fn attributed_ns(&self) -> u64 {
        self.pop_ns + self.dispatch_ns.iter().sum::<u64>()
    }

    /// Percentage of the run loop's wall clock attributed to named phases
    /// (100.0 when the loop never ran).
    pub fn attributed_pct(&self) -> f64 {
        if self.run_ns == 0 {
            100.0
        } else {
            self.attributed_ns() as f64 / self.run_ns as f64 * 100.0
        }
    }

    /// Scheduler lock-hold wall nanoseconds (the pop phase runs entirely
    /// inside the queue borrow).
    pub fn lock_hold_ns(&self) -> u64 {
        self.pop_ns
    }

    fn write_counters(&self, out: &mut String, indent: &str) {
        let _ = write!(out, "{indent}\"dispatch\": {{");
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {}",
                if i == 0 { "" } else { ", " },
                self.dispatch_count[i]
            );
        }
        out.push('}');
    }

    /// The deterministic (schedule-following) counters only — what the
    /// determinism tests byte-compare. No wall clock, no allocator numbers.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{\n");
        self.write_counters(&mut out, "  ");
        out.push_str("\n}\n");
        out
    }

    /// Full report: deterministic counters plus wall-clock and allocation
    /// sections (those vary run to run).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"schema\": \"suca.prof.v2\",\n  \"enabled\": {},\n  \"counters\": {{\n",
            self.enabled
        );
        self.write_counters(&mut out, "    ");
        out.push_str("\n  },\n  \"wall\": {\n");
        let _ = write!(
            out,
            "    \"run_ns\": {},\n    \"pop_ns\": {},\n",
            self.run_ns, self.pop_ns
        );
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let _ = writeln!(out, "    \"dispatch_{name}_ns\": {},", self.dispatch_ns[i]);
        }
        let _ = write!(
            out,
            "    \"attributed_ns\": {},\n    \"attributed_pct\": {:.1},\n    \
             \"lock_acquisitions\": {},\n    \"lock_hold_ns\": {}\n  }},\n  \"alloc\": {{",
            self.attributed_ns(),
            self.attributed_pct(),
            self.lock_acquisitions,
            self.lock_hold_ns(),
        );
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"count\": {}, \"bytes\": {}}}",
                if i == 0 { "" } else { ", " },
                self.alloc_count[i],
                self.alloc_bytes[i]
            );
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_prof() -> EngineProf {
        let p = EngineProf::new();
        p.set_enabled(true);
        p.dispatch(KIND_CALL, 100, 2, 64);
        p.dispatch(KIND_WAKE, 5000, 0, 0);
        p.dispatch(KIND_POLL, 50, 0, 0);
        p.add_pop_ns(50);
        p.add_run_ns(6000);
        p.lock_acq(7);
        p
    }

    #[test]
    fn counters_accumulate_and_report() {
        let r = sample_prof().report();
        assert_eq!(r.events(), 3);
        assert_eq!(r.dispatch_count, [1, 1, 1]);
        assert_eq!(r.alloc_count, [2, 0, 0]);
        assert_eq!(r.lock_acquisitions, 7);
        assert_eq!(r.lock_hold_ns(), 50);
        // 50 + 5150 of 6000 ns attributed.
        assert_eq!(r.attributed_ns(), 5200);
        assert!(
            (r.attributed_pct() - 86.7).abs() < 0.1,
            "{}",
            r.attributed_pct()
        );
    }

    #[test]
    fn report_json_is_balanced_and_schema_tagged() {
        let j = sample_prof().report().to_json();
        assert!(j.contains("\"schema\": \"suca.prof.v2\""));
        assert!(j.contains("\"dispatch\": {\"call\": 1, \"wake\": 1, \"poll\": 1}"));
        assert!(j.contains("\"attributed_pct\""));
        assert_eq!(crate::validate_json(&j), Ok(()));
    }

    #[test]
    fn counters_json_excludes_wall_clock() {
        let j = sample_prof().report().counters_json();
        assert!(j.contains("\"wake\": 1"));
        assert!(!j.contains("_ns\""), "wall-clock leaked into {j}");
        assert!(!j.contains("alloc"), "allocator numbers leaked into {j}");
    }

    #[test]
    fn empty_report_is_sane() {
        let r = EngineProf::new().report();
        assert_eq!(r.events(), 0);
        assert_eq!(r.attributed_pct(), 100.0);
    }
}

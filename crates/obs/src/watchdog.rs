//! Stall watchdog: turns "the simulation silently degraded" into a
//! first-class, dumped, counted event.
//!
//! One stall signal, checked from the simulator's telemetry tick: a traced
//! message recorded an [`stage::SEND`](crate::trace::stage::SEND) but no
//! terminal stage, and has been *silent* — no event of its chain — for
//! longer than a configurable sim-time budget. The budget measures silence
//! since the chain's newest event, not its age: a live go-back-N loop
//! toward a dead path records an `mcp:probe` on the stalled chain every
//! probe interval (at most the 300 µs default `retransmit_timeout`), so it
//! stays invisible to any budget above that.
//!
//! A resource at its capacity is load, not a fault: runs that want an
//! alert on it install a `saturation` rule ([`crate::health`]).
//!
//! On the first stall the watchdog dumps the flight recorder
//! ([`MsgTracer::dump_once`]) and the last telemetry window to stderr;
//! every distinct stalled chain increments the `watchdog.stalls` counter
//! exactly once, so clean runs can assert `watchdog.stalls == 0`.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

use crate::timeseries::TimeSeries;
use crate::trace::{is_terminal, stage, MsgTracer, TraceId};
use crate::{Counter, Metrics};

/// Stall thresholds. The defaults are deliberately generous: they must stay
/// silent across every clean harness (including 128 KB bandwidth sweeps
/// where a single message legitimately lives for ~1 ms of virtual time)
/// while still firing within a bounded sim-time on a genuinely wedged run.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Flag a chain whose newest event is older than this and which never
    /// reached a terminal stage (virtual nanoseconds).
    pub chain_budget_ns: u64,
    /// Run the (comparatively expensive) checks every N sampling ticks.
    pub check_every: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // 250 ms of virtual time: ~250× the longest clean message
            // lifetime observed across the repro harnesses.
            chain_budget_ns: 250_000_000,
            check_every: 50,
        }
    }
}

struct WatchState {
    flagged_chains: BTreeSet<(u32, u32)>,
    telemetry_dumped: bool,
}

/// What a check needs of one chain: all it reads of its events.
#[derive(Default)]
struct ChainMark {
    /// A [`stage::SEND`] survives in the rings.
    sent: bool,
    /// It reached an [`is_terminal`] stage.
    closed: bool,
    /// End time of its newest event.
    last_ns: u64,
}

/// One detected stall, reported by [`Watchdog::check`]: a traced message
/// chain recorded a send but no terminal stage and has been silent past the
/// budget. The telemetry driver forwards these to the health engine, where
/// they surface as immediately-firing `watchdog.chain` alerts; the
/// `watchdog.stalls` counter and the stderr/flight-recorder response are
/// unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stall {
    /// Origin node of the stuck message.
    pub origin: u32,
    /// Message id within the origin.
    pub msg_id: u32,
    /// Sim-time since the chain's newest event.
    pub age_ns: u64,
}

/// The stall detector. One per simulation, driven by the telemetry tick.
pub struct Watchdog {
    cfg: WatchdogConfig,
    stalls: Counter,
    state: RefCell<WatchState>,
}

impl Watchdog {
    /// Build a watchdog and register its `watchdog.stalls` counter (so the
    /// zero shows up in every snapshot — "0 stalls" is the clean-run
    /// claim).
    pub fn new(cfg: WatchdogConfig, metrics: &Metrics) -> Self {
        Watchdog {
            cfg,
            stalls: metrics.counter("watchdog.stalls"),
            state: RefCell::new(WatchState {
                flagged_chains: BTreeSet::new(),
                telemetry_dumped: false,
            }),
        }
    }

    /// Stalls counted so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Check for open chains silent past the budget at virtual time
    /// `now_ns`. Returns the *new* stalls (each distinct chain is reported
    /// once). A chain whose SEND survives in the bounded ring is by
    /// construction recent enough to judge; once the SEND is evicted the
    /// chain is skipped (eviction is oldest-first, so a terminal can never
    /// be evicted before its send). The rings are read in place, and only
    /// the chains over budget are sorted, by id.
    pub fn check(&self, now_ns: u64, tracer: &MsgTracer, series: &TimeSeries) -> Vec<Stall> {
        let mut marks: HashMap<TraceId, ChainMark> = HashMap::new();
        tracer.for_each_event(|ev| {
            if ev.trace.is_none() {
                return;
            }
            let mark = marks.entry(ev.trace).or_default();
            mark.sent |= ev.stage == stage::SEND;
            mark.closed |= is_terminal(&ev.stage);
            mark.last_ns = mark.last_ns.max(ev.end_ns);
        });
        let mut over: Vec<(TraceId, u64)> = marks
            .into_iter()
            .filter(|(_, m)| m.sent && !m.closed)
            .map(|(trace, m)| (trace, now_ns.saturating_sub(m.last_ns)))
            .filter(|&(_, age)| age > self.cfg.chain_budget_ns)
            .collect();
        over.sort_unstable_by_key(|&(trace, _)| trace);
        let mut new_stalls = Vec::new();
        for (trace, age) in over {
            let fresh = {
                let mut st = self.state.borrow_mut();
                st.flagged_chains.insert((trace.origin, trace.msg_id))
            };
            if fresh {
                self.stalls.inc();
                new_stalls.push(Stall {
                    origin: trace.origin,
                    msg_id: trace.msg_id,
                    age_ns: age,
                });
                self.trip(
                    &format!(
                        "watchdog: chain (origin {}, msg {}) open for {age} ns \
                         (budget {} ns) at t={now_ns} ns",
                        trace.origin, trace.msg_id, self.cfg.chain_budget_ns
                    ),
                    tracer,
                    series,
                );
            }
        }
        new_stalls
    }

    /// Stall response: one flight-recorder dump per run (the tracer's
    /// one-shot), one telemetry-window dump per run, and a stderr line per
    /// stall.
    fn trip(&self, reason: &str, tracer: &MsgTracer, series: &TimeSeries) {
        eprintln!("[watchdog] {reason}");
        tracer.dump_once(reason);
        let dump_window = {
            let mut st = self.state.borrow_mut();
            !std::mem::replace(&mut st.telemetry_dumped, true)
        };
        if dump_window {
            eprintln!("==== telemetry window (last 16 samples per probe) ====");
            eprint!("{}", series.render_last_window(16));
            eprintln!("==== end telemetry window ====");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{chains, TraceEvent, TraceLayer};

    fn open_chain(tracer: &MsgTracer, msg: u32, at_ns: u64) {
        let t = TraceId::new(0, msg);
        tracer.record(TraceEvent::span(
            t,
            0,
            TraceLayer::Library,
            stage::SEND,
            at_ns,
            at_ns + 100,
        ));
        tracer.record(
            TraceEvent::span(
                t,
                0,
                TraceLayer::Mcp,
                stage::INJECT,
                at_ns + 100,
                at_ns + 150,
            )
            .with_seq(0),
        );
    }

    #[test]
    fn open_chain_over_budget_counts_once() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000,
                check_every: 1,
            },
            &m,
        );
        open_chain(&tracer, 2, 0);
        assert!(wd.check(500, &tracer, &ts).is_empty(), "within budget");
        let stalls = wd.check(5_000, &tracer, &ts);
        assert_eq!(stalls.len(), 1, "over budget");
        assert!(
            matches!(
                stalls[0],
                Stall {
                    origin: 0,
                    msg_id: 2,
                    ..
                }
            ),
            "stall identifies the chain: {stalls:?}"
        );
        assert!(
            wd.check(9_000, &tracer, &ts).is_empty(),
            "same chain not recounted"
        );
        assert_eq!(wd.stalls(), 1);
        assert_eq!(m.get("watchdog.stalls"), 1);
        assert!(tracer.has_dumped(), "flight recorder tripped");
    }

    #[test]
    fn closed_chain_never_stalls() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000,
                check_every: 1,
            },
            &m,
        );
        open_chain(&tracer, 2, 0);
        tracer.record(TraceEvent::instant(
            TraceId::new(0, 2),
            1,
            TraceLayer::Library,
            stage::POLL_RECV,
            400,
        ));
        assert!(wd.check(1_000_000, &tracer, &ts).is_empty());
        assert_eq!(wd.stalls(), 0);
        assert!(!tracer.has_dumped());
    }

    #[test]
    fn chain_signal_measures_silence_since_newest_event() {
        let m = Metrics::new();
        let tracer = MsgTracer::new();
        let ts = TimeSeries::new();
        let wd = Watchdog::new(
            WatchdogConfig {
                chain_budget_ns: 1_000_000,
                check_every: 1,
            },
            &m,
        );
        // A live go-back-N loop: the chain never closes, but it records an
        // event every 300 µs (a resend here; a probe at the default
        // ceiling). Open for 6 ms, it is never 1 ms silent, so it is never
        // flagged.
        open_chain(&tracer, 2, 0);
        let mut last = 0;
        for k in 1..=20u64 {
            last = k * 300_000;
            tracer.record(
                TraceEvent::span(
                    TraceId::new(0, 2),
                    0,
                    TraceLayer::Mcp,
                    stage::RETX,
                    last,
                    last + 50,
                )
                .with_seq(0),
            );
            assert!(
                wd.check(last + 299_000, &tracer, &ts).is_empty(),
                "retx {k}"
            );
        }
        assert_eq!(wd.stalls(), 0);
        // The retransmissions stop: flagged once the silence passes 1 ms.
        assert!(wd.check(last + 1_000_000, &tracer, &ts).is_empty());
        let stalls = wd.check(last + 1_100_000, &tracer, &ts);
        assert_eq!(
            stalls,
            [Stall {
                origin: 0,
                msg_id: 2,
                age_ns: 1_100_000 - 50,
            }]
        );
        assert_eq!(wd.stalls(), 1);
    }

    /// The check as first written, kept as the reference the in-place one
    /// must match: clone and sort every event, group all of them into
    /// chains, and walk the chains in id order.
    fn reference_check(
        flagged: &mut BTreeSet<(u32, u32)>,
        budget_ns: u64,
        now_ns: u64,
        tracer: &MsgTracer,
    ) -> Vec<Stall> {
        let events = tracer.events();
        let mut stalls = Vec::new();
        for chain in chains(&events) {
            if chain.send.is_none() || chain.closed() {
                continue;
            }
            let (trace, age) = (chain.trace, now_ns.saturating_sub(chain.last_ns));
            if age > budget_ns && flagged.insert((trace.origin, trace.msg_id)) {
                stalls.push(Stall {
                    origin: trace.origin,
                    msg_id: trace.msg_id,
                    age_ns: age,
                });
            }
        }
        stalls
    }

    #[test]
    fn in_place_check_matches_the_clone_and_sort_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let stages = [
            stage::SEND,
            stage::INJECT,
            stage::RETX,
            stage::POLL_RECV,
            stage::POLL_SEND,
            stage::MSG_FAILED,
            stage::DROP_NO_PORT,
            stage::DROP_NO_BUFFER,
        ];
        let mut stalls_seen = 0;
        for case in 0..300 {
            // Rings of at most 24 events, so SENDs are often evicted ahead
            // of the rest of their chain.
            let tracer = MsgTracer::with_capacity(1 + next(24) as usize);
            let (m, ts) = (Metrics::new(), TimeSeries::new());
            let budget = 500 + next(3_000);
            let cfg = WatchdogConfig {
                chain_budget_ns: budget,
                check_every: 1,
            };
            let wd = Watchdog::new(cfg, &m);
            let mut flagged = BTreeSet::new();
            let mut now = 0;
            for _ in 0..6 {
                for _ in 0..next(40) {
                    let trace = match next(10) {
                        0 => TraceId::NONE,
                        _ => TraceId::new(next(3) as u32, next(8) as u32),
                    };
                    let stage = stages[next(stages.len() as u64) as usize];
                    let start = now + next(2_000);
                    let (node, end) = (next(4) as u32, start + next(400));
                    let layer = TraceLayer::Mcp;
                    tracer.record(TraceEvent::span(trace, node, layer, stage, start, end));
                }
                now += next(4_000);
                let want = reference_check(&mut flagged, budget, now, &tracer);
                assert_eq!(wd.check(now, &tracer, &ts), want, "case {case} at {now} ns");
                stalls_seen += want.len();
            }
            assert_eq!(wd.stalls(), flagged.len() as u64);
        }
        assert!(
            stalls_seen > 100,
            "{stalls_seen} stalls: the comparison is weak"
        );
    }
}

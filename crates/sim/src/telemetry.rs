//! The continuous-telemetry tick: a self-rescheduling sim event that
//! samples every registered probe on a fixed virtual-time period and
//! periodically runs the stall watchdog.
//!
//! Everything here is driven by the sim clock — no wall-clock reads — so
//! with a fixed seed the exported timeseries is byte-identical across runs.
//!
//! Termination: a recurring event would keep an otherwise-finished run
//! alive forever, so each tick checks [`Sim::pending_events`] *after*
//! sampling. If the tick was the only thing left in the queue, the run is
//! over: take the final sample and stop rescheduling. Livelocked runs (a
//! wedged retransmission loop, say) always have pending timer events, so
//! the sampler — and with it the watchdog — stays alive exactly when it is
//! needed.

use std::cell::Cell;
use std::rc::Rc;

use suca_obs::watchdog::{Watchdog, WatchdogConfig};

use crate::engine::Sim;
use crate::time::SimDuration;

/// How the telemetry sampler and stall watchdog are armed for a run.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Virtual time between probe samples.
    pub sample_period: SimDuration,
    /// Stall thresholds (chain budget, check cadence).
    pub watchdog: WatchdogConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            // 10 µs: fine enough to catch queue transients at the paper's
            // 7 µs host overhead scale, coarse enough that a 100 ms run
            // stays within the bounded rings.
            sample_period: SimDuration::from_us(10),
            watchdog: WatchdogConfig::default(),
        }
    }
}

struct Driver {
    cfg: TelemetryConfig,
    watchdog: Watchdog,
    ticks: Cell<u64>,
}

impl Driver {
    fn tick(self: Rc<Self>, sim: &Sim) {
        let now_ns = sim.now().as_ns();
        sim.timeseries().sample_all(now_ns);
        // Health evaluation rides the same tick, after sampling so
        // saturation rules see this tick's probe levels. No-op unless the
        // harness installed rules.
        sim.health()
            .on_tick(now_ns, sim.timeseries(), sim.msg_trace());
        let tick = self.ticks.get() + 1;
        self.ticks.set(tick);
        let every = self.cfg.watchdog.check_every.max(1) as u64;
        if tick.is_multiple_of(every) {
            let stalls = self
                .watchdog
                .check(now_ns, sim.msg_trace(), sim.timeseries());
            sim.health().note_stalls(now_ns, &stalls, sim.msg_trace());
        }
        // The tick popped itself off the queue before running, so an empty
        // queue here means nothing else will ever happen: stop.
        if sim.pending_events() == 0 {
            return;
        }
        let period = self.cfg.sample_period;
        sim.schedule_in(period, move |s| self.tick(s));
    }
}

impl Sim {
    /// Arm the telemetry sampler and stall watchdog. Idempotent: only the
    /// first call per simulation schedules the tick (cluster builders call
    /// this unconditionally). The first sample lands one period after the
    /// call; the sampler stops itself once the event queue drains.
    pub fn start_telemetry(&self, cfg: TelemetryConfig) {
        if self.inner().telemetry_started.replace(true) {
            return;
        }
        let driver = Rc::new(Driver {
            watchdog: Watchdog::new(cfg.watchdog.clone(), &self.metrics()),
            cfg,
            ticks: Cell::new(0),
        });
        let period = driver.cfg.sample_period;
        self.schedule_in(period, move |s| driver.tick(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunOutcome;
    use crate::time::SimTime;

    #[test]
    fn sampler_samples_on_the_sim_clock_and_stops_at_drain() {
        let sim = Sim::new(1);
        let g = sim.metrics().gauge("work.depth");
        let g2 = g.clone();
        sim.timeseries()
            .register("n0.work.depth", 0, None, move |_| g2.get());
        // 95 µs of real work: gauge ramps up then down.
        for i in 0..95u64 {
            let g3 = g.clone();
            sim.schedule_in(SimDuration::from_us(i), move |_| g3.set(i % 7));
        }
        sim.start_telemetry(TelemetryConfig::default());
        sim.start_telemetry(TelemetryConfig::default()); // second call is a no-op
        assert_eq!(sim.run(), RunOutcome::Completed);
        let snap = sim.timeseries().snapshot();
        let series = snap.series("n0.work.depth").expect("probe sampled");
        assert!(
            snap.samples_taken >= 9,
            "expected ~10 samples, got {}",
            snap.samples_taken
        );
        // Sim timestamps, strictly monotone, on the 10 µs grid.
        for w in series.points.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(series.points.iter().all(|(t, _)| t % 10_000 == 0));
        // The sampler stopped itself: the run completed (no livelock) and
        // time did not run past the workload by more than one period.
        assert!(sim.now() <= SimTime::from_ns(95_000 + 10_000));
    }

    #[test]
    fn fixed_seed_gives_byte_identical_timeseries_json() {
        let run = || {
            let sim = Sim::new(7);
            let c = sim.metrics().counter("ticks");
            let c2 = c.clone();
            sim.timeseries()
                .register("n0.ticks", 0, None, move |_| c2.get());
            for i in 0..40u64 {
                let c3 = c.clone();
                sim.schedule_in(SimDuration::from_us(i * 3), move |_| c3.inc());
            }
            sim.start_telemetry(TelemetryConfig::default());
            sim.run();
            sim.timeseries().snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn full_resource_is_watched_by_saturation_not_the_watchdog() {
        let sim = Sim::new(1);
        sim.timeseries()
            .register("n0.nic.sram_used", 0, Some(64), |_| 64);
        sim.install_health(vec![suca_obs::health::HealthRule::saturation(
            "sram_full",
            "nic.sram_used",
            900_000,
            500_000,
        )]);
        // Held at capacity for over 10x the 512 samples (10 µs apart) the
        // watchdog once counted as a stall.
        sim.schedule_in(SimDuration::from_us(5_200 * 10), |_| {});
        sim.start_telemetry(TelemetryConfig::default());
        sim.run();
        assert!(sim.timeseries().samples_taken() >= 5_120);
        assert_eq!(sim.get_count("watchdog.stalls"), 0, "load is not a stall");
        assert_eq!(sim.health().fired_count(), 1, "one saturation alert");
        assert_eq!(sim.health().alerts()[0].scope, "n0.nic.sram_used");
    }

    #[test]
    fn watchdog_counter_registered_on_clean_run() {
        let sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_us(50), |_| {});
        sim.start_telemetry(TelemetryConfig::default());
        sim.run();
        assert_eq!(sim.get_count("watchdog.stalls"), 0);
    }
}

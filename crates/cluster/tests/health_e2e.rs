//! End-to-end tests for the online health engine (`suca-obs::health`).
//!
//! A synthetic RPC completion stream is scheduled as plain sim events at
//! known offsets past each sampler tick boundary, so the SLO windows see an
//! exactly scripted healthy → all-errors → healthy timeline. This pins down
//! the three properties the harnesses rely on:
//!
//! 1. **Determinism** — the `suca.health.v1` report is byte-identical
//!    across reruns of the same seed.
//! 2. **Clean silence** — a healthy feed fires nothing.
//! 3. **Lifecycle** — an error burst fires exactly the burn-rate rule
//!    (pending → firing), and the alert resolves once the feed recovers.

use suca_cluster::ClusterSpec;
use suca_sim::{HealthRule, RunOutcome, SimTime};

/// Default telemetry sample period (see `TelemetryConfig::default`).
const TICK_NS: u64 = 10_000;

/// Small windows so the scripted ~40-tick run exercises the full alert
/// lifecycle: breach at >10% errors (5% budget × factor 2) over a 3-tick
/// short and 6-tick long window, fire after 2 breached ticks, clear after 3
/// healthy ones.
fn rules() -> Vec<HealthRule> {
    vec![HealthRule::burn_rate("rpc.err_burn", None, 50_000, 2, 3, 6, 5).with_lifecycle(2, 3)]
}

/// Build a 4-node cluster, script the completion feed, run to quiescence,
/// and return the health report JSON.
///
/// `errors` injects an all-errors band during ticks 10..20; otherwise every
/// completion is Ok. Ten completions land 1 ns (+i) past each tick
/// boundary, so each closed tick window holds exactly ten events.
fn run_synthetic(errors: bool) -> String {
    let c = ClusterSpec::dawning3000(4).with_health(rules()).build();
    let sim = c.sim.clone();
    for tick in 0..40u64 {
        let fail_band = errors && (10..20).contains(&tick);
        for i in 0..10u64 {
            let ok = !fail_band;
            sim.schedule_at(SimTime::from_ns(tick * TICK_NS + 1 + i), move |s| {
                s.health().observe_rpc(0, 0, ok, 1_500 + i * 100);
            });
        }
    }
    // Keep-alive: the sampler stops once the event queue drains, so park a
    // no-op far enough out that the alert has time to resolve (clear needs
    // 3 healthy ticks after the long window flushes the error band).
    sim.schedule_at(SimTime::from_ns(45 * TICK_NS), |_| {});
    assert_eq!(sim.run(), RunOutcome::Completed);
    let variant = if errors { "overload" } else { "clean" };
    let report = sim.health().report("health_e2e", variant, 0xDA3000, &[]);
    if errors {
        assert!(!report.is_silent(), "error band should have fired an alert");
        assert_eq!(report.unresolved(), 0, "alert should resolve post-recovery");
    }
    report.to_json()
}

#[test]
fn reports_are_byte_identical_across_reruns() {
    let run = run_synthetic(true);
    assert_eq!(run, run_synthetic(true), "rerun of the same seed diverged");
    assert!(run.contains("\"schema\": \"suca.health.v1\""));
}

#[test]
fn clean_feed_is_alert_silent() {
    let json = run_synthetic(false);
    assert!(
        json.contains("\"counts\": {\"fired\": 0, \"resolved\": 0, \"active\": 0}"),
        "clean feed fired an alert:\n{json}"
    );
}

#[test]
fn overload_fires_exactly_the_burn_rate_rule_then_resolves() {
    let c = ClusterSpec::dawning3000(4).with_health(rules()).build();
    let sim = c.sim.clone();
    for tick in 0..40u64 {
        let fail_band = (10..20).contains(&tick);
        for i in 0..10u64 {
            let ok = !fail_band;
            sim.schedule_at(SimTime::from_ns(tick * TICK_NS + 1 + i), move |s| {
                s.health().observe_rpc(0, 0, ok, 1_500);
            });
        }
    }
    sim.schedule_at(SimTime::from_ns(45 * TICK_NS), |_| {});
    assert_eq!(sim.run(), RunOutcome::Completed);

    let alerts = sim.health().alerts();
    assert_eq!(alerts.len(), 1, "expected exactly one alert: {alerts:?}");
    let a = &alerts[0];
    assert_eq!(a.rule, "rpc.err_burn");
    // Pending precedes firing; error band starts inside tick 10 (closed at
    // the tick-11 rotation, t = 110 µs), so the alert cannot predate that.
    assert!(a.pending_ns <= a.fired_ns);
    assert!(
        a.fired_ns >= 11 * TICK_NS,
        "fired too early: {}",
        a.fired_ns
    );
    let resolved = a.resolved_ns.expect("alert should resolve after recovery");
    assert!(resolved > a.fired_ns);
    assert_eq!(sim.health().active_count(), 0);

    // The lifecycle also lands on the Perfetto health track.
    let stages: Vec<String> = sim
        .trace_events()
        .iter()
        .filter(|e| e.layer == suca_sim::TraceLayer::Health)
        .map(|e| e.stage.to_string())
        .collect();
    assert!(
        stages.iter().any(|s| s == "health:firing:rpc.err_burn"),
        "missing firing instant on health track: {stages:?}"
    );
    assert!(
        stages.iter().any(|s| s == "health:resolved:rpc.err_burn"),
        "missing resolved instant on health track: {stages:?}"
    );
}

//! End-to-end determinism for the mixed multi-tenant workload.
//!
//! The `mixed_slo` harness runs three tenants (KV, pub-sub log, staged
//! pipeline) concurrently on a 32-node dual-rail cluster. Its contract is
//! the same one `engine_rerun_determinism` pins for the single-tenant
//! harnesses: the SLO report (with its per-tenant sections), the health
//! report (per-tenant burn-rate rules), the metrics snapshot, and the
//! telemetry timeseries must all be byte-identical on a rerun — on both
//! fabrics.
//!
//! The workload knobs are shrunk from harness scale to keep the test
//! fast; the topology (32 nodes, dual rail, 8 servers) is the real one.

use suca_bench::mixed::{assert_base_invariants, run_mixed, MixedCfg, SEED};

/// Byte artifacts of one mixed run.
struct RunBytes {
    slo: String,
    health: String,
    metrics: String,
    timeseries: String,
}

fn run_bytes(fabric: &str) -> RunBytes {
    let cfg = MixedCfg {
        kv_users_per_client: 8,
        kv_ops_per_user: 2,
        pub_events: 10,
        pipe_jobs: 1,
        ..MixedCfg::default()
    };
    let out = run_mixed("e2e", fabric, &cfg);
    assert_base_invariants(&format!("e2e/{fabric}"), &out);
    for t in &out.report.tenants {
        assert!(
            t.issued > 0 && t.completed == t.issued,
            "e2e/{fabric}: tenant {} must run clean at toy scale",
            t.tenant
        );
    }
    RunBytes {
        slo: out.report.to_json(),
        health: out
            .cluster
            .sim
            .health()
            .report("mixed_e2e", fabric, SEED, &[])
            .to_json(),
        metrics: out.cluster.metrics_snapshot().to_json(),
        timeseries: out.cluster.sim.timeseries().snapshot().to_json(),
    }
}

fn assert_bytes_equal(reference: &RunBytes, got: &RunBytes, what: &str) {
    assert_eq!(reference.slo, got.slo, "{what}: SLO report diverged");
    assert_eq!(
        reference.health, got.health,
        "{what}: health report diverged"
    );
    assert_eq!(reference.metrics, got.metrics, "{what}: metrics diverged");
    assert_eq!(
        reference.timeseries, got.timeseries,
        "{what}: timeseries diverged"
    );
}

fn rerun(fabric: &str) {
    let reference = run_bytes(fabric);
    assert!(
        reference.slo.contains("\"tenant\""),
        "{fabric}: per-tenant sections missing from the SLO report"
    );
    assert_bytes_equal(&reference, &run_bytes(fabric), &format!("{fabric} rerun"));
}

/// Myrinet-primary rails.
#[test]
fn mixed_reports_identical_across_reruns_myrinet() {
    rerun("myrinet");
}

/// Mesh-primary rails.
#[test]
fn mixed_reports_identical_across_reruns_mesh() {
    rerun("mesh");
}

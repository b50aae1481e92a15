//! Deterministic SLO reports: per-op-class latency percentiles, goodput,
//! and full request accounting, serialized as stable JSON (the `slo`
//! artifact kind: `target/slo/`).
//!
//! The JSON is hand-rolled with a fixed key order and `{:.3}` floats so a
//! fixed-seed run is byte-identical — `rpc_slo` runs its clean variant
//! twice and compares the two reports to prove it.

use std::fmt::Write as _;
use std::path::PathBuf;

use suca_sim::Sim;

use crate::gen::LoadStats;
use crate::kv::op_name;
use crate::kv::{OP_GET, OP_PUT, OP_SCAN};

/// Latency summary for one op class (microseconds).
#[derive(Clone, Debug)]
pub struct ClassSlo {
    /// Op-class label (`get` / `put` / `scan`).
    pub name: String,
    /// Completed ops in this class.
    pub count: u64,
    /// Mean latency.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile — the report's tail bucket.
    pub p999_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

/// Per-tenant section of a mixed-workload report: outcome accounting for
/// one tenant's generators plus its own per-op-class latency summaries
/// (histograms named `rpc.lat.t{N}.{class}`). The identity
/// `completed + shed + timed_out == issued` must hold *per tenant*.
#[derive(Clone, Debug)]
pub struct TenantSlo {
    /// Workload label (`kv` / `pubsub` / `pipeline`).
    pub name: String,
    /// Wire tenant id.
    pub tenant: u8,
    /// Admission priority label (`high` / `low`).
    pub priority: String,
    /// Requests this tenant's generators handed to the RPC layer.
    pub issued: u64,
    /// Requests that got responses.
    pub completed: u64,
    /// Requests shed by admission control (final outcome).
    pub shed: u64,
    /// Requests that timed out (final outcome).
    pub timed_out: u64,
    /// Arrivals dropped client-side.
    pub client_shed: u64,
    /// Per-op-class latency summaries for this tenant alone.
    pub classes: Vec<ClassSlo>,
}

impl TenantSlo {
    /// True when every issued request resolved exactly once.
    pub fn accounted(&self) -> bool {
        self.completed + self.shed + self.timed_out == self.issued
    }

    /// Assemble one tenant section from the tenant's aggregated generator
    /// tallies plus its labelled latency histograms
    /// (`rpc.lat.{label}.{class}`, as created by `LatencyHists::named`).
    pub fn gather(
        sim: &Sim,
        name: &str,
        tenant: u8,
        priority: &str,
        label: &str,
        class_names: [&str; 4],
        stats: &LoadStats,
    ) -> TenantSlo {
        let snap = sim.metrics().snapshot();
        let mut classes = Vec::new();
        for cname in class_names {
            if let Some(h) = snap.histograms.get(&format!("rpc.lat.{label}.{cname}")) {
                if h.count > 0 {
                    classes.push(ClassSlo {
                        name: cname.to_string(),
                        count: h.count,
                        mean_us: h.mean() / 1_000.0,
                        p50_us: h.p50() / 1_000.0,
                        p95_us: h.p95() / 1_000.0,
                        p99_us: h.p99() / 1_000.0,
                        p999_us: h.p999() / 1_000.0,
                        max_us: h.max as f64 / 1_000.0,
                    });
                }
            }
        }
        TenantSlo {
            name: name.to_string(),
            tenant,
            priority: priority.to_string(),
            issued: stats.issued,
            completed: stats.completed,
            shed: stats.shed,
            timed_out: stats.timed_out,
            client_shed: stats.client_shed,
            classes,
        }
    }
}

/// One run variant's service-level report.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// Variant label (`clean` / `overload` / `loss5`).
    pub variant: String,
    /// Fabric label (`myrinet` / `mesh`).
    pub fabric: String,
    /// Cluster size.
    pub nodes: u32,
    /// Simulated-user population.
    pub users: u64,
    /// Requests entering the RPC layer.
    pub issued: u64,
    /// Requests that got responses.
    pub completed: u64,
    /// Requests shed by server admission control (final outcome).
    pub shed: u64,
    /// Requests that timed out (final outcome).
    pub timed_out: u64,
    /// Arrivals dropped client-side before entering the RPC layer.
    pub client_shed: u64,
    /// Retry attempts beyond first sends.
    pub retries: u64,
    /// Late/duplicate responses discarded by clients.
    pub late_responses: u64,
    /// Requests terminated because the kernel declared the destination
    /// dead (0 outside chaos runs).
    pub dead_dests: u64,
    /// Shard re-homings the generators performed in response (0 outside
    /// chaos runs).
    pub re_homed: u64,
    /// Shed replies sent by servers (larger than `shed`: retries may
    /// later succeed).
    pub srv_sheds: u64,
    /// Highest admission-queue depth any server saw (must stay ≤ the
    /// configured bound — this is the boundedness proof).
    pub srv_queue_high_water: u64,
    /// Watchdog stalls during the run (0 for healthy variants).
    pub watchdog_stalls: u64,
    /// Virtual wall-clock of the whole run.
    pub elapsed_us: f64,
    /// Completed requests per virtual second.
    pub goodput_ops_per_s: f64,
    /// Per-op-class latency summaries (fixed get/put/scan order).
    pub classes: Vec<ClassSlo>,
    /// Per-tenant sections (empty for single-workload runs; populated by
    /// mixed-workload harnesses via [`TenantSlo::gather`]).
    pub tenants: Vec<TenantSlo>,
}

impl SloReport {
    /// Assemble a report from the sim's metrics registry plus the
    /// generators' aggregated tallies.
    pub fn gather(
        sim: &Sim,
        variant: &str,
        fabric: &str,
        nodes: u32,
        users: u64,
        stats: &LoadStats,
    ) -> SloReport {
        let snap = sim.metrics().snapshot();
        let elapsed_ns = sim.now().as_ns();
        let elapsed_us = elapsed_ns as f64 / 1_000.0;
        let goodput = if elapsed_ns == 0 {
            0.0
        } else {
            stats.completed as f64 / (elapsed_ns as f64 / 1e9)
        };
        let mut classes = Vec::new();
        for op in [OP_GET, OP_PUT, OP_SCAN] {
            let name = op_name(op);
            if let Some(h) = snap.histograms.get(&format!("rpc.lat.{name}")) {
                if h.count > 0 {
                    classes.push(ClassSlo {
                        name: name.to_string(),
                        count: h.count,
                        mean_us: h.mean() / 1_000.0,
                        p50_us: h.p50() / 1_000.0,
                        p95_us: h.p95() / 1_000.0,
                        p99_us: h.p99() / 1_000.0,
                        p999_us: h.p999() / 1_000.0,
                        max_us: h.max as f64 / 1_000.0,
                    });
                }
            }
        }
        SloReport {
            variant: variant.to_string(),
            fabric: fabric.to_string(),
            nodes,
            users,
            issued: stats.issued,
            completed: stats.completed,
            shed: stats.shed,
            timed_out: stats.timed_out,
            client_shed: stats.client_shed,
            retries: snap.counter("rpc.cli_retries"),
            late_responses: snap.counter("rpc.cli_late_responses"),
            dead_dests: stats.dead_dest,
            re_homed: stats.re_homed,
            srv_sheds: snap.counter("rpc.srv_sheds"),
            srv_queue_high_water: snap
                .gauges
                .get("rpc.srv_queue_depth")
                .map(|g| g.high_water)
                .unwrap_or(0),
            watchdog_stalls: snap.counter("watchdog.stalls"),
            elapsed_us,
            goodput_ops_per_s: goodput,
            classes,
            tenants: Vec::new(),
        }
    }

    /// True when every issued request resolved exactly once.
    pub fn accounted(&self) -> bool {
        self.completed + self.shed + self.timed_out == self.issued
    }

    /// Stable JSON (fixed key order, `{:.3}` floats, trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"variant\": \"{}\",", self.variant);
        let _ = writeln!(o, "  \"fabric\": \"{}\",", self.fabric);
        let _ = writeln!(o, "  \"nodes\": {},", self.nodes);
        let _ = writeln!(o, "  \"users\": {},", self.users);
        let _ = writeln!(o, "  \"issued\": {},", self.issued);
        let _ = writeln!(o, "  \"completed\": {},", self.completed);
        let _ = writeln!(o, "  \"shed\": {},", self.shed);
        let _ = writeln!(o, "  \"timed_out\": {},", self.timed_out);
        let _ = writeln!(o, "  \"client_shed\": {},", self.client_shed);
        let _ = writeln!(o, "  \"retries\": {},", self.retries);
        let _ = writeln!(o, "  \"late_responses\": {},", self.late_responses);
        let _ = writeln!(o, "  \"dead_dests\": {},", self.dead_dests);
        let _ = writeln!(o, "  \"re_homed\": {},", self.re_homed);
        let _ = writeln!(o, "  \"srv_sheds\": {},", self.srv_sheds);
        let _ = writeln!(
            o,
            "  \"srv_queue_high_water\": {},",
            self.srv_queue_high_water
        );
        let _ = writeln!(o, "  \"watchdog_stalls\": {},", self.watchdog_stalls);
        let _ = writeln!(o, "  \"elapsed_us\": {:.3},", self.elapsed_us);
        let _ = writeln!(o, "  \"goodput_ops_per_s\": {:.3},", self.goodput_ops_per_s);
        fn class_json(o: &mut String, indent: &str, classes: &[ClassSlo]) {
            for (i, c) in classes.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push('\n');
                o.push_str(indent);
                let _ = write!(
                    o,
                    "{{\"name\": \"{}\", \"count\": {}, \"mean_us\": {:.3}, \"p50_us\": {:.3}, \
                     \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}}}",
                    c.name, c.count, c.mean_us, c.p50_us, c.p95_us, c.p99_us, c.p999_us, c.max_us
                );
            }
        }
        o.push_str("  \"classes\": [");
        class_json(&mut o, "    ", &self.classes);
        if !self.classes.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n");
        o.push_str("  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\n");
            let _ = writeln!(o, "      \"name\": \"{}\",", t.name);
            let _ = writeln!(o, "      \"tenant\": {},", t.tenant);
            let _ = writeln!(o, "      \"priority\": \"{}\",", t.priority);
            let _ = writeln!(o, "      \"issued\": {},", t.issued);
            let _ = writeln!(o, "      \"completed\": {},", t.completed);
            let _ = writeln!(o, "      \"shed\": {},", t.shed);
            let _ = writeln!(o, "      \"timed_out\": {},", t.timed_out);
            let _ = writeln!(o, "      \"client_shed\": {},", t.client_shed);
            o.push_str("      \"classes\": [");
            class_json(&mut o, "        ", &t.classes);
            if !t.classes.is_empty() {
                o.push_str("\n      ");
            }
            o.push_str("]\n    }");
        }
        if !self.tenants.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }

    /// Write as the `slo` artifact `file_stem` and return the path.
    pub fn write_named(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        suca_sim::artifact::write_artifact("slo", file_stem, &self.to_json())
    }

    /// Write to the canonical `{variant}_{fabric}.json` name.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let stem = format!("{}_{}", self.variant, self.fabric);
        self.write_named(&stem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_parsable_shape() {
        let r = SloReport {
            variant: "clean".into(),
            fabric: "myrinet".into(),
            nodes: 4,
            users: 100,
            issued: 10,
            completed: 9,
            shed: 1,
            timed_out: 0,
            client_shed: 0,
            retries: 2,
            late_responses: 0,
            dead_dests: 0,
            re_homed: 0,
            srv_sheds: 3,
            srv_queue_high_water: 16,
            watchdog_stalls: 0,
            elapsed_us: 1234.5,
            goodput_ops_per_s: 7293.4567,
            classes: vec![ClassSlo {
                name: "get".into(),
                count: 9,
                mean_us: 12.0,
                p50_us: 10.0,
                p95_us: 20.0,
                p99_us: 30.0,
                p999_us: 40.0,
                max_us: 41.0,
            }],
            tenants: vec![TenantSlo {
                name: "kv".into(),
                tenant: 0,
                priority: "high".into(),
                issued: 10,
                completed: 9,
                shed: 1,
                timed_out: 0,
                client_shed: 0,
                classes: vec![ClassSlo {
                    name: "get".into(),
                    count: 9,
                    mean_us: 12.0,
                    p50_us: 10.0,
                    p95_us: 20.0,
                    p99_us: 30.0,
                    p999_us: 40.0,
                    max_us: 41.0,
                }],
            }],
        };
        assert!(r.accounted());
        assert!(r.tenants[0].accounted());
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        assert!(j.contains("\"goodput_ops_per_s\": 7293.457,"));
        assert!(j.contains("\"p999_us\": 40.000"));
        assert!(j.contains("\"tenants\": ["));
        assert!(j.contains("\"priority\": \"high\","));
        assert!(j.ends_with("}\n"));
        assert_eq!(suca_sim::artifact::validate_json(&j), Ok(()));
        // Every scalar of the report, the tenant section and the class rows.
        for key in [
            "variant",
            "fabric",
            "nodes",
            "users",
            "issued",
            "completed",
            "shed",
            "timed_out",
            "client_shed",
            "retries",
            "late_responses",
            "dead_dests",
            "re_homed",
            "srv_sheds",
            "srv_queue_high_water",
            "watchdog_stalls",
            "elapsed_us",
            "goodput_ops_per_s",
            "classes",
        ] {
            assert!(j.contains(&format!("\n  \"{key}\": ")), "missing {key}");
        }
        for key in [
            "name",
            "tenant",
            "priority",
            "issued",
            "completed",
            "shed",
            "timed_out",
            "client_shed",
            "classes",
        ] {
            assert!(
                j.contains(&format!("\n      \"{key}\": ")),
                "tenant section missing {key}"
            );
        }
        let class_row = "{\"name\": \"get\", \"count\": 9, \"mean_us\": 12.000, \"p50_us\": 10.000, \
                         \"p95_us\": 20.000, \"p99_us\": 30.000, \"p999_us\": 40.000, \"max_us\": 41.000}";
        assert_eq!(j.matches(class_row).count(), 2, "report and tenant rows");
    }
}

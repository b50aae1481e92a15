//! # suca-bench — paper-reproduction harnesses
//!
//! Measurement functions plus the harness binaries (see `src/bin/`): one,
//! `paper`, for the paper's whole evaluation — every table and figure, each
//! quantity measured once, byte-checked against the committed ledger
//! `BENCH_stack.json` — and one per extension (ablations, contention,
//! tracing, SLOs, chaos, engine and collective scaling). The engine's own
//! wall-clock cost is `bench_engine`'s report, `BENCH_engine.json`.
//!
//! Each harness binary asserts its own invariants on the typed reports it
//! builds and exits non-zero when one breaks; those asserts are the only
//! statement of what a run must satisfy. [`HARNESSES`] lists the binaries
//! once: `repro_all` runs all of them in the release profile, and
//! `tests/harness_gate.rs` runs every tier-1 one under `cargo test`.

#![warn(missing_docs)]

pub mod kv_cluster;
pub mod measure;
pub mod mixed;
pub mod report;
pub mod ring;

use suca_cluster::{ClusterSpec, SanKind};
use suca_mesh::MeshConfig;
use suca_myrinet::{FaultPlan, MyrinetConfig};
use suca_sim::{SimDuration, TelemetryConfig};

pub use measure::{layer_bandwidth_mbps, layer_one_way_us, Layer};

/// When a harness binary is run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Under `cargo test -q` (debug profile, by `tests/harness_gate.rs`)
    /// and by `repro_all`.
    Tier1,
    /// By `repro_all` only: too slow in the debug profile.
    ReleaseOnly,
}

/// The harness list, in `repro_all`'s running order. Invoke with the name
/// of a macro taking `name Tier, …` to generate one item per harness;
/// [`HARNESSES`] is the same list as data.
#[macro_export]
macro_rules! harnesses {
    ($with:ident) => {
        $with! {
            paper Tier1,
            // 10 s in release, 70 s in debug on a 2-core host
            // (thousands of paced messages per working-set cell with the
            // flight recorder on).
            ablations ReleaseOnly,
            congestion Tier1,
            trace_export Tier1,
            rpc_slo Tier1,
            chaos_slo Tier1,
            // 19.4 s in release, 82 s in debug. Its base invariants run
            // at toy scale in `suca-cluster`'s `mixed_tenant_e2e`.
            mixed_slo ReleaseOnly,
            bench_engine Tier1,
            bench_collectives Tier1,
        }
    };
}

macro_rules! harness_list {
    ($($name:ident $tier:ident,)*) => {
        /// Every harness binary of this package and when it runs.
        pub const HARNESSES: &[(&str, Tier)] = &[$((stringify!($name), Tier::$tier),)*];
    };
}
harnesses!(harness_list);

/// An integer sweep bound from the environment (`default` when unset or
/// unparsable). The only switches the harnesses read are the ones
/// `tests/harness_gate.rs` sets to fit the debug profile.
pub fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A `nodes`-node DAWNING-3000 cluster on the SAN the harnesses call
/// `fabric` (`myrinet` or `mesh`), with `fault` injected per link traversal.
pub fn spec_for(fabric: &str, nodes: u32, fault: FaultPlan) -> ClusterSpec {
    let san = match fabric {
        "myrinet" => SanKind::Myrinet(MyrinetConfig {
            fault,
            ..MyrinetConfig::dawning3000()
        }),
        "mesh" => SanKind::Mesh(MeshConfig {
            fault,
            ..MeshConfig::dawning3000()
        }),
        other => panic!("unknown fabric {other}"),
    };
    ClusterSpec::dawning3000(nodes).with_san(san)
}

/// [`spec_for`] one cell of a scalability sweep: telemetry sampled at 1 ms
/// instead of the default 10 µs — at 1,024 nodes the probe registry is
/// thousands of entries, and per-10 µs sampling would measure the sampler.
pub fn sweep_spec(fabric: &str, nodes: u32, seed: u64) -> ClusterSpec {
    spec_for(fabric, nodes, FaultPlan::NONE)
        .with_seed(seed)
        .with_telemetry(TelemetryConfig {
            sample_period: SimDuration::from_ms(1),
            ..TelemetryConfig::default()
        })
}

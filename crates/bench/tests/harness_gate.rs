//! The gate: run every tier-1 harness binary under `cargo test`.
//!
//! A harness asserts its own invariants on the typed reports it builds —
//! the paper's identities (1 trap / 0 interrupts, the Fig. 5–7 anchors), the
//! accounting identity, the fault-detection bound, alert silence on clean
//! runs — and writes its artifacts through the validating
//! `suca_sim::artifact::write_artifact`, so exit status 0 is the whole
//! verdict. One test per [`suca_bench::HARNESSES`] entry marked `Tier1`;
//! cargo builds the binaries (debug profile) for this package's integration
//! tests. Run one with `cargo test -p suca-bench --test harness_gate <name>`.

use std::path::Path;
use std::process::Command;

/// Sweep bounds that make a harness fit the debug profile; `repro_all`
/// leaves them unset and runs the full sweep.
fn bounds(harness: &str) -> &'static [(&'static str, &'static str)] {
    match harness {
        // The determinism cross-check and the first sweep cell, both fabrics.
        "bench_engine" => &[("SUCA_BENCH_ENGINE_MAX_NODES", "32")],
        // Determinism + crossing budget at 64 nodes; the ≥ 256-node
        // crossover cells stay release-only.
        "bench_collectives" => &[("SUCA_BENCH_COLL_MAX_NODES", "64")],
        // Overload and loss5 run at full scale; only the 2,016-user clean
        // variant shrinks.
        "rpc_slo" => &[
            ("SUCA_RPC_SLO_CLIENTS", "6"),
            ("SUCA_RPC_SLO_SERVERS", "2"),
            ("SUCA_RPC_SLO_USERS", "8"),
        ],
        _ => &[],
    }
}

/// Run the harness binary at `exe` into its own artifact directory and fail
/// with its stderr (the panic message of the assert that broke).
fn gate(harness: &str, exe: &str) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("harness_gate")
        .join(harness);
    // A stale artifact must not outlive the run that would no longer write it.
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(exe)
        .env("SUCA_OUT_DIR", &out_dir)
        .envs(bounds(harness).iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{harness} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

macro_rules! gate_tests {
    ($($name:ident $tier:ident,)*) => { $(gate_tests!(@one $name $tier);)* };
    (@one $name:ident Tier1) => {
        #[test]
        fn $name() {
            gate(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    };
    (@one $name:ident ReleaseOnly) => {};
}
suca_bench::harnesses!(gate_tests);

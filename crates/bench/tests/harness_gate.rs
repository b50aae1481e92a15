//! The gate: run every tier-1 harness binary under `cargo test`.
//!
//! A harness asserts its own invariants on the typed reports it builds —
//! the paper's identities (1 trap / 0 interrupts, the Fig. 5–7 anchors) and
//! `paper`'s byte-for-byte match with the committed `BENCH_stack.json`, the
//! accounting identity, the fault-detection bound, alert silence on clean
//! runs — and writes its artifacts through the validating
//! `suca_sim::artifact::write_artifact`, so exit status 0 is the whole
//! verdict. One test per [`suca_bench::HARNESSES`] entry marked `Tier1`;
//! cargo builds the binaries (debug profile) for this package's integration
//! tests. Run one with `cargo test -p suca-bench --test harness_gate <name>`.
//!
//! `paper` runs once. Besides its gate, one test per table and figure reads
//! that run's section of the ledger against the committed one, so a moved
//! digit fails the test named after the figure it belongs to. Two more
//! tests hold the committed files to each other: EXPERIMENTS.md's tables
//! are the ledgers rendered, and `BENCH_digest.json` hashes the ledgers as
//! committed.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use suca_bench::report::{
    digest_row, fnv1a64, ledger_rows, render_markdown, sections, FNV1A64_OFFSET,
};

/// The ledger `paper` must reproduce byte for byte.
const COMMITTED: &str = include_str!("../../../BENCH_stack.json");
/// The ledger `bench_collectives` must reproduce row for row.
const COLLECTIVES: &str = include_str!("../../../BENCH_collectives.json");
/// The digest `repro_all` must reproduce row for row.
const DIGEST: &str = include_str!("../../../BENCH_digest.json");
/// The report whose tables are the ledgers rendered.
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

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

/// Run the harness binary at `exe` into its own artifact directory, which
/// is returned with the run's output.
fn run(harness: &str, exe: &str) -> (PathBuf, Output) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("harness_gate")
        .join(harness);
    // A stale artifact must not outlive the run that would no longer write it.
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(exe)
        .env("SUCA_OUT_DIR", &out_dir)
        .envs(bounds(harness).iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    (out_dir, out)
}

/// Fail with the harness's stderr (the panic message of the assert that
/// broke) unless it exited 0.
fn gate(harness: &str, out: &Output) {
    assert!(
        out.status.success(),
        "{harness} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The one `paper` run every test of this file reads.
fn paper_run() -> &'static (PathBuf, Output) {
    static RUN: OnceLock<(PathBuf, Output)> = OnceLock::new();
    RUN.get_or_init(|| run("paper", env!("CARGO_BIN_EXE_paper")))
}

macro_rules! gate_tests {
    ($($name:ident $tier:ident,)*) => { $(gate_tests!(@one $name $tier);)* };
    (@one paper Tier1) => {
        #[test]
        fn paper() {
            gate("paper", &paper_run().1);
        }
    };
    (@one $name:ident Tier1) => {
        #[test]
        fn $name() {
            let name = stringify!($name);
            let (_, out) = run(name, env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            gate(name, &out);
        }
    };
    (@one $name:ident ReleaseOnly) => {};
}
suca_bench::harnesses!(gate_tests);

/// The ledger lines of `section`.
fn section_lines<'a>(ledger: &'a str, section: &str) -> Vec<&'a str> {
    let rows = ledger_rows(ledger);
    let found = sections(&rows).into_iter().find(|&(s, _)| s == section);
    found.map(|(_, rows)| rows).unwrap_or_default()
}

/// `paper`'s `section`: the run recorded `rows` ledger lines under it, each
/// equal to the committed line, and wrote the section's other `artifacts`
/// (paths under its artifact directory).
fn section(section: &str, rows: usize, artifacts: &[&str]) {
    let (dir, out) = paper_run();
    let ledger = dir.join("bench/BENCH_stack.json");
    let written = std::fs::read_to_string(ledger).unwrap_or_else(|e| {
        panic!(
            "paper wrote no ledger ({e}); it failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let (measured, committed) = (
        section_lines(&written, section),
        section_lines(COMMITTED, section),
    );
    assert_eq!(measured.len(), rows, "{section}: ledger rows");
    assert_eq!(committed.len(), rows, "{section}: committed rows");
    for (m, c) in measured.iter().zip(&committed) {
        assert_eq!(m, c, "{section}: measured vs committed BENCH_stack.json");
    }
    for a in artifacts {
        assert!(dir.join(a).is_file(), "{section}: {a} not written");
    }
}

#[test]
fn table1_architectures() {
    section("table1", 6, &["metrics/table1_bcl.json"]);
}

#[test]
fn fig5_tx_timeline() {
    section("fig5", 4, &[]);
}

#[test]
fn fig6_rx_timeline() {
    section("fig6", 2, &[]);
}

#[test]
fn fig7_oneway_timeline() {
    section("fig7", 7, &["metrics/fig7_oneway_timeline.json"]);
}

#[test]
fn fig8_latency() {
    // One latency row and one critical-path decomposition per size.
    section("fig8", 2 * 13, &[]);
}

#[test]
fn fig9_bandwidth() {
    // Ten bandwidth points and five anchors.
    section("fig9", 15, &[]);
}

#[test]
fn table2_protocols() {
    section("table2", 10, &[]);
}

#[test]
fn table3_mpi_pvm() {
    section("table3", 8, &[]);
}

#[test]
fn overheads() {
    section("s5", 9, &[]);
}

#[test]
fn sensitivity() {
    // Nineteen cost constants against four anchors.
    section("sensitivity", 19 * 4, &[]);
}

#[test]
fn telemetry() {
    section(
        "telemetry",
        3,
        &[
            "metrics/telemetry.json",
            "metrics/telemetry_64k.json",
            "timeseries/telemetry_0b.json",
            "timeseries/telemetry_64k.json",
            "traces/telemetry_0b.json",
            "traces/telemetry_64k.json",
        ],
    );
}

/// Every `<!-- ledger:<section> -->` block of EXPERIMENTS.md is
/// `render_markdown` of that section of the committed ledgers (the
/// `BENCH_stack.json` sections by name, `BENCH_collectives.json` as
/// `collectives`), every section has exactly one, and no block names a
/// section the ledgers lack. On failure it prints the block each section
/// should carry.
#[test]
fn experiments_tables_are_the_ledgers() {
    let stack = ledger_rows(COMMITTED);
    let mut expected: Vec<(&str, String)> = sections(&stack)
        .into_iter()
        .map(|(section, rows)| (section, render_markdown(&rows)))
        .collect();
    expected.push(("collectives", render_markdown(&ledger_rows(COLLECTIVES))));
    let mut failures = Vec::new();
    for (section, block) in &expected {
        let open = format!("<!-- ledger:{section} -->\n");
        let found = EXPERIMENTS
            .split_once(&open)
            .and_then(|(_, rest)| rest.split_once("<!-- /ledger -->"));
        let problem = match found {
            Some((text, _)) if text == block => continue,
            Some(_) => "the block differs",
            None => "no block",
        };
        failures.push(format!(
            "{section}: {problem}; it should read\n{open}{block}<!-- /ledger -->"
        ));
    }
    let marked = EXPERIMENTS.lines().filter_map(|l| {
        l.strip_prefix("<!-- ledger:")
            .and_then(|l| l.strip_suffix(" -->"))
    });
    let mut seen = Vec::new();
    for section in marked {
        if !expected.iter().any(|(s, _)| *s == section) {
            failures.push(format!("{section}: a block for a section no ledger has"));
        } else if seen.contains(&section) {
            failures.push(format!("{section}: a second block"));
        }
        seen.push(section);
    }
    assert!(
        failures.is_empty(),
        "EXPERIMENTS.md:\n{}",
        failures.join("\n\n")
    );
}

/// `BENCH_digest.json` holds the hash of each ledger as committed, so a
/// change that moves a ledger without refreshing the digest fails here,
/// not only after `repro_all`.
#[test]
fn digest_follows_the_ledgers() {
    for (artifact, committed) in [
        ("bench/BENCH_stack.json", COMMITTED),
        ("bench/BENCH_collectives.json", COLLECTIVES),
    ] {
        let row = digest_row(artifact, fnv1a64(FNV1A64_OFFSET, committed.as_bytes()));
        assert!(
            ledger_rows(DIGEST).contains(&row.as_str()),
            "BENCH_digest.json lacks `{row}`: the committed ledger moved without the digest"
        );
    }
}

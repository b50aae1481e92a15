//! Run every harness of `suca_bench::HARNESSES` and print the full reproduction report.
//! `cargo run -p suca-bench --release --bin repro_all`
//!
//! After the sweep it hashes every virtual-time artifact the harnesses
//! wrote into `target/bench/BENCH_digest.json`, one FNV-1a-64 row per
//! artifact, sorted by path: every file under `metrics`, `slo`, `chaos`,
//! `health`, `traces` and `timeseries`, the two ledgers `BENCH_stack.json`
//! and `BENCH_collectives.json`, and the `counters` object of each `prof`
//! report. Host-clock numbers (`BENCH_engine.json`, a profile's `wall` and
//! `alloc` blocks) stay out. The run fails, naming the first differing
//! row, when the digest differs from the committed `BENCH_digest.json` at
//! the repository root, so parity with a parent is a diff of one file. An
//! intended change copies the new digest over it and says why each moved
//! row moved.

use std::io::Read as _;
use std::path::Path;
use std::process::Command;

use suca_bench::report::{digest_row, first_difference, fnv1a64, ledger_json, FNV1A64_OFFSET};
use suca_bench::HARNESSES;
use suca_sim::artifact::{artifact_dir, write_artifact};

/// The digest this run must reproduce row for row.
const COMMITTED: &str = include_str!("../../../../BENCH_digest.json");

/// Artifact kinds whose every file is hashed whole.
const WHOLE: [&str; 6] = ["metrics", "slo", "chaos", "health", "traces", "timeseries"];

/// The ledgers under `bench`; `BENCH_engine.json` is wall clock.
const LEDGERS: [&str; 2] = ["BENCH_stack.json", "BENCH_collectives.json"];

fn main() {
    // The digest describes this run alone: no artifact of an earlier one.
    for kind in WHOLE.iter().chain(&["prof", "bench"]) {
        let _ = std::fs::remove_dir_all(artifact_dir(kind));
    }
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    let mut failures = Vec::new();
    for &(bin, _) in HARNESSES {
        println!("\n================================================================");
        println!("### {bin}");
        println!("================================================================");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failures.push(format!("{bin} failed ({status})"));
        }
    }

    let rows = digest();
    let json = ledger_json("suca.bench_digest.v1", &rows);
    let path = write_artifact("bench", "BENCH_digest", &json).expect("write BENCH_digest.json");
    println!("\n[digest] {} artifacts -> {}", rows.len(), path.display());
    if let Some(diff) = first_difference(COMMITTED, &json) {
        failures.push(format!(
            "BENCH_digest.json {diff}; if the change is intended, copy {} over BENCH_digest.json",
            path.display()
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    println!(
        "\nAll paper tables and figures reproduced, every artifact equal to BENCH_digest.json."
    );
}

/// The digest rows of every artifact this run wrote, sorted by path.
fn digest() -> Vec<String> {
    let mut rows = Vec::new();
    for kind in WHOLE.iter().chain(&["bench", "prof"]) {
        let Ok(entries) = std::fs::read_dir(artifact_dir(kind)) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            let name = path.file_name().expect("a file").to_string_lossy();
            let hash = match *kind {
                "bench" if !LEDGERS.contains(&name.as_ref()) => continue,
                "prof" => fnv1a64(FNV1A64_OFFSET, counters(&path).as_bytes()),
                _ => hash_file(&path),
            };
            let suffix = if *kind == "prof" { "#counters" } else { "" };
            rows.push((format!("{kind}/{name}{suffix}"), hash));
        }
    }
    rows.sort();
    rows.iter().map(|(p, h)| digest_row(p, *h)).collect()
}

/// A `prof` report's `counters` object, as `ProfReport::to_json` lays it
/// out: everything between its key and the host-clock `wall` block.
fn counters(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read a prof report");
    let counters = text
        .split_once("\"counters\": ")
        .and_then(|(_, rest)| rest.split_once(",\n  \"wall\": "));
    let (counters, _) = counters.unwrap_or_else(|| panic!("{}: no counters", path.display()));
    counters.to_string()
}

/// [`fnv1a64`] of a file, read a chunk at a time: the traces run to
/// hundreds of MB.
fn hash_file(path: &Path) -> u64 {
    let mut file = std::fs::File::open(path).expect("open an artifact");
    let mut buf = vec![0u8; 1 << 16];
    let mut hash = FNV1A64_OFFSET;
    loop {
        match file.read(&mut buf).expect("read an artifact") {
            0 => return hash,
            n => hash = fnv1a64(hash, &buf[..n]),
        }
    }
}

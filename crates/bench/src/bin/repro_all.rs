//! Run every harness of `suca_bench::HARNESSES` and print the full reproduction report.
//! `cargo run -p suca-bench --release --bin repro_all`
//!
//! Each instrumented harness drops a metrics snapshot into
//! `target/metrics/<harness>.json` (see `suca_bench::report::emit_metrics`);
//! after the sweep this binary merges them into a single
//! `target/metrics/repro_all.json` keyed by harness name.

use std::process::Command;

use suca_bench::HARNESSES;
use suca_sim::artifact::{artifact_dir, write_artifact};

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    for &(bin, _) in HARNESSES {
        println!("\n================================================================");
        println!("### {bin}");
        println!("================================================================");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    merge_metrics();
    println!("\nAll paper tables and figures reproduced. See EXPERIMENTS.md for the recorded comparison.");
}

/// Combine every per-harness snapshot in the metrics dir into one JSON
/// document. The per-harness files are themselves JSON objects, so they can
/// be embedded verbatim without parsing.
fn merge_metrics() {
    let dir = artifact_dir("metrics");
    let mut entries: Vec<(String, String)> = Vec::new();
    let Ok(rd) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in rd.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if stem == "repro_all" {
            continue;
        }
        if let Ok(body) = std::fs::read_to_string(&path) {
            entries.push((stem.to_string(), body));
        }
    }
    entries.sort();
    let mut out = String::from("{\n");
    for (i, (name, body)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": {}{comma}\n", body.trim_end()));
    }
    out.push_str("}\n");
    let path = write_artifact("metrics", "repro_all", &out).expect("write merged snapshot");
    println!(
        "\n[metrics] merged {} snapshots -> {}",
        entries.len(),
        path.display()
    );
}

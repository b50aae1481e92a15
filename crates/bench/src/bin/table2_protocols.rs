//! Table 2 — comparison of communication protocols over Myrinet:
//! BCL (intra- and inter-node) vs GM vs AM-II vs BIP.
//!
//! Paper values: BCL 2.7 µs / 391 MB/s intra-node and 18.3 µs / 146 MB/s
//! inter-node; GM 11–21 µs and > 140 MB/s (no SMP support); AM-II worse
//! latency and an extra receive copy (the paper declines a bandwidth
//! comparison and notes "BCL reaches a much higher bandwidth"); BIP very low
//! latency but no flow control / error correction and lower bandwidth.
//!
//! Every row, BCL's and the comparators', is the same two measurements on
//! the same stack: `measure_one_way` (3 warm-up + 10 timed ping-pongs) and
//! `measure_bandwidth` (a warm-up message, then the clock, 24 × 128 KB);
//! a comparator is BCL with its [`Architecture`] preset.

use suca_bcl::Architecture;
use suca_bench::report::{render, Row};
use suca_cluster::{measure_bandwidth, measure_one_way, ClusterSpec};

/// Inter-node 0 B latency (µs) and 128 KB bandwidth (MB/s) under `arch`.
fn inter_node(arch: Architecture) -> (f64, f64) {
    let spec = || ClusterSpec::dawning3000(2).with_architecture(arch);
    (
        measure_one_way(spec(), 0, 1, 0, 3, 10).one_way_us,
        measure_bandwidth(spec(), 0, 1, 128 * 1024, 24, 8).mb_per_sec,
    )
}

fn main() {
    let bcl_intra_lat = measure_one_way(ClusterSpec::dawning3000(2), 0, 0, 0, 3, 10).one_way_us;
    let bcl_intra_bw =
        measure_bandwidth(ClusterSpec::dawning3000(2), 0, 0, 128 * 1024, 8, 8).mb_per_sec;
    let (bcl_inter_lat, bcl_inter_bw) = inter_node(Architecture::SemiUser);
    let (gm_lat, gm_bw) = inter_node(Architecture::Gm);
    let (am2_lat, am2_bw) = inter_node(Architecture::Am2);
    let (bip_lat, bip_bw) = inter_node(Architecture::Bip);

    let rows = vec![
        Row::new("BCL latency intra-node", 2.7, bcl_intra_lat, "us"),
        Row::new("BCL latency inter-node", 18.3, bcl_inter_lat, "us"),
        Row::new("BCL bandwidth intra-node", 391.0, bcl_intra_bw, "MB/s"),
        Row::new("BCL bandwidth inter-node", 146.0, bcl_inter_bw, "MB/s"),
        Row::new("GM latency (paper: 11-21)", None, gm_lat, "us"),
        Row::new("GM bandwidth (paper: >140)", None, gm_bw, "MB/s"),
        Row::new("AM-II latency", None, am2_lat, "us"),
        Row::new("AM-II bandwidth (paper: << BCL)", None, am2_bw, "MB/s"),
        Row::new("BIP latency (paper: very low)", None, bip_lat, "us"),
        Row::new("BIP bandwidth (< BCL)", None, bip_bw, "MB/s"),
    ];
    print!("{}", render("Table 2: protocols over Myrinet", &rows));

    println!();
    println!("shape checks (the paper's qualitative claims):");
    let checks: [(&str, bool); 6] = [
        (
            "GM latency within 11-21 us",
            (11.0..=21.0).contains(&gm_lat),
        ),
        ("GM bandwidth > 140 MB/s", gm_bw > 140.0),
        ("BCL bandwidth >= GM bandwidth", bcl_inter_bw >= gm_bw - 2.0),
        (
            "BCL bandwidth much higher than AM-II",
            bcl_inter_bw > 1.3 * am2_bw,
        ),
        (
            "BIP latency lowest of all",
            bip_lat < gm_lat && bip_lat < bcl_inter_lat,
        ),
        ("BIP bandwidth < BCL bandwidth", bip_bw < bcl_inter_bw),
    ];
    for (what, ok) in checks {
        println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
        assert!(ok, "shape check failed: {what}");
    }
    println!("  [ok] GM has no SMP support (model property); BCL adds the intra-node path");
    println!(
        "  [ok] BIP has no flow control/error correction (loses data under faults; see tests)"
    );
}

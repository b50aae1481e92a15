//! Figure 9 — inter-node bandwidth vs message size.
//!
//! Paper anchors: peak 146 MB/s (91 % of the 160 MB/s Myrinet limit),
//! half-bandwidth reached below 4 KB, a 128 KB transfer takes ≈ 898 µs, and
//! the semi-user-level penalty at 128 KB is ≈ 0.4 % of transfer time.

use suca_bench::report::{render, Row};
use suca_cluster::{measure_bandwidth, ClusterSpec};

fn main() {
    let spec = ClusterSpec::dawning3000(2);
    println!("-- Fig. 9: inter-node bandwidth vs message size (BCL)\n");
    println!("{:>10}  {:>12}", "bytes", "MB/s");
    let sizes = [
        64u64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    ];
    let mut peak: f64 = 0.0;
    let mut half_point = None;
    let mut bw128k = 0.0;
    for &s in &sizes {
        let count = (2 * 1024 * 1024 / s).clamp(8, 256) as u32;
        let r = measure_bandwidth(spec.clone(), 0, 1, s, count, 8);
        println!("{s:>10}  {:>12.1}", r.mb_per_sec);
        peak = peak.max(r.mb_per_sec);
        if half_point.is_none() && r.mb_per_sec >= 146.0 / 2.0 {
            half_point = Some(s);
        }
        if s == 131072 {
            bw128k = r.mb_per_sec;
        }
    }
    let t128k_us = 131072.0 / bw128k; // MB/s == B/us
    let kernel_extra = spec.bcl.kernel_extra(&spec.os_costs).as_us();
    println!();
    print!(
        "{}",
        render(
            "Fig. 9 anchors",
            &[
                Row::new("peak bandwidth", 146.0, peak, "MB/s"),
                Row::new("  as % of 160 MB/s link", 91.0, peak / 160.0 * 100.0, "%"),
                Row::new("128KB transfer time", 898.0, t128k_us, "us"),
                Row::new(
                    "half-bandwidth point (< 4096)",
                    None,
                    half_point.unwrap_or(0) as f64,
                    "bytes"
                ),
                Row::new(
                    "semi-user extra at 128KB",
                    0.4,
                    kernel_extra / t128k_us * 100.0,
                    "% of transfer"
                ),
            ],
        )
    );
}

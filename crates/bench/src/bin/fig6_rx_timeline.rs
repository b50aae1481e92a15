//! Figure 6 — reception timeline for a BCL message.
//!
//! The receive path never enters the kernel: the NIC checks and demuxes the
//! packet, DMAs the payload into the user buffer and the completion event
//! into the user-space queue; the process polls it for ≈ 1.01 µs. "Not trap
//! into kernel environment makes the reception operation much faster."

use suca_bench::measure::{measured_host_overheads, traced_zero_len_run};
use suca_bench::report::{assert_anchor, render, render_timeline, Row};
use suca_cluster::ClusterSpec;
use suca_sim::TraceLayer;

fn main() {
    let run = traced_zero_len_run();
    let rx: Vec<_> = run.rows.iter().filter(|r| r.node == 1).cloned().collect();
    println!("-- Fig. 6: reception timeline (receiver side, 0-length message)\n");
    print!("{}", render_timeline(&rx, 72));

    let (_, _, poll) = measured_host_overheads(ClusterSpec::dawning3000(2));
    let host_cpu = rx
        .iter()
        .filter(|r| r.layer == TraceLayer::Library)
        .map(|r| r.duration_ns() as f64 / 1_000.0)
        .sum();
    println!();
    print!(
        "{}",
        render(
            "Fig. 6 anchors",
            &[
                Row::new("receiver CPU overhead (poll, no trap)", 1.01, poll, "us"),
                Row::new("  (same, from stage spans)", 1.01, host_cpu, "us"),
            ],
        )
    );
    println!("kernel traps on receive path: 0 (by construction; see table1)");
    assert_anchor("receive poll (measured)", poll, 1.01);
    assert_anchor("receive poll (trace)", host_cpu, 1.01);
}

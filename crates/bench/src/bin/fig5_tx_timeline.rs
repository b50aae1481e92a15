//! Figure 5 — transmission timeline for a BCL message.
//!
//! The paper's Fig. 5 breaks the sender side of a 0-length message into
//! stages and reports ≈ 7.04 µs of host CPU overhead to push the message
//! into the network (more than half of it the PIO descriptor fill), plus
//! 0.82 µs later to consume the send-completion event.

use suca_bench::measure::{measured_host_overheads, traced_zero_len_run};
use suca_bench::report::{assert_anchor, render, render_timeline, Row};
use suca_cluster::ClusterSpec;

fn main() {
    let run = traced_zero_len_run();
    let tx: Vec<_> = run.rows.iter().filter(|r| r.node == 0).cloned().collect();
    println!("-- Fig. 5: transmission timeline (sender side, 0-length message)\n");
    print!("{}", render_timeline(&tx, 72));

    let host = run.bucket.host_ns_per_msg() / 1_000.0;
    let fill_pct = run.bucket.request_fill_share() * 100.0;
    let (send_oh, send_done, _) = measured_host_overheads(ClusterSpec::dawning3000(2));
    println!();
    print!(
        "{}",
        render(
            "Fig. 5 anchors",
            &[
                Row::new("host CPU overhead to push message", 7.04, send_oh, "us"),
                Row::new("  (same, summed from stage spans)", 7.04, host, "us"),
                Row::new("complete sending op (event poll)", 0.82, send_done, "us"),
                Row::new("request fill (dispatch+PIO) share", 50.0, fill_pct, "%"),
            ],
        )
    );
    println!("paper: \"filling sending request consumed more than half of the time\"");
    assert_anchor("host overhead (measured)", send_oh, 7.04);
    assert_anchor("host overhead (trace)", host, 7.04);
    assert_anchor("send-completion poll", send_done, 0.82);
    assert_anchor("request fill share", fill_pct, 56.1);
}

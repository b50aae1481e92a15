//! Figure 7 — one-way latency timeline for a 0-length BCL message.
//!
//! Paper: 18.3 µs end to end; the semi-user-level architecture adds the
//! kernel stages (≈ 4.17 µs, ≈ 22 % of the total) compared with a pure
//! user-level protocol; the NIC-side work is about a third of the total
//! ("the operation on NIC consumes more than half of the overhead" of the
//! transfer machinery, dominated by the reliable protocol).
//!
//! The user-level comparison runs the same stack as BCL with the kernel
//! moved out ([`Architecture::UserLevel`]). Its send call is exactly the
//! 4.17 µs shorter; its one-way latency only 3.10 µs, because BCL's trap
//! exit (1.07 µs) runs while the NIC already fetches the descriptor.

use suca_bcl::Architecture;
use suca_bench::measure::{measured_host_overheads, traced_zero_len_run};
use suca_bench::report::{assert_anchor, emit_metrics, render, render_timeline, Row};
use suca_cluster::{measure_one_way, ClusterSpec};
use suca_sim::mtrace::stage;

fn main() {
    let run = traced_zero_len_run();
    println!("-- Fig. 7: one-way timeline, 0-length message (all stages, both hosts)\n");
    print!("{}", render_timeline(&run.rows, 72));

    let spec = ClusterSpec::dawning3000(2);
    let user_spec = ClusterSpec::dawning3000(2).with_architecture(Architecture::UserLevel);
    let bcl = measure_one_way(spec.clone(), 0, 1, 0, 3, 10).one_way_us;
    let user_level = measure_one_way(user_spec.clone(), 0, 1, 0, 3, 10).one_way_us;
    // The paper's 4.17 us "extra" is the kernel-resident work a user-level
    // protocol skips; the PIO descriptor fill is paid by both architectures
    // and so is excluded.
    let extra = measured_host_overheads(spec).0 - measured_host_overheads(user_spec).0;
    let kernel_stage_sum = run.bucket.kernel_ns_per_msg() / 1_000.0;
    // Paper: "About one third of the overhead is used to transfer message
    // from NIC to network (stage 4)" — the descriptor fetch + reliable
    // protocol stage on the sending NIC.
    let nic_share = run.bucket.span_ns_per_msg(stage::DESCRIPTOR) / 1_000.0 / bcl * 100.0;
    println!();
    print!(
        "{}",
        render(
            "Fig. 7 anchors",
            &[
                Row::new("one-way latency (semi-user-level BCL)", 18.3, bcl, "us"),
                Row::new(
                    "one-way latency (user-level baseline)",
                    None,
                    user_level,
                    "us"
                ),
                Row::new("semi-user extra vs user-level", 4.17, extra, "us"),
                Row::new("  extra as % of total", 22.0, extra / bcl * 100.0, "%"),
                Row::new(
                    "  one-way delta vs user-level",
                    None,
                    bcl - user_level,
                    "us"
                ),
                Row::new(
                    "  kernel stages summed from spans",
                    4.17,
                    kernel_stage_sum,
                    "us"
                ),
                Row::new("NIC send stage (stage 4) share", 33.3, nic_share, "%"),
            ],
        )
    );
    println!();
    emit_metrics(&run.sim, "fig7_oneway_timeline");
    assert_anchor("one-way latency", bcl, 18.3);
    assert_anchor("semi-user extra vs user-level", extra, 4.17);
    assert_anchor("one-way delta vs user-level", bcl - user_level, 3.10);
    assert_anchor("kernel stages", kernel_stage_sum, 4.17);
    assert_anchor("NIC send stage share", nic_share, 36.1);
}

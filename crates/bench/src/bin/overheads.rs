//! §5 scalar overhead claims, each measured directly.
//!
//! The semi-user extra is the paper's "extra overhead required in
//! semi-user level communication protocol": BCL's send-call time minus the
//! user-level architecture's, both measured on the same stack. Only part of
//! it lies on the one-way latency path — the trap exit overlaps the NIC's
//! descriptor fetch — so the one-way delta is printed beside it.

use suca_bcl::Architecture;
use suca_bench::measure::measured_host_overheads;
use suca_bench::report::{assert_anchor, render, Row};
use suca_cluster::{measure_bandwidth, measure_one_way, ClusterSpec};

fn main() {
    let spec = ClusterSpec::dawning3000(2);
    let user_level = ClusterSpec::dawning3000(2).with_architecture(Architecture::UserLevel);
    let (send_oh, send_done, recv_poll) = measured_host_overheads(spec.clone());
    let (ul_send_oh, _, _) = measured_host_overheads(user_level.clone());
    let bcl = measure_one_way(spec.clone(), 0, 1, 0, 3, 10).one_way_us;
    let ul = measure_one_way(user_level, 0, 1, 0, 3, 10).one_way_us;
    let bw = measure_bandwidth(spec.clone(), 0, 1, 128 * 1024, 24, 8).mb_per_sec;
    let t128k = 131072.0 / bw;
    let extra = send_oh - ul_send_oh;

    let rows = vec![
        Row::new("send overhead (0B, host CPU)", 7.04, send_oh, "us"),
        Row::new("send completion poll", 0.82, send_done, "us"),
        Row::new("receive overhead (poll, no trap)", 1.01, recv_poll, "us"),
        Row::new(
            "PIO write one word",
            0.24,
            spec.bcl.pci.pio_write(1).as_us(),
            "us",
        ),
        Row::new(
            "PIO read one word",
            0.98,
            spec.bcl.pci.pio_read(1).as_us(),
            "us",
        ),
        Row::new("semi-user extra vs user-level", 4.17, extra, "us"),
        Row::new("  as % of one-way latency", 22.0, extra / bcl * 100.0, "%"),
        Row::new("  one-way delta vs user-level", None, bcl - ul, "us"),
        Row::new("one-way latency inter-node (0B)", 18.3, bcl, "us"),
        Row::new(
            "extra at 128KB as % of transfer",
            0.4,
            spec.bcl.kernel_extra(&spec.os_costs).as_us() / t128k * 100.0,
            "%",
        ),
    ];
    print!("{}", render("§5 scalar overheads", &rows));
    assert_anchor("semi-user extra vs user-level", extra, 4.17);
    assert_anchor("one-way delta vs user-level", bcl - ul, 3.10);
}

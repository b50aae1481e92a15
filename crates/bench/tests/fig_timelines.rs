//! Pins what Figs. 5–7 draw: the stage rows of one 0-byte message on
//! `ClusterSpec::dawning3000(2)`, read off the per-message trace.
//!
//! The `paper` bin prints these rows and asserts only the anchor sums; this
//! test holds every row to the nanosecond, as recorded — the receive poll
//! included, a span of its charged cost — plus the overlaps the Fig. 7
//! Gantt shows, so a change to the trace stream or to the row selection
//! cannot move a figure unnoticed.

use suca_bench::measure::traced_zero_len_run;
use suca_sim::mtrace::stage;
use suca_sim::TraceEvent;

#[test]
fn zero_byte_message_draws_the_twelve_paper_stages() {
    let run = traced_zero_len_run();
    let rows = &run.rows;

    let drawn: Vec<(&str, u32, u64)> = rows
        .iter()
        .map(|r| (r.stage.as_ref(), r.node, r.duration_ns()))
        .collect();
    assert_eq!(
        drawn,
        [
            (stage::COMPOSE, 0, 470),
            (stage::K_TRAP_ENTER, 0, 1_100),
            (stage::K_DISPATCH, 0, 1_550),
            (stage::K_PIN, 0, 450),
            (stage::K_PIO, 0, 2_400),
            (stage::K_TRAP_EXIT, 0, 1_070),
            (stage::DESCRIPTOR, 0, 6_600),
            (stage::INJECT, 0, 1_600),
            (stage::WIRE_TX, 0, 300),
            (stage::RX, 1, 1_450),
            (stage::DMA_CQ, 1, 373),
            (stage::POLL_RECV, 1, 1_010),
        ]
    );

    let at = |name: &str| -> &TraceEvent {
        rows.iter()
            .find(|r| r.stage == name)
            .expect("stage is a row")
    };
    // The host stages run back to back from the send call to trap return.
    for pair in rows[..6].windows(2) {
        assert_eq!(pair[0].end_ns, pair[1].start_ns, "{pair:?}");
    }
    // The NIC picks the descriptor up at the doorbell, while the host is
    // still leaving the kernel.
    let (pio, exit, desc) = (
        at(stage::K_PIO),
        at(stage::K_TRAP_EXIT),
        at(stage::DESCRIPTOR),
    );
    assert_eq!(desc.start_ns, pio.end_ns);
    assert_eq!(desc.start_ns, exit.start_ns);
    assert!(exit.end_ns < desc.end_ns);
    assert_eq!(at(stage::INJECT).start_ns, desc.end_ns);
    assert_eq!(at(stage::WIRE_TX).start_ns, at(stage::INJECT).end_ns);
    // The receiver's poll returns the moment the completion DMA lands.
    assert_eq!(at(stage::POLL_RECV).start_ns, at(stage::DMA_CQ).end_ns);

    // Send call → receive poll return: the paper's 18.3 µs one way.
    assert_eq!(rows[11].end_ns - rows[0].start_ns, 18_303);
    // The Fig. 5 host window is the six host rows.
    let host: u64 = rows[..6].iter().map(TraceEvent::duration_ns).sum();
    assert_eq!(host, 7_040);
    assert_eq!(run.bucket.host_ns_per_msg(), 7_040.0);
}

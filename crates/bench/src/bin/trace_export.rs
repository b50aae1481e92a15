//! Per-message causal tracing: run a clean and a fault-injected two-node
//! ping-pong, export each journey as Chrome/Perfetto JSON
//! (`target/traces/*.json`), verify every chain closes under the BCL
//! policy (exactly 1 trap, 0 interrupts), and print the trace-derived
//! per-stage latency breakdown.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bench::report::{emit_metrics, write_trace_json};
use suca_cluster::{Cluster, ClusterSpec, SanKind, SimBarrier};
use suca_myrinet::FaultPlan;
use suca_sim::mtrace::{
    check_completeness, record_stage_histograms, stage, ChainPolicy, STAGE_HISTOGRAMS,
};
use suca_sim::{RunOutcome, SimDuration};

const MSGS: u32 = 20;
const LEN: usize = 4096;

/// Stream `MSGS` system-channel messages node 0 → node 1 and run to
/// completion, leaving the cluster's trace rings full of journeys.
fn ping_pong(spec: ClusterSpec) -> Cluster {
    let cluster = spec.build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    let b2 = barrier.clone();
    let a2 = addr.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
        b2.wait(ctx);
        for _ in 0..MSGS {
            let ev = port.wait_recv(ctx);
            let data = port.recv_bytes(ctx, &ev).expect("recv");
            assert_eq!(data.len(), LEN);
        }
    });
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        for i in 0..MSGS {
            port.send_bytes(ctx, dst, suca_bcl::ChannelId::SYSTEM, &vec![i as u8; LEN])
                .expect("send");
            let _ = port.wait_send(ctx);
            // Pace so the system pool survives retransmission storms.
            ctx.sleep(SimDuration::from_us(400));
        }
    });
    assert_eq!(sim.run(), RunOutcome::Completed, "ping-pong hung");
    cluster
}

fn export(cluster: &Cluster, run: &str, expect_retx: bool) {
    let events = cluster.trace_events();
    let report = check_completeness(&events, &ChainPolicy::bcl());
    assert!(
        report.is_closed(),
        "{run}: trace completeness violated: {:?}",
        report.violations
    );
    if expect_retx {
        assert!(
            cluster.sim.get_count("bcl.timeouts") > 0,
            "{run}: fault injection produced no timeouts"
        );
        assert!(
            report.total_retransmissions() > 0,
            "{run}: retransmissions happened but none were traced"
        );
    }

    // Acceptance: one message's chain must show the complete journey with
    // exactly the semi-user-level kernel crossings.
    let chain = report
        .chains
        .iter()
        .find(|c| c.has_send)
        .expect("at least one traced send chain");
    assert_eq!(chain.traps, 1, "{run}: BCL sends trap exactly once");
    assert_eq!(chain.interrupts, 0, "{run}: BCL receives never interrupt");
    for s in [
        stage::SEND,
        stage::TRAP,
        stage::DESCRIPTOR,
        stage::INJECT,
        stage::HOP,
        stage::RX,
        stage::DMA_DATA,
        stage::DMA_CQ,
        stage::POLL_RECV,
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.trace == chain.trace && e.stage.as_ref() == s),
            "{run}: stage {s} missing from the acceptance chain"
        );
    }

    let path = write_trace_json(&events, run).expect("write trace");
    println!(
        "[trace] {run}: {} events, {} chains, {} retransmissions -> {}",
        events.len(),
        report.chains.len(),
        report.total_retransmissions(),
        path.display()
    );
}

fn main() {
    println!("-- Per-message causal tracing: Perfetto export + completeness check\n");

    let clean = ping_pong(ClusterSpec::dawning3000(2));
    export(&clean, "pingpong", false);

    // Trace-derived latency breakdown of the clean run.
    let chains = record_stage_histograms(&clean.trace_events(), &clean.sim.metrics());
    let snap = emit_metrics(&clean.sim, "trace_export");
    println!("\nper-stage latency breakdown ({chains} chains measured):");
    println!(
        "{:<20} {:>9} {:>9} {:>9}",
        "stage", "p50 (us)", "p95 (us)", "p99 (us)"
    );
    for name in STAGE_HISTOGRAMS {
        let s = snap.histograms.get(name).expect("stage histogram recorded");
        println!(
            "{name:<20} {:>9.2} {:>9.2} {:>9.2}",
            s.p50() / 1000.0,
            s.p95() / 1000.0,
            s.p99() / 1000.0
        );
    }

    let mut spec = ClusterSpec::dawning3000(2).with_seed(11);
    if let SanKind::Myrinet(ref mut cfg) = spec.san {
        cfg.fault = FaultPlan {
            drop_prob: 0.20,
            corrupt_prob: 0.05,
        };
    }
    let faulty = ping_pong(spec);
    export(&faulty, "pingpong_faulty", true);

    println!(
        "\nopen a trace: https://ui.perfetto.dev -> Open trace file -> target/traces/pingpong.json"
    );
}

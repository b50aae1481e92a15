//! Table 1 — comparison of the three communication architectures by
//! critical-path structure: OS traps, interrupt handling, and where the NIC
//! is accessed. The structural rows come from the architecture models; the
//! "measured" columns actually count the privileged operations during one
//! message under each architecture, so the table is verified, not asserted.

use std::sync::Arc;

use parking_lot::Mutex;

use suca_baselines::{table1, ArchModel, BaselineNet};
use suca_bcl::ChannelId;
use suca_bench::report::emit_metrics;
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_myrinet::{Myrinet, MyrinetConfig};
use suca_os::{OsCostModel, OsPersonality};
use suca_sim::mtrace::check_completeness;
use suca_sim::Sim;

/// Count (traps, interrupts) for one message under a baseline arch, and
/// hold that message's causal chain to the architecture's own crossing
/// budget: the global counters say how many crossings the run made, the
/// chain says this message made them.
fn count_baseline(arch: ArchModel) -> (u64, u64) {
    let (name, policy) = (arch.name, arch.chain_policy());
    let sim = Sim::new(1);
    let fabric = Myrinet::build(&sim, 2, MyrinetConfig::dawning3000());
    let net = BaselineNet::build(&sim, fabric, arch, OsPersonality::LINUX).expect("buildable");
    let a = net.endpoint(0);
    let b = net.endpoint(1);
    sim.spawn("tx", move |ctx| a.send(ctx, 1, b"one message", 1));
    sim.spawn("rx", move |ctx| {
        let _ = b.recv(ctx);
    });
    sim.run();
    let chains = check_completeness(&sim.trace_events(), &policy);
    assert_eq!(chains.chains.len(), 1, "{name}: one message, one chain");
    assert!(chains.is_closed(), "{name}: {:?}", chains.violations);
    (sim.get_count("os.traps"), sim.get_count("os.interrupts"))
}

/// Count (traps, interrupts) for one BCL message (full stack), derived
/// from the metrics registry. The send path and the receive path are
/// counted separately so the architecture's defining claims — exactly one
/// kernel trap per send, zero interrupts, zero kernel crossings on receive
/// — are each asserted on their own, and a JSON snapshot of every counter
/// in the run is written for the record.
fn count_bcl() -> (u64, u64) {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Arc<Mutex<Option<suca_bcl::ProcAddr>>> = Arc::new(Mutex::new(None));
    // (send traps, recv traps, recv interrupts)
    let counts = Arc::new(Mutex::new((0u64, 0u64, 0u64)));

    let b2 = barrier.clone();
    let a2 = addr.clone();
    let c2 = counts.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.lock() = Some(port.addr());
        b2.wait(ctx);
        let before = (
            ctx.sim().get_count("os.traps.n1"),
            ctx.sim().get_count("os.interrupts.n1"),
        );
        let _ = port.wait_recv(ctx);
        let after = (
            ctx.sim().get_count("os.traps.n1"),
            ctx.sim().get_count("os.interrupts.n1"),
        );
        let mut g = c2.lock();
        g.1 += after.0 - before.0;
        g.2 += after.1 - before.1;
    });
    let b3 = barrier.clone();
    let c3 = counts.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr.lock().expect("rx ready");
        let before = ctx.sim().get_count("os.traps.n0");
        port.send_bytes(ctx, dst, ChannelId::SYSTEM, b"one message")
            .expect("send");
        let after = ctx.sim().get_count("os.traps.n0");
        c3.lock().0 += after - before;
    });
    sim.run();
    let (send_traps, recv_traps, recv_interrupts) = *counts.lock();
    let snap = emit_metrics(&sim, "table1_bcl");

    // The semi-user-level contract, from the counters themselves:
    assert_eq!(
        send_traps, 1,
        "BCL must cost exactly one kernel trap per send"
    );
    assert_eq!(
        recv_traps + recv_interrupts,
        0,
        "BCL receive path must make zero kernel crossings"
    );
    assert_eq!(
        snap.counter("os.interrupts"),
        0,
        "BCL must raise zero interrupts anywhere in the run"
    );
    assert!(
        snap.counter_count() >= 20,
        "expected a full-stack snapshot (>= 20 distinct counters), got {}",
        snap.counter_count()
    );
    (send_traps + recv_traps, recv_interrupts)
}

fn main() {
    println!("-- Table 1: comparison of three communication architectures\n");
    let os = OsCostModel::aix_power3();
    let rows = table1(&os);
    let measured = [
        count_baseline(ArchModel::kernel_level(&os)),
        count_baseline(ArchModel::user_level()),
        count_bcl(),
    ];
    println!(
        "{:<28} {:>14} {:>14} {:>12} {:>22}",
        "architecture", "OS traps", "interrupts", "NIC access", "measured (traps,intr)"
    );
    for (row, m) in rows.iter().zip(measured) {
        println!(
            "{:<28} {:>14} {:>14} {:>12} {:>18}",
            row.architecture,
            row.os_traps,
            row.interrupts,
            row.nic_access,
            format!("({}, {})", m.0, m.1),
        );
        assert_eq!(
            (u64::from(row.os_traps), u64::from(row.interrupts)),
            m,
            "measured privileged-op counts diverge from the architectural model"
        );
    }
    println!("\n(measured columns count actual privileged operations during one message)");
}

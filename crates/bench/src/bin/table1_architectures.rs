//! Table 1 — comparison of the three communication architectures by
//! critical-path structure: OS traps, interrupt handling, and where the NIC
//! is accessed. The model columns come from [`Architecture`]; the measured
//! columns count the privileged operations one message actually makes
//! through the BCL stack built with that architecture, so the table is
//! verified, not asserted.

use std::sync::Arc;

use parking_lot::Mutex;

use suca_bcl::{Architecture, ChannelId};
use suca_bench::report::emit_metrics;
use suca_cluster::{ClusterSpec, SimBarrier};
use suca_sim::mtrace::check_completeness;
use suca_sim::TraceId;

/// Count (traps, interrupts) for one message under `arch`, derived from the
/// metrics registry. The send path and the receive path are counted
/// separately so each of the architecture's claims — its send traps, its
/// receive traps and interrupts — is asserted on its own, and the message's
/// causal chain is held to the same budget: the counters say how many
/// crossings the nodes made, the chain says this message made them. BCL's
/// run also writes a JSON snapshot of every counter for the record.
fn count(arch: Architecture) -> (u64, u64) {
    let cluster = ClusterSpec::dawning3000(2).with_architecture(arch).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let addr: Arc<Mutex<Option<suca_bcl::ProcAddr>>> = Arc::new(Mutex::new(None));
    // (send traps, recv traps, recv interrupts)
    let counts = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let sent: Arc<Mutex<Option<TraceId>>> = Arc::new(Mutex::new(None));

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
    let s3 = sent.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr.lock().expect("rx ready");
        let before = ctx.sim().get_count("os.traps.n0");
        let msg_id = port
            .send_bytes(ctx, dst, ChannelId::SYSTEM, b"one message")
            .expect("send");
        let after = ctx.sim().get_count("os.traps.n0");
        c3.lock().0 += after - before;
        *s3.lock() = Some(TraceId::new(0, msg_id));
    });
    sim.run();
    let (send_traps, recv_traps, recv_interrupts) = *counts.lock();
    let name = arch.name();
    if arch == Architecture::SemiUser {
        let snap = emit_metrics(&sim, "table1_bcl");
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
    }
    let id = sent.lock().expect("message sent");
    let mut events = cluster.trace_events();
    events.retain(|ev| ev.trace == id);
    let chains = check_completeness(&events, &arch.chain_policy());
    assert_eq!(chains.chains.len(), 1, "{name}: one message, one chain");
    assert!(chains.is_closed(), "{name}: {:?}", chains.violations);

    // The architecture's contract, from the counters themselves.
    let kernel_receive = u64::from(arch.kernel_receive());
    assert_eq!(
        send_traps,
        u64::from(!arch.user_nic_access()),
        "{name}: kernel traps per send"
    );
    assert_eq!(
        (recv_traps, recv_interrupts),
        (kernel_receive, kernel_receive),
        "{name}: kernel crossings on the receive path"
    );
    (send_traps + recv_traps, recv_interrupts)
}

fn main() {
    println!("-- Table 1: comparison of three communication architectures\n");
    let archs = [
        Architecture::KernelLevel,
        Architecture::UserLevel,
        Architecture::SemiUser,
    ];
    let measured = archs.map(count);
    println!(
        "{:<28} {:>14} {:>14} {:>12} {:>22}",
        "architecture", "OS traps", "interrupts", "NIC access", "measured (traps,intr)"
    );
    for (arch, m) in archs.into_iter().zip(measured) {
        println!(
            "{:<28} {:>14} {:>14} {:>12} {:>18}",
            arch.name(),
            arch.traps(),
            arch.interrupts(),
            arch.nic_access(),
            format!("({}, {})", m.0, m.1),
        );
        assert_eq!(
            (arch.traps(), arch.interrupts()),
            m,
            "measured privileged-op counts diverge from the architectural model"
        );
    }
    println!("\n(measured columns count actual privileged operations during one message)");
}

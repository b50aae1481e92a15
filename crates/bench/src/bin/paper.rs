//! The paper's evaluation in one run: Table 1, Figs. 5–9, Tables 2–3, the
//! §5 scalars, the critical-path report of two telemetry streams, and the
//! sensitivity of four anchors to each cost constant. Each quantity is
//! measured once and every section reads it from there:
//!
//! * one traced 0-byte message draws Figs. 5–7;
//! * `measured_host_overheads` runs once per architecture (BCL and the
//!   user-level protocol the 4.17 µs extra is measured against);
//! * one ping-pong measurement, `measure_one_way`, gives every one-way latency,
//!   always [`WARMUP`] untimed + [`TIMED`] timed messages, and the two
//!   telemetry streams (0 warm-up + 30 timed);
//! * one count rule, [`bw_count`], gives every bandwidth;
//! * the sensitivity matrix re-measures its anchors the same ways, once per
//!   constant of [`COST_CONSTANTS`] raised by 1 µs.
//!
//! Every row printed goes, from the same list, into the ledger
//! `BENCH_stack.json`, with one critical-path decomposition per Fig. 8 size
//! whose stages and wait sum to that size's one-way latency, to the ns. The
//! run fails, naming the first differing line, when the ledger differs from
//! the committed `BENCH_stack.json` at the repository root. An intended
//! change copies `target/bench/BENCH_stack.json` over it.

use std::cell::RefCell;
use std::rc::Rc;

use suca_bcl::{Architecture, ChannelId};
use suca_bench::measure::{measured_host_overheads, traced_zero_len_run, COST_CONSTANTS};
use suca_bench::report::{
    assert_anchor, emit_metrics, first_difference, render_timeline, write_timeseries_json,
    write_trace_json_with_counters, Ledger, Recovery, Row,
};
use suca_bench::{layer_bandwidth_mbps, layer_one_way_us, Layer};
use suca_cluster::{measure_bandwidth, measure_one_way, ClusterSpec, LatencyResult, SimBarrier};
use suca_sim::artifact::write_artifact;
use suca_sim::critpath;
use suca_sim::mtrace::{check_completeness, stage};
use suca_sim::{Sim, SimDuration, TraceId};

/// The committed ledger this run must reproduce byte for byte.
const COMMITTED: &str = include_str!("../../../../BENCH_stack.json");

/// Untimed and timed ping-pongs of every one-way latency.
const WARMUP: u32 = 3;
const TIMED: u32 = 10;

/// Fig. 8's message sizes.
const LATENCY_SIZES: [u64; 13] = [
    0, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
];

/// Fig. 9's message sizes.
const BANDWIDTH_SIZES: [u64; 10] = [64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];

/// Per-message wait of the 0 B decomposition while the receive poll was
/// traced as an instant, so critpath booked its 1.01 µs as wait.
const INSTANT_POLL_WAIT_NS: u64 = 1_710;

/// Messages streamed per bandwidth point: about 2 MiB, at least 8.
fn bw_count(size: u64) -> u32 {
    (2 * 1024 * 1024 / size).clamp(8, 256) as u32
}

/// A duration in µs, as whole ns: two measurements of one quantity agree
/// to the ns, not to the last bit of a float.
fn ns(us: f64) -> u64 {
    (us * 1e3).round() as u64
}

/// Every fabric here is loss-free, so a run's go-back-N recovers nothing.
fn one_way(spec: ClusterSpec, dst: u32, size: u64) -> LatencyResult {
    let r = measure_one_way(spec, 0, dst, size, WARMUP, TIMED);
    Recovery::of(&r.cluster.sim).assert_none(&format!("one-way {size} B to node {dst}"));
    r
}

fn bandwidth(spec: ClusterSpec, dst: u32, size: u64) -> f64 {
    measure_bandwidth(spec, 0, dst, size, bw_count(size), 8).mb_per_sec
}

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
    let addr: Rc<RefCell<Option<suca_bcl::ProcAddr>>> = Rc::new(RefCell::new(None));
    // (send traps, recv traps, recv interrupts)
    let counts = Rc::new(RefCell::new((0u64, 0u64, 0u64)));
    let sent: Rc<RefCell<Option<TraceId>>> = Rc::new(RefCell::new(None));

    let b2 = barrier.clone();
    let a2 = addr.clone();
    let c2 = counts.clone();
    cluster.spawn_process(1, "rx", move |ctx, env| {
        let port = env.open_port(ctx);
        *a2.borrow_mut() = Some(port.addr());
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
        let mut g = c2.borrow_mut();
        g.1 += after.0 - before.0;
        g.2 += after.1 - before.1;
    });
    let b3 = barrier.clone();
    let c3 = counts.clone();
    let s3 = sent.clone();
    cluster.spawn_process(0, "tx", move |ctx, env| {
        let port = env.open_port(ctx);
        b3.wait(ctx);
        let dst = addr.borrow_mut().expect("rx ready");
        let before = ctx.sim().get_count("os.traps.n0");
        let msg_id = port
            .send_bytes(ctx, dst, ChannelId::SYSTEM, b"one message")
            .expect("send");
        let after = ctx.sim().get_count("os.traps.n0");
        c3.borrow_mut().0 += after - before;
        *s3.borrow_mut() = Some(TraceId::new(0, msg_id));
    });
    sim.run();
    let (send_traps, recv_traps, recv_interrupts) = *counts.borrow();
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
    let id = sent.borrow_mut().expect("message sent");
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

fn table1(ledger: &mut Ledger) {
    let archs = [
        Architecture::KernelLevel,
        Architecture::UserLevel,
        Architecture::SemiUser,
    ];
    for arch in archs {
        let measured = count(arch);
        assert_eq!(
            (arch.traps(), arch.interrupts()),
            measured,
            "measured privileged-op counts diverge from the architectural model"
        );
        let row = |what, model: u64, measured: u64| {
            let what = format!("{} {what}", arch.name());
            Row::new(what, model as f64, measured as f64, "per msg")
        };
        ledger.record(
            "table1",
            &[
                row("OS traps", arch.traps(), measured.0),
                row("interrupts", arch.interrupts(), measured.1),
            ],
        );
    }
    let title = "Table 1: three communication architectures (paper: the model; \
                 measured: privileged operations counted during one message)";
    ledger.print("table1", title);
}

/// Sanity-check one run's telemetry snapshot: probes present, every probe
/// sampled, sim timestamps strictly monotone.
fn check_timeseries(sim: &Sim, run: &str) {
    let snap = sim.timeseries().snapshot();
    assert!(snap.samples_taken > 0, "{run}: sampler never ticked");
    assert!(!snap.series.is_empty(), "{run}: no probes registered");
    for s in &snap.series {
        assert!(
            !s.points.is_empty(),
            "{run}: probe {} registered but never sampled",
            s.name
        );
        for w in s.points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "{run}: probe {} timestamps not monotone",
                s.name
            );
        }
    }
    println!(
        "[telemetry] {run}: {} probes x {} samples",
        snap.series.len(),
        snap.samples_taken
    );
}

/// Two clean 30-message streams (0 B on the system channel, 64 KiB on a
/// normal channel): their probe rings as timeseries JSON and Perfetto
/// counter tracks, and the critical-path report of their messages.
fn telemetry(ledger: &mut Ledger) {
    println!("-- Continuous telemetry, critical-path attribution, stall watchdog\n");
    let stream = |size| measure_one_way(ClusterSpec::dawning3000(2), 0, 1, size, 0, 30);
    let (s0, s64) = (stream(0), stream(64 * 1024));
    for (r, run) in [(&s0, "telemetry_0b"), (&s64, "telemetry_64k")] {
        let sim = &r.cluster.sim;
        Recovery::of(sim).assert_none(run);
        check_timeseries(sim, run);
        let ts = write_timeseries_json(sim, run).expect("write timeseries");
        let events = r.cluster.trace_events();
        let tr = write_trace_json_with_counters(&events, sim, run).expect("write trace");
        println!("[telemetry] {run}: rings -> {}", ts.display());
        println!(
            "[telemetry] {run}: trace + counter tracks -> {}",
            tr.display()
        );
    }

    // Trace ids are unique only within one simulation, so each stream is
    // analyzed on its own.
    let report = |r: &LatencyResult| critpath::bottleneck_report(&r.critpath());
    let (report0, report64) = (report(&s0), report(&s64));
    println!("\nbottleneck report, 0 B stream:");
    print!("{}", report0.render());
    println!("bottleneck report, 64 KiB stream:");
    print!("{}", report64.render());

    let b0 = report0.bucket_for(0).expect("0 B bucket");
    let host = b0.host_ns_per_msg() / 1000.0;
    let fill = b0.request_fill_share() * 100.0;
    let kernel = b0.kernel_ns_per_msg() / 1000.0;
    ledger.table(
        "telemetry",
        "critical path vs paper (0 B)",
        &[
            Row::new("host send overhead", 7.04, host, "us"),
            Row::new("request fill share", None, fill, "%"),
            Row::new("kernel-resident stages", 4.17, kernel, "us"),
        ],
    );

    // Large messages: the host window is amortized away; wire/DMA dominate.
    let b64 = report64.bucket_for(64 * 1024).expect("64 KiB bucket");
    let dominant = b64
        .dominant
        .iter()
        .max_by_key(|&(_, n)| n)
        .map(|(s, _)| s.as_str())
        .unwrap_or("<none>");
    println!("\n64 KiB dominant stage: {dominant}");
    assert_eq!(
        dominant,
        stage::WIRE_TX,
        "wire serialization should dominate 64 KiB messages"
    );
    let host_share = b64.host_ns_per_msg() * b64.messages as f64 / b64.total_ns as f64;
    assert!(
        host_share < 0.1,
        "host overhead should be amortized at 64 KiB, got {host_share:.3}"
    );
    emit_metrics(&s0.cluster.sim, "telemetry");
    emit_metrics(&s64.cluster.sim, "telemetry_64k");
}

/// The sensitivity matrix's anchors: the 0 B send call, the 0 B and 64 KiB
/// one-way latencies, and the per-message time of the 128 KiB stream, in µs.
const ANCHORS: [&str; 4] = [
    "send call 0 B",
    "one-way 0 B",
    "one-way 65536 B",
    "transfer 131072 B",
];

/// [`ANCHORS`] measured on `spec`.
fn anchors(spec: &ClusterSpec) -> [f64; 4] {
    [
        measured_host_overheads(spec.clone()).0,
        one_way(spec.clone(), 1, 0).one_way_us,
        one_way(spec.clone(), 1, 64 * 1024).one_way_us,
        131072.0 / bandwidth(spec.clone(), 1, 128 * 1024),
    ]
}

/// Raise each constant of [`COST_CONSTANTS`] by 1 µs, re-measure the
/// anchors, and record the change per µs against `base`, the anchors the
/// run already measured on `spec`. Virtual time is exact, so an entry is
/// the number of times the constant sits on that anchor's critical path;
/// the DESIGN.md identities are asserted on those counts, to the ns.
fn sensitivity(ledger: &mut Ledger, spec: &ClusterSpec, base: [f64; 4]) {
    let mut rows = Vec::new();
    let mut ns_per_us = std::collections::HashMap::new();
    for &(name, knob) in COST_CONSTANTS {
        // No virtual time depends on the per-message trace, and in the
        // debug profile it is a third of these runs' host time.
        let mut raised = spec.clone().with_trace_sampling(0);
        *knob(&mut raised) += SimDuration::from_us(1);
        let raised = anchors(&raised);
        let per_us: [f64; 4] = std::array::from_fn(|i| raised[i] - base[i]);
        for (anchor, x) in ANCHORS.iter().zip(per_us) {
            rows.push(Row::new(format!("{name} on {anchor}"), None, x, "x"));
        }
        ns_per_us.insert(name, per_us.map(|x| (x * 1e3).round() as i64));
    }
    let title = "Sensitivity: anchor change per +1 us of each constant";
    ledger.table("sensitivity", title, &rows);
    // DESIGN.md's identities, each (constant, anchor, count): the five
    // `kernel_extra` terms and the words of `descriptor_pio(0)` on the send
    // call, the trap exit and the send-completion poll off the 0 B one-way,
    // and no interrupt anywhere.
    let words = (spec.bcl.descriptor_base_words + spec.bcl.doorbell_words) as i64;
    let identities = [
        ("os.trap_enter", 0, 1),
        ("copyin_dispatch", 0, 1),
        ("os.security_check", 0, 1),
        ("os.pin_lookup_hit", 0, 1),
        ("os.trap_exit", 0, 1),
        ("pci.pio_write_word", 0, words),
        ("os.trap_exit", 1, 0),
        ("poll_send", 1, 0),
    ];
    let no_interrupt = (0..4).map(|anchor| ("os.interrupt_entry", anchor, 0));
    for (name, anchor, count) in identities.into_iter().chain(no_interrupt) {
        let ns = ns_per_us[name][anchor];
        assert_eq!(ns, 1_000 * count, "{name} on {}", ANCHORS[anchor]);
    }
}

fn main() {
    let mut ledger = Ledger::default();
    let spec = ClusterSpec::dawning3000(2);
    let user_spec = ClusterSpec::dawning3000(2).with_architecture(Architecture::UserLevel);

    table1(&mut ledger);

    // The one traced 0 B message, and the host overheads measured around
    // the calls themselves.
    let run = traced_zero_len_run();
    Recovery::of(&run.sim).assert_none("traced 0 B message");
    let (send_oh, send_done, poll) = measured_host_overheads(spec.clone());
    let (user_send_oh, _, _) = measured_host_overheads(user_spec.clone());

    println!("\n-- Fig. 5: transmission timeline (sender side, 0-length message)\n");
    let tx: Vec<_> = run.rows.iter().filter(|r| r.node == 0).cloned().collect();
    print!("{}", render_timeline(&tx, 72));
    let host = run.bucket.host_ns_per_msg() / 1_000.0;
    let fill_pct = run.bucket.request_fill_share() * 100.0;
    println!();
    ledger.table(
        "fig5",
        "Fig. 5 anchors",
        &[
            Row::new("host CPU overhead to push message", 7.04, send_oh, "us"),
            Row::new("  (same, summed from stage spans)", 7.04, host, "us"),
            Row::new("complete sending op (event poll)", 0.82, send_done, "us"),
            Row::new("request fill (dispatch+PIO) share", 50.0, fill_pct, "%"),
        ],
    );
    println!("paper: \"filling sending request consumed more than half of the time\"");
    assert_eq!(ns(host), ns(send_oh), "the api:send span is the send call");
    assert_anchor("host overhead", send_oh, 7.04);
    assert_anchor("send-completion poll", send_done, 0.82);
    assert_anchor("request fill share", fill_pct, 56.1);

    println!("\n-- Fig. 6: reception timeline (receiver side, 0-length message)\n");
    let rx: Vec<_> = run.rows.iter().filter(|r| r.node == 1).cloned().collect();
    print!("{}", render_timeline(&rx, 72));
    let poll_row = run
        .rows
        .iter()
        .find(|r| r.stage == stage::POLL_RECV)
        .expect("the receive poll is a row")
        .duration_ns() as f64
        / 1_000.0;
    println!();
    ledger.table(
        "fig6",
        "Fig. 6 anchors",
        &[
            Row::new("receiver CPU overhead (poll, no trap)", 1.01, poll, "us"),
            Row::new("  (same, from stage spans)", 1.01, poll_row, "us"),
        ],
    );
    println!("kernel traps on receive path: 0 (by construction; see table1)");
    assert_eq!(ns(poll_row), ns(poll), "the api:poll_recv span is the poll");
    assert_anchor("receive poll", poll, 1.01);

    // Fig. 8's sweep; its 0 B point is every section's BCL one-way.
    let latencies: Vec<LatencyResult> = LATENCY_SIZES
        .iter()
        .map(|&size| one_way(spec.clone(), 1, size))
        .collect();
    let bcl = latencies[0].one_way_us;
    let user = one_way(user_spec.clone(), 1, 0).one_way_us;

    println!("\n-- Fig. 7: one-way timeline, 0-length message (all stages, both hosts)\n");
    print!("{}", render_timeline(&run.rows, 72));
    // The paper's 4.17 us "extra" is the kernel-resident work a user-level
    // protocol skips, on the send call; the PIO descriptor fill is paid by
    // both architectures and so is excluded. Only part of it lies on the
    // one-way path: the trap exit overlaps the NIC's descriptor fetch.
    let extra = send_oh - user_send_oh;
    let kernel = run.bucket.kernel_ns_per_msg() / 1_000.0;
    // Paper: "About one third of the overhead is used to transfer message
    // from NIC to network (stage 4)" — the descriptor fetch + reliable
    // protocol stage on the sending NIC.
    let nic_share = run.bucket.span_ns_per_msg(stage::DESCRIPTOR) / 1_000.0 / bcl * 100.0;
    println!();
    ledger.table(
        "fig7",
        "Fig. 7 anchors",
        &[
            Row::new("one-way latency (semi-user-level BCL)", 18.3, bcl, "us"),
            Row::new("one-way latency (user-level baseline)", None, user, "us"),
            Row::new("semi-user extra vs user-level", 4.17, extra, "us"),
            Row::new("  extra as % of total", 22.0, extra / bcl * 100.0, "%"),
            Row::new("  one-way delta vs user-level", None, bcl - user, "us"),
            Row::new("  kernel stages summed from spans", 4.17, kernel, "us"),
            Row::new("NIC send stage (stage 4) share", 33.3, nic_share, "%"),
        ],
    );
    println!();
    emit_metrics(&run.sim, "fig7_oneway_timeline");
    assert_eq!(
        ns(kernel),
        ns(extra),
        "the send-call extra is the kernel-resident spans"
    );
    assert_anchor("one-way latency", bcl, 18.3);
    assert_anchor("semi-user extra vs user-level", extra, 4.17);
    assert_anchor("one-way delta vs user-level", bcl - user, 3.10);
    assert_anchor("NIC send stage share", nic_share, 36.1);

    for r in &latencies {
        let what = format!("one-way {} B", r.size);
        ledger.record("fig8", &[Row::new(what, None, r.one_way_us, "us")]);
    }
    // The ledger's arithmetic: over the timed messages, critical-path self
    // time plus wait is the critical-path total is the measured one-way
    // latency, to the ns.
    for r in &latencies {
        let report = critpath::bottleneck_report(&r.critpath());
        let b = report
            .bucket_for(r.size)
            .expect("the timed messages' bucket");
        let what = format!("{} B", r.size);
        assert_eq!((b.messages, report.unclosed), (TIMED as usize, 0), "{what}");
        let self_ns: u64 = b.stage_self_ns.values().sum();
        assert_eq!(self_ns + b.wait_ns, b.total_ns, "{what}: self + wait");
        assert_eq!(b.total_ns, r.timed_ns, "{what}: critical path vs one-way");
        if r.size == 0 {
            // The receive poll is a span, no longer wait.
            let wait = INSTANT_POLL_WAIT_NS - 1_010;
            assert_eq!(b.wait_ns, wait * u64::from(TIMED), "{what}: wait");
        }
        ledger.decomposition("fig8", r.size, b);
    }
    println!();
    ledger.print(
        "fig8",
        "Fig. 8: inter-node one-way latency vs message size (BCL), and where it goes",
    );

    let mut peak: f64 = 0.0;
    let mut half_point = None;
    let mut bw128k = 0.0;
    for &size in &BANDWIDTH_SIZES {
        let mb_s = bandwidth(spec.clone(), 1, size);
        ledger.record(
            "fig9",
            &[Row::new(format!("bandwidth {size} B"), None, mb_s, "MB/s")],
        );
        peak = peak.max(mb_s);
        if half_point.is_none() && mb_s >= 146.0 / 2.0 {
            half_point = Some(size);
        }
        bw128k = mb_s;
    }
    let t128k_us = 131072.0 / bw128k; // MB/s == B/us
    let extra_128k = spec.bcl.kernel_extra(&spec.os_costs).as_us() / t128k_us * 100.0;
    println!();
    ledger.table(
        "fig9",
        "Fig. 9: inter-node bandwidth vs message size (BCL), and its anchors",
        &[
            Row::new("peak bandwidth", 146.0, peak, "MB/s"),
            Row::new("  as % of 160 MB/s link", 91.0, peak / 160.0 * 100.0, "%"),
            Row::new("128KB transfer time", 898.0, t128k_us, "us"),
            Row::new(
                "half-bandwidth point (< 4096)",
                None,
                half_point.unwrap_or(0) as f64,
                "bytes",
            ),
            Row::new("semi-user extra at 128KB", 0.4, extra_128k, "% of transfer"),
        ],
    );

    // Table 2: every row is the same two measurements on the same stack; a
    // comparator is BCL with its `Architecture` preset.
    let inter_node = |arch| {
        let spec = ClusterSpec::dawning3000(2).with_architecture(arch);
        (
            one_way(spec.clone(), 1, 0).one_way_us,
            bandwidth(spec, 1, 128 * 1024),
        )
    };
    let bcl_intra_lat = one_way(spec.clone(), 0, 0).one_way_us;
    let bcl_intra_bw = bandwidth(spec.clone(), 0, 128 * 1024);
    let (gm_lat, gm_bw) = inter_node(Architecture::Gm);
    let (am2_lat, am2_bw) = inter_node(Architecture::Am2);
    let (bip_lat, bip_bw) = inter_node(Architecture::Bip);
    println!();
    ledger.table(
        "table2",
        "Table 2: protocols over Myrinet",
        &[
            Row::new("BCL latency intra-node", 2.7, bcl_intra_lat, "us"),
            Row::new("BCL latency inter-node", 18.3, bcl, "us"),
            Row::new("BCL bandwidth intra-node", 391.0, bcl_intra_bw, "MB/s"),
            Row::new("BCL bandwidth inter-node", 146.0, bw128k, "MB/s"),
            Row::new("GM latency (paper: 11-21)", None, gm_lat, "us"),
            Row::new("GM bandwidth (paper: >140)", None, gm_bw, "MB/s"),
            Row::new("AM-II latency", None, am2_lat, "us"),
            Row::new("AM-II bandwidth (paper: << BCL)", None, am2_bw, "MB/s"),
            Row::new("BIP latency (paper: very low)", None, bip_lat, "us"),
            Row::new("BIP bandwidth (< BCL)", None, bip_bw, "MB/s"),
        ],
    );
    println!();
    println!("shape checks (the paper's qualitative claims):");
    let checks: [(&str, bool); 6] = [
        (
            "GM latency within 11-21 us",
            (11.0..=21.0).contains(&gm_lat),
        ),
        ("GM bandwidth > 140 MB/s", gm_bw > 140.0),
        ("BCL bandwidth >= GM bandwidth", bw128k >= gm_bw - 2.0),
        (
            "BCL bandwidth much higher than AM-II",
            bw128k > 1.3 * am2_bw,
        ),
        (
            "BIP latency lowest of all",
            bip_lat < gm_lat && bip_lat < bcl,
        ),
        ("BIP bandwidth < BCL bandwidth", bip_bw < bw128k),
    ];
    for (what, ok) in checks {
        println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
        assert!(ok, "shape check failed: {what}");
    }
    println!("  [ok] GM has no SMP support (model property); BCL adds the intra-node path");
    println!(
        "  [ok] BIP has no flow control/error correction (loses data under faults; see tests)"
    );

    // The paper's intra / inter latency and bandwidth, per layer.
    let table3 = [
        (Layer::Mpi, "MPI", [6.3, 23.7, 328.0, 131.0]),
        (Layer::Pvm, "PVM", [6.5, 22.4, 313.0, 131.0]),
    ];
    let table3: Vec<Row> = table3
        .into_iter()
        .flat_map(|(layer, name, paper)| {
            let lat = |intra| layer_one_way_us(layer, intra, 0, WARMUP, TIMED);
            let bw = |intra| layer_bandwidth_mbps(layer, intra, 128 * 1024, bw_count(128 * 1024));
            let row = |what, paper, measured, unit| {
                Row::new(format!("{name} {what}"), paper, measured, unit)
            };
            [
                row("latency intra-node (0B)", paper[0], lat(true), "us"),
                row("latency inter-node (0B)", paper[1], lat(false), "us"),
                row("bandwidth intra-node (128KB)", paper[2], bw(true), "MB/s"),
                row("bandwidth inter-node (128KB)", paper[3], bw(false), "MB/s"),
            ]
        })
        .collect();
    println!();
    ledger.table("table3", "Table 3: MPI and PVM over BCL", &table3);

    println!();
    ledger.table(
        "s5",
        "§5 scalar overheads",
        &[
            Row::new("send overhead (0B, host CPU)", 7.04, send_oh, "us"),
            Row::new("send completion poll", 0.82, send_done, "us"),
            Row::new("receive overhead (poll, no trap)", 1.01, poll, "us"),
            Row::new(
                "PIO write one word",
                0.24,
                spec.bcl.pci.pio_write(1).as_us(),
                "us",
            ),
            Row::new("semi-user extra vs user-level", 4.17, extra, "us"),
            Row::new("  as % of one-way latency", 22.0, extra / bcl * 100.0, "%"),
            Row::new("  one-way delta vs user-level", None, bcl - user, "us"),
            Row::new("one-way latency inter-node (0B)", 18.3, bcl, "us"),
            Row::new("extra at 128KB as % of transfer", 0.4, extra_128k, "%"),
        ],
    );

    println!();
    let at_64k = latencies.iter().find(|r| r.size == 64 * 1024);
    let at_64k = at_64k.expect("Fig. 8 measures 64 KiB").one_way_us;
    sensitivity(&mut ledger, &spec, [send_oh, bcl, at_64k, t128k_us]);

    println!();
    telemetry(&mut ledger);

    let json = ledger.to_json("suca.bench_stack.v1");
    let path = write_artifact("bench", "BENCH_stack", &json).expect("write the ledger");
    println!("\n[ledger] {} -> {}", json.lines().count(), path.display());
    if let Some(diff) = first_difference(COMMITTED, &json) {
        panic!(
            "BENCH_stack.json {diff}; if the change is intended, copy {} over BENCH_stack.json",
            path.display()
        );
    }
}

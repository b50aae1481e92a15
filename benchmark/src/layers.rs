//! Per-layer numbers, read from outside the stack: its public counters and
//! gauges, the causal trace through `critpath`, the engine profiler, and
//! the benchmark's own spans.
//!
//! A layer's self-time is its trace span minus the part covered by the
//! spans nested in it (`critpath::analyze`), summed over the traced rep's
//! messages and divided by their number. Per-op ratios use counter
//! increments of the measured phase only, so port opens and buffer posts
//! do not dilute them.

use std::collections::BTreeMap;

use suca_sim::critpath;
use suca_sim::mtrace::stage;
use suca_sim::prof::KIND_WAKE;

use crate::metrics::PER_LAYER;
use crate::spans::{median_us, Span};
use crate::stats::median;
use crate::workloads::{Harness, Outcome};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric this rep can supply. Metrics the rep has no
/// source for (trace-derived ones on a timed rep, layers the workload does
/// not touch) read 0.
pub fn extract(h: &Harness, out: &Outcome, spans: &[Span]) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), 0.0))
        .collect();
    let mut set = |k: &str, v: f64| {
        let slot = m
            .get_mut(k)
            .unwrap_or_else(|| panic!("{k} is not in PER_LAYER"));
        *slot = v;
    };
    let Some(sim) = h.sims.last() else {
        return m;
    };
    let ops = if out.phase_ops > 0 {
        out.phase_ops
    } else {
        out.attempted
    } as f64;
    let events = h.events as f64;
    let phase = |name: &str| out.phase_counters.get(name).copied().unwrap_or(0) as f64;
    let total = |name: &str| sim.snapshot.counter(name) as f64;
    let high_water = |name: &str| {
        sim.snapshot
            .gauges
            .get(name)
            .map_or(0.0, |g| g.high_water as f64)
    };

    // sim — host clock and engine profiler.
    set("sim.events", events);
    set("sim.events_per_host_s", ratio(events, h.wall.as_secs_f64()));
    set("sim.cpu_user_s", h.cpu_user_s);
    set("sim.cpu_sys_s", h.cpu_sys_s);
    set(
        "sim.ctx_switches_per_event",
        ratio(h.voluntary_switches as f64, events),
    );
    set("sim.threads", h.threads as f64);
    if let Some(p) = &sim.prof {
        set(
            "sim.wake_share_pct",
            ratio(p.dispatch_ns[KIND_WAKE] as f64, p.run_ns as f64) * 100.0,
        );
        set("sim.sched_lock_hold_ms", p.lock_hold_ns() as f64 / 1e6);
        set("sim.mean_batch_len", p.mean_batch_len());
        set("sim.cross_shard_pushes", p.cross_shard_pushes as f64);
        set(
            "sim.allocs_per_event",
            ratio(p.alloc_count.iter().sum::<u64>() as f64, p.events() as f64),
        );
    }

    // os, mem — per op, measured phase only.
    set("os.traps_per_op", ratio(phase("os.traps"), ops));
    set("os.interrupts_per_op", ratio(phase("os.interrupts"), ops));
    set("mem.frames_per_op", ratio(out.phase_frames as f64, ops));

    // bcl — the benchmark's own spans around the public calls.
    set("bcl.send_call_us", median_us(spans, "bcl.send"));
    set("bcl.poll_recv_us", median_us(spans, "bcl.poll_recv"));
    set("bcl.poll_send_us", median_us(spans, "bcl.poll_send"));

    // kmod, mcp, fabric, dma — counters and gauges.
    set(
        "kmod.pin_hit_ratio",
        ratio(
            phase("kmod.pin_hits"),
            phase("kmod.pin_hits") + phase("kmod.pin_misses"),
        ),
    );
    set("kmod.pinned_bytes_hw", high_water("kmod.pinned_bytes"));
    set(
        "mcp.retx_ratio",
        ratio(phase("bcl.retx_packets"), phase("fabric.injected")),
    );
    set("mcp.timeouts", phase("bcl.timeouts"));
    set("mcp.rejects_sent", phase("mcp.rejects_sent"));
    set("mcp.send_queue_hw", sim.send_queue_hw as f64);
    set("mcp.sram_used_hw", high_water("nic.sram_used"));
    set("mcp.sram_stalls", phase("bcl.sram_stall"));
    set("fabric.link_tx_bytes", phase("link.tx_bytes"));
    set(
        "fabric.overhead_ratio",
        ratio(phase("link.tx_bytes"), out.payload_bytes as f64),
    );
    set(
        "fabric.drop_ratio",
        ratio(phase("fabric.dropped"), phase("fabric.injected")),
    );
    // DMA engines of one kind share a counter across nodes, so the share
    // is busy time over (kinds × nodes × phase length).
    let dma_busy: Vec<f64> = out
        .phase_counters
        .iter()
        .filter(|(k, _)| k.starts_with("dma.") && k.ends_with(".busy_ns"))
        .map(|(_, v)| *v as f64)
        .collect();
    set(
        "dma.host_busy_share",
        ratio(
            dma_busy.iter().sum(),
            dma_busy.len() as f64 * f64::from(sim.nodes) * out.phase_ns as f64,
        ),
    );

    // rpc — counters; latencies per class come from the workload.
    set("rpc.srv_queue_hw", high_water("rpc.srv_queue_depth"));
    set(
        "rpc.shed_ratio",
        ratio(total("rpc.cli_shed"), total("rpc.cli_issued")),
    );
    set("rpc.retries", total("rpc.cli_retries"));
    set("rpc.timeouts", total("rpc.cli_timeout"));
    set("rpc.rma_responses", total("rpc.srv_rma_responses"));
    set("rpc.scratch_stalls", total("rpc.srv_scratch_stalls"));

    // coll / mpi.
    set("coll.early_drops", total("mcp.coll_early_drops"));
    set(
        "mpi.coll_fallbacks",
        total("mpi.coll_plan_rejected")
            + total("mpi.coll_launch_failed")
            + total("mpi.coll_nic_rejected"),
    );

    // Trace-derived: per-message self-times and RPC span medians.
    if !sim.trace.is_empty() {
        let paths = critpath::analyze(&sim.trace);
        let msgs = paths.len() as f64;
        let self_us = |pred: &dyn Fn(&str) -> bool| {
            let ns: u64 = paths
                .iter()
                .flat_map(|p| p.self_ns.iter())
                .filter(|(name, _)| pred(name))
                .map(|(_, ns)| *ns)
                .sum();
            ratio(ns as f64 / 1e3, msgs)
        };
        set(
            "kmod.self_us_per_msg",
            self_us(&|s| s.starts_with("kernel:")),
        );
        set("kmod.pio_self_us_per_msg", self_us(&|s| s == stage::K_PIO));
        set(
            "mcp.descriptor_self_us_per_msg",
            self_us(&|s| s == stage::DESCRIPTOR),
        );
        set(
            "mcp.inject_self_us_per_msg",
            self_us(&|s| s == stage::INJECT),
        );
        set("mcp.rx_self_us_per_msg", self_us(&|s| s == stage::RX));
        set(
            "fabric.wire_self_us_per_msg",
            self_us(&|s| s == stage::WIRE_TX),
        );
        set(
            "dma.data_self_us_per_msg",
            self_us(&|s| s == stage::DMA_DATA),
        );
        set("dma.cq_self_us_per_msg", self_us(&|s| s == stage::DMA_CQ));
        set(
            "coll.post_self_us_per_msg",
            self_us(&|s| s == stage::COLL_POST),
        );
        // The stack records a combine as an instant, so its self-time is
        // not visible from outside; its count is.
        let combines = sim
            .trace
            .iter()
            .filter(|ev| ev.stage == stage::COLL_COMBINE)
            .count();
        set("coll.combines_per_op", ratio(combines as f64, ops));

        // An RPC's call and serve spans ride the chain of its request
        // message; call minus serve is transport plus admission queueing.
        let mut call: BTreeMap<_, u64> = BTreeMap::new();
        let mut serve: BTreeMap<_, u64> = BTreeMap::new();
        for ev in &sim.trace {
            match ev.stage.as_ref() {
                stage::RPC_CALL => *call.entry(ev.trace).or_default() += ev.duration_ns(),
                stage::RPC_SERVE => *serve.entry(ev.trace).or_default() += ev.duration_ns(),
                _ => {}
            }
        }
        let us =
            |v: &BTreeMap<_, u64>| -> Vec<f64> { v.values().map(|ns| *ns as f64 / 1e3).collect() };
        set("rpc.call_us_p50", median(&us(&call)));
        set("rpc.serve_us_p50", median(&us(&serve)));
        let gap: Vec<f64> = call
            .iter()
            .filter_map(|(id, c)| serve.get(id).map(|s| c.saturating_sub(*s) as f64 / 1e3))
            .collect();
        set("rpc.transport_queue_us_p50", median(&gap));

        // What observing produced: events recorded, and the bytes of the
        // artifacts one would keep (trace, metrics snapshot, spans).
        let artifact_bytes = suca_sim::mtrace::to_chrome_json(&sim.trace).len()
            + sim.snapshot.to_json().len()
            + crate::spans::to_json("", 0, spans).len();
        set(
            "obs.trace_events_per_op",
            ratio(sim.trace.len() as f64, ops),
        );
        set(
            "obs.artifact_bytes_per_op",
            ratio(artifact_bytes as f64, ops),
        );
    }

    // Whatever only the workload can know (paper errors, per-class tails,
    // sweep steps, generator lateness, collective medians).
    for (k, v) in &out.layer {
        if let Some(slot) = m.get_mut(*k) {
            *slot = *v;
        }
    }
    m
}

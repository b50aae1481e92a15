//! Per-message critical-path analysis over the [`crate::trace`] event
//! stream.
//!
//! For every traced message the analyzer computes where its end-to-end
//! latency actually went: a timeline sweep from the `api:send` begin to the
//! receiver's poll return attributes each elementary time slice to the
//! *innermost* active span (latest start wins; ties go to the span that
//! ends first), so nested stages (`kernel:pio` inside `kernel:ioctl_send`
//! inside `api:send`) charge only their own work and pipelined stages
//! (NIC descriptor fetch overlapping the trap exit) don't double-count.
//! Slices covered by no span are *wait* — scheduling or queueing gaps.
//!
//! [`bottleneck_report`] aggregates messages into size buckets and reports
//! per-stage latency shares plus a dominant-stage histogram. For the
//! host-side identities of the paper's Fig 5/7 the report also sums raw
//! span durations (the kernel sub-stages are sequential on the host
//! timeline, so durations are exact there): request fill sums
//! `kernel:dispatch` and `kernel:pio`; kernel-resident extra sums
//! `kernel:trap_enter`, `kernel:dispatch`, `kernel:pin`, `kernel:trap_exit`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::trace::{chains, is_terminal, stage, TraceEvent, TraceId, TracePhase};

/// Where one message's latency went.
#[derive(Clone, Debug)]
pub struct MessageCritPath {
    /// The message.
    pub trace: TraceId,
    /// Payload bytes (from the `api:send` span).
    pub bytes: u64,
    /// `api:send` begin, virtual ns.
    pub start_ns: u64,
    /// Send begin → receive-poll end (the last terminal's end without a
    /// receive poll, the last event's when unclosed).
    pub total_ns: u64,
    /// Duration of the `api:send` span (host-side overhead window).
    pub send_ns: u64,
    /// Slices covered by no span: queueing/scheduling gaps.
    pub wait_ns: u64,
    /// Per-stage self time from the sweep (sums with `wait_ns` to
    /// `total_ns`).
    pub self_ns: BTreeMap<String, u64>,
    /// Per-stage summed raw span durations (overlap not removed).
    pub span_ns: BTreeMap<String, u64>,
    /// Stage with the largest self time (ties: alphabetically first).
    pub dominant: String,
    /// The chain reached a terminal stage.
    pub closed: bool,
}

impl MessageCritPath {
    /// Self time of one stage (0 when absent).
    pub fn self_time(&self, stage_name: &str) -> u64 {
        self.self_ns.get(stage_name).copied().unwrap_or(0)
    }
}

/// Analyze every chain in `events` that recorded an `api:send`. Chains
/// without a terminal stage are still returned (with `closed == false`)
/// so callers can distinguish "slow" from "wedged". Results are ordered by
/// [`TraceId`].
pub fn analyze(events: &[TraceEvent]) -> Vec<MessageCritPath> {
    let mut out = Vec::new();
    for chain in chains(events) {
        let (trace, evs) = (chain.trace, &chain.events);
        let Some(send) = chain.send else {
            continue; // no root: a partial chain (e.g. the send was evicted)
        };
        let start = send.start_ns;
        // The message has arrived when the receiver's poll returns; the
        // sender's completion poll may come any time later (in a ping-pong,
        // after the reply). Without a receive poll the window ends at the
        // last terminal: a failure, a counted drop or a send completion.
        let terminal_end = |pick: fn(&str) -> bool| {
            evs.iter()
                .filter(|e| pick(e.stage.as_ref()))
                .map(|e| e.end_ns)
                .max()
        };
        let end = terminal_end(|st| st == stage::POLL_RECV)
            .or_else(|| terminal_end(is_terminal))
            .unwrap_or(chain.last_ns)
            .max(start);

        // Spans clipped to the [start, end] window.
        let mut spans: Vec<(u64, u64, &str)> = evs
            .iter()
            .filter(|e| e.phase == TracePhase::Span && e.end_ns > e.start_ns)
            .map(|e| (e.start_ns.max(start), e.end_ns.min(end), e.stage.as_ref()))
            .filter(|(s, e, _)| e > s)
            .collect();
        spans.sort();

        let mut bounds: BTreeSet<u64> = BTreeSet::new();
        bounds.insert(start);
        bounds.insert(end);
        for &(s, e, _) in &spans {
            bounds.insert(s);
            bounds.insert(e);
        }

        let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut wait_ns = 0u64;
        let mut prev: Option<u64> = None;
        for &b in &bounds {
            if let Some(a) = prev {
                let slice = b - a;
                // Innermost active span: latest start, then earliest end,
                // then first stage name — fully deterministic.
                let winner = spans
                    .iter()
                    .filter(|(s, e, _)| *s <= a && *e >= b)
                    .max_by_key(|(s, e, name)| (*s, Reverse(*e), Reverse(*name)));
                match winner {
                    Some((_, _, name)) => *self_ns.entry((*name).to_string()).or_insert(0) += slice,
                    None => wait_ns += slice,
                }
            }
            prev = Some(b);
        }

        let mut span_ns: BTreeMap<String, u64> = BTreeMap::new();
        for &(s, e, name) in &spans {
            *span_ns.entry(name.to_string()).or_insert(0) += e - s;
        }

        let dominant = self_ns
            .iter()
            .fold(("<none>", 0u64), |best, (name, &ns)| {
                if ns > best.1 {
                    (name.as_str(), ns)
                } else {
                    best
                }
            })
            .0
            .to_string();

        out.push(MessageCritPath {
            trace,
            bytes: send.bytes,
            start_ns: start,
            total_ns: end - start,
            send_ns: send.duration_ns(),
            wait_ns,
            self_ns,
            span_ns,
            dominant,
            closed: chain.closed(),
        });
    }
    out
}

/// Aggregate over all messages in one size bucket.
#[derive(Clone, Debug)]
pub struct BucketReport {
    /// Human label ("0 B", "≤ 4 KiB", …).
    pub label: String,
    /// Inclusive upper byte bound of the bucket (0 for the 0 B bucket).
    pub max_bytes: u64,
    /// Closed messages aggregated.
    pub messages: usize,
    /// Summed end-to-end latency.
    pub total_ns: u64,
    /// Summed wait (uncovered) time.
    pub wait_ns: u64,
    /// Summed per-stage self time.
    pub stage_self_ns: BTreeMap<String, u64>,
    /// Summed per-stage raw span durations.
    pub stage_span_ns: BTreeMap<String, u64>,
    /// How many messages each stage dominated.
    pub dominant: BTreeMap<String, usize>,
}

impl BucketReport {
    /// Fraction of the bucket's end-to-end latency self-attributed to
    /// `stage_name`.
    pub fn self_share(&self, stage_name: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.stage_self_ns.get(stage_name).copied().unwrap_or(0) as f64 / self.total_ns as f64
    }

    /// Mean summed span duration of one stage per message, in ns.
    pub fn span_ns_per_msg(&self, stage_name: &str) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.stage_span_ns.get(stage_name).copied().unwrap_or(0) as f64 / self.messages as f64
    }

    /// Mean host-side send overhead (the `api:send` span) per message, ns.
    pub fn host_ns_per_msg(&self) -> f64 {
        self.span_ns_per_msg(stage::SEND)
    }

    /// Fig 5 identity: share of the host send overhead spent filling the
    /// send request (kernel dispatch + descriptor PIO). The sub-stages are
    /// sequential on the host timeline, so raw durations are exact.
    pub fn request_fill_share(&self) -> f64 {
        let host = self.span_ns_per_msg(stage::SEND);
        if host == 0.0 {
            return 0.0;
        }
        (self.span_ns_per_msg(stage::K_DISPATCH) + self.span_ns_per_msg(stage::K_PIO)) / host
    }

    /// Fig 7 identity: the kernel-resident extra a user-level protocol
    /// skips — trap enter/exit, dispatch + security, pin-down lookup. The
    /// descriptor PIO is excluded (both architectures pay it).
    pub fn kernel_ns_per_msg(&self) -> f64 {
        self.span_ns_per_msg(stage::K_TRAP_ENTER)
            + self.span_ns_per_msg(stage::K_DISPATCH)
            + self.span_ns_per_msg(stage::K_PIN)
            + self.span_ns_per_msg(stage::K_TRAP_EXIT)
    }

    /// Stages by descending self time.
    pub fn stages_by_self_time(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .stage_self_ns
            .iter()
            .map(|(k, &ns)| (k.as_str(), ns))
            .collect();
        v.sort_by_key(|&(name, ns)| (Reverse(ns), name));
        v
    }
}

/// The full bottleneck report: one [`BucketReport`] per message-size
/// bucket, ordered by size.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// Size buckets, ascending.
    pub buckets: Vec<BucketReport>,
    /// Chains skipped because they never closed.
    pub unclosed: usize,
}

/// Bucket key: 0 stays its own bucket; anything else rounds up to the next
/// power of two.
fn bucket_bound(bytes: u64) -> u64 {
    if bytes == 0 {
        0
    } else {
        bytes.next_power_of_two()
    }
}

fn bucket_label(max_bytes: u64) -> String {
    match max_bytes {
        0 => "0 B".to_string(),
        b if b < 1024 => format!("≤ {b} B"),
        b if b < 1024 * 1024 => format!("≤ {} KiB", b / 1024),
        b => format!("≤ {} MiB", b / (1024 * 1024)),
    }
}

/// Aggregate per-message critical paths into the per-size-bucket
/// bottleneck report. Unclosed chains are counted but not aggregated.
pub fn bottleneck_report(paths: &[MessageCritPath]) -> BottleneckReport {
    let mut buckets: BTreeMap<u64, BucketReport> = BTreeMap::new();
    let mut unclosed = 0usize;
    for p in paths {
        if !p.closed {
            unclosed += 1;
            continue;
        }
        let bound = bucket_bound(p.bytes);
        let b = buckets.entry(bound).or_insert_with(|| BucketReport {
            label: bucket_label(bound),
            max_bytes: bound,
            messages: 0,
            total_ns: 0,
            wait_ns: 0,
            stage_self_ns: BTreeMap::new(),
            stage_span_ns: BTreeMap::new(),
            dominant: BTreeMap::new(),
        });
        b.messages += 1;
        b.total_ns += p.total_ns;
        b.wait_ns += p.wait_ns;
        for (name, &ns) in &p.self_ns {
            *b.stage_self_ns.entry(name.clone()).or_insert(0) += ns;
        }
        for (name, &ns) in &p.span_ns {
            *b.stage_span_ns.entry(name.clone()).or_insert(0) += ns;
        }
        *b.dominant.entry(p.dominant.clone()).or_insert(0) += 1;
    }
    BottleneckReport {
        buckets: buckets.into_values().collect(),
        unclosed,
    }
}

impl BottleneckReport {
    /// Bucket containing messages of `bytes` payload, if any were seen.
    pub fn bucket_for(&self, bytes: u64) -> Option<&BucketReport> {
        let bound = bucket_bound(bytes);
        self.buckets.iter().find(|b| b.max_bytes == bound)
    }

    /// Render the human-readable report the `paper` harness
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for b in &self.buckets {
            let mean_us = b.total_ns as f64 / b.messages.max(1) as f64 / 1000.0;
            let wait_us = b.wait_ns as f64 / b.messages.max(1) as f64 / 1000.0;
            let _ = writeln!(
                out,
                "{}: {} msgs, mean one-way {mean_us:.2} us (wait {wait_us:.2} us)",
                b.label, b.messages
            );
            let shares: Vec<String> = b
                .stages_by_self_time()
                .iter()
                .filter(|&&(_, ns)| ns > 0)
                .take(6)
                .map(|&(name, _)| format!("{name} {:.1}%", b.self_share(name) * 100.0))
                .collect();
            let _ = writeln!(out, "  top self-time shares: {}", shares.join(", "));
            let dom: Vec<String> = b
                .dominant
                .iter()
                .map(|(name, n)| format!("{name} x{n}"))
                .collect();
            let _ = writeln!(out, "  dominant stage: {}", dom.join(", "));
            if b.host_ns_per_msg() > 0.0 {
                let _ = writeln!(
                    out,
                    "  host send overhead {:.2} us; request fill (dispatch+PIO) {:.1}%; \
                     kernel stages {:.2} us",
                    b.host_ns_per_msg() / 1000.0,
                    b.request_fill_share() * 100.0,
                    b.kernel_ns_per_msg() / 1000.0
                );
            }
        }
        if self.unclosed > 0 {
            let _ = writeln!(out, "({} unclosed chains excluded)", self.unclosed);
        }
        if out.is_empty() {
            out.push_str("(no closed chains)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceLayer};

    /// The calibrated 0 B sender timeline (ns, from the DAWNING-3000 cost
    /// model): compose 470, trap enter 1100, dispatch+security 1550, pin
    /// lookup 450, descriptor PIO 2400, trap exit 1070 ⇒ host 7040; then
    /// NIC descriptor 6600 (overlapping trap exit), inject 1600, wire, rx
    /// 1450, cq DMA 370, the 1010 ns receive poll returning at 18300.
    fn zero_b_chain() -> Vec<TraceEvent> {
        let t = TraceId::new(0, 2);
        vec![
            TraceEvent::span(t, 0, TraceLayer::Library, stage::SEND, 0, 7040),
            TraceEvent::span(t, 0, TraceLayer::Library, stage::COMPOSE, 0, 470),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::K_TRAP_ENTER, 470, 1570),
            TraceEvent::instant(t, 0, TraceLayer::Kernel, stage::TRAP, 1570),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::IOCTL_SEND, 1570, 5970),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::K_DISPATCH, 1570, 3120),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::K_PIN, 3120, 3570),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::K_PIO, 3570, 5970),
            TraceEvent::span(t, 0, TraceLayer::Kernel, stage::K_TRAP_EXIT, 5970, 7040),
            TraceEvent::span(t, 0, TraceLayer::Mcp, stage::DESCRIPTOR, 5970, 12570),
            TraceEvent::span(t, 0, TraceLayer::Mcp, stage::INJECT, 12570, 14170).with_seq(0),
            TraceEvent::span(t, 0, TraceLayer::Wire, stage::WIRE_TX, 14170, 14470).with_seq(0),
            TraceEvent::span(t, 1, TraceLayer::Mcp, stage::RX, 14470, 15920).with_seq(0),
            TraceEvent::span(t, 1, TraceLayer::Dma, stage::DMA_CQ, 15920, 16290),
            TraceEvent::span(t, 1, TraceLayer::Library, stage::POLL_RECV, 17290, 18300),
        ]
    }

    #[test]
    fn sweep_attributes_nested_and_overlapping_spans() {
        let paths = analyze(&zero_b_chain());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(p.closed);
        assert_eq!(p.total_ns, 18300);
        assert_eq!(p.send_ns, 7040);
        assert_eq!(p.bytes, 0);
        // Nested kernel sub-stages fully cover the ioctl span.
        assert_eq!(p.self_time(stage::IOCTL_SEND), 0);
        assert_eq!(p.self_time(stage::K_DISPATCH), 1550);
        assert_eq!(p.self_time(stage::K_PIN), 450);
        assert_eq!(p.self_time(stage::K_PIO), 2400);
        // Trap exit overlaps the NIC descriptor fetch: the tie on start
        // goes to the span ending first (the trap exit), so the
        // descriptor keeps only its exclusive tail.
        assert_eq!(p.self_time(stage::K_TRAP_EXIT), 1070);
        assert_eq!(p.self_time(stage::DESCRIPTOR), 12570 - 7040);
        // The api:send envelope is fully covered by its children.
        assert_eq!(p.self_time(stage::SEND), 0);
        // The poll is its own stage; the gap between cq DMA end (16290)
        // and the poll's start (17290) is wait.
        assert_eq!(p.self_time(stage::POLL_RECV), 1010);
        assert_eq!(p.wait_ns, 17290 - 16290);
        // Self times + wait account for the whole window.
        let covered: u64 = p.self_ns.values().sum();
        assert_eq!(covered + p.wait_ns, p.total_ns);
        assert_eq!(p.dominant, stage::DESCRIPTOR);
    }

    #[test]
    fn window_ends_at_the_receive_poll_not_the_later_send_poll() {
        // Ping-pong: the sender polls its completion only after the reply
        // arrives, long after the receiver polled the message.
        let mut evs = zero_b_chain();
        let t = evs[0].trace;
        evs.push(TraceEvent::span(
            t,
            0,
            TraceLayer::Dma,
            stage::DMA_CQ,
            12570,
            12940,
        ));
        evs.push(TraceEvent::span(
            t,
            0,
            TraceLayer::Library,
            stage::POLL_SEND,
            36600,
            37420,
        ));
        let p = &analyze(&evs)[0];
        assert_eq!(p.total_ns, 18300);
        assert_eq!(p.self_time(stage::POLL_SEND), 0);
        assert_eq!(p.self_ns.values().sum::<u64>() + p.wait_ns, 18300);
        // Without a receive poll the last terminal still closes the window.
        evs.retain(|e| e.stage.as_ref() != stage::POLL_RECV);
        assert_eq!(analyze(&evs)[0].total_ns, 37420);
    }

    #[test]
    fn report_reproduces_fig5_fig7_identities() {
        let paths = analyze(&zero_b_chain());
        let report = bottleneck_report(&paths);
        let b = report.bucket_for(0).expect("0 B bucket");
        assert_eq!(b.messages, 1);
        assert!((b.host_ns_per_msg() - 7040.0).abs() < 1e-9);
        // Fig 5: request fill = (1550 + 2400) / 7040 = 56.1 % > 50 %.
        let fill = b.request_fill_share();
        assert!((fill - 3950.0 / 7040.0).abs() < 1e-9, "fill = {fill}");
        assert!(fill > 0.5);
        // Fig 7: kernel extra = 1100 + 1550 + 450 + 1070 = 4170 ns.
        assert!((b.kernel_ns_per_msg() - 4170.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("0 B: 1 msgs"), "{text}");
        assert!(text.contains("request fill"), "{text}");
    }

    #[test]
    fn unclosed_chains_are_counted_not_aggregated() {
        let mut evs = zero_b_chain();
        evs.retain(|e| e.stage.as_ref() != stage::POLL_RECV);
        let paths = analyze(&evs);
        assert_eq!(paths.len(), 1);
        assert!(!paths[0].closed);
        let report = bottleneck_report(&paths);
        assert_eq!(report.unclosed, 1);
        assert!(report.buckets.is_empty());
        assert!(report.render().contains("1 unclosed"));
    }

    #[test]
    fn size_buckets_split_and_label() {
        let mk = |msg: u32, bytes: u64| {
            let t = TraceId::new(0, msg);
            vec![
                TraceEvent::span(t, 0, TraceLayer::Library, stage::SEND, 0, 100).with_bytes(bytes),
                TraceEvent::span(t, 0, TraceLayer::Wire, stage::WIRE_TX, 100, 300),
                TraceEvent::span(t, 1, TraceLayer::Library, stage::POLL_RECV, 300, 400),
            ]
        };
        let mut evs = mk(2, 0);
        evs.extend(mk(4, 4096));
        evs.extend(mk(6, 65536));
        let report = bottleneck_report(&analyze(&evs));
        let labels: Vec<&str> = report.buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, ["0 B", "≤ 4 KiB", "≤ 64 KiB"]);
        assert!(
            report.bucket_for(3000).is_some(),
            "3000 B rounds up to 4 KiB"
        );
        assert!(report.bucket_for(100).is_none(), "no ≤128 B bucket");
    }

    #[test]
    fn wire_dominates_large_messages() {
        // 64 KiB shape: short host window, long wire occupancy.
        let t = TraceId::new(0, 8);
        let evs = vec![
            TraceEvent::span(t, 0, TraceLayer::Library, stage::SEND, 0, 8000).with_bytes(65536),
            TraceEvent::span(t, 0, TraceLayer::Wire, stage::WIRE_TX, 8000, 420_000),
            TraceEvent::span(t, 1, TraceLayer::Dma, stage::DMA_DATA, 420_000, 450_000),
            TraceEvent::span(
                t,
                1,
                TraceLayer::Library,
                stage::POLL_RECV,
                451_000,
                452_000,
            ),
        ];
        let paths = analyze(&evs);
        assert_eq!(paths[0].dominant, stage::WIRE_TX);
        let report = bottleneck_report(&paths);
        let b = report.bucket_for(65536).unwrap();
        assert!(b.self_share(stage::WIRE_TX) > 0.5);
    }
}

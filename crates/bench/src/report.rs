//! Paper-vs-measured report formatting shared by the harness binaries,
//! plus machine-readable metrics-snapshot emission.

use std::io;
use std::path::PathBuf;

use suca_sim::artifact::write_artifact;
use suca_sim::critpath::BucketReport;
use suca_sim::mtrace::stage;
use suca_sim::{MetricsSnapshot, Sim, TraceEvent};

/// Host metadata for cross-machine comparability of benchmark rows:
/// `(os, arch, rustc_version, available_threads)`. `rustc -V` is probed
/// once per process; "unknown" when unavailable.
pub fn host_meta() -> (String, String, String, usize) {
    let rustc = rustc_version();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    (
        std::env::consts::OS.to_string(),
        std::env::consts::ARCH.to_string(),
        rustc,
        threads,
    )
}

fn rustc_version() -> String {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serialize per-message trace events as Chrome/Perfetto JSON to the
/// `traces` artifact `run` (loadable at <https://ui.perfetto.dev>).
pub fn write_trace_json(events: &[TraceEvent], run: &str) -> io::Result<PathBuf> {
    write_artifact("traces", run, &suca_sim::mtrace::to_chrome_json(events))
}

/// Serialize `sim`'s telemetry snapshot (every probe's sampled ring) as
/// deterministic JSON to the `timeseries` artifact `run`.
pub fn write_timeseries_json(sim: &Sim, run: &str) -> io::Result<PathBuf> {
    write_artifact("timeseries", run, &sim.timeseries().snapshot().to_json())
}

/// Like [`write_trace_json`], but merges `sim`'s telemetry rings in as
/// Perfetto counter tracks so queue depths and occupancies render alongside
/// the per-message spans.
pub fn write_trace_json_with_counters(
    events: &[TraceEvent],
    sim: &Sim,
    run: &str,
) -> io::Result<PathBuf> {
    let json = suca_sim::mtrace::to_chrome_json_with_counters(events, &sim.timeseries().snapshot());
    write_artifact("traces", run, &json)
}

/// How a run's go-back-N recovered from loss, from its counters: the
/// resends a gap ack proved (fast retransmits, and the repeats among them,
/// resends of a resent hole) and the ones a probe's reply proved, timer
/// expiries (each sends a probe and resends nothing), packets resent, and
/// arrivals discarded as duplicate or out of order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// `bcl.fast_retx`.
    pub fast_retx: u64,
    /// `bcl.fast_retx_repeat`.
    pub repeats: u64,
    /// `bcl.probe_retx`.
    pub probe_retx: u64,
    /// `bcl.timeouts`.
    pub timeouts: u64,
    /// `bcl.retx_packets`.
    pub retx_packets: u64,
    /// `bcl.rx_discarded`.
    pub rx_discarded: u64,
}

impl Recovery {
    /// Read `sim`'s recovery counters (0 for one never incremented).
    pub fn of(sim: &Sim) -> Self {
        Recovery {
            fast_retx: sim.get_count("bcl.fast_retx"),
            repeats: sim.get_count("bcl.fast_retx_repeat"),
            probe_retx: sim.get_count("bcl.probe_retx"),
            timeouts: sim.get_count("bcl.timeouts"),
            retx_packets: sim.get_count("bcl.retx_packets"),
            rx_discarded: sim.get_count("bcl.rx_discarded"),
        }
    }

    /// A run with no drop, corruption or fault must recover nothing: no
    /// resend proven by a gap ack or a probe's reply, no packet resent, and
    /// so none received twice. Timer expiries may fire (an ack can outlast
    /// the probe interval behind queued data); they only ask.
    pub fn assert_none(&self, run: &str) {
        let resent = Recovery {
            timeouts: 0,
            ..*self
        };
        assert_eq!(
            resent,
            Recovery::default(),
            "{run}: loss-free run recovered from loss"
        );
    }
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fast retransmits ({} repeats), {} probe retransmits, {} timeouts, \
             {} packets resent, {} discarded",
            self.fast_retx,
            self.repeats,
            self.probe_retx,
            self.timeouts,
            self.retx_packets,
            self.rx_discarded
        )
    }
}

/// Snapshot `sim`'s metrics registry, stamp the harness name into its
/// metadata, write it as the `metrics` artifact `harness`, and print where
/// it went. Harness binaries call this once per instrumented run.
pub fn emit_metrics(sim: &Sim, harness: &str) -> MetricsSnapshot {
    sim.metrics().set_meta("harness", harness);
    let snap = sim.metrics_snapshot();
    let path = write_artifact("metrics", harness, &snap.to_json())
        .unwrap_or_else(|e| panic!("[metrics] could not write snapshot for {harness}: {e}"));
    println!(
        "[metrics] {} counters, {} gauges -> {}",
        snap.counters.len(),
        snap.gauges.len(),
        path.display()
    );
    snap
}

/// The stages Figs. 5–7 draw for one 0-byte message, in drawing order:
/// trace stage, the side of the transfer it runs on, the paper's wording.
#[rustfmt::skip]
const FIG_STAGES: [(&str, &str, &str); 12] = [
    (stage::COMPOSE,      "tx", "library: compose send request"),
    (stage::K_TRAP_ENTER, "tx", "kernel: trap enter"),
    (stage::K_DISPATCH,   "tx", "kernel: ioctl dispatch + security checks"),
    (stage::K_PIN,        "tx", "kernel: pin-down table lookup + translation"),
    (stage::K_PIO,        "tx", "kernel: fill send descriptor (PIO) + doorbell"),
    (stage::K_TRAP_EXIT,  "tx", "kernel: trap exit"),
    (stage::DESCRIPTOR,   "tx", "mcp: descriptor fetch + reliable setup"),
    (stage::INJECT,       "tx", "mcp: fragment process"),
    (stage::WIRE_TX,      "tx", "wire: inject + transmit"),
    (stage::RX,           "rx", "mcp: receive process"),
    (stage::DMA_CQ,       "rx", "dma: completion event to user queue"),
    (stage::POLL_RECV,    "rx", "library: poll completion queue (user space, no trap)"),
];

/// The Fig. 5–7 rows of one message: the events of `events` (one message's
/// chain) whose stage the figures draw, taken on the side of the transfer
/// the figure shows it on — the sender's own completion DMA is not a
/// row — and ordered by start time.
pub fn stage_rows(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut rows: Vec<(usize, &TraceEvent)> = events
        .iter()
        .filter_map(|ev| {
            let sender_side = ev.node == ev.trace.origin;
            let at = FIG_STAGES
                .iter()
                .position(|&(st, side, _)| st == ev.stage && (side == "tx") == sender_side)?;
            Some((at, ev))
        })
        .collect();
    rows.sort_by_key(|(at, row)| (row.start_ns, *at));
    rows.into_iter().map(|(_, row)| row.clone()).collect()
}

/// `n<node>/<side> :: <paper wording>` for a figure stage; stages the
/// figures have no wording for keep their trace name.
fn row_label(ev: &TraceEvent) -> String {
    match FIG_STAGES.iter().find(|&&(st, ..)| st == ev.stage) {
        Some((_, side, wording)) => format!("n{}/{side} :: {wording}", ev.node),
        None => format!("n{} :: {}", ev.node, ev.stage),
    }
}

/// Render stage rows the way the paper's timeline figures present them: a
/// table (one row per stage: start, end, duration in µs), a blank line, and
/// an ASCII Gantt chart `width` cells wide, bars on a common time axis
/// starting at the earliest row.
pub fn render_timeline(rows: &[TraceEvent], width: usize) -> String {
    use std::fmt::Write as _;
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut out = String::new();
    let (Some(t0), Some(t1)) = (
        rows.iter().map(|r| r.start_ns).min(),
        rows.iter().map(|r| r.end_ns).max(),
    ) else {
        return out;
    };
    let labels: Vec<String> = rows.iter().map(row_label).collect();
    let label_w = labels.iter().map(String::len).max().unwrap_or(0);
    // The table pads one column short of the longest label: the figures'
    // committed layout.
    let table_w = label_w.saturating_sub(1);
    for (label, r) in labels.iter().zip(rows) {
        let (start, end, d) = (us(r.start_ns), us(r.end_ns), us(r.duration_ns()));
        let _ = writeln!(
            out,
            "{label:<table_w$} {start:>10.3} -> {end:>10.3}  ({d:>7.3} us)"
        );
    }
    let width = width.max(1);
    let total = (t1 - t0).max(1);
    let scale = |t: u64| ((t - t0) as u128 * width as u128 / total as u128) as usize;
    let axis = " ".repeat(width.saturating_sub(8));
    let _ = writeln!(out, "\n{:<label_w$} 0{axis}{:.2}us", "", us(t1 - t0));
    for (label, r) in labels.iter().zip(rows) {
        // Every row gets at least one cell, also a zero-length stage at the
        // right edge.
        let a = scale(r.start_ns).min(width - 1);
        let b = scale(r.end_ns).clamp(a + 1, width);
        let bar = format!(
            "{}{}{}",
            " ".repeat(a),
            "#".repeat(b - a),
            " ".repeat(width - b)
        );
        let _ = writeln!(
            out,
            "{label:<label_w$} |{bar}| {:.2}us",
            us(r.duration_ns())
        );
    }
    out
}

/// Panic unless `measured` is within 1 % of `anchor`, the value committed
/// in EXPERIMENTS.md for `what`.
pub fn assert_anchor(what: &str, measured: f64, anchor: f64) {
    assert!(
        (measured - anchor).abs() <= anchor.abs() * 0.01,
        "{what}: measured {measured:.4}, EXPERIMENTS.md says {anchor}"
    );
}

/// One comparison row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub what: String,
    /// Value the paper reports (None when the paper gives no number).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Row {
    /// Build a row.
    pub fn new(
        what: impl Into<String>,
        paper: impl Into<Option<f64>>,
        measured: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            what: what.into(),
            paper: paper.into(),
            measured,
            unit,
        }
    }
}

/// Render rows as an aligned table with relative deviation.
pub fn render(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title}");
    let w = rows.iter().map(|r| r.what.len()).max().unwrap_or(10) + 2;
    let _ = writeln!(
        out,
        "{:<w$} {:>10} {:>10} {:>8}  unit",
        "metric", "paper", "measured", "delta"
    );
    for r in rows {
        match r.paper {
            Some(p) if p != 0.0 => {
                let delta = (r.measured - p) / p * 100.0;
                let _ = writeln!(
                    out,
                    "{:<w$} {:>10.2} {:>10.2} {:>+7.1}%  {}",
                    r.what, p, r.measured, delta, r.unit
                );
            }
            Some(p) => {
                let _ = writeln!(
                    out,
                    "{:<w$} {:>10.2} {:>10.2} {:>8}  {}",
                    r.what, p, r.measured, "-", r.unit
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<w$} {:>10} {:>10.2} {:>8}  {}",
                    r.what, "-", r.measured, "-", r.unit
                );
            }
        }
    }
    out
}

/// The paper ledger: every row the `paper` harness prints, plus one
/// critical-path decomposition per Fig. 8 size, one JSON object per line
/// under `"rows"`. The writer is deterministic, so two ledgers compare as
/// text: [`first_difference`] is the whole reader.
#[derive(Default)]
pub struct Ledger {
    lines: Vec<String>,
}

impl Ledger {
    /// Print `rows` as the table `title` and record them under `section`.
    pub fn table(&mut self, section: &str, title: &str, rows: &[Row]) {
        print!("{}", render(title, rows));
        self.record(section, rows);
    }

    /// Record rows a section prints in its own layout.
    pub fn record(&mut self, section: &str, rows: &[Row]) {
        for r in rows {
            let paper = r.paper.map_or("null".to_string(), |p| p.to_string());
            self.lines.push(format!(
                "{{\"section\": \"{section}\", \"what\": \"{}\", \"paper\": {paper}, \
                 \"measured\": {:.4}, \"unit\": \"{}\"}}",
                r.what.trim(),
                r.measured,
                r.unit
            ));
        }
    }

    /// Record where the messages of `bytes` in bucket `b` spent their
    /// summed one-way latency: per-stage critical-path self time and the
    /// wait no stage covers, which sum back to it.
    pub fn decomposition(&mut self, section: &str, bytes: u64, b: &BucketReport) {
        let stages: Vec<String> = b
            .stage_self_ns
            .iter()
            .map(|(stage, ns)| format!("\"{stage}\": {ns}"))
            .collect();
        self.lines.push(format!(
            "{{\"section\": \"{section}\", \"bytes\": {bytes}, \"messages\": {}, \
             \"one_way_ns\": {}, \"self_ns\": {{{}}}, \"wait_ns\": {}}}",
            b.messages,
            b.total_ns,
            stages.join(", "),
            b.wait_ns
        ));
    }

    /// The ledger as a JSON document.
    pub fn to_json(&self, schema: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{schema}\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
            self.lines.join(",\n    ")
        )
    }
}

/// The first line where `actual` differs from `committed`, as
/// `line N: committed `…`, measured `…``; `None` when they are equal.
pub fn first_difference(committed: &str, actual: &str) -> Option<String> {
    let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("`{l}`"));
    let (mut a, mut b) = (committed.lines(), actual.lines());
    let mut n = 0;
    loop {
        n += 1;
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                return Some(format!(
                    "line {n}: committed {}, measured {}",
                    show(x),
                    show(y)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suca_sim::{TraceId, TraceLayer};

    fn row(stage_name: &'static str, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent::span(
            TraceId::new(0, 2),
            0,
            TraceLayer::Mcp,
            stage_name,
            start_ns,
            end_ns,
        )
    }

    #[test]
    fn gantt_renders_scaled_bars() {
        let rows = [row("first-half", 0, 500), row("second-half", 500, 1000)];
        let text = render_timeline(&rows, 40);
        let lines: Vec<&str> = text.lines().collect();
        // Two table rows, a blank, the axis, two bars.
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[2], "");
        let (first, second) = (lines[4], lines[5]);
        // Equal halves get equal-ish bars.
        let count = |l: &str| l.matches('#').count();
        let (a, b) = (count(first), count(second));
        assert!((a as i64 - b as i64).abs() <= 1, "{a} vs {b}");
        assert!((19..=21).contains(&a));
        // Second bar starts where the first ended.
        assert!(second.find('#').unwrap() >= first.rfind('#').unwrap());
    }

    #[test]
    fn no_rows_render_empty() {
        assert!(render_timeline(&[], 40).is_empty());
    }

    #[test]
    fn gantt_draws_a_zero_length_row_at_the_right_edge() {
        let rows = [row("whole", 0, 1000), row("edge", 1000, 1000)];
        let text = render_timeline(&rows, 40);
        let edge = text.lines().last().expect("edge bar");
        assert_eq!(edge.matches('#').count(), 1);
        assert!(edge.ends_with("#| 0.00us"), "{edge}");
    }

    #[test]
    fn table_rows_carry_paper_wording_and_microseconds() {
        let text = render_timeline(&[row(stage::K_TRAP_ENTER, 0, 1_200)], 40);
        let first = text.lines().next().expect("table row");
        assert!(first.starts_with("n0/tx :: kernel: trap enter"), "{first}");
        assert!(first.ends_with("(  1.200 us)"), "{first}");
    }

    #[test]
    fn ledger_is_valid_json_and_names_the_first_differing_line() {
        let mut ledger = Ledger::default();
        ledger.record("fig9", &[Row::new("peak", 146.0, 144.8153, "MB/s")]);
        ledger.record("fig7", &[Row::new("  user-level", None, 15.2, "us")]);
        let bucket = BucketReport {
            label: "0 B".to_string(),
            max_bytes: 0,
            messages: 1,
            total_ns: 2750,
            wait_ns: 1000,
            stage_self_ns: [("wire:tx", 300), ("mcp:rx", 1450)]
                .map(|(st, ns)| (st.to_string(), ns))
                .into(),
            stage_span_ns: Default::default(),
            dominant: Default::default(),
        };
        ledger.decomposition("fig8", 0, &bucket);
        let json = ledger.to_json("test.v1");
        assert_eq!(suca_sim::artifact::validate_json(&json), Ok(()), "{json}");
        assert!(json.contains(r#""what": "peak", "paper": 146, "measured": 144.8153,"#));
        assert!(json.contains(r#""paper": null, "measured": 15.2000,"#));
        assert!(json.contains(r#""self_ns": {"mcp:rx": 1450, "wire:tx": 300}, "wait_ns": 1000"#));

        assert_eq!(first_difference(&json, &json), None);
        let flipped = json.replacen("144.8153", "144.8154", 1);
        let diff = first_difference(&json, &flipped).expect("a digit moved");
        assert!(diff.starts_with("line 4: committed `"), "{diff}");
        let longer = format!("{json}extra\n");
        assert!(first_difference(&json, &longer)
            .expect("a line was added")
            .ends_with("committed <end of file>, measured `extra`"));
    }
}

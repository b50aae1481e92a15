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

/// The paper ledger: every row the `paper` harness prints, plus one
/// critical-path decomposition per Fig. 8 size, one JSON object per line
/// under `"rows"`. The writer is deterministic, so two ledgers compare as
/// text: [`first_difference`] is the whole reader.
#[derive(Default)]
pub struct Ledger {
    lines: Vec<String>,
}

impl Ledger {
    /// Record `rows` under `section` and print the whole section as the
    /// table `title`.
    pub fn table(&mut self, section: &str, title: &str, rows: &[Row]) {
        self.record(section, rows);
        self.print(section, title);
    }

    /// Print every row recorded under `section` so far as the table
    /// `title`: [`render_markdown`] of the ledger lines themselves, the
    /// block EXPERIMENTS.md carries for the section.
    pub fn print(&self, section: &str, title: &str) {
        let rows: Vec<&str> = self
            .lines
            .iter()
            .map(String::as_str)
            .filter(|row| field(row, "section") == Some(section))
            .collect();
        print!("== {title}\n{}", render_markdown(&rows));
    }

    /// Record rows without printing them.
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
        ledger_json(schema, &self.lines)
    }
}

/// A ledger document: `schema`, then `rows`, one JSON object per line.
pub fn ledger_json(schema: &str, rows: &[String]) -> String {
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    )
}

/// The rows of a ledger document (`BENCH_stack.json`,
/// `BENCH_collectives.json`, `BENCH_digest.json`): its one-line JSON
/// objects, without their separating commas.
pub fn ledger_rows(doc: &str) -> Vec<&str> {
    doc.lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{') && l.ends_with('}'))
        .collect()
}

/// The `key: value` pairs of one ledger row, in the writer's order: a
/// string without its quotes, a number or `null` as written, a nested
/// object as its `{…}` text. The ledgers are machine-written, one object
/// per line, nested at most once and with no escapes; this reads that and
/// nothing more.
pub fn fields(row: &str) -> Vec<(&str, &str)> {
    let bad = || -> ! { panic!("not a ledger row: {row}") };
    let mut rest = row
        .trim()
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| bad());
    let mut out = Vec::new();
    while let Some(r) = rest.trim_start_matches([',', ' ']).strip_prefix('"') {
        let (key, r) = r.split_once("\": ").unwrap_or_else(|| bad());
        let end = match r.as_bytes().first() {
            Some(b'"') => r[1..].find('"').map(|i| i + 2),
            Some(b'{') => r.find('}').map(|i| i + 1),
            _ => Some(r.find(',').unwrap_or(r.len())),
        }
        .unwrap_or_else(|| bad());
        let value = &r[..end];
        let unquoted = value.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
        out.push((key, unquoted.unwrap_or(value)));
        rest = &r[end..];
    }
    out
}

/// The value of `key` in a ledger row (see [`fields`]).
pub fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    fields(row)
        .into_iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// A ledger's rows grouped by their `section` field (`""` for rows without
/// one), in the order each section first appears.
pub fn sections<'a>(rows: &[&'a str]) -> Vec<(&'a str, Vec<&'a str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for &row in rows {
        let section = field(row, "section").unwrap_or_default();
        match out.iter_mut().find(|(s, _)| *s == section) {
            Some((_, rows)) => rows.push(row),
            None => out.push((section, vec![row])),
        }
    }
    out
}

/// Render ledger rows as markdown: one table per run of rows with the same
/// keys, a column per key (`section` left out, a nested object's keys
/// flattened into columns of their own) and a `delta` column after
/// `measured` where a row has a `paper` value. Every cell is the value as
/// the ledger wrote it (`null` blank), and a column of numbers aligns
/// right. `paper` prints each section this way, and EXPERIMENTS.md carries
/// each block between `<!-- ledger:<section> -->` and `<!-- /ledger -->`,
/// so the prose's tables are the ledgers' own digits.
pub fn render_markdown(rows: &[&str]) -> String {
    let parsed: Vec<Vec<(&str, &str)>> = rows.iter().map(|r| fields(r)).collect();
    let keys = |row: &[(&str, &str)]| row.iter().map(|&(k, _)| k).collect::<String>();
    let mut tables = Vec::new();
    let mut rest = &parsed[..];
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|r| keys(r) == keys(first)).count();
        tables.push(markdown_table(&rest[..n]));
        rest = &rest[n..];
    }
    tables.join("\n")
}

/// One table of [`render_markdown`]: rows that share their keys.
fn markdown_table(rows: &[Vec<(&str, &str)>]) -> String {
    use std::fmt::Write as _;
    fn get<'a>(row: &[(&str, &'a str)], key: &str) -> &'a str {
        let value = row.iter().find_map(|&(k, v)| (k == key).then_some(v));
        value.unwrap_or_default()
    }
    let num = |v: &str| v.parse::<f64>().ok();
    let mut columns: Vec<(&str, Vec<String>)> = Vec::new();
    for &(key, first) in &rows[0] {
        if key == "section" {
            continue;
        }
        if first.starts_with('{') {
            let nested: std::collections::BTreeSet<&str> = rows
                .iter()
                .flat_map(|r| fields(get(r, key)))
                .map(|(k, _)| k)
                .collect();
            for k in nested {
                let cells = rows
                    .iter()
                    .map(|r| get(&fields(get(r, key)), k).to_string());
                columns.push((k, cells.collect()));
            }
            continue;
        }
        let cells = rows.iter().map(|r| match get(r, key) {
            "null" => String::new(),
            v => v.to_string(),
        });
        columns.push((key, cells.collect()));
        if key == "measured" && rows.iter().any(|r| num(get(r, "paper")).is_some()) {
            let delta = |r: &[(&str, &str)]| match (num(get(r, "paper")), num(get(r, key))) {
                (Some(p), Some(m)) if p != 0.0 => format!("{:+.1}%", (m - p) / p * 100.0),
                _ => String::new(),
            };
            columns.push(("delta", rows.iter().map(|r| delta(r)).collect()));
        }
    }
    let width = |(head, cells): &(&str, Vec<String>)| {
        let widest = cells.iter().map(|c| c.chars().count()).max().unwrap_or(0);
        widest.max(head.chars().count()).max(3)
    };
    let widths: Vec<usize> = columns.iter().map(width).collect();
    let right: Vec<bool> = columns
        .iter()
        .map(|(head, cells)| {
            *head == "delta" || cells.iter().all(|c| c.is_empty() || num(c).is_some())
        })
        .collect();
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<&str>| {
        for ((cell, &w), &right) in cells.iter().zip(&widths).zip(&right) {
            let _ = match right {
                true => write!(out, "| {cell:>w$} "),
                false => write!(out, "| {cell:<w$} "),
            };
        }
        out.push_str("|\n");
    };
    line(&mut out, columns.iter().map(|(head, _)| *head).collect());
    let rules: Vec<String> = widths
        .iter()
        .zip(&right)
        .map(|(&w, &right)| match right {
            true => format!("{}:", "-".repeat(w - 1)),
            false => "-".repeat(w),
        })
        .collect();
    line(&mut out, rules.iter().map(String::as_str).collect());
    for i in 0..rows.len() {
        line(
            &mut out,
            columns.iter().map(|(_, c)| c[i].as_str()).collect(),
        );
    }
    out
}

/// The start value of [`fnv1a64`].
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit: `hash` (start from [`FNV1A64_OFFSET`]) continued over
/// `bytes`, so a file can be hashed a chunk at a time.
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One row of the `repro_all` digest `BENCH_digest.json`: an artifact's
/// path under the output directory and the [`fnv1a64`] of its bytes.
pub fn digest_row(artifact: &str, hash: u64) -> String {
    format!("{{\"artifact\": \"{artifact}\", \"fnv1a64\": \"{hash:016x}\"}}")
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

    /// One message of 0 B: 1,750 ns of stage self time and 1,000 ns of wait.
    fn bucket() -> BucketReport {
        BucketReport {
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
        }
    }

    #[test]
    fn ledger_is_valid_json_and_names_the_first_differing_line() {
        let mut ledger = Ledger::default();
        ledger.record("fig9", &[Row::new("peak", 146.0, 144.8153, "MB/s")]);
        ledger.record("fig7", &[Row::new("  user-level", None, 15.2, "us")]);
        ledger.decomposition("fig8", 0, &bucket());
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

    #[test]
    fn markdown_is_the_ledger_rows_digits() {
        let mut ledger = Ledger::default();
        ledger.record("fig9", &[Row::new("peak", 146.0, 144.8153, "MB/s")]);
        ledger.record("fig9", &[Row::new("half point", None, 2048.0, "bytes")]);
        ledger.decomposition("fig9", 0, &bucket());
        let json = ledger.to_json("test.v1");
        let rows = ledger_rows(&json);
        assert_eq!(rows.len(), 3);
        assert_eq!(field(rows[0], "measured"), Some("144.8153"));
        assert_eq!(
            field(rows[2], "self_ns"),
            Some(r#"{"mcp:rx": 1450, "wire:tx": 300}"#)
        );
        let sections = sections(&rows);
        assert_eq!(sections.len(), 1);
        let expected = "\
| what       | paper |  measured | delta | unit  |
| ---------- | ----: | --------: | ----: | ----- |
| peak       |   146 |  144.8153 | -0.8% | MB/s  |
| half point |       | 2048.0000 |       | bytes |

| bytes | messages | one_way_ns | mcp:rx | wire:tx | wait_ns |
| ----: | -------: | ---------: | -----: | ------: | ------: |
|     0 |        1 |       2750 |   1450 |     300 |    1000 |
";
        assert_eq!(render_markdown(&sections[0].1), expected);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let whole = fnv1a64(FNV1A64_OFFSET, b"foobar");
        assert_eq!(whole, 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(fnv1a64(FNV1A64_OFFSET, b"foo"), b"bar"), whole);
    }
}

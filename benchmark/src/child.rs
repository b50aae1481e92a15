//! One rep: a child process pinned to one CPU builds the workload's
//! cluster, times `Sim::run`, applies the correctness gate, and prints its
//! numbers as lines the parent parses.
//!
//! A fresh process per rep gives every rep the same cold allocator and
//! page state and makes `VmHWM` the peak of that rep alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use suca_sim::mtrace::{check_completeness, ChainPolicy};

use crate::layers;
use crate::spans;
use crate::stats::Latencies;
use crate::sys;
use crate::workloads::{Harness, Outcome, Workload};

/// What the parent reads back from one rep.
#[derive(Default)]
pub struct Rep {
    pub e2e: BTreeMap<String, f64>,
    pub layer: BTreeMap<String, f64>,
    /// Counts beside the metrics: `attempted`, `ok`, `failed`, `samples`,
    /// `tail_q`, `cpu`.
    pub info: BTreeMap<String, f64>,
    /// Hash of every virtual-time metric and counter of the rep.
    pub digest: String,
    pub errors: Vec<String>,
}

impl Rep {
    /// The line protocol the child prints.
    fn to_lines(&self) -> String {
        let mut out = String::new();
        for (section, map) in [
            ("e2e", &self.e2e),
            ("layer", &self.layer),
            ("info", &self.info),
        ] {
            for (k, v) in map {
                let _ = writeln!(out, "{section} {k} {v}");
            }
        }
        let _ = writeln!(out, "digest {}", self.digest);
        for e in &self.errors {
            let _ = writeln!(out, "error {}", e.replace('\n', " | "));
        }
        out.push_str("end\n");
        out
    }

    /// Parse what a child printed; `None` when the child died before
    /// finishing its report.
    pub fn parse(text: &str) -> Option<Rep> {
        let mut rep = Rep::default();
        let mut ended = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "e2e" | "layer" | "info" => {
                    let (k, v) = rest.split_once(' ')?;
                    let v: f64 = v.parse().ok()?;
                    let map = match tag {
                        "e2e" => &mut rep.e2e,
                        "layer" => &mut rep.layer,
                        _ => &mut rep.info,
                    };
                    map.insert(k.to_string(), v);
                }
                "digest" => rep.digest = rest.to_string(),
                "error" => rep.errors.push(rest.to_string()),
                "end" => ended = true,
                _ => {}
            }
        }
        ended.then_some(rep)
    }
}

/// FNV-1a, enough to compare two reps of one binary.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The correctness gate common to every workload, applied to what the
/// simulations left behind.
fn gate(w: Workload, h: &Harness, out: &mut Outcome) {
    for (i, sim) in h.sims.iter().enumerate() {
        let c = |name: &str| sim.snapshot.counter(name);
        if w.is_clean() {
            if c("os.interrupts") != 0 {
                out.fail(format!(
                    "sim {i}: {} interrupts on a clean workload",
                    c("os.interrupts")
                ));
            }
            if c("watchdog.stalls") != 0 {
                out.fail(format!(
                    "sim {i}: watchdog fired {} times",
                    c("watchdog.stalls")
                ));
            }
        }
        if c("mcp.protocol_errors") != 0 {
            out.fail(format!(
                "sim {i}: {} MCP protocol errors",
                c("mcp.protocol_errors")
            ));
        }
        if h.traced {
            let policy = if w == Workload::CollMesh256 {
                ChainPolicy::collective()
            } else {
                ChainPolicy::bcl()
            };
            let report = check_completeness(&sim.trace, &policy);
            if !report.is_closed() {
                out.fail(format!(
                    "sim {i}: {} trace-completeness violations, first: {}",
                    report.violations.len(),
                    report.violations[0]
                ));
            }
            if report.chains.is_empty() {
                out.fail(format!("sim {i}: traced rep recorded no chain"));
            }
        }
    }
}

/// Run one rep in this process and print its report.
pub fn run(w: Workload, seed: u64, traced: bool, start: Instant) -> ! {
    let cpu = sys::pin_to_one_cpu();
    let mut h = Harness::new(seed, traced, start);
    let mut out = w.run(&mut h);
    gate(w, &h, &mut out);

    let mut rep = Rep::default();
    let lat = Latencies::new(std::mem::take(&mut out.lat_ns));
    let phase_s = out.phase_ns as f64 / 1e9;
    let tail_q = lat.tail_q();
    let mut e2e = |k: &str, v: f64| {
        rep.e2e.insert(k.to_string(), v);
    };
    e2e("setup_s", h.setup.as_secs_f64());
    e2e("host_wall_s", h.wall.as_secs_f64());
    e2e(
        "host_peak_rss_mb",
        sys::proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0,
    );
    e2e("sim_lat_p50_us", lat.quantile_us(0.5));
    e2e("sim_lat_p99_us", lat.tail_us());
    e2e("sim_ops_per_s", out.ok as f64 / phase_s);
    e2e(
        "sim_payload_mb_s",
        out.payload_bytes as f64 / (phase_s * 1e6),
    );
    e2e("sim_ok_ratio", out.ok as f64 / out.attempted.max(1) as f64);

    let mut info = |k: &str, v: f64| {
        rep.info.insert(k.to_string(), v);
    };
    info("attempted", out.attempted as f64);
    info("ok", out.ok as f64);
    info("failed", out.failed as f64);
    info("samples", lat.len() as f64);
    info("tail_q", tail_q);
    info("sim_lat_mean_us", lat.mean_us());
    info("cpu", cpu.map_or(-1.0, f64::from));
    if cpu.is_none() {
        out.fail("could not pin to one CPU; host-clock numbers would be bimodal");
    }

    let spans = h.rec.take();
    rep.layer = layers::extract(&h, &out, &spans);

    // Everything virtual must repeat exactly, rep after rep, traced or not.
    let mut d = Digest::new();
    for m in crate::metrics::END_TO_END {
        if m.clock == crate::metrics::Clock::Sim {
            d.u64(rep.e2e[m.name].to_bits());
        }
    }
    d.u64(out.attempted);
    d.u64(out.ok);
    d.u64(out.phase_ns);
    d.u64(out.phase_frames);
    for sim in &h.sims {
        d.u64(sim.events);
        d.u64(sim.sim_ns);
        for (k, v) in &sim.snapshot.counters {
            d.bytes(k.as_bytes());
            d.u64(*v);
        }
    }
    rep.digest = format!("{:016x}", d.0);

    if traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace_{}.json", w.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(w.name(), seed, &spans)));
        if let Err(e) = written {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }

    rep.errors = std::mem::take(&mut out.errors);
    print!("{}", rep.to_lines());
    std::process::exit(if rep.errors.is_empty() { 0 } else { 1 });
}

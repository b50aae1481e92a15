//! Continuous resource telemetry: sampled occupancy series on the sim clock.
//!
//! Counters ([`crate::Metrics`]) aggregate over a whole run and the tracer
//! ([`crate::trace`]) follows individual messages; neither shows how
//! *occupancy* — queue depths, go-back-N windows, NIC SRAM, pinned host
//! memory, link backlog — evolves **during** a run. This module adds that
//! time dimension:
//!
//! * Components register [`Probe`]s at construction time: a name, the node
//!   it belongs to, an optional capacity, and a sampling closure.
//! * A driver (the simulator's telemetry tick — this crate sits below the
//!   engine and never schedules anything itself) calls
//!   [`TimeSeries::sample_all`] at a fixed virtual-time period; every probe
//!   is read and the `(t_ns, value)` point lands in a bounded per-probe
//!   ring.
//! * Snapshots serialize to deterministic JSON (probes sorted by name,
//!   virtual timestamps only) so fixed seeds produce byte-identical files,
//!   and feed Perfetto counter tracks
//!   ([`crate::trace::to_chrome_json_with_counters`]).
//! * A probe's declared capacity is the level at which its resource is
//!   *full*: what the health engine's `saturation` rules
//!   ([`crate::health`]) compare its latest sample against.
//!
//! Sampling closures run while the registry is borrowed and must not call
//! back into the [`TimeSeries`] they are registered with.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::json_escape;

/// Pseudo-node id for fabric-wide probes (per-link backlog, trunk
/// utilization) that belong to no single host. Rendered as node `-1` in
/// JSON and grouped under a synthetic "fabric" process in Perfetto.
pub const FABRIC_NODE: u32 = u32::MAX;

/// Default bound on each probe's sample ring. At the default 10 µs sampling
/// period this keeps ~41 ms of history per probe.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

type SampleFn = Box<dyn Fn(u64) -> u64>;

struct Probe {
    name: String,
    node: u32,
    capacity: Option<u64>,
    sample: SampleFn,
    ring: VecDeque<(u64, u64)>,
    evicted: u64,
}

struct Inner {
    probes: Vec<Probe>,
    ring_capacity: usize,
    samples_taken: u64,
}

/// The probe registry plus the bounded sample rings. One per simulation,
/// held (like [`crate::Metrics`]) outside the engine's queue.
pub struct TimeSeries {
    inner: RefCell<Inner>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeries {
    /// Empty registry with [`DEFAULT_RING_CAPACITY`] samples per probe.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Empty registry keeping the last `ring_capacity` samples per probe.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        TimeSeries {
            inner: RefCell::new(Inner {
                probes: Vec::new(),
                ring_capacity: ring_capacity.max(1),
                samples_taken: 0,
            }),
        }
    }

    /// Register a probe. `sample` is called with the current virtual time
    /// in nanoseconds at every sampling tick and must be cheap and
    /// side-effect-free. `capacity` (when known) declares the level at
    /// which the resource is *full*; `saturation` rules watch only probes
    /// that declare one.
    ///
    /// Panics on a duplicate name: probe names are the JSON identity and
    /// must be unique per run.
    pub fn register(
        &self,
        name: impl Into<String>,
        node: u32,
        capacity: Option<u64>,
        sample: impl Fn(u64) -> u64 + 'static,
    ) {
        let name = name.into();
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.probes.iter().any(|p| p.name == name),
            "duplicate telemetry probe {name:?}"
        );
        // The ring grows as samples arrive: most runs take only a few.
        inner.probes.push(Probe {
            name,
            node,
            capacity,
            sample: Box::new(sample),
            ring: VecDeque::new(),
            evicted: 0,
        });
    }

    /// Sampling ticks taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.inner.borrow().samples_taken
    }

    /// Read every probe at virtual time `now_ns` and append the points to
    /// the rings (evicting the oldest points when full). Called by the
    /// simulator's telemetry tick; probes are visited in registration
    /// order, which is deterministic under a fixed seed.
    pub fn sample_all(&self, now_ns: u64) {
        let mut inner = self.inner.borrow_mut();
        let ring_capacity = inner.ring_capacity;
        inner.samples_taken += 1;
        for p in inner.probes.iter_mut() {
            let v = (p.sample)(now_ns);
            if p.ring.len() >= ring_capacity {
                p.ring.pop_front();
                p.evicted += 1;
            }
            p.ring.push_back((now_ns, v));
        }
    }

    /// Visit every probe's most recent sample without copying any ring:
    /// `f(name, node, capacity, latest_value)`, in registration order,
    /// skipping probes not yet sampled. The health engine's saturation
    /// rules read levels through this on every tick — [`Self::snapshot`]
    /// would clone the full history each time.
    pub fn for_each_latest(&self, mut f: impl FnMut(&str, u32, Option<u64>, u64)) {
        let inner = self.inner.borrow();
        for p in &inner.probes {
            if let Some(&(_, v)) = p.ring.back() {
                f(&p.name, p.node, p.capacity, v);
            }
        }
    }

    /// Point-in-time copy of every probe's ring, sorted by probe name.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        let inner = self.inner.borrow();
        let mut series: Vec<SeriesSnapshot> = inner
            .probes
            .iter()
            .map(|p| SeriesSnapshot {
                name: p.name.clone(),
                node: p.node,
                capacity: p.capacity,
                evicted: p.evicted,
                points: p.ring.iter().copied().collect(),
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        TimeSeriesSnapshot {
            samples_taken: inner.samples_taken,
            series,
        }
    }

    /// Render the last `max_points` samples of every probe — the telemetry
    /// window the stall watchdog dumps to stderr next to the flight
    /// recorder.
    pub fn render_last_window(&self, max_points: usize) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for s in &snap.series {
            let skip = s.points.len().saturating_sub(max_points);
            let _ = write!(out, "  {}", s.name);
            if let Some(cap) = s.capacity {
                let _ = write!(out, " (cap {cap})");
            }
            out.push_str(": ");
            for (i, (t, v)) in s.points.iter().skip(skip).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}@{t}ns");
            }
            if s.points.is_empty() {
                out.push_str("(no samples)");
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("  (no probes registered)\n");
        }
        out
    }
}

/// One probe's sampled history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Probe name (unique per run).
    pub name: String,
    /// Owning node, or [`FABRIC_NODE`] for fabric-wide probes.
    pub node: u32,
    /// Declared capacity, when the resource has one.
    pub capacity: Option<u64>,
    /// Points evicted from the bounded ring before this snapshot.
    pub evicted: u64,
    /// `(t_ns, value)` samples, oldest first, strictly increasing in time.
    pub points: Vec<(u64, u64)>,
}

/// A full registry snapshot: every probe's ring, sorted by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSeriesSnapshot {
    /// Sampling ticks taken over the whole run (≥ points kept per ring).
    pub samples_taken: u64,
    /// Per-probe series, sorted by probe name.
    pub series: Vec<SeriesSnapshot>,
}

impl TimeSeriesSnapshot {
    /// No probes registered?
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series by probe name.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Serialize as deterministic JSON: probes sorted by name, points in
    /// time order, no floats, no wall-clock anywhere — fixed seeds produce
    /// byte-identical output. Fabric-wide probes render `"node": -1`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"samples_taken\": {},\n  \"series\": [",
            self.samples_taken
        );
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let node = if s.node == FABRIC_NODE {
                "-1".to_string()
            } else {
                s.node.to_string()
            };
            let cap = s
                .capacity
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"node\": {node}, \"capacity\": {cap}, \
                 \"evicted\": {}, \"points\": [",
                json_escape(&s.name),
                s.evicted
            );
            for (j, (t, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{t}, {v}]");
            }
            out.push_str("]}");
        }
        out.push_str(if self.series.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

/// Collapse a probe name to its cluster-wide rollup group.
///
/// Per-node probes are named `n<node>.[p<port>.]<resource>` and per-link
/// probes `link.<label>.<resource>`; at fleet scale (1,024 nodes, thousands
/// of links) one series per probe is the artifact-size bottleneck. The
/// rollup groups by *resource*:
///
/// * `n12.mcp.send_queue` → `mcp.send_queue`
/// * `n3.p7000.rpc.inflight` → `rpc.inflight`
/// * `link.sw0->n1.backlog_bytes` → `link.*.backlog_bytes`
/// * anything else keeps its name (already cluster-wide).
pub fn rollup_key(name: &str) -> String {
    fn strip_indexed(s: &str, tag: char) -> Option<&str> {
        let rest = s.strip_prefix(tag)?;
        let dot = rest.find('.')?;
        if dot > 0 && rest[..dot].bytes().all(|b| b.is_ascii_digit()) {
            Some(&rest[dot + 1..])
        } else {
            None
        }
    }
    if let Some(rest) = strip_indexed(name, 'n') {
        let rest = strip_indexed(rest, 'p').unwrap_or(rest);
        return rest.to_string();
    }
    if let Some(rest) = name.strip_prefix("link.") {
        if let Some(dot) = rest.find('.') {
            return format!("link.*.{}", &rest[dot + 1..]);
        }
    }
    name.to_string()
}

/// One rollup group: every member probe's points folded per timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RollupSeries {
    /// Group key from [`rollup_key`].
    pub key: String,
    /// Probes folded into this group.
    pub members: u64,
    /// Sum of the members' declared capacities (None when no member
    /// declares one) — `sum` vs `capacity_sum` is the fleet-wide
    /// utilization.
    pub capacity_sum: Option<u64>,
    /// Total ring evictions across members.
    pub evicted: u64,
    /// `(t_ns, probes_sampled, min, max, sum)` per tick, oldest first.
    /// `probes_sampled` can be < `members` when a probe registered
    /// mid-run or its ring evicted older points.
    pub points: Vec<(u64, u64, u64, u64, u64)>,
}

/// Cluster-level timeseries rollup: output size is O(groups × ring length),
/// independent of node count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RollupSnapshot {
    /// Sampling ticks taken over the whole run.
    pub samples_taken: u64,
    /// Probes folded in.
    pub probes: u64,
    /// Groups sorted by key.
    pub groups: Vec<RollupSeries>,
}

impl TimeSeriesSnapshot {
    /// Fold every per-node/per-link series into cluster-wide groups (see
    /// [`rollup_key`]). All probes are sampled at the same tick timestamps,
    /// so the per-timestamp (min, max, sum) is an exact aggregate, not an
    /// approximation.
    pub fn rollup(&self) -> RollupSnapshot {
        use std::collections::BTreeMap;
        struct Acc {
            members: u64,
            capacity_sum: Option<u64>,
            evicted: u64,
            points: BTreeMap<u64, (u64, u64, u64, u64)>,
        }
        let mut groups: BTreeMap<String, Acc> = BTreeMap::new();
        for s in &self.series {
            let acc = groups.entry(rollup_key(&s.name)).or_insert_with(|| Acc {
                members: 0,
                capacity_sum: None,
                evicted: 0,
                points: BTreeMap::new(),
            });
            acc.members += 1;
            if let Some(c) = s.capacity {
                acc.capacity_sum = Some(acc.capacity_sum.unwrap_or(0).saturating_add(c));
            }
            acc.evicted += s.evicted;
            for &(t, v) in &s.points {
                let e = acc.points.entry(t).or_insert((0, u64::MAX, 0, 0));
                e.0 += 1;
                e.1 = e.1.min(v);
                e.2 = e.2.max(v);
                e.3 = e.3.saturating_add(v);
            }
        }
        RollupSnapshot {
            samples_taken: self.samples_taken,
            probes: self.series.len() as u64,
            groups: groups
                .into_iter()
                .map(|(key, a)| RollupSeries {
                    key,
                    members: a.members,
                    capacity_sum: a.capacity_sum,
                    evicted: a.evicted,
                    points: a
                        .points
                        .into_iter()
                        .map(|(t, (n, mn, mx, sum))| (t, n, mn, mx, sum))
                        .collect(),
                })
                .collect(),
        }
    }
}

impl RollupSnapshot {
    /// Serialize as deterministic JSON (groups sorted by key, virtual
    /// timestamps only): fixed seeds produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"suca.timeseries_rollup.v1\",\n  \"samples_taken\": {},\n  \
             \"probes\": {},\n  \"groups\": [",
            self.samples_taken, self.probes
        );
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let cap = g
                .capacity_sum
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "    {{\"key\": \"{}\", \"members\": {}, \"capacity_sum\": {cap}, \
                 \"evicted\": {}, \"points\": [",
                json_escape(&g.key),
                g.members,
                g.evicted
            );
            for (j, (t, n, mn, mx, sum)) in g.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{t}, {n}, {mn}, {mx}, {sum}]");
            }
            out.push_str("]}");
        }
        out.push_str(if self.groups.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_sample_in_time_order() {
        let ts = TimeSeries::new();
        ts.register("a.depth", 0, Some(4), |_| 2);
        ts.register("b.level", 1, None, |now| now / 10);
        ts.sample_all(0);
        ts.sample_all(10);
        ts.sample_all(20);
        let snap = ts.snapshot();
        assert_eq!(snap.samples_taken, 3);
        let a = snap.series("a.depth").expect("probe a");
        assert_eq!(a.points, vec![(0, 2), (10, 2), (20, 2)]);
        assert_eq!(a.capacity, Some(4));
        let b = snap.series("b.level").expect("probe b");
        assert_eq!(b.points, vec![(0, 0), (10, 1), (20, 2)]);
        assert!(b.capacity.is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate telemetry probe")]
    fn duplicate_probe_names_panic() {
        let ts = TimeSeries::new();
        ts.register("x", 0, None, |_| 0);
        ts.register("x", 0, None, |_| 0);
    }

    #[test]
    fn rings_are_bounded() {
        let ts = TimeSeries::with_capacity(3);
        ts.register("q", 0, None, |now| now);
        for t in 0..10 {
            ts.sample_all(t);
        }
        let s = ts.snapshot();
        let q = s.series("q").unwrap();
        assert_eq!(q.points, vec![(7, 7), (8, 8), (9, 9)]);
        assert_eq!(q.evicted, 7);
        assert_eq!(s.samples_taken, 10);
    }

    #[test]
    fn rings_hold_nothing_until_sampled_and_grow_to_the_bound() {
        let ts = TimeSeries::new();
        ts.register("idle", 0, None, |_| 0);
        let ring_capacity = |ts: &TimeSeries| ts.inner.borrow().probes[0].ring.capacity();
        assert_eq!(ring_capacity(&ts), 0, "registration reserves no ring");
        let bound = DEFAULT_RING_CAPACITY as u64;
        for t in 0..bound + 2 {
            ts.sample_all(t);
        }
        let snap = ts.snapshot();
        let idle = snap.series("idle").unwrap();
        assert_eq!(idle.points.len() as u64, bound);
        assert_eq!(idle.points[0], (2, 0), "the oldest two were evicted");
        assert_eq!(idle.evicted, 2);
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let build = || {
            let ts = TimeSeries::new();
            ts.register("z.last", 1, None, |_| 7);
            ts.register("a.first", 0, Some(10), |_| 3);
            ts.register("fabric.link", FABRIC_NODE, None, |_| 1);
            ts.sample_all(100);
            ts.sample_all(200);
            ts.snapshot().to_json()
        };
        let j1 = build();
        let j2 = build();
        assert_eq!(j1, j2, "same construction ⇒ byte-identical JSON");
        let a = j1.find("a.first").expect("a.first present");
        let f = j1.find("fabric.link").expect("fabric.link present");
        let z = j1.find("z.last").expect("z.last present");
        assert!(a < f && f < z, "series sorted by name");
        assert!(j1.contains("\"node\": -1"), "fabric node renders as -1");
        assert!(j1.contains("\"capacity\": null"));
        assert!(j1.contains("\"capacity\": 10"));
        assert!(j1.contains("[100, 3], [200, 3]"));
        assert_eq!(crate::validate_json(&j1), Ok(()));
    }

    #[test]
    fn empty_registry_serializes() {
        let j = TimeSeries::new().snapshot().to_json();
        assert!(j.contains("\"series\": []"));
    }

    #[test]
    fn rollup_keys_strip_node_port_and_link_labels() {
        assert_eq!(rollup_key("n12.mcp.send_queue"), "mcp.send_queue");
        assert_eq!(rollup_key("n3.p7000.rpc.inflight"), "rpc.inflight");
        assert_eq!(rollup_key("n0.nic.sram_used"), "nic.sram_used");
        assert_eq!(
            rollup_key("link.sw0->n1.backlog_bytes"),
            "link.*.backlog_bytes"
        );
        assert_eq!(rollup_key("link.n5->sw2.busy"), "link.*.busy");
        // Not an indexed prefix: left alone.
        assert_eq!(rollup_key("nic.sram_used"), "nic.sram_used");
        assert_eq!(rollup_key("sim.prof.events"), "sim.prof.events");
        assert_eq!(rollup_key("nx.y"), "nx.y");
    }

    #[test]
    fn rollup_aggregates_exactly_per_tick() {
        let ts = TimeSeries::new();
        for n in 0..8u32 {
            ts.register(format!("n{n}.mcp.send_queue"), n, Some(64), move |_| {
                u64::from(n) * 10
            });
        }
        ts.register("link.sw0->n1.busy", FABRIC_NODE, None, |_| 1);
        ts.register("link.sw0->n2.busy", FABRIC_NODE, None, |_| 3);
        ts.sample_all(100);
        ts.sample_all(200);
        let roll = ts.snapshot().rollup();
        assert_eq!(roll.probes, 10);
        assert_eq!(roll.groups.len(), 2, "10 probes fold to 2 groups");
        let q = roll
            .groups
            .iter()
            .find(|g| g.key == "mcp.send_queue")
            .unwrap();
        assert_eq!(q.members, 8);
        assert_eq!(q.capacity_sum, Some(8 * 64));
        assert_eq!(q.points, vec![(100, 8, 0, 70, 280), (200, 8, 0, 70, 280)]);
        let busy = roll.groups.iter().find(|g| g.key == "link.*.busy").unwrap();
        assert_eq!(busy.members, 2);
        assert_eq!(busy.capacity_sum, None);
        assert_eq!(busy.points, vec![(100, 2, 1, 3, 4), (200, 2, 1, 3, 4)]);
        // Output size is per-group, not per-probe: a 64-node registry rolls
        // up to the same group count.
        let big = TimeSeries::new();
        for n in 0..64u32 {
            big.register(format!("n{n}.mcp.send_queue"), n, Some(64), |_| 1);
        }
        big.sample_all(100);
        let bigroll = big.snapshot().rollup();
        assert_eq!(bigroll.groups.len(), 1);
        assert_eq!(bigroll.groups[0].points.len(), 1);
        // Deterministic, schema-tagged, well-formed JSON.
        let j1 = roll.to_json();
        let j2 = ts.snapshot().rollup().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"schema\": \"suca.timeseries_rollup.v1\""));
        assert!(j1.contains("[100, 8, 0, 70, 280]"));
        assert_eq!(crate::validate_json(&j1), Ok(()));
    }

    #[test]
    fn rollup_counts_partial_ticks_from_late_probes() {
        let ts = TimeSeries::new();
        ts.register("n0.q", 0, None, |_| 5);
        ts.sample_all(10);
        // A probe registered mid-run (e.g. an RPC client spawning late).
        ts.register("n1.q", 1, None, |_| 7);
        ts.sample_all(20);
        let roll = ts.snapshot().rollup();
        let q = roll.groups.iter().find(|g| g.key == "q").unwrap();
        assert_eq!(q.members, 2);
        assert_eq!(q.points, vec![(10, 1, 5, 5, 5), (20, 2, 5, 7, 12)]);
    }

    #[test]
    fn last_window_renders_capacity_and_values() {
        let ts = TimeSeries::new();
        ts.register("n0.q", 0, Some(4), |_| 4);
        ts.sample_all(10);
        ts.sample_all(20);
        let w = ts.render_last_window(1);
        assert!(w.contains("n0.q (cap 4): 4@20ns"), "{w}");
        assert!(!w.contains("4@10ns"), "window bounded: {w}");
    }
}

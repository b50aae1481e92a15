//! Observability for the SUCA stack.
//!
//! Every layer of the simulated system — the kernel module, the MCP
//! firmware, the fabric, the DMA engines, the completion queues — registers
//! typed instruments into one shared [`Metrics`] registry and a whole run
//! can be serialized as a single machine-readable snapshot. Table 1 of the
//! paper (traps/interrupts per operation) is *derived* from these counters
//! rather than asserted from code inspection.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths must be cheap.** A [`Counter`] or [`Gauge`] handle is an
//!    `Rc` around [`Cell`]s; incrementing one is a plain add, with no
//!    registry borrow and no engine borrow. Components look their
//!    instruments up once at construction time and keep the handle.
//! 2. **Name-based access must still work.** The original `Sim::add_count`
//!    string API is preserved (it now resolves through the registry), so
//!    call sites that fire rarely — error paths, per-node dynamic names —
//!    need no handle plumbing.
//! 3. **No external dependencies.** The snapshot is hand-rolled JSON; the
//!    build environment cannot fetch serde.
//!
//! Names are hierarchical dotted paths (`kmod.pin_hits`, `fabric.dropped`,
//! `dma.h2s.busy_ns`) and snapshots list them in sorted order so diffs of
//! two runs line up.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

pub mod artifact;
pub mod critpath;
pub mod health;
pub mod prof;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use artifact::{validate_json, write_artifact};

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

#[derive(Default)]
struct GaugeCell {
    value: Cell<u64>,
    high_water: Cell<u64>,
}

/// An instantaneous level (queue depth, bytes in flight) that also tracks
/// its high-water mark. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Rc<GaugeCell>);

impl Gauge {
    /// Set the current level and fold it into the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.value.set(v);
        self.0.high_water.set(self.0.high_water.get().max(v));
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.set(self.get().wrapping_add(n));
    }

    /// Lower the level by `n` (saturating at 0).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.value.set(self.get().saturating_sub(n));
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.value.get()
    }

    /// Highest level ever set.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.0.high_water.get()
    }
}

/// Number of log2 buckets: bucket `k` holds values in `[2^(k-1), 2^k)`,
/// bucket 0 holds the value 0. u64 needs 65.
const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of u64 samples (latencies in ns, sizes in
/// bytes). Cloning shares the underlying cell. Recording borrows the
/// cell's [`RefCell`] — use it for per-message events, not per-byte ones.
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistogramSnapshot>>);

impl Histogram {
    fn new() -> Self {
        Histogram(Rc::new(RefCell::new(HistogramSnapshot::empty())))
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    fn snap(&self) -> HistogramSnapshot {
        self.0.borrow().clone()
    }
}

/// The instrument `name` of `map`, registered by `make` first if it is
/// new. The name is looked up by `&str` and only allocated on registration.
fn fetch<T: Clone>(map: &RefCell<BTreeMap<String, T>>, name: &str, make: impl FnOnce() -> T) -> T {
    let mut map = map.borrow_mut();
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

struct RegistryInner {
    counters: RefCell<BTreeMap<String, Counter>>,
    gauges: RefCell<BTreeMap<String, Gauge>>,
    histograms: RefCell<BTreeMap<String, Histogram>>,
    meta: RefCell<BTreeMap<String, String>>,
}

/// The shared registry handle. Cheap to clone; all clones see the same
/// instruments. One `Metrics` exists per simulation run.
///
/// Like the run it belongs to, a handle stays on the thread that made it:
///
/// ```compile_fail
/// let metrics = suca_obs::Metrics::new();
/// std::thread::spawn(move || metrics.counter("x").inc());
/// ```
#[derive(Clone)]
pub struct Metrics {
    inner: Rc<RegistryInner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Metrics {
            inner: Rc::new(RegistryInner {
                counters: RefCell::new(BTreeMap::new()),
                gauges: RefCell::new(BTreeMap::new()),
                histograms: RefCell::new(BTreeMap::new()),
                meta: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// Register (or fetch) the counter `name`. Call once at construction
    /// time and keep the returned handle; increments through the handle
    /// never touch the registry again.
    pub fn counter(&self, name: &str) -> Counter {
        fetch(&self.inner.counters, name, || Counter(Rc::default()))
    }

    /// Register (or fetch) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        fetch(&self.inner.gauges, name, || Gauge(Rc::default()))
    }

    /// Register (or fetch) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        fetch(&self.inner.histograms, name, Histogram::new)
    }

    /// Name-based counter increment (compat path, e.g. dynamic per-node
    /// names). One registry-map borrow per call; the name is looked up by
    /// `&str` and only allocated on first registration.
    pub fn add(&self, name: &str, n: u64) {
        let mut map = self.inner.counters.borrow_mut();
        match map.get(name) {
            Some(c) => c.add(n),
            None => {
                map.insert(name.to_string(), Counter(Rc::new(Cell::new(n))));
            }
        }
    }

    /// Name-based counter read (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.inner
            .counters
            .borrow_mut()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Attach a key/value annotation carried in every snapshot (seed,
    /// cluster size, harness name, …).
    pub fn set_meta(&self, key: &str, value: impl Into<String>) {
        self.inner
            .meta
            .borrow_mut()
            .insert(key.to_string(), value.into());
    }

    /// Sorted copy of all counter values.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.inner
            .counters
            .borrow_mut()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Consistent point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            meta: self.inner.meta.borrow().clone(),
            counters: self.counter_values(),
            gauges: self
                .inner
                .gauges
                .borrow_mut()
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .inner
                .histograms
                .borrow_mut()
                .iter()
                .map(|(k, h)| (k.clone(), h.snap()))
                .collect(),
        }
    }
}

/// Point-in-time gauge state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: u64,
    /// Highest level observed.
    pub high_water: u64,
}

/// Point-in-time histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// log2 buckets; index `k` counts samples in `[2^(k-1), 2^k)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot — the identity element for [`HistogramSnapshot::merge`].
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Record one sample: the one recording loop behind [`Histogram`] and
    /// the health engine's SLO windows.
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Fold `other` into `self`, bucket by bucket. The merge is **exact**:
    /// because per-node histograms share the same fixed log2 bucket edges,
    /// a hierarchical per-node → cluster rollup loses nothing — count,
    /// sum, min, max, every bucket, and therefore every interpolated
    /// quantile equal those of one histogram fed the whole population.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (k, &b) in other.buckets.iter().enumerate() {
            self.buckets[k] += b;
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`, interpolated linearly inside
    /// the containing log2 bucket (bucket `k` spans `[2^(k-1), 2^k)`) and
    /// clamped to the observed `[min, max]` so single-valued histograms
    /// report exact quantiles. Total: returns 0 when empty, treats a NaN
    /// `q` as 1, clamps infinities, and never yields NaN — required by the
    /// health rules, which evaluate freshly-rotated (possibly empty)
    /// windows every tick.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = q * self.count as f64;
        let mut cum = 0.0;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if cum + c >= rank {
                let (lo, hi) = if k == 0 {
                    (0.0, 0.0)
                } else {
                    (2f64.powi(k as i32 - 1), 2f64.powi(k as i32))
                };
                let frac = ((rank - cum) / c).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate (the SLO-report tail bucket).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// A full registry snapshot: metadata plus every instrument, sorted by
/// name. Serializes to JSON for the experiment harnesses.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Run annotations (seed, harness, cluster size, …).
    pub meta: BTreeMap<String, String>,
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values + high-water marks.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Counter value by name (0 if absent) — convenience for assertions.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of distinct counters in the snapshot.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// Serialize as pretty-printed JSON (2-space indent, keys sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"meta\": {");
        Self::write_map(&mut out, self.meta.iter(), |out, v| {
            let _ = write!(out, "\"{}\"", json_escape(v));
        });
        out.push_str("},\n  \"counters\": {");
        Self::write_map(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        Self::write_map(&mut out, self.gauges.iter(), |out, g| {
            let _ = write!(
                out,
                "{{\"value\": {}, \"high_water\": {}}}",
                g.value, g.high_water
            );
        });
        out.push_str("},\n  \"histograms\": {");
        Self::write_map(&mut out, self.histograms.iter(), |out, h| {
            // Buckets are elided above the top non-zero one to keep the
            // files diffable.
            let top = h
                .buckets
                .iter()
                .rposition(|&b| b != 0)
                .map(|i| i + 1)
                .unwrap_or(0);
            let buckets: Vec<String> = h.buckets[..top].iter().map(|b| b.to_string()).collect();
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"log2_buckets\": [{}]}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50(),
                h.p95(),
                h.p99(),
                buckets.join(", ")
            );
        });
        out.push_str("}\n}\n");
        out
    }

    fn write_map<'a, V: 'a>(
        out: &mut String,
        entries: impl ExactSizeIterator<Item = (&'a String, &'a V)>,
        mut write_value: impl FnMut(&mut String, &V),
    ) {
        let n = entries.len();
        if n == 0 {
            return;
        }
        out.push('\n');
        for (i, (k, v)) in entries.enumerate() {
            let _ = write!(out, "    \"{}\": ", json_escape(k));
            write_value(out, v);
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let m = Metrics::new();
        let a = m.counter("x.hits");
        let b = m.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(m.get("x.hits"), 3);
        assert_eq!(m.get("absent"), 0);
    }

    #[test]
    fn name_based_add_reaches_same_cell() {
        let m = Metrics::new();
        let h = m.counter("y");
        m.add("y", 5);
        assert_eq!(h.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let m = Metrics::new();
        let g = m.gauge("q.depth");
        g.set(3);
        g.add(4);
        g.sub(6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snap();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000 in [512, 1024)
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snap();
        // Log2 interpolation is coarse but must bracket the true value
        // within the containing power-of-two bucket.
        let p50 = s.p50();
        assert!((256.0..=512.0).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((512.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
        assert!(s.quantile(1.0) <= s.max as f64);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for _ in 0..10 {
            h.record(100);
        }
        let s = h.snap();
        // All mass in one bucket, min == max: every quantile is exact.
        assert_eq!(s.p50(), 100.0);
        assert_eq!(s.p99(), 100.0);
        assert_eq!(s.quantile(0.0), 100.0);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let m = Metrics::new();
        let s = m.histogram("empty").snap();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 0.0);
    }

    #[test]
    fn quantiles_of_single_sample_are_exact() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        h.record(777);
        let s = h.snap();
        // One sample: min == max == 777, so the bucket interpolation must
        // clamp every quantile to the observed value.
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 777.0, "q = {q}");
        }
        // A zero-valued single sample exercises bucket 0's (0, 0) range.
        let z = m.histogram("zero");
        z.record(0);
        let s = z.snap();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);
    }

    #[test]
    fn quantiles_are_total_over_degenerate_q() {
        // The health rules evaluate quantiles of freshly-rotated windows on
        // every tick; a degenerate q must never produce NaN or a panic.
        let m = Metrics::new();
        let empty = m.histogram("empty").snap();
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 7.0] {
            assert!(empty.quantile(q).is_finite());
            assert_eq!(empty.quantile(q), 0.0, "empty window stays 0");
        }
        let h = m.histogram("lat");
        h.record(100);
        h.record(900);
        let s = h.snap();
        assert_eq!(s.quantile(f64::NAN), s.quantile(1.0), "NaN q reads as 1");
        assert_eq!(s.quantile(f64::INFINITY), 900.0);
        assert_eq!(s.quantile(f64::NEG_INFINITY), 100.0);
        assert_eq!(s.quantile(-3.0), 100.0);
        assert_eq!(s.quantile(7.0), 900.0);
        assert!(!s.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn p99_of_two_samples_lands_on_the_larger() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        h.record(1);
        h.record(1000);
        let s = h.snap();
        // rank = 0.99 × 2 = 1.98 falls in the second sample's bucket
        // [512, 1024); interpolation then clamps to the observed max.
        assert_eq!(s.p99(), 1000.0);
        assert_eq!(s.quantile(1.0), 1000.0);
        // The low quantiles stay inside the smaller sample's bucket and
        // never exceed the larger sample.
        assert!(s.p50() >= s.min as f64 && s.p50() <= s.max as f64);
        assert!(s.p50() <= s.p99());
        // Out-of-range q is clamped, not extrapolated.
        assert_eq!(s.quantile(2.0), 1000.0);
        assert!(s.quantile(-1.0) >= s.min as f64);
    }

    #[test]
    fn merged_histograms_equal_whole_population() {
        // Satellite contract: a per-node → cluster rollup must be exact.
        // Spread a deterministic sample stream over 8 "node" histograms,
        // merge the snapshots, and compare against one histogram that saw
        // every sample: every field — and so every quantile — is equal.
        let m = Metrics::new();
        let whole = m.histogram("whole");
        let parts: Vec<Histogram> = (0..8).map(|n| m.histogram(&format!("node{n}"))).collect();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..10_000u64 {
            // splitmix64 stream: values spanning many buckets.
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            let v = (z ^ (z >> 31)) >> (z % 50);
            whole.record(v);
            parts[(i % 8) as usize].record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        for p in &parts {
            merged.merge(&p.snap());
        }
        let w = whole.snap();
        assert_eq!(merged, w, "bucket-exact merge");
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), w.quantile(q), "q = {q}");
        }
        assert_eq!(merged.mean(), w.mean());
        // Identity + commutativity spot checks.
        let mut id = HistogramSnapshot::empty();
        id.merge(&w);
        assert_eq!(id, w);
        let mut rev = HistogramSnapshot::empty();
        for p in parts.iter().rev() {
            rev.merge(&p.snap());
        }
        assert_eq!(rev, merged);
    }

    #[test]
    fn json_includes_quantiles() {
        let m = Metrics::new();
        m.histogram("sz").record(100);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"p50\": 100.0"), "{j}");
        assert!(j.contains("\"p99\": 100.0"));
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let m = Metrics::new();
        let s = m.histogram("empty").snap();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let m = Metrics::new();
        m.add("b", 2);
        m.add("a", 1);
        m.gauge("g").set(9);
        m.set_meta("seed", "42");
        let s = m.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(s.counter("a"), 1);
        assert_eq!(s.gauges["g"].high_water, 9);
        assert_eq!(s.meta["seed"], "42");
    }

    #[test]
    fn json_shape_is_valid_and_stable() {
        let m = Metrics::new();
        m.set_meta("harness", "unit \"test\"");
        m.add("fabric.dropped", 1);
        m.gauge("cq.depth").set(4);
        m.histogram("sz").record(100);
        let j = m.snapshot().to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"harness\": \"unit \\\"test\\\"\""));
        assert!(j.contains("\"fabric.dropped\": 1"));
        assert!(j.contains("\"value\": 4, \"high_water\": 4"));
        assert!(j.contains("\"count\": 1, \"sum\": 100"));
        assert_eq!(crate::validate_json(&j), Ok(()));
    }

    #[test]
    fn empty_registry_serializes() {
        let j = Metrics::new().snapshot().to_json();
        assert!(j.contains("\"counters\": {}"));
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\tb\n"), "a\\tb\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

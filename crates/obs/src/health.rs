//! Online health engine: streaming SLO windows, a declarative rule engine,
//! and a pending → firing → resolved alert lifecycle — all evaluated on the
//! simulator's telemetry tick so the system knows it is unhealthy *while*
//! it is unhealthy, not in a post-mortem report.
//!
//! Pieces:
//!
//! * **Streaming SLO windows** ([`HealthEngine::observe_rpc`]) — per-tenant,
//!   per-RPC-class latency/ok/error accumulators, rotated into a
//!   bounded ring of per-tick buckets on every telemetry tick. Quantiles
//!   over "the last N ticks" are exact log2-bucket merges
//!   ([`crate::HistogramSnapshot`]), available during the run. Rules scope
//!   to one tenant via [`HealthRule::for_tenant`], so a multi-tenant run
//!   can alert on exactly the workload that is burning its budget.
//! * **Rule engine** ([`HealthRule`]) — multi-window burn-rate and tail-latency
//!   rules over the SLO windows, capacity-saturation rules with hysteresis
//!   over the registered telemetry probes that declare a capacity (the only
//!   capacity watcher: installing one that matches no such probe panics),
//!   and counter-rate rules (protocol errors, path deaths, fault-symptom
//!   drops). The stall watchdog's chain stalls feed in as one more rule
//!   family via [`HealthEngine::note_stalls`], keeping its
//!   `watchdog.stalls` counter semantics untouched.
//! * **Alert lifecycle** — per (rule, scope) state machine: a breach must
//!   persist `for_ticks` consecutive ticks to fire and stay healthy
//!   `clear_ticks` ticks to resolve. Transitions bump `health.*` metrics,
//!   record Perfetto instants on the `health` track, and trip the
//!   flight recorder once per run on the first firing.
//! * **Deterministic report** ([`AlertReport`], schema `suca.health.v1`) —
//!   fire/clear sim-times plus measured fault-detection latency against a
//!   caller-supplied injection schedule ([`DetectionSpec`]). Every input is
//!   a deterministic function of the sim clock, so a fixed seed yields a
//!   byte-identical report on every rerun.
//!
//! The engine is created **unarmed** and registers nothing: harnesses that
//! never install rules see byte-identical metric/timeseries artifacts.
//! Arming happens once via [`HealthEngine::install`]; the hot-path hooks
//! cost one `Cell` read while unarmed.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::timeseries::{TimeSeries, FABRIC_NODE};
use crate::trace::{stage, MsgTracer, TraceEvent, TraceId, TraceLayer};
use crate::watchdog::Stall;
use crate::{json_escape, Counter, Gauge, HistogramSnapshot, Metrics};

/// Schema tag carried in every [`AlertReport`].
pub const SCHEMA: &str = "suca.health.v1";

/// RPC op classes tracked by the SLO windows, in class-index order. Classes
/// ≥ 3 fold into `other` (mirrors the `rpc.lat.*` histogram convention).
pub const CLASS_NAMES: [&str; 4] = ["get", "put", "scan", "other"];

/// Tenants tracked by the SLO windows. Tenant ids ≥ `MAX_TENANTS - 1`
/// fold into the last bucket (same convention as op classes), so the
/// per-tick state stays bounded no matter what ids a workload invents.
pub const MAX_TENANTS: usize = 4;

fn class_idx(op_class: u8) -> usize {
    (op_class as usize).min(3)
}

fn tenant_idx(tenant: u8) -> usize {
    (tenant as usize).min(MAX_TENANTS - 1)
}

/// What a rule watches. All thresholds are integers (parts-per-million for
/// ratios) so evaluation is exact and platform-independent.
#[derive(Clone, Debug)]
pub enum RuleKind {
    /// Multi-window error-budget burn rate: fires when, over **both** the
    /// short and the long window, `errors / events` exceeds
    /// `budget_ppm × factor` (as a ratio of 1e6) with at least `min_events`
    /// events in each window. The classic SRE fast-burn/slow-burn pair is
    /// two of these with different windows and factors.
    BurnRate {
        /// Restrict to one tenant (folded per [`MAX_TENANTS`]); `None`
        /// spans all tenants.
        tenant: Option<u8>,
        /// Restrict to one op class (index into [`CLASS_NAMES`]); `None`
        /// spans all classes.
        class: Option<u8>,
        /// Error budget in parts-per-million of events (1000 = 0.1%).
        budget_ppm: u32,
        /// Burn multiplier the windows must exceed.
        factor: u32,
        /// Short window, in telemetry ticks.
        short_ticks: u32,
        /// Long window, in telemetry ticks.
        long_ticks: u32,
        /// Minimum events per window before the rule can breach.
        min_events: u64,
    },
    /// Tail-latency rule: fires when the merged p99 over both windows
    /// exceeds `threshold_ns`, with at least `min_events` per window.
    LatencyP99 {
        /// Restrict to one tenant; `None` spans all tenants.
        tenant: Option<u8>,
        /// Restrict to one op class; `None` spans all classes.
        class: Option<u8>,
        /// p99 threshold in nanoseconds of virtual time.
        threshold_ns: u64,
        /// Short window, in telemetry ticks.
        short_ticks: u32,
        /// Long window, in telemetry ticks.
        long_ticks: u32,
        /// Minimum events per window before the rule can breach.
        min_events: u64,
    },
    /// Capacity saturation with hysteresis, one scope per matching probe:
    /// every registered probe with a declared capacity whose name equals
    /// `probe_suffix` or ends in `.probe_suffix` participates (at least one
    /// must exist when the rule is installed). While idle
    /// the scope breaches at `value ≥ capacity × fire_ppm / 1e6`; while
    /// firing it is healthy only at `value ≤ capacity × clear_ppm / 1e6` —
    /// levels in between hold the current state, so a level flapping around
    /// one threshold cannot flap the alert.
    Saturation {
        /// Probe-name suffix selecting the scopes (e.g. `mcp.send_queue`).
        probe_suffix: String,
        /// Fire threshold in ppm of the probe's declared capacity.
        fire_ppm: u32,
        /// Clear threshold in ppm of capacity (≤ `fire_ppm`).
        clear_ppm: u32,
    },
    /// Counter-rate rule: fires while the named counter grew by at least
    /// `threshold` over the last `window_ticks` ticks. Fault symptoms
    /// (`link.down_drops`, `mcp.path_deaths`, …) are rate rules: the alert
    /// resolves naturally once the symptom stops and the window drains.
    Rate {
        /// Counter name in the run's metrics registry.
        counter: String,
        /// Look-back window, in telemetry ticks.
        window_ticks: u32,
        /// Minimum delta over the window to breach.
        threshold: u64,
    },
}

/// One declarative health rule: a [`RuleKind`] plus the alert lifecycle
/// thresholds shared by every kind.
#[derive(Clone, Debug)]
pub struct HealthRule {
    /// Unique rule name (report/trace identity).
    pub name: String,
    /// What it watches.
    pub kind: RuleKind,
    /// Consecutive breaching ticks before a pending alert fires.
    pub for_ticks: u32,
    /// Consecutive healthy ticks before a firing alert resolves.
    pub clear_ticks: u32,
}

impl HealthRule {
    /// Burn-rate rule with default lifecycle (fire after 2 breaching ticks,
    /// resolve after 20 healthy ones).
    pub fn burn_rate(
        name: impl Into<String>,
        class: Option<u8>,
        budget_ppm: u32,
        factor: u32,
        short_ticks: u32,
        long_ticks: u32,
        min_events: u64,
    ) -> Self {
        HealthRule {
            name: name.into(),
            kind: RuleKind::BurnRate {
                tenant: None,
                class,
                budget_ppm,
                factor,
                short_ticks,
                long_ticks,
                min_events,
            },
            for_ticks: 2,
            clear_ticks: 20,
        }
    }

    /// Tail-latency rule with default lifecycle.
    pub fn latency_p99(
        name: impl Into<String>,
        class: Option<u8>,
        threshold_ns: u64,
        short_ticks: u32,
        long_ticks: u32,
        min_events: u64,
    ) -> Self {
        HealthRule {
            name: name.into(),
            kind: RuleKind::LatencyP99 {
                tenant: None,
                class,
                threshold_ns,
                short_ticks,
                long_ticks,
                min_events,
            },
            for_ticks: 2,
            clear_ticks: 20,
        }
    }

    /// Saturation rule with default lifecycle.
    pub fn saturation(
        name: impl Into<String>,
        probe_suffix: impl Into<String>,
        fire_ppm: u32,
        clear_ppm: u32,
    ) -> Self {
        HealthRule {
            name: name.into(),
            kind: RuleKind::Saturation {
                probe_suffix: probe_suffix.into(),
                fire_ppm,
                clear_ppm: clear_ppm.min(fire_ppm),
            },
            for_ticks: 2,
            clear_ticks: 20,
        }
    }

    /// Counter-rate rule with default lifecycle.
    pub fn rate(
        name: impl Into<String>,
        counter: impl Into<String>,
        window_ticks: u32,
        threshold: u64,
    ) -> Self {
        HealthRule {
            name: name.into(),
            kind: RuleKind::Rate {
                counter: counter.into(),
                window_ticks,
                threshold: threshold.max(1),
            },
            for_ticks: 2,
            clear_ticks: 20,
        }
    }

    /// Override the fire/resolve persistence thresholds.
    pub fn with_lifecycle(mut self, for_ticks: u32, clear_ticks: u32) -> Self {
        self.for_ticks = for_ticks.max(1);
        self.clear_ticks = clear_ticks.max(1);
        self
    }

    /// Scope a burn-rate or tail-latency rule to one tenant's SLO window
    /// (no-op for saturation/rate kinds, which have no tenant dimension).
    pub fn for_tenant(mut self, t: u8) -> Self {
        match &mut self.kind {
            RuleKind::BurnRate { tenant, .. } | RuleKind::LatencyP99 { tenant, .. } => {
                *tenant = Some(t);
            }
            RuleKind::Saturation { .. } | RuleKind::Rate { .. } => {}
        }
        self
    }

    fn kind_label(&self) -> &'static str {
        match self.kind {
            RuleKind::BurnRate { .. } => "burn_rate",
            RuleKind::LatencyP99 { .. } => "latency_p99",
            RuleKind::Saturation { .. } => "saturation",
            RuleKind::Rate { .. } => "rate",
        }
    }
}

/// One alert instance: created when a pending breach fires, closed when the
/// scope stays healthy for the rule's `clear_ticks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertRecord {
    /// Rule that fired.
    pub rule: String,
    /// Scope within the rule (class, probe, or counter name).
    pub scope: String,
    /// Sim-time the first breaching tick was observed (pending).
    pub pending_ns: u64,
    /// Sim-time the alert fired.
    pub fired_ns: u64,
    /// Sim-time the alert resolved (`None` = still firing at report time).
    pub resolved_ns: Option<u64>,
}

/// One entry of a fault-injection schedule to measure detection against.
#[derive(Clone, Debug)]
pub struct DetectionSpec {
    /// Fault kind label (report row identity).
    pub kind: String,
    /// Sim-time the fault was injected.
    pub injected_ns: u64,
    /// Rules eligible to detect it (empty = any rule counts).
    pub rules: Vec<String>,
    /// Detection deadline: a matching alert must fire within this much
    /// sim-time of injection.
    pub bound_ns: u64,
}

/// Measured detection outcome for one [`DetectionSpec`].
#[derive(Clone, Debug)]
pub struct DetectionRow {
    /// Fault kind.
    pub kind: String,
    /// Injection sim-time.
    pub injected_ns: u64,
    /// `(rule, scope)` of the earliest matching alert, when detected.
    pub detected_by: Option<(String, String)>,
    /// Fire sim-time of that alert.
    pub fired_ns: Option<u64>,
    /// Resolve sim-time of that alert.
    pub resolved_ns: Option<u64>,
}

impl DetectionRow {
    /// Injection-to-fire latency (None = undetected within bound).
    pub fn detect_ns(&self) -> Option<u64> {
        self.fired_ns.map(|f| f.saturating_sub(self.injected_ns))
    }

    /// Fire-to-resolve latency (None = undetected or unresolved).
    pub fn clear_ns(&self) -> Option<u64> {
        match (self.fired_ns, self.resolved_ns) {
            (Some(f), Some(r)) => Some(r.saturating_sub(f)),
            _ => None,
        }
    }
}

/// Tri-state rule evaluation: `Hold` is the hysteresis band (keep the
/// current state, count toward neither firing nor resolving).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Eval {
    Breach,
    Hold,
    Healthy,
}

/// Per-tick, per-class SLO accumulator.
#[derive(Clone)]
struct ClassBucket {
    hist: HistogramSnapshot,
    ok: u64,
    err: u64,
}

impl ClassBucket {
    fn new() -> Self {
        ClassBucket {
            hist: HistogramSnapshot::empty(),
            ok: 0,
            err: 0,
        }
    }

    fn record(&mut self, ok: bool, latency_ns: u64) {
        self.hist.record(latency_ns);
        if ok {
            self.ok += 1;
        } else {
            self.err += 1;
        }
    }
}

/// One tick's accumulators: tenant-major, class-minor.
type TickBuckets = [[ClassBucket; 4]; MAX_TENANTS];

fn fresh_tick() -> TickBuckets {
    std::array::from_fn(|_| std::array::from_fn(|_| ClassBucket::new()))
}

/// Streaming per-tenant, per-class SLO windows: one open per-tick bucket
/// grid plus a bounded ring of closed ones.
struct SloWindows {
    open: TickBuckets,
    closed: VecDeque<TickBuckets>,
    max_ticks: usize,
}

impl SloWindows {
    fn new(max_ticks: usize) -> Self {
        SloWindows {
            open: fresh_tick(),
            closed: VecDeque::with_capacity(max_ticks + 1),
            max_ticks: max_ticks.max(1),
        }
    }

    fn rotate(&mut self) {
        let done = std::mem::replace(&mut self.open, fresh_tick());
        if self.closed.len() >= self.max_ticks {
            self.closed.pop_front();
        }
        self.closed.push_back(done);
    }

    /// Merge the last `ticks` closed buckets for `tenant`/`class` (`None`
    /// = all): `(latency histogram, ok, err)`.
    fn window(
        &self,
        tenant: Option<u8>,
        class: Option<u8>,
        ticks: u32,
    ) -> (HistogramSnapshot, u64, u64) {
        let mut hist = HistogramSnapshot::empty();
        let (mut ok, mut err) = (0u64, 0u64);
        let mut fold = |b: &ClassBucket| {
            hist.merge(&b.hist);
            ok += b.ok;
            err += b.err;
        };
        for tick in self.closed.iter().rev().take(ticks.max(1) as usize) {
            let tenants: &[[ClassBucket; 4]] = match tenant {
                Some(t) => std::slice::from_ref(&tick[tenant_idx(t)]),
                None => tick.as_slice(),
            };
            for classes in tenants {
                match class {
                    Some(c) => fold(&classes[class_idx(c)]),
                    None => classes.iter().for_each(&mut fold),
                }
            }
        }
        (hist, ok, err)
    }
}

/// Alert state for one (rule, scope) pair.
#[derive(Default)]
struct ScopeState {
    breach_streak: u32,
    pending_since_ns: u64,
    healthy_streak: u32,
    /// Index into `alerts` while firing.
    firing: Option<usize>,
}

struct EngineState {
    rules: Vec<HealthRule>,
    windows: SloWindows,
    /// Per-rule counter-sample rings (empty for non-rate rules).
    rate_rings: Vec<VecDeque<u64>>,
    scopes: BTreeMap<(usize, String), ScopeState>,
    alerts: Vec<AlertRecord>,
    ticks: u64,
    metrics: Metrics,
    c_evals: Counter,
    c_fired: Counter,
    c_resolved: Counter,
    g_firing: Gauge,
}

/// The online health engine. One per simulation, created unarmed (zero
/// registry footprint) and armed once via [`HealthEngine::install`]; driven
/// by the telemetry tick.
pub struct HealthEngine {
    armed: Cell<bool>,
    state: RefCell<Option<EngineState>>,
}

impl Default for HealthEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthEngine {
    /// An unarmed engine: every hook is a no-op costing one `Cell` read.
    pub fn new() -> Self {
        HealthEngine {
            armed: Cell::new(false),
            state: RefCell::new(None),
        }
    }

    /// Is a rule set installed?
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.get()
    }

    /// Install `rules` and register the `health.*` instruments. Call once
    /// per run, after every probe is registered in `series` and before
    /// traffic starts; a second call replaces nothing and panics — a run has
    /// exactly one rule set or none. A saturation rule whose suffix matches
    /// no probe with a declared capacity would never evaluate, so it panics
    /// too.
    pub fn install(&self, rules: Vec<HealthRule>, metrics: &Metrics, series: &TimeSeries) {
        let mut st = self.state.borrow_mut();
        assert!(st.is_none(), "health rules already installed for this run");
        let probes = series.snapshot().series;
        for r in &rules {
            if let RuleKind::Saturation { probe_suffix, .. } = &r.kind {
                assert!(
                    probes
                        .iter()
                        .any(|p| p.capacity.is_some() && probe_matches(&p.name, probe_suffix)),
                    "saturation rule {:?}: suffix {probe_suffix:?} matches no probe with a \
                     declared capacity",
                    r.name
                );
            }
        }
        let mut max_window = 1u32;
        let mut rate_rings = Vec::with_capacity(rules.len());
        for r in &rules {
            match &r.kind {
                RuleKind::BurnRate {
                    short_ticks,
                    long_ticks,
                    ..
                }
                | RuleKind::LatencyP99 {
                    short_ticks,
                    long_ticks,
                    ..
                } => {
                    max_window = max_window.max(*short_ticks).max(*long_ticks);
                    rate_rings.push(VecDeque::new());
                }
                RuleKind::Rate { window_ticks, .. } => {
                    rate_rings.push(VecDeque::with_capacity(*window_ticks as usize + 1));
                }
                RuleKind::Saturation { .. } => rate_rings.push(VecDeque::new()),
            }
        }
        *st = Some(EngineState {
            windows: SloWindows::new(max_window as usize),
            rules,
            rate_rings,
            scopes: BTreeMap::new(),
            alerts: Vec::new(),
            ticks: 0,
            metrics: metrics.clone(),
            c_evals: metrics.counter("health.evals"),
            c_fired: metrics.counter("health.alerts_fired"),
            c_resolved: metrics.counter("health.alerts_resolved"),
            g_firing: metrics.gauge("health.firing"),
        });
        self.armed.set(true);
    }

    /// Completion hook (the `suca-rpc` client calls this for every resolved
    /// request): fold one RPC outcome into the open SLO bucket of its
    /// tenant and class.
    #[inline]
    pub fn observe_rpc(&self, tenant: u8, op_class: u8, ok: bool, latency_ns: u64) {
        if !self.armed() {
            return;
        }
        let mut st = self.state.borrow_mut();
        if let Some(st) = st.as_mut() {
            st.windows.open[tenant_idx(tenant)][class_idx(op_class)].record(ok, latency_ns);
        }
    }

    /// Error-only hook (the `suca-load` verifier calls this when a payload
    /// fails verification): counts an error event without a latency sample.
    #[inline]
    pub fn observe_error(&self, tenant: u8, op_class: u8) {
        if !self.armed() {
            return;
        }
        let mut st = self.state.borrow_mut();
        if let Some(st) = st.as_mut() {
            st.windows.open[tenant_idx(tenant)][class_idx(op_class)].err += 1;
        }
    }

    /// Watchdog bridge: each chain stall the watchdog reports becomes an
    /// immediately-firing `watchdog.chain` alert. The watchdog keeps its own
    /// `watchdog.stalls` counter and stderr/flight-recorder behavior; this
    /// only adds the alert-lifecycle view. Stall alerts never resolve — a
    /// chain silent past the watchdog budget is an incident, not a
    /// transient.
    pub fn note_stalls(&self, now_ns: u64, stalls: &[Stall], tracer: &MsgTracer) {
        if !self.armed() || stalls.is_empty() {
            return;
        }
        let mut guard = self.state.borrow_mut();
        let Some(st) = guard.as_mut() else {
            return;
        };
        for Stall { origin, msg_id, .. } in stalls {
            let rule = "watchdog.chain".to_string();
            let scope = format!("origin{origin}.msg{msg_id}");
            st.c_fired.inc();
            st.g_firing.add(1);
            emit_instant(tracer, stage::HEALTH_FIRING, &rule, &scope, now_ns);
            st.alerts.push(AlertRecord {
                rule,
                scope,
                pending_ns: now_ns,
                fired_ns: now_ns,
                resolved_ns: None,
            });
        }
    }

    /// Telemetry-tick driver: rotate the SLO windows, then evaluate every
    /// rule and step the per-scope alert state machines. Deterministic:
    /// inputs are the sim clock, the counters/probes, and
    /// the completion stream.
    pub fn on_tick(&self, now_ns: u64, series: &TimeSeries, tracer: &MsgTracer) {
        if !self.armed() {
            return;
        }
        let mut guard = self.state.borrow_mut();
        let Some(st) = guard.as_mut() else {
            return;
        };
        st.ticks += 1;
        st.windows.rotate();

        // Evaluate each rule into (scope → eval) pairs first, then step the
        // state machines, so the borrow of `st.windows` / `st.rate_rings`
        // ends before the mutable walk over `st.scopes`.
        let mut evals: Vec<(usize, String, Eval)> = Vec::new();
        for (idx, rule) in st.rules.iter().enumerate() {
            match &rule.kind {
                RuleKind::BurnRate {
                    tenant,
                    class,
                    budget_ppm,
                    factor,
                    short_ticks,
                    long_ticks,
                    min_events,
                } => {
                    let breach = |ticks: u32| -> bool {
                        let (_, ok, err) = st.windows.window(*tenant, *class, ticks);
                        let events = ok + err;
                        events >= (*min_events).max(1)
                            && (err as u128) * 1_000_000
                                > (events as u128) * u128::from(*budget_ppm) * u128::from(*factor)
                    };
                    let e = if breach(*short_ticks) && breach(*long_ticks) {
                        Eval::Breach
                    } else {
                        Eval::Healthy
                    };
                    evals.push((idx, slo_scope(*tenant, *class), e));
                }
                RuleKind::LatencyP99 {
                    tenant,
                    class,
                    threshold_ns,
                    short_ticks,
                    long_ticks,
                    min_events,
                } => {
                    let breach = |ticks: u32| -> bool {
                        let (hist, ok, err) = st.windows.window(*tenant, *class, ticks);
                        ok + err >= (*min_events).max(1) && hist.p99() > *threshold_ns as f64
                    };
                    let e = if breach(*short_ticks) && breach(*long_ticks) {
                        Eval::Breach
                    } else {
                        Eval::Healthy
                    };
                    evals.push((idx, slo_scope(*tenant, *class), e));
                }
                RuleKind::Saturation {
                    probe_suffix,
                    fire_ppm,
                    clear_ppm,
                } => {
                    series.for_each_latest(|name, _node, capacity, value| {
                        let Some(cap) = capacity else { return };
                        if cap == 0 || !probe_matches(name, probe_suffix) {
                            return;
                        }
                        let v = u128::from(value) * 1_000_000;
                        let e = if v >= u128::from(cap) * u128::from(*fire_ppm) {
                            Eval::Breach
                        } else if v <= u128::from(cap) * u128::from(*clear_ppm) {
                            Eval::Healthy
                        } else {
                            Eval::Hold
                        };
                        evals.push((idx, name.to_string(), e));
                    });
                }
                RuleKind::Rate {
                    counter,
                    window_ticks,
                    threshold,
                } => {
                    let ring = &mut st.rate_rings[idx];
                    let v = st.metrics.get(counter);
                    if ring.len() > *window_ticks as usize {
                        ring.pop_front();
                    }
                    ring.push_back(v);
                    let delta = v - ring.front().copied().unwrap_or(v);
                    let e = if delta >= *threshold {
                        Eval::Breach
                    } else {
                        Eval::Healthy
                    };
                    evals.push((idx, counter.clone(), e));
                }
            }
        }

        for (idx, scope, eval) in evals {
            st.c_evals.inc();
            let key = (idx, scope);
            let state = st.scopes.entry(key.clone()).or_default();
            let rule = &st.rules[idx];
            match state.firing {
                Some(alert_idx) => {
                    if eval == Eval::Healthy {
                        state.healthy_streak += 1;
                        if state.healthy_streak >= rule.clear_ticks.max(1) {
                            st.alerts[alert_idx].resolved_ns = Some(now_ns);
                            state.firing = None;
                            state.healthy_streak = 0;
                            state.breach_streak = 0;
                            st.c_resolved.inc();
                            st.g_firing.sub(1);
                            emit_instant(
                                tracer,
                                stage::HEALTH_RESOLVED,
                                &rule.name,
                                &key.1,
                                now_ns,
                            );
                        }
                    } else {
                        state.healthy_streak = 0;
                    }
                }
                None => {
                    if eval == Eval::Breach {
                        state.breach_streak += 1;
                        if state.breach_streak == 1 {
                            state.pending_since_ns = now_ns;
                            emit_instant(tracer, stage::HEALTH_PENDING, &rule.name, &key.1, now_ns);
                        }
                        if state.breach_streak >= rule.for_ticks.max(1) {
                            st.alerts.push(AlertRecord {
                                rule: rule.name.clone(),
                                scope: key.1.clone(),
                                pending_ns: state.pending_since_ns,
                                fired_ns: now_ns,
                                resolved_ns: None,
                            });
                            state.firing = Some(st.alerts.len() - 1);
                            state.breach_streak = 0;
                            st.c_fired.inc();
                            st.g_firing.add(1);
                            emit_instant(tracer, stage::HEALTH_FIRING, &rule.name, &key.1, now_ns);
                            tracer.dump_once(&format!(
                                "health alert firing: {} [{}] at t={now_ns} ns",
                                rule.name, key.1
                            ));
                        }
                    } else {
                        state.breach_streak = 0;
                    }
                }
            }
        }
    }

    /// Alerts recorded so far (fired ones only; a pending streak that never
    /// fires is not an alert).
    pub fn alerts(&self) -> Vec<AlertRecord> {
        self.state
            .borrow_mut()
            .as_ref()
            .map(|st| st.alerts.clone())
            .unwrap_or_default()
    }

    /// Alerts fired so far.
    pub fn fired_count(&self) -> u64 {
        self.alerts().len() as u64
    }

    /// Alerts currently firing (fired, not yet resolved).
    pub fn active_count(&self) -> u64 {
        self.alerts()
            .iter()
            .filter(|a| a.resolved_ns.is_none())
            .count() as u64
    }

    /// Has no alert fired? (Trivially true while unarmed.)
    pub fn is_silent(&self) -> bool {
        self.fired_count() == 0
    }

    /// Merged SLO window over the last `ticks` closed ticks for `tenant` /
    /// `class` (`None` = all): `(latency histogram, ok, err)`. The online
    /// query the rules themselves evaluate — exposed for harness asserts.
    pub fn window(
        &self,
        tenant: Option<u8>,
        class: Option<u8>,
        ticks: u32,
    ) -> (HistogramSnapshot, u64, u64) {
        self.state
            .borrow_mut()
            .as_ref()
            .map(|st| st.windows.window(tenant, class, ticks))
            .unwrap_or((HistogramSnapshot::empty(), 0, 0))
    }

    /// Build the deterministic report: rule set, every alert's lifecycle
    /// times, and — when `detections` is non-empty — the measured
    /// detection/clear latency per injected fault.
    pub fn report(
        &self,
        harness: &str,
        variant: &str,
        seed: u64,
        detections: &[DetectionSpec],
    ) -> AlertReport {
        let guard = self.state.borrow();
        let (rules, alerts, ticks) = match guard.as_ref() {
            Some(st) => (st.rules.clone(), st.alerts.clone(), st.ticks),
            None => (Vec::new(), Vec::new(), 0),
        };
        drop(guard);
        let mut sorted = alerts;
        sorted
            .sort_by(|a, b| (a.fired_ns, &a.rule, &a.scope).cmp(&(b.fired_ns, &b.rule, &b.scope)));
        let detections = detections
            .iter()
            .map(|spec| {
                let hit = sorted
                    .iter()
                    .filter(|a| spec.rules.is_empty() || spec.rules.contains(&a.rule))
                    .filter(|a| {
                        a.fired_ns >= spec.injected_ns
                            && a.fired_ns <= spec.injected_ns.saturating_add(spec.bound_ns)
                    })
                    .min_by_key(|a| (a.fired_ns, a.rule.clone(), a.scope.clone()));
                DetectionRow {
                    kind: spec.kind.clone(),
                    injected_ns: spec.injected_ns,
                    detected_by: hit.map(|a| (a.rule.clone(), a.scope.clone())),
                    fired_ns: hit.map(|a| a.fired_ns),
                    resolved_ns: hit.and_then(|a| a.resolved_ns),
                }
            })
            .collect();
        AlertReport {
            harness: harness.to_string(),
            variant: variant.to_string(),
            seed,
            ticks,
            rules,
            alerts: sorted,
            detections,
        }
    }
}

/// Does a saturation rule's `suffix` select probe `name`? It must equal
/// the name or end it after a `.`.
fn probe_matches(name: &str, suffix: &str) -> bool {
    name.strip_suffix(suffix)
        .is_some_and(|head| head.is_empty() || head.ends_with('.'))
}

/// Scope label for an SLO-window rule: `all`, `scan`, `t1.all`,
/// `t2.scan`. Tenant ids are folded the same way the windows fold them,
/// so the label always names the bucket actually watched.
fn slo_scope(tenant: Option<u8>, class: Option<u8>) -> String {
    let class_name = class.map_or("all", |c| CLASS_NAMES[class_idx(c)]);
    match tenant {
        Some(t) => format!("t{}.{class_name}", tenant_idx(t)),
        None => class_name.to_string(),
    }
}

/// Record one health-lifecycle instant on the Perfetto `health` track. The
/// event is unattributable ([`TraceId::NONE`]), so it bypasses trace
/// sampling and the completeness checker; per-probe scopes (`n<node>.…`)
/// land on their node's track, everything else on the fabric track.
fn emit_instant(
    tracer: &MsgTracer,
    stage_name: &'static str,
    rule: &str,
    scope: &str,
    now_ns: u64,
) {
    let node = scope
        .strip_prefix('n')
        .and_then(|rest| rest.split('.').next())
        .and_then(|digits| digits.parse::<u32>().ok())
        .unwrap_or(FABRIC_NODE);
    tracer.record(TraceEvent::instant(
        TraceId::NONE,
        node,
        TraceLayer::Health,
        format!("{stage_name}:{rule}"),
        now_ns,
    ));
}

/// Deterministic alert report (`suca.health.v1`). Hand-rolled JSON with a
/// fixed key order, integer sim-times, and sorted alerts: a fixed seed
/// yields a byte-identical file on every rerun.
#[derive(Clone, Debug)]
pub struct AlertReport {
    /// Harness name (`rpc_slo`, `chaos_slo`, …).
    pub harness: String,
    /// Variant label (`clean`, `storm`, …).
    pub variant: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Telemetry ticks the engine evaluated.
    pub ticks: u64,
    /// Installed rule set.
    pub rules: Vec<HealthRule>,
    /// Every fired alert, sorted by (fired_ns, rule, scope).
    pub alerts: Vec<AlertRecord>,
    /// Measured detection rows (empty when no schedule was supplied).
    pub detections: Vec<DetectionRow>,
}

/// Summarize a set of latency samples for the report: exact integer
/// count/min/max plus a log2-interpolated p50 — enough to read detection
/// speed off the artifact without floats beyond one `{:.1}`.
fn latency_summary(out: &mut String, values: &[u64]) {
    let mut hist = HistogramSnapshot::empty();
    for &v in values {
        hist.record(v);
    }
    let _ = write!(
        out,
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}, \"p50\": {:.1}}}",
        hist.count,
        hist.min,
        hist.max,
        hist.sum,
        hist.p50()
    );
}

impl AlertReport {
    /// Did any alert fire?
    pub fn is_silent(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Alerts never resolved by the end of the run.
    pub fn unresolved(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.resolved_ns.is_none())
            .count()
    }

    /// Detection rows that missed their bound.
    pub fn undetected(&self) -> Vec<&DetectionRow> {
        self.detections
            .iter()
            .filter(|d| d.fired_ns.is_none())
            .collect()
    }

    /// Serialize (fixed key order, sorted alerts, virtual times only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"harness\": \"{}\",\n  \"variant\": \"{}\",\n  \
             \"seed\": {},\n  \"ticks\": {},\n  \"counts\": {{\"fired\": {}, \"resolved\": {}, \
             \"active\": {}}},\n  \"rules\": [",
            json_escape(&self.harness),
            json_escape(&self.variant),
            self.seed,
            self.ticks,
            self.alerts.len(),
            self.alerts.len() - self.unresolved(),
            self.unresolved(),
        );
        for (i, r) in self.rules.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"for_ticks\": {}, \"clear_ticks\": {}}}",
                json_escape(&r.name),
                r.kind_label(),
                r.for_ticks,
                r.clear_ticks
            );
        }
        out.push_str(if self.rules.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"alerts\": [");
        for (i, a) in self.alerts.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let resolved = a
                .resolved_ns
                .map(|r| r.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "    {{\"rule\": \"{}\", \"scope\": \"{}\", \"pending_ns\": {}, \
                 \"fired_ns\": {}, \"resolved_ns\": {resolved}}}",
                json_escape(&a.rule),
                json_escape(&a.scope),
                a.pending_ns,
                a.fired_ns
            );
        }
        out.push_str(if self.alerts.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"detections\": [");
        for (i, d) in self.detections.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let by = d
                .detected_by
                .as_ref()
                .map(|(r, s)| format!("\"{}[{}]\"", json_escape(r), json_escape(s)))
                .unwrap_or_else(|| "null".to_string());
            let opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                "    {{\"kind\": \"{}\", \"injected_ns\": {}, \"detected_by\": {by}, \
                 \"fired_ns\": {}, \"resolved_ns\": {}, \"detect_ns\": {}, \"clear_ns\": {}}}",
                json_escape(&d.kind),
                d.injected_ns,
                opt(d.fired_ns),
                opt(d.resolved_ns),
                opt(d.detect_ns()),
                opt(d.clear_ns())
            );
        }
        out.push_str(if self.detections.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let detect: Vec<u64> = self
            .detections
            .iter()
            .filter_map(|d| d.detect_ns())
            .collect();
        let clear: Vec<u64> = self
            .detections
            .iter()
            .filter_map(|d| d.clear_ns())
            .collect();
        out.push_str("  \"detect_latency_ns\": ");
        latency_summary(&mut out, &detect);
        out.push_str(",\n  \"clear_latency_ns\": ");
        latency_summary(&mut out, &clear);
        out.push_str("\n}\n");
        out
    }

    /// Write as the `health` artifact `file_stem` and return the path.
    pub fn write_named(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        crate::write_artifact("health", file_stem, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(rules: Vec<HealthRule>) -> (HealthEngine, Metrics, TimeSeries, MsgTracer) {
        engine_on(TimeSeries::new(), rules)
    }

    /// Install `rules` over `ts`, whose probes are already registered.
    fn engine_on(
        ts: TimeSeries,
        rules: Vec<HealthRule>,
    ) -> (HealthEngine, Metrics, TimeSeries, MsgTracer) {
        let m = Metrics::new();
        let h = HealthEngine::new();
        h.install(rules, &m, &ts);
        (h, m, ts, MsgTracer::new())
    }

    #[test]
    fn unarmed_engine_registers_nothing_and_ignores_hooks() {
        let h = HealthEngine::new();
        assert!(!h.armed());
        h.observe_rpc(0, 0, true, 100);
        h.observe_error(0, 1);
        assert!(h.is_silent());
        let report = h.report("unit", "clean", 7, &[]);
        assert!(report.is_silent());
        assert_eq!(report.ticks, 0);
    }

    #[test]
    fn burn_rate_fires_after_for_ticks_and_resolves_after_clear_ticks() {
        let rule = HealthRule::burn_rate("burn", None, 10_000, 10, 3, 6, 5).with_lifecycle(2, 3);
        let (h, _m, ts, tr) = engine_with(vec![rule]);
        let mut t = 0u64;
        let tick = |h: &HealthEngine, t: &mut u64| {
            *t += 10_000;
            h.on_tick(*t, &ts, &tr);
        };
        // Healthy traffic: plenty of events, no errors.
        for _ in 0..6 {
            for _ in 0..10 {
                h.observe_rpc(0, 0, true, 5_000);
            }
            tick(&h, &mut t);
        }
        assert!(h.is_silent(), "clean traffic is alert-silent");
        // All-error traffic: breach persists, fires after for_ticks = 2.
        for i in 0..6 {
            for _ in 0..10 {
                h.observe_rpc(0, 0, false, 5_000);
            }
            tick(&h, &mut t);
            if i == 0 {
                assert!(h.is_silent(), "one breaching tick is pending, not firing");
            }
        }
        assert_eq!(h.fired_count(), 1);
        assert_eq!(h.active_count(), 1);
        let alerts = h.alerts();
        assert_eq!(alerts[0].rule, "burn");
        assert_eq!(alerts[0].scope, "all");
        assert!(alerts[0].pending_ns < alerts[0].fired_ns);
        assert!(tr.has_dumped(), "flight recorder captured on first firing");
        // Healthy again: short window (3 ticks) drains, then clear_ticks = 3
        // healthy evaluations resolve it.
        for _ in 0..10 {
            for _ in 0..10 {
                h.observe_rpc(0, 0, true, 5_000);
            }
            tick(&h, &mut t);
        }
        assert_eq!(h.active_count(), 0, "alert resolved after recovery");
        let alerts = h.alerts();
        assert!(alerts[0].resolved_ns.is_some());
        assert!(alerts[0].resolved_ns.unwrap() > alerts[0].fired_ns);
    }

    #[test]
    fn burn_rate_needs_min_events() {
        let rule = HealthRule::burn_rate("burn", None, 1_000, 1, 2, 4, 50).with_lifecycle(1, 2);
        let (h, _m, ts, tr) = engine_with(vec![rule]);
        // 100% errors but below min_events: never fires.
        for i in 0..8 {
            h.observe_rpc(0, 0, false, 1_000);
            h.on_tick((i + 1) * 10_000, &ts, &tr);
        }
        assert!(h.is_silent(), "insufficient data never breaches");
    }

    #[test]
    fn latency_rule_watches_p99_per_class() {
        let rule =
            HealthRule::latency_p99("slow-scan", Some(2), 1_000_000, 2, 4, 3).with_lifecycle(1, 2);
        let (h, _m, ts, tr) = engine_with(vec![rule]);
        for i in 0..4 {
            for _ in 0..5 {
                h.observe_rpc(0, 2, true, 50_000); // 50 µs scans: fine
                h.observe_rpc(0, 0, true, 9_000_000); // slow GETs: other class
            }
            h.on_tick((i + 1) * 10_000, &ts, &tr);
        }
        assert!(h.is_silent(), "class filter keeps slow GETs out of scope");
        for i in 4..8 {
            for _ in 0..5 {
                h.observe_rpc(0, 2, true, 8_000_000); // 8 ms scans
            }
            h.on_tick((i + 1) * 10_000, &ts, &tr);
        }
        assert_eq!(h.fired_count(), 1);
        assert_eq!(h.alerts()[0].scope, "scan");
    }

    #[test]
    fn tenant_scoped_burn_rate_isolates_tenants() {
        let rule = HealthRule::burn_rate("t1.burn", None, 10_000, 10, 2, 4, 5)
            .for_tenant(1)
            .with_lifecycle(1, 2);
        let (h, _m, ts, tr) = engine_with(vec![rule]);
        // Tenant 0 burns its entire budget; tenant 1 is healthy → silent.
        for i in 0..4u64 {
            for _ in 0..10 {
                h.observe_rpc(0, 0, false, 1_000);
                h.observe_rpc(1, 0, true, 1_000);
            }
            h.on_tick((i + 1) * 10_000, &ts, &tr);
        }
        assert!(h.is_silent(), "tenant filter keeps tenant 0 errors out");
        // Tenant 1 burns → fires with a tenant-scoped label.
        for i in 4..8u64 {
            for _ in 0..10 {
                h.observe_rpc(1, 0, false, 1_000);
            }
            h.on_tick((i + 1) * 10_000, &ts, &tr);
        }
        assert_eq!(h.fired_count(), 1);
        assert_eq!(h.alerts()[0].scope, "t1.all");
        // Per-tenant window queries see only their tenant (ring holds the
        // last 4 ticks: tenant 1 all-error, tenant 0 idle).
        let (_, ok1, err1) = h.window(Some(1), None, 4);
        assert_eq!((ok1, err1), (0, 40));
        let (_, ok0, err0) = h.window(Some(0), None, 4);
        assert_eq!((ok0, err0), (0, 0));
    }

    #[test]
    fn saturation_hysteresis_holds_between_thresholds() {
        let rule = HealthRule::saturation("queue-sat", "mcp.send_queue", 900_000, 400_000)
            .with_lifecycle(2, 2);
        let level = std::rc::Rc::new(Cell::new(0));
        let l2 = level.clone();
        let ts = TimeSeries::new();
        ts.register("n3.mcp.send_queue", 3, Some(100), move |_| l2.get());
        // An unrelated probe with capacity must not create a scope.
        ts.register("n3.nic.sram_used", 3, Some(100), |_| 100);
        let (h, _m, ts, tr) = engine_on(ts, vec![rule]);
        let mut t = 0u64;
        let step = |h: &HealthEngine, lvl: u64, t: &mut u64| {
            level.set(lvl);
            *t += 10_000;
            ts.sample_all(*t);
            h.on_tick(*t, &ts, &tr);
        };
        step(&h, 95, &mut t); // breach 1
        step(&h, 95, &mut t); // breach 2 → fires
        assert_eq!(h.fired_count(), 1);
        assert_eq!(h.alerts()[0].scope, "n3.mcp.send_queue");
        // 60% sits between clear (40%) and fire (90%): holds firing.
        for _ in 0..6 {
            step(&h, 60, &mut t);
        }
        assert_eq!(h.active_count(), 1, "hysteresis band holds the alert");
        step(&h, 10, &mut t);
        step(&h, 10, &mut t);
        assert_eq!(h.active_count(), 0, "below clear threshold resolves");
    }

    #[test]
    fn rate_rule_fires_on_counter_delta_and_resolves_when_it_stops() {
        let rule = HealthRule::rate("drops", "link.down_drops", 3, 2).with_lifecycle(1, 2);
        let (h, m, ts, tr) = engine_with(vec![rule]);
        let c = m.counter("link.down_drops");
        let mut t = 0u64;
        let tick = |h: &HealthEngine, t: &mut u64| {
            *t += 10_000;
            h.on_tick(*t, &ts, &tr);
        };
        tick(&h, &mut t);
        assert!(h.is_silent());
        c.add(5);
        tick(&h, &mut t);
        assert_eq!(h.fired_count(), 1, "delta 5 ≥ threshold 2 fires");
        assert_eq!(h.alerts()[0].scope, "link.down_drops");
        // Counter stops moving: window drains, then clear_ticks resolve.
        for _ in 0..6 {
            tick(&h, &mut t);
        }
        assert_eq!(h.active_count(), 0);
    }

    #[test]
    #[should_panic(
        expected = "saturation rule \"pinned_full\": suffix \"kmod.pinned_bytes\" \
                               matches no probe with a declared capacity"
    )]
    fn saturation_rule_matching_no_capacity_probe_is_refused() {
        // `kmod.pinned_bytes` declares no capacity, so a saturation rule on
        // it could never evaluate; its sibling `kmod.pinned_pages` can.
        let ts = TimeSeries::new();
        ts.register("n0.kmod.pinned_bytes", 0, None, |_| 0);
        ts.register("n0.kmod.pinned_pages", 0, Some(65_536), |_| 0);
        let rule = |suffix| HealthRule::saturation("pinned_full", suffix, 900_000, 500_000);
        let m = Metrics::new();
        HealthEngine::new().install(vec![rule("kmod.pinned_pages")], &m, &ts);
        HealthEngine::new().install(vec![rule("kmod.pinned_bytes")], &m, &ts);
    }

    #[test]
    fn stalls_become_firing_alerts() {
        let (h, m, _ts, tr) = engine_with(vec![]);
        h.note_stalls(
            1_000,
            &[Stall {
                origin: 2,
                msg_id: 9,
                age_ns: 500,
            }],
            &tr,
        );
        let alerts = h.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "watchdog.chain");
        assert_eq!(alerts[0].scope, "origin2.msg9");
        assert_eq!(m.get("health.alerts_fired"), 1);
        assert_eq!(h.active_count(), 1, "stall alerts never resolve");
    }

    #[test]
    fn windows_rotate_and_merge_exactly() {
        let rule = HealthRule::burn_rate("burn", None, 1_000, 1, 2, 4, 1_000_000);
        let (h, _m, ts, tr) = engine_with(vec![rule]);
        // Tick 1: two GETs; tick 2: one PUT; tick 3: empty.
        h.observe_rpc(0, 0, true, 100);
        h.observe_rpc(0, 0, true, 300);
        h.on_tick(10_000, &ts, &tr);
        h.observe_rpc(0, 1, true, 200);
        h.on_tick(20_000, &ts, &tr);
        h.on_tick(30_000, &ts, &tr);
        // Empty window: deterministic zeros, no NaN.
        let (hist, ok, err) = h.window(None, None, 1);
        assert_eq!((hist.count, ok, err), (0, 0, 0));
        assert_eq!(hist.p99(), 0.0);
        // Last 2 ticks: just the PUT — single-sample window is exact.
        let (hist, ok, _) = h.window(None, None, 2);
        assert_eq!((hist.count, ok), (1, 1));
        assert_eq!(hist.p50(), 200.0);
        assert_eq!(hist.p99(), 200.0);
        // Last 3 ticks: all three samples, exact log2-bucket merge.
        let (hist, ok, err) = h.window(None, None, 3);
        assert_eq!((hist.count, ok, err), (3, 3, 0));
        assert_eq!(hist.min, 100);
        assert_eq!(hist.max, 300);
        // Class filter: the GET class window excludes the PUT.
        let (hist, _, _) = h.window(None, Some(0), 3);
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn report_is_deterministic_and_measures_detection() {
        let build = || {
            let rule = HealthRule::rate("drops", "link.down_drops", 2, 1).with_lifecycle(1, 2);
            let (h, m, ts, tr) = engine_with(vec![rule]);
            let c = m.counter("link.down_drops");
            let mut t = 0u64;
            for i in 0..12 {
                if i == 3 {
                    c.add(4); // fault symptom at t = 40 µs
                }
                t += 10_000;
                h.on_tick(t, &ts, &tr);
            }
            h.report(
                "unit",
                "storm",
                0xC4A05,
                &[
                    DetectionSpec {
                        kind: "link_flap".to_string(),
                        injected_ns: 35_000,
                        rules: vec!["drops".to_string()],
                        bound_ns: 50_000,
                    },
                    DetectionSpec {
                        kind: "never_injected".to_string(),
                        injected_ns: 500_000,
                        rules: vec![],
                        bound_ns: 10_000,
                    },
                ],
            )
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.to_json(), r2.to_json(), "byte-identical reports");
        assert_eq!(r1.alerts.len(), 1);
        assert_eq!(r1.unresolved(), 0, "rate alert resolved after drain");
        let d = &r1.detections[0];
        assert_eq!(d.detected_by.as_ref().unwrap().0, "drops");
        assert_eq!(d.fired_ns, Some(40_000));
        assert_eq!(d.detect_ns(), Some(5_000));
        assert!(d.clear_ns().unwrap() > 0);
        assert!(r1.detections[1].fired_ns.is_none(), "bound enforced");
        assert_eq!(r1.undetected().len(), 1);
        let j = r1.to_json();
        assert!(j.contains("\"schema\": \"suca.health.v1\""));
        assert!(j.contains("\"detect_ns\": 5000"));
        // The counts block is derived from the alert rows, never stored.
        assert!(j.contains("\"counts\": {\"fired\": 1, \"resolved\": 1, \"active\": 0}"));
        for key in [
            "harness",
            "variant",
            "seed",
            "ticks",
            "rules",
            "alerts",
            "detections",
            "detect_latency_ns",
            "clear_latency_ns",
        ] {
            assert!(j.contains(&format!("\n  \"{key}\": ")), "missing {key}");
        }
        assert_eq!(crate::validate_json(&j), Ok(()));
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let m = Metrics::new();
        let (h, ts) = (HealthEngine::new(), TimeSeries::new());
        h.install(vec![], &m, &ts);
        h.install(vec![], &m, &ts);
    }

    #[test]
    fn health_instruments_register_only_when_armed() {
        let m = Metrics::new();
        let _h = HealthEngine::new();
        assert!(!m.counter_values().contains_key("health.alerts_fired"));
        let h2 = HealthEngine::new();
        h2.install(vec![], &m, &TimeSeries::new());
        assert!(m.counter_values().contains_key("health.alerts_fired"));
        assert_eq!(m.get("health.evals"), 0);
    }

    #[test]
    fn health_trace_instants_land_on_the_health_track() {
        let rule = HealthRule::rate("drops", "x.drops", 2, 1).with_lifecycle(1, 1);
        let (h, m, ts, tr) = engine_with(vec![rule]);
        h.on_tick(10_000, &ts, &tr); // baseline sample of the counter
        m.counter("x.drops").add(3);
        h.on_tick(20_000, &ts, &tr);
        let evs = tr.events();
        let fire = evs
            .iter()
            .find(|e| e.stage.as_ref().starts_with(stage::HEALTH_FIRING))
            .expect("firing instant recorded");
        assert_eq!(fire.layer, TraceLayer::Health);
        assert_eq!(fire.node, FABRIC_NODE, "cluster scope → fabric track");
        assert!(fire.trace.is_none(), "health instants are unattributable");
        assert!(fire.stage.as_ref().ends_with(":drops"));
    }
}

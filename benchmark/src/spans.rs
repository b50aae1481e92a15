//! Benchmark-side span recorder.
//!
//! The traced rep wraps every call the benchmark makes into a layer
//! (`BclPort::send`, `RpcClient::issue`, `Comm::barrier`, …) in a span
//! stamped on both clocks. Spans stay in memory — one private log per
//! actor, merged once when the actor ends — and are written to
//! `benchmark/out/trace_<workload>.json` after the run. Timed reps carry a
//! disabled log, so the end-to-end numbers pay nothing for it.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use suca_sim::ActorCtx;

/// One recorded interval. A root span is an operation (`id == op`); a
/// child names the root that caused it in `parent`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub node: u32,
    pub v_start_ns: u64,
    pub v_end_ns: u64,
    pub h_start_ns: u64,
    pub h_end_ns: u64,
}

/// Child span ids start here so they never collide with op ids.
const CHILD_ID_BASE: u64 = 1 << 48;

/// Shared sink for every actor's log.
#[derive(Clone)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder; `enabled == false` hands out logs that record nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A private log for one actor on `node`. `actor` must be unique per
    /// log: it keeps child span ids distinct without shared state.
    pub fn log(&self, node: u32, actor: u32) -> SpanLog {
        SpanLog {
            rec: self.clone(),
            node,
            next_id: CHILD_ID_BASE + (u64::from(actor) << 24),
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, ordered by virtual start then id.
    pub fn take(&self) -> Vec<Span> {
        let mut all = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        all.sort_by_key(|s| (s.v_start_ns, s.id));
        all
    }
}

/// One actor's span log.
pub struct SpanLog {
    rec: Recorder,
    node: u32,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Host nanoseconds since the child started (0 when disabled).
    pub fn host_ns(&self) -> u64 {
        if self.rec.enabled {
            self.rec.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Run `f` — one call into a layer on behalf of operation `op` — and
    /// record it as a child span of that operation.
    pub fn call<R>(
        &mut self,
        ctx: &mut ActorCtx,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut ActorCtx) -> R,
    ) -> R {
        self.poll(ctx, name, op, |ctx| Some(f(ctx)))
            .expect("f's result is always kept")
    }

    /// Like [`SpanLog::call`] for a non-blocking poll: an empty poll costs
    /// no virtual time and leaves no span.
    pub fn poll<R>(
        &mut self,
        ctx: &mut ActorCtx,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut ActorCtx) -> Option<R>,
    ) -> Option<R> {
        if !self.rec.enabled {
            return f(ctx);
        }
        let (v0, h0) = (ctx.now().as_ns(), self.host_ns());
        let out = f(ctx)?;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id,
            parent: op,
            op,
            node: self.node,
            v_start_ns: v0,
            v_end_ns: ctx.now().as_ns(),
            h_start_ns: h0,
            h_end_ns: self.host_ns(),
        });
        Some(out)
    }

    /// Forget what was recorded so far (warm-up traffic).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Record the root span of operation `op`, which may have started on
    /// another actor (`start` is that actor's `(virtual, host)` stamp).
    pub fn root(&mut self, ctx: &ActorCtx, name: &'static str, op: u64, start: (u64, u64)) {
        if !self.rec.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            id: op,
            parent: 0,
            op,
            node: self.node,
            v_start_ns: start.0,
            v_end_ns: ctx.now().as_ns(),
            h_start_ns: start.1,
            h_end_ns: self.host_ns(),
        });
    }
}

impl Drop for SpanLog {
    /// Merge into the shared sink when the actor ends.
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        if let Ok(mut sink) = self.rec.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Median virtual duration in microseconds of the spans called `name`.
pub fn median_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.v_end_ns - s.v_start_ns) as f64 / 1e3)
        .collect();
    crate::stats::median(&d)
}

/// Serialize the spans of one traced rep.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    let _ = write!(
        out,
        "{{\"schema\": \"suca.benchmark_spans.v1\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"clocks\": {{\"v\": \"virtual ns\", \"h\": \"host ns since child start\"}}, \
         \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"node\": {}, \
             \"v_start_ns\": {}, \"v_end_ns\": {}, \"h_start_ns\": {}, \"h_end_ns\": {}}}",
            s.name,
            s.id,
            s.parent,
            s.op,
            s.node,
            s.v_start_ns,
            s.v_end_ns,
            s.h_start_ns,
            s.h_end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

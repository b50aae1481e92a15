//! The pipeline driver: plan → group-schedule → execute → output-fetch,
//! with per-stage event monitoring.
//!
//! Each phase records its wall-clock into a `pipeline.stage_ns.*`
//! histogram and drops an instant on the trace's pipeline track, so the
//! mixed harness's telemetry shows where a tenant's time goes stage by
//! stage.

use suca_bcl::{BclError, ProcAddr};
use suca_load::{absorb_completion, LatencyHists, LoadStats};
use suca_rpc::{RpcClient, RpcStatus};
use suca_sim::mtrace::stage;
use suca_sim::{ActorCtx, Histogram, SimDuration, TraceEvent, TraceId, TraceLayer};

use crate::plan::{plan_stage, PipelineSpec, TaskGroup};
use crate::worker::{checksum, enc_exec, enc_fetch, output_for, OP_EXEC, OP_FETCH};

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriverCfg {
    /// Jobs to run back to back.
    pub jobs: u32,
    /// Shape of each job.
    pub spec: PipelineSpec,
    /// Modeled planning time per job (control-plane work).
    pub plan_cost: SimDuration,
    /// Modeled group-scheduling time per stage.
    pub sched_cost: SimDuration,
    /// Gap between jobs.
    pub job_gap: SimDuration,
}

impl Default for DriverCfg {
    fn default() -> Self {
        DriverCfg {
            jobs: 4,
            spec: PipelineSpec::default(),
            plan_cost: SimDuration::from_us(5),
            sched_cost: SimDuration::from_us(2),
            job_gap: SimDuration::from_us(50),
        }
    }
}

/// What the driver observed beyond the RPC tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Jobs that ran every stage and fetched every output.
    pub jobs_done: u64,
    /// EXEC completions verified (checksum matched).
    pub execs_ok: u64,
    /// FETCH completions verified (body matched the output model).
    pub fetches_ok: u64,
    /// Checksum / body mismatches — must be 0 on clean runs.
    pub verify_failures: u64,
}

/// Per-stage duration histograms (`pipeline.stage_ns.{plan,sched,exec,fetch}`).
struct StageHists {
    plan: Histogram,
    sched: Histogram,
    exec: Histogram,
    fetch: Histogram,
}

/// Run `cfg.jobs` pipeline jobs over `workers`. RPC outcomes land in the
/// returned [`LoadStats`] (identity holds); verification results in
/// [`DriverStats`]. Failed verifications also feed the health engine's
/// error windows for this client's tenant.
pub fn run_driver(
    ctx: &mut ActorCtx,
    client: &mut RpcClient,
    workers: &[ProcAddr],
    cfg: &DriverCfg,
    hists: &LatencyHists,
) -> (LoadStats, DriverStats) {
    assert!(!workers.is_empty(), "pipeline driver needs workers");
    let sim = ctx.sim().clone();
    let m = sim.metrics();
    let stage_hists = StageHists {
        plan: m.histogram("pipeline.stage_ns.plan"),
        sched: m.histogram("pipeline.stage_ns.sched"),
        exec: m.histogram("pipeline.stage_ns.exec"),
        fetch: m.histogram("pipeline.stage_ns.fetch"),
    };
    let c_jobs = m.counter("pipeline.jobs_done");
    let node = client.addr().node.0;
    let mut stats = LoadStats::default();
    let mut drv = DriverStats::default();
    for job in 0..cfg.jobs {
        // Plan: compute every stage's groups up front (pure function).
        let t0 = ctx.now();
        ctx.sleep(cfg.plan_cost);
        let plans: Vec<Vec<TaskGroup>> = (0..cfg.spec.stages)
            .map(|s| plan_stage(job, s, cfg.spec.tasks, workers.len()))
            .collect();
        stage_hists.plan.record(ctx.now().since(t0).as_ns());
        instant(ctx, node, stage::PIPE_PLAN);
        let mut job_ok = true;
        for (s, groups) in plans.iter().enumerate() {
            let t0 = ctx.now();
            ctx.sleep(cfg.sched_cost);
            stage_hists.sched.record(ctx.now().since(t0).as_ns());
            instant(ctx, node, stage::PIPE_SCHED);
            let t0 = ctx.now();
            let ok = run_exec_stage(
                ctx, client, workers, job, s as u32, groups, cfg, hists, &mut stats, &mut drv,
            );
            job_ok &= ok;
            stage_hists.exec.record(ctx.now().since(t0).as_ns());
            instant(ctx, node, stage::PIPE_EXEC);
        }
        // Output fetch: collect the last stage's materialized outputs.
        let t0 = ctx.now();
        let last = cfg.spec.stages.saturating_sub(1);
        let groups = plan_stage(job, last, cfg.spec.tasks, workers.len());
        job_ok &= run_fetch_stage(
            ctx, client, workers, job, last, &groups, cfg, hists, &mut stats, &mut drv,
        );
        stage_hists.fetch.record(ctx.now().since(t0).as_ns());
        instant(ctx, node, stage::PIPE_FETCH);
        if job_ok {
            drv.jobs_done += 1;
            c_jobs.inc();
        }
        ctx.sleep(cfg.job_gap);
    }
    client.quiesce(ctx, cfg.job_gap);
    (stats, drv)
}

/// Fan one stage's EXEC requests out to their group workers and pump every
/// one to resolution. Returns true when all tasks completed verified.
#[allow(clippy::too_many_arguments)]
fn run_exec_stage(
    ctx: &mut ActorCtx,
    client: &mut RpcClient,
    workers: &[ProcAddr],
    job: u32,
    s: u32,
    groups: &[TaskGroup],
    cfg: &DriverCfg,
    hists: &LatencyHists,
    stats: &mut LoadStats,
    drv: &mut DriverStats,
) -> bool {
    let input = vec![0x50u8; cfg.spec.input_bytes];
    let mut all_ok = true;
    let mut queue: Vec<(usize, u32)> = groups
        .iter()
        .flat_map(|g| g.tasks.iter().map(|&t| (g.worker, t)))
        .collect();
    queue.reverse(); // pop() issues in ascending task order
    while !queue.is_empty() || client.in_flight() > 0 {
        while client.can_issue() {
            let Some((w, t)) = queue.pop() else {
                break;
            };
            match client.issue(
                ctx,
                workers[w],
                OP_EXEC,
                &enc_exec(job, s, t, &input),
                u64::from(t),
            ) {
                Ok(_) => stats.issued += 1,
                Err(e) => {
                    if matches!(e, BclError::PathDead(_)) {
                        stats.dead_dest += 1;
                    }
                    stats.client_shed += 1;
                    all_ok = false;
                }
            }
        }
        for c in client.pump(ctx, SimDuration::from_us(200)) {
            if c.status == RpcStatus::Ok {
                let want = checksum(&output_for(job, s, c.token as u32, cfg.spec.output_bytes));
                if c.payload.len() == 8
                    && u64::from_le_bytes(c.payload[..8].try_into().unwrap()) == want
                {
                    drv.execs_ok += 1;
                } else {
                    drv.verify_failures += 1;
                    stats.bad_payloads += 1;
                    ctx.sim().metrics().add("pipeline.verify_failures", 1);
                    ctx.sim().health().observe_error(client.tenant().0, OP_EXEC);
                    all_ok = false;
                }
            } else {
                all_ok = false;
            }
            absorb_completion(&c, stats, hists);
        }
    }
    all_ok
}

/// Fetch and verify every last-stage output.
#[allow(clippy::too_many_arguments)]
fn run_fetch_stage(
    ctx: &mut ActorCtx,
    client: &mut RpcClient,
    workers: &[ProcAddr],
    job: u32,
    s: u32,
    groups: &[TaskGroup],
    cfg: &DriverCfg,
    hists: &LatencyHists,
    stats: &mut LoadStats,
    drv: &mut DriverStats,
) -> bool {
    let mut all_ok = true;
    let mut queue: Vec<(usize, u32)> = groups
        .iter()
        .flat_map(|g| g.tasks.iter().map(|&t| (g.worker, t)))
        .collect();
    queue.reverse();
    while !queue.is_empty() || client.in_flight() > 0 {
        while client.can_issue() {
            let Some((w, t)) = queue.pop() else {
                break;
            };
            match client.issue(
                ctx,
                workers[w],
                OP_FETCH,
                &enc_fetch(job, s, t),
                u64::from(t),
            ) {
                Ok(_) => stats.issued += 1,
                Err(e) => {
                    if matches!(e, BclError::PathDead(_)) {
                        stats.dead_dest += 1;
                    }
                    stats.client_shed += 1;
                    all_ok = false;
                }
            }
        }
        for c in client.pump(ctx, SimDuration::from_us(200)) {
            if c.status == RpcStatus::Ok {
                if c.payload == output_for(job, s, c.token as u32, cfg.spec.output_bytes) {
                    drv.fetches_ok += 1;
                } else {
                    drv.verify_failures += 1;
                    stats.bad_payloads += 1;
                    ctx.sim().metrics().add("pipeline.verify_failures", 1);
                    ctx.sim()
                        .health()
                        .observe_error(client.tenant().0, OP_FETCH);
                    all_ok = false;
                }
            } else {
                all_ok = false;
            }
            absorb_completion(&c, stats, hists);
        }
    }
    all_ok
}

/// Unattributable instant on the trace's pipeline stages (the driver's
/// node), mirroring the health-lifecycle pattern.
fn instant(ctx: &ActorCtx, node: u32, stage_name: &'static str) {
    ctx.sim().trace_event(TraceEvent::instant(
        TraceId::NONE,
        node,
        TraceLayer::Rpc,
        stage_name,
        ctx.now().as_ns(),
    ));
}

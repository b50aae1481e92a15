//! Job planning: deterministic task-to-worker group schedules.
//!
//! Pure (no sim, no I/O): a plan is a function of `(job, stage, tasks,
//! workers)` alone, so a fixed seed reproduces placement exactly.

/// Shape of one pipeline job.
#[derive(Clone, Copy, Debug)]
pub struct PipelineSpec {
    /// Stages per job (each stage runs all tasks).
    pub stages: u32,
    /// Tasks per stage.
    pub tasks: u32,
    /// Input bytes per task EXEC request.
    pub input_bytes: usize,
    /// Output bytes each task materializes (fetched after the last stage;
    /// sized above the inline bound so fetches exercise RMA delivery).
    pub output_bytes: usize,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            stages: 3,
            tasks: 16,
            input_bytes: 256,
            output_bytes: 6 * 1024,
        }
    }
}

/// One worker's share of a stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskGroup {
    /// Index into the driver's worker list.
    pub worker: usize,
    /// Task ids assigned to that worker, ascending.
    pub tasks: Vec<u32>,
}

/// Group-schedule one stage: task `t` lands on worker
/// `(t + job + stage) % n_workers`. The rotation spreads consecutive
/// jobs/stages across workers while staying a pure function of its
/// inputs. Groups come back in worker order; every task appears exactly
/// once.
pub fn plan_stage(job: u32, stage: u32, tasks: u32, n_workers: usize) -> Vec<TaskGroup> {
    assert!(n_workers > 0, "plan needs workers");
    let mut groups: Vec<TaskGroup> = (0..n_workers)
        .map(|w| TaskGroup {
            worker: w,
            tasks: Vec::new(),
        })
        .collect();
    for t in 0..tasks {
        let w = ((t as usize) + (job as usize) + (stage as usize)) % n_workers;
        groups[w].tasks.push(t);
    }
    groups.retain(|g| !g.tasks.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_exactly_once() {
        for (job, stage, tasks, workers) in [(0, 0, 16, 5), (3, 2, 7, 3), (9, 1, 1, 8)] {
            let groups = plan_stage(job, stage, tasks, workers);
            let mut seen: Vec<u32> = groups.iter().flat_map(|g| g.tasks.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..tasks).collect::<Vec<_>>());
            for g in &groups {
                assert!(g.worker < workers);
                assert!(g.tasks.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn rotation_shifts_with_job_and_stage() {
        let a = plan_stage(0, 0, 4, 4);
        let b = plan_stage(1, 0, 4, 4);
        let c = plan_stage(0, 1, 4, 4);
        assert_ne!(a, b);
        assert_eq!(b, c); // job and stage rotate identically
        assert_eq!(a, plan_stage(0, 0, 4, 4)); // pure
    }
}

//! Property tests on plan validation: the registration-time validator must
//! be a sound gate for the firmware interpreter. Any plan — however
//! adversarial — is either rejected at registration (missing peer,
//! self-loop, chunk overflow, deadlock cycle, stray message) or executes
//! the exact step semantics to completion, so no schedule can reach the
//! NIC and stall the watchdog.

use proptest::prelude::*;

use suca_coll::{Algorithm, CollKind, Combine, Plan, PlanRegistry, PlanStep, Topology};

/// One generated step: `(recv_from, send_to, adopt, chunk)` with peers
/// drawn from a range wider than `ranks` so missing peers and self-loops
/// occur.
type RawStep = (Vec<u32>, Vec<u32>, bool, u32);

/// Assemble a plan from flat generated data: `raw[rank]` is a list of steps.
fn assemble(ranks: u32, chunks: u32, raw: Vec<Vec<RawStep>>) -> Plan {
    let schedules = raw
        .into_iter()
        .map(|steps| {
            steps
                .into_iter()
                .map(|(recv_from, send_to, adopt, chunk)| PlanStep {
                    recv_from,
                    send_to,
                    combine: if adopt {
                        Combine::Adopt
                    } else {
                        Combine::Reduce
                    },
                    chunk,
                })
                .collect()
        })
        .collect();
    Plan {
        kind: CollKind::Allreduce,
        algorithm: Algorithm::FlatFanIn,
        ranks,
        root: 0,
        chunks,
        schedules,
    }
}

proptest! {
    /// Soundness: an accepted plan runs to completion in the reference
    /// executor (the firmware interpreter's semantics); a rejected plan
    /// never reaches it.
    #[test]
    fn arbitrary_plans_are_rejected_or_run_to_completion(
        ranks in 1u32..7,
        chunks in 1u32..3,
        raw in prop::collection::vec(
            prop::collection::vec(
                (
                    prop::collection::vec(0u32..9, 0..3),
                    prop::collection::vec(0u32..9, 0..3),
                    any::<bool>(),
                    0u32..4,
                ),
                0..4,
            ),
            1..7,
        ),
    ) {
        let declared = ranks.min(raw.len() as u32).max(1);
        let mut raw = raw;
        raw.truncate(declared as usize);
        let plan = assemble(declared, chunks, raw);
        let inputs = vec![1.0f64; plan.schedules.len()];
        match plan.validate() {
            Ok(()) => {
                // Rank-count consistency is part of acceptance…
                prop_assert_eq!(plan.schedules.len(), plan.ranks as usize);
                // …and an accepted plan must execute without wedging.
                let out = plan.execute_f64_reference(&inputs);
                prop_assert!(out.is_some(), "accepted plan wedged: {:?}", plan);
            }
            Err(_) => {
                // Rejection is always a safe outcome; nothing to execute.
            }
        }
    }

    /// Completeness on the generator side: every plan the registry can
    /// select — any kind, rank count, root, fabric — assembled from the
    /// per-rank rows it hands out, validates and computes the right answer
    /// (sum reduction on every rank for allreduce, on the root for reduce,
    /// root replication for bcast).
    #[test]
    fn registry_plans_always_validate_and_compute(
        ranks in 1u32..65,
        root_pick in 0u32..65,
        kind_pick in 0u32..4,
        mesh in any::<bool>(),
    ) {
        let kind = match kind_pick {
            0 => CollKind::Barrier,
            1 => CollKind::Bcast,
            2 => CollKind::Reduce,
            _ => CollKind::Allreduce,
        };
        let topo = if mesh { Topology::Mesh2D } else { Topology::LinearSwitchArray };
        let root = root_pick % ranks;
        // The plan as the ranks of a job see it: one `schedule_for` row each.
        let reg = PlanRegistry::new(topo);
        let rows: Result<Vec<_>, _> = (0..ranks)
            .map(|r| reg.schedule_for(kind, ranks, root, r))
            .collect();
        prop_assert!(rows.is_ok(), "registry rejected its own plan: {:?}", rows.err());
        let plan = Plan {
            kind,
            algorithm: reg.select(kind, ranks),
            ranks,
            root,
            chunks: 1,
            schedules: rows.unwrap(),
        };
        prop_assert_eq!(plan.validate(), Ok(()), "rows do not assemble into a valid plan");

        let inputs: Vec<f64> = (0..ranks).map(|r| (r + 3) as f64).collect();
        let out = plan.execute_f64_reference(&inputs).expect("validated plan wedged");
        let want: f64 = inputs.iter().sum();
        match kind {
            CollKind::Bcast => {
                for (r, v) in out.iter().enumerate() {
                    prop_assert_eq!(*v, inputs[root as usize],
                        "bcast rank {} got {}", r, v);
                }
            }
            CollKind::Reduce => {
                prop_assert_eq!(out[root as usize], want, "reduce root got {}", out[root as usize]);
            }
            CollKind::Allreduce | CollKind::Barrier => {
                for (r, v) in out.iter().enumerate() {
                    prop_assert_eq!(*v, want, "allreduce rank {} got {}", r, v);
                }
            }
        }
    }
}

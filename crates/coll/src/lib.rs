//! Declarative collective execution plans.
//!
//! A collective (barrier / bcast / reduce / allreduce) is described as one
//! *plan*: a per-rank schedule of steps, each step a set of peer receives
//! (combined into the rank's accumulator) followed by peer sends of the
//! accumulator. The NIC firmware interprets the schedule directly — fan-in
//! combining and fan-out forwarding happen entirely NIC-side, so the host
//! pays exactly one initiating trap per participant (the crossing-contract
//! extension asserted by `ChainPolicy::collective()`).
//!
//! Step semantics, shared by the validator here and the firmware
//! interpreter in `suca-bcl`:
//!
//! 1. On *entering* a step the rank sends its current accumulator to every
//!    rank in `send_to` (one message per entry, tagged with the step's
//!    `chunk`).
//! 2. The step *completes* when one message per `recv_from` entry has
//!    arrived on the matching `(peer, chunk)` edge; arrivals are folded into
//!    the accumulator in the listed order ([`Combine::Reduce`]) or replace
//!    it ([`Combine::Adopt`] — the fan-out half of reduce+bcast shapes).
//!
//! Send-at-entry is what makes both halves of a butterfly expressible: a
//! recursive-doubling step `{send_to: [p], recv_from: [p]}` ships the
//! pre-combine value and folds the partner's, while a fan-in tree puts the
//! parent send in its own step so it carries the combined value.
//!
//! Plans are *validated by abstract execution* at registration: the exact
//! step semantics are run over per-edge message queues until fixpoint, so a
//! plan either fails fast ([`PlanError`]) or is guaranteed to run to
//! completion without wedging the firmware watchdog. The same oracle backs
//! the property tests.
//!
//! [`PlanRegistry`] picks the algorithm per (kind, rank count, fabric
//! topology): Myrinet's linear switch array and the nwrc mesh get different
//! plans behind the same API. A launching rank asks it for its
//! own row only ([`PlanRegistry::schedule_for`] → [`rank_schedule`]); the
//! whole plan is built and validated once per distinct shape per process,
//! and only the verdict is kept.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Which collective a plan implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CollKind {
    /// All ranks synchronize; no payload.
    Barrier,
    /// Root's payload is replicated to every rank.
    Bcast,
    /// Elementwise reduction of every rank's payload, result on the root.
    Reduce,
    /// Elementwise reduction of every rank's payload, result on all ranks.
    Allreduce,
}

impl CollKind {
    /// Stable display name (report rows, plan dumps).
    pub fn as_str(&self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Reduce => "reduce",
            CollKind::Allreduce => "allreduce",
        }
    }
}

/// Collective algorithm shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// Star: everyone sends to the root, root answers everyone. Optimal at
    /// tiny rank counts where tree setup costs dominate.
    FlatFanIn,
    /// Binomial tree fan-in and/or fan-out; log₂(n) rounds, works at any
    /// rank count.
    BinomialTree,
    /// Pairwise exchange doubling the stride each round; log₂(n) rounds
    /// with all links busy every round. Non-powers-of-two fold the extra
    /// ranks in/out around a power-of-two core.
    RecursiveDoubling,
}

impl Algorithm {
    /// Stable display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Algorithm::FlatFanIn => "flat",
            Algorithm::BinomialTree => "binomial",
            Algorithm::RecursiveDoubling => "recursive-doubling",
        }
    }
}

/// How a step's arrivals enter the accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Combine {
    /// Fold with the collective's reduction operator (fan-in half).
    Reduce,
    /// Replace the accumulator (fan-out half: the arriving value is the
    /// finished result).
    Adopt,
}

/// One step of one rank's schedule. `send_to` fires on entry with the
/// current accumulator; the step completes when every `recv_from` arrival
/// (matched per `(peer, chunk)` edge, FIFO) has been combined.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanStep {
    /// Peers whose contribution this step waits for, combined in order.
    pub recv_from: Vec<u32>,
    /// Peers the accumulator is sent to on step entry.
    pub send_to: Vec<u32>,
    /// Receive mode for this step's arrivals.
    pub combine: Combine,
    /// Chunk index keying message matching (and the payload byte range in
    /// chunked plans). Must be `< Plan::chunks`.
    pub chunk: u32,
}

impl PlanStep {
    /// A pure receive-and-reduce step.
    pub fn recv_reduce(from: Vec<u32>) -> Self {
        PlanStep {
            recv_from: from,
            send_to: Vec::new(),
            combine: Combine::Reduce,
            chunk: 0,
        }
    }

    /// A pure receive-and-adopt step (fan-out).
    pub fn recv_adopt(from: Vec<u32>) -> Self {
        PlanStep {
            recv_from: from,
            send_to: Vec::new(),
            combine: Combine::Adopt,
            chunk: 0,
        }
    }

    /// A pure send step.
    pub fn send(to: Vec<u32>) -> Self {
        PlanStep {
            recv_from: Vec::new(),
            send_to: to,
            combine: Combine::Reduce,
            chunk: 0,
        }
    }

    /// A butterfly exchange: send to `peer`, then reduce `peer`'s value in.
    pub fn exchange(peer: u32) -> Self {
        PlanStep {
            recv_from: vec![peer],
            send_to: vec![peer],
            combine: Combine::Reduce,
            chunk: 0,
        }
    }
}

/// A complete collective plan: one schedule per rank.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Plan {
    /// Collective this plan implements.
    pub kind: CollKind,
    /// Algorithm shape the schedules encode.
    pub algorithm: Algorithm,
    /// Number of participating ranks; `schedules.len()` must match.
    pub ranks: u32,
    /// Root rank (bcast source / reduction anchor).
    pub root: u32,
    /// Number of payload chunks messages may be keyed by (≥ 1; every
    /// generated plan currently uses 1).
    pub chunks: u32,
    /// `schedules[rank]` is that rank's step list, executed in order.
    pub schedules: Vec<Vec<PlanStep>>,
}

/// Why a plan was rejected at registration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// `schedules.len()` disagrees with `ranks`, or `ranks == 0`.
    RankCountMismatch {
        /// Declared rank count.
        expected: u32,
        /// Schedules actually present.
        got: usize,
    },
    /// A step names a peer outside `0..ranks`.
    MissingPeer {
        /// Rank whose schedule is broken.
        rank: u32,
        /// Step index.
        step: usize,
        /// The out-of-range peer.
        peer: u32,
    },
    /// A step sends to or receives from its own rank.
    SelfLoop {
        /// Offending rank.
        rank: u32,
        /// Step index.
        step: usize,
    },
    /// A step's chunk index is `>= chunks`.
    ChunkOverflow {
        /// Offending rank.
        rank: u32,
        /// Step index.
        step: usize,
        /// The out-of-range chunk.
        chunk: u32,
    },
    /// Abstract execution reached fixpoint with ranks still waiting —
    /// a cycle or a receive nobody sends.
    Deadlock {
        /// Ranks stuck mid-schedule.
        stuck_ranks: usize,
    },
    /// Every rank finished but messages were sent that no step consumes;
    /// the firmware would buffer them forever.
    StrayMessages {
        /// Unconsumed messages at completion.
        count: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::RankCountMismatch { expected, got } => {
                write!(
                    f,
                    "plan declares {expected} ranks but holds {got} schedules"
                )
            }
            PlanError::MissingPeer { rank, step, peer } => {
                write!(f, "rank {rank} step {step} names missing peer {peer}")
            }
            PlanError::SelfLoop { rank, step } => {
                write!(f, "rank {rank} step {step} is a self-loop")
            }
            PlanError::ChunkOverflow { rank, step, chunk } => {
                write!(f, "rank {rank} step {step} chunk {chunk} out of range")
            }
            PlanError::Deadlock { stuck_ranks } => {
                write!(f, "plan deadlocks with {stuck_ranks} ranks stuck")
            }
            PlanError::StrayMessages { count } => {
                write!(f, "plan completes with {count} stray messages")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Build a plan for `kind` with `algorithm` over `ranks` ranks rooted
    /// at `root`: [`rank_schedule`] for every rank. Generated plans always
    /// validate; [`Plan::validate`] still runs on each distinct shape before
    /// a row of it is handed out ([`PlanRegistry::schedule_for`]), and is
    /// the gate for externally supplied or property-generated schedules.
    pub fn build(kind: CollKind, algorithm: Algorithm, ranks: u32, root: u32) -> Plan {
        let n = ranks.max(1);
        let root = root % n;
        Plan {
            kind,
            algorithm,
            ranks: n,
            root,
            chunks: 1,
            schedules: (0..n)
                .map(|rank| rank_schedule(kind, algorithm, n, root, rank))
                .collect(),
        }
    }

    /// Validate by abstract execution of the exact step semantics. `Ok`
    /// guarantees the firmware interpreter runs the plan to completion
    /// (given delivery) without wedging; any structural defect — missing
    /// peer, self-loop, chunk overflow, deadlock cycle, stray message — is
    /// rejected here, before a descriptor can reach the NIC.
    pub fn validate(&self) -> Result<(), PlanError> {
        let n = self.ranks;
        if n == 0 || self.schedules.len() != n as usize {
            return Err(PlanError::RankCountMismatch {
                expected: n,
                got: self.schedules.len(),
            });
        }
        for (rank, steps) in self.schedules.iter().enumerate() {
            for (si, step) in steps.iter().enumerate() {
                if step.chunk >= self.chunks.max(1) {
                    return Err(PlanError::ChunkOverflow {
                        rank: rank as u32,
                        step: si,
                        chunk: step.chunk,
                    });
                }
                for &p in step.recv_from.iter().chain(step.send_to.iter()) {
                    if p >= n {
                        return Err(PlanError::MissingPeer {
                            rank: rank as u32,
                            step: si,
                            peer: p,
                        });
                    }
                    if p == rank as u32 {
                        return Err(PlanError::SelfLoop {
                            rank: rank as u32,
                            step: si,
                        });
                    }
                }
            }
        }

        // Abstract execution: per-edge message counts, step pointers, and a
        // sent-on-entry flag per rank. A blocked rank can only be unblocked
        // by an arrival, so ranks are revisited from a worklist fed by sends
        // rather than re-swept until nothing moves; the fixpoint is the same.
        let mut edges: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut cursor = vec![0usize; n as usize];
        let mut entered = vec![false; n as usize];
        let mut queued = vec![true; n as usize];
        let mut worklist: VecDeque<u32> = (0..n).collect();
        while let Some(rank) = worklist.pop_front() {
            let r = rank as usize;
            queued[r] = false;
            while let Some(step) = self.schedules[r].get(cursor[r]) {
                if !entered[r] {
                    for &d in &step.send_to {
                        *edges.entry((rank, d, step.chunk)).or_default() += 1;
                        if !queued[d as usize] {
                            queued[d as usize] = true;
                            worklist.push_back(d);
                        }
                    }
                    entered[r] = true;
                }
                // One arrival per recv_from entry; duplicates in the list
                // need that many queued messages. Take them one by one and
                // put them back if the step turns out not to be ready.
                let mut taken = 0;
                for &p in &step.recv_from {
                    match edges.get_mut(&(p, rank, step.chunk)) {
                        Some(c) if *c > 0 => *c -= 1,
                        _ => break,
                    }
                    taken += 1;
                }
                if taken < step.recv_from.len() {
                    for &p in &step.recv_from[..taken] {
                        *edges.entry((p, rank, step.chunk)).or_default() += 1;
                    }
                    break;
                }
                cursor[r] += 1;
                entered[r] = false;
            }
        }

        let stuck = (0..n as usize)
            .filter(|&r| cursor[r] < self.schedules[r].len())
            .count();
        if stuck > 0 {
            return Err(PlanError::Deadlock { stuck_ranks: stuck });
        }
        let stray: u32 = edges.values().sum();
        if stray > 0 {
            return Err(PlanError::StrayMessages {
                count: stray as usize,
            });
        }
        Ok(())
    }

    /// Reference executor: run the step semantics over real `f64` values
    /// (sum reduction) and return each rank's final accumulator, or `None`
    /// if the plan wedges. This is the oracle the property tests hold the
    /// validator to: `validate() == Ok` must imply execution completes.
    pub fn execute_f64_reference(&self, inputs: &[f64]) -> Option<Vec<f64>> {
        let n = self.ranks as usize;
        if inputs.len() != n || self.schedules.len() != n {
            return None;
        }
        let mut acc: Vec<f64> = inputs.to_vec();
        let mut inbox: HashMap<(u32, u32, u32), std::collections::VecDeque<f64>> = HashMap::new();
        let mut cursor = vec![0usize; n];
        let mut entered = vec![false; n];
        loop {
            let mut progress = false;
            for r in 0..n {
                while let Some(step) = self.schedules[r].get(cursor[r]) {
                    if !entered[r] {
                        for &d in &step.send_to {
                            inbox
                                .entry((r as u32, d, step.chunk))
                                .or_default()
                                .push_back(acc[r]);
                        }
                        entered[r] = true;
                        progress = true;
                    }
                    let mut need: HashMap<(u32, u32, u32), usize> = HashMap::new();
                    for &p in &step.recv_from {
                        *need.entry((p, r as u32, step.chunk)).or_default() += 1;
                    }
                    let ready = need
                        .iter()
                        .all(|(edge, k)| inbox.get(edge).map_or(0, |q| q.len()) >= *k);
                    if !ready {
                        break;
                    }
                    for &p in &step.recv_from {
                        let v = inbox.get_mut(&(p, r as u32, step.chunk))?.pop_front()?;
                        match step.combine {
                            Combine::Reduce => acc[r] += v,
                            Combine::Adopt => acc[r] = v,
                        }
                    }
                    cursor[r] += 1;
                    entered[r] = false;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if (0..n).all(|r| cursor[r] >= self.schedules[r].len()) {
            Some(acc)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Algorithm shapes, in root-relative rank space (root = 0).
// ---------------------------------------------------------------------------

/// One rank's schedule of the `(kind, algorithm, ranks, root)` plan — row
/// `rank` of [`Plan::build`], which is defined as this function over every
/// rank, so a whole plan and a single row cannot diverge. Costs what that
/// rank's steps cost (O(log n) for the tree and butterfly shapes).
///
/// Every algorithm is a fan-in half and a fan-out half: reduce is the
/// fan-in alone, bcast the fan-out alone, and allreduce and barrier the
/// fan-in followed by the fan-out — except under recursive doubling, whose
/// butterfly combines and distributes in the same rounds. Recursive
/// doubling has no single-root shape, so its halves are the binomial tree's.
///
/// # Panics
/// If `rank` is not a rank of the plan.
pub fn rank_schedule(
    kind: CollKind,
    algorithm: Algorithm,
    ranks: u32,
    root: u32,
    rank: u32,
) -> Vec<PlanStep> {
    let n = ranks.max(1);
    let root = root % n;
    assert!(rank < n, "rank {rank} outside a {n}-rank plan");
    // Shapes are generated in root-relative rank space and the peers mapped
    // back, so one shape serves every root.
    let rel = (rank + n - root) % n;
    type Half = fn(u32, u32) -> Vec<PlanStep>;
    let (fan_in, fan_out): (Half, Half) = match algorithm {
        Algorithm::FlatFanIn => (flat_reduce, flat_bcast),
        _ => (binomial_reduce, binomial_bcast),
    };
    let mut steps = match (kind, algorithm) {
        (CollKind::Reduce, _) => fan_in(rel, n),
        (CollKind::Bcast, _) => fan_out(rel, n),
        (_, Algorithm::RecursiveDoubling) => recursive_doubling(rel, n),
        _ => [fan_in(rel, n), fan_out(rel, n)].concat(),
    };
    for s in &mut steps {
        for p in s.recv_from.iter_mut().chain(s.send_to.iter_mut()) {
            *p = (*p + root) % n;
        }
    }
    steps
}

/// Star fan-in: the root reduces every other rank's value in rank order.
fn flat_reduce(r: u32, n: u32) -> Vec<PlanStep> {
    if n == 1 {
        return Vec::new();
    }
    if r == 0 {
        vec![PlanStep::recv_reduce((1..n).collect())]
    } else {
        vec![PlanStep::send(vec![0])]
    }
}

fn flat_bcast(r: u32, n: u32) -> Vec<PlanStep> {
    if n == 1 {
        return Vec::new();
    }
    if r == 0 {
        vec![PlanStep::send((1..n).collect())]
    } else {
        vec![PlanStep::recv_adopt(vec![0])]
    }
}

/// Binomial fan-in: receive children smallest-bit first, then send to the
/// parent at the rank's lowest set bit.
fn binomial_reduce(r: u32, n: u32) -> Vec<PlanStep> {
    let mut steps = Vec::new();
    let mut mask = 1u32;
    while mask < n {
        if r & mask != 0 {
            steps.push(PlanStep::send(vec![r - mask]));
            break;
        }
        if r + mask < n {
            steps.push(PlanStep::recv_reduce(vec![r + mask]));
        }
        mask <<= 1;
    }
    steps
}

/// Binomial fan-out: receive from the parent, then send to children in
/// decreasing-bit order (the mirror of [`binomial_reduce`]).
fn binomial_bcast(r: u32, n: u32) -> Vec<PlanStep> {
    let mut steps = Vec::new();
    let mut mask = 1u32;
    while mask < n {
        if r & mask != 0 {
            steps.push(PlanStep::recv_adopt(vec![r - mask]));
            break;
        }
        mask <<= 1;
    }
    let mut m = mask >> 1;
    while m > 0 {
        if r & m == 0 && r + m < n {
            steps.push(PlanStep::send(vec![r + m]));
        }
        m >>= 1;
    }
    steps
}

/// Pairwise-exchange butterfly over the largest power-of-two core; the
/// `n − core` extra ranks fold their value into a core partner first and
/// adopt the result from it afterwards.
fn recursive_doubling(r: u32, n: u32) -> Vec<PlanStep> {
    if n == 1 {
        return Vec::new();
    }
    let core = if n.is_power_of_two() {
        n
    } else {
        (n + 1).next_power_of_two() >> 1
    };
    let extra = n - core;
    let mut steps = Vec::new();

    // Extra ranks (the tail above the core) pair with the first `extra`
    // core ranks: fold in, sit out the butterfly, adopt the result.
    if r >= core {
        let partner = r - core;
        steps.push(PlanStep::send(vec![partner]));
        steps.push(PlanStep::recv_adopt(vec![partner]));
        return steps;
    }
    if r < extra {
        steps.push(PlanStep::recv_reduce(vec![r + core]));
    }
    let mut mask = 1u32;
    while mask < core {
        steps.push(PlanStep::exchange(r ^ mask));
        mask <<= 1;
    }
    if r < extra {
        steps.push(PlanStep::send(vec![r + core]));
    }
    steps
}

// ---------------------------------------------------------------------------
// Topology-aware registry.
// ---------------------------------------------------------------------------

/// Fabric shape the registry selects for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Topology {
    /// Myrinet's linear array of crossbar switches: rank-order neighbors
    /// are cheap, long strides cross many switch hops.
    LinearSwitchArray,
    /// The nwrc 2-D wormhole mesh: bisection grows with the side, strided
    /// pairwise exchange keeps every dimension busy.
    Mesh2D,
}

impl Topology {
    /// Map a fabric's `name()` to its topology (unknown names get the
    /// conservative linear model).
    pub fn from_fabric_name(name: &str) -> Topology {
        match name {
            "nwrc-mesh" => Topology::Mesh2D,
            _ => Topology::LinearSwitchArray,
        }
    }
}

/// Rank count at or below which the flat star beats any tree.
pub const FLAT_MAX_RANKS: u32 = 4;

/// Selects the algorithm per (kind, ranks) for one fabric topology
/// and hands out validated per-rank schedules. Selection is a pure
/// function, so every node of a cluster derives the identical plan without
/// coordination.
#[derive(Clone, Copy, Debug)]
pub struct PlanRegistry {
    topology: Topology,
}

impl PlanRegistry {
    /// Registry for an explicit topology.
    pub fn new(topology: Topology) -> Self {
        PlanRegistry { topology }
    }

    /// Registry for a fabric by its `name()`.
    pub fn for_fabric(name: &str) -> Self {
        Self::new(Topology::from_fabric_name(name))
    }

    /// The topology this registry selects for.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Pick the algorithm for a collective of `ranks` ranks. The payload
    /// size keys nothing: no shape here wins on one side of a size
    /// threshold and loses on the other.
    pub fn select(&self, kind: CollKind, ranks: u32) -> Algorithm {
        if ranks <= FLAT_MAX_RANKS {
            return Algorithm::FlatFanIn;
        }
        match (self.topology, kind) {
            // Mesh: pairwise exchange exploits the bisection. Bcast and
            // reduce have one root and no doubling shape.
            (Topology::Mesh2D, CollKind::Barrier | CollKind::Allreduce) => {
                Algorithm::RecursiveDoubling
            }
            _ => Algorithm::BinomialTree,
        }
    }

    /// Select the algorithm, make sure the plan it names has been validated,
    /// and return `rank`'s row of it. Generated plans are valid by
    /// construction; validation still runs — once per distinct
    /// `(kind, algorithm, ranks, root)`, see `VerdictMemo` — so no
    /// schedule, however it was produced, reaches the firmware unchecked.
    /// Every rank of a job gets the same verdict, so a rejection is uniform.
    pub fn schedule_for(
        &self,
        kind: CollKind,
        ranks: u32,
        root: u32,
        rank: u32,
    ) -> Result<Vec<PlanStep>, PlanError> {
        static VERDICTS: OnceLock<VerdictMemo> = OnceLock::new();
        let algorithm = self.select(kind, ranks);
        let n = ranks.max(1);
        let root = root % n;
        VERDICTS
            .get_or_init(VerdictMemo::default)
            .check((kind, algorithm, n, root), || {
                Plan::build(kind, algorithm, n, root)
            })?;
        Ok(rank_schedule(kind, algorithm, n, root, rank))
    }
}

/// What names a generated plan: `(kind, algorithm, ranks, root)`, root
/// already reduced modulo `ranks`. Generation is a pure function of it.
type ShapeKey = (CollKind, Algorithm, u32, u32);

/// Validate-once memo: the validator's verdict per [`ShapeKey`].
///
/// Every rank of every collective call needs its plan checked, and the
/// check costs O(n log n) where the rank's own row costs O(log n). The
/// verdict is a pure function of the key, so the first caller builds the
/// whole plan, validates it and stores the verdict; the plan is dropped.
/// Storing verdicts rather than plans keeps an entry at a few bytes (a bcast
/// over every root of 1,024 ranks is 1,024 verdicts, not 1,024 one-megabyte
/// plans), so there is nothing to evict, reset or tune.
#[derive(Default)]
struct VerdictMemo {
    verdicts: Mutex<HashMap<ShapeKey, Result<(), PlanError>>>,
}

impl VerdictMemo {
    /// The verdict on `key`; `build` runs only on the first sight of it.
    /// The lock is held across build and validation, so concurrent first
    /// callers of one key validate it once and the rest wait for the result.
    fn check(&self, key: ShapeKey, build: impl FnOnce() -> Plan) -> Result<(), PlanError> {
        self.verdicts
            .lock()
            .expect("verdict memo poisoned: a plan build or validation panicked")
            .entry(key)
            .or_insert_with(|| build().validate())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Execute a validated plan; panics on wedge.
    fn execute_f64(plan: &Plan, inputs: &[f64]) -> Vec<f64> {
        plan.execute_f64_reference(inputs)
            .expect("validated plan wedged in reference executor")
    }

    const ALGOS: [Algorithm; 3] = [
        Algorithm::FlatFanIn,
        Algorithm::BinomialTree,
        Algorithm::RecursiveDoubling,
    ];

    const KINDS: [CollKind; 4] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
    ];

    #[test]
    fn generated_plans_validate_at_many_shapes() {
        for algo in ALGOS {
            for kind in KINDS {
                for n in [1u32, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64] {
                    for root in [0, n - 1, n / 2] {
                        let plan = Plan::build(kind, algo, n, root);
                        plan.validate()
                            .unwrap_or_else(|e| panic!("{algo:?}/{kind:?} n={n} root={root}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_sums_on_every_rank_every_algorithm() {
        for algo in ALGOS {
            for n in [2u32, 3, 5, 8, 13, 16] {
                for root in [0, n - 1] {
                    let plan = Plan::build(CollKind::Allreduce, algo, n, root);
                    let inputs: Vec<f64> = (0..n).map(|r| (r + 1) as f64).collect();
                    let want: f64 = inputs.iter().sum();
                    let out = execute_f64(&plan, &inputs);
                    for (r, v) in out.iter().enumerate() {
                        assert_eq!(
                            *v, want,
                            "{algo:?} n={n} root={root} rank {r}: {v} != {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_sums_on_the_root_every_algorithm() {
        for algo in ALGOS {
            for n in [2u32, 3, 5, 8, 13, 16] {
                for root in [0, n - 1] {
                    let plan = Plan::build(CollKind::Reduce, algo, n, root);
                    let inputs: Vec<f64> = (0..n).map(|r| (r + 1) as f64).collect();
                    let want: f64 = inputs.iter().sum();
                    let out = execute_f64(&plan, &inputs);
                    assert_eq!(out[root as usize], want, "{algo:?} n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_replicates_root_every_algorithm() {
        for algo in ALGOS {
            for n in [2u32, 3, 6, 8, 11, 16] {
                for root in [0, 2 % n, n - 1] {
                    let plan = Plan::build(CollKind::Bcast, algo, n, root);
                    let mut inputs = vec![0.0; n as usize];
                    inputs[root as usize] = 42.5;
                    let out = execute_f64(&plan, &inputs);
                    assert!(
                        out.iter().all(|v| *v == 42.5),
                        "{algo:?} n={n} root={root}: {out:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_plans_are_empty() {
        for algo in ALGOS {
            let plan = Plan::build(CollKind::Allreduce, algo, 1, 0);
            assert!(plan.schedules.iter().all(|s| s.is_empty()));
            plan.validate().unwrap();
        }
    }

    #[test]
    fn validator_rejects_missing_peer_and_self_loop() {
        let mut plan = Plan::build(CollKind::Barrier, Algorithm::FlatFanIn, 4, 0);
        plan.schedules[1][0].send_to = vec![9];
        assert_eq!(
            plan.validate(),
            Err(PlanError::MissingPeer {
                rank: 1,
                step: 0,
                peer: 9
            })
        );
        plan.schedules[1][0].send_to = vec![1];
        assert_eq!(
            plan.validate(),
            Err(PlanError::SelfLoop { rank: 1, step: 0 })
        );
    }

    #[test]
    fn validator_rejects_deadlock_cycle() {
        // 0 waits on 1 before sending, 1 waits on 0 before sending.
        let plan = Plan {
            kind: CollKind::Barrier,
            algorithm: Algorithm::FlatFanIn,
            ranks: 2,
            root: 0,
            chunks: 1,
            schedules: vec![
                vec![PlanStep::recv_reduce(vec![1]), PlanStep::send(vec![1])],
                vec![PlanStep::recv_reduce(vec![0]), PlanStep::send(vec![0])],
            ],
        };
        assert_eq!(plan.validate(), Err(PlanError::Deadlock { stuck_ranks: 2 }));
    }

    #[test]
    fn validator_rejects_stray_message_and_chunk_overflow() {
        let plan = Plan {
            kind: CollKind::Barrier,
            algorithm: Algorithm::FlatFanIn,
            ranks: 2,
            root: 0,
            chunks: 1,
            schedules: vec![vec![PlanStep::send(vec![1])], vec![]],
        };
        assert_eq!(plan.validate(), Err(PlanError::StrayMessages { count: 1 }));

        let mut plan = Plan::build(CollKind::Barrier, Algorithm::BinomialTree, 4, 0);
        plan.schedules[2][0].chunk = 3;
        assert_eq!(
            plan.validate(),
            Err(PlanError::ChunkOverflow {
                rank: 2,
                step: 0,
                chunk: 3
            })
        );
    }

    #[test]
    fn validator_rejects_rank_count_mismatch() {
        let mut plan = Plan::build(CollKind::Barrier, Algorithm::FlatFanIn, 4, 0);
        plan.schedules.pop();
        assert!(matches!(
            plan.validate(),
            Err(PlanError::RankCountMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn butterfly_exchange_needs_send_at_entry() {
        // The canonical shape send-at-entry exists for: both butterfly
        // partners ship their pre-combine value in the same step. A
        // receive-then-send reading of the same step would deadlock.
        let plan = Plan::build(CollKind::Allreduce, Algorithm::RecursiveDoubling, 8, 0);
        assert!(plan.schedules[0]
            .iter()
            .any(|s| !s.send_to.is_empty() && !s.recv_from.is_empty()));
        plan.validate().unwrap();
    }

    #[test]
    fn registry_differs_across_topologies_behind_one_api() {
        let myri = PlanRegistry::for_fabric("myrinet");
        let mesh = PlanRegistry::for_fabric("nwrc-mesh");
        assert_eq!(myri.topology(), Topology::LinearSwitchArray);
        assert_eq!(mesh.topology(), Topology::Mesh2D);
        // Same call, different algorithm per fabric.
        assert_eq!(myri.select(CollKind::Barrier, 256), Algorithm::BinomialTree);
        assert_eq!(
            mesh.select(CollKind::Barrier, 256),
            Algorithm::RecursiveDoubling
        );
        assert_eq!(
            myri.select(CollKind::Allreduce, 256),
            Algorithm::BinomialTree
        );
        // Single-root kinds are trees on both.
        for reg in [myri, mesh] {
            for kind in [CollKind::Bcast, CollKind::Reduce] {
                assert_eq!(reg.select(kind, 5), Algorithm::BinomialTree);
            }
        }
        // Tiny rank counts collapse to the star everywhere.
        assert_eq!(myri.select(CollKind::Allreduce, 3), Algorithm::FlatFanIn);
        assert_eq!(mesh.select(CollKind::Reduce, 4), Algorithm::FlatFanIn);
        assert_eq!(mesh.select(CollKind::Bcast, 2), Algorithm::FlatFanIn);
        // Unknown fabric names get the conservative linear model.
        assert_eq!(
            PlanRegistry::for_fabric("mystery").topology(),
            Topology::LinearSwitchArray
        );
    }

    #[test]
    fn registry_rows_are_the_selected_plans_rows_and_respect_root() {
        for fabric in ["myrinet", "nwrc-mesh"] {
            let reg = PlanRegistry::for_fabric(fabric);
            for kind in KINDS {
                for n in [2u32, 5, 16, 64] {
                    let root = n - 1;
                    let plan = Plan::build(kind, reg.select(kind, n), n, root);
                    for r in 0..n {
                        // A root at or past `ranks` wraps, as in `Plan::build`.
                        for asked_root in [root, root + n] {
                            assert_eq!(
                                reg.schedule_for(kind, n, asked_root, r).unwrap(),
                                plan.schedules[r as usize],
                                "{fabric} {kind:?} n={n} rank {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rank_schedule_is_the_plans_row_for_every_shape_and_root() {
        for algo in ALGOS {
            for kind in KINDS {
                for n in 1u32..=70 {
                    for root in 0..n {
                        let plan = Plan::build(kind, algo, n, root);
                        for r in 0..n {
                            assert_eq!(
                                rank_schedule(kind, algo, n, root, r),
                                plan.schedules[r as usize],
                                "{algo:?}/{kind:?} n={n} root={root} rank {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_row_is_the_allreduce_rows_fan_in_prefix() {
        for algo in [Algorithm::FlatFanIn, Algorithm::BinomialTree] {
            for n in 1u32..=40 {
                for root in [0, n / 2, n - 1] {
                    for r in 0..n {
                        let fan_in = rank_schedule(CollKind::Reduce, algo, n, root, r);
                        let fan_out = rank_schedule(CollKind::Bcast, algo, n, root, r);
                        let all = rank_schedule(CollKind::Allreduce, algo, n, root, r);
                        let what = format!("{algo:?} n={n} root={root} rank {r}");
                        assert_eq!(all[..fan_in.len()], fan_in[..], "{what}");
                        assert_eq!(all[fan_in.len()..], fan_out[..], "{what}");
                    }
                }
            }
        }
    }

    /// A chain allreduce 0→1→…→n−1 and back, built by hand: the longest
    /// dependency path a plan of `n` ranks can have. `algorithm` is only a
    /// label; the validator reads the schedules.
    fn chain_allreduce(n: u32) -> Plan {
        let schedules = (0..n)
            .map(|r| {
                let mut steps = Vec::new();
                if r > 0 {
                    steps.push(PlanStep::recv_reduce(vec![r - 1]));
                }
                if r + 1 < n {
                    steps.push(PlanStep::send(vec![r + 1]));
                    steps.push(PlanStep::recv_adopt(vec![r + 1]));
                }
                if r > 0 {
                    steps.push(PlanStep::send(vec![r - 1]));
                }
                steps
            })
            .collect();
        Plan {
            kind: CollKind::Allreduce,
            algorithm: Algorithm::FlatFanIn,
            ranks: n,
            root: 0,
            chunks: 1,
            schedules,
        }
    }

    #[test]
    fn validator_is_linear_on_a_chain() {
        // A chain advances one rank per sweep, so sweeping until nothing
        // moves is quadratic: 10 s here even in a release build. Driven from
        // the worklist it takes ~6 ms (release) / ~60 ms (debug).
        let plan = chain_allreduce(16_384);
        let t0 = std::time::Instant::now();
        plan.validate().unwrap();
        let took = t0.elapsed();
        assert!(
            took.as_secs() < 2,
            "validating a 16,384-rank chain took {took:?}"
        );
    }

    const KEY: ShapeKey = (CollKind::Barrier, Algorithm::BinomialTree, 8, 0);

    fn build((kind, algorithm, ranks, root): ShapeKey) -> Plan {
        Plan::build(kind, algorithm, ranks, root)
    }

    #[test]
    fn memo_builds_and_validates_a_key_once_under_concurrent_callers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let memo = VerdictMemo::default();
        let builds = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    let verdict = memo.check(KEY, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        build(KEY)
                    });
                    assert_eq!(verdict, Ok(()));
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(memo.verdicts.lock().unwrap().len(), 1);
    }

    #[test]
    fn memo_hands_a_stored_rejection_to_every_later_caller() {
        let memo = VerdictMemo::default();
        let broken = || {
            let mut plan = build(KEY);
            plan.schedules[0].clear();
            plan
        };
        let first = memo.check(KEY, broken);
        assert!(
            matches!(first, Err(PlanError::Deadlock { .. })),
            "{first:?}"
        );
        // Later callers get the stored verdict; their builder never runs,
        // so even a valid plan under the same key stays rejected.
        for _ in 0..3 {
            let again = memo.check(KEY, || unreachable!("verdict already stored"));
            assert_eq!(again, first);
        }
    }

    #[test]
    fn memo_keeps_one_verdict_per_root_and_no_plan() {
        let memo = VerdictMemo::default();
        let mut builds = 0;
        for sweep in 0..2 {
            for root in 0..256 {
                let key = (CollKind::Bcast, Algorithm::BinomialTree, 256, root);
                let verdict = memo.check(key, || {
                    builds += 1;
                    build(key)
                });
                assert_eq!(verdict, Ok(()), "sweep {sweep} root {root}");
            }
        }
        assert_eq!(builds, 256, "the second sweep must not rebuild");
        // What is retained is the verdict map alone, and its value type
        // cannot hold a plan.
        let verdicts: &Mutex<HashMap<ShapeKey, Result<(), PlanError>>> = &memo.verdicts;
        assert_eq!(verdicts.lock().unwrap().len(), 256);
    }
}

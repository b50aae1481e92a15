//! End-to-end fleet-mode trace sampling: the sampled population must be
//! the hash-predicted subset, byte-identical across reruns for a fixed
//! seed, every admitted chain must stay complete, and
//! the flight-recorder path (`TraceId::NONE`) must keep recording.

use std::collections::BTreeSet;

use suca_bench::ring;
use suca_cluster::ClusterSpec;
use suca_sim::mtrace::{check_completeness_sampled, to_chrome_json, ChainPolicy, SampleSpec};
use suca_sim::{TraceEvent, TraceId};

const SEED: u64 = 0x5A11;
const NODES: u32 = 8;
const MSGS: u32 = 8;
const PAYLOAD: usize = 64;
const RATE_PPM: u32 = 250_000; // 25%

/// Run an 8-node neighbor ring with every node sending `MSGS` messages
/// right, and return the buffered trace events.
fn run_ring(sample_ppm: Option<u32>) -> Vec<TraceEvent> {
    let mut spec = ClusterSpec::dawning3000(NODES).with_seed(SEED);
    if let Some(ppm) = sample_ppm {
        spec = spec.with_trace_sampling(ppm);
    }
    let (cluster, _build, _wall) = ring::run(spec, MSGS, PAYLOAD);
    cluster.trace_events()
}

fn chain_ids(events: &[TraceEvent]) -> BTreeSet<TraceId> {
    events
        .iter()
        .map(|e| e.trace)
        .filter(|t| *t != TraceId::NONE)
        .collect()
}

#[test]
fn sampled_population_is_the_hash_predicted_subset() {
    let full = run_ring(None);
    let sampled = run_ring(Some(RATE_PPM));
    let spec = SampleSpec::ratio_ppm(RATE_PPM).with_seed(SEED);

    let all_chains = chain_ids(&full);
    let kept_chains = chain_ids(&sampled);
    assert!(!kept_chains.is_empty(), "sampler admitted nothing");
    assert!(
        kept_chains.len() < all_chains.len(),
        "sampler at 25% kept all {} chains",
        all_chains.len()
    );
    // Exactly the chains the hash admits, nothing more, nothing less —
    // sampling is a pure function of (TraceId, spec), not of buffer luck.
    let predicted: BTreeSet<TraceId> = all_chains
        .iter()
        .copied()
        .filter(|t| spec.admits(*t))
        .collect();
    assert_eq!(kept_chains, predicted);
    // Chains are dropped whole: every surviving event of an admitted chain
    // in the full run also survives in the sampled run.
    let kept_events = sampled.len();
    let expected_events = full
        .iter()
        .filter(|e| e.trace == TraceId::NONE || spec.admits(e.trace))
        .count();
    assert_eq!(kept_events, expected_events);
}

#[test]
fn sampled_chains_stay_complete() {
    let sampled = run_ring(Some(RATE_PPM));
    let spec = SampleSpec::ratio_ppm(RATE_PPM).with_seed(SEED);
    let report = check_completeness_sampled(&sampled, &ChainPolicy::bcl(), spec);
    assert!(
        report.violations.is_empty(),
        "sampled completeness violations:\n{}",
        report.violations.join("\n")
    );
    assert!(!report.chains.is_empty(), "no chains checked");
}

#[test]
fn sampled_trace_is_deterministic_across_reruns() {
    let a = to_chrome_json(&run_ring(Some(RATE_PPM)));
    let b = to_chrome_json(&run_ring(Some(RATE_PPM)));
    assert_eq!(a, b, "sampled trace not reproducible at fixed seed");
}

#[test]
fn flight_recorder_survives_sampling() {
    // Even at rate 0 (admit nothing), TraceId::NONE events keep recording —
    // the flight recorder stays armed in fleet mode.
    let sampled = run_ring(Some(0));
    assert!(
        chain_ids(&sampled).is_empty(),
        "rate 0 admitted a traced chain"
    );
    let full = run_ring(None);
    let none_full = full.iter().filter(|e| e.trace == TraceId::NONE).count();
    let none_sampled = sampled.iter().filter(|e| e.trace == TraceId::NONE).count();
    assert_eq!(
        none_sampled, none_full,
        "sampling perturbed untraced events"
    );
}

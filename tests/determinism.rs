//! Reproducibility guarantees: everything in the workspace is
//! deterministic given its seeds — generators, scenarios, samplers and
//! training.

use wsd::prelude::*;
use wsd::stream::dataset;

fn events() -> EventStream {
    let edges = GeneratorConfig::ForestFire { vertices: 600, forward_prob: 0.4 }.generate(2);
    Scenario::default_light().apply(&edges, 2)
}

#[test]
fn counters_are_deterministic_given_seed() {
    let stream = events();
    for alg in [
        Algorithm::WsdL,
        Algorithm::WsdH,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ] {
        let run = |seed: u64| {
            let mut s = SessionBuilder::new(alg, 150, seed).query(Pattern::Triangle).build();
            s.process_batch(&stream);
            s.report().queries[0].estimate
        };
        assert_eq!(run(7), run(7), "{:?} must be deterministic", alg);
        // Different sampling seeds should (overwhelmingly) differ for
        // budget-constrained runs.
        assert_ne!(run(7), run(8), "{:?} ignored its seed", alg);
    }
}

#[test]
fn dataset_identity_is_stable_across_calls() {
    for pair in dataset::registry() {
        assert_eq!(pair.test.edges_scaled(0.05), pair.test.edges_scaled(0.05));
    }
}

#[test]
fn training_is_deterministic_given_seed() {
    let edges = GeneratorConfig::HolmeKim { vertices: 150, edges_per_vertex: 4, triad_prob: 0.5 }
        .generate(3);
    let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, 60);
    cfg.iterations = 25;
    cfg.batch_size = 16;
    cfg.num_streams = 2;
    let a = train(&edges, Scenario::default_light(), &cfg);
    let b = train(&edges, Scenario::default_light(), &cfg);
    assert_eq!(a.policy, b.policy);
}

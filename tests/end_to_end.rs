//! End-to-end pipeline tests through the umbrella `wsd` crate: dataset
//! registry → scenario → every algorithm → sane estimates.

use wsd::prelude::*;
use wsd::stream::dataset;

/// Runs a session counting `pattern` alone over `events`; returns the
/// final estimate and the stored-edge count.
fn run(
    alg: Algorithm,
    pattern: Pattern,
    capacity: usize,
    seed: u64,
    events: &EventStream,
) -> (f64, usize) {
    let mut session = SessionBuilder::new(alg, capacity, seed).query(pattern).build();
    session.process_batch(events);
    (session.report().queries[0].estimate, session.stored_edges())
}

fn small_workload(scenario: Scenario) -> (EventStream, f64) {
    let spec = dataset::by_name("cit-HE").expect("registry dataset");
    let edges = spec.edges_scaled(0.25);
    let events = scenario.apply(&edges, 3);
    let truth = TruthTimeline::compute(Pattern::Triangle, &events).final_count() as f64;
    (events, truth)
}

#[test]
fn every_algorithm_tracks_the_truth_under_light_deletion() {
    let (events, truth) = small_workload(Scenario::default_light());
    assert!(truth > 100.0, "workload too small: {truth}");
    let budget = events.len() / 10;
    for alg in [
        Algorithm::WsdL,
        Algorithm::WsdH,
        Algorithm::WsdUniform,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ] {
        // Mean over a few seeds keeps this robust without being slow.
        let reps = 8;
        let mean: f64 =
            (0..reps).map(|s| run(alg, Pattern::Triangle, budget, 100 + s, &events).0).sum::<f64>()
                / reps as f64;
        let are = (mean - truth).abs() / truth;
        assert!(
            are < 0.60,
            "{:?}: mean estimate {mean:.0} vs truth {truth:.0} (ARE {:.2})",
            alg,
            are
        );
    }
}

#[test]
fn every_algorithm_survives_massive_deletion() {
    let (events, _) = small_workload(Scenario::Massive { alpha: 3e-4, beta_m: 0.8 });
    let budget = events.len() / 10;
    for alg in Algorithm::paper_table_set() {
        let (estimate, stored) = run(alg, Pattern::Triangle, budget, 5, &events);
        assert!(estimate.is_finite(), "{:?} produced a non-finite estimate", alg);
        assert!(stored <= budget + 1, "{:?} exceeded its budget", alg);
    }
}

#[test]
fn patterns_other_than_triangles_work_end_to_end() {
    let (events, _) = small_workload(Scenario::default_light());
    for pattern in [Pattern::Wedge, Pattern::FourClique, Pattern::Clique(5)] {
        let truth = TruthTimeline::compute(pattern, &events).final_count() as f64;
        let (estimate, _) = run(Algorithm::WsdH, pattern, events.len() / 5, 9, &events);
        assert!(estimate.is_finite(), "{}", pattern.name());
        // Accuracy is only a fair ask where the count is large relative
        // to the pattern's sampling variance (a 5-clique instance needs
        // 9 sampled partners — single-run relative error on a count of a
        // few hundred is legitimately large).
        let variance_is_tame = truth > 1_000.0 && pattern.num_edges() <= 6;
        if variance_is_tame {
            let are = (estimate - truth).abs() / truth;
            assert!(are < 1.5, "{}: ARE {are:.2} vs truth {truth}", pattern.name());
        }
    }
}

#[test]
fn estimates_return_to_zero_when_everything_is_deleted() {
    // Insert a full stream, then delete every edge: the exact count is 0
    // and with capacity ≥ stream every algorithm is exact throughout.
    let spec = dataset::by_name("web-SF").expect("registry dataset");
    let edges = spec.edges_scaled(0.1);
    let mut events: EventStream = edges.iter().copied().map(EdgeEvent::insert).collect();
    events.extend(edges.iter().copied().map(EdgeEvent::delete));
    for alg in [
        Algorithm::WsdL,
        Algorithm::WsdH,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ] {
        let (estimate, _) = run(alg, Pattern::Triangle, events.len() + 10, 4, &events);
        assert!(
            estimate.abs() < 1e-6,
            "{:?}: expected 0 after deleting everything, got {estimate}",
            alg
        );
    }
}

#[test]
fn registry_streams_are_feasible_for_all_scenarios() {
    for pair in dataset::registry() {
        let edges = pair.train.edges_scaled(0.1);
        for scenario in [
            Scenario::InsertOnly,
            Scenario::default_light(),
            Scenario::default_massive(edges.len()),
        ] {
            let events = scenario.apply(&edges, 1);
            // ExactCounter::apply errors on infeasible events.
            let mut exact = ExactCounter::new(Pattern::Wedge);
            for ev in events {
                exact.apply(ev).expect("registry streams must be feasible");
            }
        }
    }
}

//! Statistical verification of the estimators' unbiasedness claims:
//! Theorem 4 (WSD), Theorem 2 (GPS-A), Theorem 1 (GPS), and the uniform
//! baselines' update-on-arrival estimators.
//!
//! Each test runs an algorithm with many independent seeds over a fixed
//! fully dynamic stream and checks that the mean final estimate lands
//! within a few standard errors of the exact count. These are the tests
//! that would catch a wrong inclusion probability or a broken τ update.

use wsd_core::{Algorithm, SessionBuilder};
use wsd_graph::Pattern;
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::{EventStream, Scenario, TruthTimeline};

fn stream(scenario: Scenario) -> EventStream {
    let edges = GeneratorConfig::HolmeKim { vertices: 150, edges_per_vertex: 5, triad_prob: 0.5 }
        .generate(42);
    scenario.apply(&edges, 7)
}

/// Runs `alg` over `stream` with `reps` seeds; returns (mean, std-error).
fn mean_estimate(
    alg: Algorithm,
    pattern: Pattern,
    capacity: usize,
    stream: &EventStream,
    reps: u64,
) -> (f64, f64) {
    let estimates: Vec<f64> = (0..reps)
        .map(|seed| {
            let mut s = SessionBuilder::new(alg, capacity, 1000 + seed).query(pattern).build();
            s.process_batch(stream);
            s.report().queries[0].estimate
        })
        .collect();
    let mean = estimates.iter().sum::<f64>() / reps as f64;
    let var = estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (reps - 1) as f64;
    (mean, (var / reps as f64).sqrt())
}

fn assert_unbiased(alg: Algorithm, pattern: Pattern, scenario: Scenario) {
    let mut s = stream(scenario);
    // Evaluate at the latest prefix where the exact count is still
    // substantial: under massive deletion the *final* count can be ~0 (a
    // burst may land near the end), which would make relative comparison
    // meaningless. Taking the last well-conditioned point keeps (almost)
    // the whole stream — including its deletion bursts — in play.
    let timeline = TruthTimeline::compute(pattern, &s);
    let peak = *timeline.series().iter().max().unwrap() as f64;
    let eval_at = timeline
        .series()
        .iter()
        .rposition(|&c| c as f64 >= (0.25 * peak).max(10.0))
        .expect("workload produces a non-trivial count somewhere");
    s.truncate(eval_at + 1);
    let truth = timeline.at(eval_at) as f64;
    assert!(truth > 10.0, "degenerate workload: truth {truth}");
    // M ≈ 18% of peak edges: small enough to exercise eviction paths.
    let capacity = 120;
    let reps = 300;
    let (mean, se) = mean_estimate(alg, pattern, capacity, &s, reps);
    let tol = (4.0 * se).max(0.05 * truth);
    assert!(
        (mean - truth).abs() < tol,
        "{:?}/{:?}/{}: mean {mean:.1} vs truth {truth:.1} (se {se:.2}, tol {tol:.1})",
        alg,
        pattern,
        scenario.name(),
    );
}

#[test]
fn wsd_h_unbiased_triangles_light() {
    assert_unbiased(Algorithm::WsdH, Pattern::Triangle, Scenario::default_light());
}

#[test]
fn wsd_h_unbiased_triangles_massive() {
    assert_unbiased(
        Algorithm::WsdH,
        Pattern::Triangle,
        Scenario::Massive { alpha: 4.0 / 750.0, beta_m: 0.6 },
    );
}

#[test]
fn wsd_uniform_unbiased_triangles_light() {
    assert_unbiased(Algorithm::WsdUniform, Pattern::Triangle, Scenario::default_light());
}

#[test]
fn wsd_h_unbiased_wedges_light() {
    assert_unbiased(Algorithm::WsdH, Pattern::Wedge, Scenario::default_light());
}

#[test]
fn wsd_h_unbiased_four_cliques_light() {
    assert_unbiased(Algorithm::WsdH, Pattern::FourClique, Scenario::default_light());
}

#[test]
fn gps_a_unbiased_triangles_light() {
    assert_unbiased(Algorithm::GpsA, Pattern::Triangle, Scenario::default_light());
}

#[test]
fn gps_a_unbiased_triangles_massive() {
    assert_unbiased(
        Algorithm::GpsA,
        Pattern::Triangle,
        Scenario::Massive { alpha: 4.0 / 750.0, beta_m: 0.6 },
    );
}

#[test]
fn gps_unbiased_triangles_insert_only() {
    assert_unbiased(Algorithm::Gps, Pattern::Triangle, Scenario::InsertOnly);
}

#[test]
fn thinkd_unbiased_triangles_light() {
    assert_unbiased(Algorithm::ThinkD, Pattern::Triangle, Scenario::default_light());
}

#[test]
fn thinkd_unbiased_wedges_massive() {
    assert_unbiased(
        Algorithm::ThinkD,
        Pattern::Wedge,
        Scenario::Massive { alpha: 4.0 / 750.0, beta_m: 0.6 },
    );
}

#[test]
fn wrs_unbiased_triangles_light() {
    assert_unbiased(Algorithm::Wrs, Pattern::Triangle, Scenario::default_light());
}

/// Triest's query-time rescaling is known to carry a small bias on
/// dynamic streams (the κ(t) observed at query time differs from the
/// κ at accumulation time); the WSD paper still reports it as roughly
/// accurate. We assert a looser 15% band.
#[test]
fn triest_approximately_unbiased_triangles_light() {
    let s = stream(Scenario::default_light());
    let truth = TruthTimeline::compute(Pattern::Triangle, &s).final_count() as f64;
    let (mean, _) = mean_estimate(Algorithm::Triest, Pattern::Triangle, 120, &s, 300);
    assert!((mean - truth).abs() < 0.15 * truth, "Triest mean {mean:.1} vs truth {truth:.1}");
}

/// Lemma 1 / Eq. (10): with equal weights, any two live edges must have
/// equal inclusion probabilities — the property GPS loses on dynamic
/// streams (Example 1) and WSD restores.
#[test]
fn wsd_equal_weights_equal_inclusion_probabilities() {
    use wsd_core::algorithms::WsdSampler;
    use wsd_core::{EdgeSampler, QueryCtx, TemporalPooling, UniformWeight};
    use wsd_graph::patterns::EnumScratch;
    use wsd_graph::{Edge, EdgeEvent};

    // Adversarial mini-stream shaped like the paper's Example 1: fill a
    // tiny reservoir, delete, then insert one more edge. Track inclusion
    // frequencies of the survivors.
    let m = 4usize;
    let edges: Vec<Edge> = (0..8u64).map(|i| Edge::new(100 * i, 100 * i + 1)).collect();
    let mut events: Vec<EdgeEvent> = edges[..6].iter().map(|&e| EdgeEvent::insert(e)).collect();
    events.push(EdgeEvent::delete(edges[2]));
    events.push(EdgeEvent::insert(edges[6]));
    events.push(EdgeEvent::insert(edges[7]));
    let survivors: Vec<Edge> = edges.iter().copied().filter(|&e| e != edges[2]).collect();

    let reps = 60_000u64;
    let mut freq = vec![0u64; survivors.len()];
    let mut scratch = EnumScratch::default();
    for seed in 0..reps {
        // No query attached: inclusion depends on the sampler alone.
        let mut c = WsdSampler::new(
            Pattern::Triangle,
            m,
            Box::new(UniformWeight),
            TemporalPooling::Max,
            seed,
        );
        for &ev in &events {
            c.process(ev, QueryCtx::new(&mut [], &mut scratch));
        }
        for (i, &e) in survivors.iter().enumerate() {
            if c.sampled(e) {
                freq[i] += 1;
            }
        }
    }
    let mean = freq.iter().sum::<u64>() as f64 / freq.len() as f64;
    for (i, &f) in freq.iter().enumerate() {
        let dev = (f as f64 - mean).abs() / mean;
        assert!(
            dev < 0.03,
            "edge {i} inclusion frequency {f} deviates {dev:.3} from mean {mean:.0}: \
             equal weights must give equal probabilities (Lemma 1)"
        );
    }
}

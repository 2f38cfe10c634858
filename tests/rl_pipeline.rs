//! The WSD-L lifecycle through the public API: train → persist → reload
//! → deploy, and the headline sanity check that learned weights do not
//! underperform the heuristic on the training distribution.

use wsd::prelude::*;

/// Final triangle estimate of a single-query session over `events`.
fn final_triangles(builder: SessionBuilder, events: &EventStream) -> f64 {
    let mut session = builder.query(Pattern::Triangle).build();
    session.process_all(events);
    session.report().queries[0].estimate
}

fn category_graph(vertices: u64, seed: u64) -> Vec<Edge> {
    GeneratorConfig::HolmeKim { vertices, edges_per_vertex: 6, triad_prob: 0.6 }.generate(seed)
}

#[test]
fn policy_roundtrips_through_disk_and_counter() {
    let edges = category_graph(300, 1);
    let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, edges.len() / 10);
    cfg.iterations = 50;
    cfg.batch_size = 32;
    cfg.num_streams = 2;
    let report = train(&edges, Scenario::default_light(), &cfg);
    let dir = std::env::temp_dir().join(format!("wsd-int-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = PolicyArtifact {
        meta: PolicyMeta {
            pattern: Pattern::Triangle,
            scenario: "hk-light".into(),
            capacity: cfg.capacity as u64,
            train_seed: cfg.seed,
            iterations: cfg.iterations as u64,
        },
        policy: report.policy.clone(),
    };
    let path = dir.join(artifact.file_name());
    artifact.save(&path).unwrap();
    let loaded = PolicyArtifact::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, artifact);
    // Both policies drive identical sessions.
    let events = Scenario::default_light().apply(&category_graph(800, 2), 3);
    let run = |p: LinearPolicy| {
        final_triangles(SessionBuilder::new(Algorithm::WsdL, 200, 11).with_policy(p), &events)
    };
    assert_eq!(run(report.policy), run(loaded.policy));
}

/// The reproduction's headline: a trained policy should not be *worse*
/// than the heuristic on streams from its training distribution. (The
/// paper claims strict improvement; over a modest number of seeds we
/// assert a robust non-inferiority bound to keep CI stable, and the
/// experiment binaries demonstrate the strict improvement.)
#[test]
fn learned_policy_is_not_worse_than_heuristic() {
    let train_edges = category_graph(1_200, 10);
    let scenario = Scenario::default_light();
    let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, train_edges.len() / 20);
    cfg.iterations = 800;
    let report = train(&train_edges, scenario, &cfg);

    let test_edges = category_graph(4_000, 20);
    let events = scenario.apply(&test_edges, 21);
    let truth = TruthTimeline::compute(Pattern::Triangle, &events).final_count() as f64;
    assert!(truth > 1_000.0);
    let budget = test_edges.len() / 20;
    let reps = 20u64;
    let mean_are = |alg: Algorithm, policy: Option<&LinearPolicy>| {
        (0..reps)
            .map(|s| {
                let mut builder = SessionBuilder::new(alg, budget, 500 + s);
                if let Some(p) = policy {
                    builder = builder.with_policy(p.clone());
                }
                (final_triangles(builder, &events) - truth).abs() / truth
            })
            .sum::<f64>()
            / reps as f64
    };
    let l = mean_are(Algorithm::WsdL, Some(&report.policy));
    let h = mean_are(Algorithm::WsdH, None);
    assert!(l <= h * 1.15, "WSD-L (ARE {:.3}) should not be worse than WSD-H (ARE {:.3})", l, h);
}

#[test]
fn pooling_ablation_variants_both_work() {
    let edges = category_graph(400, 30);
    let events = Scenario::default_light().apply(&edges, 31);
    for pooling in [TemporalPooling::Max, TemporalPooling::Avg] {
        let builder = SessionBuilder::new(Algorithm::WsdL, 150, 1).with_pooling(pooling);
        assert!(final_triangles(builder, &events).is_finite());
    }
}

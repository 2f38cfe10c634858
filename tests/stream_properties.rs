//! Property-based integration tests over the whole pipeline: arbitrary
//! feasible streams through the public API must keep every algorithm's
//! invariants intact.

use proptest::prelude::*;
use wsd::prelude::*;

/// Builds a feasible stream from an arbitrary op-intent sequence.
fn feasible_stream(intents: Vec<(u8, u8, bool)>) -> EventStream {
    let mut present = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (a, b, del) in intents {
        let Some(e) = Edge::try_new(a as u64, b as u64) else { continue };
        if present.contains(&e) {
            if del {
                present.remove(&e);
                out.push(EdgeEvent::delete(e));
            }
        } else if !del {
            present.insert(e);
            out.push(EdgeEvent::insert(e));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budgets hold, estimates stay finite, and deleted edges never
    /// linger in live structures, on arbitrary feasible dynamic streams.
    #[test]
    fn algorithms_keep_invariants_on_arbitrary_streams(
        intents in proptest::collection::vec((0u8..24, 0u8..24, any::<bool>()), 0..400),
        budget in 6usize..40,
    ) {
        let stream = feasible_stream(intents);
        for alg in [
            Algorithm::WsdH,
            Algorithm::WsdUniform,
            Algorithm::GpsA,
            Algorithm::Triest,
            Algorithm::ThinkD,
            Algorithm::Wrs,
        ] {
            let mut s = SessionBuilder::new(alg, budget, 3).query(Pattern::Triangle).build();
            let (q, _) = s.queries().next().unwrap();
            for &ev in &stream {
                s.process(ev);
                prop_assert!(s.estimate(q).is_finite(), "{:?} estimate diverged", alg);
                prop_assert!(
                    s.stored_edges() <= budget,
                    "{:?} exceeded budget: {} > {budget}",
                    alg,
                    s.stored_edges()
                );
            }
        }
    }

    /// With an unbounded budget every algorithm is *exact* on any
    /// feasible stream — the strongest cross-algorithm oracle we have.
    #[test]
    fn all_algorithms_exact_with_unbounded_budget(
        intents in proptest::collection::vec((0u8..16, 0u8..16, any::<bool>()), 0..250),
    ) {
        let stream = feasible_stream(intents);
        let truth = ExactCounter::count_stream(Pattern::Triangle, stream.iter().copied())
            .expect("feasible by construction") as f64;
        for alg in [
            Algorithm::WsdL,
            Algorithm::WsdH,
            Algorithm::GpsA,
            Algorithm::Triest,
            Algorithm::ThinkD,
            Algorithm::Wrs,
        ] {
            let mut s = SessionBuilder::new(alg, 1_000, 5).query(Pattern::Triangle).build();
            s.process_all(&stream);
            let estimate = s.report().queries[0].estimate;
            prop_assert!(
                (estimate - truth).abs() < 1e-6,
                "{:?}: {} vs exact {truth}",
                alg,
                estimate
            );
        }
    }

    /// Scenario builders always produce feasible streams whose induced
    /// graph matches the edge set they were built from (minus deletions).
    #[test]
    fn scenarios_always_feasible(seed in 0u64..500, beta in 0.0f64..0.9) {
        let edges = GeneratorConfig::ErdosRenyi { vertices: 60, edges: 150 }.generate(seed);
        for scenario in [
            Scenario::Light { beta_l: beta },
            Scenario::Massive { alpha: 0.02, beta_m: beta },
        ] {
            let stream = scenario.apply(&edges, seed);
            let mut exact = ExactCounter::new(Pattern::Wedge);
            for ev in stream {
                prop_assert!(exact.apply(ev).is_ok());
            }
        }
    }
}

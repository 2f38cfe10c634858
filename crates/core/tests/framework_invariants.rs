//! Framework-level invariants of the weighted samplers, on top of the
//! per-module unit tests: threshold monotonicity, reservoir/sample
//! coherence, and the documented GPS-A budget-waste behaviour.
//!
//! The samplers are driven directly through [`EdgeSampler::process`] so
//! the white-box accessors (thresholds, sampled edges, ghost counts)
//! can be read between events.

use proptest::prelude::*;
use wsd_core::algorithms::{GpsASampler, WsdSampler};
use wsd_core::{
    EdgeSampler, HeuristicWeight, PatternQuery, QueryCtx, TemporalPooling, UniformWeight,
};
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Pattern};

fn feasible_stream(intents: Vec<(u8, u8, bool)>) -> Vec<EdgeEvent> {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// τq never exceeds τp's historical maximum... more precisely: both
    /// thresholds are non-negative, τq ≤ τp whenever τp has been set, and
    /// Case 3 (deletions) never moves either threshold.
    #[test]
    fn wsd_threshold_invariants(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 0..300),
        capacity in 4usize..24,
    ) {
        let stream = feasible_stream(intents);
        let mut c =
            WsdSampler::new(Pattern::Triangle, capacity, Box::new(UniformWeight), TemporalPooling::Max, 9);
        let mut queries = vec![PatternQuery::new(Pattern::Triangle)];
        let mut scratch = EnumScratch::default();
        for &ev in &stream {
            let before = c.thresholds();
            c.process(ev, QueryCtx::new(&mut queries, &mut scratch));
            let (tau_p, tau_q) = c.thresholds();
            prop_assert!(tau_p >= 0.0 && tau_q >= 0.0);
            if tau_p > 0.0 {
                prop_assert!(tau_q <= tau_p, "τq {tau_q} exceeded τp {tau_p}");
            }
            if !ev.is_insert() {
                prop_assert_eq!(c.thresholds(), before, "Case 3 must not move thresholds");
            }
            prop_assert!(c.stored_edges() <= capacity);
        }
    }

    /// GPS-A's stored budget is monotone non-decreasing over time (tags
    /// never free slots) and live + tagged always equals stored.
    #[test]
    fn gps_a_budget_accounting(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 0..300),
        capacity in 4usize..24,
    ) {
        let stream = feasible_stream(intents);
        let mut c = GpsASampler::new(Pattern::Triangle, capacity, Box::new(HeuristicWeight), 9);
        let mut queries = vec![PatternQuery::new(Pattern::Triangle)];
        let mut scratch = EnumScratch::default();
        let mut max_stored = 0usize;
        for &ev in &stream {
            c.process(ev, QueryCtx::new(&mut queries, &mut scratch));
            let stored = c.stored_edges();
            prop_assert!(stored <= capacity);
            prop_assert!(stored >= max_stored || stored == capacity,
                "stored can only grow until capacity: {stored} after {max_stored}");
            max_stored = max_stored.max(stored);
            prop_assert_eq!(c.live_edges() + c.tagged_edges(), stored);
        }
    }

    /// A WSD reservoir never contains an edge that is currently deleted
    /// from the graph.
    #[test]
    fn wsd_never_samples_deleted_edges(
        intents in proptest::collection::vec((0u8..14, 0u8..14, any::<bool>()), 0..250),
    ) {
        let stream = feasible_stream(intents);
        let mut c =
            WsdSampler::new(Pattern::Triangle, 8, Box::new(UniformWeight), TemporalPooling::Max, 3);
        let mut queries = vec![PatternQuery::new(Pattern::Triangle)];
        let mut scratch = EnumScratch::default();
        let mut live = std::collections::BTreeSet::new();
        for &ev in &stream {
            if ev.is_insert() {
                live.insert(ev.edge);
            } else {
                live.remove(&ev.edge);
            }
            c.process(ev, QueryCtx::new(&mut queries, &mut scratch));
            if !ev.is_insert() {
                prop_assert!(!c.sampled(ev.edge), "deleted edge still sampled");
            }
        }
        // Spot-check: everything sampled is live.
        for a in 0..14u64 {
            for b in (a + 1)..14 {
                let e = Edge::new(a, b);
                if c.sampled(e) {
                    prop_assert!(live.contains(&e), "sampled edge {e:?} is not live");
                }
            }
        }
    }
}

/// The minimum legal budget (M = |H|) works end to end.
#[test]
fn minimum_budget_is_usable() {
    let mut c =
        WsdSampler::new(Pattern::Triangle, 3, Box::new(HeuristicWeight), TemporalPooling::Max, 1);
    let mut queries = vec![PatternQuery::new(Pattern::Triangle)];
    let mut scratch = EnumScratch::default();
    for a in 0..20u64 {
        for b in (a + 1)..20 {
            c.process(
                EdgeEvent::insert(Edge::new(a, b)),
                QueryCtx::new(&mut queries, &mut scratch),
            );
        }
    }
    assert!(c.query_estimate(&queries[0]).is_finite());
    assert_eq!(c.stored_edges(), 3);
}

//! Engine-layer equivalence guarantees.
//!
//! `process_batch` is an *optimisation*, not a semantic variant: for
//! every algorithm, ingesting a stream through arbitrary batch
//! partitions must leave the session in exactly the state the
//! event-by-event path produces — bit-identical estimates (compared via
//! `f64::to_bits`), identical sample sizes, and an identical RNG stream
//! (checked implicitly: any divergence in consumed variates desyncs all
//! subsequent sampling decisions and shows up in the estimate).
//!
//! The ensemble determinism property is checked here too: with fixed
//! seeds, the merged ensemble estimate is a pure function of the inputs,
//! independent of worker thread count.

use proptest::prelude::*;
use wsd_core::engine::Ensemble;
use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern};

/// The fully dynamic algorithms of the paper's comparison set, plus the
/// uniform-WSD control.
const DYNAMIC_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::WsdL,
    Algorithm::WsdH,
    Algorithm::WsdUniform,
    Algorithm::GpsA,
    Algorithm::Triest,
    Algorithm::ThinkD,
];

/// Turns raw intents into a *feasible* dynamic stream: deletions only
/// ever target live edges (the contract every sampler assumes).
fn feasible_stream(intents: &[(u8, u8, bool)]) -> Vec<EdgeEvent> {
    let mut live = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(intents.len());
    for &(a, b, want_delete) in intents {
        let Some(e) = Edge::try_new(u64::from(a), u64::from(b)) else {
            continue;
        };
        if live.contains(&e) {
            if want_delete {
                live.remove(&e);
                out.push(EdgeEvent::delete(e));
            }
        } else if !want_delete {
            live.insert(e);
            out.push(EdgeEvent::insert(e));
        }
    }
    out
}

/// Splits `stream` into batches whose sizes cycle through `cuts`.
fn partitions<'a>(stream: &'a [EdgeEvent], cuts: &[usize]) -> Vec<&'a [EdgeEvent]> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut c = 0;
    while i < stream.len() {
        let take = if cuts.is_empty() { stream.len() } else { cuts[c % cuts.len()] };
        let end = (i + take.max(1)).min(stream.len());
        out.push(&stream[i..end]);
        i = end;
        c += 1;
    }
    out
}

/// Runs `alg` sequentially and batched over the same stream and asserts
/// bit-identical observable state at every batch boundary.
fn assert_equivalent(
    alg: Algorithm,
    pattern: Pattern,
    capacity: usize,
    seed: u64,
    stream: &[EdgeEvent],
    cuts: &[usize],
) -> Result<(), TestCaseError> {
    let build = || SessionBuilder::new(alg, capacity, seed).query(pattern).build();
    let mut sequential = build();
    let mut batched = build();
    let estimate = |s: &StreamSession| s.report().queries[0].estimate;
    for batch in partitions(stream, cuts) {
        for &ev in batch {
            sequential.process(ev);
        }
        batched.process_batch(batch);
        prop_assert_eq!(
            estimate(&sequential).to_bits(),
            estimate(&batched).to_bits(),
            "{} estimate diverged (seq {} vs batch {})",
            alg.name(),
            estimate(&sequential),
            estimate(&batched)
        );
        prop_assert_eq!(
            sequential.stored_edges(),
            batched.stored_edges(),
            "{} sample size diverged",
            alg.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched processing is bit-identical to sequential processing for
    /// every fully dynamic algorithm, across patterns, arbitrary batch
    /// partitions, and budgets small enough to exercise every
    /// admission/eviction/random-pairing regime.
    #[test]
    fn prop_batch_equals_sequential_dynamic(
        intents in proptest::collection::vec((0u8..24, 0u8..24, any::<bool>()), 0..300),
        cuts in proptest::collection::vec(1usize..48, 0..12),
        seed in 0u64..1_000,
        capacity in 8usize..32,
    ) {
        let stream = feasible_stream(&intents);
        for alg in DYNAMIC_ALGORITHMS {
            assert_equivalent(alg, Pattern::Triangle, capacity, seed, &stream, &cuts)?;
        }
        // WRS splits the budget internally; give it room for both sides.
        assert_equivalent(Algorithm::Wrs, Pattern::Triangle, capacity + 8, seed, &stream, &cuts)?;
    }

    /// Same property for the wedge pattern (different enumeration path).
    #[test]
    fn prop_batch_equals_sequential_wedges(
        intents in proptest::collection::vec((0u8..16, 0u8..16, any::<bool>()), 0..200),
        cuts in proptest::collection::vec(1usize..32, 0..8),
        seed in 0u64..500,
    ) {
        let stream = feasible_stream(&intents);
        for alg in [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs] {
            assert_equivalent(alg, Pattern::Wedge, 16, seed, &stream, &cuts)?;
        }
    }

    /// GPS (insertion-only) matches on insertion-only streams, where its
    /// batched path pre-draws the whole batch.
    #[test]
    fn prop_batch_equals_sequential_gps(
        intents in proptest::collection::vec((0u8..24, 0u8..24), 0..200),
        cuts in proptest::collection::vec(1usize..48, 0..12),
        seed in 0u64..500,
    ) {
        let insert_only: Vec<(u8, u8, bool)> =
            intents.into_iter().map(|(a, b)| (a, b, false)).collect();
        let stream = feasible_stream(&insert_only);
        assert_equivalent(Algorithm::Gps, Pattern::Triangle, 12, seed, &stream, &cuts)?;
    }
}

#[test]
fn gps_batched_panics_on_deletion_like_sequential() {
    let batch = [EdgeEvent::insert(Edge::new(1, 2)), EdgeEvent::delete(Edge::new(1, 2))];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SessionBuilder::new(Algorithm::Gps, 8, 1)
            .query(Pattern::Triangle)
            .build()
            .process_batch(&batch);
    }));
    assert!(result.is_err(), "deletion inside a GPS batch must still panic");
}

/// Fixed seeds ⇒ one merged estimate, no matter how the replicas are
/// scheduled (thread count).
#[test]
fn ensemble_merge_is_schedule_invariant() {
    let mut stream = Vec::new();
    for a in 0..30u64 {
        for b in (a + 1)..30 {
            if (a * 7 + b * 13) % 3 != 0 {
                stream.push(EdgeEvent::insert(Edge::new(a, b)));
            }
        }
    }
    for a in 0..10u64 {
        stream.push(EdgeEvent::delete(Edge::new(a, a + 2)));
    }
    for alg in [
        Algorithm::WsdL,
        Algorithm::WsdH,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ] {
        let build = |seed| SessionBuilder::new(alg, 64, seed).query(Pattern::Triangle).build();
        let reference =
            Ensemble::new(8).with_threads(1).with_base_seed(7).run_sessions(&stream, build);
        let reference = &reference.queries[0].1;
        for threads in [2, 3, 8] {
            let report = Ensemble::new(8)
                .with_threads(threads)
                .with_base_seed(7)
                .run_sessions(&stream, build);
            let report = &report.queries[0].1;
            assert_eq!(
                reference.estimates,
                report.estimates,
                "{} replica estimates changed at {threads} threads",
                alg.name()
            );
            assert_eq!(reference.mean.to_bits(), report.mean.to_bits());
        }
    }
}

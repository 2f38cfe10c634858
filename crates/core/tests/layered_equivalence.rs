//! Layered-enumeration equivalence guarantees.
//!
//! Every session runs one layered enumeration pass per event over the
//! union of its queries' levels (plus, for the weighted samplers, the
//! weight pattern's level) instead of one pass per query. These tests
//! pin the contract that makes that safe: the layered pass emits at
//! every level in exactly the per-pattern kernel order, so **each
//! query's estimate is bit-for-bit the estimate of a standalone
//! single-query session** with the same algorithm, capacity, seed and
//! weight pattern.
//!
//! 1. Multi-query session ≡ standalone sessions, per event, for every
//!    algorithm × query mix (nested ladder mixes and larger cliques) ×
//!    churn stream; GPS on the insertion prefix.
//! 2. The same for a weight level no query uses.
//! 3. `attach_many` ≡ the same attaches performed one at a time
//!    (the shared warm-up replay is bit-identical to N solo replays).
//! 4. Batched processing ≡ sequential processing.
//! 5. `Clique(3)`/`Clique(4)` share the triangle/4-clique levels.

use proptest::prelude::*;
use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern};

/// Every deletion-capable algorithm of the comparison set.
const DYNAMIC_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::WsdL,
    Algorithm::WsdH,
    Algorithm::WsdUniform,
    Algorithm::GpsA,
    Algorithm::Triest,
    Algorithm::ThinkD,
    Algorithm::Wrs,
];

/// Query mixes: every nested ladder mix (including every two-level
/// subset), a ladder level beside a larger clique, and two larger
/// cliques.
const MIXES: [&[Pattern]; 6] = [
    &[Pattern::Wedge, Pattern::Triangle],
    &[Pattern::Triangle, Pattern::FourClique],
    &[Pattern::Wedge, Pattern::FourClique],
    &[Pattern::Wedge, Pattern::Triangle, Pattern::FourClique],
    &[Pattern::Triangle, Pattern::Clique(5)],
    &[Pattern::Clique(5), Pattern::Clique(6)],
];

/// A deterministic clique-heavy churn stream (plenty of instances of
/// every pattern, admissions, evictions and random-pairing regimes).
fn churn_stream() -> Vec<EdgeEvent> {
    let mut events = Vec::new();
    for a in 0..16u64 {
        for b in (a + 1)..16 {
            events.push(EdgeEvent::insert(Edge::new(a, b)));
        }
    }
    for a in 0..8u64 {
        events.push(EdgeEvent::delete(Edge::new(a, a + 1)));
    }
    for a in 16..28u64 {
        for b in (a.saturating_sub(3))..a {
            if b != a {
                events.push(EdgeEvent::insert(Edge::new(b, a)));
            }
        }
    }
    for a in 0..6u64 {
        events.push(EdgeEvent::delete(Edge::new(a, a + 2)));
    }
    events
}

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

fn session(alg: Algorithm, patterns: &[Pattern]) -> StreamSession {
    SessionBuilder::new(alg, 24, 7).queries(patterns.iter().copied()).build()
}

/// A session answering `patterns` plus one standalone single-query
/// session per pattern, all with the same algorithm, capacity, seed and
/// weight pattern (`weight`, by default the first query's pattern).
fn session_and_standalones(
    alg: Algorithm,
    capacity: usize,
    seed: u64,
    patterns: &[Pattern],
    weight: Option<Pattern>,
) -> (StreamSession, Vec<StreamSession>) {
    let weight = weight.unwrap_or(patterns[0]);
    let build = |ps: &[Pattern]| {
        SessionBuilder::new(alg, capacity, seed)
            .queries(ps.iter().copied())
            .with_weight_pattern(weight)
            .build()
    };
    (build(patterns), patterns.iter().map(|&p| build(&[p])).collect())
}

/// Asserts each query of `multi` agrees bit-for-bit with its standalone
/// session.
fn assert_matches_standalones(multi: &StreamSession, solos: &[StreamSession], what: &str) {
    let queries: Vec<_> = multi.queries().collect();
    assert_eq!(queries.len(), solos.len());
    for (&(id, pattern), solo) in queries.iter().zip(solos) {
        let (solo_id, solo_pattern) = solo.queries().next().expect("one query");
        assert_eq!(pattern, solo_pattern);
        assert_eq!(
            multi.estimate(id).to_bits(),
            solo.estimate(solo_id).to_bits(),
            "{what}: {} query diverged from its standalone session",
            pattern.name()
        );
        assert_eq!(multi.stored_edges(), solo.stored_edges(), "{what}: sample diverged");
    }
}

/// Streams `events` through a session and its standalones, comparing
/// after every event.
fn assert_per_event(
    alg: Algorithm,
    patterns: &[Pattern],
    weight: Option<Pattern>,
    events: &[EdgeEvent],
) {
    let (mut multi, mut solos) = session_and_standalones(alg, 24, 7, patterns, weight);
    for (i, &ev) in events.iter().enumerate() {
        multi.process(ev);
        for solo in &mut solos {
            solo.process(ev);
        }
        let what = format!("{} on {patterns:?} weighted on {weight:?} at event {i}", alg.name());
        assert_matches_standalones(&multi, &solos, &what);
    }
}

/// Asserts two sessions' queries agree bit-for-bit.
fn assert_sessions_agree(a: &StreamSession, b: &StreamSession, what: &str) {
    let qa: Vec<_> = a.queries().collect();
    let qb: Vec<_> = b.queries().collect();
    assert_eq!(qa.len(), qb.len());
    for (&(ida, pa), &(idb, pb)) in qa.iter().zip(&qb) {
        assert_eq!(pa, pb);
        assert_eq!(
            a.estimate(ida).to_bits(),
            b.estimate(idb).to_bits(),
            "{what}: {} query diverged",
            pa.name()
        );
    }
    assert_eq!(a.stored_edges(), b.stored_edges(), "{what}: sample diverged");
}

// ---------------------------------------------------------------------
// 1. Multi-query session ≡ standalone sessions, per event.
// ---------------------------------------------------------------------

#[test]
fn layered_session_matches_per_query_passes_per_event() {
    let stream = churn_stream();
    for alg in DYNAMIC_ALGORITHMS {
        for mix in MIXES {
            assert_per_event(alg, mix, None, &stream);
        }
    }
}

/// GPS (insertion-only) runs the same pass; cover it on the insertion
/// prefix of the churn stream.
#[test]
fn layered_gps_matches_per_query_passes() {
    let stream: Vec<_> = churn_stream().into_iter().filter(EdgeEvent::is_insert).collect();
    for mix in MIXES {
        assert_per_event(Algorithm::Gps, mix, None, &stream);
    }
}

// ---------------------------------------------------------------------
// 2. A weight level no query uses.
// ---------------------------------------------------------------------

/// The weighted samplers observe their weights on the triangle while
/// the queries count wedges and 4-cliques: the weight level joins the
/// pass without any query at it, and every query still matches its
/// standalone session.
#[test]
fn layered_weight_query_matches_standalone_session_per_event() {
    let stream = churn_stream();
    let mix = [Pattern::Wedge, Pattern::FourClique];
    for alg in DYNAMIC_ALGORITHMS {
        assert_per_event(alg, &mix, Some(Pattern::Triangle), &stream);
    }
    let inserts: Vec<_> = stream.into_iter().filter(EdgeEvent::is_insert).collect();
    assert_per_event(Algorithm::Gps, &mix, Some(Pattern::Triangle), &inserts);
}

// ---------------------------------------------------------------------
// 3. attach_many ≡ sequential attaches (shared warm-up replay).
// ---------------------------------------------------------------------

#[test]
fn attach_many_matches_sequential_attaches() {
    let stream = churn_stream();
    let t = stream.len() / 2;
    for alg in DYNAMIC_ALGORITHMS {
        let mut many = SessionBuilder::new(alg, 24, 5).query(Pattern::Triangle).build();
        let mut solo = SessionBuilder::new(alg, 24, 5).query(Pattern::Triangle).build();
        many.process_batch(&stream[..t]);
        solo.process_batch(&stream[..t]);
        let ids_many = many.attach_many(&[Pattern::Wedge, Pattern::FourClique, Pattern::Triangle]);
        let ids_solo = vec![
            solo.attach(Pattern::Wedge),
            solo.attach(Pattern::FourClique),
            solo.attach(Pattern::Triangle),
        ];
        for (m, s) in ids_many.iter().zip(&ids_solo) {
            assert_eq!(
                many.estimate(*m).to_bits(),
                solo.estimate(*s).to_bits(),
                "{}: shared warm-up replay diverged from solo replays",
                alg.name()
            );
        }
        for (i, &ev) in stream[t..].iter().enumerate() {
            many.process(ev);
            solo.process(ev);
            for (m, s) in ids_many.iter().zip(&ids_solo) {
                assert_eq!(
                    many.estimate(*m).to_bits(),
                    solo.estimate(*s).to_bits(),
                    "{}: post-attach_many trajectory diverged {i} events after t",
                    alg.name()
                );
            }
        }
    }
}

/// `SessionBuilder::queries` routes through `attach_many`: building with
/// N patterns equals building with one and attaching the rest.
#[test]
fn builder_queries_equals_incremental_attach_many() {
    for alg in DYNAMIC_ALGORITHMS {
        let built = session(alg, &[Pattern::Wedge, Pattern::Triangle, Pattern::FourClique]);
        let mut grown = SessionBuilder::new(alg, 24, 7).query(Pattern::Wedge).build();
        grown.attach_many(&[Pattern::Triangle, Pattern::FourClique]);
        assert_sessions_agree(&built, &grown, &format!("{} empty-sample attach_many", alg.name()));
    }
}

// ---------------------------------------------------------------------
// 4. Batched ≡ sequential.
// ---------------------------------------------------------------------

#[test]
fn layered_batched_matches_sequential() {
    let stream = churn_stream();
    for alg in DYNAMIC_ALGORITHMS {
        let mix = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        let mut sequential = session(alg, &mix);
        let mut batched = session(alg, &mix);
        for &ev in &stream {
            sequential.process(ev);
        }
        for batch in stream.chunks(17) {
            batched.process_batch(batch);
        }
        assert_sessions_agree(&sequential, &batched, &format!("{} batched", alg.name()));
    }
}

// ---------------------------------------------------------------------
// 5. Clique spellings.
// ---------------------------------------------------------------------

/// `Clique(3)` and `Clique(4)` sit on the triangle and 4-clique levels:
/// a session counting both spellings of each reports the same bits
/// under either spelling.
#[test]
fn clique_spellings_share_ladder_levels() {
    let stream = churn_stream();
    let mix = [Pattern::Triangle, Pattern::Clique(3), Pattern::FourClique, Pattern::Clique(4)];
    for alg in DYNAMIC_ALGORITHMS {
        let mut s = session(alg, &mix);
        s.process_batch(&stream);
        let bits: Vec<u64> = s.queries().map(|(id, _)| s.estimate(id).to_bits()).collect();
        assert_eq!(bits[0], bits[1], "{}: Clique(3) diverged from Triangle", alg.name());
        assert_eq!(bits[2], bits[3], "{}: Clique(4) diverged from FourClique", alg.name());
    }
}

// ---------------------------------------------------------------------
// Randomised cross-check.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random feasible churn streams: every query of a 3-query session
    /// stays bit-identical to its standalone session for every
    /// algorithm.
    #[test]
    fn prop_layered_matches_per_query_passes(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 40..200),
        seed in 0u64..500,
        capacity in 12usize..32,
    ) {
        let stream = feasible_stream(&intents);
        let mix = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        for alg in DYNAMIC_ALGORITHMS {
            let (mut multi, mut solos) = session_and_standalones(alg, capacity, seed, &mix, None);
            multi.process_batch(&stream);
            for solo in &mut solos {
                solo.process_batch(&stream);
            }
            let multi_bits: Vec<_> =
                multi.queries().map(|(id, _)| multi.estimate(id).to_bits()).collect();
            let solo_bits: Vec<_> = solos
                .iter()
                .map(|s| s.estimate(s.queries().next().expect("one query").0).to_bits())
                .collect();
            prop_assert_eq!(multi_bits, solo_bits, "{} layered trajectory diverged", alg.name());
        }
    }
}

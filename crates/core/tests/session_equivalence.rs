//! Session-API equivalence guarantees.
//!
//! A [`wsd_core::StreamSession`] is one sampler layer plus any number
//! of query layers. These tests pin the contracts that make the split
//! safe (estimates compared via `f64::to_bits`):
//!
//! 1. In a **multi-query session**, the query counting the sampler's
//!    weight pattern is bit-identical to a standalone single-query
//!    session of that pattern (the sampler trajectory depends only on
//!    the weight pattern); for pattern-blind samplers (uniform weights,
//!    Triest, ThinkD, WRS) *every* query matches its standalone session.
//! 2. **Attach warm-up** is a pure function of the sampler state: a
//!    query attached at event `t` has exactly the trajectory of a query
//!    detached and re-attached at `t` — and for Triest, whose estimator
//!    state is fully sample-determined, exactly the trajectory of a
//!    query attached from event 0.
//! 3. **Attach/detach churn leaves the sampler untouched**: the
//!    surviving queries and the sample trajectory are bit-identical to
//!    a session that never attached anything.
//! 4. **The insertion-only reduction** behind paper Table VI: without
//!    deletions GPS, WSD-H and GPS-A are one sampler, and GPS rejects a
//!    deletion before anything changes.
//! 5. **One random-pairing trajectory**: Triest and ThinkD differ only
//!    in when a query counts, so with the same capacity and seed they
//!    hold the same sampler state throughout.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wsd_core::{Algorithm, QueryId, SessionBuilder, StreamSession};
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

/// Samplers whose trajectory ignores every pattern: uniform weights and
/// the uniform baselines. Every query of such a session matches its
/// standalone session bit-for-bit.
const PATTERN_BLIND: [Algorithm; 4] =
    [Algorithm::WsdUniform, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];

const PATTERNS: [Pattern; 3] = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];

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

/// A session counting `pattern` alone, plus the handle of its query.
fn single_query_session(
    alg: Algorithm,
    pattern: Pattern,
    capacity: usize,
    seed: u64,
) -> (StreamSession, QueryId) {
    let session = SessionBuilder::new(alg, capacity, seed).query(pattern).build();
    let (id, _) = session.queries().next().unwrap();
    (session, id)
}

// ---------------------------------------------------------------------
// 1. Multi-query sessions vs standalone sessions.
// ---------------------------------------------------------------------

/// The weight-pattern query of a weighted multi-query session is
/// bit-identical to the standalone session: the sampler trajectory is a
/// function of the weight pattern only.
#[test]
fn weight_query_of_multi_session_matches_standalone() {
    let stream = churn_stream();
    for alg in [Algorithm::WsdH, Algorithm::WsdL, Algorithm::GpsA] {
        let (mut standalone, solo_tri) = single_query_session(alg, Pattern::Triangle, 24, 11);
        let mut session = SessionBuilder::new(alg, 24, 11)
            .query(Pattern::Wedge)
            .query(Pattern::Triangle)
            .query(Pattern::FourClique)
            .with_weight_pattern(Pattern::Triangle)
            .build();
        let tri = session.queries().nth(1).unwrap().0;
        for (i, &ev) in stream.iter().enumerate() {
            standalone.process(ev);
            session.process(ev);
            assert_eq!(
                standalone.estimate(solo_tri).to_bits(),
                session.estimate(tri).to_bits(),
                "{} fused triangle query diverged at event {i}",
                alg.name()
            );
        }
    }
}

/// For pattern-blind samplers every query of a 3-pattern session is
/// bit-identical to its standalone session with the same seed.
#[test]
fn pattern_blind_session_queries_match_standalones() {
    let stream = churn_stream();
    for alg in PATTERN_BLIND {
        let mut session = SessionBuilder::new(alg, 24, 13).queries(PATTERNS).build();
        let qids: Vec<_> = session.queries().map(|(id, _)| id).collect();
        let mut standalones: Vec<_> =
            PATTERNS.iter().map(|&p| single_query_session(alg, p, 24, 13)).collect();
        for (i, &ev) in stream.iter().enumerate() {
            session.process(ev);
            for ((standalone, solo), &qid) in standalones.iter_mut().zip(&qids) {
                standalone.process(ev);
                assert_eq!(
                    standalone.estimate(*solo).to_bits(),
                    session.estimate(qid).to_bits(),
                    "{} {} query diverged at event {i}",
                    alg.name(),
                    standalone.pattern(*solo).name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2 & 3. Attach / detach.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm-up determinism: a query attached at event `t` has exactly
    /// the trajectory of a same-pattern query detached and immediately
    /// re-attached at `t` in an independent session — the warm-up is a
    /// pure function of the sampler state, and subsequent increments
    /// are identical bit for bit.
    #[test]
    fn prop_attach_is_a_pure_function_of_the_sample(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 40..240),
        split in 0.1f64..0.9,
        seed in 0u64..500,
        capacity in 12usize..32,
    ) {
        let stream = feasible_stream(&intents);
        let t = ((stream.len() as f64) * split) as usize;
        for alg in DYNAMIC_ALGORITHMS {
            // A: wedge query lives from event 0, detached + re-attached at t.
            let mut a = SessionBuilder::new(alg, capacity, seed)
                .query(Pattern::Triangle)
                .query(Pattern::Wedge)
                .build();
            let wedge_a0 = a.queries().nth(1).unwrap().0;
            // B: wedge query attached fresh at t.
            let mut b = SessionBuilder::new(alg, capacity, seed)
                .query(Pattern::Triangle)
                .build();
            a.process_batch(&stream[..t]);
            b.process_batch(&stream[..t]);
            a.detach(wedge_a0);
            let wedge_a = a.attach(Pattern::Wedge);
            let wedge_b = b.attach(Pattern::Wedge);
            prop_assert_eq!(
                a.estimate(wedge_a).to_bits(),
                b.estimate(wedge_b).to_bits(),
                "{} warm-up not a pure function of the sample", alg.name()
            );
            for &ev in &stream[t..] {
                a.process(ev);
                b.process(ev);
                prop_assert_eq!(
                    a.estimate(wedge_a).to_bits(),
                    b.estimate(wedge_b).to_bits(),
                    "{} post-attach trajectory diverged", alg.name()
                );
            }
        }
    }

    /// Triest's estimator state is fully determined by the current
    /// sample, so a warm-started query is indistinguishable from one
    /// attached at event 0 — the strongest form of the warm-up
    /// contract.
    #[test]
    fn prop_triest_attach_equals_attached_from_event_zero(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 40..240),
        split in 0.1f64..0.9,
        seed in 0u64..500,
        capacity in 12usize..32,
    ) {
        let stream = feasible_stream(&intents);
        let t = ((stream.len() as f64) * split) as usize;
        let mut from_zero = SessionBuilder::new(Algorithm::Triest, capacity, seed)
            .query(Pattern::Triangle)
            .query(Pattern::Wedge)
            .build();
        let wedge0 = from_zero.queries().nth(1).unwrap().0;
        let mut late = SessionBuilder::new(Algorithm::Triest, capacity, seed)
            .query(Pattern::Triangle)
            .build();
        from_zero.process_batch(&stream[..t]);
        late.process_batch(&stream[..t]);
        let wedge_late = late.attach(Pattern::Wedge);
        for (i, &ev) in stream[t..].iter().enumerate() {
            prop_assert_eq!(
                from_zero.estimate(wedge0).to_bits(),
                late.estimate(wedge_late).to_bits(),
                "Triest late attach diverged {} events after t", i
            );
            from_zero.process(ev);
            late.process(ev);
        }
    }

    /// Attach/detach churn must leave the sampler — and every surviving
    /// query — bit-identical to a session that never touched its query
    /// set.
    #[test]
    fn prop_attach_detach_leaves_sampler_untouched(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 30..200),
        cut_a in 0.1f64..0.5,
        cut_b in 0.5f64..0.9,
        seed in 0u64..500,
        capacity in 12usize..32,
    ) {
        let stream = feasible_stream(&intents);
        let (ta, tb) =
            (((stream.len() as f64) * cut_a) as usize, ((stream.len() as f64) * cut_b) as usize);
        for alg in DYNAMIC_ALGORITHMS {
            let mut plain = SessionBuilder::new(alg, capacity, seed)
                .query(Pattern::Triangle)
                .build();
            let (tri_plain, _) = plain.queries().next().unwrap();
            let mut churny = SessionBuilder::new(alg, capacity, seed)
                .query(Pattern::Triangle)
                .build();
            let (tri_churny, _) = churny.queries().next().unwrap();
            plain.process_batch(&stream[..ta]);
            churny.process_batch(&stream[..ta]);
            let wedge = churny.attach(Pattern::Wedge);
            let clique = churny.attach(Pattern::FourClique);
            for &ev in &stream[ta..tb] {
                plain.process(ev);
                churny.process(ev);
                prop_assert_eq!(
                    plain.estimate(tri_plain).to_bits(),
                    churny.estimate(tri_churny).to_bits(),
                    "{}: extra queries perturbed the original one", alg.name()
                );
            }
            churny.detach(wedge);
            churny.detach(clique);
            for &ev in &stream[tb..] {
                plain.process(ev);
                churny.process(ev);
            }
            prop_assert_eq!(
                plain.estimate(tri_plain).to_bits(),
                churny.estimate(tri_churny).to_bits(),
                "{}: attach/detach churn leaked into the sampler", alg.name()
            );
            prop_assert_eq!(plain.stored_edges(), churny.stored_edges());
        }
    }
}

// ---------------------------------------------------------------------
// 4. The insertion-only reduction (paper Table VI).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Without deletions WSD-H and GPS-A reduce exactly to GPS, which is
    /// why Table VI lists plain GPS in their place. For wedge, triangle
    /// and 4-clique, at every capacity that holds one instance, the
    /// three single-query sessions agree bit for bit on the estimate
    /// and on the stored-edge count at every batch boundary.
    #[test]
    fn prop_gps_wsd_h_and_gps_a_coincide_without_deletions(
        pairs in proptest::collection::vec((0u8..20, 0u8..20), 0..240),
        batch in 1usize..40,
        spare in 0usize..30,
        seed in 0u64..1_000,
    ) {
        let inserts: Vec<(u8, u8, bool)> = pairs.into_iter().map(|(a, b)| (a, b, false)).collect();
        let stream = feasible_stream(&inserts);
        for pattern in PATTERNS {
            let capacity = pattern.num_edges() + spare;
            let mut sessions = [Algorithm::Gps, Algorithm::WsdH, Algorithm::GpsA]
                .map(|alg| single_query_session(alg, pattern, capacity, seed));
            for (i, chunk) in stream.chunks(batch).enumerate() {
                for (session, _) in &mut sessions {
                    session.process_batch(chunk);
                }
                let [(gps, gps_query), others @ ..] = &sessions;
                for (other, query) in others {
                    prop_assert_eq!(
                        other.estimate(*query).to_bits(),
                        gps.estimate(*gps_query).to_bits(),
                        "{} left GPS on {} after batch {}", other.name(), pattern.name(), i
                    );
                    prop_assert_eq!(other.stored_edges(), gps.stored_edges());
                }
            }
        }
    }
}

/// A GPS session panics on a deletion with GPS's own message, before
/// any state changes: it snapshots the same after the panic as before.
#[test]
fn gps_session_panics_on_a_deletion_before_any_state_change() {
    let mut session = SessionBuilder::new(Algorithm::Gps, 8, 3).query(Pattern::Triangle).build();
    // The churn stream opens with the 120 insertions of a 16-clique.
    session.process_batch(&churn_stream()[..40]);
    let before = session.snapshot();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        session.process(EdgeEvent::delete(Edge::new(0, 1)));
    }))
    .expect_err("GPS must reject a deletion");
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("a text panic");
    assert_eq!(
        message,
        "GPS cannot process deletion events (paper §III-A); \
         use GPS-A or WSD for fully dynamic streams"
    );
    assert_eq!(session.snapshot(), before);
}

// ---------------------------------------------------------------------
// 5. One random-pairing trajectory.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Triest and ThinkD sessions with the same capacity and seed snapshot
    /// equal sampler states — reservoir slots, random-pairing counters,
    /// adjacency layout and RNG words — at every batch boundary, which is
    /// what lets one sampler serve both.
    #[test]
    fn prop_triest_and_thinkd_share_one_sampling_trajectory(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 0..250),
        batch in 1usize..40,
        capacity in 3usize..32,
        seed in 0u64..1_000,
    ) {
        let stream = feasible_stream(&intents);
        let [mut triest, mut thinkd] = [Algorithm::Triest, Algorithm::ThinkD]
            .map(|alg| single_query_session(alg, Pattern::Triangle, capacity, seed).0);
        for (i, chunk) in stream.chunks(batch).enumerate() {
            triest.process_batch(chunk);
            thinkd.process_batch(chunk);
            prop_assert_eq!(
                triest.snapshot().sampler,
                thinkd.snapshot().sampler,
                "Triest and ThinkD sampler states diverged after batch {}", i
            );
        }
    }
}

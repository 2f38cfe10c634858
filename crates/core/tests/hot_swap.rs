//! Weight hot-swap equivalence suite — pins the semantics documented
//! on [`StreamSession::set_weight_fn`]:
//!
//! * swapping in a weight function **identical** to the current one is
//!   a bit-for-bit no-op on every subsequent estimate (including the
//!   fused weight-pattern path of a multi-query session);
//! * a mid-stream swap's trajectory is bit-identical, from the swap
//!   point on, to a session of the target weight function whose
//!   dynamic state at the swap point equals the original's (built via
//!   snapshot → restore, which also pins that the swap updates the
//!   session's rebuildable configuration);
//! * the swap itself touches nothing: estimates, stored-edge counts
//!   and events are unchanged at the swap point, and rejected swaps
//!   (wrong dimension, a sampler without a swappable weight function,
//!   GPS included) leave the session untouched.

use wsd_core::{
    Algorithm, FeatureNorm, LinearPolicy, SessionBuilder, StreamSession, WeightSpec,
    WeightSwapError,
};
use wsd_graph::{Edge, EdgeEvent, Pattern};

/// Deterministic churn stream over a small vertex universe: dense
/// enough for triangles, long enough to overflow small reservoirs, with
/// deletions only ever targeting live edges.
fn churn_stream(n: usize, seed: u64) -> Vec<EdgeEvent> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut live: Vec<Edge> = Vec::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let delete = !live.is_empty() && next() % 4 == 0;
        if delete {
            let e = live.swap_remove((next() as usize) % live.len());
            out.push(EdgeEvent::delete(e));
        } else {
            let a = next() % 30;
            let b = next() % 30;
            let Some(e) = Edge::try_new(a, b) else { continue };
            if live.contains(&e) {
                continue;
            }
            live.push(e);
            out.push(EdgeEvent::insert(e));
        }
    }
    out
}

/// A non-trivial learned policy of triangle dimension (|H| + 3 = 6):
/// weights large enough to steer admission decisions away from the
/// heuristic's.
fn policy() -> LinearPolicy {
    LinearPolicy::new(
        vec![2.5, -0.75, 0.5, 0.25, -0.5, 1.5],
        0.75,
        FeatureNorm::new(vec![1.0, 0.5, 2.0, 0.0, 0.0, 1.0], vec![2.0, 1.0, 4.0, 1.0, 1.0, 2.0]),
    )
}

fn learned_session(seed: u64) -> StreamSession {
    SessionBuilder::new(Algorithm::WsdL, 40, seed)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .with_weight_pattern(Pattern::Triangle)
        .with_policy(policy())
        .build()
}

fn estimates(s: &StreamSession) -> Vec<u64> {
    s.report().queries.iter().map(|q| q.estimate.to_bits()).collect()
}

#[test]
fn identical_policy_swap_is_a_bit_for_bit_noop() {
    let stream = churn_stream(600, 0xA11CE);
    let mut swapped = learned_session(9);
    let mut untouched = learned_session(9);
    for (i, &ev) in stream.iter().enumerate() {
        if i % 37 == 0 {
            swapped.set_weight_fn(WeightSpec::Policy(policy())).expect("same-dim policy");
        }
        swapped.process(ev);
        untouched.process(ev);
        assert_eq!(estimates(&swapped), estimates(&untouched), "event {i}");
    }
    assert_eq!(swapped.name(), "WSD-L");
}

#[test]
fn identical_heuristic_swap_is_a_bit_for_bit_noop() {
    let stream = churn_stream(600, 0xBEE);
    let mut swapped = SessionBuilder::new(Algorithm::WsdH, 40, 5)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .build();
    let mut untouched = SessionBuilder::new(Algorithm::WsdH, 40, 5)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .build();
    for (i, &ev) in stream.iter().enumerate() {
        if i % 23 == 0 {
            swapped.set_weight_fn(WeightSpec::Heuristic).expect("WSD-H swaps");
        }
        swapped.process(ev);
        untouched.process(ev);
        assert_eq!(estimates(&swapped), estimates(&untouched), "event {i}");
    }
}

/// Drives `session` over the suffix in lockstep with a twin restored
/// from its post-swap snapshot, asserting bit-identical estimates and
/// identical re-encoded snapshots at every event.
fn assert_tracks_restored_twin(mut session: StreamSession, suffix: &[EdgeEvent]) {
    let mut twin = StreamSession::restore(&session.snapshot());
    for (i, &ev) in suffix.iter().enumerate() {
        session.process(ev);
        twin.process(ev);
        assert_eq!(estimates(&session), estimates(&twin), "event {i}");
        if i % 61 == 0 {
            assert_eq!(
                session.snapshot().encode(),
                twin.snapshot().encode(),
                "snapshot divergence at event {i}"
            );
        }
    }
}

#[test]
fn swap_to_heuristic_tracks_a_heuristic_twin_from_the_swap_point() {
    let stream = churn_stream(800, 0xD0C);
    let mut session = learned_session(11);
    for &ev in &stream[..400] {
        session.process(ev);
    }
    let (events, stored, est) = (session.events(), session.stored_edges(), estimates(&session));
    session.set_weight_fn(WeightSpec::Heuristic).expect("swap");
    // The swap itself is invisible: nothing moves until the next event.
    assert_eq!(session.events(), events);
    assert_eq!(session.stored_edges(), stored);
    assert_eq!(estimates(&session), est);
    assert_eq!(session.name(), "WSD-H");
    // From here on the session must be bit-identical to a WSD-H session
    // whose dynamic state at the swap point is the original's.
    assert_tracks_restored_twin(session, &stream[400..]);
}

#[test]
fn swap_to_policy_mid_stream_upgrades_a_heuristic_session() {
    let stream = churn_stream(800, 0xF00D);
    let mut session = SessionBuilder::new(Algorithm::WsdH, 40, 3)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .with_weight_pattern(Pattern::Triangle)
        .build();
    for &ev in &stream[..300] {
        session.process(ev);
    }
    session.set_weight_fn(WeightSpec::Policy(policy())).expect("swap");
    assert_eq!(session.name(), "WSD-L");
    assert_tracks_restored_twin(session, &stream[300..]);
}

#[test]
fn swap_to_uniform_tracks_a_uniform_twin() {
    let stream = churn_stream(700, 0x7E4);
    let mut session = learned_session(21);
    for &ev in &stream[..250] {
        session.process(ev);
    }
    session.set_weight_fn(WeightSpec::Uniform).expect("swap");
    assert_eq!(session.name(), "WSD-U");
    assert_tracks_restored_twin(session, &stream[250..]);
}

#[test]
fn rejected_swaps_leave_the_session_untouched() {
    let stream = churn_stream(400, 0xBAD);
    // Wrong-dimension policy against a triangle weight pattern.
    let mut session = learned_session(17);
    let mut twin = learned_session(17);
    let err = session.set_weight_fn(WeightSpec::Policy(LinearPolicy::neutral(5)));
    assert_eq!(err, Err(WeightSwapError::DimensionMismatch { expected: 6, got: 5 }));
    // Non-WSD samplers have no swappable weight function.
    let mut triest = SessionBuilder::new(Algorithm::Triest, 40, 1).query(Pattern::Triangle).build();
    match triest.set_weight_fn(WeightSpec::Heuristic) {
        Err(WeightSwapError::Unsupported { algorithm }) => assert_eq!(algorithm, "Triest"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // The rejected session still tracks an untouched twin bit for bit.
    for (i, &ev) in stream.iter().enumerate() {
        session.process(ev);
        twin.process(ev);
        assert_eq!(estimates(&session), estimates(&twin), "event {i}");
    }
}

/// GPS runs on the WSD sampler but pins the heuristic: all three weight
/// specs are rejected as unsupported, the session's snapshot (its
/// rebuildable configuration included) stays the untouched twin's, and
/// so does every later estimate.
#[test]
fn gps_rejects_every_swap_and_keeps_its_trajectory() {
    let mut seen = std::collections::BTreeSet::new();
    let inserts: Vec<EdgeEvent> = churn_stream(400, 0x6B5)
        .into_iter()
        .filter(|ev| ev.is_insert() && seen.insert(ev.edge))
        .collect();
    let gps = || SessionBuilder::new(Algorithm::Gps, 24, 9).query(Pattern::Triangle).build();
    let (mut session, mut twin) = (gps(), gps());
    let half = inserts.len() / 2;
    session.process_batch(&inserts[..half]);
    twin.process_batch(&inserts[..half]);
    for spec in [WeightSpec::Uniform, WeightSpec::Heuristic, WeightSpec::Policy(policy())] {
        let unsupported = WeightSwapError::Unsupported { algorithm: "GPS".to_string() };
        assert_eq!(session.set_weight_fn(spec), Err(unsupported));
    }
    assert_eq!(session.name(), "GPS");
    assert_eq!(session.snapshot(), twin.snapshot());
    for (i, &ev) in inserts[half..].iter().enumerate() {
        session.process(ev);
        twin.process(ev);
        assert_eq!(estimates(&session), estimates(&twin), "event {i}");
    }
}

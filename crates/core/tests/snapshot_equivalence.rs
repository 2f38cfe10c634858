//! Snapshot/restore differential suite.
//!
//! A restored session must be indistinguishable from the uninterrupted
//! original **going forward**: for every event after the snapshot
//! point, both must produce the same estimate bits for every attached
//! query, the same sampler trajectory (reservoir slot orders, RNG
//! stream), and the same canonical snapshot bytes. This suite drives an
//! original session and a snapshot→encode→decode→restore twin in
//! lockstep over churn streams and asserts, per subsequent event:
//!
//! * **estimate bit-equality** for every query (`f64::to_bits`);
//! * **canonical snapshot equality** — the full re-encoded snapshot
//!   blob, which covers heap slot order, adjacency layout, arena free
//!   lists, GPS-A item tables, the WRS room (ghosts + horizon), RNG
//!   words, and every counter;
//! * restore works **through bytes** (encode/decode), not just through
//!   the in-memory struct.
//!
//! Deterministic scenarios pin the mid-churn snapshot points (ID
//! recycling in flight, WRS ghosts parked in the FIFO); a proptest
//! sweeps feasible dynamic streams × snapshot positions × capacities
//! across all six algorithms.

use proptest::prelude::*;
use wsd_core::{Algorithm, SessionBuilder, SessionSnapshot, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern};

/// All six algorithm configurations the paper's grid exercises (the
/// three WSD weight variants share one sampler implementation; WSD-H
/// stands in for them in the long sweep, WSD-L runs with a neutral
/// policy in the deterministic pins).
const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::WsdH,
    Algorithm::Gps,
    Algorithm::GpsA,
    Algorithm::Triest,
    Algorithm::ThinkD,
    Algorithm::Wrs,
];

/// Turns raw intents into a *feasible* dynamic stream: deletions only
/// ever target live edges (the contract every sampler assumes); GPS is
/// insertion-only, so deletions are skipped entirely for it.
fn feasible_stream(intents: &[(u8, u8, bool)], allow_deletes: bool) -> Vec<EdgeEvent> {
    let mut live = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(intents.len());
    for &(a, b, want_delete) in intents {
        let Some(e) = Edge::try_new(u64::from(a), u64::from(b)) else {
            continue;
        };
        if live.contains(&e) {
            if want_delete && allow_deletes {
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

fn builder_for(algorithm: Algorithm, capacity: usize, seed: u64) -> SessionBuilder {
    SessionBuilder::new(algorithm, capacity, seed)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .query(Pattern::FourClique)
}

/// Asserts every query estimate of `a` and `b` is bit-identical.
fn assert_estimates_bit_equal(a: &StreamSession, b: &StreamSession, context: &str) {
    let ea: Vec<u64> = a.report().queries.iter().map(|q| q.estimate.to_bits()).collect();
    let eb: Vec<u64> = b.report().queries.iter().map(|q| q.estimate.to_bits()).collect();
    assert_eq!(ea, eb, "estimate bits diverged {context}");
}

/// Drives `stream`, snapshots at `cut`, restores a twin **through
/// encoded bytes**, then runs the tail on both in lockstep asserting
/// estimate bits and canonical snapshot bytes per event.
fn run_lockstep(
    algorithm: Algorithm,
    capacity: usize,
    seed: u64,
    stream: &[EdgeEvent],
    cut: usize,
) {
    let cut = cut.min(stream.len());
    let mut original = builder_for(algorithm, capacity, seed).build();
    for &ev in &stream[..cut] {
        original.process(ev);
    }

    let blob = original.snapshot().encode();
    let decoded = SessionSnapshot::decode(&blob).expect("snapshot decodes");
    let mut restored = StreamSession::restore(&decoded);

    assert_eq!(restored.events(), original.events());
    assert_eq!(restored.num_queries(), original.num_queries());
    assert_eq!(restored.name(), original.name());
    assert_estimates_bit_equal(&original, &restored, "immediately after restore");
    assert_eq!(
        restored.snapshot().encode(),
        blob,
        "re-encoded snapshot of the restored session must be canonical"
    );

    for (i, &ev) in stream[cut..].iter().enumerate() {
        original.process(ev);
        restored.process(ev);
        let context = format!("at event {} after the snapshot ({algorithm:?})", i + 1);
        assert_estimates_bit_equal(&original, &restored, &context);
    }
    // Full-state convergence at the end (covers RNG words, slot orders,
    // item tables, free lists — everything the encoding carries).
    assert_eq!(
        original.snapshot().encode(),
        restored.snapshot().encode(),
        "final snapshots diverged ({algorithm:?})"
    );
}

/// A churn-heavy deterministic stream: three waves of clique growth with
/// interleaved deletion sweeps, so snapshots land with recycled arena
/// IDs in the free list and (for WRS) ghosts parked in the FIFO.
fn churn_stream(n: u64) -> Vec<EdgeEvent> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            out.push(EdgeEvent::insert(Edge::new(a, b)));
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if (a + b) % 3 == 0 {
                out.push(EdgeEvent::delete(Edge::new(a, b)));
            }
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if (a + b) % 3 == 0 {
                out.push(EdgeEvent::insert(Edge::new(a, b)));
            }
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if b == a + 1 {
                out.push(EdgeEvent::delete(Edge::new(a, b)));
            }
        }
    }
    out
}

#[test]
fn deterministic_churn_pins_every_algorithm() {
    let stream = churn_stream(14);
    for algorithm in ALGORITHMS {
        let s = if algorithm == Algorithm::Gps {
            // Insertion-only and no duplicates of a live edge: keep the
            // first insertion of each edge.
            let mut seen = std::collections::BTreeSet::new();
            stream
                .iter()
                .copied()
                .filter(|ev| ev.is_insert() && seen.insert(ev.edge))
                .collect::<Vec<_>>()
        } else {
            stream.clone()
        };
        // Snapshot in the middle of the deletion sweep and at the very
        // start/end (capacity 24 forces evictions and ID recycling).
        for cut in [0, s.len() / 3, s.len() / 2, s.len() - 1, s.len()] {
            run_lockstep(algorithm, 24, 7, &s, cut);
        }
    }
}

#[test]
fn wsd_l_policy_round_trips_through_restore() {
    // A non-neutral learned policy must survive the snapshot (weights,
    // bias, and normalisation all feed the rank computation).
    let dim = Pattern::Triangle.num_edges() + 3;
    let policy = wsd_core::LinearPolicy::new(
        (0..dim).map(|i| 0.25 * (i as f64 + 1.0)).collect(),
        0.5,
        wsd_core::FeatureNorm::new(vec![1.0; dim], vec![2.0; dim]),
    );
    let stream = churn_stream(12);
    let cut = stream.len() / 2;
    let mut original = SessionBuilder::new(Algorithm::WsdL, 20, 11)
        .query(Pattern::Triangle)
        .query(Pattern::Wedge)
        .with_policy(policy)
        .build();
    for &ev in &stream[..cut] {
        original.process(ev);
    }
    let blob = original.snapshot().encode();
    let mut restored = StreamSession::restore(&SessionSnapshot::decode(&blob).expect("decodes"));
    for &ev in &stream[cut..] {
        original.process(ev);
        restored.process(ev);
        assert_estimates_bit_equal(&original, &restored, "WSD-L with trained policy");
    }
    assert_eq!(original.snapshot().encode(), restored.snapshot().encode());
}

#[test]
fn restore_preserves_detached_handle_slots() {
    let mut session = SessionBuilder::new(Algorithm::WsdH, 32, 3)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .build();
    let ids: Vec<_> = session.queries().map(|(id, _)| id).collect();
    for &ev in &churn_stream(8)[..40] {
        session.process(ev);
    }
    session.detach(ids[0]);
    let snap = session.snapshot();
    assert_eq!(snap.handles, vec![None, Some(0)]);
    let restored = StreamSession::restore(&snap);
    assert_eq!(restored.num_queries(), 1);
    // The surviving query keeps its handle slot (index 1).
    let (id, pattern) = restored.queries().next().expect("one query");
    assert_eq!(pattern, Pattern::Triangle);
    assert_eq!(id.index(), 1);
    assert_estimates_bit_equal(&session, &restored, "after detach + restore");
}

#[test]
fn restored_session_supports_attach_and_detach() {
    // Attach after restore must warm-start off the restored sample; the
    // sampler trajectory stays untouched, so the original (with the
    // same attach) stays in lockstep.
    let stream = churn_stream(12);
    let cut = stream.len() / 2;
    let mut original = builder_for(Algorithm::Wrs, 30, 9).build();
    for &ev in &stream[..cut] {
        original.process(ev);
    }
    let mut restored = StreamSession::restore(&original.snapshot());
    let a = original.attach(Pattern::Triangle);
    let b = restored.attach(Pattern::Triangle);
    assert_eq!(
        original.estimate(a).to_bits(),
        restored.estimate(b).to_bits(),
        "warm-start off the restored sample"
    );
    for &ev in &stream[cut..] {
        original.process(ev);
        restored.process(ev);
    }
    assert_eq!(original.estimate(a).to_bits(), restored.estimate(b).to_bits());
}

proptest! {
    #[test]
    fn snapshot_anywhere_matches_uninterrupted_run(
        intents in proptest::collection::vec((0u8..24, 0u8..24, any::<bool>()), 0..220),
        algo_pick in 0usize..ALGORITHMS.len(),
        capacity in 8usize..48,
        cut_frac in 0u8..=100,
        seed in 0u64..1_000,
    ) {
        let algorithm = ALGORITHMS[algo_pick];
        let stream = feasible_stream(&intents, algorithm != Algorithm::Gps);
        let cut = stream.len() * usize::from(cut_frac) / 100;
        run_lockstep(algorithm, capacity, seed, &stream, cut);
    }
}

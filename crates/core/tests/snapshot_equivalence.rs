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
//! * **estimate bit-equality** for every query (`f64::to_bits`),
//!   including queries attached to both at the snapshot point, whose
//!   warm-ups replay each twin's own sample;
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
use wsd_core::{Algorithm, SamplerState, SessionBuilder, SessionSnapshot, StreamSession};
use wsd_graph::{AdjacencyLayout, Edge, EdgeEvent, Pattern};
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::Scenario;

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

/// The patterns [`run_lockstep`] attaches to both twins at the cut.
const WARM_UPS: [Pattern; 3] = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];

/// Drives `stream`, snapshots at `cut`, restores a twin **through
/// encoded bytes**, attaches [`WARM_UPS`] to both, then runs the tail on
/// both in lockstep asserting estimate bits and canonical snapshot bytes
/// per event. The attached queries warm up from each twin's own sample,
/// so their bits match only if a warm-up depends on the sample alone.
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
    original.attach_many(&WARM_UPS);
    restored.attach_many(&WARM_UPS);
    assert_estimates_bit_equal(&original, &restored, &format!("after attach ({algorithm:?})"));

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

/// A query attached right after a restore warms up bit-identically to
/// the same query attached to the original. The live sample's vertex
/// table grew with the stream while the restored one is sized from the
/// snapshot's layout, so the two iterate their edges in different hash
/// orders; the warm-up replay must not depend on that order. BA with
/// 3,000 vertices (m = 5, generation seed 17) under light deletion
/// (seed 99), one triangle query, cut at 1/3, 1/2 and 2/3, across three
/// capacities. GPS runs on the stream's first insertion of each edge.
#[test]
fn attach_after_restore_warms_up_bit_identically() {
    let edges =
        GeneratorConfig::BarabasiAlbert { vertices: 3_000, edges_per_vertex: 5 }.generate(17);
    let dynamic = Scenario::default_light().apply(&edges, 99);
    let mut seen = std::collections::BTreeSet::new();
    let insert_only: Vec<EdgeEvent> =
        dynamic.iter().copied().filter(|ev| ev.is_insert() && seen.insert(ev.edge)).collect();
    for algorithm in ALGORITHMS {
        let stream = if algorithm == Algorithm::Gps { &insert_only[..] } else { &dynamic[..] };
        for capacity in [300, 1_000, 2_500] {
            for cut in [stream.len() / 3, stream.len() / 2, stream.len() * 2 / 3] {
                let mut original =
                    SessionBuilder::new(algorithm, capacity, 7).query(Pattern::Triangle).build();
                original.process_batch(&stream[..cut]);
                let blob = original.snapshot().encode();
                let mut restored =
                    StreamSession::restore(&SessionSnapshot::decode(&blob).expect("decodes"));
                original.attach_many(&WARM_UPS);
                restored.attach_many(&WARM_UPS);
                let context = format!("{algorithm:?} at capacity {capacity}, cut {cut}");
                assert_estimates_bit_equal(&original, &restored, &context);
            }
        }
    }
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

/// The three ways a forged adjacency layout can break the simple-graph
/// structure, each built from a real one: a half-edge dropped from each
/// of two vertices (asymmetric), one neighbour listed twice on both
/// sides (duplicate), and a vertex with no neighbours (empty entry).
fn forged_layouts(layout: &AdjacencyLayout) -> Vec<(&'static str, AdjacencyLayout)> {
    let mut asymmetric = layout.clone();
    let a =
        asymmetric.vertices.iter().position(|(_, s)| s.len() >= 2).expect("a vertex of degree 2");
    let (a_vertex, dropped) = {
        let (u, slots) = &mut asymmetric.vertices[a];
        (*u, slots.pop().expect("slot").0)
    };
    let (_, slots) = asymmetric
        .vertices
        .iter_mut()
        .find(|(u, s)| s.len() >= 2 && *u != a_vertex && *u != dropped)
        .expect("a second vertex of degree 2");
    slots.pop();

    let mut duplicate = layout.clone();
    let (u, slots) = &mut duplicate.vertices[0];
    let (u, (w, id)) = (*u, slots[0]);
    slots.push((w, id));
    let (_, w_slots) = duplicate.vertices.iter_mut().find(|(x, _)| *x == w).expect("reverse entry");
    w_slots.push((u, id));

    let mut empty = layout.clone();
    let fresh = empty.vertices.iter().map(|(u, _)| *u).max().expect("vertices") + 1;
    empty.vertices.push((fresh, Vec::new()));

    vec![("asymmetric", asymmetric), ("duplicate", duplicate), ("empty entry", empty)]
}

fn sample_layout(sampler: &mut SamplerState) -> &mut AdjacencyLayout {
    match sampler {
        SamplerState::Wsd { sample, .. } | SamplerState::GpsA { sample, .. } => &mut sample.layout,
        SamplerState::Rp { adj, .. } | SamplerState::Wrs { adj, .. } => adj,
    }
}

/// Restore validates the adjacency structure in every build profile: a
/// forged layout panics (which the server's restore paths turn into an
/// `Error` reply or a quarantined file) instead of reviving a session
/// that runs on corrupt state. Covers both the arena-tracked (WSD) and
/// the ID-free (Triest) adjacency.
#[test]
fn restore_rejects_forged_adjacency_layouts() {
    let stream = churn_stream(12);
    for algorithm in [Algorithm::WsdH, Algorithm::Triest] {
        let mut session = builder_for(algorithm, 40, 3).build();
        session.process_batch(&stream);
        let snapshot = session.snapshot();
        let healthy = StreamSession::restore(&snapshot);
        assert_estimates_bit_equal(&session, &healthy, "unforged control");
        let mut snapshot = snapshot;
        let layout = sample_layout(&mut snapshot.sampler).clone();
        for (forgery, forged) in forged_layouts(&layout) {
            *sample_layout(&mut snapshot.sampler) = forged;
            let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                StreamSession::restore(&snapshot)
            }));
            assert!(restored.is_err(), "{algorithm:?}: {forgery} layout restored");
        }
    }
}

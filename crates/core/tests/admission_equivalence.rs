//! Admission-path differential suite.
//!
//! Every sampler has one admission path, the per-event
//! [`EdgeSampler::process`]; [`EdgeSampler::process_batch`] must stay a
//! loop over it, never a semantic variant. This suite runs the batched
//! entry point and the per-event one in lockstep over the same stream
//! and asserts, at every batch boundary (batch sizes down to 1, so
//! per-event granularity is covered):
//!
//! * **reservoir content and order** — heap-slot order for the weighted
//!   samplers (it decides victim choice under rank ties), sample-slot
//!   order for the uniform reservoirs (the victim draw indexes it),
//!   FIFO entries + spill horizon for the WRS room (ghost entries and
//!   the horizon decide future spills), with ranks compared via
//!   `f64::to_bits`;
//! * **estimate bit-equality** for every attached query;
//! * the RNG stream implicitly: one surplus or missing draw desyncs
//!   every subsequent sampling decision and shows up in the snapshots.
//!
//! Deterministic scenarios pin the regimes a batch-level shortcut would
//! most easily get wrong — the fill phase, ID-recycling churn waves and
//! WRS ghost-position re-admissions — and a proptest sweeps feasible
//! dynamic streams × batch partitions × capacities for every sampler
//! (the random-pairing one as Triest and as ThinkD), plus WSD's
//! insertion-only GPS mode.

use proptest::prelude::*;
use wsd_core::algorithms::{GpsASampler, RpSampler, WrsSampler, WsdSampler};
use wsd_core::state::TemporalPooling;
use wsd_core::weight::HeuristicWeight;
use wsd_core::{EdgeSampler, PatternQuery, QueryCtx};
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Pattern};

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

/// One sampler driven per event, its twin driven through
/// `process_batch`, compared snapshot-for-snapshot at every batch
/// boundary. `snapshot` must capture everything order-sensitive the
/// sampler exposes.
struct Lockstep<S, Snap> {
    seq: S,
    bat: S,
    seq_queries: Vec<PatternQuery>,
    bat_queries: Vec<PatternQuery>,
    seq_scratch: EnumScratch,
    bat_scratch: EnumScratch,
    snapshot: fn(&S) -> Snap,
}

impl<S: EdgeSampler, Snap: PartialEq + std::fmt::Debug> Lockstep<S, Snap> {
    fn new(seq: S, bat: S, patterns: &[Pattern], snapshot: fn(&S) -> Snap) -> Self {
        let queries = || patterns.iter().map(|&p| PatternQuery::new(p)).collect::<Vec<_>>();
        Self {
            seq,
            bat,
            seq_queries: queries(),
            bat_queries: queries(),
            seq_scratch: EnumScratch::default(),
            bat_scratch: EnumScratch::default(),
            snapshot,
        }
    }

    fn drive(&mut self, stream: &[EdgeEvent], cuts: &[usize]) -> Result<(), TestCaseError> {
        for batch in partitions(stream, cuts) {
            for &ev in batch {
                self.seq.process(ev, QueryCtx::new(&mut self.seq_queries, &mut self.seq_scratch));
            }
            self.bat
                .process_batch(batch, QueryCtx::new(&mut self.bat_queries, &mut self.bat_scratch));
            prop_assert_eq!(
                (self.snapshot)(&self.seq),
                (self.snapshot)(&self.bat),
                "{} reservoir snapshot diverged",
                self.seq.name()
            );
            prop_assert_eq!(
                self.seq.stored_edges(),
                self.bat.stored_edges(),
                "{} sample size diverged",
                self.seq.name()
            );
            for (sq, bq) in self.seq_queries.iter().zip(&self.bat_queries) {
                prop_assert_eq!(
                    self.seq.query_estimate(sq).to_bits(),
                    self.bat.query_estimate(bq).to_bits(),
                    "{} estimate diverged on {} (seq {} vs batch {})",
                    self.seq.name(),
                    sq.pattern().name(),
                    self.seq.query_estimate(sq),
                    self.bat.query_estimate(bq)
                );
            }
        }
        Ok(())
    }
}

/// `(edge, rank-bits)` in heap-slot order.
fn wsd_snap(s: &WsdSampler) -> (Vec<(Edge, u64)>, (u64, u64)) {
    let heap = s.reservoir_snapshot().into_iter().map(|(e, r)| (e, r.to_bits())).collect();
    let (tau_p, tau_q) = s.thresholds();
    (heap, (tau_p.to_bits(), tau_q.to_bits()))
}

fn gps_a_snap(s: &GpsASampler) -> Vec<(Edge, bool, u64)> {
    s.reservoir_snapshot().into_iter().map(|(e, live, r)| (e, live, r.to_bits())).collect()
}

fn rp_snap(s: &RpSampler) -> Vec<Edge> {
    s.reservoir_snapshot()
}

/// Waiting-room state: FIFO `(edge, seq)` entries plus the spill horizon.
type RoomSnap = (Vec<(Edge, u64)>, u64);

fn wrs_snap(s: &WrsSampler) -> (Vec<Edge>, RoomSnap) {
    (s.reservoir_snapshot(), s.room_snapshot())
}

fn wsd(capacity: usize, seed: u64) -> WsdSampler {
    WsdSampler::new(
        Pattern::Triangle,
        capacity,
        Box::new(HeuristicWeight),
        TemporalPooling::Max,
        seed,
    )
}

/// Insert/delete churn waves that recycle arena (and GPS-A item) IDs
/// far past capacity: fill over budget, delete a sliding half, refill.
fn churn_waves() -> Vec<EdgeEvent> {
    let mut intents = Vec::new();
    for round in 0..12u8 {
        for i in 0..10u8 {
            intents.push((round.wrapping_mul(7) % 20, 30 + (i + round) % 25, false));
            intents.push((i % 20, 30 + (i * 3 + round) % 25, false));
        }
        for i in 0..10u8 {
            intents.push((i % 20, 30 + (i * 3 + round) % 25, true));
        }
    }
    feasible_stream(&intents)
}

#[test]
fn wsd_id_recycling_waves_match_per_event() {
    let stream = churn_waves();
    for &cuts in &[&[1usize][..], &[3, 7, 1][..], &[64][..]] {
        let mut lock =
            Lockstep::new(wsd(12, 9), wsd(12, 9), &[Pattern::Triangle, Pattern::Wedge], wsd_snap);
        lock.drive(&stream, cuts).unwrap();
    }
}

#[test]
fn gps_a_id_recycling_waves_match_per_event() {
    let stream = churn_waves();
    for &cuts in &[&[1usize][..], &[5, 2][..], &[64][..]] {
        let mut lock = Lockstep::new(
            GpsASampler::new(Pattern::Triangle, 12, Box::new(HeuristicWeight), 11),
            GpsASampler::new(Pattern::Triangle, 12, Box::new(HeuristicWeight), 11),
            &[Pattern::Triangle],
            gps_a_snap,
        );
        lock.drive(&stream, cuts).unwrap();
    }
}

#[test]
fn gps_fill_plan_matches_per_event() {
    // Insertion-only (GPS panics on deletions): the batch's fill prefix
    // must land exactly where the per-event capacity branch flips.
    let mut stream = Vec::new();
    for a in 0..20u64 {
        for b in (a + 1)..20 {
            stream.push(EdgeEvent::insert(Edge::new(a, b)));
        }
    }
    for &cuts in &[&[1usize][..], &[11, 4][..], &[256][..]] {
        let mut lock = Lockstep::new(
            WsdSampler::gps(Pattern::Triangle, 16, 13),
            WsdSampler::gps(Pattern::Triangle, 16, 13),
            &[Pattern::Triangle],
            wsd_snap,
        );
        lock.drive(&stream, cuts).unwrap();
    }
}

#[test]
fn rp_fill_runs_match_per_event() {
    let stream = churn_waves();
    for &cuts in &[&[1usize][..], &[2, 9][..], &[64][..]] {
        let mut t = Lockstep::new(
            RpSampler::triest(10, 17),
            RpSampler::triest(10, 17),
            &[Pattern::Triangle],
            rp_snap,
        );
        t.drive(&stream, cuts).unwrap();
        let mut d = Lockstep::new(
            RpSampler::thinkd(10, 19),
            RpSampler::thinkd(10, 19),
            &[Pattern::Triangle],
            rp_snap,
        );
        d.drive(&stream, cuts).unwrap();
    }
}

/// The WRS regime the run-level room admission must not disturb: edges
/// deleted from the room and re-admitted while their old FIFO entry
/// still queues spill at the *ghost's* position, which needs an
/// explicit stamp zero on the spill path.
#[test]
fn wrs_ghost_position_readmissions_match_per_event() {
    let mut intents = Vec::new();
    for round in 0..25u8 {
        let x = round % 6;
        intents.push((x, 40 + x, false)); // X enters the room
        intents.push((x, 40 + x, true)); // X deleted; FIFO ghost remains
        intents.push((6 + round % 5, 50 + round % 7, false));
        intents.push((x, 40 + x, false)); // X re-admitted behind its ghost
        intents.push((12 + round % 6, 60 + round % 8, false)); // forces spills
        intents.push((18 + round % 4, 70 + round % 9, false));
    }
    let stream = feasible_stream(&intents);
    for &cuts in &[&[1usize][..], &[4, 1, 6][..], &[64][..]] {
        // Room capacity 2 (8 × 0.25) keeps the FIFO under pressure.
        let mut lock = Lockstep::new(
            WrsSampler::with_fraction(8, 0.25, 7),
            WrsSampler::with_fraction(8, 0.25, 7),
            &[Pattern::Triangle],
            wrs_snap,
        );
        lock.drive(&stream, cuts).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full sweep: every sampler (GPS on the first insertions), feasible
    /// dynamic churn, arbitrary batch partitions, budgets small enough
    /// to exercise every admission/eviction/fill regime.
    #[test]
    fn prop_admission_paths_bit_identical(
        intents in proptest::collection::vec((0u8..20, 0u8..20, any::<bool>()), 0..250),
        cuts in proptest::collection::vec(1usize..40, 0..10),
        seed in 0u64..1_000,
        capacity in 8usize..24,
    ) {
        let stream = feasible_stream(&intents);
        let queries = [Pattern::Triangle];
        Lockstep::new(wsd(capacity, seed), wsd(capacity, seed), &queries, wsd_snap)
            .drive(&stream, &cuts)?;
        Lockstep::new(
            GpsASampler::new(Pattern::Triangle, capacity, Box::new(HeuristicWeight), seed),
            GpsASampler::new(Pattern::Triangle, capacity, Box::new(HeuristicWeight), seed),
            &queries,
            gps_a_snap,
        )
        .drive(&stream, &cuts)?;
        Lockstep::new(
            RpSampler::triest(capacity, seed),
            RpSampler::triest(capacity, seed),
            &queries,
            rp_snap,
        )
        .drive(&stream, &cuts)?;
        Lockstep::new(
            RpSampler::thinkd(capacity, seed),
            RpSampler::thinkd(capacity, seed),
            &queries,
            rp_snap,
        )
        .drive(&stream, &cuts)?;
        Lockstep::new(
            WrsSampler::with_fraction(capacity + 8, 0.25, seed),
            WrsSampler::with_fraction(capacity + 8, 0.25, seed),
            &queries,
            wrs_snap,
        )
        .drive(&stream, &cuts)?;
        // GPS is insertion-only AND assumes distinct edges: keep each
        // edge's first insertion (delete/re-insert cycles would otherwise
        // collapse into duplicate inserts).
        let mut seen = std::collections::BTreeSet::new();
        let inserts: Vec<EdgeEvent> = stream
            .iter()
            .copied()
            .filter(|ev| ev.is_insert() && seen.insert(ev.edge))
            .collect();
        Lockstep::new(
            WsdSampler::gps(Pattern::Triangle, capacity, seed),
            WsdSampler::gps(Pattern::Triangle, capacity, seed),
            &queries,
            wsd_snap,
        )
        .drive(&inserts, &cuts)?;
    }
}

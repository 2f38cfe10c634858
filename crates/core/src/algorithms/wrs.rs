//! **WRS** baseline (Shin, ICDM 2017 \[18\]; Lee/Shin/Faloutsos, VLDBJ
//! 2020 \[17\]) — waiting-room sampling, exploiting temporal locality.
//!
//! WRS splits the memory budget `M` into a FIFO **waiting room** (a
//! fraction `α_wr` of the budget) that holds the *most recent* edges
//! unconditionally, and a ThinkD-style random-pairing **reservoir** for
//! edges evicted from the waiting room. Because real streams exhibit
//! temporal locality — new edges disproportionately form patterns with
//! recent edges — keeping the recent window deterministic reduces
//! variance.
//!
//! Estimation is update-on-arrival (as ThinkD): each found instance is
//! weighted by the inverse probability that its sampled partners are
//! where they are — probability 1 for waiting-room partners, uniform
//! inclusion `(s−i)/(n_R−i)` factors for reservoir partners, where `n_R`
//! counts edges that have *left the waiting room* and not been deleted
//! (the reservoir's population).
//!
//! The per-partner "is it in the waiting room?" test — the innermost
//! loop of the estimator — reads a dense **room-epoch stamp** indexed by
//! the partner's arena edge ID (the enumeration kernel yields IDs
//! directly), not a hash set of `Edge` keys: each admission stamps the
//! edge's slot with a monotone admission sequence number, and an edge is
//! in the room iff its stamp exceeds the sequence of the most recently
//! popped FIFO entry (the *spill horizon*). Because the room is FIFO,
//! entries pop in admission order, so one horizon-integer advance per
//! spill replaces the per-edge flag clears the dense-flag scheme paid
//! on every spill, eviction and deletion — recycled IDs are simply
//! re-stamped on their next admission. The stamp classification is *authoritative*:
//! the `Edge`-keyed membership map the flag scheme kept for per-event
//! bookkeeping is gone entirely, removing its two hash operations from
//! every insertion — the FIFO carries `(edge, sequence)` pairs, a
//! popped entry resolves through the adjacency it probes anyway, and
//! deletions classify the edge by its stamp.
//!
//! The room/reservoir machinery never looks at any pattern, so one
//! [`WrsSampler`] serves any number of attached queries off the same
//! split sample (see [`crate::session`]).

use crate::reservoir::{Admission, RpReservoir};
use crate::session::{EdgeSampler, LayeredPlan, PatternQuery, QueryCtx};
use crate::snapshot::{RpState, SamplerState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Adjacency, Edge, EdgeEvent, LayeredLevels, Op, Pattern};

/// Default waiting-room fraction of the budget (the WRS paper's default).
pub const DEFAULT_WAITING_ROOM_FRACTION: f64 = 0.1;

/// The WRS sampling layer: waiting room + random-pairing reservoir.
pub struct WrsSampler {
    /// FIFO order of waiting-room edges with their admission sequence at
    /// entry; may contain ghosts of edges deleted (or spilled through an
    /// older entry) while waiting, lazily purged on eviction.
    room_fifo: VecDeque<(Edge, u64)>,
    /// Room-epoch stamps keyed by arena edge ID — the estimator's
    /// per-partner lookup *and* the authoritative room membership.
    /// Invariant: a live edge is in the waiting room iff
    /// `room_seq[id] > spill_horizon` (room members' un-popped FIFO
    /// entries all carry sequences above every popped one; reservoir
    /// members were reclassified at their spill).
    room_seq: Vec<u64>,
    /// Number of live waiting-room edges.
    room_len: usize,
    /// Next admission sequence number (monotone, starts at 1).
    next_seq: u64,
    /// Admission sequence of the most recently spilled room edge
    /// (0 = nothing spilled yet).
    spill_horizon: u64,
    room_capacity: usize,
    reservoir: RpReservoir,
    /// Adjacency over waiting room ∪ reservoir.
    adj: Adjacency,
    rng: SmallRng,
}

impl WrsSampler {
    /// Creates a WRS sampler with total budget `M` and the default
    /// waiting-room fraction.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::with_fraction(capacity, DEFAULT_WAITING_ROOM_FRACTION, seed)
    }

    /// Creates a WRS sampler with an explicit waiting-room fraction in
    /// `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the fraction leaves either side of the budget empty.
    pub fn with_fraction(capacity: usize, fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction) && fraction > 0.0,
            "waiting-room fraction must be in (0,1), got {fraction}"
        );
        let room_capacity = ((capacity as f64 * fraction).ceil() as usize).max(1);
        assert!(
            capacity > room_capacity,
            "budget M = {capacity} too small for waiting room of {room_capacity}"
        );
        let reservoir_capacity = capacity - room_capacity;
        Self {
            room_fifo: VecDeque::with_capacity(room_capacity + 1),
            room_seq: Vec::with_capacity(capacity + 1),
            room_len: 0,
            next_seq: 1,
            spill_horizon: 0,
            room_capacity,
            reservoir: RpReservoir::new(reservoir_capacity),
            adj: Adjacency::with_capacity(2 * capacity),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current waiting-room occupancy — exposed for tests.
    pub fn waiting_room_len(&self) -> usize {
        self.room_len
    }

    /// The waiting-room capacity — exposed for tests.
    pub fn room_capacity(&self) -> usize {
        self.room_capacity
    }

    /// The reservoir-part capacity — exposed for tests.
    pub fn reservoir_capacity(&self) -> usize {
        self.reservoir.capacity()
    }

    /// Slot-order snapshot of the reservoir part — white-box surface
    /// for the admission differential suite (the uniform victim draw
    /// indexes the slot order, so it is observable).
    pub fn reservoir_snapshot(&self) -> Vec<Edge> {
        self.reservoir.iter().collect()
    }

    /// FIFO-order snapshot of the waiting room's `(edge, sequence)`
    /// entries, ghosts included, plus the spill horizon — white-box
    /// surface for the admission differential suite (ghost entries and
    /// the horizon decide future spill choices, so both are
    /// observable).
    pub fn room_snapshot(&self) -> (Vec<(Edge, u64)>, u64) {
        (self.room_fifo.iter().copied().collect(), self.spill_horizon)
    }

    /// Whether a live edge is currently in the waiting room (stamp
    /// classification — the authoritative membership).
    fn in_room_id(&self, id: wsd_graph::EdgeId) -> bool {
        self.room_seq[id as usize] > self.spill_horizon
    }

    /// Snapshot of the live sample for warm-up replays: each edge with a
    /// `1.0` payload if it sits in the reservoir (`0.0` for waiting-room
    /// members), so a replayed instance's reservoir-partner count is the
    /// payload sum.
    fn replay_edges(&self) -> Vec<(Edge, f64)> {
        self.adj
            .edges()
            .map(|e| {
                let id = self.adj.edge_id(e).expect("iterated edge is live");
                (e, if self.in_room_id(id) { 0.0 } else { 1.0 })
            })
            .collect()
    }

    /// Adds `e` to the waiting room: FIFO + adjacency, with the
    /// admission-sequence stamp written for the estimator's partner
    /// checks (re-stamping is also what retires whatever an ID's
    /// previous tenant left in the slot).
    fn room_admit(&mut self, e: Edge) {
        // On the (infeasible) re-insert of a sampled edge the adjacency
        // keeps its existing ID; the stamp still marks it as roomed.
        let id = self.adj.insert_full(e).or_else(|| self.adj.edge_id(e)).expect("edge is live");
        let i = id as usize;
        if i >= self.room_seq.len() {
            self.room_seq.resize(i + 1, 0);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.room_seq[i] = seq;
        self.room_fifo.push_back((e, seq));
        self.room_len += 1;
    }

    /// Per-instance inverse inclusion probability for `in_reservoir`
    /// reservoir partners, sample `s` over population `n_r`.
    #[inline]
    fn instance_inv(in_reservoir: u64, s: u64, n_r: u64) -> f64 {
        let mut inv = 1.0;
        for i in 0..in_reservoir {
            inv *= (n_r - i) as f64 / (s - i) as f64;
        }
        inv
    }

    /// Adds the estimator mass of instances completed by `e` against the
    /// current sample to `query`. `sign` is +1 for insertions, −1 for
    /// deletions; `s`/`n_r` are the reservoir sample/population sizes to
    /// use.
    fn update_query(
        &self,
        q: &mut PatternQuery,
        scratch: &mut EnumScratch,
        e: Edge,
        sign: f64,
        s: u64,
        n_r: u64,
    ) {
        let room_seq = &self.room_seq;
        let horizon = self.spill_horizon;
        let mut total = 0.0;
        q.pattern.for_each_completed(&self.adj, e, scratch, |partners| {
            let mut in_reservoir = 0u64;
            for &p in partners {
                if room_seq[p as usize] <= horizon {
                    in_reservoir += 1;
                }
            }
            debug_assert!(in_reservoir <= s);
            total += Self::instance_inv(in_reservoir, s, n_r);
        });
        q.estimate += sign * total;
    }

    /// The layered analogue of [`WrsSampler::update_query`]: one
    /// wedge→triangle→4-clique pass accumulates a per-level total (the
    /// per-instance inverse products are query-independent), and each
    /// query adds `sign ×` the total at its plan level. Per-level
    /// emission order matches the per-pattern kernels, so the totals —
    /// and therefore every query's estimate trajectory — are bit-for-bit
    /// the per-query-pass values.
    #[allow(clippy::too_many_arguments)]
    fn update_queries_layered(
        &self,
        plan: &LayeredPlan,
        queries: &mut [PatternQuery],
        scratch: &mut EnumScratch,
        e: Edge,
        sign: f64,
        s: u64,
        n_r: u64,
    ) {
        let room_seq = &self.room_seq;
        let horizon = self.spill_horizon;
        let mut totals = [0.0f64; LayeredLevels::COUNT];
        plan.levels().for_each_completed(&self.adj, e, scratch, |level, partners| {
            let mut in_reservoir = 0u64;
            for &p in partners {
                if room_seq[p as usize] <= horizon {
                    in_reservoir += 1;
                }
            }
            debug_assert!(in_reservoir <= s);
            totals[level] += Self::instance_inv(in_reservoir, s, n_r);
        });
        for (j, q) in queries.iter_mut().enumerate() {
            q.estimate += sign * totals[plan.level_of(j)];
        }
    }

    /// Dispatches the estimator update to the layered pass (plan covers
    /// every query) or the per-query passes.
    fn update_queries(&self, ctx: QueryCtx<'_>, e: Edge, sign: f64, s: u64, n_r: u64) {
        let QueryCtx { queries, scratch, plan } = ctx;
        match plan {
            Some(plan) => self.update_queries_layered(plan, queries, scratch, e, sign, s, n_r),
            None => {
                for q in queries.iter_mut() {
                    self.update_query(q, scratch, e, sign, s, n_r);
                }
            }
        }
    }

    fn insert(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        // Estimator first (update-on-arrival).
        let s = self.reservoir.len() as u64;
        let n_r = self.reservoir.population();
        self.update_queries(ctx, e, 1.0, s, n_r);
        // New edge always enters the waiting room.
        self.room_admit(e);
        if self.room_len > self.room_capacity {
            self.spill_oldest();
        }
    }

    /// Evicts the oldest live waiting-room edge into the reservoir.
    fn spill_oldest(&mut self) {
        // Oldest live edge first, skipping ghosts — entries whose edge
        // was deleted, or already spilled through an older entry after a
        // delete + re-admit cycle. FIFO entries pop in admission order,
        // so advancing the horizon to the popped *entry's* sequence
        // reclassifies the spilled edge as a reservoir partner in O(1) —
        // no per-edge stamp write — while every remaining room member
        // (queued later, larger sequence) stays above the horizon. One
        // exception needs a real write: an edge deleted from the room
        // and re-admitted while its old entry still queues spills at the
        // *ghost's* position (as the old membership-map lookup always
        // had), so its live stamp is newer than the entry sequence and
        // must be zeroed explicitly.
        let oldest = loop {
            let (cand, entry_seq) = self.room_fifo.pop_front().expect("room over capacity");
            debug_assert!(entry_seq > self.spill_horizon, "FIFO pops must be in entry order");
            if let Some(id) = self.adj.edge_id(cand) {
                let seq = self.room_seq[id as usize];
                if seq > self.spill_horizon {
                    self.spill_horizon = entry_seq;
                    if seq != entry_seq {
                        // Re-admitted behind a pending ghost entry.
                        self.room_seq[id as usize] = 0;
                    }
                    self.room_len -= 1;
                    break cand;
                }
                // Live but already spilled (re-admission ghost): skip.
            }
        };
        match self.reservoir.offer(oldest, &mut self.rng) {
            Admission::Added => {} // stays in adj
            Admission::Replaced(victim) => {
                self.adj.remove(victim);
            }
            Admission::Skipped => {
                self.adj.remove(oldest);
            }
        }
    }

    fn delete(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        // Classify by stamp: a live edge is in the room or the
        // reservoir; everything else was never sampled (or already
        // dropped). The freed ID needs no stamp reset — its next tenant
        // is re-stamped on admission — and the FIFO keeps a lazily
        // purged ghost entry.
        let id = self.adj.edge_id(e);
        let in_room = id.is_some_and(|id| self.in_room_id(id));
        let in_reservoir = id.is_some() && !in_room;
        // Estimator with e excluded from sample and population counts.
        if id.is_some() {
            self.adj.remove(e);
        }
        let s = self.reservoir.len() as u64 - in_reservoir as u64;
        let n_r = if in_room {
            // e never reached the reservoir population.
            self.reservoir.population()
        } else {
            self.reservoir.population() - 1
        };
        self.update_queries(ctx, e, -1.0, s, n_r);
        // Sample bookkeeping.
        if in_room {
            self.room_len -= 1;
        } else {
            // The edge passed through the waiting room (or was dropped by
            // it), so it belongs to the reservoir's population: random
            // pairing must account for its deletion.
            self.reservoir.delete(e);
        }
    }
}

impl EdgeSampler for WrsSampler {
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => self.insert(ev.edge, ctx),
            Op::Delete => self.delete(ev.edge, ctx),
        }
    }

    /// Batched path. While the waiting room has free slots an insertion
    /// touches neither the reservoir nor the RNG, so insertion runs are
    /// resolved as one *room-admission run* up front: the overflow
    /// branch, reservoir size/population reads (loop-invariant — the
    /// reservoir is untouched), the stamp-array resize (bounded by the
    /// arena's ID bound plus the run length) and the admission-sequence
    /// counter are all hoisted out of the loop, the per-edge loop writes
    /// only the estimator update, the adjacency insert and the stamp
    /// (consecutive sequences — stamps must land before later events in
    /// the run enumerate the edge as a partner), and the FIFO (which
    /// nothing inside the run reads) takes the whole run in one extend.
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        let mut i = 0;
        while i < batch.len() {
            if batch[i].is_insert() {
                let free = self.room_capacity.saturating_sub(self.room_len);
                let run_len = batch[i..].iter().take(free).take_while(|ev| ev.is_insert()).count();
                if run_len > 0 {
                    let s = self.reservoir.len() as u64;
                    let n_r = self.reservoir.population();
                    // Every ID the run can assign is below the current
                    // bound plus one fresh ID per admission.
                    let need = self.adj.id_bound() + run_len;
                    if need > self.room_seq.len() {
                        self.room_seq.resize(need, 0);
                    }
                    let base = self.next_seq;
                    for (j, ev) in batch[i..i + run_len].iter().enumerate() {
                        let e = ev.edge;
                        self.update_queries(ctx.reborrow(), e, 1.0, s, n_r);
                        let id = self
                            .adj
                            .insert_full(e)
                            .or_else(|| self.adj.edge_id(e))
                            .expect("edge is live");
                        self.room_seq[id as usize] = base + j as u64;
                    }
                    self.room_fifo.extend(
                        batch[i..i + run_len]
                            .iter()
                            .enumerate()
                            .map(|(j, ev)| (ev.edge, base + j as u64)),
                    );
                    self.next_seq = base + run_len as u64;
                    self.room_len += run_len;
                    i += run_len;
                    continue;
                }
            }
            self.process(batch[i], ctx.reborrow());
            i += 1;
        }
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    /// Warm start: every instance fully inside the sample is weighted by
    /// the inverse inclusion probability of its reservoir members (room
    /// members sit in the sample with probability 1).
    fn warm_start(&self, query: &mut PatternQuery, scratch: &mut EnumScratch) {
        query.estimate = 0.0;
        query.tau = 0;
        let s = self.reservoir.len() as u64;
        let n_r = self.reservoir.population();
        let edges = self.replay_edges();
        let pattern = query.pattern;
        let mut total = 0.0;
        crate::session::for_each_sample_instance(pattern, &edges, scratch, |payloads| {
            let in_reservoir = payloads.iter().sum::<f64>() as u64;
            total += Self::instance_inv(in_reservoir, s, n_r);
        });
        query.estimate = total;
    }

    /// Shared warm-up: when at least two newly attached queries sit on
    /// plan levels, one layered replay of the current sample seeds them
    /// all (per-level replay order matches the per-pattern replay, so
    /// each estimate is bit-identical to a solo [`warm_start`]);
    /// unleveled patterns fall back to their own replay.
    ///
    /// [`warm_start`]: EdgeSampler::warm_start
    fn warm_start_many(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        let mut levels = LayeredLevels::default();
        let mut nested = 0;
        for q in queries.iter() {
            if let Some(level) = LayeredLevels::level_of(q.pattern) {
                levels.set(level);
                nested += 1;
            }
        }
        if nested < 2 {
            for q in queries.iter_mut() {
                self.warm_start(q, scratch);
            }
            return;
        }
        let s = self.reservoir.len() as u64;
        let n_r = self.reservoir.population();
        let edges = self.replay_edges();
        let mut sums = [0.0f64; LayeredLevels::COUNT];
        crate::session::for_each_sample_instance_layered(
            levels,
            &edges,
            scratch,
            |level, payloads| {
                let in_reservoir = payloads.iter().sum::<f64>() as u64;
                sums[level] += Self::instance_inv(in_reservoir, s, n_r);
            },
        );
        for q in queries.iter_mut() {
            match LayeredLevels::level_of(q.pattern) {
                Some(level) => {
                    q.estimate = sums[level];
                    q.tau = 0;
                }
                None => self.warm_start(q, scratch),
            }
        }
    }

    fn stored_edges(&self) -> usize {
        self.room_len + self.reservoir.len()
    }

    fn name(&self) -> &str {
        "WRS"
    }

    fn assert_capacity_for(&self, pattern: Pattern) {
        assert!(
            self.reservoir.capacity() >= pattern.num_edges(),
            "WRS reservoir part ({}) must be ≥ |H| = {} of {}",
            self.reservoir.capacity(),
            pattern.num_edges(),
            pattern.name()
        );
    }

    fn snapshot_state(&self) -> SamplerState {
        let (edges, d_in, d_out, population) = self.reservoir.snapshot_state();
        // room_fifo travels verbatim (ghost entries decide future spill
        // choices) and room_seq verbatim including stale stamps, so a
        // restored twin's canonical snapshots stay comparable to the
        // original's after further events.
        SamplerState::Wrs {
            room_fifo: self.room_fifo.iter().copied().collect(),
            room_seq: self.room_seq.clone(),
            room_len: self.room_len as u64,
            next_seq: self.next_seq,
            spill_horizon: self.spill_horizon,
            reservoir: RpState { edges, d_in, d_out, population },
            adj: self.adj.layout_snapshot(),
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::Wrs {
            room_fifo,
            room_seq,
            room_len,
            next_seq,
            spill_horizon,
            reservoir,
            adj,
            rng,
        } = state
        else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.room_fifo.clear();
        self.room_fifo.extend(room_fifo.iter().copied());
        self.room_seq = room_seq.clone();
        self.room_len = *room_len as usize;
        self.next_seq = *next_seq;
        self.spill_horizon = *spill_horizon;
        self.reservoir.restore_state(
            &reservoir.edges,
            reservoir.d_in,
            reservoir.d_out,
            reservoir.population,
        );
        self.adj = Adjacency::from_layout(adj);
        self.rng = SmallRng::from_state(*rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::OneQuery;

    fn wrs(pattern: Pattern, capacity: usize, fraction: f64, seed: u64) -> OneQuery<WrsSampler> {
        OneQuery::new(WrsSampler::with_fraction(capacity, fraction, seed), pattern)
    }

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    /// True if a live edge is classified as a waiting-room member.
    fn in_room(c: &OneQuery<WrsSampler>, e: Edge) -> bool {
        c.sampler.adj.edge_id(e).is_some_and(|id| c.sampler.in_room_id(id))
    }

    /// Checks the stamp/horizon classification invariants: every live
    /// edge is in the room XOR in the reservoir sample, and the room
    /// counter matches the classification.
    fn assert_flags_coherent(c: &OneQuery<WrsSampler>) {
        let s = &c.sampler;
        let mut roomed = 0;
        for e in s.adj.edges().collect::<Vec<_>>() {
            let in_room = in_room(c, e);
            assert_ne!(
                in_room,
                s.reservoir.contains(e),
                "{e:?} must be in exactly one of room / reservoir"
            );
            roomed += usize::from(in_room);
        }
        assert_eq!(roomed, s.room_len, "room counter out of sync with stamps");
        assert_eq!(s.adj.num_edges(), s.room_len + s.reservoir.len());
    }

    #[test]
    fn exact_when_everything_fits() {
        let mut c = wrs(Pattern::Triangle, 100, 0.2, 1);
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4), ins(2, 4), del(2, 3)] {
            c.process(ev);
        }
        assert_eq!(c.estimate(), 0.0);
        c.process(ins(2, 3));
        assert_eq!(c.estimate(), 2.0);
        assert_flags_coherent(&c);
    }

    #[test]
    fn waiting_room_holds_most_recent() {
        let mut c = wrs(Pattern::Triangle, 20, 0.25, 2);
        // Room capacity = 5.
        for i in 0..50u64 {
            c.process(ins(i, i + 1));
        }
        assert_eq!(c.sampler.waiting_room_len(), 5);
        // The very last edges are certainly present.
        for i in 45..50u64 {
            assert!(in_room(&c, Edge::new(i, i + 1)), "recent edge {i} missing");
        }
        assert!(c.sampler.stored_edges() <= 20);
        assert_flags_coherent(&c);
    }

    #[test]
    fn deletion_inside_waiting_room() {
        let mut c = wrs(Pattern::Triangle, 20, 0.25, 3);
        for i in 0..5u64 {
            c.process(ins(i, i + 1));
        }
        c.process(del(4, 5));
        assert_eq!(c.sampler.waiting_room_len(), 4);
        assert!(!c.sampler.adj.contains(Edge::new(4, 5)));
        // FIFO ghost purge: keep inserting past room capacity.
        for i in 10..30u64 {
            c.process(ins(i, i + 1));
        }
        assert_eq!(c.sampler.waiting_room_len(), 5);
        assert_flags_coherent(&c);
    }

    #[test]
    fn room_flags_track_churn() {
        // Drive edges through room → reservoir → deletion with recycled
        // IDs in play; the dense mirror must never drift.
        let mut c = wrs(Pattern::Triangle, 16, 0.25, 9);
        for round in 0..30u64 {
            for i in 0..6u64 {
                c.process(ins(7 * round + i, 7 * round + i + 1));
            }
            c.process(del(7 * round + 2, 7 * round + 3));
            assert_flags_coherent(&c);
        }
    }

    /// An edge deleted from the room and re-admitted while its old FIFO
    /// entry still queues spills at the *ghost's* position; the stamp
    /// scheme must zero its newer stamp instead of advancing the horizon
    /// past the room members admitted in between.
    #[test]
    fn readmission_spills_at_ghost_position() {
        // Room capacity 2 (8 × 0.25).
        let mut c = wrs(Pattern::Triangle, 8, 0.25, 7);
        c.process(ins(1, 2)); // X enters; FIFO [X]
        c.process(del(1, 2)); // X leaves the room map; FIFO ghost remains
        c.process(ins(3, 4)); // A; FIFO [X?, A]
        c.process(ins(1, 2)); // X re-admitted; FIFO [X?, A, X]
        assert_eq!(c.sampler.waiting_room_len(), 2);
        c.process(ins(5, 6)); // overflow: the spill pops X's ghost entry
                              // The spill found X live again and must spill X (the map
                              // semantics) while A stays classified in-room.
        assert_eq!(c.sampler.waiting_room_len(), 2);
        assert!(in_room(&c, Edge::new(3, 4)), "A must stay in the room");
        assert!(!in_room(&c, Edge::new(1, 2)), "X must have spilled");
        assert!(c.sampler.adj.contains(Edge::new(1, 2)), "spilled X lives in the reservoir");
        assert_flags_coherent(&c);
    }

    #[test]
    fn budget_split_respected() {
        let c = wrs(Pattern::Triangle, 40, 0.1, 4);
        assert_eq!(c.sampler.room_capacity(), 4);
        assert_eq!(c.sampler.reservoir_capacity(), 36);
        assert_eq!(c.sampler.name(), "WRS");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_budget_panics() {
        let _ = wrs(Pattern::Triangle, 1, 0.9, 5);
    }
}

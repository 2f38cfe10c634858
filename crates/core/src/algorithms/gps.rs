//! **GPS** — Graph Priority Sampling (paper §III-A, after Ahmed et
//! al. \[14\]) for insertion-only streams.
//!
//! GPS maintains a fixed-size min-priority queue of ranks `r = w/u` and a
//! threshold `z` equal to the `(M+1)`-th largest rank observed so far
//! (the running maximum of all "losing" ranks). An edge is in the
//! reservoir iff its rank beats `z`, so `P[e ∈ R] = min(1, w(e)/z)`
//! (Eq. 1), which the estimator divides by (Eq. 3–4, unbiased per
//! Theorem 1).
//!
//! GPS is **not applicable** to fully dynamic streams (paper Example 1):
//! [`GpsSampler::process`] panics on deletion events; use
//! [`crate::algorithms::GpsASampler`] or [`crate::algorithms::WsdSampler`]
//! for those.
//!
//! [`GpsSampler`] is the session-facing sampling layer (N pattern
//! queries off one reservoir, see [`crate::session`]).

use crate::algorithms::WeightMode;
use crate::rank::{draw_u, rank};
use crate::reservoir::IndexedMinHeap;
use crate::sampled_graph::{EdgeMeta, WeightedSample};
use crate::session::{EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{SamplerState, WeightedSampleState};
use crate::state::{StateAccumulator, StateVector, TemporalPooling};
use crate::weight::WeightFn;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, Pattern};

/// The GPS sampling layer (insertion-only).
pub struct GpsSampler {
    display_name: String,
    /// The pattern the weight function observes.
    weight_pattern: Pattern,
    capacity: usize,
    /// Keyed by the sample's arena edge IDs.
    heap: IndexedMinHeap,
    sample: WeightedSample,
    /// The `(M+1)`-th largest rank seen so far (`r_{M+1}` in Eq. 1).
    z: f64,
    t: u64,
    acc: StateAccumulator,
    /// Reusable state-vector buffer (allocation-free insertions).
    state_buf: StateVector,
    weight_fn: Box<dyn WeightFn>,
    rng: SmallRng,
    /// Pre-drawn `u` variates for batched processing (reused scratch).
    u_buf: Vec<f64>,
    /// Resolved state-observation mode of the weight function.
    weight_mode: WeightMode,
}

impl GpsSampler {
    /// Creates a GPS sampler whose weight function observes
    /// `weight_pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < |H|` or the pattern is invalid.
    pub fn new(
        weight_pattern: Pattern,
        capacity: usize,
        weight_fn: Box<dyn WeightFn>,
        seed: u64,
    ) -> Self {
        weight_pattern.validate().expect("invalid pattern");
        assert!(
            capacity >= weight_pattern.num_edges(),
            "reservoir capacity M = {capacity} must be ≥ |H| = {}",
            weight_pattern.num_edges()
        );
        let weight_mode = WeightMode::resolve(weight_fn.as_ref(), false);
        Self {
            display_name: "GPS".to_string(),
            weight_pattern,
            capacity,
            heap: IndexedMinHeap::with_capacity(capacity),
            sample: WeightedSample::with_capacity(capacity),
            z: 0.0,
            t: 0,
            acc: StateAccumulator::new(weight_pattern.num_edges(), TemporalPooling::Max),
            state_buf: StateVector::empty(),
            weight_fn,
            rng: SmallRng::seed_from_u64(seed),
            u_buf: Vec::new(),
            weight_mode,
        }
    }

    /// Overrides the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.display_name = name.into();
        self
    }

    /// The current threshold `z = r_{M+1}` — exposed for tests.
    pub fn threshold(&self) -> f64 {
        self.z
    }

    /// Heap-slot-order snapshot of the reservoir as `(edge, rank)`
    /// pairs — white-box surface for the admission differential suite
    /// (see [`WsdSampler::reservoir_snapshot`]).
    ///
    /// [`WsdSampler::reservoir_snapshot`]:
    /// crate::algorithms::WsdSampler::reservoir_snapshot
    pub fn reservoir_snapshot(&self) -> Vec<(Edge, f64)> {
        self.heap.iter().map(|(id, r)| (self.sample.adj().edge_endpoints(id), r)).collect()
    }

    /// Estimator + state observation against the pre-update sample;
    /// returns the arriving edge's weight. One layered pass serves
    /// every query when the weight observation rides a plan level
    /// (fused weight query or a count-blind `Affine(0, b)` weight);
    /// otherwise the per-query passes run unchanged.
    // inline(always): this was the inline first half of `insert_with_u`
    // before the admission plan split it out; keep it inlined so both
    // admission paths compile to the pre-split code.
    #[inline(always)]
    fn observe(&mut self, e: Edge, ctx: QueryCtx<'_>) -> f64 {
        let QueryCtx { queries, scratch, plan } = ctx;
        let layered = plan.filter(|_| {
            queries.iter().any(|q| q.pattern == self.weight_pattern)
                || matches!(self.weight_mode, WeightMode::Affine(a, _) if a == 0.0)
        });
        match layered {
            Some(plan) => crate::algorithms::observe_queries_layered(
                self.weight_mode,
                self.weight_pattern,
                &mut self.sample,
                e,
                self.z,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                None,
                plan,
                queries,
                scratch,
            ),
            None => crate::algorithms::observe_queries(
                self.weight_mode,
                self.weight_pattern,
                &mut self.sample,
                e,
                self.z,
                scratch,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                None,
                queries,
            ),
        }
    }

    /// Non-full insertion with the admission pre-resolved by the batch's
    /// fill prefix: observe, rank, admit — no capacity branch, no
    /// eviction probe. Only valid while the queue has free slots, where
    /// it is exactly [`GpsSampler::insert_with_u`] (a non-full GPS
    /// queue admits unconditionally — there is no threshold test).
    fn insert_admit_unconditional(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        let r = rank(w, u);
        debug_assert!(self.heap.len() < self.capacity, "not in the fill phase");
        let id = self.sample.insert(e, EdgeMeta { weight: w, time: self.t });
        self.heap.push(id, r);
    }

    /// Insertion with an externally drawn `u` (batched path).
    fn insert_with_u(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        let r = rank(w, u);
        if self.heap.len() < self.capacity {
            let id = self.sample.insert(e, EdgeMeta { weight: w, time: self.t });
            self.heap.push(id, r);
        } else {
            let (victim, min_rank) = self.heap.peek_min().expect("full reservoir is non-empty");
            if r > min_rank {
                self.sample.remove_by_id(victim);
                let id = self.sample.insert(e, EdgeMeta { weight: w, time: self.t });
                let (_, losing) = self.heap.replace_min(id, r);
                self.z = self.z.max(losing);
            } else {
                self.z = self.z.max(r);
            }
        }
    }
}

impl EdgeSampler for GpsSampler {
    /// # Panics
    ///
    /// Panics on deletion events — GPS is an insertion-only algorithm
    /// (paper Example 1 shows it is biased under deletions).
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => {
                let u = draw_u(&mut self.rng);
                self.insert_with_u(ev.edge, u, ctx);
            }
            Op::Delete => panic!(
                "GPS cannot process deletion events (paper §III-A); \
                 use GPS-A or WSD for fully dynamic streams"
            ),
        }
        self.t += 1;
    }

    /// Batched path: insertion-only batches pre-draw all `u` variates in
    /// one RNG loop, then split at the admission plan's fill boundary —
    /// the queue's free slots admit unconditionally (insertion-only GPS
    /// never frees a slot, so the boundary is exact), skipping the
    /// capacity branch and eviction probe per event; the remainder runs
    /// the full threshold cascade. A batch containing a deletion falls
    /// back to the sequential loop so the panic fires at exactly the
    /// same event.
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        if !batch.iter().all(EdgeEvent::is_insert) {
            for &ev in batch {
                self.process(ev, ctx.reborrow());
            }
            return;
        }
        self.u_buf.clear();
        self.u_buf.reserve(batch.len());
        for _ in 0..batch.len() {
            self.u_buf.push(draw_u(&mut self.rng));
        }
        let fill = (self.capacity - self.heap.len()).min(batch.len());
        for (i, &ev) in batch[..fill].iter().enumerate() {
            let u = self.u_buf[i];
            self.insert_admit_unconditional(ev.edge, u, ctx.reborrow());
            self.t += 1;
        }
        for (i, &ev) in batch[fill..].iter().enumerate() {
            let u = self.u_buf[fill + i];
            self.insert_with_u(ev.edge, u, ctx.reborrow());
            self.t += 1;
        }
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    fn warm_start(&self, query: &mut PatternQuery, scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted(&self.sample, self.z, query, scratch);
    }

    fn warm_start_many(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted_many(&self.sample, self.z, queries, scratch);
    }

    fn stored_edges(&self) -> usize {
        self.sample.len()
    }

    fn name(&self) -> &str {
        &self.display_name
    }

    fn assert_capacity_for(&self, pattern: Pattern) {
        assert!(
            self.capacity >= pattern.num_edges(),
            "reservoir capacity M = {} must be ≥ |H| = {} of {}",
            self.capacity,
            pattern.num_edges(),
            pattern.name()
        );
    }

    fn snapshot_state(&self) -> SamplerState {
        let (layout, meta) = self.sample.snapshot_state();
        SamplerState::Gps {
            heap: self.heap.iter().collect(),
            sample: WeightedSampleState { layout, meta },
            z: self.z,
            t: self.t,
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::Gps { heap, sample, z, t, rng } = state else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.heap.restore_from_slots(heap);
        self.sample.restore_state(&sample.layout, &sample.meta);
        self.z = *z;
        self.t = *t;
        self.rng = SmallRng::from_state(*rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::OneQuery;
    use crate::weight::{HeuristicWeight, UniformWeight};

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn gps(
        pattern: Pattern,
        capacity: usize,
        weight_fn: Box<dyn WeightFn>,
        seed: u64,
    ) -> OneQuery<GpsSampler> {
        OneQuery::new(GpsSampler::new(pattern, capacity, weight_fn, seed), pattern)
    }

    #[test]
    fn exact_when_not_full() {
        let mut c = gps(Pattern::Triangle, 64, Box::new(HeuristicWeight), 1);
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(1, 4), ins(3, 4)] {
            c.process(ev);
        }
        // Triangles: {1,2,3} and {1,3,4}.
        assert_eq!(c.estimate(), 2.0);
        assert_eq!(c.sampler.threshold(), 0.0);
    }

    #[test]
    fn threshold_grows_monotonically() {
        let mut c = gps(Pattern::Triangle, 8, Box::new(UniformWeight), 2);
        let mut last = 0.0;
        for i in 0..100u64 {
            c.process(ins(i, i + 1));
            let z = c.sampler.threshold();
            assert!(z >= last, "z must be monotone");
            last = z;
            assert!(c.sampler.stored_edges() <= 8);
        }
        assert!(last > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot process deletion")]
    fn deletion_panics() {
        let mut c = gps(Pattern::Triangle, 8, Box::new(UniformWeight), 3);
        c.process(ins(1, 2));
        c.process(EdgeEvent::delete(Edge::new(1, 2)));
    }

    #[test]
    fn name_and_pattern() {
        let c = gps(Pattern::Wedge, 8, Box::new(UniformWeight), 4);
        assert_eq!(c.sampler.name(), "GPS");
        assert_eq!(c.query.pattern(), Pattern::Wedge);
    }
}

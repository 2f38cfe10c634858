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

use crate::algorithms::WeightObservation;
use crate::rank::{draw_u, rank};
use crate::reservoir::IndexedMinHeap;
use crate::sampled_graph::{EdgeMeta, WeightedSample};
use crate::session::{EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{SamplerState, WeightedSampleState};
use crate::state::TemporalPooling;
use crate::weight::WeightFn;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, Pattern};

/// The GPS sampling layer (insertion-only).
pub struct GpsSampler {
    display_name: String,
    capacity: usize,
    /// Keyed by the sample's arena edge IDs.
    heap: IndexedMinHeap,
    sample: WeightedSample,
    /// The `(M+1)`-th largest rank seen so far (`r_{M+1}` in Eq. 1).
    z: f64,
    t: u64,
    rng: SmallRng,
    /// Weight pattern, weight function and state observation.
    weights: WeightObservation,
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
        Self {
            display_name: "GPS".to_string(),
            weights: WeightObservation::new(
                weight_pattern,
                capacity,
                weight_fn,
                TemporalPooling::Max,
            ),
            capacity,
            heap: IndexedMinHeap::with_capacity(capacity),
            sample: WeightedSample::with_capacity(capacity),
            z: 0.0,
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
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

    /// A GPS insertion: observe (estimator + state, against the
    /// pre-update sample), rank, then admit into a non-full queue or
    /// contest the queue minimum.
    fn insert(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        let u = draw_u(&mut self.rng);
        let w = self.weights.observe(&mut self.sample, e, self.z, self.t, ctx);
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
            Op::Insert => self.insert(ev.edge, ctx),
            Op::Delete => panic!(
                "GPS cannot process deletion events (paper §III-A); \
                 use GPS-A or WSD for fully dynamic streams"
            ),
        }
        self.t += 1;
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    fn warm_start(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted(&self.sample, self.z, queries, scratch);
    }

    fn stored_edges(&self) -> usize {
        self.sample.len()
    }

    fn name(&self) -> &str {
        &self.display_name
    }

    fn pattern_budget(&self) -> usize {
        self.capacity
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

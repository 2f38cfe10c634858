//! **WSD** — Weighted Sampling with Deletions (paper §III-C, Algorithms
//! 1 & 2).
//!
//! WSD keeps a min-priority queue of at most `M` edges keyed by rank
//! `r = w/u` and two thresholds:
//!
//! * `τp` — the *admission* threshold: an arriving edge enters the
//!   reservoir only if its rank exceeds `τp`. Crucially, `τp` is **not**
//!   refreshed while the reservoir is non-full (Case 1): after deletions
//!   free space, new edges still face the old bar. This is what restores
//!   the equal-probability property that plain GPS loses on dynamic
//!   streams (Example 1 of the paper).
//! * `τq` — the *probability* threshold: at any time, an inserted and
//!   not-deleted edge is in the reservoir with probability
//!   `P[r(e) > τq] = min(1, w(e)/τq)` (Lemma 1), which is exactly the
//!   quantity the estimator divides by.
//!
//! Event handling (Algorithm 1):
//!
//! * **Case 1** (insert, non-full): admit iff `r > τp`; touch neither τ.
//! * **Case 2** (insert, full): set `τp` to the minimum reservoir rank;
//!   then 2.1 `r > τp` → evict the minimum, admit, `τq ← τp`;
//!   2.2 `τq < r ≤ τp` → discard, `τq ← r`; 2.3 otherwise discard.
//! * **Case 3** (delete): drop the edge from the reservoir if sampled;
//!   touch neither τ.
//!
//! The estimator (Algorithm 2) adds, for every insertion, the mass
//! `Σ_J Π 1/P[r(e)>τq]` of instances completed against the reservoir and
//! subtracts the corresponding mass of destroyed instances on deletions;
//! Theorem 4 proves unbiasedness (verified empirically in this crate's
//! statistical tests).
//!
//! # Sampler / query split
//!
//! [`WsdSampler`] is the sampling layer — reservoir, thresholds, RNG,
//! weight observation — serving any number of attached
//! [`PatternQuery`]s from the one shared sample (see
//! [`crate::session`]). Because Lemma 1's inclusion-probability
//! identity holds per *edge*, not per pattern, every query's estimator
//! is unbiased off the same reservoir; the weight function (which reads
//! the completed-instance count of the sampler's fixed *weight
//! pattern*) only shapes the variance.

use crate::algorithms::WeightMode;
use crate::estimator::{layered_weighted_mass, weighted_mass};
use crate::rank::{draw_u, rank};
use crate::reservoir::IndexedMinHeap;
use crate::sampled_graph::{EdgeMeta, WeightedSample};
use crate::session::{EdgeSampler, PatternQuery, QueryCtx, WeightSwapError};
use crate::snapshot::{SamplerState, WeightedSampleState};
use crate::state::{StateAccumulator, StateVector, TemporalPooling};
use crate::weight::{WeightFn, WeightSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, Pattern};

/// Callback invoked per insertion with `(edge, state, chosen weight)`.
pub type InsertionObserver = Box<dyn FnMut(Edge, &StateVector, f64) + Send>;

/// The WSD sampling layer: Algorithm 1 plus the per-insertion weight
/// observation, serving N pattern queries (Algorithm 2 each) from one
/// reservoir.
pub struct WsdSampler {
    display_name: String,
    /// The pattern the weight function observes (`|H(e)|` and the
    /// temporal state are computed for this pattern).
    weight_pattern: Pattern,
    capacity: usize,
    /// Keyed by the sample's arena edge IDs.
    heap: IndexedMinHeap,
    sample: WeightedSample,
    tau_p: f64,
    tau_q: f64,
    t: u64,
    acc: StateAccumulator,
    /// Reusable state-vector buffer (one state is observed per
    /// insertion; reuse keeps the hot path allocation-free).
    state_buf: StateVector,
    weight_fn: Box<dyn WeightFn>,
    rng: SmallRng,
    /// Pre-drawn `u` variates for batched processing (reused scratch).
    u_buf: Vec<f64>,
    /// Resolved state-observation mode (kept in sync with the weight
    /// function and observer).
    weight_mode: WeightMode,
    /// Invoked after each insertion event with the edge, its observed
    /// state and the chosen weight; used by the RL training loop and the
    /// weight-analysis experiments (paper Fig. 2(d)) without
    /// re-implementing the sampler.
    observer: Option<InsertionObserver>,
}

impl WsdSampler {
    /// Creates a WSD sampler whose weight function observes
    /// `weight_pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < |H|` of the weight pattern (the
    /// unbiasedness theorems require `M ≥ |H|`) or the pattern is
    /// invalid.
    pub fn new(
        weight_pattern: Pattern,
        capacity: usize,
        weight_fn: Box<dyn WeightFn>,
        pooling: TemporalPooling,
        seed: u64,
    ) -> Self {
        weight_pattern.validate().expect("invalid pattern");
        assert!(
            capacity >= weight_pattern.num_edges(),
            "reservoir capacity M = {capacity} must be ≥ |H| = {}",
            weight_pattern.num_edges()
        );
        let display_name = weight_fn.name().to_string();
        let weight_mode = WeightMode::resolve(weight_fn.as_ref(), false);
        Self {
            display_name,
            weight_pattern,
            capacity,
            heap: IndexedMinHeap::with_capacity(capacity),
            sample: WeightedSample::with_capacity(capacity),
            tau_p: 0.0,
            tau_q: 0.0,
            t: 0,
            acc: StateAccumulator::new(weight_pattern.num_edges(), pooling),
            state_buf: StateVector::empty(),
            weight_fn,
            rng: SmallRng::seed_from_u64(seed),
            u_buf: Vec::new(),
            weight_mode,
            observer: None,
        }
    }

    /// Overrides the display name (e.g. to distinguish pooling ablations).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.display_name = name.into();
        self
    }

    /// Installs a per-insertion observer `(edge, state, weight)`; used by
    /// the DDPG training environment and the weight-analysis experiments.
    /// Forces full-state observation so the observer never sees a
    /// truncated state.
    pub fn set_observer(&mut self, f: InsertionObserver) {
        self.observer = Some(f);
        self.weight_mode = WeightMode::resolve(self.weight_fn.as_ref(), true);
    }

    /// Current thresholds `(τp, τq)` — exposed for white-box tests.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.tau_p, self.tau_q)
    }

    /// Whether an edge currently sits in the reservoir.
    pub fn sampled(&self, e: Edge) -> bool {
        self.sample.contains(e)
    }

    /// Heap-slot-order snapshot of the reservoir as `(edge, rank)`
    /// pairs — white-box surface for the admission differential suite.
    /// The slot order is part of the observable contract: it decides
    /// victim choice under rank ties, so every admission path must
    /// reproduce it exactly.
    pub fn reservoir_snapshot(&self) -> Vec<(Edge, f64)> {
        self.heap.iter().map(|(id, r)| (self.sample.adj().edge_endpoints(id), r)).collect()
    }

    /// Algorithm 2 per query: estimator + state observation *before*
    /// the sampling decision, against the pre-update reservoir; returns
    /// the arriving edge's weight. The layered pass serves every query
    /// (and the weight observation) at once, but only when the weight
    /// observation itself rides a plan level — a fused query counts the
    /// weight pattern, or the weight ignores the instance count
    /// (`Affine(0, b)`).
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
                self.tau_q,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                self.observer.as_deref_mut(),
                plan,
                queries,
                scratch,
            ),
            None => crate::algorithms::observe_queries(
                self.weight_mode,
                self.weight_pattern,
                &mut self.sample,
                e,
                self.tau_q,
                scratch,
                &mut self.acc,
                &mut self.state_buf,
                self.weight_fn.as_mut(),
                self.t,
                self.observer.as_deref_mut(),
                queries,
            ),
        }
    }

    /// Number of upcoming insertions guaranteed to be admitted by
    /// Case 1 regardless of their rank — the batched path's per-run
    /// *admission plan*. While `τp == 0` every rank clears the bar
    /// (`w > 0` and `u ∈ (0, 1]` force `r > 0`), and Case-1 admissions
    /// touch neither threshold, so the guarantee holds for exactly the
    /// free slots. Once the reservoir has filled, `τp` is positive
    /// forever (Case 2 sets it to a reservoir minimum rank and Case 3
    /// retains it) and no admission is unconditional.
    #[inline]
    fn guaranteed_admissions(&self) -> usize {
        if self.tau_p == 0.0 {
            self.capacity - self.heap.len()
        } else {
            0
        }
    }

    /// Case-1 insertion with the admission test pre-resolved by the run
    /// plan: observe, rank, admit — no threshold compare, no capacity
    /// branch. Only valid while [`WsdSampler::guaranteed_admissions`]
    /// is positive, where it is exactly [`WsdSampler::insert_with_u`].
    fn insert_admit_unconditional(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        debug_assert!(w > 0.0 && w.is_finite(), "weight function must be positive/finite");
        let r = rank(w, u);
        debug_assert!(self.heap.len() < self.capacity && r > self.tau_p, "not in the fill phase");
        self.admit(e, w, r);
    }

    /// Insertion with an externally drawn `u ∈ (0, 1]` — the batched
    /// path pre-draws one variate per insertion (in event order, so the
    /// RNG stream is identical to sequential processing).
    fn insert_with_u(&mut self, e: Edge, u: f64, ctx: QueryCtx<'_>) {
        let w = self.observe(e, ctx);
        debug_assert!(w > 0.0 && w.is_finite(), "weight function must be positive/finite");
        let r = rank(w, u);
        // Algorithm 1.
        if self.heap.len() < self.capacity {
            // Case 1: τp and τq are retained.
            if r > self.tau_p {
                self.admit(e, w, r);
            }
        } else {
            let (victim, min_rank) = self.heap.peek_min().expect("full reservoir is non-empty");
            self.tau_p = min_rank;
            if r > self.tau_p {
                // Case 2.1. The victim leaves the sample before the new
                // edge enters (recycling its arena ID); the heap's
                // root is then replaced in one sift instead of a
                // pop + push pair.
                self.sample.remove_by_id(victim);
                let id = self.sample.insert(e, EdgeMeta { weight: w, time: self.t });
                let displaced = self.heap.replace_min(id, r);
                debug_assert_eq!(displaced.0, victim);
                self.tau_q = self.tau_p;
            } else if r > self.tau_q {
                // Case 2.2.
                self.tau_q = r;
            }
            // Case 2.3: discard silently.
        }
    }

    fn admit(&mut self, e: Edge, w: f64, r: f64) {
        let id = self.sample.insert(e, EdgeMeta { weight: w, time: self.t });
        self.heap.push(id, r);
    }

    fn delete(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        let QueryCtx { queries, scratch, plan } = ctx;
        // Case 3: drop the edge from the reservoir first (partners of
        // destroyed instances never include e itself, so removal order
        // is safe), then subtract each query's destroyed mass — one
        // layered pass when the session's plan covers every query.
        if let Some((id, _)) = self.sample.remove_full(e) {
            self.heap.remove(id).expect("heap and sample in sync");
        }
        match plan {
            Some(plan) => {
                let m = layered_weighted_mass(
                    plan.levels(),
                    &mut self.sample,
                    e,
                    self.tau_q,
                    scratch,
                    None,
                );
                for (j, q) in queries.iter_mut().enumerate() {
                    q.estimate -= m.mass[plan.level_of(j)];
                }
            }
            None => {
                for q in queries.iter_mut() {
                    let m =
                        weighted_mass(q.pattern, &mut self.sample, e, self.tau_q, scratch, None);
                    q.estimate -= m.mass;
                }
            }
        }
    }
}

impl EdgeSampler for WsdSampler {
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => {
                let u = draw_u(&mut self.rng);
                self.insert_with_u(ev.edge, u, ctx);
            }
            Op::Delete => self.delete(ev.edge, ctx),
        }
        self.t += 1;
    }

    /// Batched path: exactly one `u` variate is consumed per insertion
    /// and none per deletion, so all draws for the batch are made in
    /// one tight RNG loop up front — same stream, same estimates — and
    /// the events are partitioned into same-op runs resolved against
    /// the `τp == 0` admission plan (see
    /// `WsdSampler::guaranteed_admissions`): planned insertion runs
    /// skip the whole Case-1/Case-2 branch cascade per event.
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        crate::algorithms::predrawn_batch!(self, batch, ctx);
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    fn warm_start(&self, query: &mut PatternQuery, scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted(&self.sample, self.tau_q, query, scratch);
    }

    fn warm_start_many(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        crate::session::warm_start_weighted_many(&self.sample, self.tau_q, queries, scratch);
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
        SamplerState::Wsd {
            heap: self.heap.iter().collect(),
            sample: WeightedSampleState { layout, meta },
            tau_p: self.tau_p,
            tau_q: self.tau_q,
            t: self.t,
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::Wsd { heap, sample, tau_p, tau_q, t, rng } = state else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.heap.restore_from_slots(heap);
        self.sample.restore_state(&sample.layout, &sample.meta);
        self.tau_p = *tau_p;
        self.tau_q = *tau_q;
        self.t = *t;
        self.rng = SmallRng::from_state(*rng);
    }

    /// Mid-stream weight hot-swap. Replaces only the weight function
    /// (and re-resolves the cached weight mode, preserving any
    /// installed observer): the reservoir, thresholds, state
    /// accumulator and RNG stream are untouched, so stored edges keep
    /// their admission-time weights and only future observations use
    /// the new function. The display name resets to the target weight
    /// function's canonical algorithm name.
    fn set_weight_fn(&mut self, spec: &WeightSpec) -> Result<(), WeightSwapError> {
        let dim = self.weight_pattern.num_edges() + 3;
        if let Some(got) = spec.dim() {
            if got != dim {
                return Err(WeightSwapError::DimensionMismatch { expected: dim, got });
            }
        }
        let (weight_fn, name) = spec.build();
        self.weight_fn = weight_fn;
        self.display_name = name.to_string();
        self.weight_mode = WeightMode::resolve(self.weight_fn.as_ref(), self.observer.is_some());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::OneQuery;
    use crate::weight::{HeuristicWeight, UniformWeight};

    fn wsd(capacity: usize, seed: u64) -> OneQuery<WsdSampler> {
        OneQuery::new(
            WsdSampler::new(
                Pattern::Triangle,
                capacity,
                Box::new(UniformWeight),
                TemporalPooling::Max,
                seed,
            ),
            Pattern::Triangle,
        )
    }

    fn tri(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    #[test]
    fn exact_when_reservoir_never_fills() {
        // With M larger than the stream, WSD samples everything, τq stays
        // 0 and the estimate is exact.
        let mut c = wsd(100, 1);
        let stream = vec![
            tri(1, 2),
            tri(2, 3),
            tri(1, 3), // + triangle
            tri(3, 4),
            tri(2, 4),                          // + triangle 2-3-4
            EdgeEvent::delete(Edge::new(2, 3)), // destroys both
        ];
        for ev in stream {
            c.process(ev);
        }
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.sampler.thresholds(), (0.0, 0.0));
        assert_eq!(c.sampler.stored_edges(), 4); // 5 inserted, 1 deleted
        assert!(!c.sampler.sampled(Edge::new(2, 3)));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = wsd(8, 2);
        for i in 0..200u64 {
            c.process(tri(i, i + 1));
            assert!(c.sampler.stored_edges() <= 8);
        }
        assert_eq!(c.sampler.stored_edges(), 8);
        let (tau_p, tau_q) = c.sampler.thresholds();
        assert!(tau_p > 0.0 && tau_q > 0.0 && tau_q <= tau_p);
    }

    #[test]
    fn deleted_edges_leave_the_reservoir() {
        let mut c = wsd(4, 3);
        for i in 0..4u64 {
            c.process(tri(10 * i, 10 * i + 1));
        }
        assert_eq!(c.sampler.stored_edges(), 4);
        c.process(EdgeEvent::delete(Edge::new(0, 1)));
        assert_eq!(c.sampler.stored_edges(), 3);
        assert!(!c.sampler.sampled(Edge::new(0, 1)));
        // Case 3 must not touch thresholds.
        let before = c.sampler.thresholds();
        c.process(EdgeEvent::delete(Edge::new(10, 11)));
        assert_eq!(c.sampler.thresholds(), before);
    }

    #[test]
    fn tau_p_is_retained_while_non_full() {
        // Fill, force τp > 0 via an overflow insertion, then delete to
        // free space: the next insertion must still face τp > 0 (Case 1
        // with the retained threshold).
        let mut c = wsd(4, 4);
        for i in 0..5u64 {
            c.process(tri(10 * i, 10 * i + 1));
        }
        let (tau_p, _) = c.sampler.thresholds();
        assert!(tau_p > 0.0);
        c.process(EdgeEvent::delete(Edge::new(0, 1)));
        c.process(EdgeEvent::delete(Edge::new(10, 11)));
        let (tau_p_after, _) = c.sampler.thresholds();
        assert_eq!(tau_p, tau_p_after, "Case 3 must retain τp");
        // Non-full insertions never *lower* the bar.
        for i in 6..30u64 {
            c.process(tri(10 * i, 10 * i + 1));
            assert!(c.sampler.thresholds().0 >= tau_p);
        }
    }

    #[test]
    fn observer_sees_states_and_weights() {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut c = OneQuery::new(
            WsdSampler::new(
                Pattern::Triangle,
                16,
                Box::new(HeuristicWeight),
                TemporalPooling::Max,
                5,
            ),
            Pattern::Triangle,
        );
        c.sampler.set_observer(Box::new(move |e, s, w| {
            assert!(e.u() < e.v());
            log2.lock().unwrap().push((s.dim(), w));
        }));
        c.process(tri(1, 2));
        c.process(tri(2, 3));
        c.process(tri(1, 3));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|&(d, _)| d == 6));
        // Third insertion closes a triangle → heuristic weight 9·1+1.
        assert_eq!(log[2].1, 10.0);
        assert_eq!(log[0].1, 1.0);
    }

    #[test]
    fn observer_fires_without_a_fused_query() {
        // A sampler with *no* attached query counting the weight pattern
        // still observes states through its own pass.
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut sampler = WsdSampler::new(
            Pattern::Triangle,
            16,
            Box::new(HeuristicWeight),
            TemporalPooling::Max,
            5,
        );
        sampler.set_observer(Box::new(move |_, _, w| log2.lock().unwrap().push(w)));
        let mut queries: Vec<PatternQuery> = Vec::new();
        let mut scratch = EnumScratch::default();
        for ev in [tri(1, 2), tri(2, 3), tri(1, 3)] {
            sampler.process(ev, QueryCtx::new(&mut queries, &mut scratch));
        }
        assert_eq!(*log.lock().unwrap(), vec![1.0, 1.0, 10.0]);
    }

    #[test]
    fn heuristic_name_propagates() {
        let s =
            WsdSampler::new(Pattern::Wedge, 8, Box::new(HeuristicWeight), TemporalPooling::Max, 1);
        assert_eq!(s.name(), "WSD-H");
        let s = s.with_name("WSD-H (Avg)");
        assert_eq!(s.name(), "WSD-H (Avg)");
    }

    #[test]
    #[should_panic(expected = "must be ≥")]
    fn capacity_below_pattern_size_panics() {
        let _ = wsd(2, 1);
    }
}

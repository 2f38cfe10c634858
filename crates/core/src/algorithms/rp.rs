//! The random-pairing baselines, **Triest-FD** (Stefani et al., TKDD
//! 2017 \[16\]) and **ThinkD** (Shin et al. \[19\]): one uniform sample
//! `S` of the live edges, kept by random pairing ([`RpReservoir`]),
//! counted two ways. The two share the sampling trajectory — reservoir,
//! adjacency and RNG stream — bit for bit; only when a query counts
//! differs.
//!
//! **Triest-FD** (*update-on-admission*) keeps, per query, a counter `τ`
//! equal to the number of pattern instances whose edges are **all**
//! inside `S`: `τ` changes only when an edge enters or leaves the sample
//! ("the estimation is only updated when an edge is sampled", as the
//! WSD paper puts it). A query rescales by the probability that a
//! specific instance is fully sampled,
//!
//! ```text
//! κ(t) = Π_{i=0}^{|H|−1} (s − i) / (n − i),
//! ```
//!
//! where `s = |S|` and `n = |E(t)|` — valid because random pairing keeps
//! `S` uniform over the live population. The rescaling conditions on the
//! current sample size, so it needs only `s` and `n`: the random-pairing
//! deletion counters steer admission alone.
//!
//! **ThinkD** (*update-before-discard*, "think before you discard")
//! first **updates the estimates** with the arriving or departing edge
//! against the current sample — whether or not that edge will be
//! sampled — and only then updates the sample. Counting on arrival uses
//! every edge once at full information, which removes the
//! admission-probability factor from the variance and makes ThinkD
//! strictly more accurate than Triest at equal memory. On insertion
//! (the graph has `n` live edges *before* the event, the sample holds
//! `s`) the `|H|−1` partner edges are in the sample with probability
//! `Π_{i=0}^{|H|-2} (s−i)/(n−i)`, so each found instance contributes the
//! inverse of that (`inverse_inclusion`, which WRS shares). Deletions
//! subtract symmetrically with `e` excluded from both sample and
//! population counts: the partners are the other live edges, so `e`'s
//! own membership must not count toward their inclusion probability.
//!
//! The sampling decision never looks at any pattern, so one
//! [`RpSampler`] serves any number of attached queries off the same
//! uniform sample (see [`crate::session`]).

use crate::reservoir::{inverse_inclusion, Admission, RpReservoir};
use crate::session::{for_each_sample_instance, levels_of, EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{RpState, SamplerState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, LayeredLevels, Op, VertexAdjacency};

/// When a query counts the instances an edge completes.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Estimator {
    /// Into `τ`, as the edge enters or leaves the sample.
    Triest,
    /// Into the rescaled estimate, before the sample changes.
    ThinkD,
}

/// The random-pairing sampling layer of Triest-FD and ThinkD: a uniform
/// reservoir plus the sampled adjacency, feeding each attached query's
/// in-sample counter τ (Triest) or running estimate (ThinkD).
pub struct RpSampler {
    reservoir: RpReservoir,
    /// Adjacency over the sampled edges — the ID-free flavour: the
    /// count-only estimators never consume arena IDs, so carrying the
    /// arena is pure overhead here.
    adj: VertexAdjacency,
    rng: SmallRng,
    estimator: Estimator,
}

impl RpSampler {
    /// Creates a Triest-FD sampler with reservoir capacity `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn triest(capacity: usize, seed: u64) -> Self {
        Self::new(capacity, seed, Estimator::Triest)
    }

    /// Creates a ThinkD sampler with reservoir capacity `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn thinkd(capacity: usize, seed: u64) -> Self {
        Self::new(capacity, seed, Estimator::ThinkD)
    }

    fn new(capacity: usize, seed: u64, estimator: Estimator) -> Self {
        Self {
            reservoir: RpReservoir::new(capacity),
            adj: VertexAdjacency::new(),
            rng: SmallRng::seed_from_u64(seed),
            estimator,
        }
    }

    /// Slot-order snapshot of the reservoir — white-box surface for the
    /// admission differential suite. Slot order is observable: the
    /// uniform victim draw indexes it, so every admission path must
    /// reproduce it exactly.
    pub fn reservoir_snapshot(&self) -> Vec<Edge> {
        self.reservoir.iter().collect()
    }

    /// Adds `sign ×` the instances `e` completes to each query's τ —
    /// one layered count over the queries' levels.
    fn count_into_taus(&self, e: Edge, ctx: QueryCtx<'_>, sign: i64) {
        let QueryCtx { queries, scratch } = ctx;
        let counts = levels_of(queries).count_completed(&self.adj, e, scratch);
        for q in queries.iter_mut() {
            q.tau += sign * counts[q.level] as i64;
        }
    }

    /// Adds `sign ×` each query's rescaled completed-instance count for
    /// sample size `s` over population `n` — one layered count over the
    /// queries' levels (the counts are integers and the rescale is
    /// per-query).
    fn update_estimates(&self, e: Edge, ctx: QueryCtx<'_>, sign: f64, s: u64, n: u64) {
        let QueryCtx { queries, scratch } = ctx;
        let counts = levels_of(queries).count_completed(&self.adj, e, scratch);
        for q in queries.iter_mut() {
            let found = counts[q.level];
            if found > 0 {
                let partners = q.pattern.num_edges() as u64 - 1;
                q.estimate += sign * found as f64 * inverse_inclusion(partners, s, n);
            }
        }
    }

    /// Adds `e` to the sampled adjacency; Triest first counts the
    /// instances it completes there.
    fn add_to_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        if self.estimator == Estimator::Triest {
            self.count_into_taus(e, ctx, 1);
        }
        self.adj.insert(e);
    }

    /// Removes `e` from the sampled adjacency; Triest then uncounts the
    /// instances it completed there.
    fn remove_from_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        self.adj.remove(e);
        if self.estimator == Estimator::Triest {
            self.count_into_taus(e, ctx, -1);
        }
    }
}

impl EdgeSampler for RpSampler {
    fn process(&mut self, ev: EdgeEvent, mut ctx: QueryCtx<'_>) {
        let e = ev.edge;
        match ev.op {
            Op::Insert => {
                if self.estimator == Estimator::ThinkD {
                    // Update first, against the pre-event sample/population.
                    let n = self.reservoir.population();
                    let s = self.reservoir.len() as u64;
                    self.update_estimates(e, ctx.reborrow(), 1.0, s, n);
                }
                match self.reservoir.offer(e, &mut self.rng) {
                    Admission::Added => self.add_to_sample(e, ctx),
                    Admission::Replaced(victim) => {
                        self.remove_from_sample(victim, ctx.reborrow());
                        self.add_to_sample(e, ctx);
                    }
                    Admission::Skipped => {}
                }
            }
            Op::Delete => {
                let in_sample = self.reservoir.contains(e);
                if in_sample {
                    self.remove_from_sample(e, ctx.reborrow());
                }
                if self.estimator == Estimator::ThinkD {
                    // Exclude e from both the sample and the population
                    // when computing partner inclusion probabilities.
                    let s = self.reservoir.len() as u64 - in_sample as u64;
                    let n = self.reservoir.population() - 1;
                    self.update_estimates(e, ctx, -1.0, s, n);
                }
                self.reservoir.delete(e);
            }
        }
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        if self.estimator == Estimator::ThinkD {
            return query.estimate;
        }
        let m = query.pattern.num_edges() as u64;
        let s = self.reservoir.len() as u64;
        let n = self.reservoir.population();
        if s < m {
            return 0.0;
        }
        // κ = Π (s-i)/(n-i); s ≤ n always, so κ ∈ (0, 1]. Triest divides
        // τ by κ rather than multiplying by `inverse_inclusion`, whose
        // quotients round differently.
        let mut kappa = 1.0;
        for i in 0..m {
            kappa *= (s - i) as f64 / (n - i) as f64;
        }
        query.tau as f64 / kappa
    }

    /// Warm start from the instances fully inside the sample. Triest's τ
    /// is *exactly* their number, so an attached query is
    /// indistinguishable from one that tracked the sample from event 0.
    /// ThinkD rescales their number by `κ⁻¹`, `κ = Π_{i<|H|} (s−i)/(n−i)`
    /// being the probability that an instance is in the uniform sample.
    fn warm_start(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        let edges: Vec<(Edge, f64)> = self.adj.edges().map(|e| (e, 0.0)).collect();
        let mut counts = [0u64; LayeredLevels::COUNT];
        for_each_sample_instance(levels_of(queries), &edges, scratch, |level, _| {
            counts[level] += 1
        });
        let s = self.reservoir.len() as u64;
        let n = self.reservoir.population();
        for q in queries {
            let found = counts[q.level];
            (q.tau, q.estimate) = match self.estimator {
                Estimator::Triest => (found as i64, 0.0),
                Estimator::ThinkD if found == 0 => (0, 0.0),
                Estimator::ThinkD => {
                    (0, found as f64 * inverse_inclusion(q.pattern.num_edges() as u64, s, n))
                }
            };
        }
    }

    fn stored_edges(&self) -> usize {
        self.reservoir.len()
    }

    fn name(&self) -> &str {
        match self.estimator {
            Estimator::Triest => "Triest",
            Estimator::ThinkD => "ThinkD",
        }
    }

    fn pattern_budget(&self) -> usize {
        self.reservoir.capacity()
    }

    fn snapshot_state(&self) -> SamplerState {
        let (edges, d_in, d_out, population) = self.reservoir.snapshot_state();
        SamplerState::Rp {
            reservoir: RpState { edges, d_in, d_out, population },
            adj: self.adj.layout_snapshot(),
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &SamplerState) {
        let SamplerState::Rp { reservoir, adj, rng } = state else {
            panic!("snapshot algorithm mismatch: {} cannot restore this state", self.name());
        };
        self.reservoir.restore_state(
            &reservoir.edges,
            reservoir.d_in,
            reservoir.d_out,
            reservoir.population,
        );
        self.adj = VertexAdjacency::from_layout(adj);
        self.rng = SmallRng::from_state(*rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::OneQuery;
    use wsd_graph::Pattern;

    fn triest(pattern: Pattern, capacity: usize, seed: u64) -> OneQuery<RpSampler> {
        OneQuery::new(RpSampler::triest(capacity, seed), pattern)
    }

    fn thinkd(pattern: Pattern, capacity: usize, seed: u64) -> OneQuery<RpSampler> {
        OneQuery::new(RpSampler::thinkd(capacity, seed), pattern)
    }

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn triest_exact_when_sample_holds_everything() {
        let mut c = triest(Pattern::Triangle, 100, 1);
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4), ins(2, 4)] {
            c.process(ev);
        }
        // s == n → κ = 1, τ exact: triangles {1,2,3} and {2,3,4}.
        assert_eq!(c.query.tau, 2);
        assert_eq!(c.estimate(), 2.0);
        c.process(del(2, 3));
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn triest_estimate_zero_below_pattern_size() {
        let mut c = triest(Pattern::Triangle, 10, 2);
        c.process(ins(1, 2));
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn triest_capacity_respected_and_tau_consistent() {
        let mut c = triest(Pattern::Triangle, 16, 3);
        // A clique stream guarantees plenty of triangles.
        for a in 0..12u64 {
            for b in (a + 1)..12 {
                c.process(ins(a, b));
                assert!(c.sampler.stored_edges() <= 16);
            }
        }
        // τ must equal the exact triangle count of the sampled graph.
        let recount = wsd_graph::exact::count_static(Pattern::Triangle, &c.sampler.adj) as i64;
        assert_eq!(c.query.tau, recount);
        assert!(c.estimate() > 0.0);
    }

    #[test]
    fn triest_deletion_of_unsampled_edge_keeps_tau() {
        let mut c = triest(Pattern::Triangle, 3, 4);
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                c.process(ins(a, b));
            }
        }
        // Delete edges until one is certainly unsampled (capacity 3 of 15).
        let tau_validity = |c: &OneQuery<RpSampler>| {
            wsd_graph::exact::count_static(Pattern::Triangle, &c.sampler.adj) as i64 == c.query.tau
        };
        assert!(tau_validity(&c));
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                c.process(del(a, b));
                assert!(tau_validity(&c));
            }
        }
        assert_eq!(c.sampler.stored_edges(), 0);
        assert_eq!(c.query.tau, 0);
    }

    #[test]
    fn triest_name_and_pattern() {
        let c = triest(Pattern::FourClique, 10, 5);
        assert_eq!(c.sampler.name(), "Triest");
        assert_eq!(c.query.pattern(), Pattern::FourClique);
    }

    #[test]
    fn thinkd_exact_when_sample_holds_everything() {
        let mut c = thinkd(Pattern::Triangle, 100, 1);
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4), ins(2, 4), del(2, 3)] {
            c.process(ev);
        }
        // Everything sampled → all probabilities 1 → exact: 2 − 2 = 0.
        assert_eq!(c.estimate(), 0.0);
        c.process(ins(2, 3));
        assert_eq!(c.estimate(), 2.0);
    }

    #[test]
    fn thinkd_wedges_exact_in_sample_everything_mode() {
        let mut c = thinkd(Pattern::Wedge, 100, 2);
        for leaf in 1..=5u64 {
            c.process(ins(0, leaf));
        }
        assert_eq!(c.estimate(), 10.0); // C(5,2)
        c.process(del(0, 1));
        assert_eq!(c.estimate(), 6.0); // C(4,2)
    }

    #[test]
    fn thinkd_capacity_respected() {
        let mut c = thinkd(Pattern::Triangle, 8, 3);
        for a in 0..15u64 {
            for b in (a + 1)..15 {
                c.process(ins(a, b));
                assert!(c.sampler.stored_edges() <= 8);
            }
        }
        assert!(c.estimate() > 0.0);
        assert_eq!(c.sampler.name(), "ThinkD");
    }
}

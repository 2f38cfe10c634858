//! **Triest-FD** baseline (Stefani et al., TKDD 2017 \[16\]) — uniform
//! sampling with random pairing, *update-on-admission*.
//!
//! Triest-FD maintains a uniform sample `S` of the live edges via random
//! pairing and, per query, a counter `τ` equal to the number of pattern
//! instances whose edges are **all** inside `S`: `τ` is updated
//! incrementally whenever an edge enters or leaves the sample ("the
//! estimation is only updated when an edge is sampled", as the WSD paper
//! puts it). A query rescales by the probability that a specific
//! instance is fully sampled,
//!
//! ```text
//! κ(t) = Π_{i=0}^{|H|−1} (s − i) / (n − i),
//! ```
//!
//! where `s = |S|` and `n = |E(t)|` — valid because RP keeps `S` uniform
//! over the live population. The rescaling conditions on the current
//! sample size, so it needs only `s` and `n`: the random-pairing
//! deletion counters steer admission alone.
//!
//! Because the sampling decision never looks at any pattern, one
//! [`TriestSampler`] serves any number of attached queries off the same
//! uniform sample (see [`crate::session`]).

use crate::reservoir::{Admission, RpReservoir};
use crate::session::{levels_of, EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{RpState, SamplerState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, VertexAdjacency};

/// The Triest-FD sampling layer: a random-pairing uniform reservoir
/// plus the sampled adjacency, maintaining each attached query's
/// in-sample instance counter τ.
pub struct TriestSampler {
    reservoir: RpReservoir,
    /// Adjacency over the sampled edges — the ID-free flavour: the
    /// count-only estimators never consume arena IDs, so carrying the
    /// arena (the PR-2 throughput give-back) is pure overhead here.
    adj: VertexAdjacency,
    rng: SmallRng,
}

impl TriestSampler {
    /// Creates a Triest-FD sampler with reservoir capacity `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            reservoir: RpReservoir::new(capacity),
            adj: VertexAdjacency::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The sampled adjacency — exposed for white-box tests.
    pub fn sampled_graph(&self) -> &VertexAdjacency {
        &self.adj
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

    fn add_to_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        self.count_into_taus(e, ctx, 1);
        self.adj.insert(e);
    }

    fn remove_from_sample(&mut self, e: Edge, ctx: QueryCtx<'_>) {
        self.adj.remove(e);
        self.count_into_taus(e, ctx, -1);
    }
}

impl EdgeSampler for TriestSampler {
    fn process(&mut self, ev: EdgeEvent, mut ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => match self.reservoir.offer(ev.edge, &mut self.rng) {
                Admission::Added => self.add_to_sample(ev.edge, ctx),
                Admission::Replaced(victim) => {
                    self.remove_from_sample(victim, ctx.reborrow());
                    self.add_to_sample(ev.edge, ctx);
                }
                Admission::Skipped => {}
            },
            Op::Delete => {
                if self.reservoir.delete(ev.edge) {
                    self.remove_from_sample(ev.edge, ctx);
                }
            }
        }
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        let m = query.pattern.num_edges() as u64;
        let s = self.reservoir.len() as u64;
        let n = self.reservoir.population();
        if s < m {
            return 0.0;
        }
        // κ = Π (s-i)/(n-i); s ≤ n always, so κ ∈ (0, 1].
        let mut kappa = 1.0;
        for i in 0..m {
            kappa *= (s - i) as f64 / (n - i) as f64;
        }
        query.tau as f64 / kappa
    }

    /// τ is *exactly* the number of pattern instances inside the current
    /// sample, so a warm start recounts them statically — an attached
    /// query is indistinguishable from one that tracked the sample from
    /// event 0.
    fn warm_start(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        let counts = crate::session::sample_instance_counts(&self.adj, queries, scratch);
        for q in queries {
            q.estimate = 0.0;
            q.tau = counts[q.level] as i64;
        }
    }

    fn stored_edges(&self) -> usize {
        self.reservoir.len()
    }

    fn name(&self) -> &str {
        "Triest"
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

    fn triest(pattern: Pattern, capacity: usize, seed: u64) -> OneQuery<TriestSampler> {
        OneQuery::new(TriestSampler::new(capacity, seed), pattern)
    }

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn exact_when_sample_holds_everything() {
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
    fn estimate_zero_below_pattern_size() {
        let mut c = triest(Pattern::Triangle, 10, 2);
        c.process(ins(1, 2));
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn capacity_respected_and_tau_consistent() {
        let mut c = triest(Pattern::Triangle, 16, 3);
        // A clique stream guarantees plenty of triangles.
        for a in 0..12u64 {
            for b in (a + 1)..12 {
                c.process(ins(a, b));
                assert!(c.sampler.stored_edges() <= 16);
            }
        }
        // τ must equal the exact triangle count of the sampled graph.
        let recount =
            wsd_graph::exact::count_static(Pattern::Triangle, c.sampler.sampled_graph()) as i64;
        assert_eq!(c.query.tau, recount);
        assert!(c.estimate() > 0.0);
    }

    #[test]
    fn deletion_of_unsampled_edge_keeps_tau() {
        let mut c = triest(Pattern::Triangle, 3, 4);
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                c.process(ins(a, b));
            }
        }
        // Delete edges until one is certainly unsampled (capacity 3 of 15).
        let tau_validity = |c: &OneQuery<TriestSampler>| {
            wsd_graph::exact::count_static(Pattern::Triangle, c.sampler.sampled_graph()) as i64
                == c.query.tau
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
    fn name_and_pattern() {
        let c = triest(Pattern::FourClique, 10, 5);
        assert_eq!(c.sampler.name(), "Triest");
        assert_eq!(c.query.pattern(), Pattern::FourClique);
    }
}

//! **ThinkD** baseline (Shin et al. \[19\]) — uniform sampling with random
//! pairing, *update-before-discard* ("think before you discard").
//!
//! ThinkD processes every event in two steps: first it **updates the
//! estimates** using the arriving/departing edge against the current
//! sample — regardless of whether that edge will be sampled — and only
//! then updates the sample. Counting on arrival uses every edge once at
//! full information, which removes the admission-probability factor from
//! the variance and makes ThinkD strictly more accurate than Triest at
//! equal memory.
//!
//! Per-instance weight on insertion (graph has `n` live edges *before*
//! the event, sample holds `s`): the `|H|−1` partner edges are in the
//! sample with probability `Π_{i=0}^{|H|-2} (s−i)/(n−i)`, so each found
//! instance contributes the inverse of that. Deletions subtract
//! symmetrically with `e` excluded from both sample and population
//! counts: the partners are the other live edges, so `e`'s own
//! membership must not count toward their inclusion probability.
//!
//! The sampling decision never looks at any pattern, so one
//! [`ThinkDSampler`] serves any number of attached queries off the same
//! uniform sample (see [`crate::session`]).

use crate::reservoir::{Admission, RpReservoir};
use crate::session::{levels_of, EdgeSampler, PatternQuery, QueryCtx};
use crate::snapshot::{RpState, SamplerState};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, EdgeEvent, Op, VertexAdjacency};

/// The ThinkD (accurate variant) sampling layer.
pub struct ThinkDSampler {
    reservoir: RpReservoir,
    /// ID-free sampled adjacency (see `TriestSampler`: the count-only
    /// path pays no arena bookkeeping).
    adj: VertexAdjacency,
    rng: SmallRng,
}

impl ThinkDSampler {
    /// Creates a ThinkD sampler with reservoir capacity `M`.
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

    /// Slot-order snapshot of the reservoir — white-box surface for the
    /// admission differential suite (see
    /// [`TriestSampler::reservoir_snapshot`]).
    ///
    /// [`TriestSampler::reservoir_snapshot`]:
    /// crate::algorithms::TriestSampler::reservoir_snapshot
    pub fn reservoir_snapshot(&self) -> Vec<Edge> {
        self.reservoir.iter().collect()
    }

    /// Inverse probability that `partners` specific live edges are all
    /// sampled, for sample size `s` over population `n`.
    fn inv_prob(partners: u64, s: u64, n: u64) -> f64 {
        let mut inv = 1.0;
        for i in 0..partners {
            // Found instances imply s > i, and s ≤ n always.
            inv *= (n - i) as f64 / (s - i) as f64;
        }
        inv
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
                q.estimate += sign * found as f64 * Self::inv_prob(partners, s, n);
            }
        }
    }
}

impl EdgeSampler for ThinkDSampler {
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>) {
        match ev.op {
            Op::Insert => {
                // Update first, against the pre-event sample/population.
                let n = self.reservoir.population();
                let s = self.reservoir.len() as u64;
                self.update_estimates(ev.edge, ctx, 1.0, s, n);
                match self.reservoir.offer(ev.edge, &mut self.rng) {
                    Admission::Added => {
                        self.adj.insert(ev.edge);
                    }
                    Admission::Replaced(victim) => {
                        self.adj.remove(victim);
                        self.adj.insert(ev.edge);
                    }
                    Admission::Skipped => {}
                }
            }
            Op::Delete => {
                // Exclude e from both the sample and the population when
                // computing partner inclusion probabilities.
                let in_sample = self.reservoir.contains(ev.edge);
                let s = self.reservoir.len() as u64 - in_sample as u64;
                let n = self.reservoir.population() - 1;
                if in_sample {
                    self.adj.remove(ev.edge);
                }
                self.update_estimates(ev.edge, ctx, -1.0, s, n);
                self.reservoir.delete(ev.edge);
            }
        }
    }

    fn query_estimate(&self, query: &PatternQuery) -> f64 {
        query.estimate
    }

    /// Warm start: every instance fully inside the uniform sample is
    /// there with probability `κ = Π_{i<|H|} (s−i)/(n−i)`, so the count
    /// of in-sample instances rescaled by `κ⁻¹` seeds the estimate.
    fn warm_start(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        let counts = crate::session::sample_instance_counts(&self.adj, queries, scratch);
        let s = self.reservoir.len() as u64;
        let n = self.reservoir.population();
        for q in queries {
            let found = counts[q.level];
            q.tau = 0;
            q.estimate = if found == 0 {
                0.0
            } else {
                found as f64 * Self::inv_prob(q.pattern.num_edges() as u64, s, n)
            };
        }
    }

    fn stored_edges(&self) -> usize {
        self.reservoir.len()
    }

    fn name(&self) -> &str {
        "ThinkD"
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

    fn thinkd(pattern: Pattern, capacity: usize, seed: u64) -> OneQuery<ThinkDSampler> {
        OneQuery::new(ThinkDSampler::new(capacity, seed), pattern)
    }

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn exact_when_sample_holds_everything() {
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
    fn wedges_exact_in_sample_everything_mode() {
        let mut c = thinkd(Pattern::Wedge, 100, 2);
        for leaf in 1..=5u64 {
            c.process(ins(0, leaf));
        }
        assert_eq!(c.estimate(), 10.0); // C(5,2)
        c.process(del(0, 1));
        assert_eq!(c.estimate(), 6.0); // C(4,2)
    }

    #[test]
    fn inv_prob_formula() {
        assert_eq!(ThinkDSampler::inv_prob(2, 10, 10), 1.0);
        assert_eq!(ThinkDSampler::inv_prob(2, 5, 10), (10.0 / 5.0) * (9.0 / 4.0));
        assert_eq!(ThinkDSampler::inv_prob(0, 5, 10), 1.0);
    }

    #[test]
    fn capacity_respected() {
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

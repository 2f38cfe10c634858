//! Uniform reservoir with random pairing (RP) — the substrate shared by
//! the Triest, ThinkD and WRS baselines (paper §VI, \[36\]).
//!
//! Random pairing extends classic reservoir sampling to deletions: each
//! deletion is "paired with" a later insertion that compensates it.
//! The reservoir tracks two counters of *uncompensated* deletions —
//! `d_i` (deletions of edges that were in the sample) and `d_o`
//! (deletions of edges that were not) — and, while any are outstanding,
//! new insertions fill the freed slots with probability `d_i / (d_i +
//! d_o)` instead of running the classic admission test. The result is a
//! uniform sample of the *current* edge population at every step.

use rand::rngs::SmallRng;
use rand::RngExt;
use wsd_graph::{Edge, FxHashMap};

/// The inverse of the probability that `partners` specific live edges
/// are all in a uniform sample of `s` edges over a population of `n`:
/// `Π_{i<partners} (n−i)/(s−i)`. ThinkD weighs each instance an event
/// completes by it, and WRS each instance by its reservoir partners.
/// Found instances imply `partners ≤ s`, and `s ≤ n` always.
#[inline]
pub(crate) fn inverse_inclusion(partners: u64, s: u64, n: u64) -> f64 {
    let mut inv = 1.0;
    for i in 0..partners {
        inv *= (n - i) as f64 / (s - i) as f64;
    }
    inv
}

/// A bounded uniform edge sample with O(1) insert, O(1) remove-by-edge
/// and O(1) uniform random eviction, plus random-pairing deletion
/// counters.
#[derive(Clone, Debug)]
pub struct RpReservoir {
    capacity: usize,
    edges: Vec<Edge>,
    pos: FxHashMap<Edge, usize>,
    d_in: u64,
    d_out: u64,
    /// Current population size: live edges in the streamed graph
    /// (insertions minus deletions seen by this reservoir).
    population: u64,
}

/// What [`RpReservoir::offer`] did with the candidate edge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Admission {
    /// The edge entered the sample without evicting anything.
    Added,
    /// The edge entered the sample, evicting the returned edge.
    Replaced(Edge),
    /// The edge was not sampled.
    Skipped,
}

impl RpReservoir {
    /// Creates an empty reservoir with the given capacity `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            edges: Vec::with_capacity(capacity),
            pos: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            d_in: 0,
            d_out: 0,
            population: 0,
        }
    }

    /// Sample size `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the sample is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Capacity `M`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if the edge is currently sampled.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.pos.contains_key(&e)
    }

    /// Uncompensated deletions `(d_i, d_o)`.
    pub fn uncompensated(&self) -> (u64, u64) {
        (self.d_in, self.d_out)
    }

    /// Live edges in the streamed graph, `n(t) = |E(t)|` (insertions
    /// minus deletions seen by this reservoir) — the population the
    /// sample is uniform over, used by the baseline estimators.
    #[inline]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Iterates the sampled edges.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Processes an insertion event, returning what happened to the edge.
    ///
    /// The caller is responsible for updating any auxiliary structures
    /// (adjacency, counters) according to the returned [`Admission`].
    pub fn offer(&mut self, e: Edge, rng: &mut SmallRng) -> Admission {
        debug_assert!(!self.contains(e), "offer of an edge already in the sample");
        self.population += 1;
        let d = self.d_in + self.d_out;
        if d == 0 {
            // Classic reservoir sampling over the live population.
            if self.edges.len() < self.capacity {
                self.insert_raw(e);
                return Admission::Added;
            }
            let admit = rng.random_range(0.0..1.0) < self.capacity as f64 / self.population as f64;
            if admit {
                let victim = self.edges[rng.random_range(0..self.edges.len())];
                self.remove_raw(victim);
                self.insert_raw(e);
                return Admission::Replaced(victim);
            }
            Admission::Skipped
        } else {
            // Random pairing: compensate an uncompensated deletion.
            let take = rng.random_range(0.0..1.0) < self.d_in as f64 / d as f64;
            if take {
                self.d_in -= 1;
                self.insert_raw(e);
                Admission::Added
            } else {
                self.d_out -= 1;
                Admission::Skipped
            }
        }
    }

    /// Processes a deletion event. Returns `true` if the edge was in the
    /// sample (and has been removed).
    pub fn delete(&mut self, e: Edge) -> bool {
        debug_assert!(self.population > 0, "delete on an empty population");
        self.population -= 1;
        if self.pos.contains_key(&e) {
            self.remove_raw(e);
            self.d_in += 1;
            true
        } else {
            self.d_out += 1;
            false
        }
    }

    /// The serializable dynamic state: the sampled edges *verbatim in
    /// slot order* (the uniform victim draw in [`RpReservoir::offer`]
    /// indexes slots, so order is observable), plus the RP counters and
    /// population. The position index is derived and not captured.
    pub fn snapshot_state(&self) -> (Vec<Edge>, u64, u64, u64) {
        (self.edges.clone(), self.d_in, self.d_out, self.population)
    }

    /// Restores the dynamic state captured by
    /// [`RpReservoir::snapshot_state`], replaying the slot order
    /// verbatim and rebuilding the position index. The capacity is
    /// construction state and stays as built.
    ///
    /// # Panics
    ///
    /// Panics if `edges` exceeds the capacity or holds duplicates.
    pub fn restore_state(&mut self, edges: &[Edge], d_in: u64, d_out: u64, population: u64) {
        assert!(edges.len() <= self.capacity, "snapshot exceeds reservoir capacity");
        self.edges.clear();
        self.edges.extend_from_slice(edges);
        self.pos.clear();
        for (i, &e) in edges.iter().enumerate() {
            let prev = self.pos.insert(e, i);
            assert!(prev.is_none(), "duplicate edge in reservoir snapshot");
        }
        self.d_in = d_in;
        self.d_out = d_out;
        self.population = population;
    }

    fn insert_raw(&mut self, e: Edge) {
        let i = self.edges.len();
        self.edges.push(e);
        let prev = self.pos.insert(e, i);
        debug_assert!(prev.is_none());
    }

    fn remove_raw(&mut self, e: Edge) {
        let i = self.pos.remove(&e).expect("remove_raw of absent edge");
        self.edges.swap_remove(i);
        if i < self.edges.len() {
            self.pos.insert(self.edges[i], i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsd_graph::FxHashMap;

    fn edge(i: u64) -> Edge {
        Edge::new(i, i + 100_000)
    }

    #[test]
    fn fills_to_capacity_then_replaces() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut r = RpReservoir::new(5);
        for i in 0..5 {
            assert_eq!(r.offer(edge(i), &mut rng), Admission::Added);
        }
        assert_eq!(r.len(), 5);
        let mut replaced = 0;
        for i in 5..200 {
            match r.offer(edge(i), &mut rng) {
                Admission::Replaced(_) => replaced += 1,
                Admission::Skipped => {}
                Admission::Added => panic!("cannot add past capacity"),
            }
            assert_eq!(r.len(), 5);
        }
        assert!(replaced > 0);
    }

    #[test]
    fn delete_tracks_counters() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut r = RpReservoir::new(3);
        for i in 0..3 {
            r.offer(edge(i), &mut rng);
        }
        assert!(r.delete(edge(0)));
        assert!(!r.delete(edge(99)));
        assert_eq!(r.uncompensated(), (1, 1));
        assert_eq!(r.len(), 2);
        assert!(!r.contains(edge(0)));
    }

    #[test]
    fn rp_compensation_refills() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut r = RpReservoir::new(4);
        for i in 0..4 {
            r.offer(edge(i), &mut rng);
        }
        for i in 0..4 {
            r.delete(edge(i));
        }
        assert_eq!(r.uncompensated(), (4, 0));
        // All uncompensated deletions were of sampled edges, so the next
        // four offers must all be admitted (d_i/(d_i+d_o) = 1).
        for i in 10..14 {
            assert_eq!(r.offer(edge(i), &mut rng), Admission::Added);
        }
        assert_eq!(r.uncompensated(), (0, 0));
        assert_eq!(r.len(), 4);
    }

    /// Statistical uniformity: after a stream of inserts (and deletes)
    /// every surviving edge should be sampled with equal frequency.
    #[test]
    fn sampling_is_uniform() {
        let n_edges = 40u64;
        let m = 10usize;
        let runs = 4000;
        let mut freq: FxHashMap<Edge, u32> = FxHashMap::default();
        for seed in 0..runs {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut r = RpReservoir::new(m);
            for i in 0..n_edges {
                r.offer(edge(i), &mut rng);
            }
            // Delete a fixed half, then insert replacements.
            for i in 0..(n_edges / 2) {
                r.delete(edge(i));
            }
            for i in n_edges..(n_edges + 10) {
                r.offer(edge(i), &mut rng);
            }
            for e in r.iter() {
                *freq.entry(e).or_default() += 1;
            }
        }
        // Population: edges 20..50 (30 edges). RP does not refill the
        // sample to capacity until deletions are compensated, so the
        // absolute inclusion probability is below M/30; *uniformity*
        // means every live edge shares the same frequency, old or new.
        let total: f64 = (20..50).map(|i| *freq.get(&edge(i)).unwrap_or(&0) as f64).sum();
        let mean = total / 30.0;
        assert!(mean > 0.0);
        for i in (n_edges / 2)..(n_edges + 10) {
            let f = *freq.get(&edge(i)).unwrap_or(&0) as f64;
            assert!(
                (f - mean).abs() < 0.15 * mean,
                "edge {i} frequency {f} deviates from mean {mean}"
            );
        }
        // Deleted edges must never be sampled.
        for i in 0..(n_edges / 2) {
            assert!(!freq.contains_key(&edge(i)), "deleted edge {i} sampled");
        }
    }

    #[test]
    fn inverse_inclusion_formula() {
        assert_eq!(inverse_inclusion(2, 10, 10), 1.0);
        assert_eq!(inverse_inclusion(2, 5, 10), (10.0 / 5.0) * (9.0 / 4.0));
        assert_eq!(inverse_inclusion(0, 5, 10), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RpReservoir::new(0);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut r = RpReservoir::new(6);
        for i in 0..30 {
            r.offer(edge(i), &mut rng);
            if i % 5 == 4 {
                r.delete(edge(i - 2));
            }
        }
        let (edges, d_in, d_out, population) = r.snapshot_state();
        let mut restored = RpReservoir::new(6);
        restored.restore_state(&edges, d_in, d_out, population);
        assert_eq!(restored.iter().collect::<Vec<_>>(), r.iter().collect::<Vec<_>>());
        assert_eq!(restored.uncompensated(), r.uncompensated());
        assert_eq!(restored.population(), r.population());
        // Identical RNG → identical admissions and victim slots forever.
        let mut rng_b = SmallRng::from_state(rng.state());
        for i in 30..80 {
            let a = r.offer(edge(i), &mut rng);
            let b = restored.offer(edge(i), &mut rng_b);
            assert_eq!(a, b, "offer {i} diverged after restore");
            if i % 7 == 0 {
                assert_eq!(r.delete(edge(i - 3)), restored.delete(edge(i - 3)));
            }
        }
        assert_eq!(restored.iter().collect::<Vec<_>>(), r.iter().collect::<Vec<_>>());
    }
}

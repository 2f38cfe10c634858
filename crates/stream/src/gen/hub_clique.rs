//! Hub-heavy synthetic: high-degree stars overlaid on a dense clique.
//!
//! *Hub–hub* edge events — both endpoints with large neighbourhoods,
//! past the adjacency's hash-index threshold — are rare in the organic
//! growth models. This generator makes them the common case: a `clique`
//! of mutually adjacent core vertices (every core–core event is a
//! hub–hub intersection) plus `spokes` leaves, each attached to **two**
//! distinct cores chosen at random. The fanout-2 spokes drive core
//! degrees far beyond the clique order while keeping any two cores'
//! neighbourhoods mostly *disjoint* — so a hub–hub intersection walks a
//! large indexed neighbourhood whose probes mostly miss (and each spoke
//! still closes a wedge between its two cores, keeping
//! triangle/4-clique counts rich).
//!
//! Edge order interleaves clique and spoke edges pseudo-randomly so
//! reservoir samplers see hub structure throughout the stream rather
//! than as a prefix burst.

use rand::rngs::SmallRng;
use rand::RngExt;
use wsd_graph::{Edge, Vertex};

/// Generates the hub-clique graph.
///
/// Vertices `0..clique` form a complete graph; vertices
/// `clique..clique + spokes` are leaves, each attached to two distinct
/// cores. Output: `C(clique, 2) + 2·spokes` edges, shuffled
/// deterministically by `rng`.
pub fn generate(clique: u64, spokes: u64, rng: &mut SmallRng) -> Vec<Edge> {
    assert!(clique >= 2, "hub-clique core must have at least 2 vertices");
    let mut edges: Vec<Edge> =
        Vec::with_capacity((clique * (clique - 1) / 2 + 2 * spokes) as usize);
    for a in 0..clique {
        for b in (a + 1)..clique {
            edges.push(Edge::new(a, b));
        }
    }
    for leaf in 0..spokes {
        let l: Vertex = clique + leaf;
        let c1 = rng.random_range(0..clique);
        let mut c2 = rng.random_range(0..clique - 1);
        if c2 >= c1 {
            c2 += 1;
        }
        edges.push(Edge::new(c1, l));
        edges.push(Edge::new(c2, l));
    }
    // Fisher–Yates, so hub–hub events are spread over the whole stream.
    for i in (1..edges.len()).rev() {
        let j = rng.random_range(0..=i);
        edges.swap(i, j);
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsd_graph::FxHashMap;

    #[test]
    fn edge_count_and_degrees() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (k, s) = (12u64, 200u64);
        let edges = generate(k, s, &mut rng);
        assert_eq!(edges.len() as u64, k * (k - 1) / 2 + 2 * s);
        let mut deg: FxHashMap<Vertex, u64> = FxHashMap::default();
        for e in &edges {
            *deg.entry(e.u()).or_default() += 1;
            *deg.entry(e.v()).or_default() += 1;
        }
        // Core vertices: the other cores plus their share of spokes —
        // always hubs relative to the leaves.
        let mut core_total = 0;
        for core in 0..k {
            assert!(deg[&core] >= k - 1, "core {core}");
            core_total += deg[&core] - (k - 1);
        }
        assert_eq!(core_total, 2 * s, "every spoke endpoint lands on a core");
        // Leaves: exactly two distinct cores each.
        for leaf in k..(k + s) {
            assert_eq!(deg[&leaf], 2, "leaf {leaf}");
        }
        for e in &edges {
            assert!(e.u() < k, "canonical smaller endpoint is always a core: {e:?}");
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_seed_sensitive() {
        let gen = |seed| generate(8, 64, &mut SmallRng::seed_from_u64(seed));
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}

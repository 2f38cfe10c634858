//! Synthetic graph generators.
//!
//! Each generator produces a **simple undirected graph as an ordered edge
//! list**: the order is the *natural* order — the order in which edges
//! appear as the network grows — which is the paper's default stream
//! ordering. All generators are deterministic given a seed.
//!
//! The models and the dataset categories they stand in for (each model's
//! mechanism produces its category's signature structure; see
//! [`crate::dataset`]):
//!
//! | Model | Stands in for | Key property reproduced |
//! |---|---|---|
//! | [`forest_fire`] | the paper's synthetic FF datasets | densification, heavy tails, communities |
//! | [`ba`] (Barabási–Albert) | citation graphs | preferential-attachment degree skew |
//! | [`holme_kim`] | online social networks | heavy tails **and** high clustering |
//! | [`copying`] | web graphs | copied link lists → bipartite cores |
//! | [`community`] | community networks | dense intra-community structure |
//! | [`er`] (Erdős–Rényi) | — (tests/benchmarks) | fully unstructured baseline |
//! | [`hub_clique`] | — (hub–hub stress) | adversarially hub-skewed intersections |

pub mod ba;
pub mod community;
pub mod copying;
pub mod er;
pub mod forest_fire;
pub mod holme_kim;
pub mod hub_clique;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wsd_graph::Edge;

/// Configuration for one synthetic generator run.
///
/// The enum form (rather than a trait object) keeps configurations
/// `Copy`-cheap, comparable, and trivially storable in the dataset
/// registry.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum GeneratorConfig {
    /// Erdős–Rényi `G(n, m)`: `edges` distinct uniform random pairs.
    ErdosRenyi {
        /// Number of vertices.
        vertices: u64,
        /// Number of edges.
        edges: usize,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Number of vertices.
        vertices: u64,
        /// Edges added per arriving vertex (`m`).
        edges_per_vertex: usize,
    },
    /// Holme–Kim: preferential attachment with a triad-formation step.
    HolmeKim {
        /// Number of vertices.
        vertices: u64,
        /// Edges added per arriving vertex (`m`).
        edges_per_vertex: usize,
        /// Probability of a triad-formation step for each non-initial
        /// link, in `[0, 1]`. Higher values → higher clustering.
        triad_prob: f64,
    },
    /// Forest Fire `G(n, p)` (Leskovec et al.), the paper's synthetic
    /// model.
    ForestFire {
        /// Number of vertices.
        vertices: u64,
        /// Forward-burning probability `p` (paper uses 0.5).
        forward_prob: f64,
    },
    /// Kleinberg-style copying model.
    Copying {
        /// Number of vertices.
        vertices: u64,
        /// Out-links created per arriving vertex.
        out_degree: usize,
        /// Probability of copying a prototype link instead of linking
        /// uniformly at random, in `[0, 1]`.
        copy_prob: f64,
    },
    /// Hub-heavy stress graph: a dense core clique whose members carry
    /// large, mostly disjoint spoke fringes (each leaf attaches to two
    /// random cores), shuffled into one stream — makes hub–hub
    /// intersections over large indexed neighbourhoods, whose probes
    /// mostly miss, the common case instead of the tail.
    HubClique {
        /// Number of mutually adjacent core (hub) vertices.
        clique: u64,
        /// Leaves, each attached to two distinct core vertices.
        spokes: u64,
    },
    /// Growing community model: vertices join communities
    /// (size-proportionally, Chinese-restaurant style) and link densely
    /// inside their community plus sparsely across.
    Community {
        /// Number of vertices.
        vertices: u64,
        /// Links into the own community per arriving vertex.
        intra_links: usize,
        /// Links to arbitrary existing vertices per arriving vertex.
        inter_links: usize,
        /// Probability of founding a new community, in `(0, 1]`.
        new_community_prob: f64,
    },
}

impl GeneratorConfig {
    /// Generates the edge list in natural order, deterministically for a
    /// given seed.
    pub fn generate(&self, seed: u64) -> Vec<Edge> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match *self {
            GeneratorConfig::ErdosRenyi { vertices, edges } => {
                er::generate(vertices, edges, &mut rng)
            }
            GeneratorConfig::BarabasiAlbert { vertices, edges_per_vertex } => {
                ba::generate(vertices, edges_per_vertex, &mut rng)
            }
            GeneratorConfig::HolmeKim { vertices, edges_per_vertex, triad_prob } => {
                holme_kim::generate(vertices, edges_per_vertex, triad_prob, &mut rng)
            }
            GeneratorConfig::ForestFire { vertices, forward_prob } => {
                forest_fire::generate(vertices, forward_prob, &mut rng)
            }
            GeneratorConfig::Copying { vertices, out_degree, copy_prob } => {
                copying::generate(vertices, out_degree, copy_prob, &mut rng)
            }
            GeneratorConfig::HubClique { clique, spokes } => {
                hub_clique::generate(clique, spokes, &mut rng)
            }
            GeneratorConfig::Community {
                vertices,
                intra_links,
                inter_links,
                new_community_prob,
            } => community::generate(
                vertices,
                intra_links,
                inter_links,
                new_community_prob,
                &mut rng,
            ),
        }
    }

    /// A short human-readable model name.
    pub fn model_name(&self) -> &'static str {
        match self {
            GeneratorConfig::ErdosRenyi { .. } => "erdos-renyi",
            GeneratorConfig::BarabasiAlbert { .. } => "barabasi-albert",
            GeneratorConfig::HolmeKim { .. } => "holme-kim",
            GeneratorConfig::ForestFire { .. } => "forest-fire",
            GeneratorConfig::Copying { .. } => "copying",
            GeneratorConfig::HubClique { .. } => "hub-clique",
            GeneratorConfig::Community { .. } => "community",
        }
    }

    /// Number of vertices the generator will grow to.
    pub fn vertices(&self) -> u64 {
        match *self {
            GeneratorConfig::ErdosRenyi { vertices, .. }
            | GeneratorConfig::BarabasiAlbert { vertices, .. }
            | GeneratorConfig::HolmeKim { vertices, .. }
            | GeneratorConfig::ForestFire { vertices, .. }
            | GeneratorConfig::Copying { vertices, .. }
            | GeneratorConfig::Community { vertices, .. } => vertices,
            GeneratorConfig::HubClique { clique, spokes } => clique + spokes,
        }
    }

    /// Returns a copy with the vertex count multiplied by `factor`
    /// (used by the scalability and training-size experiments).
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |n: u64| ((n as f64 * factor).round() as u64).max(4);
        let mut c = *self;
        match &mut c {
            GeneratorConfig::ErdosRenyi { vertices, edges } => {
                *edges = ((*edges as f64) * factor).round() as usize;
                *vertices = scale(*vertices);
            }
            GeneratorConfig::BarabasiAlbert { vertices, .. }
            | GeneratorConfig::HolmeKim { vertices, .. }
            | GeneratorConfig::ForestFire { vertices, .. }
            | GeneratorConfig::Copying { vertices, .. }
            | GeneratorConfig::Community { vertices, .. } => {
                *vertices = scale(*vertices);
            }
            // Core density is the point of the model: scale the spokes,
            // keep the clique order.
            GeneratorConfig::HubClique { spokes, .. } => {
                *spokes = scale(*spokes);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_graph::FxHashSet;

    fn all_configs() -> Vec<GeneratorConfig> {
        vec![
            GeneratorConfig::ErdosRenyi { vertices: 200, edges: 600 },
            GeneratorConfig::BarabasiAlbert { vertices: 300, edges_per_vertex: 4 },
            GeneratorConfig::HolmeKim { vertices: 300, edges_per_vertex: 4, triad_prob: 0.6 },
            GeneratorConfig::ForestFire { vertices: 300, forward_prob: 0.4 },
            GeneratorConfig::Copying { vertices: 300, out_degree: 4, copy_prob: 0.5 },
            GeneratorConfig::HubClique { clique: 10, spokes: 60 },
            GeneratorConfig::Community {
                vertices: 300,
                intra_links: 3,
                inter_links: 1,
                new_community_prob: 0.05,
            },
        ]
    }

    #[test]
    fn generators_produce_simple_graphs() {
        for cfg in all_configs() {
            let edges = cfg.generate(7);
            assert!(!edges.is_empty(), "{} produced no edges", cfg.model_name());
            let set: FxHashSet<Edge> = edges.iter().copied().collect();
            assert_eq!(set.len(), edges.len(), "{} produced duplicates", cfg.model_name());
            for e in &edges {
                assert!(e.u() < cfg.vertices() && e.v() < cfg.vertices());
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for cfg in all_configs() {
            assert_eq!(cfg.generate(42), cfg.generate(42), "{}", cfg.model_name());
            // Different seeds should (overwhelmingly) differ.
            assert_ne!(cfg.generate(1), cfg.generate(2), "{}", cfg.model_name());
        }
    }

    #[test]
    fn scaled_changes_vertex_budget() {
        let cfg = GeneratorConfig::BarabasiAlbert { vertices: 100, edges_per_vertex: 3 };
        let big = cfg.scaled(2.0);
        assert_eq!(big.vertices(), 200);
        let er = GeneratorConfig::ErdosRenyi { vertices: 100, edges: 50 }.scaled(3.0);
        assert_eq!(er.vertices(), 300);
        match er {
            GeneratorConfig::ErdosRenyi { edges, .. } => assert_eq!(edges, 150),
            _ => unreachable!(),
        }
    }
}

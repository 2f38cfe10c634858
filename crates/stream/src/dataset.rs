//! Dataset registry: synthetic stand-ins for the paper's Table I.
//!
//! The paper's eight real graphs (networkrepository.com) are not
//! redistributable here and range up to 265 M edges, so each
//! *category* is reproduced by a generator whose mechanism produces
//! that category's signature structure, scaled down so the full table
//! suite runs on a laptop. The train/test pairing of Table I (same
//! category, smaller training graph) is preserved, as is the paper's
//! *relative* reservoir sizing.
//!
//! Real data can still be used: load an edge list with
//! [`crate::loader::load_edge_list`] and feed it through the same
//! [`crate::scenario`] machinery.

use crate::gen::GeneratorConfig;

/// The dataset categories of Table I.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Citation graphs (cit-HepTH → cit-patent).
    Citation,
    /// Community networks (com-DBLP → com-youtube).
    Community,
    /// Online social networks (soc-Texas84 → soc-twitter).
    Social,
    /// Web graphs (web-Stanford → web-google).
    Web,
    /// Forest-Fire synthetics.
    Synthetic,
}

impl Category {
    /// All categories in Table I order.
    pub fn all() -> [Category; 5] {
        [
            Category::Citation,
            Category::Community,
            Category::Social,
            Category::Web,
            Category::Synthetic,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Citation => "Citation",
            Category::Community => "Community",
            Category::Social => "Social",
            Category::Web => "Web",
            Category::Synthetic => "Synthetic",
        }
    }
}

/// One dataset: a named generator configuration plus a fixed seed, so
/// that "cit-PT" refers to the same edge list in every experiment.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DatasetSpec {
    /// Name, matching the paper's abbreviation (e.g. `cit-PT`).
    pub name: &'static str,
    /// Table I category.
    pub category: Category,
    /// The generator standing in for the real graph.
    pub config: GeneratorConfig,
    /// Generation seed (fixed per dataset identity).
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the dataset's edge list (natural order).
    pub fn edges(&self) -> Vec<wsd_graph::Edge> {
        self.config.generate(self.seed)
    }

    /// Generates with the vertex budget multiplied by `factor ≥ 0`
    /// (`--scale` in the experiment binaries).
    pub fn edges_scaled(&self, factor: f64) -> Vec<wsd_graph::Edge> {
        self.config.scaled(factor).generate(self.seed)
    }
}

/// A Table I row: the training graph and the larger testing graph of one
/// category.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DatasetPair {
    /// Table I category.
    pub category: Category,
    /// Training graph (used to fit WSD-L policies).
    pub train: DatasetSpec,
    /// Testing graph (used in the result tables).
    pub test: DatasetSpec,
}

/// The registry reproducing Table I (scaled; see module docs).
pub fn registry() -> Vec<DatasetPair> {
    vec![
        DatasetPair {
            category: Category::Citation,
            // Citation graphs cluster heavily: citing a paper usually
            // means also citing several of its references, which is
            // precisely a triad-formation step — hence Holme–Kim with a
            // moderate triad probability (lower than the social pair).
            train: DatasetSpec {
                name: "cit-HE",
                category: Category::Citation,
                config: GeneratorConfig::HolmeKim {
                    vertices: 3_000,
                    edges_per_vertex: 10,
                    triad_prob: 0.6,
                },
                seed: 0xC17_0001,
            },
            test: DatasetSpec {
                name: "cit-PT",
                category: Category::Citation,
                config: GeneratorConfig::HolmeKim {
                    vertices: 12_000,
                    edges_per_vertex: 10,
                    triad_prob: 0.6,
                },
                seed: 0xC17_0002,
            },
        },
        DatasetPair {
            category: Category::Community,
            train: DatasetSpec {
                name: "com-DB",
                category: Category::Community,
                config: GeneratorConfig::Community {
                    vertices: 4_000,
                    intra_links: 6,
                    inter_links: 1,
                    new_community_prob: 0.01,
                },
                seed: 0xC03_0001,
            },
            test: DatasetSpec {
                name: "com-YT",
                category: Category::Community,
                config: GeneratorConfig::Community {
                    vertices: 12_000,
                    intra_links: 6,
                    inter_links: 1,
                    new_community_prob: 0.01,
                },
                seed: 0xC03_0002,
            },
        },
        DatasetPair {
            category: Category::Social,
            train: DatasetSpec {
                name: "soc-TX",
                category: Category::Social,
                config: GeneratorConfig::HolmeKim {
                    vertices: 3_000,
                    edges_per_vertex: 12,
                    triad_prob: 0.85,
                },
                seed: 0x50C_0001,
            },
            test: DatasetSpec {
                name: "soc-TW",
                category: Category::Social,
                config: GeneratorConfig::HolmeKim {
                    vertices: 12_000,
                    edges_per_vertex: 12,
                    triad_prob: 0.85,
                },
                seed: 0x50C_0002,
            },
        },
        DatasetPair {
            category: Category::Web,
            train: DatasetSpec {
                name: "web-SF",
                category: Category::Web,
                config: GeneratorConfig::Copying {
                    vertices: 2_500,
                    out_degree: 10,
                    copy_prob: 0.8,
                },
                seed: 0x3EB_0001,
            },
            test: DatasetSpec {
                name: "web-GL",
                category: Category::Web,
                config: GeneratorConfig::Copying {
                    vertices: 10_000,
                    out_degree: 10,
                    copy_prob: 0.8,
                },
                seed: 0x3EB_0002,
            },
        },
        DatasetPair {
            category: Category::Synthetic,
            train: DatasetSpec {
                name: "synthetic (train)",
                category: Category::Synthetic,
                config: GeneratorConfig::ForestFire { vertices: 4_000, forward_prob: 0.5 },
                seed: 0x5F1_0001,
            },
            test: DatasetSpec {
                name: "synthetic",
                category: Category::Synthetic,
                config: GeneratorConfig::ForestFire { vertices: 10_000, forward_prob: 0.5 },
                seed: 0x5F1_0002,
            },
        },
    ]
}

/// Looks up a dataset (train or test) by its paper name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    registry().into_iter().flat_map(|p| [p.train, p.test]).find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_categories() {
        let reg = registry();
        assert_eq!(reg.len(), 5);
        for (pair, cat) in reg.iter().zip(Category::all()) {
            assert_eq!(pair.category, cat);
            assert_eq!(pair.train.category, cat);
            assert_eq!(pair.test.category, cat);
        }
    }

    #[test]
    fn test_graphs_are_larger_than_train_graphs() {
        for pair in registry() {
            let train = pair.train.edges().len();
            let test = pair.test.edges().len();
            assert!(test > 2 * train, "{}: train {} vs test {}", pair.category.name(), train, test);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("cit-PT").is_some());
        assert!(by_name("soc-TX").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("com-YT").unwrap().category, Category::Community);
    }

    #[test]
    fn dataset_identity_is_stable() {
        let a = by_name("cit-PT").unwrap().edges();
        let b = by_name("cit-PT").unwrap().edges();
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_generation_changes_size() {
        let spec = by_name("cit-HE").unwrap();
        let small = spec.edges_scaled(0.5).len();
        let full = spec.edges().len();
        assert!(small < full);
    }
}

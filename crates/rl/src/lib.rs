//! # wsd-rl
//!
//! The reinforcement-learning stack behind **WSD-L** (paper §IV),
//! implemented from scratch:
//!
//! * [`nn`] — dense layers, ReLU MLPs, Adam and running feature
//!   normalisation (the paper's batch-norm role).
//! * [`replay`] — the experience replay buffer (capacity 10 000,
//!   batches of 128).
//! * [`ddpg`] — the DDPG actor–critic with target networks: the actor
//!   is the paper's single linear layer with ReLU and `+1` offset, the
//!   critic its 10-unit hidden-layer Q network.
//! * [`mod@env`] — the weight-assignment MDP wrapped around a *real*
//!   [`wsd_core::algorithms::WsdSampler`] session and an exact counter
//!   for the reward `r_k = ε(t_k) − ε(t_{k+1})`.
//! * [`trainer`] — the §V-A training protocol (10 streams per training
//!   graph, 1000 iterations), producing a frozen
//!   [`wsd_core::LinearPolicy`]. Trained policies persist as
//!   checksummed [`wsd_core::PolicyArtifact`] files.
//!
//! # Example
//!
//! ```
//! use wsd_graph::Pattern;
//! use wsd_rl::trainer::{train, TrainerConfig};
//! use wsd_stream::{gen::GeneratorConfig, Scenario};
//!
//! let edges = GeneratorConfig::HolmeKim {
//!     vertices: 100, edges_per_vertex: 4, triad_prob: 0.5,
//! }.generate(1);
//! let mut cfg = TrainerConfig::paper_defaults(Pattern::Triangle, 60);
//! cfg.iterations = 20; // tiny demo budget
//! cfg.batch_size = 16;
//! cfg.num_streams = 2;
//! let report = train(&edges, Scenario::default_light(), &cfg);
//! assert_eq!(report.policy.dim(), 6); // |H| + 3 for triangles
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ddpg;
pub mod env;
pub mod grid;
pub mod nn;
pub mod replay;
pub mod test_support;
pub mod trainer;

pub use ddpg::{Ddpg, DdpgConfig};
pub use env::RewardScale;
pub use grid::{full_grid, train_cell, train_grid, CellReport, GridCell};
pub use replay::{ReplayBuffer, Transition};
pub use trainer::{train, TrainReport, TrainerConfig};

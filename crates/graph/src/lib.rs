//! # wsd-graph
//!
//! Graph substrate for the WSD reproduction: edge/event types, a fast
//! hash substrate, dynamic adjacency structures, subgraph-pattern
//! enumeration, and an exact incremental subgraph counter used as ground
//! truth by the reinforcement-learning reward signal and the evaluation
//! harness.
//!
//! Everything in this crate is deterministic: no randomness, no global
//! state, and hash maps use a fixed (non-randomised) hasher so that
//! iteration order is reproducible across runs of the same binary.
//!
//! The central abstractions are:
//!
//! * [`Edge`] — an undirected, canonicalised, self-loop-free edge.
//! * [`EdgeEvent`] — an insertion or deletion event `(op, e_t)` of a fully
//!   dynamic graph stream (paper §II).
//! * [`Adjacency`] — a dynamic adjacency structure whose
//!   common-neighbour intersection runs on sorted shadows with galloping
//!   jumps (sub-linear for hub–hub events); [`VertexAdjacency`] is its
//!   ID-free twin for count-only algorithms.
//! * [`Pattern`] — the subgraph patterns of interest (wedge, triangle,
//!   4-clique, generic k-clique) together with *completion enumeration*:
//!   the set of instances a newly arriving edge completes against a given
//!   (sampled or full) graph. This single kernel powers every estimator in
//!   `wsd-core` as well as the exact counter.
//! * [`ExactCounter`] — exact `|J(t)|` maintained incrementally over the
//!   stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adjacency;
pub mod edge;
pub mod exact;
pub mod fxhash;
pub mod patterns;

pub use adjacency::{
    Adjacency, AdjacencyBase, AdjacencyLayout, CommonEdge, EdgeId, IdPayload, Neighborhood,
    VertexAdjacency, SHADOW_THRESHOLD,
};
pub use edge::{Edge, EdgeEvent, Op, Vertex};
pub use exact::ExactCounter;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use patterns::{LayeredLevels, Pattern};

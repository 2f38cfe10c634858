//! # wsd-core
//!
//! The paper's sampling frameworks and every baseline it compares
//! against, behind a two-layer session API:
//!
//! * [`StreamSession`] / [`SessionBuilder`] — **one shared sampler,
//!   N pattern queries**: a single one-pass, fixed-memory edge sample
//!   (the dominant per-event cost) answers any number of subgraph-count
//!   queries at once, with [`StreamSession::attach`] /
//!   [`StreamSession::detach`] mid-stream.
//! * [`EdgeSampler`] — the sampling layer: per-algorithm
//!   admission/eviction/room logic owning the reservoir and the sampled
//!   adjacency ([`algorithms::WsdSampler`] — the paper's contribution,
//!   Algorithms 1 & 2: weighted priority sampling that genuinely
//!   removes deleted edges while preserving the inclusion-probability
//!   identity `P[e ∈ R] = min(1, w/τq)` of Lemma 1 — plus
//!   [`algorithms::GpsSampler`], [`algorithms::GpsASampler`],
//!   [`algorithms::TriestSampler`], [`algorithms::ThinkDSampler`],
//!   [`algorithms::WrsSampler`]).
//! * [`PatternQuery`] — the query layer: per-pattern estimator state
//!   fed from the shared sample (Algorithm 2 and the baselines'
//!   analogues; unbiased per query because the inclusion identity holds
//!   per edge, not per pattern).
//!
//! A session is the only way to count: a one-pattern count is a session
//! with one query.
//!
//! Weight functions ([`weight`]) plug into the weighted samplers: the
//! uniform control, the GPS heuristic `9·|H(e)|+1` (WSD-H), and the
//! learned linear policy (WSD-L) whose parameters are trained by the
//! `wsd-rl` crate on the MDP states extracted in [`state`]. A sampler
//! observes its weights on one fixed *weight pattern*
//! ([`SessionBuilder::with_weight_pattern`]); the choice only shapes
//! variance, never biasedness.
//!
//! # The mass kernel
//!
//! The estimators' hot loop — the `Π 1/p` mass products over each
//! completed instance's partner edges — is one fused per-instance loop
//! straight off the enumeration kernel, with two fast paths: the fill
//! phase (`τ = 0`, every product is exactly 1) skips the `1/p` reads,
//! and wedge instances (one partner each) fold their single `1/p`
//! without a partner slice. Every session, whatever its query mix, runs
//! one layered enumeration pass per event over its queries' levels and
//! its weight pattern's ([`wsd_graph::LayeredLevels`]); each query's
//! estimate is bit-identical to a single-query session's.
//!
//! # Example
//!
//! One WSD-H sampler pass answering the paper's whole pattern grid:
//!
//! ```
//! use wsd_core::{Algorithm, SessionBuilder};
//! use wsd_graph::{Edge, EdgeEvent, Pattern};
//!
//! let mut session = SessionBuilder::new(Algorithm::WsdH, 100, 42)
//!     .query(Pattern::Wedge)
//!     .query(Pattern::Triangle)
//!     .build();
//! for (a, b) in [(1, 2), (2, 3), (1, 3)] {
//!     session.process(EdgeEvent::insert(Edge::new(a, b)));
//! }
//! let report = session.report();
//! assert_eq!(report.queries[0].estimate, 3.0); // wedges, still exact
//! assert_eq!(report.queries[1].estimate, 1.0); // one triangle
//! session.process(EdgeEvent::delete(Edge::new(2, 3)));
//! assert_eq!(session.estimate(report.queries[1].id), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod config;
pub mod engine;
mod estimator;
pub mod policy;
pub mod rank;
pub mod reservoir;
pub mod sampled_graph;
pub mod session;
pub mod snapshot;
pub mod state;
pub mod weight;

pub use config::Algorithm;
pub use engine::{Ensemble, EnsembleReport, SessionEnsembleReport};
pub use policy::{PolicyArtifact, PolicyError, PolicyMeta, PolicyRegistry};
pub use session::{
    AttachError, EdgeSampler, PatternQuery, QueryCheckpoint, QueryCtx, QueryId, QueryReport,
    SessionBuilder, SessionReport, StreamSession, WeightSwapError,
};
pub use snapshot::{
    fnv1a64, write_file_atomic, ByteReader, ByteWriter, QuerySnapshot, SamplerState, SessionConfig,
    SessionSnapshot, SnapshotError,
};
pub use state::{StateVector, TemporalPooling};
pub use weight::{FeatureNorm, HeuristicWeight, LinearPolicy, UniformWeight, WeightFn, WeightSpec};

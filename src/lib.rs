//! # wsd — RL-enhanced weighted sampling for subgraph counting on fully
//! dynamic graph streams
//!
//! A from-scratch Rust implementation of *"Reinforcement Learning
//! Enhanced Weighted Sampling for Accurate Subgraph Counting on Fully
//! Dynamic Graph Streams"* (ICDE 2023): the **WSD** weighted sampling
//! framework with its unbiased estimator, the **WSD-L** DDPG-learned
//! weight function, the GPS/GPS-A precursors, and the uniform baselines
//! (Triest-FD, ThinkD, WRS) it is evaluated against — plus the full
//! substrate (graph structures, pattern enumeration, exact counting,
//! stream generators, deletion scenarios) and an experiment harness
//! regenerating every table and figure of the paper.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `wsd-graph` | edges, events, adjacency, patterns, exact counts |
//! | [`stream`] | `wsd-stream` | generators, scenarios, orderings, datasets |
//! | [`core`] | `wsd-core` | multi-query stream sessions over WSD, GPS, GPS-A, Triest, ThinkD, WRS + the parallel ensemble engine |
//! | [`rl`] | `wsd-rl` | DDPG, replay, environment, scenario-grid training |
//! | [`serve`] | `wsd-serve` | sharded many-tenant session server: TCP protocol, SPSC ingestion, snapshot/restore migration |
//!
//! # Quickstart
//!
//! One **stream session** = one shared sampler pass answering any
//! number of pattern queries — the sampling machinery (the dominant
//! per-event cost at reservoir budgets) is paid once, not once per
//! pattern:
//!
//! ```
//! use wsd::prelude::*;
//!
//! // A fully dynamic stream: a Holme–Kim graph with 20% of edges later
//! // deleted (the paper's light-deletion scenario).
//! let edges = GeneratorConfig::HolmeKim {
//!     vertices: 500, edges_per_vertex: 4, triad_prob: 0.5,
//! }.generate(7);
//! let events = Scenario::default_light().apply(&edges, 7);
//!
//! // One WSD-H sampler under a 500-edge budget answers the paper's
//! // whole pattern grid in a single pass, ingesting the stream as one
//! // batch (bit-identical to event-by-event processing)…
//! let mut session = SessionBuilder::new(Algorithm::WsdH, 500, 42)
//!     .query(Pattern::Triangle)
//!     .query(Pattern::Wedge)
//!     .query(Pattern::FourClique)
//!     .build();
//! session.process_batch(&events);
//!
//! // …and compare with the exact count. (A single run on a tiny graph
//! // is noisy — the estimator is *unbiased*, not low-variance; see the
//! // statistical tests in `crates/core/tests/unbiasedness.rs`.)
//! let truth = ExactCounter::count_stream(Pattern::Triangle, events.clone()).unwrap();
//! let report = session.report();
//! assert_eq!(report.queries.len(), 3);
//! let triangles = report.queries[0].estimate;
//! let are = (triangles - truth as f64).abs() / truth as f64;
//! assert!(are < 0.8, "budgeted estimate should be in the ballpark");
//!
//! // Queries attach and detach mid-stream: a new query warms up from
//! // the current sample, the sampler itself is untouched.
//! let more_wedges = session.attach(Pattern::Wedge);
//! assert!(session.estimate(more_wedges) > 0.0);
//!
//! // The paper's repeated-runs protocol as a first-class parallel
//! // primitive: N independently seeded session replicas on a thread
//! // pool, merged per query into mean/variance/CI. Same seeds ⇒ same
//! // merged estimates regardless of thread count.
//! let report = Ensemble::new(8)
//!     .with_threads(4)
//!     .with_base_seed(42)
//!     .run_sessions(&events, |seed| {
//!         SessionBuilder::new(Algorithm::WsdH, 500, seed)
//!             .query(Pattern::Triangle)
//!             .query(Pattern::Wedge)
//!             .build()
//!     });
//! let tri = report.for_pattern(Pattern::Triangle).unwrap();
//! assert_eq!(tri.estimates.len(), 8);
//! let ensemble_are = (tri.mean - truth as f64).abs() / truth as f64;
//! assert!(ensemble_are < 0.5, "averaging replicas tightens the estimate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Graph substrate: edges, events, adjacency, patterns, exact counting.
pub use wsd_graph as graph;

/// Stream substrate: generators, deletion scenarios, orderings, datasets.
pub use wsd_stream as stream;

/// Sampling algorithms: WSD and every baseline, behind `StreamSession`.
pub use wsd_core as core;

/// Reinforcement learning: DDPG training of WSD-L weight policies.
pub use wsd_rl as rl;

/// Serving layer: the sharded many-tenant `wsd-serve` session server.
pub use wsd_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use wsd_core::{
        Algorithm, EdgeSampler, Ensemble, EnsembleReport, LinearPolicy, PatternQuery,
        PolicyArtifact, PolicyMeta, PolicyRegistry, QueryId, SessionBuilder, SessionEnsembleReport,
        SessionReport, StreamSession, TemporalPooling, WeightFn, WeightSpec,
    };
    pub use wsd_graph::{Adjacency, Edge, EdgeEvent, ExactCounter, Op, Pattern, Vertex};
    pub use wsd_rl::{full_grid, train, train_cell, GridCell, TrainerConfig};
    pub use wsd_stream::{gen::GeneratorConfig, EventStream, Scenario, TruthTimeline};
}

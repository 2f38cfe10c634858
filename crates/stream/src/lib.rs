//! # wsd-stream
//!
//! Graph-stream substrate for the WSD reproduction (paper §V-A):
//!
//! * [`gen`] — synthetic graph generators producing edges in *natural*
//!   (temporal growth) order: Forest Fire (the paper's synthetic model),
//!   Barabási–Albert, Holme–Kim, the Kleinberg copying model, a growing
//!   community model, and Erdős–Rényi for tests.
//! * [`scenario`] — turning an ordered edge list into a fully dynamic
//!   stream: the paper's *massive deletion* (α, βm) and *light deletion*
//!   (βl) scenarios, plus insertion-only.
//! * [`order`] — the stream orderings of §V-B(3): natural, uniform at
//!   random (UAR), and random BFS (RBFS).
//! * [`dataset`] — a registry of synthetic stand-ins for the paper's
//!   Table I datasets (the real graphs are not redistributable and
//!   reach 265 M edges), and [`loader`] for user-supplied real edge
//!   lists.
//! * [`ground_truth`] — exact count timelines used for ARE/MARE metrics
//!   and RL rewards.
//! * [`stats`] — summary statistics of event streams.
//! * [`wire`] — the fixed 17-byte event encoding `wsd-serve` ships
//!   over its ingestion protocol.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dataset;
pub mod gen;
pub mod ground_truth;
pub mod loader;
pub mod order;
pub mod scenario;
pub mod stats;
pub mod wire;

pub use dataset::{Category, DatasetPair, DatasetSpec};
pub use gen::GeneratorConfig;
pub use ground_truth::TruthTimeline;
pub use scenario::Scenario;
pub use stats::StreamStats;
pub use wire::{decode_events, encode_events, WireError, EVENT_WIRE_BYTES};

/// A fully dynamic graph stream: the ordered event sequence `S`.
pub type EventStream = Vec<wsd_graph::EdgeEvent>;

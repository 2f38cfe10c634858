//! The streaming engine layer: parallel ensemble execution.
//!
//! The paper's protocol is *many independent runs of a one-pass sampler*
//! whose per-event cost is the binding constraint at stream scale. This
//! module turns that protocol into a first-class, hardware-friendly
//! system on top of [`StreamSession`](crate::StreamSession):
//!
//! * [`Ensemble`] executes N independently seeded replicas of a session
//!   ([`Ensemble::run_sessions`]) over the same stream on a thread pool
//!   and merges their unbiased estimates into a mean with variance and
//!   a normal-approximation confidence interval — the repeated-runs
//!   protocol, parallel.
//!   Replica seeds derive from the base seed via the splitmix
//!   [`replica_seed`] bijection, so adjacent base seeds never share
//!   replica RNG streams.
//! * [`parallel_map`] is the deterministic fork–join primitive beneath
//!   the ensemble, reused by the evaluation harness for its repetition
//!   grids: results land in index order, so output never depends on
//!   thread scheduling.

mod ensemble;

pub use ensemble::{parallel_map, replica_seed, Ensemble, EnsembleReport, SessionEnsembleReport};

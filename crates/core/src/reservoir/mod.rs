//! Reservoir data structures: the rank-ordered indexed heap used by the
//! weighted samplers (WSD, GPS, GPS-A), and the uniform random-pairing
//! reservoir used by the baselines (Triest and ThinkD on the
//! random-pairing sampler, and WRS behind its waiting room) with the
//! inverse inclusion probability of its partner edges, which ThinkD and
//! WRS both weigh instances by.

pub mod heap;
pub mod uniform;

pub use heap::IndexedMinHeap;
pub(crate) use uniform::inverse_inclusion;
pub use uniform::{Admission, RpReservoir};

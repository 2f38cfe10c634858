//! The sampling algorithms: the paper's WSD framework, its GPS-A
//! precursor, and the uniform baselines it compares against. GPS, the
//! insertion-only precursor, runs as a mode of the WSD sampler
//! ([`WsdSampler::gps`]); Triest-FD and ThinkD, which differ only in
//! when a query counts, share one random-pairing sampler ([`RpSampler`]).

pub mod gps_a;
pub mod rp;
pub mod wrs;
pub mod wsd;

pub use gps_a::GpsASampler;
pub use rp::RpSampler;
pub use wrs::WrsSampler;
pub use wsd::WsdSampler;

use crate::estimator::layered_weighted_mass;
use crate::sampled_graph::WeightedSample;
use crate::session::{levels_of, QueryCtx};
use crate::state::{StateAccumulator, StateVector, TemporalPooling};
use crate::weight::WeightFn;
use wsd::InsertionObserver;
use wsd_graph::{Edge, LayeredLevels, Pattern};

/// How a weighted sampler observes the state on an insertion — resolved
/// once per configuration change (construction / observer install), so
/// the per-event path branches on a plain enum instead of re-querying
/// the boxed weight function.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum WeightMode {
    /// `w = a·|H_k| + b` computed inline — no state buffer, no dynamic
    /// call (the uniform and heuristic weights).
    Affine(f64, f64),
    /// Full `|H|+3` state with temporal accumulation (the learned
    /// policy, and any configuration with an insertion observer).
    Full,
}

impl WeightMode {
    /// Resolves the mode for a weight function: affine when it gives an
    /// affine form, unless an installed observer forces
    /// [`WeightMode::Full`] so that observed states are always whole.
    pub(crate) fn resolve(weight_fn: &dyn WeightFn, has_observer: bool) -> Self {
        match weight_fn.instances_affine() {
            Some((a, b)) if !has_observer => WeightMode::Affine(a, b),
            _ => WeightMode::Full,
        }
    }
}

/// The weight-observation state every weighted sampler (WSD, GPS-A)
/// carries: the weight pattern and its layered level, the weight
/// function with its resolved [`WeightMode`], the RL state accumulator
/// with its reusable state buffer, and (WSD only) an insertion observer.
pub(crate) struct WeightObservation {
    /// The pattern the weight function observes (`|H(e)|` and the
    /// temporal state are computed for this pattern).
    pub(crate) pattern: Pattern,
    /// `pattern`'s [`LayeredLevels`] level.
    level: usize,
    /// Resolved observation mode (kept in sync with the weight function
    /// and observer).
    mode: WeightMode,
    weight_fn: Box<dyn WeightFn>,
    acc: StateAccumulator,
    /// Reusable state-vector buffer (one state is observed per
    /// insertion; reuse keeps the hot path allocation-free).
    state_buf: StateVector,
    /// Invoked after each insertion with the edge, its observed state
    /// and the chosen weight.
    observer: Option<InsertionObserver>,
}

impl WeightObservation {
    /// Observes `pattern` with `weight_fn`, accumulating the temporal
    /// state under `pooling`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is invalid or `capacity < |H|` (the
    /// unbiasedness theorems require `M ≥ |H|`).
    pub(crate) fn new(
        pattern: Pattern,
        capacity: usize,
        weight_fn: Box<dyn WeightFn>,
        pooling: TemporalPooling,
    ) -> Self {
        pattern.validate().expect("invalid pattern");
        assert!(
            capacity >= pattern.num_edges(),
            "reservoir capacity M = {capacity} must be ≥ |H| = {}",
            pattern.num_edges()
        );
        Self {
            pattern,
            level: LayeredLevels::level_of(pattern),
            mode: WeightMode::resolve(weight_fn.as_ref(), false),
            weight_fn,
            acc: StateAccumulator::new(pattern.num_edges(), pooling),
            state_buf: StateVector::empty(),
            observer: None,
        }
    }

    /// Installs an insertion observer, forcing full-state observation.
    pub(crate) fn set_observer(&mut self, f: InsertionObserver) {
        self.observer = Some(f);
        self.mode = WeightMode::resolve(self.weight_fn.as_ref(), true);
    }

    /// Replaces the weight function and re-resolves the mode (an
    /// installed observer keeps forcing full state).
    pub(crate) fn set_weight_fn(&mut self, weight_fn: Box<dyn WeightFn>) {
        self.weight_fn = weight_fn;
        self.mode = WeightMode::resolve(self.weight_fn.as_ref(), self.observer.is_some());
    }

    /// The insertion-path estimator + weight observation: one layered
    /// pass against the pre-update `sample` (threshold `tau`) adds to
    /// every query in `ctx` the mass of the instances `e` completes, at
    /// the query's level, and observes the weight on the weight
    /// pattern's level in the same pass; returns the arriving edge's
    /// weight. The level set is the queries' union plus the weight
    /// level — unless the weight ignores the instance count
    /// (`Affine(0, b)`, the uniform weight), which needs no level of its
    /// own. An empty set runs no pass.
    // inline(always): this is the first half of every weighted sampler's
    // per-insertion path — as a standalone call (it is large, so the plain
    // hint was not taken) it measurably cost ~5% on the triangle grid.
    #[inline(always)]
    pub(crate) fn observe(
        &mut self,
        sample: &mut WeightedSample,
        e: Edge,
        tau: f64,
        now: u64,
        ctx: QueryCtx<'_>,
    ) -> f64 {
        let QueryCtx { queries, scratch } = ctx;
        let mut levels = levels_of(queries);
        let (a, b) = match self.mode {
            WeightMode::Affine(a, b) => (a, b),
            WeightMode::Full => {
                levels.set(self.level);
                self.acc.reset();
                let acc = Some((self.level, &mut self.acc, now));
                let m = layered_weighted_mass(levels, sample, e, tau, scratch, acc);
                for q in queries.iter_mut() {
                    q.estimate += m.mass[q.level];
                }
                self.acc.finish_into(m.deg_u, m.deg_v, &mut self.state_buf);
                let w = self.weight_fn.weight(&self.state_buf);
                if let Some(obs) = self.observer.as_mut() {
                    obs(e, &self.state_buf, w);
                }
                return w;
            }
        };
        // An affine weight reads only |H_k| (a free by-product of the
        // mass pass), so the whole temporal-state accumulation is
        // skipped on the hot path.
        if a != 0.0 {
            levels.set(self.level);
        }
        let mut instances = 0;
        if !levels.is_empty() {
            let m = layered_weighted_mass(levels, sample, e, tau, scratch, None);
            for q in queries.iter_mut() {
                q.estimate += m.mass[q.level];
            }
            instances = m.instances[self.level];
        }
        a * (instances as f64) + b
    }
}

/// The deletion-path estimator of WSD and GPS-A: one layered pass
/// against `sample`, which no longer holds `e`, subtracts from every
/// query in `ctx` the mass of the instances the deletion destroys (the
/// instances completed by re-adding `e`). No query, no pass.
pub(crate) fn subtract_destroyed(
    sample: &mut WeightedSample,
    e: Edge,
    tau: f64,
    ctx: QueryCtx<'_>,
) {
    let QueryCtx { queries, scratch } = ctx;
    let levels = levels_of(queries);
    if levels.is_empty() {
        return;
    }
    let m = layered_weighted_mass(levels, sample, e, tau, scratch, None);
    for q in queries.iter_mut() {
        q.estimate -= m.mass[q.level];
    }
}

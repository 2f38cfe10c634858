//! MDP state extraction (paper §IV-A, Eq. 19–22).
//!
//! When an insertion event arrives, the weight function observes a state
//! vector
//!
//! ```text
//! s_k = [ |H_k|, |N_k(u)|, |N_k(v)|, v_1, …, v_|H| ]  ∈ ℝ^{|H|+3}
//! ```
//!
//! where `|H_k|` is the number of pattern instances the new edge
//! completes against the reservoir (topological importance now),
//! `|N_k(u)|`/`|N_k(v)|` are the endpoint degrees in the sampled graph
//! (potential to form instances later), and `v_j` pools the arrival time
//! of the `j`-th-oldest edge across all completed instances — the paper
//! uses the `max` (Eq. 20) and evaluates an `avg` variant in its Table
//! XIII ablation.
//!
//! The accumulator is fed during the estimator's enumeration pass, so
//! state extraction adds no extra pattern enumeration — only O(|H| log
//! |H|) per instance for the time sort. This mirrors the paper's remark
//! that states "can be easily computed with the sampled edges".

/// Temporal pooling operator for Eq. (20): `max` (paper default) or
/// `avg` (Table XIII ablation).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum TemporalPooling {
    /// `v_j = max_J i_j` — the paper's definition (WSD-L (Max)).
    #[default]
    Max,
    /// `v_j = avg_J i_j` — the ablation variant (WSD-L (Avg)).
    Avg,
}

impl TemporalPooling {
    /// Display name used in Table XIII.
    pub fn name(&self) -> &'static str {
        match self {
            TemporalPooling::Max => "Max",
            TemporalPooling::Avg => "Avg",
        }
    }
}

/// The observed state vector `s_k`.
#[derive(Clone, PartialEq, Debug)]
pub struct StateVector {
    values: Vec<f64>,
}

impl StateVector {
    /// The raw feature values `[|H_k|, |N(u)|, |N(v)|, v_1..v_|H|]`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of completed instances `|H_k|` (feature 0) — the quantity
    /// the heuristic weight function `9·|H(e)| + 1` consumes.
    pub fn instances(&self) -> f64 {
        self.values[0]
    }

    /// Dimension `|H| + 3`.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Constructs a state from raw values (used by tests and the RL
    /// training environment).
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// An empty state, for use as a reusable
    /// [`StateAccumulator::finish_into`] buffer.
    pub fn empty() -> Self {
        Self { values: Vec::new() }
    }
}

/// Streaming accumulator filled during instance enumeration.
#[derive(Clone, Debug)]
pub struct StateAccumulator {
    pooling: TemporalPooling,
    positions: usize,
    instances: u64,
    /// max- or sum-pooled arrival time per sorted position.
    pooled: Vec<f64>,
    sort_buf: Vec<u64>,
    /// Event time of the instance currently being streamed in
    /// ([`StateAccumulator::begin_instance`] …
    /// [`StateAccumulator::commit_instance`]).
    pending_now: u64,
}

impl StateAccumulator {
    /// Creates an accumulator for a pattern with `pattern_edges = |H|`
    /// edges.
    pub fn new(pattern_edges: usize, pooling: TemporalPooling) -> Self {
        Self {
            pooling,
            positions: pattern_edges,
            instances: 0,
            pooled: vec![0.0; pattern_edges],
            sort_buf: Vec::with_capacity(pattern_edges),
            pending_now: 0,
        }
    }

    /// Resets for a new event.
    pub fn reset(&mut self) {
        self.instances = 0;
        self.pooled.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Records one completed instance: `partner_times` are the arrival
    /// times of the instance's sampled edges (any order) and `now` is the
    /// arrival time of the new edge (always the latest, position `|H|`).
    pub fn add_instance(&mut self, partner_times: impl IntoIterator<Item = u64>, now: u64) {
        self.begin_instance(now);
        for t in partner_times {
            self.push_partner_time(t);
        }
        self.commit_instance();
    }

    /// Starts streaming one instance in; the estimator's partner loop
    /// pushes arrival times as it resolves each partner anyway (one
    /// metadata fetch serving both the mass product and the state), then
    /// commits. Equivalent to [`StateAccumulator::add_instance`].
    #[inline]
    pub fn begin_instance(&mut self, now: u64) {
        self.sort_buf.clear();
        self.pending_now = now;
    }

    /// Records one partner arrival time of the instance being streamed.
    #[inline]
    pub fn push_partner_time(&mut self, t: u64) {
        self.sort_buf.push(t);
    }

    /// Finishes the instance started by
    /// [`StateAccumulator::begin_instance`] and pools it.
    pub fn commit_instance(&mut self) {
        self.sort_buf.push(self.pending_now);
        debug_assert_eq!(self.sort_buf.len(), self.positions);
        self.sort_buf.sort_unstable();
        self.instances += 1;
        for (j, &t) in self.sort_buf.iter().enumerate() {
            let t = t as f64;
            match self.pooling {
                TemporalPooling::Max => {
                    if t > self.pooled[j] {
                        self.pooled[j] = t;
                    }
                }
                TemporalPooling::Avg => self.pooled[j] += t,
            }
        }
    }

    /// Number of instances recorded since the last reset.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Produces the state vector given the endpoint degrees in the
    /// sampled graph. When no instance was completed the temporal block
    /// is all zeros (the paper leaves this case unspecified; zero is the
    /// natural "no signal" encoding and keeps `s` well-defined).
    pub fn finish(&self, deg_u: usize, deg_v: usize) -> StateVector {
        let mut out = StateVector { values: Vec::with_capacity(self.positions + 3) };
        self.finish_into(deg_u, deg_v, &mut out);
        out
    }

    /// As [`StateAccumulator::finish`], writing into a caller-owned
    /// buffer — the samplers observe a state on *every* insertion, and
    /// reusing one buffer keeps the per-event hot path allocation-free.
    pub fn finish_into(&self, deg_u: usize, deg_v: usize, out: &mut StateVector) {
        let values = &mut out.values;
        values.clear();
        values.reserve(self.positions + 3);
        values.push(self.instances as f64);
        values.push(deg_u as f64);
        values.push(deg_v as f64);
        match self.pooling {
            TemporalPooling::Max => values.extend_from_slice(&self.pooled),
            TemporalPooling::Avg => {
                let n = self.instances.max(1) as f64;
                values.extend(self.pooled.iter().map(|&s| s / n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_follow_pattern_size() {
        let acc = StateAccumulator::new(3, TemporalPooling::Max);
        let s = acc.finish(0, 0);
        assert_eq!(s.dim(), 6); // |H| + 3 for triangles
        assert_eq!(s.values(), &[0.0; 6]);
    }

    #[test]
    fn max_pooling_takes_positionwise_max() {
        let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
        // Instance A: partner times (5, 9), now 20 → sorted (5, 9, 20)
        acc.add_instance([9, 5], 20);
        // Instance B: partner times (7, 2), now 20 → sorted (2, 7, 20)
        acc.add_instance([7, 2], 20);
        let s = acc.finish(4, 6);
        assert_eq!(s.values(), &[2.0, 4.0, 6.0, 5.0, 9.0, 20.0]);
        assert_eq!(s.instances(), 2.0);
    }

    #[test]
    fn avg_pooling_takes_positionwise_mean() {
        let mut acc = StateAccumulator::new(3, TemporalPooling::Avg);
        acc.add_instance([9, 5], 20);
        acc.add_instance([7, 2], 20);
        let s = acc.finish(1, 1);
        assert_eq!(s.values(), &[2.0, 1.0, 1.0, 3.5, 8.0, 20.0]);
    }

    #[test]
    fn reset_clears_accumulation() {
        let mut acc = StateAccumulator::new(2, TemporalPooling::Max);
        acc.add_instance([3], 10);
        acc.reset();
        assert_eq!(acc.instances(), 0);
        let s = acc.finish(0, 0);
        assert_eq!(s.values(), &[0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn wedge_state_has_five_dims() {
        let mut acc = StateAccumulator::new(2, TemporalPooling::Max);
        acc.add_instance([4], 11);
        let s = acc.finish(2, 3);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0, 11.0]);
        assert_eq!(s.instances(), 1.0);
    }

    #[test]
    fn pooling_names() {
        assert_eq!(TemporalPooling::Max.name(), "Max");
        assert_eq!(TemporalPooling::Avg.name(), "Avg");
        assert_eq!(TemporalPooling::default(), TemporalPooling::Max);
    }
}

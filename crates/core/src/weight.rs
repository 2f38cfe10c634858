//! Edge weight functions `W(e, R)` (paper §III / §IV).
//!
//! Three families are provided:
//!
//! * [`UniformWeight`] — every edge weighs 1 (turns WSD into an unweighted
//!   priority sampler; useful as a control).
//! * [`HeuristicWeight`] — the GPS heuristic `W(e, R) = 9·|H(e)| + 1`
//!   used by WSD-H, where `|H(e)|` is the number of pattern instances the
//!   edge completes against the reservoir \[14\].
//! * [`LinearPolicy`] — the learned policy of WSD-L: a single linear
//!   layer with ReLU activation and `+1` offset (paper §V-A:
//!   *"The actor network involves one input layer and one output layer,
//!   and uses ReLU as the activation function. We add one to the output
//!   to avoid assigning zero weights."*), applied to features normalised
//!   by frozen running statistics (the training-time normalisation role
//!   of the paper's batch norm). `wsd-rl` trains these parameters and
//!   "hardcodes" them here, exactly as the paper ports its trained
//!   PyTorch parameters to C++.

use crate::snapshot::{get_policy, put_policy, ByteReader, ByteWriter, SnapshotError};
use crate::state::StateVector;

/// A weight function consuming the observed state.
///
/// Implementations must return strictly positive, finite weights.
pub trait WeightFn: Send {
    /// Computes the weight of the arriving edge from its state.
    fn weight(&mut self, state: &StateVector) -> f64;
    /// If the weight is an affine function `a·|H_k| + b` of the
    /// completed-instance count alone, its coefficients `(a, b)`.
    ///
    /// The samplers then compute exactly that expression inline on the
    /// hot path — no state buffer, no dynamic call, and none of the
    /// temporal-block accumulation of Eq. 20 (the per-instance time
    /// sort, the dominant non-enumeration cost of an insertion); `|H_k|`
    /// is a free by-product of the estimator mass pass. Implementations
    /// must guarantee `weight(s) == a * s.instances() + b` bit-for-bit
    /// (evaluated in that order). `None` (the default) observes the full
    /// `|H|+3`-dimensional state through [`WeightFn::weight`], as does an
    /// installed insertion observer, so observed states are always
    /// whole.
    fn instances_affine(&self) -> Option<(f64, f64)> {
        None
    }
    /// Short name for experiment tables (e.g. `WSD-L`).
    fn name(&self) -> &'static str;
}

/// Uniform weights: `W ≡ 1`.
#[derive(Copy, Clone, Default, Debug)]
pub struct UniformWeight;

impl WeightFn for UniformWeight {
    fn weight(&mut self, _state: &StateVector) -> f64 {
        1.0
    }
    fn instances_affine(&self) -> Option<(f64, f64)> {
        Some((0.0, 1.0)) // 0·|H| + 1 ≡ 1 exactly
    }
    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// The GPS heuristic `W(e, R) = 9·|H(e)| + 1` (paper §V-A, WSD-H).
#[derive(Copy, Clone, Default, Debug)]
pub struct HeuristicWeight;

impl WeightFn for HeuristicWeight {
    fn weight(&mut self, state: &StateVector) -> f64 {
        9.0 * state.instances() + 1.0
    }
    fn instances_affine(&self) -> Option<(f64, f64)> {
        Some((9.0, 1.0))
    }
    fn name(&self) -> &'static str {
        "WSD-H"
    }
}

/// Frozen per-feature normalisation `x ↦ (x − mean) / std`.
#[derive(Clone, PartialEq, Debug)]
pub struct FeatureNorm {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl FeatureNorm {
    /// Creates a normaliser; `std` entries of 0 are treated as 1.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn new(mean: Vec<f64>, std: Vec<f64>) -> Self {
        assert_eq!(mean.len(), std.len(), "mean/std dimension mismatch");
        let std = std.into_iter().map(|s| if s > 0.0 { s } else { 1.0 }).collect();
        Self { mean, std }
    }

    /// The identity normaliser of dimension `dim`.
    pub fn identity(dim: usize) -> Self {
        Self { mean: vec![0.0; dim], std: vec![1.0; dim] }
    }

    /// Dimension of the normaliser.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Per-feature means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Normalises feature `i` of value `x`.
    #[inline]
    pub fn apply(&self, i: usize, x: f64) -> f64 {
        (x - self.mean[i]) / self.std[i]
    }
}

/// The learned linear policy of WSD-L:
/// `W(e, R) = ReLU( wᵀ · norm(s) + b ) + 1`.
#[derive(Clone, PartialEq, Debug)]
pub struct LinearPolicy {
    /// Linear weights, one per state dimension.
    pub w: Vec<f64>,
    /// Bias.
    pub b: f64,
    /// Frozen feature normalisation.
    pub norm: FeatureNorm,
}

impl LinearPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `w` and `norm` dimensions disagree.
    pub fn new(w: Vec<f64>, b: f64, norm: FeatureNorm) -> Self {
        assert_eq!(w.len(), norm.dim(), "policy/normaliser dimension mismatch");
        Self { w, b, norm }
    }

    /// A neutral policy (all-zero weights → constant weight 1); the
    /// starting point of training and a safe fallback.
    pub fn neutral(dim: usize) -> Self {
        Self { w: vec![0.0; dim], b: 0.0, norm: FeatureNorm::identity(dim) }
    }

    /// State dimension this policy expects.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Evaluates the actor output (before any exploration noise).
    pub fn evaluate(&self, state: &StateVector) -> f64 {
        debug_assert_eq!(state.dim(), self.dim(), "state/policy dimension mismatch");
        let mut z = self.b;
        for (i, (&wi, &si)) in self.w.iter().zip(state.values()).enumerate() {
            z += wi * self.norm.apply(i, si);
        }
        z.max(0.0) + 1.0
    }
}

impl WeightFn for LinearPolicy {
    fn weight(&mut self, state: &StateVector) -> f64 {
        self.evaluate(state)
    }
    fn name(&self) -> &'static str {
        "WSD-L"
    }
}

/// A serialisable choice of weight function — the payload of a
/// mid-stream hot-swap, in process
/// ([`StreamSession::set_weight_fn`](crate::session::StreamSession::set_weight_fn))
/// or over the wire (the `wsd-serve` `SwapPolicy` request).
///
/// Only the WSD family is swappable, so the three variants mirror the
/// three WSD weight functions: [`UniformWeight`], [`HeuristicWeight`],
/// and a learned [`LinearPolicy`].
#[derive(Clone, Debug, PartialEq)]
pub enum WeightSpec {
    /// Swap to [`UniformWeight`] (`W ≡ 1`, WSD-U).
    Uniform,
    /// Swap to [`HeuristicWeight`] (`9·|H| + 1`, WSD-H).
    Heuristic,
    /// Swap to the given learned policy (WSD-L).
    Policy(LinearPolicy),
}

impl WeightSpec {
    /// Builds the weight function plus its canonical sampler display
    /// name (the names [`SessionBuilder`](crate::session::SessionBuilder)
    /// gives the corresponding algorithms).
    pub fn build(&self) -> (Box<dyn WeightFn>, &'static str) {
        match self {
            WeightSpec::Uniform => (Box::new(UniformWeight), "WSD-U"),
            WeightSpec::Heuristic => (Box::new(HeuristicWeight), "WSD-H"),
            WeightSpec::Policy(p) => (Box::new(p.clone()), "WSD-L"),
        }
    }

    /// Policy dimension carried by this spec (`None` for the
    /// dimension-free uniform/heuristic variants).
    pub fn dim(&self) -> Option<usize> {
        match self {
            WeightSpec::Policy(p) => Some(p.dim()),
            _ => None,
        }
    }

    /// Serialises the spec (tag byte, then the policy parameters as raw
    /// IEEE-754 bits for the `Policy` variant).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            WeightSpec::Uniform => w.put_u8(0),
            WeightSpec::Heuristic => w.put_u8(1),
            WeightSpec::Policy(p) => {
                w.put_u8(2);
                put_policy(w, p);
            }
        }
    }

    /// Decodes a spec, rejecting unknown tags, mismatched parameter
    /// blocks, and non-finite policy parameters (a NaN weight would
    /// silently poison every later admission decision).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(WeightSpec::Uniform),
            1 => Ok(WeightSpec::Heuristic),
            2 => Ok(WeightSpec::Policy(get_policy(r)?)),
            _ => Err(SnapshotError::BadTag("weight spec")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(values: &[f64]) -> StateVector {
        StateVector::from_values(values.to_vec())
    }

    #[test]
    fn uniform_is_one() {
        let mut w = UniformWeight;
        assert_eq!(w.weight(&state(&[5.0, 1.0, 1.0, 0.0, 0.0, 0.0])), 1.0);
        assert_eq!(w.name(), "uniform");
    }

    #[test]
    fn heuristic_matches_paper_formula() {
        let mut w = HeuristicWeight;
        assert_eq!(w.weight(&state(&[0.0, 9.0, 9.0])), 1.0);
        assert_eq!(w.weight(&state(&[3.0, 0.0, 0.0])), 28.0);
        assert_eq!(w.name(), "WSD-H");
    }

    #[test]
    fn linear_policy_relu_plus_one() {
        let norm = FeatureNorm::identity(3);
        let mut p = LinearPolicy::new(vec![1.0, 0.0, 0.0], -2.0, norm);
        // z = 1*4 - 2 = 2 → 3
        assert_eq!(p.weight(&state(&[4.0, 7.0, 7.0])), 3.0);
        // z = 1*1 - 2 = -1 → ReLU → 0 → +1
        assert_eq!(p.weight(&state(&[1.0, 7.0, 7.0])), 1.0);
        assert_eq!(p.name(), "WSD-L");
    }

    #[test]
    fn normalisation_is_applied() {
        let norm = FeatureNorm::new(vec![10.0, 0.0], vec![2.0, 0.0]);
        let p = LinearPolicy::new(vec![1.0, 1.0], 0.0, norm);
        // Feature 0: (14-10)/2 = 2; feature 1: std 0 → treated as 1 → 3.
        assert_eq!(p.evaluate(&state(&[14.0, 3.0])), 6.0);
    }

    #[test]
    fn neutral_policy_is_constant_one() {
        let p = LinearPolicy::neutral(6);
        assert_eq!(p.evaluate(&state(&[9.0; 6])), 1.0);
        assert_eq!(p.dim(), 6);
    }

    #[test]
    fn weights_always_at_least_one() {
        let p = LinearPolicy::new(vec![-5.0, -5.0], -3.0, FeatureNorm::identity(2));
        assert_eq!(p.evaluate(&state(&[100.0, 100.0])), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = LinearPolicy::new(vec![1.0], 0.0, FeatureNorm::identity(2));
    }

    #[test]
    fn weight_spec_round_trips_every_variant() {
        let specs = [
            WeightSpec::Uniform,
            WeightSpec::Heuristic,
            WeightSpec::Policy(LinearPolicy::new(
                vec![0.25, -1.5, 1e-12],
                0.75,
                FeatureNorm::new(vec![1.0, 2.0, 3.0], vec![0.5, 4.0, 8.0]),
            )),
        ];
        for spec in specs {
            let mut w = ByteWriter::new();
            spec.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = WeightSpec::decode(&mut r).expect("decode");
            r.finish().expect("consumed exactly");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn weight_spec_rejects_non_finite_and_bad_tags() {
        // Hand-build a policy spec holding a NaN weight.
        let mut w = ByteWriter::new();
        w.put_u8(2);
        w.put_len(1);
        w.put_f64(f64::NAN);
        w.put_f64(0.0);
        for _ in 0..2 {
            w.put_len(1);
            w.put_f64(0.0);
        }
        let bytes = w.into_bytes();
        assert!(WeightSpec::decode(&mut ByteReader::new(&bytes)).is_err());
        assert!(WeightSpec::decode(&mut ByteReader::new(&[9])).is_err());
        // Truncated at every prefix.
        for cut in 0..bytes.len() {
            assert!(WeightSpec::decode(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}

//! DDPG (Lillicrap et al., ICLR 2016 \[22\]) specialised to the paper's
//! weight-assignment MDP (§IV-B).
//!
//! * **Actor** `µ(s; θ)`: a single linear layer; the executed action
//!   (edge weight) is `a = ReLU(Ws + b) + 1` — the `+1` avoids zero
//!   weights (paper §V-A).
//! * **Critic** `Q(s, a; φ)`: one hidden layer of 10 ReLU units over the
//!   concatenated `[s, a]`.
//! * **Targets** `µ'`, `Q'`: Polyak-averaged copies used to build the
//!   TD target `y_i = r_i + γ·Q'(s_{i+1}, µ'(s_{i+1}))` (Eq. 29).
//! * **Losses**: critic MSE against `y` (Eq. 28); actor
//!   `−1/N Σ Q(s_i, µ(s_i))` (Eq. 30), differentiated through the critic
//!   input.
//!
//! Inputs are normalised by a shared [`RunningNorm`] (the role of the
//! paper's batch normalisation) which also covers the action feature of
//! the critic via a fixed 1/10 scale.
//!
//! Exploration noise (zero-mean Gaussian, decayed multiplicatively) and
//! the soft-update rate τ are not specified in the paper; defaults are
//! σ₀ = 2.0 with decay 0.999 per update and τ = 0.01 (documented in
//! EXPERIMENTS.md).

use crate::nn::{Adam, Cache, Mlp, RunningNorm};
use crate::replay::Transition;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use wsd_core::{FeatureNorm, LinearPolicy};

/// Fixed scale applied to the action before it enters the critic, so
/// that typical weights (1–100) land in a comparable numeric range to
/// the normalised state features.
const ACTION_SCALE: f64 = 0.1;

/// DDPG hyper-parameters.
#[derive(Clone, Debug)]
pub struct DdpgConfig {
    /// Reward discount γ (paper: 0.99).
    pub gamma: f64,
    /// Adam learning rate (paper: 0.001 for both networks).
    pub learning_rate: f64,
    /// Polyak soft-update rate τ for the target networks.
    pub tau: f64,
    /// Critic hidden width (paper: 10).
    pub hidden: usize,
    /// Initial exploration noise σ (std of Gaussian added to actions).
    pub noise_std: f64,
    /// Multiplicative σ decay applied per optimisation step.
    pub noise_decay: f64,
    /// Lower clamp for executed actions (weights must stay positive).
    pub min_action: f64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            learning_rate: 1e-3,
            tau: 0.01,
            hidden: 10,
            noise_std: 2.0,
            noise_decay: 0.999,
            min_action: 0.1,
        }
    }
}

/// The DDPG agent: actor/critic, targets, optimisers, normalisation and
/// exploration state.
pub struct Ddpg {
    cfg: DdpgConfig,
    state_dim: usize,
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    /// Running statistics over *raw* states.
    pub norm: RunningNorm,
    noise_std: f64,
    rng: SmallRng,
    scratch: DdpgScratch,
}

#[derive(Default)]
struct DdpgScratch {
    x: Vec<f64>,
    xa: Vec<f64>,
    cache: Cache,
}

impl Ddpg {
    /// Creates an agent for states of dimension `state_dim`.
    pub fn new(state_dim: usize, cfg: DdpgConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut actor = Mlp::new(&[state_dim, 1], &mut rng);
        // Bias the single ReLU unit slightly positive: with zero-mean
        // normalised inputs a zero-initialised pre-activation sits exactly
        // on the dead side of the ReLU and the actor would never receive
        // a gradient (the paper's actor has the same architecture and
        // inherits PyTorch's positive-probability bias init).
        actor.layers_mut()[0].b[0] = 0.5;
        let critic = Mlp::new(&[state_dim + 1, cfg.hidden, 1], &mut rng);
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let actor_opt = Adam::new(&actor, cfg.learning_rate);
        let critic_opt = Adam::new(&critic, cfg.learning_rate);
        let noise_std = cfg.noise_std;
        Self {
            cfg,
            state_dim,
            actor,
            actor_target,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            norm: RunningNorm::new(state_dim),
            noise_std,
            rng,
            scratch: DdpgScratch::default(),
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Current exploration noise σ.
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Deterministic actor output `ReLU(W·norm(s) + b) + 1` for a raw
    /// state.
    pub fn act_deterministic(&mut self, raw_state: &[f64]) -> f64 {
        let x = &mut self.scratch.x;
        self.norm.normalize(raw_state, x);
        self.actor.forward(x)[0].max(0.0) + 1.0
    }

    /// Exploration action: deterministic output plus Gaussian noise,
    /// clamped positive. Also feeds the running normaliser.
    pub fn act_explore(&mut self, raw_state: &[f64]) -> f64 {
        self.norm.update(raw_state);
        let a = self.act_deterministic(raw_state);
        let noise = gaussian(&mut self.rng) * self.noise_std;
        (a + noise).max(self.cfg.min_action)
    }

    /// One DDPG optimisation step on a uniform mini-batch.
    ///
    /// Returns `(critic_loss, mean_q)` for monitoring.
    pub fn update(&mut self, batch: &[&Transition]) -> (f64, f64) {
        assert!(!batch.is_empty(), "empty DDPG batch");
        let n = batch.len() as f64;
        // ---- Critic update (Eq. 28–29) ----
        let mut critic_loss = 0.0;
        self.critic.zero_grad();
        for tr in batch {
            // y = r + γ·Q'(s', µ'(s')).
            let x_next = {
                let x = &mut self.scratch.x;
                self.norm.normalize(&tr.next_state, x);
                x.clone()
            };
            let a_next = self.actor_target.forward(&x_next)[0].max(0.0) + 1.0;
            let q_next = {
                let xa = &mut self.scratch.xa;
                xa.clear();
                xa.extend_from_slice(&x_next);
                xa.push(a_next * ACTION_SCALE);
                self.critic_target.forward(xa)[0]
            };
            let y = tr.reward + self.cfg.gamma * q_next;
            // Q(s, a) with gradient.
            let x = &mut self.scratch.x;
            self.norm.normalize(&tr.state, x);
            let xa = &mut self.scratch.xa;
            xa.clear();
            xa.extend_from_slice(x);
            xa.push(tr.action * ACTION_SCALE);
            let q = self.critic.forward_cached(xa, &mut self.scratch.cache);
            let err = q - y;
            critic_loss += err * err / n;
            self.critic.backward(&self.scratch.cache, 2.0 * err / n);
        }
        self.critic_opt.step(&mut self.critic);
        // ---- Actor update (Eq. 30) ----
        let mut mean_q = 0.0;
        self.actor.zero_grad();
        for tr in batch {
            let x = {
                let x = &mut self.scratch.x;
                self.norm.normalize(&tr.state, x);
                x.clone()
            };
            // µ(s) with its own cache (single linear layer).
            let pre = self.actor.forward(&x)[0];
            let a = pre.max(0.0) + 1.0;
            // dQ/da at (s, µ(s)).
            let xa = &mut self.scratch.xa;
            xa.clear();
            xa.extend_from_slice(&x);
            xa.push(a * ACTION_SCALE);
            let q = self.critic.forward_cached(xa, &mut self.scratch.cache);
            mean_q += q / n;
            // Use a scratch critic backward to read ∂Q/∂input without
            // disturbing critic grads permanently (they are zeroed on the
            // next critic update anyway).
            self.critic.zero_grad();
            let gin = self.critic.backward(&self.scratch.cache, 1.0);
            let dq_da = gin[self.state_dim] * ACTION_SCALE;
            // Loss = −Q ⇒ dL/da = −dQ/da; through ReLU (+1 has slope 1).
            if pre > 0.0 {
                let dldy = -dq_da / n;
                // Actor is a single linear layer: feed the gradient in.
                let mut cache = Cache::default();
                let _ = self.actor.forward_cached(&x, &mut cache);
                self.actor.backward(&cache, dldy);
            }
        }
        self.critic.zero_grad();
        self.actor_opt.step(&mut self.actor);
        // ---- Target soft updates ----
        self.actor_target.soft_update_from(&self.actor, self.cfg.tau);
        self.critic_target.soft_update_from(&self.critic, self.cfg.tau);
        // ---- Exploration decay ----
        self.noise_std *= self.cfg.noise_decay;
        (critic_loss, mean_q)
    }

    /// Exports the actor as a frozen [`LinearPolicy`] usable by
    /// `wsd-core`'s WSD-L sampler.
    pub fn export_policy(&self) -> LinearPolicy {
        let layer = &self.actor.layers()[0];
        let norm = FeatureNorm::new(self.norm.mean().to_vec(), self.norm.std());
        LinearPolicy::new(layer.w.clone(), layer.b[0], norm)
    }
}

/// Standard-normal sample via Box–Muller.
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(s: f64, a: f64, r: f64, s2: f64) -> Transition {
        Transition { state: vec![s, s * 0.5], action: a, reward: r, next_state: vec![s2, s2 * 0.5] }
    }

    #[test]
    fn act_is_at_least_one_deterministically() {
        let mut agent = Ddpg::new(2, DdpgConfig::default(), 1);
        for s in [-5.0, 0.0, 3.0, 100.0] {
            assert!(agent.act_deterministic(&[s, s]) >= 1.0);
        }
    }

    #[test]
    fn exploration_clamps_positive() {
        let mut agent = Ddpg::new(2, DdpgConfig { noise_std: 50.0, ..Default::default() }, 2);
        for i in 0..200 {
            let a = agent.act_explore(&[i as f64, 1.0]);
            assert!(a >= 0.1, "action {a} below clamp");
        }
    }

    #[test]
    fn noise_decays_with_updates() {
        let mut agent = Ddpg::new(2, DdpgConfig::default(), 3);
        let before = agent.noise_std();
        let batch: Vec<Transition> =
            (0..16).map(|i| transition(i as f64, 1.0, 0.0, i as f64 + 1.0)).collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        for t in &batch {
            agent.norm.update(&t.state);
        }
        agent.update(&refs);
        assert!(agent.noise_std() < before);
    }

    /// A smoke-test MDP where larger actions in "good" states earn more
    /// reward: after training, the actor should output larger actions in
    /// good states than bad ones.
    #[test]
    fn learns_state_dependent_actions() {
        let cfg = DdpgConfig {
            noise_std: 0.0,
            learning_rate: 5e-3,
            // Low discount keeps the contextual-bandit structure of this
            // synthetic MDP from blowing up Q magnitudes (s' = s here).
            gamma: 0.3,
            ..Default::default()
        };
        let mut agent = Ddpg::new(2, cfg, 4);
        // good state = [1, 0] → reward proportional to action;
        // bad state  = [0, 1] → reward proportional to −action.
        let mut batch = Vec::new();
        for i in 0..256 {
            let a = 1.0 + (i % 10) as f64;
            let good = i % 2 == 0;
            let (s, r) = if good { (vec![1.0, 0.0], a) } else { (vec![0.0, 1.0], -a) };
            batch.push(Transition { state: s.clone(), action: a, reward: r, next_state: s });
        }
        for t in &batch {
            agent.norm.update(&t.state);
        }
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..400 {
            let refs: Vec<&Transition> =
                (0..64).map(|_| &batch[rng.random_range(0..batch.len())]).collect();
            agent.update(&refs);
        }
        let good_action = agent.act_deterministic(&[1.0, 0.0]);
        let bad_action = agent.act_deterministic(&[0.0, 1.0]);
        assert!(
            good_action > bad_action + 0.5,
            "expected policy to differentiate states: good {good_action} vs bad {bad_action}"
        );
        assert_eq!(bad_action, 1.0, "bad state should be driven to the ReLU floor");
    }

    #[test]
    fn exported_policy_matches_actor() {
        let mut agent = Ddpg::new(3, DdpgConfig::default(), 5);
        for i in 0..50 {
            agent.norm.update(&[i as f64, 2.0 * i as f64, 1.0]);
        }
        let mut policy = agent.export_policy();
        use wsd_core::{StateVector, WeightFn};
        for s in [[0.0, 1.0, 2.0], [10.0, 20.0, 1.0], [50.0, 0.0, 9.0]] {
            let via_agent = agent.act_deterministic(&s);
            let via_policy = policy.weight(&StateVector::from_values(s.to_vec()));
            assert!(
                (via_agent - via_policy).abs() < 1e-12,
                "agent {via_agent} vs exported policy {via_policy}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}

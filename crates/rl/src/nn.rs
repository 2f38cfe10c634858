//! Minimal dense neural-network substrate: linear layers, ReLU MLPs,
//! Adam, and running feature normalisation — everything DDPG needs,
//! implemented from scratch (no external ML dependency: the workspace
//! builds offline). The networks here are tiny (the paper's critic has
//! one 10-unit hidden layer; the actor is a single linear unit), so
//! clarity wins over vectorisation.

use rand::rngs::SmallRng;
use rand::RngExt;

/// A dense layer `y = W x + b` with accumulated gradients.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Row-major weights, `out_dim × in_dim`.
    pub w: Vec<f64>,
    /// Biases, `out_dim`.
    pub b: Vec<f64>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    gw: Vec<f64>,
    gb: Vec<f64>,
}

impl Linear {
    /// Xavier-uniform initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SmallRng) -> Self {
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim).map(|_| rng.random_range(-bound..bound)).collect();
        Self {
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// Forward pass into a caller buffer.
    pub fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.in_dim);
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }

    /// Backward pass: accumulates `∂L/∂W`, `∂L/∂b` for input `x` and
    /// upstream gradient `gout`, writing `∂L/∂x` into `gin`.
    pub fn backward(&mut self, x: &[f64], gout: &[f64], gin: &mut Vec<f64>) {
        debug_assert_eq!(gout.len(), self.out_dim);
        gin.clear();
        gin.resize(self.in_dim, 0.0);
        for (o, &g) in gout.iter().enumerate() {
            self.gb[o] += g;
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += g * x[i];
                gin[i] += g * row[i];
            }
        }
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn for_each_param_grad(&mut self, f: &mut impl FnMut(&mut f64, f64)) {
        for (p, &g) in self.w.iter_mut().zip(&self.gw) {
            f(p, g);
        }
        for (p, &g) in self.b.iter_mut().zip(&self.gb) {
            f(p, g);
        }
    }

    fn soft_update_from(&mut self, src: &Linear, tau: f64) {
        for (t, s) in self.w.iter_mut().zip(&src.w) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, s) in self.b.iter_mut().zip(&src.b) {
            *t = tau * s + (1.0 - tau) * *t;
        }
    }
}

/// A ReLU MLP with a linear output layer (no output activation).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Forward-pass cache for backprop: the input to each layer.
#[derive(Clone, Debug, Default)]
pub struct Cache {
    /// `inputs[l]` is the (post-activation) input to layer `l`;
    /// `inputs[len]` is the final output.
    inputs: Vec<Vec<f64>>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[7, 10, 1]` for
    /// the paper's critic.
    pub fn new(sizes: &[usize], rng: &mut SmallRng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let layers = sizes.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// Direct access to the layers (used to export the trained actor).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (initialisation tweaks).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Forward pass without caching (inference).
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if l + 1 < self.layers.len() {
                next.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Forward pass caching layer inputs for a later [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f64], cache: &mut Cache) -> f64 {
        cache.inputs.clear();
        cache.inputs.push(x.to_vec());
        let mut next = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(cache.inputs.last().unwrap(), &mut next);
            if l + 1 < self.layers.len() {
                next.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            cache.inputs.push(next.clone());
        }
        debug_assert_eq!(self.out_dim(), 1, "forward_cached assumes scalar output");
        cache.inputs.last().unwrap()[0]
    }

    /// Backward pass for a scalar output gradient `dldy`, accumulating
    /// parameter gradients and returning `∂L/∂x`.
    pub fn backward(&mut self, cache: &Cache, dldy: f64) -> Vec<f64> {
        let mut gout = vec![dldy];
        let mut gin = Vec::new();
        for l in (0..self.layers.len()).rev() {
            // ReLU derivative on the *input* of layer l (for l > 0 the
            // input was already rectified, so `input > 0 ⇔ preact > 0`).
            self.layers[l].backward(&cache.inputs[l], &gout, &mut gin);
            if l > 0 {
                for (g, &a) in gin.iter_mut().zip(&cache.inputs[l]) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            std::mem::swap(&mut gout, &mut gin);
        }
        gout
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(Linear::zero_grad);
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    fn for_each_param_grad(&mut self, f: &mut impl FnMut(&mut f64, f64)) {
        for l in &mut self.layers {
            l.for_each_param_grad(f);
        }
    }

    /// Polyak soft update `θ ← τ·θ_src + (1−τ)·θ` (target networks).
    pub fn soft_update_from(&mut self, src: &Mlp, tau: f64) {
        debug_assert_eq!(self.layers.len(), src.layers.len());
        for (t, s) in self.layers.iter_mut().zip(&src.layers) {
            t.soft_update_from(s, tau);
        }
    }
}

/// Adam optimiser state for one [`Mlp`].
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam state for `net` with learning rate `lr` and the
    /// standard betas (0.9, 0.999).
    pub fn new(net: &Mlp, lr: f64) -> Self {
        let n = net.param_count();
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: vec![0.0; n], v: vec![0.0; n] }
    }

    /// Applies one Adam step using the gradients accumulated in `net`,
    /// then zeroes them.
    pub fn step(&mut self, net: &mut Mlp) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let mut idx = 0usize;
        let (m, v) = (&mut self.m, &mut self.v);
        net.for_each_param_grad(&mut |p, g| {
            m[idx] = beta1 * m[idx] + (1.0 - beta1) * g;
            v[idx] = beta2 * v[idx] + (1.0 - beta2) * g * g;
            let mhat = m[idx] / bc1;
            let vhat = v[idx] / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
            idx += 1;
        });
        net.zero_grad();
    }
}

/// Welford running mean/variance per feature — the role the paper's
/// batch normalisation plays ("to avoid data scale issues"), frozen into
/// a [`wsd_core::FeatureNorm`] when the policy is exported.
#[derive(Clone, Debug)]
pub struct RunningNorm {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl RunningNorm {
    /// Creates a zeroed normaliser of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self { count: 0, mean: vec![0.0; dim], m2: vec![0.0; dim] }
    }

    /// Observes one raw feature vector.
    pub fn update(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.mean.len());
        self.count += 1;
        let n = self.count as f64;
        for (i, &xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / n;
            self.m2[i] += delta * (xi - self.mean[i]);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-feature standard deviation (1.0 before two observations or
    /// for constant features).
    pub fn std(&self) -> Vec<f64> {
        self.m2
            .iter()
            .map(|&m2| {
                if self.count < 2 {
                    1.0
                } else {
                    let s = (m2 / (self.count - 1) as f64).sqrt();
                    if s > 1e-12 {
                        s
                    } else {
                        1.0
                    }
                }
            })
            .collect()
    }

    /// Per-feature mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Normalises `x` into `out`.
    pub fn normalize(&self, x: &[f64], out: &mut Vec<f64>) {
        let std = self.std();
        out.clear();
        out.extend(x.iter().zip(self.mean.iter().zip(&std)).map(|(&xi, (&m, &s))| (xi - m) / s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.w = vec![1.0, 2.0, 3.0, 4.0];
        l.b = vec![0.5, -0.5];
        let mut out = Vec::new();
        l.forward(&[1.0, -1.0], &mut out);
        assert_eq!(out, vec![1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 1], &mut rng());
        let x = [0.3, -0.7, 1.2];
        // Analytic gradient of L = net(x).
        let mut cache = Cache::default();
        let _ = net.forward_cached(&x, &mut cache);
        net.zero_grad();
        let gx = net.backward(&cache, 1.0);
        // Check input gradient by central differences.
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let num = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * h);
            assert!(
                (num - gx[i]).abs() < 1e-5,
                "input grad {i}: analytic {} vs numeric {num}",
                gx[i]
            );
        }
        // Check parameter gradients for the first layer by perturbation.
        let mut flat_grads = Vec::new();
        net.for_each_param_grad(&mut |_, g| flat_grads.push(g));
        let mut idx = 0;
        let mut net2 = net.clone();
        net2.zero_grad();
        // Perturb each parameter of each layer and compare.
        for l in 0..net2.layers.len() {
            for k in 0..net2.layers[l].w.len() {
                let orig = net2.layers[l].w[k];
                net2.layers[l].w[k] = orig + h;
                let fp = net2.forward(&x)[0];
                net2.layers[l].w[k] = orig - h;
                let fm = net2.forward(&x)[0];
                net2.layers[l].w[k] = orig;
                let num = (fp - fm) / (2.0 * h);
                assert!(
                    (num - flat_grads[idx]).abs() < 1e-5,
                    "layer {l} w[{k}]: analytic {} vs numeric {num}",
                    flat_grads[idx]
                );
                idx += 1;
            }
            idx += net2.layers[l].b.len(); // biases checked below
        }
        // Bias gradients: output layer bias grad is exactly 1.
        let total = flat_grads.len();
        assert!((flat_grads[total - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adam_minimises_a_quadratic() {
        // Fit net(x) ≈ 3 for a fixed input: loss = (y − 3)².
        let mut net = Mlp::new(&[2, 4, 1], &mut rng());
        let mut opt = Adam::new(&net, 0.05);
        let x = [1.0, -2.0];
        let mut cache = Cache::default();
        for _ in 0..300 {
            let y = net.forward_cached(&x, &mut cache);
            net.backward(&cache, 2.0 * (y - 3.0));
            opt.step(&mut net);
        }
        let y = net.forward(&x)[0];
        assert!((y - 3.0).abs() < 1e-2, "converged to {y}");
    }

    #[test]
    fn soft_update_interpolates() {
        let src = Mlp::new(&[2, 1], &mut rng());
        let mut tgt = src.clone();
        // Move target away, then soft-update back.
        tgt.layers[0].w[0] += 1.0;
        let before = tgt.layers[0].w[0];
        tgt.soft_update_from(&src, 0.25);
        let expect = 0.25 * src.layers[0].w[0] + 0.75 * before;
        assert!((tgt.layers[0].w[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn running_norm_matches_batch_statistics() {
        let mut n = RunningNorm::new(2);
        let data = [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]];
        for d in &data {
            n.update(d);
        }
        assert_eq!(n.mean(), &[2.5, 25.0]);
        let std = n.std();
        let expect0 = (data.iter().map(|d| (d[0] - 2.5f64).powi(2)).sum::<f64>() / 3.0).sqrt();
        assert!((std[0] - expect0).abs() < 1e-12);
        let mut out = Vec::new();
        n.normalize(&[2.5, 25.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        assert_eq!(n.count(), 4);
    }

    #[test]
    fn running_norm_handles_constant_features() {
        let mut n = RunningNorm::new(1);
        for _ in 0..10 {
            n.update(&[7.0]);
        }
        assert_eq!(n.std(), vec![1.0]); // degenerate → identity scale
        let mut out = Vec::new();
        n.normalize(&[7.0], &mut out);
        assert_eq!(out, vec![0.0]);
    }
}

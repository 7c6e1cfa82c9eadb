//! Optimizers: SGD, Adam, and AdamW (with optional AMSGrad).
//!
//! Table II of the paper lists AdamW with `amsgrad` for the power-constrained
//! experiments and Adam for the EDP experiments, both at a learning rate of
//! `0.001`; these are reproduced here, plus plain SGD for baselines.

use crate::layer::Parameter;
use crate::Tensor;
use std::collections::HashMap;

/// Common interface for all optimizers.
///
/// Optimizer state (moment estimates) is keyed by parameter *name*, so the
/// set of parameters passed to `step` can be rebuilt each iteration as long
/// as names stay stable.
pub trait Optimizer {
    /// Applies one update step to all parameters and clears their gradients.
    fn step(&mut self, params: &mut [&mut Parameter]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by simple LR schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Creates SGD without momentum.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// Creates SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        for p in params.iter_mut() {
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(p.name.clone())
                    .or_insert_with(|| Tensor::zeros(&p.value.shape));
                for (vi, gi) in v.data.iter_mut().zip(&p.grad.data) {
                    *vi = self.momentum * *vi + *gi;
                }
                for (w, vi) in p.value.data.iter_mut().zip(&v.data) {
                    *w -= self.lr * *vi;
                }
            } else {
                for (w, g) in p.value.data.iter_mut().zip(&p.grad.data) {
                    *w -= self.lr * *g;
                }
            }
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Per-parameter Adam state.
struct AdamState {
    m: Tensor,
    v: Tensor,
    v_max: Tensor,
}

/// Shared implementation behind [`Adam`] and [`AdamW`].
struct AdamCore {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// Decoupled decay (AdamW) when true; L2-in-gradient (classic Adam) when false.
    decoupled: bool,
    amsgrad: bool,
    t: u64,
    state: HashMap<String, AdamState>,
}

impl AdamCore {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for p in params.iter_mut() {
            let st = self
                .state
                .entry(p.name.clone())
                .or_insert_with(|| AdamState {
                    m: Tensor::zeros(&p.value.shape),
                    v: Tensor::zeros(&p.value.shape),
                    v_max: Tensor::zeros(&p.value.shape),
                });
            assert_eq!(
                st.m.shape, p.value.shape,
                "parameter {} changed shape between optimizer steps",
                p.name
            );
            for i in 0..p.value.data.len() {
                let mut g = p.grad.data[i];
                if !self.decoupled && self.weight_decay > 0.0 {
                    g += self.weight_decay * p.value.data[i];
                }
                st.m.data[i] = self.beta1 * st.m.data[i] + (1.0 - self.beta1) * g;
                st.v.data[i] = self.beta2 * st.v.data[i] + (1.0 - self.beta2) * g * g;
                let m_hat = st.m.data[i] / bc1;
                let v_hat = if self.amsgrad {
                    st.v_max.data[i] = st.v_max.data[i].max(st.v.data[i]);
                    st.v_max.data[i] / bc2
                } else {
                    st.v.data[i] / bc2
                };
                let mut update = self.lr * m_hat / (v_hat.sqrt() + self.eps);
                if self.decoupled && self.weight_decay > 0.0 {
                    update += self.lr * self.weight_decay * p.value.data[i];
                }
                p.value.data[i] -= update;
            }
            p.zero_grad();
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with classic L2 regularization.
pub struct Adam {
    core: AdamCore,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            core: AdamCore {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.0,
                decoupled: false,
                amsgrad: false,
                t: 0,
                state: HashMap::new(),
            },
        }
    }

    /// Enables classic (coupled) L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.core.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        self.core.step(params);
    }

    fn learning_rate(&self) -> f32 {
        self.core.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.core.lr = lr;
    }
}

/// AdamW: Adam with decoupled weight decay, optionally with AMSGrad
/// (the configuration used by the paper's power-constrained experiments).
pub struct AdamW {
    core: AdamCore,
}

impl AdamW {
    /// Creates AdamW with weight decay `0.01` and AMSGrad disabled.
    pub fn new(lr: f32) -> Self {
        AdamW {
            core: AdamCore {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.01,
                decoupled: true,
                amsgrad: false,
                t: 0,
                state: HashMap::new(),
            },
        }
    }

    /// Enables the AMSGrad variant (max of past second moments).
    pub fn amsgrad(mut self) -> Self {
        self.core.amsgrad = true;
        self
    }

    /// Overrides the decoupled weight-decay coefficient.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.core.weight_decay = wd;
        self
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        self.core.step(params);
    }

    fn learning_rate(&self) -> f32 {
        self.core.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.core.lr = lr;
    }
}

/// Clips the global L2 norm of all gradients to `max_norm` (a standard
/// stabilization trick for small-batch GNN training).
pub fn clip_grad_norm(params: &mut [&mut Parameter], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| p.grad.data.iter().map(|g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            p.grad.scale_inplace(scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    /// Minimizes f(w) = ||w - target||² with each optimizer and checks
    /// convergence.
    fn converges<O: Optimizer>(mut opt: O, iters: usize) -> f32 {
        let target = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]);
        let mut p = Parameter::new("w", Tensor::zeros(&[4]));
        for _ in 0..iters {
            // grad of ||w - t||² is 2(w - t)
            p.grad = p.value.sub(&target).scale(2.0);
            opt.step(&mut [&mut p]);
        }
        p.value.sub(&target).norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(converges(Sgd::new(0.1), 200) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        assert!(converges(Sgd::with_momentum(0.05, 0.9), 200) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(converges(Adam::new(0.05), 500) < 1e-2);
    }

    #[test]
    fn adamw_amsgrad_converges_on_quadratic() {
        assert!(converges(AdamW::new(0.05).amsgrad(), 500) < 5e-2);
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights() {
        // With zero gradient, decoupled decay should shrink weights toward 0.
        let mut opt = AdamW::new(0.1).with_weight_decay(0.1);
        let mut p = Parameter::new("w", Tensor::full(&[4], 1.0));
        for _ in 0..50 {
            p.grad = Tensor::zeros(&[4]);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data.iter().all(|&w| w.abs() < 0.7));
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut opt = Adam::new(0.01);
        let mut p = Parameter::new("w", Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        opt.step(&mut [&mut p]);
        assert!(p.grad.data.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut p = Parameter::new("w", Tensor::zeros(&[4]));
        p.grad = Tensor::full(&[4], 10.0);
        let before = clip_grad_norm(&mut [&mut p], 1.0);
        assert!(before > 1.0);
        let after: f32 = p.grad.data.iter().map(|g| g * g).sum::<f32>().sqrt();
        assert!((after - 1.0).abs() < 1e-4);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn optimizers_train_a_tiny_network() {
        use crate::{cross_entropy, Layer, Linear};
        let mut rng = SeededRng::new(31);
        let x = Tensor::randn(&[16, 4], &mut rng);
        // Labels defined by a simple separable rule.
        let targets: Vec<usize> = (0..16)
            .map(|r| if x.get(r, 0) > 0.0 { 1 } else { 0 })
            .collect();
        let mut layer = Linear::new(4, 2, &mut rng);
        let mut opt = AdamW::new(0.05).amsgrad();
        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            let logits = layer.forward_train(&x);
            let (loss, dl) = cross_entropy(&logits, &targets);
            layer.backward(&dl);
            opt.step(&mut layer.parameters());
            last_loss = loss;
        }
        assert!(last_loss < 0.2, "final loss {last_loss}");
    }
}

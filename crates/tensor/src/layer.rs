//! The [`Layer`] trait and the [`Parameter`] container shared by all layers.

use crate::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable parameter: a value tensor plus its accumulated gradient.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Parameter {
    /// Stable name used when saving/loading weights (e.g. `"rgcn0.w_rel1"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(&value.shape);
        Parameter {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Resets the gradient to zero (call between optimizer steps).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar weights in this parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// Minimal interface shared by all feed-forward layers.
///
/// Inference and training are separate entry points. `forward` is pure: it
/// takes `&self` and writes nothing, so one layer can serve many threads at
/// once. `forward_train` records what `backward` needs, then computes the
/// same output (only [`crate::Dropout`] differs: it samples a mask).
/// `backward` consumes the gradient w.r.t. the layer output and returns the
/// gradient w.r.t. the layer input, accumulating parameter gradients
/// internally.
pub trait Layer {
    /// Inference forward pass.
    fn forward(&self, input: &Tensor) -> Tensor;

    /// Training forward pass: caches the backward state, then runs the
    /// inference body.
    fn forward_train(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass; returns gradient with respect to the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to all trainable parameters (may be empty).
    fn parameters(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars in the layer.
    fn num_weights(&mut self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_starts_with_zero_grad() {
        let p = Parameter::new("w", Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.shape, vec![2, 3]);
        assert!(p.grad.data.iter().all(|&x| x == 0.0));
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Parameter::new("w", Tensor::ones(&[2, 2]));
        p.grad = Tensor::full(&[2, 2], 3.0);
        p.zero_grad();
        assert!(p.grad.data.iter().all(|&x| x == 0.0));
    }
}

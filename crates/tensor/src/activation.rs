//! Activation functions with cached-input backward passes.
//!
//! The PnP model (Table II) uses Leaky ReLU inside the RGCN stack and ReLU in
//! the dense classifier; Sigmoid and Tanh are provided for the surrogate
//! models used by the BLISS-style tuner.

use crate::layer::Layer;
use crate::Tensor;

macro_rules! simple_activation {
    ($(#[$meta:meta])* $name:ident, $fwd:expr, $bwd:expr) => {
        $(#[$meta])*
        pub struct $name {
            cached_input: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self { cached_input: None }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Layer for $name {
            fn forward(&self, input: &Tensor) -> Tensor {
                let f: fn(f32) -> f32 = $fwd;
                input.map(f)
            }

            fn forward_train(&mut self, input: &Tensor) -> Tensor {
                self.cached_input = Some(input.clone());
                self.forward(input)
            }

            fn backward(&mut self, grad_output: &Tensor) -> Tensor {
                let input = self
                    .cached_input
                    .as_ref()
                    .expect("activation backward called before forward_train");
                let d: fn(f32) -> f32 = $bwd;
                grad_output.zip_with(&input.map(d), |g, dx| g * dx)
            }
        }
    };
}

simple_activation!(
    /// Rectified linear unit: `max(0, x)`.
    ReLU,
    |x| if x > 0.0 { x } else { 0.0 },
    |x| if x > 0.0 { 1.0 } else { 0.0 }
);

simple_activation!(
    /// Hyperbolic tangent activation.
    Tanh,
    |x| x.tanh(),
    |x| 1.0 - x.tanh() * x.tanh()
);

simple_activation!(
    /// Logistic sigmoid activation.
    Sigmoid,
    |x| 1.0 / (1.0 + (-x).exp()),
    |x| {
        let s = 1.0 / (1.0 + (-x).exp());
        s * (1.0 - s)
    }
);

/// Leaky rectified linear unit: `x` for positive inputs, `slope * x` otherwise.
pub struct LeakyReLU {
    /// Negative-side slope (PyTorch default 0.01).
    pub slope: f32,
    cached_input: Option<Tensor>,
}

impl LeakyReLU {
    /// Creates a Leaky ReLU with the default slope of `0.01`.
    pub fn new() -> Self {
        Self::with_slope(0.01)
    }

    /// Creates a Leaky ReLU with a custom negative slope.
    pub fn with_slope(slope: f32) -> Self {
        LeakyReLU {
            slope,
            cached_input: None,
        }
    }

    /// [`Layer::forward`] in place: the same value for every element,
    /// without a new tensor.
    pub fn forward_inplace(&self, x: &mut Tensor) {
        let s = self.slope;
        x.map_inplace(|x| if x > 0.0 { x } else { s * x });
    }
}

impl Default for LeakyReLU {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for LeakyReLU {
    fn forward(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        self.forward_inplace(&mut out);
        out
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("LeakyReLU backward called before forward_train");
        let s = self.slope;
        grad_output.zip_with(input, |g, x| if x > 0.0 { g } else { s * g })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = relu.forward_train(&x);
        assert_eq!(y.data, vec![0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_slope() {
        let mut lr = LeakyReLU::with_slope(0.1);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]);
        let y = lr.forward_train(&x);
        assert!((y.data[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.data[1], 3.0);
        let g = lr.backward(&Tensor::ones(&[2]));
        assert!((g.data[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.data[1], 1.0);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]);
        let y = s.forward_train(&x);
        assert!(y.data[0] < 0.01 && y.data[2] > 0.99);
        assert!((y.data[1] - 0.5).abs() < 1e-6);
        let g = s.backward(&Tensor::ones(&[3]));
        assert!((g.data[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut t = Tanh::new();
        let x = Tensor::zeros(&[1]);
        let _ = t.forward_train(&x);
        let g = t.backward(&Tensor::ones(&[1]));
        assert!((g.data[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn activations_have_no_parameters() {
        assert_eq!(ReLU::new().parameters().len(), 0);
        assert_eq!(LeakyReLU::new().parameters().len(), 0);
    }
}

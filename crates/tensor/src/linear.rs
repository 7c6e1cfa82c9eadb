//! Fully connected (dense) layer with bias.

use crate::init::{kaiming_normal, SeededRng};
use crate::layer::{Layer, Parameter};
use crate::Tensor;

/// A dense layer computing `Y = X·W + b`.
///
/// `X` is `(batch x in_features)`, `W` is `(in_features x out_features)` and
/// `b` is broadcast over rows. The input is cached during `forward_train` so
/// the weight gradient can be formed in `backward`.
pub struct Linear {
    /// Weight matrix parameter.
    pub weight: Parameter,
    /// Bias vector parameter.
    pub bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::from_parameters(
            Parameter::new(
                "linear.weight",
                kaiming_normal(in_features, out_features, rng),
            ),
            Parameter::new("linear.bias", Tensor::zeros(&[out_features])),
        )
    }

    /// A layer over the given `in_features x out_features` weight and
    /// `out_features` bias.
    pub fn from_parameters(weight: Parameter, bias: Parameter) -> Self {
        Linear {
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Creates a layer with the given prefix on parameter names (used to make
    /// checkpoint names unique inside a larger model).
    pub fn with_name(
        prefix: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let mut l = Linear::new(in_features, out_features, rng);
        l.weight.name = format!("{prefix}.weight");
        l.bias.name = format!("{prefix}.bias");
        l
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }
}

impl Layer for Linear {
    fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.in_features(),
            "Linear expected {} input features, got {}",
            self.in_features(),
            input.cols()
        );
        let mut out = input.matmul(&self.weight.value);
        out.add_row_broadcast_inplace(&self.bias.value);
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
            .expect("Linear::backward called before forward_train");
        // dW = Xᵀ · dY ; db = column-sum(dY) ; dX = dY · Wᵀ
        let dw = input.matmul_at_b(grad_output);
        self.weight.grad.add_assign(&dw);
        let db = grad_output.sum_rows();
        self.bias.grad.add_assign(&db);
        grad_output.matmul_a_bt(&self.weight.value)
    }

    fn parameters(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the analytic gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(11);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);

        // Scalar objective: sum of outputs.
        let y = layer.forward_train(&x);
        let grad_out = Tensor::ones(&y.shape);
        let dx = layer.backward(&grad_out);

        let eps = 1e-3_f32;
        // Check dL/dW numerically for a few entries.
        for &(i, j) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let mut wp = layer.weight.value.clone();
            wp.set(i, j, wp.get(i, j) + eps);
            let mut lp = Linear::new(3, 2, &mut rng);
            lp.weight.value = wp;
            lp.bias.value = layer.bias.value.clone();
            let f_plus = lp.forward(&x).sum();

            let mut wm = layer.weight.value.clone();
            wm.set(i, j, wm.get(i, j) - eps);
            let mut lm = Linear::new(3, 2, &mut rng);
            lm.weight.value = wm;
            lm.bias.value = layer.bias.value.clone();
            let f_minus = lm.forward(&x).sum();

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = layer.weight.grad.get(i, j);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{i},{j}]: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Check dL/dX numerically for one entry.
        let (r, c) = (2usize, 1usize);
        let mut xp = x.clone();
        xp.set(r, c, xp.get(r, c) + eps);
        let f_plus = layer.forward(&xp).sum();
        let mut xm = x.clone();
        xm.set(r, c, xm.get(r, c) - eps);
        let f_minus = layer.forward(&xm).sum();
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        let analytic = dx.get(r, c);
        assert!((numeric - analytic).abs() < 1e-2);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = SeededRng::new(12);
        let mut layer = Linear::new(2, 3, &mut rng);
        let x = Tensor::randn(&[5, 2], &mut rng);
        let _ = layer.forward_train(&x);
        let g = Tensor::ones(&[5, 3]);
        let _ = layer.backward(&g);
        assert!(layer.bias.grad.data.iter().all(|&b| (b - 5.0).abs() < 1e-6));
    }

    #[test]
    fn output_shape() {
        let mut rng = SeededRng::new(13);
        let layer = Linear::new(8, 4, &mut rng);
        let x = Tensor::zeros(&[10, 8]);
        let y = layer.forward(&x);
        assert_eq!(y.shape, vec![10, 4]);
    }

    #[test]
    fn parameters_exposed() {
        let mut rng = SeededRng::new(14);
        let mut layer = Linear::with_name("fc1", 4, 4, &mut rng);
        let names: Vec<String> = layer.parameters().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["fc1.weight", "fc1.bias"]);
        assert_eq!(layer.num_weights(), 4 * 4 + 4);
    }
}

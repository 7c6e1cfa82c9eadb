//! Inverted dropout regularization.

use crate::init::SeededRng;
use crate::layer::Layer;
use crate::Tensor;

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and the survivors are scaled by `1/(1-p)`; at inference the layer is
/// the identity.
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own RNG seed.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout {
            p,
            rng: SeededRng::new(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&self, input: &Tensor) -> Tensor {
        input.clone()
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            self.mask = None;
            return self.forward(input);
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(&input.shape);
        for m in mask.data.iter_mut() {
            *m = if self.rng.bernoulli(keep) {
                1.0 / keep
            } else {
                0.0
            };
        }
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_output.mul(mask),
            None => grad_output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        let y = d.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn training_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward_train(&x);
        let zeros = y.data.iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / y.numel() as f32;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
        // Survivors are scaled so the expected value is preserved.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.3, 3);
        let x = Tensor::ones(&[10, 10]);
        let y = d.forward_train(&x);
        let g = d.backward(&Tensor::ones(&[10, 10]));
        // gradient is zero exactly where the output was zero
        for (o, gr) in y.data.iter().zip(&g.data) {
            assert_eq!(*o == 0.0, *gr == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::ones(&[3, 3]);
        assert_eq!(d.forward_train(&x), x);
    }
}

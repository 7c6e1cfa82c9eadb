//! Token-embedding lookup table.
//!
//! Node text in the PROGRAML-style code graphs is mapped to a vocabulary id
//! (see `pnp-graph::vocab`); this layer turns those ids into dense vectors
//! that feed the first RGCN layer, mirroring the "IR text to tensor"
//! embedding described in Section III-D1 of the paper.

use crate::init::SeededRng;
use crate::layer::{Layer, Parameter};
use crate::Tensor;

/// A learnable `vocab_size x dim` embedding table with scatter-add backward.
pub struct Embedding {
    /// The embedding matrix parameter.
    pub table: Parameter,
    cached_ids: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates an embedding table initialized from `N(0, 0.1)`.
    pub fn new(vocab_size: usize, dim: usize, rng: &mut SeededRng) -> Self {
        let mut init = Tensor::randn(&[vocab_size, dim], rng);
        init.scale_inplace(0.1);
        Self::from_table(Parameter::new("embedding.table", init))
    }

    /// An embedding over the given `vocab_size x dim` table.
    pub fn from_table(table: Parameter) -> Self {
        Embedding {
            table,
            cached_ids: None,
        }
    }

    /// Vocabulary size (number of rows).
    pub fn vocab_size(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension (number of columns).
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// Looks up a batch of token ids, producing an `(ids.len() x dim)` matrix.
    ///
    /// Out-of-vocabulary ids are clamped to the last row (the `<unk>` slot by
    /// convention in `pnp-graph`).
    pub fn lookup(&self, ids: &[usize]) -> Tensor {
        let vs = self.vocab_size();
        let clamped: Vec<usize> = ids.iter().map(|&i| i.min(vs - 1)).collect();
        self.table.value.select_rows(&clamped)
    }

    /// Training lookup: records the ids for [`Embedding::backward_ids`],
    /// then runs [`Embedding::lookup`].
    pub fn lookup_train(&mut self, ids: &[usize]) -> Tensor {
        let vs = self.vocab_size();
        self.cached_ids = Some(ids.iter().map(|&i| i.min(vs - 1)).collect());
        self.lookup(ids)
    }

    /// Backward pass: scatter-adds the output gradient rows into the table.
    pub fn backward_ids(&mut self, grad_output: &Tensor) {
        let ids = self
            .cached_ids
            .as_ref()
            .expect("Embedding::backward_ids called before lookup_train");
        assert_eq!(grad_output.rows(), ids.len());
        for (row, &id) in ids.iter().enumerate() {
            self.table.grad.add_to_row(id, grad_output.row(row));
        }
    }
}

/// The token ids in a tensor's first column (rounded toward zero, negatives
/// read as 0).
fn column_ids(input: &Tensor) -> Vec<usize> {
    (0..input.rows())
        .map(|r| input.get(r, 0).max(0.0) as usize)
        .collect()
}

impl Layer for Embedding {
    /// The `Layer` forward treats the input tensor's first column as token
    /// ids (rounded); prefer [`Embedding::lookup`] when you already have ids.
    fn forward(&self, input: &Tensor) -> Tensor {
        self.lookup(&column_ids(input))
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.lookup_train(&column_ids(input))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_ids(grad_output);
        // Token ids are discrete; there is no gradient to propagate further.
        Tensor::zeros(&[grad_output.rows(), 1])
    }

    fn parameters(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_selects_rows() {
        let mut rng = SeededRng::new(21);
        let emb = Embedding::new(10, 4, &mut rng);
        let out = emb.lookup(&[3, 3, 7]);
        assert_eq!(out.shape, vec![3, 4]);
        assert_eq!(out.row(0), out.row(1));
        assert_eq!(out.row(0), emb.table.value.row(3));
        assert_eq!(out.row(2), emb.table.value.row(7));
    }

    #[test]
    fn out_of_vocab_clamps_to_last_row() {
        let mut rng = SeededRng::new(22);
        let emb = Embedding::new(5, 2, &mut rng);
        let out = emb.lookup(&[999]);
        assert_eq!(out.row(0), emb.table.value.row(4));
    }

    #[test]
    fn backward_scatter_adds() {
        let mut rng = SeededRng::new(23);
        let mut emb = Embedding::new(4, 3, &mut rng);
        let _ = emb.lookup_train(&[1, 1, 2]);
        let g = Tensor::ones(&[3, 3]);
        emb.backward_ids(&g);
        assert!(emb
            .table
            .grad
            .row(1)
            .iter()
            .all(|&x| (x - 2.0).abs() < 1e-6));
        assert!(emb
            .table
            .grad
            .row(2)
            .iter()
            .all(|&x| (x - 1.0).abs() < 1e-6));
        assert!(emb.table.grad.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn exposes_single_parameter() {
        let mut rng = SeededRng::new(24);
        let mut emb = Embedding::new(8, 8, &mut rng);
        assert_eq!(emb.parameters().len(), 1);
        assert_eq!(emb.num_weights(), 64);
    }
}

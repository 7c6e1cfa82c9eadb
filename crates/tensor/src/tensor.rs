//! The core dense [`Tensor`] type.
//!
//! Tensors are row-major `f32` buffers with a 1-D or 2-D shape. Shapes are
//! intentionally restricted to what the PnP model needs — node-feature
//! matrices, weight matrices, bias vectors and logit matrices are all 2-D (a
//! 1-D tensor is treated as a single row where it matters).

use crate::init::SeededRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor with up to two dimensions.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Flattened row-major data, `rows * cols` elements.
    pub data: Vec<f32>,
    /// Shape: `[len]` for vectors, `[rows, cols]` for matrices.
    pub shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` is empty or has more than 2 dimensions.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        assert!(
            !shape.is_empty() && shape.len() <= 2,
            "only 1-D and 2-D tensors are supported, got shape {shape:?}"
        );
        let numel: usize = shape.iter().product();
        Tensor {
            data: vec![value; numel],
            shape: shape.to_vec(),
        }
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        assert!(
            !shape.is_empty() && shape.len() <= 2,
            "only 1-D and 2-D tensors are supported, got shape {shape:?}"
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Builds a 2-D tensor from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Creates a tensor with values drawn from a standard normal distribution.
    pub fn randn(shape: &[usize], rng: &mut SeededRng) -> Self {
        let numel: usize = shape.iter().product();
        let data: Vec<f32> = (0..numel).map(|_| rng.normal()).collect();
        Tensor::from_vec(data, shape)
    }

    /// Creates a tensor with values drawn uniformly from `[lo, hi)`.
    pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let numel: usize = shape.iter().product();
        let data: Vec<f32> = (0..numel).map(|_| rng.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of rows (a 1-D tensor is a single row).
    pub fn rows(&self) -> usize {
        if self.shape.len() == 1 {
            1
        } else {
            self.shape[0]
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        if self.shape.len() == 1 {
            self.shape[0]
        } else {
            self.shape[1]
        }
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows() && c < self.cols());
        self.data[r * self.cols() + c]
    }

    /// Sets element `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows() && c < self.cols());
        let cols = self.cols();
        self.data[r * cols + c] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies the contents of `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols());
        self.row_mut(r).copy_from_slice(src);
    }

    /// Adds `src` element-wise into row `r`.
    pub fn add_to_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols());
        for (d, s) in self.row_mut(r).iter_mut().zip(src) {
            *d += *s;
        }
    }

    /// Adds `scale * src` element-wise into row `r`.
    pub fn axpy_row(&mut self, r: usize, scale: f32, src: &[f32]) {
        assert_eq!(src.len(), self.cols());
        for (d, s) in self.row_mut(r).iter_mut().zip(src) {
            *d += scale * *s;
        }
    }

    /// Returns a new tensor containing the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[indices.len(), self.cols()]);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Tensor::select_rows`] written into `out`, which takes the result's
    /// shape and keeps its allocation when that is large enough.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        let cols = self.cols();
        out.shape.clear();
        out.shape.extend([indices.len(), cols]);
        out.data.resize(indices.len() * cols, 0.0);
        if cols == 0 {
            return;
        }
        for (dst, &src) in out.data.chunks_exact_mut(cols).zip(indices) {
            dst.copy_from_slice(self.row(src));
        }
    }

    /// Returns a copy reshaped to `shape` (element count must match).
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Returns the matrix transpose.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Concatenates two tensors along the column axis (same number of rows).
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows(),
            other.rows(),
            "concat_cols requires matching row counts"
        );
        let (r, c1, c2) = (self.rows(), self.cols(), other.cols());
        let mut out = Tensor::zeros(&[r, c1 + c2]);
        for i in 0..r {
            out.row_mut(i)[..c1].copy_from_slice(self.row(i));
            out.row_mut(i)[c1..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Stacks row vectors (1-D tensors of equal length) into a matrix.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows requires at least one tensor");
        let cols = rows[0].numel();
        let mut out = Tensor::zeros(&[rows.len(), cols]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.numel(), cols, "all stacked rows must have equal length");
            out.set_row(i, &r.data);
        }
        out
    }

    /// Frobenius / L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?}", self.data)?;
        } else {
            write!(f, ", data=[{:.4}, {:.4}, ...]", self.data[0], self.data[1])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.numel(), 12);
        assert!(t.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vector_is_single_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(1, 2, 7.5);
        assert_eq!(t.get(1, 2), 7.5);
        assert_eq!(t.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let tt = t.transpose();
        assert_eq!(tt.shape, vec![3, 2]);
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let t = Tensor::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn concat_cols_widths_add() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::full(&[2, 2], 2.0);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape, vec![2, 5]);
        assert_eq!(c.row(0), &[1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let rows = vec![
            Tensor::from_vec(vec![1.0, 2.0], &[2]),
            Tensor::from_vec(vec![3.0, 4.0], &[2]),
        ];
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.shape, vec![2, 2]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn axpy_row_accumulates() {
        let mut t = Tensor::ones(&[2, 2]);
        t.axpy_row(0, 2.0, &[1.0, 3.0]);
        assert_eq!(t.row(0), &[3.0, 7.0]);
        assert_eq!(t.row(1), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = SeededRng::new(7);
        let mut r2 = SeededRng::new(7);
        let a = Tensor::randn(&[4, 4], &mut r1);
        let b = Tensor::randn(&[4, 4], &mut r2);
        assert_eq!(a, b);
    }
}

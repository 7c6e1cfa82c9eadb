//! Elementwise operations, reductions and broadcasting helpers on [`Tensor`].

use crate::Tensor;

impl Tensor {
    /// Elementwise addition. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a / b)
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place `self += scale * other` (AXPY).
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * *b;
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place scalar multiplication.
    pub fn scale_inplace(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Adds a row vector (bias) to every row of a matrix.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_row_broadcast_inplace(bias);
        out
    }

    /// [`Tensor::add_row_broadcast`] in place, without the copy.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Tensor) {
        assert_eq!(
            bias.numel(),
            self.cols(),
            "bias length {} must equal column count {}",
            bias.numel(),
            self.cols()
        );
        for r in 0..self.rows() {
            for (d, b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *d += *b;
            }
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of every element.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (NaN-free input assumed).
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Column-wise sum: returns a 1-D tensor of length `cols`.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.cols()]);
        for r in 0..self.rows() {
            for (o, v) in out.data.iter_mut().zip(self.row(r)) {
                *o += *v;
            }
        }
        out
    }

    /// Column-wise mean: returns a 1-D tensor of length `cols`.
    pub fn mean_rows(&self) -> Tensor {
        let mut s = self.sum_rows();
        let n = self.rows().max(1) as f32;
        s.scale_inplace(1.0 / n);
        s
    }

    /// Per-segment column-wise sum over contiguous ranges of gathered rows.
    ///
    /// Reads the virtual matrix whose row `r` is `self.row(rows[r])`,
    /// without copying it out: how a readout pools node rows that a table
    /// stores once per node class. `segments` holds `B + 1` ascending
    /// offsets into it (`segments[0] == 0`, `segments[B] == rows.len()`);
    /// block `i` spans virtual rows `segments[i]..segments[i + 1]`. Returns
    /// a `[B, cols]` matrix whose row `i` equals `sum_rows()` of block `i`
    /// — same accumulation order (rows ascending, one f32 accumulator per
    /// column), so each output row is bit-identical to summing the block
    /// as a standalone matrix.
    pub fn segment_sum_rows_of(&self, rows: &[usize], segments: &[usize]) -> Tensor {
        assert!(
            !segments.is_empty(),
            "segments must hold at least one offset"
        );
        let n = segments.len() - 1;
        assert_eq!(segments[0], 0, "segments must start at row 0");
        assert_eq!(
            segments[n],
            rows.len(),
            "segments must end at the row count"
        );
        let cols = self.cols();
        let mut out = Tensor::zeros(&[n, cols]);
        for s in 0..n {
            assert!(segments[s] <= segments[s + 1], "segments must be ascending");
            let dst = out.row_mut(s);
            for &r in rows.get(segments[s]..segments[s + 1]).unwrap_or_default() {
                for (o, v) in dst.iter_mut().zip(self.row(r)) {
                    *o += *v;
                }
            }
        }
        out
    }

    /// Per-segment column-wise mean over contiguous ranges of gathered rows.
    ///
    /// Same layout contract as [`Tensor::segment_sum_rows_of`]; row `i` of
    /// the result equals `mean_rows()` of block `i` bit-for-bit (segment
    /// sum, then one multiplication by `1.0 / len`, with empty blocks
    /// divided by 1 exactly as `mean_rows` does for an empty matrix).
    pub fn segment_mean_rows_of(&self, rows: &[usize], segments: &[usize]) -> Tensor {
        let mut out = self.segment_sum_rows_of(rows, segments);
        for s in 0..segments.len() - 1 {
            let len = (segments[s + 1] - segments[s]).max(1) as f32;
            let inv = 1.0 / len;
            for x in out.row_mut(s) {
                *x *= inv;
            }
        }
        out
    }

    /// Index of the maximum value in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Per-row argmax for the whole matrix.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows()).map(|r| self.argmax_row(r)).collect()
    }

    /// Clamps all values into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Returns the dot product of two 1-D tensors (or flattened tensors of
    /// equal length).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }
}

/// Computes the geometric mean of a slice of positive values.
///
/// Used throughout the evaluation: the paper reports geometric-mean speedups,
/// greenups, and EDP improvements.
///
/// Total on all inputs (the paper-fidelity validator sweeps degenerate
/// cases through every aggregate): an empty slice yields the multiplicative
/// neutral element `1.0`, a single element yields itself, and non-positive
/// or non-finite entries are floored at a tiny positive value instead of
/// panicking (a zero-time/zero-energy region then drags the mean toward
/// zero, which is the honest qualitative signal). Use
/// [`checked_geometric_mean`] when the caller needs to *detect* degenerate
/// input rather than absorb it.
pub fn geometric_mean(values: &[f64]) -> f64 {
    checked_geometric_mean(values).unwrap_or_else(|| {
        if values.is_empty() {
            return 1.0;
        }
        let floor = f64::MIN_POSITIVE;
        let log_sum: f64 = values
            .iter()
            .map(|&v| if v > 0.0 && v.is_finite() { v } else { floor }.ln())
            .sum();
        (log_sum / values.len() as f64).exp()
    })
}

/// Strict geometric mean: `None` when the slice is empty or any value is
/// non-positive or non-finite (the cases [`geometric_mean`] papers over).
pub fn checked_geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|&v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![4.0, 3.0, 2.0, 1.0], &[2, 2]);
        assert_eq!(a.add(&b).data, vec![5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).data, vec![-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).data, vec![4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).data, vec![0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.sum_rows().data, vec![4.0, 6.0]);
        assert_eq!(a.mean_rows().data, vec![2.0, 3.0]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Tensor::zeros(&[3, 2]);
        let b = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let y = x.add_row_broadcast(&b);
        for r in 0..3 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn segment_reductions_match_per_block_reductions_bitwise() {
        // Ragged blocks (3, 1, 0, 2 rows) with awkward values so any change
        // in accumulation order would flip low bits.
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|r| (0..3).map(|c| 0.1 + (r * 3 + c) as f32 * 0.3).collect())
            .collect();
        let m = Tensor::from_rows(&rows);
        let all: Vec<usize> = (0..6).collect();
        let segments = [0usize, 3, 4, 4, 6];
        let sums = m.segment_sum_rows_of(&all, &segments);
        let means = m.segment_mean_rows_of(&all, &segments);
        assert_eq!(sums.shape, vec![4, 3]);
        assert_eq!(means.shape, vec![4, 3]);
        for s in 0..4 {
            let slice = &rows[segments[s]..segments[s + 1]];
            let block = if slice.is_empty() {
                Tensor::zeros(&[0, 3])
            } else {
                Tensor::from_rows(slice)
            };
            for (got, want) in sums.row(s).iter().zip(&block.sum_rows().data) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            for (got, want) in means.row(s).iter().zip(&block.mean_rows().data) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn whole_matrix_segment_equals_plain_reductions() {
        let m = Tensor::from_rows(&[vec![1.5, -2.0], vec![0.25, 7.0], vec![-3.0, 0.5]]);
        let sums = m.segment_sum_rows_of(&[0, 1, 2], &[0, 3]);
        assert_eq!(sums.row(0), &m.sum_rows().data[..]);
        let means = m.segment_mean_rows_of(&[0, 1, 2], &[0, 3]);
        assert_eq!(means.row(0), &m.mean_rows().data[..]);
    }

    #[test]
    fn gathered_segment_reductions_match_the_selected_rows_bitwise() {
        let m = Tensor::from_rows(&[vec![0.1, -2.3], vec![1.7, 0.3], vec![9.1, 0.7]]);
        let rows = [2usize, 0, 0, 1, 2];
        let segments = [0usize, 2, 2, 5];
        let selected = m.select_rows(&rows);
        let all: Vec<usize> = (0..rows.len()).collect();
        let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&m.segment_sum_rows_of(&rows, &segments)),
            bits(&selected.segment_sum_rows_of(&all, &segments))
        );
        assert_eq!(
            bits(&m.segment_mean_rows_of(&rows, &segments)),
            bits(&selected.segment_mean_rows_of(&all, &segments))
        );
    }

    #[test]
    #[should_panic]
    fn segment_offsets_must_cover_all_rows() {
        let m = Tensor::zeros(&[4, 2]);
        let _ = m.segment_sum_rows_of(&[0, 1, 2, 3], &[0, 2]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let x = Tensor::from_rows(&[vec![0.1, 0.9, 0.2], vec![5.0, 1.0, 2.0]]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 3.0);
        a.axpy(2.0, &b);
        assert!(a.data.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        let g = geometric_mean(&[2.0, 2.0, 2.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn geometric_mean_is_total_on_degenerate_input() {
        // Single element: identity (up to rounding through exp∘ln).
        assert!((geometric_mean(&[3.25]) - 3.25).abs() < 1e-12);
        // Zero / negative / non-finite entries no longer panic; they are
        // floored and drag the mean toward zero.
        let with_zero = geometric_mean(&[0.0, 4.0]);
        assert!(with_zero.is_finite() && (0.0..1e-6).contains(&with_zero));
        assert!(geometric_mean(&[-1.0, 2.0]).is_finite());
        assert!(geometric_mean(&[f64::NAN, 2.0]).is_finite());
        assert!(geometric_mean(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn checked_geometric_mean_detects_degenerate_input() {
        assert!((checked_geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((checked_geometric_mean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(checked_geometric_mean(&[]), None);
        assert_eq!(checked_geometric_mean(&[0.0, 4.0]), None);
        assert_eq!(checked_geometric_mean(&[-1.0]), None);
        assert_eq!(checked_geometric_mean(&[f64::NAN]), None);
        assert_eq!(checked_geometric_mean(&[f64::INFINITY]), None);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.add(&b);
    }
}

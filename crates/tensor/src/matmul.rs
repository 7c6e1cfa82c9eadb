//! Matrix multiplication kernels.
//!
//! The RGCN forward/backward passes are dominated by dense `H · W` products
//! where `H` is a node-feature matrix and `W` a small square weight matrix
//! (16–64 columns). The inference forward multiplies only the rows some
//! later step reads: [`Tensor::matmul_rows`] takes a list of source rows
//! (a relation's distinct edge sources, or the first layer's distinct
//! `(token, kind)` rows) and runs the same per-row kernel over just those.
//! A simple ikj-ordered kernel with a transposed-operand variant is more
//! than fast enough on a single core and keeps the code dependency-free.
//!
//! ## Opt-in intra-op parallelism
//!
//! The row-parallel kernels ([`Tensor::matmul`], [`Tensor::matmul_rows`],
//! [`Tensor::matmul_a_bt`]) can fan their output-row loop out over the
//! in-tree OpenMP executor (`pnp_openmp::par`). Each worker computes a
//! contiguous *block of output rows* with exactly the serial kernel's
//! per-element operation order (the inner `k` accumulation stays
//! ascending), and blocks are written back by index — so the product is
//! **bit-identical for every worker count**, the same guarantee the
//! dataset sweep and LOOCV training fan-outs rely on (DESIGN.md §9/§10).
//!
//! Parallelism is *opt-in* and defaults to serial: set the
//! `PNP_MATMUL_THREADS` environment variable (`auto` or a worker count) or
//! call [`set_matmul_threads`]. It pays off when large-graph RGCN layers
//! dominate and the outer training fan-out cannot fill the machine on its
//! own (fold-count < core-count); tiny products below
//! [`PAR_MIN_ROWS`] output rows always take the serial path (a gathered
//! product counts the rows it gathers, so a first RGCN layer over a few
//! dozen distinct `(token, kind)` rows stays serial), as does
//! `matmul_at_b` (its output rows are *columns* of the left operand, so the
//! serial kk-outer streaming order is the cache-friendly one and its outputs
//! are small weight-gradient matrices).

use crate::Tensor;
use pnp_openmp::{parallel_map_indexed, Threads};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable giving the default worker count of the row-parallel
/// matmul kernels. Unset or unparseable means serial (the feature is
/// opt-in); `auto` means one worker per available core; a decimal integer
/// means exactly that many workers.
pub const MATMUL_THREADS_ENV_VAR: &str = "PNP_MATMUL_THREADS";

/// Minimum number of output rows before the parallel path engages. Below
/// this the fork/join cost of the per-call executor dwarfs the arithmetic
/// (RGCN weight matrices are 16–64 rows; node-feature matrices are
/// hundreds).
pub const PAR_MIN_ROWS: usize = 128;

/// Worker-count override: `usize::MAX` means "not overridden, consult the
/// environment once".
static MATMUL_THREADS: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_matmul_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| match std::env::var(MATMUL_THREADS_ENV_VAR) {
        // Opt-in: unset, empty, or unparseable all mean serial.
        Ok(v) if !v.trim().is_empty() => Threads::parse(&v).map_or(1, |t| t.resolve()),
        _ => 1,
    })
}

/// Sets the worker count used by the row-parallel matmul kernels for the
/// rest of the process (overriding `PNP_MATMUL_THREADS`). `0` and `1` both
/// select the serial path. Safe to flip at any time: the parallel kernels
/// are bit-identical to the serial ones, so concurrent callers only ever
/// observe a performance difference.
pub fn set_matmul_threads(workers: usize) {
    MATMUL_THREADS.store(workers.max(1), Ordering::Relaxed);
}

/// The worker count the row-parallel matmul kernels currently use
/// ([`set_matmul_threads`] if called, else `PNP_MATMUL_THREADS`, else 1).
pub fn matmul_threads() -> usize {
    match MATMUL_THREADS.load(Ordering::Relaxed) {
        usize::MAX => env_matmul_threads(),
        n => n,
    }
}

/// Splits `0..m` into at most `workers` contiguous row blocks and runs
/// `fill` once per block, writing each block's rows into `out.data` by
/// index. `fill(i, row)` must compute output row `i` exactly as the serial
/// kernel would — the split only decides *which thread* computes a row,
/// never the order of float operations within it.
fn fill_rows_blocked<F>(out: &mut Tensor, m: usize, n: usize, workers: usize, fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let block = m.div_ceil(workers);
    let blocks = m.div_ceil(block);
    let computed: Vec<Vec<f32>> = parallel_map_indexed(blocks, Threads::Fixed(workers), |b| {
        let start = b * block;
        let end = (start + block).min(m);
        let mut rows = vec![0.0f32; (end - start) * n];
        for i in start..end {
            fill(i, &mut rows[(i - start) * n..(i - start + 1) * n]);
        }
        rows
    });
    for (b, rows) in computed.into_iter().enumerate() {
        let start = b * block * n;
        out.data[start..start + rows.len()].copy_from_slice(&rows);
    }
}

impl Tensor {
    /// Dense matrix product `self · other`.
    ///
    /// Uses the row-parallel kernel when the opt-in matmul worker count
    /// ([`matmul_threads`]) exceeds 1 and the output is at least
    /// [`PAR_MIN_ROWS`] rows tall; the result is bit-identical either way.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with_threads(other, matmul_threads())
    }

    /// [`Tensor::matmul`] with an explicit worker count (1 = serial). The
    /// result is bit-identical for every `workers` value.
    pub fn matmul_with_threads(&self, other: &Tensor, workers: usize) -> Tensor {
        self.product_of_rows(self.rows(), |i| self.row(i), other, workers)
    }

    /// `self.select_rows(rows).matmul(other)` without the copy: output row
    /// `j` is source row `rows[j]` times `other`, computed by the same
    /// per-row kernel as [`Tensor::matmul`] and therefore bit-identical to
    /// row `rows[j]` of `self.matmul(other)`. It is how the RGCN layers
    /// multiply only the node rows some edge reads. Row-parallel under the
    /// same knob and [`PAR_MIN_ROWS`] threshold, counted in gathered rows.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or a row index is out of
    /// range.
    pub fn matmul_rows(&self, rows: &[usize], other: &Tensor) -> Tensor {
        self.matmul_rows_with_threads(rows, other, matmul_threads())
    }

    /// [`Tensor::matmul_rows`] with an explicit worker count (1 = serial).
    /// The result is bit-identical for every `workers` value.
    pub fn matmul_rows_with_threads(
        &self,
        rows: &[usize],
        other: &Tensor,
        workers: usize,
    ) -> Tensor {
        // `j < rows.len()` always: the empty fallback is never taken.
        let source = |j: usize| rows.get(j).map_or(&[][..], |&r| self.row(r));
        self.product_of_rows(rows.len(), source, other, workers)
    }

    /// The one `A · B` kernel: `m` output rows, output row `j` computed from
    /// the row `source(j)` of `self`.
    fn product_of_rows<'a, S>(&self, m: usize, source: S, other: &Tensor, workers: usize) -> Tensor
    where
        S: Fn(usize) -> &'a [f32] + Sync,
    {
        let (k, k2, n) = (self.cols(), other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul dimension mismatch: ({}x{k}) · ({k2}x{n})",
            self.rows()
        );
        let mut out = Tensor::zeros(&[m, n]);
        // ikj loop order: streams through `other` rows, good cache behaviour.
        let fill_row = |j: usize, out_row: &mut [f32]| {
            let a_row = source(j);
            for (kk, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(kk);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        };
        if workers > 1 && m >= PAR_MIN_ROWS {
            fill_rows_blocked(&mut out, m, n, workers, fill_row);
        } else {
            for i in 0..m {
                fill_row(i, out.row_mut(i));
            }
        }
        out
    }

    /// Computes `selfᵀ · other` without materializing the transpose.
    ///
    /// Shapes: `self` is `(k x m)`, `other` is `(k x n)`, result is `(m x n)`.
    pub fn matmul_at_b(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k, k2,
            "matmul_at_b dimension mismatch: ({k}x{m})ᵀ · ({k2}x{n})"
        );
        let mut out = Tensor::zeros(&[m, n]);
        for kk in 0..k {
            let a_row = self.row(kk);
            let b_row = other.row(kk);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Computes `self · otherᵀ` without materializing the transpose.
    ///
    /// Shapes: `self` is `(m x k)`, `other` is `(n x k)`, result is `(m x n)`.
    /// Row-parallel under the same opt-in knob as [`Tensor::matmul`], with
    /// the same bit-identity guarantee.
    pub fn matmul_a_bt(&self, other: &Tensor) -> Tensor {
        self.matmul_a_bt_with_threads(other, matmul_threads())
    }

    /// [`Tensor::matmul_a_bt`] with an explicit worker count (1 = serial).
    /// The result is bit-identical for every `workers` value.
    pub fn matmul_a_bt_with_threads(&self, other: &Tensor, workers: usize) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k, k2,
            "matmul_a_bt dimension mismatch: ({m}x{k}) · ({n}x{k2})ᵀ"
        );
        let mut out = Tensor::zeros(&[m, n]);
        let fill_row = |i: usize, out_row: &mut [f32]| {
            let a_row = self.row(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        };
        if workers > 1 && m >= PAR_MIN_ROWS {
            fill_rows_blocked(&mut out, m, n, workers, fill_row);
        } else {
            for i in 0..m {
                fill_row(i, out.row_mut(i));
            }
        }
        out
    }

    /// Matrix–vector product `self · v`, returning a 1-D tensor of length
    /// `rows`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.cols(), v.numel(), "matvec dimension mismatch");
        let mut out = Tensor::zeros(&[self.rows()]);
        for i in 0..self.rows() {
            out.data[i] = self.row(i).iter().zip(&v.data).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Outer product of two 1-D tensors: `(m) ⊗ (n) -> (m x n)`.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        let m = self.numel();
        let n = other.numel();
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            let a = self.data[i];
            for j in 0..n {
                out.data[i * n + j] = a * other.data[j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeededRng::new(1);
        let a = Tensor::randn(&[5, 5], &mut rng);
        let i = Tensor::eye(5);
        let ai = a.matmul(&i);
        for (x, y) in a.data.iter().zip(&ai.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = SeededRng::new(2);
        let a = Tensor::randn(&[7, 3], &mut rng);
        let b = Tensor::randn(&[7, 4], &mut rng);
        let fast = a.matmul_at_b(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data.iter().zip(&slow.data) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let b = Tensor::randn(&[5, 6], &mut rng);
        let fast = a.matmul_a_bt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data.iter().zip(&slow.data) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let v = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]);
        let out = a.matvec(&v);
        assert_eq!(out.data, vec![-2.0, -2.0]);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]);
        let o = a.outer(&b);
        assert_eq!(o.shape, vec![2, 3]);
        assert_eq!(o.data, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial() {
        let mut rng = SeededRng::new(5);
        // Tall enough to clear PAR_MIN_ROWS, with a ragged row count so the
        // last block is short; the sigmoid-ish transform plants exact zeros
        // to exercise the skip-zero branch identically on both paths.
        let m = PAR_MIN_ROWS * 2 + 37;
        let mut a = Tensor::randn(&[m, 48], &mut rng);
        for v in a.data.iter_mut().step_by(7) {
            *v = 0.0;
        }
        let b = Tensor::randn(&[48, 33], &mut rng);
        let serial = a.matmul_with_threads(&b, 1);
        let serial_bt = a.matmul_a_bt_with_threads(&b.transpose(), 1);
        for workers in [2usize, 3, 8, 64] {
            let par = a.matmul_with_threads(&b, workers);
            assert_eq!(par.shape, serial.shape);
            let same = par
                .data
                .iter()
                .zip(&serial.data)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "matmul differs from serial at {workers} workers");
            let par_bt = a.matmul_a_bt_with_threads(&b.transpose(), workers);
            let same_bt = par_bt
                .data
                .iter()
                .zip(&serial_bt.data)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same_bt,
                "matmul_a_bt differs from serial at {workers} workers"
            );
        }
    }

    #[test]
    fn gathered_rows_are_bit_identical_to_the_full_product() {
        let mut rng = SeededRng::new(7);
        let mut a = Tensor::randn(&[PAR_MIN_ROWS + 9, 12], &mut rng);
        for v in a.data.iter_mut().step_by(5) {
            *v = 0.0;
        }
        let b = Tensor::randn(&[12, 6], &mut rng);
        let full = a.matmul_with_threads(&b, 1);
        // Repeats, out-of-order rows, and enough rows for the parallel path.
        let rows: Vec<usize> = (0..PAR_MIN_ROWS + 20)
            .map(|j| (j * 37) % a.rows())
            .collect();
        for workers in [1usize, 2, 5] {
            let gathered = a.matmul_rows_with_threads(&rows, &b, workers);
            assert_eq!(gathered.shape, vec![rows.len(), 6]);
            for (j, &r) in rows.iter().enumerate() {
                let same = gathered
                    .row(j)
                    .iter()
                    .zip(full.row(r))
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "row {j} (source {r}) differs at {workers} workers");
            }
        }
        assert_eq!(a.matmul_rows(&[], &b).shape, vec![0, 6]);
    }

    #[test]
    fn small_products_take_the_serial_path_and_still_match() {
        let mut rng = SeededRng::new(6);
        let a = Tensor::randn(&[PAR_MIN_ROWS - 1, 8], &mut rng);
        let b = Tensor::randn(&[8, 5], &mut rng);
        let serial = a.matmul_with_threads(&b, 1);
        let par = a.matmul_with_threads(&b, 8);
        assert_eq!(par.data, serial.data);
    }

    #[test]
    fn matmul_threads_knob_defaults_to_serial_and_is_settable() {
        // Unless the invoking shell exported PNP_MATMUL_THREADS, the default
        // must be the serial path (this pins the opt-in contract).
        if std::env::var(MATMUL_THREADS_ENV_VAR).is_err() {
            assert_eq!(matmul_threads(), 1);
        }
        set_matmul_threads(4);
        assert_eq!(matmul_threads(), 4);
        // Degenerate request clamps to serial rather than disabling matmul.
        set_matmul_threads(0);
        assert_eq!(matmul_threads(), 1);
    }

    #[test]
    fn associativity_numerically() {
        let mut rng = SeededRng::new(4);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 5], &mut rng);
        let c = Tensor::randn(&[5, 2], &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data.iter().zip(&right.data) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}

//! Matrix multiplication kernels.
//!
//! The RGCN forward/backward passes are dominated by dense `H · W` products
//! where `H` is a node-feature matrix and `W` a small square weight matrix
//! (16–64 columns). The inference forward multiplies only the rows some
//! later step reads: [`Tensor::matmul_rows`] takes a list of source rows
//! (a relation's distinct edge sources, or the first layer's distinct
//! `(token, kind)` rows) and runs the same per-row kernel over just those.
//!
//! ## The `A · B` kernel
//!
//! Every output element is the plain ikj loop's: it starts at `0.0` and
//! adds `a_ik * b_kj` for ascending `k`, skipping `a_ik == 0.0`. The
//! kernel only changes where that sum lives. It walks an output row in
//! strips of 16 columns and keeps each strip's 16 sums in a local array
//! that stays in registers through the whole `k` loop, then stores the
//! strip once; the ikj loop loaded and stored the output row on every `k`.
//! Two output rows share a pass, so each 16-float load of a `B` row feeds
//! both. A width that 16 does not divide ends with a strip aligned to the
//! last column, which recomputes a few columns of the strip before it with
//! the same operations and so stores the same bits; rows narrower than a
//! strip take the ikj loop itself. The products write into a caller's
//! buffer as well ([`Tensor::matmul_into`], [`Tensor::matmul_rows_into`]),
//! which is how the inference forward reuses its node tables.
//!
//! ## Opt-in intra-op parallelism
//!
//! The row-parallel kernels ([`Tensor::matmul`], [`Tensor::matmul_rows`],
//! [`Tensor::matmul_a_bt`]) can fan their output-row loop out over the
//! in-tree OpenMP executor (`pnp_openmp::par`). Each worker runs the serial
//! kernel's body over a contiguous *block of output rows*, with exactly its
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
/// index. `fill(first, rows)` must compute the `n`-wide output rows
/// `first..` that fill `rows` exactly as the serial kernel would — the
/// split only decides *which thread* computes a row, never the order of
/// float operations within it.
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
        fill(start, &mut rows);
        rows
    });
    for (b, rows) in computed.into_iter().enumerate() {
        let start = b * block * n;
        out.data[start..start + rows.len()].copy_from_slice(&rows);
    }
}

/// Output columns one pass of the `A · B` kernel accumulates in registers.
const STRIP: usize = 16;

/// Columns `c..c + STRIP` of output rows `a0 · B` and `a1 · B`, where
/// `b_from` is `B`'s data from column `c` of row 0 on and `n` is `B`'s
/// width (at least `c + STRIP`). Each accumulator starts at `0.0` and adds
/// `a_ik * b_kj` for ascending `k`, skipping `a_ik == 0.0` — per element
/// exactly the float operations of the ikj loop over a zeroed output row.
/// The two rows share each load of a `B` strip.
#[inline(always)]
fn strip_pair(a0: &[f32], a1: &[f32], b_from: &[f32], n: usize) -> [[f32; STRIP]; 2] {
    let (mut acc0, mut acc1) = ([0.0f32; STRIP], [0.0f32; STRIP]);
    for ((&x0, &x1), b_row) in a0.iter().zip(a1).zip(b_from.chunks(n)) {
        let Some(b) = b_row.first_chunk::<STRIP>() else {
            break;
        };
        if x0 != 0.0 {
            for (acc, &b) in acc0.iter_mut().zip(b) {
                *acc += x0 * b;
            }
        }
        if x1 != 0.0 {
            for (acc, &b) in acc1.iter_mut().zip(b) {
                *acc += x1 * b;
            }
        }
    }
    [acc0, acc1]
}

/// [`strip_pair`] for one row.
#[inline(always)]
fn strip(a: &[f32], b_from: &[f32], n: usize) -> [f32; STRIP] {
    let mut acc = [0.0f32; STRIP];
    for (&x, b_row) in a.iter().zip(b_from.chunks(n)) {
        let Some(b) = b_row.first_chunk::<STRIP>() else {
            break;
        };
        if x != 0.0 {
            for (acc, &b) in acc.iter_mut().zip(b) {
                *acc += x * b;
            }
        }
    }
    acc
}

/// The column offsets of the strips that cover an `n`-wide row (`n >=
/// STRIP`): every full strip, then one strip ending at the last column when
/// `STRIP` does not divide `n`. That last strip overlaps the one before it
/// and recomputes the shared columns by the same operations, so writing
/// them twice writes the same bits.
fn strip_starts(n: usize) -> impl Iterator<Item = usize> {
    let ragged = (!n.is_multiple_of(STRIP)).then_some(n - STRIP);
    (0..n / STRIP).map(|s| s * STRIP).chain(ragged)
}

/// Columns `c..c + STRIP` of an output row.
fn strip_mut(row: &mut [f32], c: usize) -> Option<&mut [f32; STRIP]> {
    row.get_mut(c..)?.first_chunk_mut()
}

/// `B`'s data from column `c` of row 0 on.
fn from_column(b: &[f32], c: usize) -> &[f32] {
    b.get(c..).unwrap_or_default()
}

/// Output rows `a0 · B` and `a1 · B` (`B` is `k x n` with `n >= STRIP`).
fn rows_pair(a0: &[f32], a1: &[f32], b: &[f32], n: usize, out0: &mut [f32], out1: &mut [f32]) {
    for c in strip_starts(n) {
        if let (Some(o0), Some(o1)) = (strip_mut(out0, c), strip_mut(out1, c)) {
            [*o0, *o1] = strip_pair(a0, a1, from_column(b, c), n);
        }
    }
}

/// Output row `a · B` (`B` is `k x n`). Rows narrower than a strip take the
/// plain ikj loop over a zeroed row, which performs the same per-element
/// operations.
fn one_row(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    if n >= STRIP {
        for c in strip_starts(n) {
            if let Some(o) = strip_mut(out, c) {
                *o = strip(a, from_column(b, c), n);
            }
        }
        return;
    }
    out.fill(0.0);
    for (&x, b_row) in a.iter().zip(b.chunks_exact(n)) {
        if x == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(b_row) {
            *o += x * b;
        }
    }
}

/// Fills the `n`-wide output rows `first..` held by `out` from the rows
/// `source(j)` of `A` times `B`: two rows per pass while both use strips,
/// then the odd row alone.
fn fill_product_rows<'a, S>(source: &S, b: &[f32], n: usize, first: usize, out: &mut [f32])
where
    S: Fn(usize) -> &'a [f32],
{
    let mut j = first;
    let rest = if n >= STRIP {
        let mut pairs = out.chunks_exact_mut(2 * n);
        for pair in &mut pairs {
            let (out0, out1) = pair.split_at_mut(n);
            rows_pair(source(j), source(j + 1), b, n, out0, out1);
            j += 2;
        }
        pairs.into_remainder()
    } else {
        out
    };
    for row in rest.chunks_exact_mut(n) {
        one_row(source(j), b, n, row);
        j += 1;
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
        let mut out = Tensor::zeros(&[self.rows(), other.cols()]);
        self.product_of_rows(self.rows(), |i| self.row(i), other, workers, &mut out);
        out
    }

    /// [`Tensor::matmul`] written into `out`, which takes the product's
    /// shape and keeps its allocation when that is large enough: how the
    /// inference forward reuses one node table across layers and models.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_of_rows(self.rows(), |i| self.row(i), other, matmul_threads(), out);
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
        let mut out = Tensor::zeros(&[rows.len(), other.cols()]);
        self.gathered_product(rows, other, workers, &mut out);
        out
    }

    /// [`Tensor::matmul_rows`] written into `out`, which takes the
    /// product's shape and keeps its allocation when that is large enough.
    pub fn matmul_rows_into(&self, rows: &[usize], other: &Tensor, out: &mut Tensor) {
        self.gathered_product(rows, other, matmul_threads(), out);
    }

    /// Output row `j` = source row `rows[j]` times `other`, into `out`.
    fn gathered_product(&self, rows: &[usize], other: &Tensor, workers: usize, out: &mut Tensor) {
        // `j < rows.len()` always: the empty fallback is never taken.
        let source = |j: usize| rows.get(j).map_or(&[][..], |&r| self.row(r));
        self.product_of_rows(rows.len(), source, other, workers, out);
    }

    /// The one `A · B` kernel: `m` output rows written into `out`, output
    /// row `j` computed from the row `source(j)` of `self`. Every element
    /// of `out` is overwritten, so a reused buffer needs no zeroing.
    fn product_of_rows<'a, S>(
        &self,
        m: usize,
        source: S,
        other: &Tensor,
        workers: usize,
        out: &mut Tensor,
    ) where
        S: Fn(usize) -> &'a [f32] + Sync,
    {
        let (k, k2, n) = (self.cols(), other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul dimension mismatch: ({}x{k}) · ({k2}x{n})",
            self.rows()
        );
        out.shape.clear();
        out.shape.extend([m, n]);
        out.data.resize(m * n, 0.0);
        if n == 0 {
            return;
        }
        let b = &other.data;
        if workers > 1 && m >= PAR_MIN_ROWS {
            fill_rows_blocked(out, m, n, workers, |first, rows| {
                fill_product_rows(&source, b, n, first, rows)
            });
        } else {
            fill_product_rows(&source, b, n, 0, &mut out.data);
        }
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
        if n == 0 {
            return out;
        }
        let fill = |first: usize, rows: &mut [f32]| {
            for (i, out_row) in (first..).zip(rows.chunks_exact_mut(n)) {
                let a_row = self.row(i);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = other.row(j);
                    let mut acc = 0.0f32;
                    for (a, b) in a_row.iter().zip(b_row) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        };
        if workers > 1 && m >= PAR_MIN_ROWS {
            fill_rows_blocked(&mut out, m, n, workers, fill);
        } else {
            fill(0, &mut out.data);
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

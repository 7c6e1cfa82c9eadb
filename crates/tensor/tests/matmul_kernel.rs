//! The `A · B` kernel against the plain ikj loop it replaced.
//!
//! `Tensor::product_of_rows` accumulates output strips in registers and
//! pairs rows to share loads of `B`, but every output element must still
//! get the same float operations in the same order: start at `0.0`, add
//! `a_ik * b_kj` for ascending `k`, skip `a_ik == 0.0`. These tests hold
//! `matmul`, `matmul_rows` and every worker count to that loop, `to_bits`
//! for `to_bits`, over the widths that matter (below, at and across a
//! strip boundary, the model's hidden widths and class counts) and over
//! inputs that punish a changed operation: signed zeros and subnormals in
//! `A`, infinities and NaN in `B`. Dropping the zero skip turns a skipped
//! `0 · inf` into NaN and fails them.
//!
//! Rust leaves NaN payloads unspecified, so a NaN matches any NaN; every
//! other value must match its reference bit for bit.

use pnp_tensor::init::SeededRng;
use pnp_tensor::{Layer, LeakyReLU, Tensor, PAR_MIN_ROWS};

/// Output widths: narrower than a strip, one strip, ragged strips, and the
/// model's class counts.
const WIDTHS: [usize; 10] = [1, 3, 15, 16, 17, 31, 32, 33, 126, 504];
/// Output heights: empty, one row, an odd count (a lone row after the
/// pairs), and enough rows for the row-parallel path.
const HEIGHTS: [usize; 4] = [0, 1, 7, PAR_MIN_ROWS + 1];

/// The kernel as it was: a zeroed output row, `k` ascending, zeros skipped.
fn reference<'a>(rows: impl Iterator<Item = &'a [f32]>, b: &Tensor) -> Vec<f32> {
    let mut out = Vec::new();
    for a_row in rows {
        let mut out_row = vec![0.0f32; b.cols()];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(b.row(kk)) {
                *o += a_ik * b;
            }
        }
        out.extend(out_row);
    }
    out
}

/// `A` (`m x k`): normal values with planted `0.0`, `-0.0` and subnormals.
fn left(m: usize, k: usize, rng: &mut SeededRng) -> Tensor {
    let mut a = Tensor::randn(&[m, k], rng);
    for (i, v) in a.data.iter_mut().enumerate() {
        match i % 11 {
            2 => *v = 0.0,
            5 => *v = -0.0,
            8 => *v = f32::from_bits(0x0000_0007) * v.signum(),
            _ => {}
        }
    }
    a
}

/// `B` (`k x n`): normal values with planted infinities and a NaN, none of
/// them in the first row so most outputs stay finite.
fn right(k: usize, n: usize, rng: &mut SeededRng) -> Tensor {
    let mut b = Tensor::randn(&[k, n], rng);
    for (i, v) in b.data.iter_mut().enumerate().skip(n) {
        match i % 53 {
            13 => *v = f32::INFINITY,
            29 => *v = f32::NEG_INFINITY,
            41 => *v = f32::NAN,
            _ => {}
        }
    }
    b
}

fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[test]
fn every_product_matches_the_ikj_loop_bit_for_bit() {
    let mut rng = SeededRng::new(0x1C7);
    for n in WIDTHS {
        for k in 1..=40 {
            for m in HEIGHTS {
                let a = left(m, k, &mut rng);
                let b = right(k, n, &mut rng);
                let want = reference((0..m).map(|i| a.row(i)), &b);
                let got = a.matmul(&b);
                assert_eq!(got.shape, vec![m, n]);
                assert!(same_bits(&got.data, &want), "matmul m={m} k={k} n={n}");
                for workers in [1, 2, 3] {
                    let got = a.matmul_with_threads(&b, workers);
                    assert!(
                        same_bits(&got.data, &want),
                        "matmul m={m} k={k} n={n} at {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn gathered_products_match_the_ikj_loop_bit_for_bit() {
    let mut rng = SeededRng::new(0x2C7);
    for n in WIDTHS {
        for k in 1..=40 {
            let a = left(13, k, &mut rng);
            let b = right(k, n, &mut rng);
            for m in HEIGHTS {
                // Out of order, with repeats.
                let rows: Vec<usize> = (0..m).map(|j| (j * 5 + 3) % a.rows()).collect();
                let want = reference(rows.iter().map(|&r| a.row(r)), &b);
                let got = a.matmul_rows(&rows, &b);
                assert_eq!(got.shape, vec![m, n]);
                assert!(same_bits(&got.data, &want), "rows m={m} k={k} n={n}");
                for workers in [1, 2, 3] {
                    let got = a.matmul_rows_with_threads(&rows, &b, workers);
                    assert!(
                        same_bits(&got.data, &want),
                        "rows m={m} k={k} n={n} at {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn products_into_a_reused_buffer_match_fresh_ones() {
    let mut rng = SeededRng::new(0x3C7);
    // Stale contents, a larger and then a smaller shape: each product must
    // overwrite every element it owns and take its own shape.
    let mut out = Tensor::from_vec(vec![f32::NAN; 40 * 600], &[40, 600]);
    for (m, k, n) in [
        (9, 12, 504),
        (PAR_MIN_ROWS + 3, 16, 32),
        (3, 5, 3),
        (0, 4, 17),
    ] {
        let a = left(m, k, &mut rng);
        let b = right(k, n, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape, vec![m, n]);
        assert!(same_bits(&out.data, &a.matmul(&b).data));
        let rows: Vec<usize> = (0..m).rev().collect();
        a.matmul_rows_into(&rows, &b, &mut out);
        assert_eq!(out.shape, vec![m, n]);
        assert!(same_bits(&out.data, &a.matmul_rows(&rows, &b).data));
    }
}

#[test]
fn in_place_leaky_relu_matches_map() {
    let mut rng = SeededRng::new(0x4C7);
    let mut x = Tensor::randn(&[37, 19], &mut rng);
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN,
    ];
    for (v, &s) in x.data.iter_mut().step_by(3).zip(specials.iter().cycle()) {
        *v = s;
    }
    for slope in [0.01f32, 0.2, -1.5] {
        let act = LeakyReLU::with_slope(slope);
        let want = x.map(|v| if v > 0.0 { v } else { slope * v });
        let mut got = x.clone();
        act.forward_inplace(&mut got);
        assert!(same_bits(&got.data, &want.data), "slope {slope}");
        assert!(
            same_bits(&act.forward(&x).data, &want.data),
            "slope {slope}"
        );
    }
}

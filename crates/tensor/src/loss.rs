//! Loss functions.
//!
//! The PnP classifier is trained with softmax cross-entropy (Table II); mean
//! squared error is used by the surrogate regressors in the BLISS-style tuner.

use crate::Tensor;

/// Row-wise numerically stable softmax.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] in place, without the copy.
pub fn softmax_rows_inplace(out: &mut Tensor) {
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax cross-entropy over integer class targets.
///
/// Returns `(mean_loss, dL/dlogits)` where the gradient is already divided by
/// the batch size so it can be fed straight into the classifier's backward
/// pass.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        logits.rows(),
        targets.len(),
        "one target per logit row required"
    );
    let probs = softmax_rows(logits);
    let n = targets.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (r, &t) in targets.iter().enumerate() {
        assert!(
            t < logits.cols(),
            "target class {t} out of range for {} classes",
            logits.cols()
        );
        let p = probs.get(r, t).max(1e-12);
        loss -= p.ln();
        let g = grad.get(r, t);
        grad.set(r, t, g - 1.0);
    }
    grad.scale_inplace(1.0 / n);
    (loss / n, grad)
}

/// Cross-entropy with per-sample weights (used to emphasize rare best-config
/// classes when the label distribution is skewed).
pub fn weighted_cross_entropy(
    logits: &Tensor,
    targets: &[usize],
    weights: &[f32],
) -> (f32, Tensor) {
    assert_eq!(logits.rows(), targets.len());
    assert_eq!(targets.len(), weights.len());
    let probs = softmax_rows(logits);
    let wsum: f32 = weights.iter().sum::<f32>().max(1e-12);
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(&logits.shape);
    for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
        let p = probs.get(r, t).max(1e-12);
        loss -= w * p.ln();
        for c in 0..logits.cols() {
            let indicator = if c == t { 1.0 } else { 0.0 };
            grad.set(r, c, w * (probs.get(r, c) - indicator) / wsum);
        }
    }
    (loss / wsum, grad)
}

/// Mean squared error between predictions and targets of identical shape.
///
/// Returns `(mean_loss, dL/dpred)`.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape, target.shape, "mse shape mismatch");
    let n = pred.numel() as f32;
    let diff = pred.sub(target);
    let loss = diff.data.iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Classification accuracy: fraction of rows whose argmax equals the target.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    if targets.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(targets).filter(|(p, t)| *p == *t).count();
    correct as f32 / targets.len() as f32
}

/// Top-k accuracy: fraction of rows where the target is among the k highest
/// logits. The paper's evaluation effectively cares about near-optimal
/// configurations, so top-k is a useful training diagnostic.
pub fn topk_accuracy(logits: &Tensor, targets: &[usize], k: usize) -> f32 {
    if targets.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        if idx.iter().take(k).any(|&i| i == t) {
            correct += 1;
        }
    }
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_ranking_is_total_and_pinned_under_nan_and_signed_zero() {
        // NaN must not panic the comparator. Under `total_cmp`, NaN sorts
        // above +inf, so descending rank order is pinned: NaN, 2.0, 0.0,
        // -0.0, -1.0 — the target at column 1 (2.0) is within top-2.
        let logits = Tensor::from_rows(&[vec![0.0, 2.0, f32::NAN, -0.0, -1.0]]);
        assert_eq!(topk_accuracy(&logits, &[2], 1), 1.0); // NaN column ranks first
        assert_eq!(topk_accuracy(&logits, &[1], 2), 1.0);
        assert_eq!(topk_accuracy(&logits, &[1], 1), 0.0);
        // Signed zero: total_cmp orders -0.0 below 0.0, so top-3 holds
        // column 0 (+0.0) and top-4 is needed for column 3 (-0.0).
        assert_eq!(topk_accuracy(&logits, &[0], 3), 1.0);
        assert_eq!(topk_accuracy(&logits, &[3], 3), 0.0);
        assert_eq!(topk_accuracy(&logits, &[3], 4), 1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![1001.0, 1002.0, 1003.0]]);
        let pa = softmax_rows(&a);
        let pb = softmax_rows(&b);
        for (x, y) in pa.data.iter().zip(&pb.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = Tensor::from_rows(&[vec![100.0, 0.0], vec![0.0, 100.0]]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_rows(&[vec![0.3, -0.2, 0.7]]);
        let targets = vec![2usize];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, c, lp.get(0, c) + eps);
            let (fp, _) = cross_entropy(&lp, &targets);
            let mut lm = logits.clone();
            lm.set(0, c, lm.get(0, c) - eps);
            let (fm, _) = cross_entropy(&lm, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.get(0, c)).abs() < 1e-3,
                "class {c}: numeric {numeric} vs analytic {}",
                grad.get(0, c)
            );
        }
    }

    #[test]
    fn mse_zero_for_identical() {
        let a = Tensor::ones(&[2, 2]);
        let (loss, grad) = mse_loss(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn topk_accuracy_is_monotone_in_k() {
        let logits = Tensor::from_rows(&[vec![0.5, 0.3, 0.2], vec![0.1, 0.2, 0.7]]);
        let targets = vec![1usize, 0usize];
        let a1 = topk_accuracy(&logits, &targets, 1);
        let a2 = topk_accuracy(&logits, &targets, 2);
        let a3 = topk_accuracy(&logits, &targets, 3);
        assert!(a1 <= a2 && a2 <= a3);
        assert_eq!(a3, 1.0);
    }

    #[test]
    fn weighted_cross_entropy_reduces_to_plain_with_unit_weights() {
        let logits = Tensor::from_rows(&[vec![0.1, 0.2, 0.3], vec![1.0, -1.0, 0.0]]);
        let targets = vec![0usize, 2usize];
        let (l1, _) = cross_entropy(&logits, &targets);
        let (l2, _) = weighted_cross_entropy(&logits, &targets, &[1.0, 1.0]);
        assert!((l1 - l2 * 1.0).abs() < 1e-5);
    }
}

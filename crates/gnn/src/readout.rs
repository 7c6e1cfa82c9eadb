//! Graph readout: pooling node representations into a fixed-size graph
//! representation.

use pnp_tensor::Tensor;

/// Mean pooling over node features, producing a single row vector.
///
/// The paper feeds the GNN output into the dense classifier; mean pooling is
/// the standard permutation-invariant way to collapse a variable-size node
/// set, and a sum-pooling variant is provided for the ablation bench.
pub struct MeanReadout {
    cached_num_nodes: usize,
    /// When true, use sum pooling instead of mean (ablation).
    pub sum_pool: bool,
}

impl MeanReadout {
    /// Creates a mean-pooling readout.
    pub fn new() -> Self {
        MeanReadout {
            cached_num_nodes: 0,
            sum_pool: false,
        }
    }

    /// Creates a sum-pooling readout (ablation variant).
    pub fn sum() -> Self {
        MeanReadout {
            cached_num_nodes: 0,
            sum_pool: true,
        }
    }

    /// Pools `(num_nodes x d)` node features into a `(1 x d)` graph vector.
    pub fn forward(&self, h: &Tensor) -> Tensor {
        let pooled = if self.sum_pool {
            h.sum_rows()
        } else {
            h.mean_rows()
        };
        pooled.reshape(&[1, h.cols()])
    }

    /// Training forward: records the node count for
    /// [`MeanReadout::backward`], then pools.
    pub fn forward_train(&mut self, h: &Tensor) -> Tensor {
        self.cached_num_nodes = h.rows();
        self.forward(h)
    }

    /// Pools a block-diagonal batch of node features into one graph vector
    /// per segment, node `i`'s row read from `table.row(rows[i])`: row `s`
    /// of the `(B x d)` result is exactly what [`MeanReadout::forward`]
    /// would produce for the node rows `segments[s]..segments[s + 1]`
    /// alone, bit for bit (the segment reductions reuse the single-graph
    /// accumulation order; DESIGN.md §15). A table with one row per node
    /// class pools each node through its class.
    pub fn forward_segments(&self, table: &Tensor, rows: &[usize], segments: &[usize]) -> Tensor {
        if self.sum_pool {
            table.segment_sum_rows_of(rows, segments)
        } else {
            table.segment_mean_rows_of(rows, segments)
        }
    }

    /// Distributes the graph-level gradient back to every node.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = self.cached_num_nodes.max(1);
        let scale = if self.sum_pool { 1.0 } else { 1.0 / n as f32 };
        let mut grad = Tensor::zeros(&[n, grad_out.cols()]);
        for r in 0..n {
            grad.axpy_row(r, scale, grad_out.row(0));
        }
        grad
    }
}

impl Default for MeanReadout {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_readout_averages_nodes() {
        let mut r = MeanReadout::new();
        let h = Tensor::from_rows(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        let out = r.forward_train(&h);
        assert_eq!(out.shape, vec![1, 2]);
        assert_eq!(out.data, vec![2.0, 4.0]);
    }

    #[test]
    fn sum_readout_sums_nodes() {
        let mut r = MeanReadout::sum();
        let h = Tensor::from_rows(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        let out = r.forward_train(&h);
        assert_eq!(out.data, vec![4.0, 8.0]);
    }

    #[test]
    fn forward_segments_matches_per_graph_forward_bitwise() {
        let h = Tensor::from_rows(&[
            vec![1.0, 3.0],
            vec![3.0, 5.0],
            vec![0.7, -2.3],
            vec![1.1, 0.2],
            vec![-0.4, 9.9],
        ]);
        let segments = [0usize, 2, 5];
        for sum_pool in [false, true] {
            let single = if sum_pool {
                MeanReadout::sum()
            } else {
                MeanReadout::new()
            };
            let batched = single.forward_segments(&h, &[0, 1, 2, 3, 4], &segments);
            assert_eq!(batched.shape, vec![2, 2]);
            for i in 0..2 {
                let rows: Vec<Vec<f32>> = (segments[i]..segments[i + 1])
                    .map(|r| h.row(r).to_vec())
                    .collect();
                let alone = single.forward(&Tensor::from_rows(&rows));
                for (a, b) in batched.row(i).iter().zip(alone.row(0)) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn backward_distributes_gradient_evenly() {
        let mut r = MeanReadout::new();
        let h = Tensor::ones(&[4, 3]);
        let _ = r.forward_train(&h);
        let grad = r.backward(&Tensor::from_rows(&[vec![4.0, 8.0, 12.0]]));
        assert_eq!(grad.shape, vec![4, 3]);
        assert_eq!(grad.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(grad.row(3), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_then_backward_is_consistent_with_finite_difference() {
        let mut r = MeanReadout::new();
        let h = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let out = r.forward_train(&h);
        // objective = sum(readout)
        let _ = out;
        let grad = r.backward(&Tensor::ones(&[1, 2]));
        // d(sum of means)/dh[i][j] = 1/3
        assert!(grad.data.iter().all(|&g| (g - 1.0 / 3.0).abs() < 1e-6));
    }
}

//! Relational Graph Convolutional layers.
//!
//! Following Schlichtkrull et al., the layer computes for every node `i`
//!
//! ```text
//! h'_i = W_0 · h_i + Σ_r Σ_{j ∈ N_r(i)} (1 / c_{i,r}) · W_r · h_j + b
//! ```
//!
//! where `r` ranges over the three edge relations (control, data, call flow),
//! `N_r(i)` are the in-neighbours of `i` under relation `r`, and
//! `c_{i,r} = |N_r(i)|` is the normalization constant. Relation-specific
//! weights are what distinguish the RGCN from a plain GCN — the ablation
//! benches compare both.

use pnp_tensor::init::{kaiming_normal, SeededRng};
use pnp_tensor::{Parameter, Tensor};

/// One RGCN layer with per-relation weights, a self-loop weight, and a bias.
pub struct RgcnLayer {
    /// Self-loop weight `W_0` (`d_in x d_out`).
    pub w_self: Parameter,
    /// One weight matrix per relation (`d_in x d_out` each).
    pub w_rel: Vec<Parameter>,
    /// Bias (`d_out`).
    pub bias: Parameter,
    /// When false, relation-specific weights are tied to `W_0` (plain-GCN
    /// ablation mode).
    pub relational: bool,
    cached_input: Option<Tensor>,
    cached_relations: Option<Vec<Vec<(usize, usize)>>>,
    cached_inv_deg: Option<Vec<Vec<f32>>>,
}

impl RgcnLayer {
    /// Creates a layer for `num_relations` edge types.
    pub fn new(
        prefix: &str,
        d_in: usize,
        d_out: usize,
        num_relations: usize,
        rng: &mut SeededRng,
    ) -> Self {
        let w_self = Parameter::new(format!("{prefix}.w_self"), kaiming_normal(d_in, d_out, rng));
        let w_rel = (0..num_relations)
            .map(|r| {
                Parameter::new(
                    format!("{prefix}.w_rel{r}"),
                    kaiming_normal(d_in, d_out, rng),
                )
            })
            .collect();
        let bias = Parameter::new(format!("{prefix}.bias"), Tensor::zeros(&[d_out]));
        RgcnLayer {
            w_self,
            w_rel,
            bias,
            relational: true,
            cached_input: None,
            cached_relations: None,
            cached_inv_deg: None,
        }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.w_self.value.rows()
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.w_self.value.cols()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.w_rel.len()
    }

    /// Per-relation inverse in-degree, used as the normalization constant.
    fn inverse_degrees(num_nodes: usize, relations: &[Vec<(usize, usize)>]) -> Vec<Vec<f32>> {
        relations
            .iter()
            .map(|edges| {
                let mut deg = vec![0usize; num_nodes];
                for &(_, d) in edges {
                    deg[d] += 1;
                }
                deg.iter()
                    .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
                    .collect()
            })
            .collect()
    }

    /// Inference forward over node features `h` (`num_nodes x d_in`) and
    /// edges grouped by relation. Writes no state.
    pub fn forward(&self, h: &Tensor, relations: &[Vec<(usize, usize)>]) -> Tensor {
        assert_eq!(h.cols(), self.d_in(), "RGCN input dimension mismatch");
        assert_eq!(
            relations.len(),
            self.num_relations(),
            "expected {} relations, got {}",
            self.num_relations(),
            relations.len()
        );
        let inv_deg = Self::inverse_degrees(h.rows(), relations);

        // Self-loop term plus bias.
        let mut out = h
            .matmul(&self.w_self.value)
            .add_row_broadcast(&self.bias.value);

        // Per-relation message passing with normalized-sum aggregation.
        for (r, edges) in relations.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            let w = if self.relational {
                &self.w_rel[r].value
            } else {
                &self.w_self.value
            };
            let messages = h.matmul(w);
            for &(s, d) in edges {
                let norm = inv_deg[r][d];
                out.axpy_row(d, norm, messages.row(s));
            }
        }
        out
    }

    /// Training forward: records the input, edges and normalization for
    /// [`RgcnLayer::backward`], then runs [`RgcnLayer::forward`].
    pub fn forward_train(&mut self, h: &Tensor, relations: &[Vec<(usize, usize)>]) -> Tensor {
        self.cached_input = Some(h.clone());
        self.cached_relations = Some(relations.to_vec());
        self.cached_inv_deg = Some(Self::inverse_degrees(h.rows(), relations));
        self.forward(h, relations)
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input node features.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let h = self
            .cached_input
            .as_ref()
            .expect("RgcnLayer::backward before forward_train");
        let relations = self.cached_relations.as_ref().unwrap();
        let inv_deg = self.cached_inv_deg.as_ref().unwrap();
        let num_nodes = h.rows();

        // Self-loop gradients.
        self.w_self.grad.add_assign(&h.matmul_at_b(grad_out));
        self.bias.grad.add_assign(&grad_out.sum_rows());
        let mut grad_h = grad_out.matmul_a_bt(&self.w_self.value);

        // Relation gradients.
        for (r, edges) in relations.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            // dMessages[s] += norm(d) * grad_out[d] for each edge (s, d)
            let mut d_messages = Tensor::zeros(&[num_nodes, self.d_out()]);
            for &(s, d) in edges {
                d_messages.axpy_row(s, inv_deg[r][d], grad_out.row(d));
            }
            if self.relational {
                self.w_rel[r].grad.add_assign(&h.matmul_at_b(&d_messages));
                grad_h.add_assign(&d_messages.matmul_a_bt(&self.w_rel[r].value));
            } else {
                self.w_self.grad.add_assign(&h.matmul_at_b(&d_messages));
                grad_h.add_assign(&d_messages.matmul_a_bt(&self.w_self.value));
            }
        }
        grad_h
    }

    /// Mutable access to all parameters of this layer.
    pub fn parameters(&mut self) -> Vec<&mut Parameter> {
        let mut ps = vec![&mut self.w_self, &mut self.bias];
        ps.extend(self.w_rel.iter_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node graph with two relations:
    /// relation 0: 0→1, 1→2, 2→3 (a chain)
    /// relation 1: 3→0 (a back edge)
    fn toy_relations() -> Vec<Vec<(usize, usize)>> {
        vec![vec![(0, 1), (1, 2), (2, 3)], vec![(3, 0)], vec![]]
    }

    #[test]
    fn output_shape_is_nodes_by_dout() {
        let mut rng = SeededRng::new(1);
        let layer = RgcnLayer::new("rgcn0", 6, 8, 3, &mut rng);
        let h = Tensor::randn(&[4, 6], &mut rng);
        let out = layer.forward(&h, &toy_relations());
        assert_eq!(out.shape, vec![4, 8]);
        assert!(out.all_finite());
    }

    #[test]
    fn isolated_node_gets_only_self_message() {
        let mut rng = SeededRng::new(2);
        let layer = RgcnLayer::new("rgcn0", 3, 3, 3, &mut rng);
        let h = Tensor::randn(&[2, 3], &mut rng);
        // No edges at all: output must equal H·W_self + b for every node.
        let empty = vec![vec![], vec![], vec![]];
        let out = layer.forward(&h, &empty);
        let expected = h
            .matmul(&layer.w_self.value)
            .add_row_broadcast(&layer.bias.value);
        for (a, b) in out.data.iter().zip(&expected.data) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn normalization_averages_multiple_in_edges() {
        let mut rng = SeededRng::new(3);
        let mut layer = RgcnLayer::new("rgcn0", 2, 2, 1, &mut rng);
        // Make weights identity-like for a transparent check.
        layer.w_self.value = Tensor::zeros(&[2, 2]);
        layer.w_rel[0].value = Tensor::eye(2);
        layer.bias.value = Tensor::zeros(&[2]);
        // Node 2 receives from nodes 0 and 1; normalized sum = mean of h0, h1.
        let h = Tensor::from_rows(&[vec![2.0, 0.0], vec![4.0, 0.0], vec![0.0, 0.0]]);
        let rel = vec![vec![(0, 2), (1, 2)]];
        let out = layer.forward(&h, &rel);
        assert!((out.get(2, 0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(4);
        let mut layer = RgcnLayer::new("rgcn0", 3, 3, 3, &mut rng);
        let h = Tensor::randn(&[4, 3], &mut rng);
        let rels = toy_relations();

        // Objective: sum of outputs.
        let out = layer.forward_train(&h, &rels);
        let grad_h = layer.backward(&Tensor::ones(&out.shape));

        let eps = 1e-2f32;
        // Check dL/dW_rel[0][0,0].
        let analytic = layer.w_rel[0].grad.get(0, 0);
        let orig = layer.w_rel[0].value.get(0, 0);
        layer.w_rel[0].value.set(0, 0, orig + eps);
        let f_plus = layer.forward(&h, &rels).sum();
        layer.w_rel[0].value.set(0, 0, orig - eps);
        let f_minus = layer.forward(&h, &rels).sum();
        layer.w_rel[0].value.set(0, 0, orig);
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "w_rel grad: numeric {numeric} vs analytic {analytic}"
        );

        // Check dL/dH[1,2].
        let analytic_h = grad_h.get(1, 2);
        let mut hp = h.clone();
        hp.set(1, 2, hp.get(1, 2) + eps);
        let f_plus = layer.forward(&hp, &rels).sum();
        let mut hm = h.clone();
        hm.set(1, 2, hm.get(1, 2) - eps);
        let f_minus = layer.forward(&hm, &rels).sum();
        let numeric_h = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (numeric_h - analytic_h).abs() < 2e-2,
            "h grad: numeric {numeric_h} vs analytic {analytic_h}"
        );
    }

    #[test]
    fn relation_specific_weights_change_output() {
        let mut rng = SeededRng::new(5);
        let mut layer = RgcnLayer::new("rgcn0", 4, 4, 3, &mut rng);
        let h = Tensor::randn(&[4, 4], &mut rng);
        let rels = toy_relations();
        let out_relational = layer.forward(&h, &rels);
        layer.relational = false;
        let out_tied = layer.forward(&h, &rels);
        // With different per-relation weights the outputs must differ.
        let diff: f32 = out_relational
            .data
            .iter()
            .zip(&out_tied.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn parameter_names_are_unique_and_prefixed() {
        let mut rng = SeededRng::new(6);
        let mut layer = RgcnLayer::new("rgcn2", 4, 4, 3, &mut rng);
        let names: Vec<String> = layer.parameters().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 5);
        assert!(names.iter().all(|n| n.starts_with("rgcn2.")));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}

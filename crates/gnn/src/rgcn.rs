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
//!
//! ## One row per class
//!
//! [`RgcnLayer::forward_into`] computes the output rows a
//! [`LayerReads`] names from the input-table rows it names: the self term
//! `x · W_0 + b` once per output row, each relation's `x · W_r` once per
//! distinct source row, and the messages scattered relation by relation
//! in edge order. Over row classes (inference, [`crate::ReadPlan::row_classes`])
//! an output row stands for every node of its class and only the edges
//! into each class's first node are scattered; over node rows (training,
//! [`crate::ReadPlan::node_reads`]) every node and edge is kept. Each
//! computed row is the same sequence of float operations as the all-rows
//! product and scatter, so every output bit is unchanged (DESIGN.md §15).

use crate::plan::{LayerReads, ReadPlan};
use pnp_tensor::init::{kaiming_normal, SeededRng};
use pnp_tensor::{Parameter, Tensor};
use std::sync::Arc;

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
    cached: Option<(Tensor, Arc<ReadPlan>)>,
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
        Self::from_parameters(w_self, w_rel, bias)
    }

    /// A relational layer over the given self-loop weight, one weight per
    /// relation (`d_in x d_out` each) and `d_out` bias.
    pub fn from_parameters(w_self: Parameter, w_rel: Vec<Parameter>, bias: Parameter) -> Self {
        RgcnLayer {
            w_self,
            w_rel,
            bias,
            relational: true,
            cached: None,
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

    /// Forward over the input table `x` (`reads.input_rows() x d_in`):
    /// returns the `reads.output_rows() x d_out` table. Writes no state.
    pub fn forward(&self, x: &Tensor, reads: &LayerReads) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.forward_into(x, reads, &mut out, &mut Tensor::zeros(&[0, 0]));
        out
    }

    /// [`RgcnLayer::forward`] written into `out`, with `scratch` for each
    /// relation's messages. Both take whatever shape the layer needs and
    /// keep their allocations when those are large enough, so a caller that
    /// passes the same tables layer after layer allocates them once.
    pub fn forward_into(
        &self,
        x: &Tensor,
        reads: &LayerReads,
        out: &mut Tensor,
        scratch: &mut Tensor,
    ) {
        assert_eq!(x.cols(), self.d_in(), "RGCN input dimension mismatch");
        assert_eq!(
            x.rows(),
            reads.input_rows(),
            "RGCN input table does not match the layer's reads"
        );
        assert_eq!(
            reads.relations().len(),
            self.num_relations(),
            "expected {} relations, got {}",
            self.num_relations(),
            reads.relations().len()
        );

        // Self-loop term plus bias, once per output row.
        x.matmul_rows_into(reads.self_rows(), &self.w_self.value, out);
        out.add_row_broadcast_inplace(&self.bias.value);

        // Per-relation message passing with normalized-sum aggregation.
        for (relation, w_rel) in reads.relations().iter().zip(&self.w_rel) {
            if relation.edges.is_empty() {
                continue;
            }
            let w = if self.relational {
                &w_rel.value
            } else {
                &self.w_self.value
            };
            x.matmul_rows_into(&relation.sources, w, scratch);
            for edge in &relation.edges {
                out.axpy_row(edge.row, edge.norm, scratch.row(edge.slot));
            }
        }
    }

    /// Training forward over node features `h` (`num_nodes x d_in`): records
    /// the input and the plan for [`RgcnLayer::backward`], then runs
    /// [`RgcnLayer::forward`] over the plan's node rows.
    pub fn forward_train(&mut self, h: &Tensor, plan: &Arc<ReadPlan>) -> Tensor {
        self.cached = Some((h.clone(), Arc::clone(plan)));
        self.forward(h, plan.node_reads())
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input node features.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, plan) = self
            .cached
            .as_ref()
            .expect("RgcnLayer::backward before forward_train");

        // Self-loop gradients.
        self.w_self.grad.add_assign(&h.matmul_at_b(grad_out));
        self.bias.grad.add_assign(&grad_out.sum_rows());
        let mut grad_h = grad_out.matmul_a_bt(&self.w_self.value);

        // Relation gradients; over node rows every edge is scattered, so the
        // reads pair up with the edges one to one.
        for ((edges, reads), w_rel) in plan
            .relations()
            .iter()
            .zip(plan.node_reads().relations())
            .zip(self.w_rel.iter_mut())
        {
            if edges.is_empty() {
                continue;
            }
            // dMessages[s] += norm(d) * grad_out[d] for each edge (s, d)
            let mut d_messages = Tensor::zeros(&[h.rows(), grad_out.cols()]);
            for (&(s, d), edge) in edges.iter().zip(&reads.edges) {
                d_messages.axpy_row(s, edge.norm, grad_out.row(d));
            }
            let w = if self.relational {
                w_rel
            } else {
                &mut self.w_self
            };
            w.grad.add_assign(&h.matmul_at_b(&d_messages));
            grad_h.add_assign(&d_messages.matmul_a_bt(&w.value));
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

/// The all-rows layer body the plan replaced: every product over every node
/// row and the inverse degrees recomputed per call. It is the bit-identity
/// reference of `crate::forward_properties`.
#[cfg(test)]
impl RgcnLayer {
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

    pub(crate) fn forward_all_rows(&self, h: &Tensor, relations: &[Vec<(usize, usize)>]) -> Tensor {
        let inv_deg = Self::inverse_degrees(h.rows(), relations);
        let mut out = h
            .matmul(&self.w_self.value)
            .add_row_broadcast(&self.bias.value);
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
                out.axpy_row(d, inv_deg[r][d], messages.row(s));
            }
        }
        out
    }

    /// Training twin of [`RgcnLayer::forward_all_rows`]: records the input
    /// and the edge lists (in a plan) for [`RgcnLayer::backward_all_rows`].
    pub(crate) fn forward_train_all_rows(
        &mut self,
        h: &Tensor,
        relations: &[Vec<(usize, usize)>],
    ) -> Tensor {
        let out = self.forward_all_rows(h, relations);
        let plan = ReadPlan::new(vec![0; h.rows()], vec![0; h.rows()], relations.to_vec());
        self.cached = Some((h.clone(), Arc::new(plan)));
        out
    }

    pub(crate) fn backward_all_rows(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, plan) = self.cached.clone().expect("backward before forward");
        let relations = plan.relations();
        let inv_deg = Self::inverse_degrees(h.rows(), relations);
        self.w_self.grad.add_assign(&h.matmul_at_b(grad_out));
        self.bias.grad.add_assign(&grad_out.sum_rows());
        let mut grad_h = grad_out.matmul_a_bt(&self.w_self.value);
        for (r, edges) in relations.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            let mut d_messages = Tensor::zeros(&[h.rows(), self.d_out()]);
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

    /// A plan over `num_nodes` nodes that all share one `(token, kind)`.
    fn plan(num_nodes: usize, relations: Vec<Vec<(usize, usize)>>) -> Arc<ReadPlan> {
        Arc::new(ReadPlan::new(
            vec![0; num_nodes],
            vec![0; num_nodes],
            relations,
        ))
    }

    fn forward(layer: &RgcnLayer, h: &Tensor, relations: Vec<Vec<(usize, usize)>>) -> Tensor {
        layer.forward(h, plan(h.rows(), relations).node_reads())
    }

    #[test]
    fn output_shape_is_nodes_by_dout() {
        let mut rng = SeededRng::new(1);
        let layer = RgcnLayer::new("rgcn0", 6, 8, 3, &mut rng);
        let h = Tensor::randn(&[4, 6], &mut rng);
        let out = forward(&layer, &h, toy_relations());
        assert_eq!(out.shape, vec![4, 8]);
        assert!(out.all_finite());
    }

    #[test]
    fn isolated_node_gets_only_self_message() {
        let mut rng = SeededRng::new(2);
        let layer = RgcnLayer::new("rgcn0", 3, 3, 3, &mut rng);
        let h = Tensor::randn(&[2, 3], &mut rng);
        // No edges at all: output must equal H·W_self + b for every node.
        let out = forward(&layer, &h, vec![vec![], vec![], vec![]]);
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
        let out = forward(&layer, &h, vec![vec![(0, 2), (1, 2)]]);
        assert!((out.get(2, 0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn node_reads_keep_every_row_and_read_each_source_once() {
        let plan = plan(
            4,
            vec![vec![(2, 1), (0, 1), (2, 3), (2, 3)], vec![], vec![(3, 3)]],
        );
        let reads = plan.node_reads();
        assert_eq!((reads.input_rows(), reads.output_rows()), (4, 4));
        assert_eq!(reads.self_rows(), &[0, 1, 2, 3]);
        assert_eq!(reads.source_rows(0), &[2, 0]);
        assert!(reads.source_rows(1).is_empty());
        assert_eq!(reads.source_rows(2), &[3]);
        let edges = &reads.relations()[0].edges;
        let rows: Vec<(usize, usize)> = edges.iter().map(|e| (e.row, e.slot)).collect();
        assert_eq!(rows, vec![(1, 0), (1, 1), (3, 0), (3, 0)]);
        assert!(edges.iter().all(|e| e.norm == 0.5));
    }

    #[test]
    fn class_table_forward_matches_the_node_table_bitwise() {
        let mut rng = SeededRng::new(7);
        let layer = RgcnLayer::new("rgcn0", 4, 5, 3, &mut rng);
        let plan = ReadPlan::new(
            vec![3, 1, 3, 3, 1, 0],
            vec![0, 2, 0, 1, 2, 0],
            vec![vec![(0, 1), (2, 1), (4, 5), (5, 0)], vec![(1, 1)], vec![]],
        );
        let classes = plan.row_classes(1);
        let pairs = Tensor::randn(&[classes.count(0), 4], &mut rng);
        let nodes = pairs.select_rows(classes.classes(0));
        let from_classes = layer
            .forward(&pairs, &classes.layers()[0])
            .select_rows(classes.classes(1));
        let from_nodes = layer.forward(&nodes, plan.node_reads());
        let all_rows = layer.forward_all_rows(&nodes, plan.relations());
        let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&from_classes), bits(&from_nodes));
        assert_eq!(bits(&from_nodes), bits(&all_rows));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(4);
        let mut layer = RgcnLayer::new("rgcn0", 3, 3, 3, &mut rng);
        let h = Tensor::randn(&[4, 3], &mut rng);
        let rels = toy_relations();

        // Objective: sum of outputs.
        let out = layer.forward_train(&h, &plan(4, rels.clone()));
        let grad_h = layer.backward(&Tensor::ones(&out.shape));

        let eps = 1e-2f32;
        // Check dL/dW_rel[0][0,0].
        let analytic = layer.w_rel[0].grad.get(0, 0);
        let orig = layer.w_rel[0].value.get(0, 0);
        layer.w_rel[0].value.set(0, 0, orig + eps);
        let f_plus = forward(&layer, &h, rels.clone()).sum();
        layer.w_rel[0].value.set(0, 0, orig - eps);
        let f_minus = forward(&layer, &h, rels.clone()).sum();
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
        let f_plus = forward(&layer, &hp, rels.clone()).sum();
        let mut hm = h.clone();
        hm.set(1, 2, hm.get(1, 2) - eps);
        let f_minus = forward(&layer, &hm, rels).sum();
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
        let out_relational = forward(&layer, &h, toy_relations());
        layer.relational = false;
        let out_tied = forward(&layer, &h, toy_relations());
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

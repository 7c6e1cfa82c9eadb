//! Property tests: the read-planned RGCN forward (a layer multiplies only
//! the rows it reads, the first layer over distinct `(token, kind)` pairs)
//! is bit-identical to the all-rows layer body it replaced, kept here as
//! `RgcnLayer::forward_all_rows` / `backward_all_rows`.
//!
//! Over structure-biased graphs — repeated tokens, token ids and kinds past
//! the embedding tables (which clamp them), isolated nodes, empty
//! relations, duplicate edges and self-loops — in batches of 1, 2 and 33,
//! with relational or tied weights and mean or sum pooling:
//!
//! 1. `forward_batch` logits and `predict_proba` rows equal the all-rows
//!    reference, `f32::to_bits` for `to_bits`;
//! 2. the training `forward(.., true)` logits and every parameter gradient
//!    after `backward` equal those of the all-rows training pass.

use crate::{GraphBatch, ModelConfig, PnPModel};
use pnp_graph::EncodedGraph;
use pnp_tensor::{cross_entropy, softmax_rows, SeededRng, Tensor};
use proptest::prelude::*;

/// Rows of the token table; the generator also draws ids past it.
const VOCAB: usize = 6;
/// Batch sizes the properties cycle through.
const BATCH_SIZES: [usize; 3] = [1, 2, 33];
const NUM_DYNAMIC: usize = 2;

/// Structure-biased graph `index` drawn from `rng`.
fn arb_graph(rng: &mut SeededRng, index: usize) -> EncodedGraph {
    let n = 1 + rng.below(9);
    // A handful of token ids, so pairs repeat; a few past the table.
    let tokens = (0..n)
        .map(|_| {
            if rng.bernoulli(0.15) {
                VOCAB + rng.below(3)
            } else {
                rng.below(4)
            }
        })
        .collect();
    // Kind 3 is past the three-row kind table.
    let kinds = (0..n).map(|_| rng.below(4)).collect();
    // Half the graphs leave their last node isolated.
    let reach = if n > 1 && rng.bernoulli(0.5) {
        n - 1
    } else {
        n
    };
    let relations = (0..3)
        .map(|_| {
            if rng.bernoulli(0.3) {
                return Vec::new();
            }
            // Endpoints drawn independently: self-loops and duplicates occur.
            let mut edges: Vec<(usize, usize)> = (0..rng.below(2 * n + 1))
                .map(|_| (rng.below(reach), rng.below(reach)))
                .collect();
            if let Some(&first) = edges.first() {
                if rng.bernoulli(0.5) {
                    edges.push(first);
                }
            }
            edges
        })
        .collect();
    EncodedGraph {
        name: format!("g{index}"),
        tokens,
        kinds,
        relations,
    }
}

fn config(seed: u64, dynamic: bool, dropout: f32) -> ModelConfig {
    ModelConfig {
        vocab_size: VOCAB,
        hidden_dim: 5,
        num_rgcn_layers: 3,
        fc_hidden: 7,
        num_classes: 4,
        num_relations: 3,
        num_dynamic_features: if dynamic { NUM_DYNAMIC } else { 0 },
        dropout,
        seed,
    }
}

fn model(config: ModelConfig, flags: usize) -> PnPModel {
    let mut model = PnPModel::new(config);
    model.set_relational(flags & 1 == 0);
    model.set_sum_pooling(flags & 2 != 0);
    model
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The generated inputs of one case: graphs and, when `dynamic`, one
/// dynamic-feature row per graph.
fn case(
    seed: usize,
    size_pick: usize,
    dynamic: bool,
) -> (Vec<EncodedGraph>, Option<Vec<Vec<f32>>>) {
    let mut rng = SeededRng::new(seed as u64);
    let size = BATCH_SIZES[size_pick % BATCH_SIZES.len()];
    let graphs: Vec<EncodedGraph> = (0..size).map(|i| arb_graph(&mut rng, i)).collect();
    let rows = dynamic.then(|| {
        (0..size)
            .map(|_| (0..NUM_DYNAMIC).map(|_| rng.normal()).collect())
            .collect()
    });
    (graphs, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inference_is_bit_identical_to_the_all_rows_body(
        seed in 0usize..1 << 30,
        size_pick in 0usize..3,
        flags in 0usize..8,
    ) {
        let dynamic = flags & 4 != 0;
        let (graphs, rows) = case(seed, size_pick, dynamic);
        let model = model(config(seed as u64, dynamic, 0.1), flags);
        let refs: Vec<&EncodedGraph> = graphs.iter().collect();
        let batch = GraphBatch::from_graphs(&refs).unwrap();

        let fused = model.forward_batch(&batch, rows.as_deref());
        let reference = model.forward_batch_all_rows(&batch, rows.as_deref());
        prop_assert_eq!(bits(&fused.data), bits(&reference.data));

        let reference_probs = softmax_rows(&reference);
        for (i, graph) in graphs.iter().enumerate() {
            let dyn_row = rows.as_ref().map(|r| r[i].as_slice());
            let single = model.predict_proba(graph, dyn_row);
            prop_assert_eq!(bits(&single), bits(reference_probs.row(i)));
        }
    }

    #[test]
    fn training_logits_and_gradients_are_bit_identical_to_the_all_rows_body(
        seed in 0usize..1 << 30,
        size_pick in 0usize..3,
        flags in 0usize..8,
    ) {
        let dynamic = flags & 4 != 0;
        let (graphs, rows) = case(seed, size_pick, dynamic);
        // Twins: same weights and the same dropout stream.
        let mut planned = model(config(seed as u64, dynamic, 0.2), flags);
        let mut all_rows = model(config(seed as u64, dynamic, 0.2), flags);
        // Gradients accumulate over the graphs, as in one minibatch.
        for (i, graph) in graphs.iter().enumerate() {
            let dyn_row = rows.as_ref().map(|r| r[i].as_slice());
            let target = [i % 4];
            let logits = planned.forward(graph, dyn_row, true);
            let reference = all_rows.forward_train_all_rows(graph, dyn_row);
            prop_assert_eq!(bits(&logits.data), bits(&reference.data));
            planned.backward(&cross_entropy(&logits, &target).1);
            all_rows.backward_all_rows(&cross_entropy(&reference, &target).1);
        }
        let grads = |m: &mut PnPModel| -> Vec<(String, Tensor)> {
            m.parameters().iter().map(|p| (p.name.clone(), p.grad.clone())).collect()
        };
        for ((name, got), (_, want)) in grads(&mut planned).iter().zip(&grads(&mut all_rows)) {
            prop_assert!(
                bits(&got.data) == bits(&want.data),
                "gradient of {} differs from the all-rows reference",
                name
            );
        }
    }
}

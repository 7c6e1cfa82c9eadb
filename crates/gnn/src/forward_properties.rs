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
//!    after `backward` equal those of the all-rows training pass;
//! 3. over batches built to share row classes — a motif repeated within a
//!    graph, whole duplicate graphs, and sinks that read the same source
//!    classes in another edge order — the fused logits of two models of
//!    depths 1–4 run over one batch (so the second reuses or deepens the
//!    first's classes) equal the all-rows reference.

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

/// Graph `index`: `copies` copies of `motif` side by side, each but the
/// first reading the one before it through one edge of a random relation.
fn repeated(
    motif: &EncodedGraph,
    copies: usize,
    rng: &mut SeededRng,
    index: usize,
) -> EncodedGraph {
    let n = motif.num_nodes();
    let mut relations: Vec<Vec<(usize, usize)>> = vec![Vec::new(); motif.relations.len()];
    for copy in 0..copies {
        let at = copy * n;
        for (merged, edges) in relations.iter_mut().zip(&motif.relations) {
            merged.extend(edges.iter().map(|&(s, d)| (s + at, d + at)));
        }
        if copy > 0 && rng.bernoulli(0.5) {
            let bridge = (at - n + rng.below(n), at + rng.below(n));
            if let Some(edges) = relations.get_mut(rng.below(3)) {
                edges.push(bridge);
            }
        }
    }
    EncodedGraph {
        name: format!("g{index}"),
        tokens: motif.tokens.repeat(copies),
        kinds: motif.kinds.repeat(copies),
        relations,
    }
}

/// Graph `index`: `k` sources of distinct tokens and two sinks of one
/// token that read all of them under one relation, the second sink in a
/// shuffled edge order, so the sinks' in-neighbour class multisets are
/// equal. A third node reads both sinks, carrying their rows a layer on.
fn fan_in(rng: &mut SeededRng, index: usize) -> EncodedGraph {
    let k = 2 + rng.below(3);
    let (x, y, tail) = (k, k + 1, k + 2);
    let (fan_relation, tail_relation) = (rng.below(3), rng.below(3));
    let mut order: Vec<usize> = (0..k).collect();
    rng.shuffle(&mut order);
    let relations = (0..3)
        .map(|r| {
            let mut edges = Vec::new();
            if r == fan_relation {
                edges.extend((0..k).map(|s| (s, x)));
                edges.extend(order.iter().map(|&s| (s, y)));
            }
            if r == tail_relation {
                edges.extend([(x, tail), (y, tail)]);
            }
            edges
        })
        .collect();
    let mut tokens: Vec<usize> = (0..k).collect();
    tokens.extend([VOCAB - 1, VOCAB - 1, 0]);
    EncodedGraph {
        name: format!("g{index}"),
        kinds: tokens
            .iter()
            .map(|&t| usize::from(t == VOCAB - 1))
            .collect(),
        tokens,
        relations,
    }
}

/// A batch of `size` graphs biased to share row classes: repeated motifs,
/// whole duplicates of earlier graphs, and reordered fan-ins.
fn structured_batch(rng: &mut SeededRng, size: usize) -> Vec<EncodedGraph> {
    let motif = arb_graph(rng, 0);
    let mut graphs: Vec<EncodedGraph> = Vec::with_capacity(size);
    for index in 0..size {
        let pick = rng.below(4);
        let duplicate = (pick == 1)
            .then(|| graphs.get(rng.below(graphs.len().max(1))).cloned())
            .flatten();
        let graph = match (pick, duplicate) {
            (_, Some(graph)) => graph,
            (0, None) => repeated(&motif, 1 + rng.below(3), rng, index),
            (2, None) => fan_in(rng, index),
            _ => arb_graph(rng, index),
        };
        graphs.push(graph);
    }
    graphs
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

/// Independent structure-biased graphs `0..size`.
fn arb_batch(rng: &mut SeededRng, size: usize) -> Vec<EncodedGraph> {
    (0..size).map(|i| arb_graph(rng, i)).collect()
}

/// The generated inputs of one case: the graphs `generate` draws and,
/// when `dynamic`, one dynamic-feature row per graph.
fn case(
    seed: usize,
    size_pick: usize,
    dynamic: bool,
    generate: fn(&mut SeededRng, usize) -> Vec<EncodedGraph>,
) -> (Vec<EncodedGraph>, Option<Vec<Vec<f32>>>) {
    let mut rng = SeededRng::new(seed as u64);
    let size = BATCH_SIZES[size_pick % BATCH_SIZES.len()];
    let graphs = generate(&mut rng, size);
    let rows = dynamic.then(|| {
        (0..size)
            .map(|_| (0..NUM_DYNAMIC).map(|_| rng.normal()).collect())
            .collect()
    });
    (graphs, rows)
}

fn batch_of(graphs: &[EncodedGraph]) -> GraphBatch {
    let refs: Vec<&EncodedGraph> = graphs.iter().collect();
    GraphBatch::from_graphs(&refs).unwrap()
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
        let (graphs, rows) = case(seed, size_pick, dynamic, arb_batch);
        let model = model(config(seed as u64, dynamic, 0.1), flags);
        let batch = batch_of(&graphs);

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
    fn shared_row_classes_are_bit_identical_to_the_all_rows_body(
        seed in 0usize..1 << 30,
        size_pick in 0usize..3,
        flags in 0usize..8,
        depth_pick in 0usize..16,
    ) {
        let depths = [1 + depth_pick % 4, 1 + depth_pick / 4];
        let dynamic = flags & 4 != 0;
        let (graphs, rows) = case(seed, size_pick, dynamic, structured_batch);
        let batch = batch_of(&graphs);
        // Two committee members over one batch: the second reuses the
        // first's classes, or deepens them.
        for (member, depth) in depths.into_iter().enumerate() {
            let config = ModelConfig {
                num_rgcn_layers: depth,
                ..config(seed as u64 ^ member as u64, dynamic, 0.1)
            };
            let model = model(config, flags);
            let fused = model.forward_batch(&batch, rows.as_deref());
            let reference = model.forward_batch_all_rows(&batch, rows.as_deref());
            prop_assert_eq!(bits(&fused.data), bits(&reference.data));
        }
        prop_assert_eq!(batch.plan().class_depth(), Some(depths[0].max(depths[1])));
    }

    #[test]
    fn training_logits_and_gradients_are_bit_identical_to_the_all_rows_body(
        seed in 0usize..1 << 30,
        size_pick in 0usize..3,
        flags in 0usize..8,
    ) {
        let dynamic = flags & 4 != 0;
        let (graphs, rows) = case(seed, size_pick, dynamic, arb_batch);
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
